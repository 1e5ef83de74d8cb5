"""Command-line surface: solve RDP queries, trace regions, run codec
simulations, audit seed maps, and emit machine-readable results.

Each ``cmd_*`` returns its files (name to a dict for JSON or a str for
CSV), a summary line and an exit code; ``main`` alone writes the files,
each with one embedded run manifest (subcommand, config path and hash,
master seed, library version, output names) so a run can be reproduced
bit-identically. Exit codes: 0 success, 2 config errors (a missing,
mistyped or unknown field), invalid input or an unusable --out-dir, 3
resource rejections, 4 numerical non-convergence (with the files still
written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .derandom import build_seed_map
from .prob import JointPmf, Kernel
from .region import (AuxChannel, Budgets, RegionProblem, _branch, _Solves, compute_frontier,
                     rate_triple_for_aux)
from .simulate import DEFAULT_MEMORY_CAP, ResourceCapError, SimConfig, run_simulation
from .solver import (
    DistortionMatrix,
    PerceptionMeasure,
    RdpQuery,
    conditional_rdp,
    hamming,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NO_CONVERGENCE = 4


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    config_path: str
    config_sha256: str
    master_seed: int
    version: str
    out_dir: str
    outputs: tuple[str, ...]


_REQUIRED = object()


def _field(obj: dict, name: str, kind=None, default=_REQUIRED):
    """obj[name], checked against ``kind`` (a type or tuple of types; bool
    only where named). Passing a ``default`` makes the field optional: it
    stands in for an absent or null value."""
    value = obj.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field {name!r}")
        return default
    if kind is None:
        return value
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ConfigError(f"field {name!r} has wrong type (expected {names})")
    return value


def _refuse_unknown(obj: dict, known: str, where: str = "config"):
    """Refuse any key of ``obj`` outside the space-separated ``known``: a
    misspelt field would otherwise read as absent and take its default."""
    unknown = sorted(set(obj) - set(known.split()))
    if unknown:
        raise ConfigError(f"unknown {where} field(s) {', '.join(map(repr, unknown))}; "
                          f"known: {known}")


def _as_budget(value) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 0:
        return float(value)
    raise ConfigError(f"budget {value!r} must be a nonnegative number or 'inf'")


def _budgets(cfg: dict) -> Budgets:
    bud = _field(cfg, "budgets", dict)
    _refuse_unknown(bud, "D1 D2 P1 P2", "budgets")
    return Budgets(d1=_as_budget(_field(bud, "D1")), d2=_as_budget(_field(bud, "D2")),
                   p1=_as_budget(_field(bud, "P1", default="inf")),
                   p2=_as_budget(_field(bud, "P2", default="inf")))


def _pmf_like(obj: dict, field: str) -> np.ndarray:
    spec = _field(obj, field, (list, dict))
    if isinstance(spec, list):
        return np.asarray(spec, dtype=np.float64)
    shape = tuple(_field(spec, "alphabets", list))
    probs = np.asarray(_field(spec, "probs", list), dtype=np.float64)
    try:
        return probs.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {field!r}: {exc}") from None


def _perception(obj: dict) -> PerceptionMeasure:
    kind = _field(obj, "perception", str, "tv")
    if kind not in ("tv", "kl"):
        raise ConfigError("perception must be 'tv' or 'kl' in configs")
    return PerceptionMeasure(kind)


def _distortion(obj: dict, n_source: int, field: str = "distortion") -> DistortionMatrix:
    spec = _field(obj, field, (str, list), "hamming")
    if spec == "hamming":
        return DistortionMatrix(hamming(n_source))
    if isinstance(spec, list):
        return DistortionMatrix(np.asarray(spec, dtype=np.float64))
    raise ConfigError(f"field {field!r} must be 'hamming' or a matrix")


def _write(path: Path, content: dict | str, manifest: dict):
    """A dict as sorted-key JSON with the manifest added, a str under a manifest line."""
    if isinstance(content, dict):
        path.write_text(json.dumps({**content, "manifest": manifest}, sort_keys=True,
                                   indent=2) + "\n")
    else:
        path.write_text("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n" + content)


def cmd_rdp(args, cfg: dict):
    _refuse_unknown(cfg, "seed q_xw source distortion perception d_budget p_budget")
    if "q_xw" in cfg and "source" in cfg:
        raise ConfigError("fields 'q_xw' and 'source' both give the source; give one")
    if "q_xw" in cfg:
        q_xw = JointPmf(_pmf_like(cfg, "q_xw"), ("X", "W"))
    else:
        src = _pmf_like(cfg, "source")
        if src.ndim != 1:
            raise ConfigError("field 'source' must be a 1-D pmf")
        q_xw = JointPmf(src[:, None], ("X", "W"))
    query = RdpQuery(
        q_xw=q_xw, delta=_distortion(cfg, q_xw.shape[0]), perception=_perception(cfg),
        d_budget=_as_budget(_field(cfg, "d_budget")),
        p_budget=_as_budget(_field(cfg, "p_budget")))
    result = conditional_rdp(query)
    payload = {"rate_bits": result.rate, "achieved_distortion": result.achieved_distortion,
               "achieved_perception": result.achieved_perception,
               "converged": result.converged, "gap_bits": result.gap,
               "iterations": result.iterations, "test_channel": result.test_channel.to_dict()}
    summary = (f"rate {result.rate:.6f} bits | distortion {result.achieved_distortion:.6g}"
               f" | perception {result.achieved_perception:.6g} | gap {result.gap:.2g} bits"
               f" | converged {result.converged}")
    return ({"rdp_result.json": payload}, summary,
            EXIT_OK if result.converged else EXIT_NO_CONVERGENCE)


def cmd_region(args, cfg: dict):
    _refuse_unknown(cfg, "seed p_xy budgets distortion_x distortion_y perception strategy "
                         "w_size samples restarts cutset_audit")
    p_xy = JointPmf(_pmf_like(cfg, "p_xy"), ("X", "Y"))
    budgets = _budgets(cfg)
    nx, ny = p_xy.shape
    problem = RegionProblem(
        p_xy=p_xy,
        delta_x=_distortion(cfg, nx, "distortion_x"),
        delta_y=_distortion(cfg, ny, "distortion_y"),
        perception_x=_perception(cfg), perception_y=_perception(cfg))
    solves = _Solves()  # the audit's corner triple finds the frontier's solves
    frontier = compute_frontier(
        problem, budgets,
        strategy=_field(cfg, "strategy", str, "grid"),
        w_size=_field(cfg, "w_size", int, None),
        samples=_field(cfg, "samples", int, 16),
        restarts=_field(cfg, "restarts", int, 3),
        seed=args.seed, parallel=args.parallel, solves=solves)

    csv_body = frontier.to_csv()
    payload = frontier.to_dict()

    if _field(cfg, "cutset_audit", bool, False):
        # each branch's point-to-point RDP value: the branch rates of the
        # independent corner, a candidate of every frontier, so a serial
        # frontier has already solved both queries
        corner = rate_triple_for_aux(problem, AuxChannel.independent(nx, ny), budgets, solves)
        rdp_x, rdp_y = corner.r1, corner.r2
        lines = csv_body.splitlines()
        lines[0] += ",cutset_ok"
        for i, pt in enumerate(frontier.points):
            ok = (pt.r0 + pt.r1 >= rdp_x - 1e-3) and (pt.r0 + pt.r2 >= rdp_y - 1e-3)
            lines[i + 1] += f",{str(ok).lower()}"
        csv_body = "\n".join(lines) + "\n"
        payload["cutset_reference"] = {"rdp_x": rdp_x, "rdp_y": rdp_y}

    summary = f"frontier: {len(frontier.points)} points from {frontier.n_evaluated} evaluations"
    return ({"frontier.csv": csv_body, "frontier.json": payload}, summary,
            EXIT_OK if all(pt.converged for pt in frontier.points) else EXIT_NO_CONVERGENCE)


def cmd_simulate(args, cfg: dict):
    _refuse_unknown(cfg, "seed p_xy budgets aux perception distortion_x distortion_y "
                         "test_channel_x test_channel_y n delta trials mode n0")
    p_xy = JointPmf(_pmf_like(cfg, "p_xy"), ("X", "Y"))
    budgets = _budgets(cfg)
    if _field(cfg, "aux", (str, list, dict), "independent") == "independent":
        aux = AuxChannel.independent(*p_xy.shape)
    else:
        aux = AuxChannel(Kernel(_pmf_like(cfg, "aux")))

    perception = _perception(cfg)
    deltas = [_distortion(cfg, size, f"distortion_{b}") for b, size in zip("xy", p_xy.shape)]
    problem = RegionProblem(p_xy, deltas[0], deltas[1], perception, perception)
    q_xyw = p_xy.extend(aux.kernel, "W")
    solves = _Solves()  # equal branch queries, as on a symmetric source, solve once
    channels = []
    for b, name in enumerate(("test_channel_x", "test_channel_y")):
        if _field(cfg, name, (str, list, dict), "solve") == "solve":
            channels.append(_branch(problem, budgets, q_xyw, b, solves).test_channel)
        else:
            channels.append(Kernel(_pmf_like(cfg, name)))

    config = SimConfig(
        p_xy=p_xy, aux=aux, test_channel_x=channels[0], test_channel_y=channels[1],
        n=_field(cfg, "n", int), delta=float(_field(cfg, "delta", (int, float))),
        trials=_field(cfg, "trials", int), master_seed=args.seed, budgets=budgets,
        mode=_field(cfg, "mode", str, "common-randomness"),
        n0=_field(cfg, "n0", int, None), delta_x_mat=deltas[0], delta_y_mat=deltas[1],
        memory_cap=DEFAULT_MEMORY_CAP if args.memory_cap is None else args.memory_cap)
    report = run_simulation(config)
    cols = [(f"{s.mean_distortion:.4f}", f"{s.threshold:.4f}", f"{s.max_tv_excess(p):+.4f}",
             f"{s.freq_no_codeword:.3f}")
            for s, p in ((report.x, budgets.p1), (report.y, budgets.p2))]
    dist, thr, tv, miss = (", ".join(c) for c in zip(*cols))
    summary = (f"distortion ({dist}) vs thresholds ({thr}) | max TV excess ({tv}) | "
               f"miss rates ({report.freq_no_common_codeword:.3f}, {miss})")
    return ({"sim_report.json": report.to_dict(), "sim_report.csv": report.to_csv()},
            summary, EXIT_OK)


def cmd_derand_audit(args, cfg: dict):
    _refuse_unknown(cfg, "seed p_xy n0 n")
    p_xy = JointPmf(_pmf_like(cfg, "p_xy"), ("X", "Y"))
    seed_map = build_seed_map(p_xy, _field(cfg, "n0", int), _field(cfg, "n", int))
    audit = seed_map.audit()
    summary = (f"bins {seed_map.n} | max deviation {audit['max_deviation']:.3e} | "
               f"bound {audit['bound_p_max']:.3e} | pass {audit['within_bound']}")
    return ({"derand_audit.json": audit}, summary,
            EXIT_OK if audit["within_bound"] else EXIT_NO_CONVERGENCE)


COMMANDS = {
    "rdp": cmd_rdp,
    "region": cmd_region,
    "simulate": cmd_simulate,
    "derand-audit": cmd_derand_audit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwrdp",
        description="Rate-distortion-perception tools for the two-decoder "
                    "common-message (Gray-Wyner) network")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides the config)")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for output files")
    parser.add_argument("--parallel", type=int, default=1,
                        help="region only: worker processes for the frontier; results "
                             "are degree-independent (other subcommands ignore it)")
    parser.add_argument("--memory-cap", type=int, default=None,
                        help="simulate only: cap on the codeword symbols drawn, the "
                             "pages drawn from all three codebook layers "
                             f"(default {DEFAULT_MEMORY_CAP})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.memory_cap is not None and args.subcommand != "simulate":
        print(f"--memory-cap applies only to simulate, not {args.subcommand}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config_text = args.config.read_text()
        cfg = json.loads(config_text)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(cfg, dict):
        print("config must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG
    # region's worker processes beyond the cores only add start-up cost;
    # results do not depend on the degree
    args.parallel = min(max(args.parallel, 1), os.cpu_count() or 1)
    try:
        args.seed = args.seed if args.seed is not None else _field(cfg, "seed", int, 0)
        files, summary, code = COMMANDS[args.subcommand](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceCapError, MemoryError) as exc:
        # MemoryError: an allocation the OS refuses outright, such as the
        # per-trial arrays of 10**12 trials
        print(f"resource rejection: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        # the library's input errors (infeasible budgets, bad pmfs, empty
        # typical sets, alphabet limits) are config errors too
        print(f"invalid input ({type(exc).__name__}): {' '.join(str(exc).split())}",
              file=sys.stderr)
        return EXIT_CONFIG
    manifest = asdict(RunManifest(
        args.subcommand, str(args.config), hashlib.sha256(config_text.encode()).hexdigest(),
        args.seed, __version__, str(args.out_dir), outputs=tuple(files)))
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            _write(args.out_dir / name, content, manifest)
    except OSError as exc:
        # an --out-dir that is a file, lies under one, or is not writable
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
