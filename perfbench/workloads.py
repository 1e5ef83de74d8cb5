"""The benchmark's workloads: inputs made from the seed, operations run
through ``gwrdp.cli.main`` in-process, and a verdict for every output.

A workload is a list of commands; one round runs each once. Every
command's output is judged by a ``judge_*`` function that recomputes it
with ``checks`` and returns a ``Verdict``: how many operations the
command stands for, how many failed, and any check that did not hold.
An output that fails a check counts as a failed operation as well.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 4


@dataclass
class Verdict:
    """Outcome of one command; ``rate_bits`` is its share of the
    workload's rate_bits figure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    rate_bits: float = 0.0

    def add(self, other: "Verdict"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


@dataclass
class Command:
    """One gwrdp subcommand with its config; ``spec`` is what the judge
    needs to know about the input."""

    name: str
    subcommand: str
    config: dict
    spec: dict
    extra_args: tuple[str, ...] = ()

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.subcommand, "--config", str(config_path), "--out-dir", str(out_dir),
                "--parallel", "1", *self.extra_args]


def _flat(probs) -> dict:
    arr = np.asarray(probs, dtype=np.float64)
    return {"alphabets": list(arr.shape), "probs": arr.ravel().tolist()}


def dsbs(p: float) -> np.ndarray:
    return np.array([[1 - p, p], [p, 1 - p]]) / 2.0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def rdp_active(seed: int) -> list[Command]:
    """Perception-active `gwrdp rdp` queries (the solver's pinned path)."""
    ternary = [0.5, 0.3, 0.2]
    # the 5x4 instance is drawn from a fixed stream: it is the kept failure
    # (iteration cap, converged=False) and must not change with the seed
    q54 = np.random.default_rng(0).dirichlet(np.ones(20)).reshape(5, 4)
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.200, 0.205), rng.uniform(0.600, 0.605)
    q_bin = 0.5 * np.array([[1 - a, 1 - b], [a, b]])
    queries = [
        ("ternary-tv", np.array(ternary)[:, None], "tv", 0.2, 0.1),
        ("ternary-kl", np.array(ternary)[:, None], "kl", 0.2, 0.01),
        ("cond-5x4-tv", q54, "tv", 0.2, 0.1),
        ("binary-w2-tv", q_bin, "tv", 0.1, 0.02),
    ]
    return [Command(name, "rdp",
                    {"q_xw": _flat(q), "distortion": "hamming", "perception": kind,
                     "d_budget": d, "p_budget": p, "seed": seed},
                    {"q_xw": q, "perception": kind, "d_budget": d, "p_budget": p})
            for name, q, kind, d, p in queries]


REGION_BUDGETS = {"D1": 0.1, "D2": 0.1, "P1": 0.6, "P2": 0.6}


def region_local(seed: int) -> list[Command]:
    """Local frontier search with a cut-set audit on DSBS(0.1), |W| = 2.

    With samples 0 and restarts 1 the search starts only from the
    independent corner, so it draws no random numbers: the frontier, and
    its non-converged points, are the same at every seed.
    """
    p_xy = dsbs(0.1)
    return [Command("frontier", "region",
                    {"p_xy": _flat(p_xy), "budgets": REGION_BUDGETS, "strategy": "local",
                     "samples": 0, "restarts": 1, "w_size": 2, "seed": seed,
                     "cutset_audit": True},
                    {"p_xy": p_xy, "budgets": REGION_BUDGETS})]


def _sim(name: str, p_xy, aux, budgets: dict, n: int, delta: float, trials: int,
         seed: int, mode: str, extra_args=()) -> Command:
    aux_cfg = "independent" if aux is None else _flat(aux)
    aux_arr = np.ones(p_xy.shape + (1,)) if aux is None else np.asarray(aux)
    return Command(name, "simulate",
                   {"p_xy": _flat(p_xy), "aux": aux_cfg, "n": n, "delta": delta,
                    "trials": trials, "budgets": budgets, "mode": mode, "seed": seed},
                   {"p_xy": p_xy, "aux": aux_arr, "budgets": budgets, "delta": delta},
                   tuple(extra_args))


def sim_codebook(seed: int) -> list[Command]:
    """DSBS(0.25), independent W, n = 32: 1,147,128 private codewords per
    branch, so codebook generation dominates."""
    return [_sim("dsbs25-independent", dsbs(0.25), None,
                 {"D1": 0.4, "D2": 0.4, "P1": 0.1, "P2": 0.1}, 32, 0.15, 1000, seed,
                 "common-randomness", ("--memory-cap", str(2 ** 27)))]


SIM_COMMON_AUX = np.array([[0.6, 0.4], [0.5, 0.5], [0.5, 0.5], [0.4, 0.6]]).reshape(2, 2, 2)


def sim_common(seed: int) -> list[Command]:
    """|W| = 2 simulation in both modes, then a seed-map audit with 4^10
    atoms: per-trial loop, full common-layer scans and the seed map."""
    budgets = {"D1": 0.3, "D2": 0.3, "P1": 0.1, "P2": 0.1}
    p_xy = dsbs(0.25)
    return [
        _sim("w2-common-randomness", p_xy, SIM_COMMON_AUX, budgets, 32, 0.05, 2500, seed,
             "common-randomness"),
        _sim("w2-deterministic", p_xy, SIM_COMMON_AUX, budgets, 32, 0.05, 2500, seed,
             "deterministic"),
        Command("seed-map-audit", "derand-audit", {"p_xy": _flat(p_xy), "n0": 10, "n": 32},
                {"p_xy": p_xy, "n0": 10, "n": 32}),
    ]


WORKLOADS = {
    "rdp-active": rdp_active,
    "region-local": region_local,
    "sim-codebook": sim_codebook,
    "sim-common": sim_common,
}


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def _unexpected_exit(name: str, rc: int) -> Verdict:
    return Verdict(1, 1, [f"{name}: exit code {rc}"])


def judge_rdp(cmd: Command, rc: int, result: dict | None, rd_lower: float) -> Verdict:
    """Exit 4 with converged=False is a failed operation the program
    reports itself; exit 0 must pass every check."""
    if rc not in (EXIT_OK, EXIT_NO_CONVERGENCE) or result is None:
        return _unexpected_exit(cmd.name, rc)
    if (rc == EXIT_NO_CONVERGENCE) == result["converged"]:
        return Verdict(1, 1, [f"{cmd.name}: exit {rc} with converged={result['converged']}"],
                       result["rate_bits"])
    if rc == EXIT_NO_CONVERGENCE:
        return Verdict(1, 1, [], result["rate_bits"])
    s = cmd.spec
    q = np.asarray(s["q_xw"])
    problems = checks.check_rdp(q, checks.hamming(q.shape[0]), s["perception"],
                                s["d_budget"], s["p_budget"], result, rd_lower)
    return Verdict(1, int(bool(problems)), [f"{cmd.name}: {p}" for p in problems],
                   result["rate_bits"])


def judge_region(cmd: Command, rc: int, frontier: dict | None,
                 rd_x: float, rd_y: float) -> Verdict:
    """One operation per frontier point; non-converged points are failed
    operations, the others must pass every check."""
    if rc != EXIT_OK or frontier is None or not frontier.get("points"):
        return _unexpected_exit(cmd.name, rc)
    points = frontier["points"]
    bad = {i: [] for i in range(len(points))}
    for i, j in checks.dominated_pairs(points):
        bad[j].append(f"point {j} is dominated by point {i}")
    ref = frontier.get("cutset_reference", {})
    for key, lower in (("rdp_x", rd_x), ("rdp_y", rd_y)):
        if key not in ref or ref[key] < lower - checks.ORACLE_TOL:
            bad[0].append(f"cut-set reference {key}={ref.get(key)} below R(D) {lower:.9g}")
    v = Verdict(len(points), 0, [], min(p["R0"] + p["R1"] + p["R2"] for p in points))
    for i, point in enumerate(points):
        if point["converged"]:
            bad[i] += checks.check_region_point(cmd.spec["p_xy"], cmd.spec["budgets"], point)
            bad[i] += checks.check_cutset(point, rd_x, rd_y)
        if bad[i] or not point["converged"]:
            v.failed += 1
        v.problems += [f"{cmd.name} point {i}: {p}" for p in bad[i]]
    return v


def judge_sim(cmd: Command, rc: int, report: dict | None, tc_x, tc_y) -> Verdict:
    if rc != EXIT_OK or report is None:
        return _unexpected_exit(cmd.name, rc)
    s = cmd.spec
    problems = checks.check_sim(s["p_xy"], s["aux"], tc_x, tc_y, s["budgets"], s["delta"],
                                report)
    # rate_bits counts the common-randomness code; the deterministic one
    # adds only the seed overhead to each rate
    rate = float(sum(report["rates"])) if report["mode"] == "common-randomness" else 0.0
    return Verdict(1, int(bool(problems)), [f"{cmd.name}: {p}" for p in problems], rate)


def judge_audit(cmd: Command, rc: int, audit: dict | None, assignment) -> Verdict:
    if rc != EXIT_OK or audit is None or assignment is None:
        return _unexpected_exit(cmd.name, rc)
    s = cmd.spec
    problems = checks.check_seed_map(s["p_xy"], s["n0"], s["n"], assignment, audit)
    return Verdict(1, int(bool(problems)), [f"{cmd.name}: {p}" for p in problems])


def _read(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Judge:
    """Judges each command's output; oracle values are computed once per
    distinct input and reused across rounds."""

    def __init__(self):
        self._oracle: dict = {}

    def rd(self, q_xw, d_budget: float) -> float:
        q = np.asarray(q_xw, dtype=np.float64)
        key = (q.tobytes(), q.shape, d_budget)
        if key not in self._oracle:
            self._oracle[key] = checks.conditional_rd(q, checks.hamming(q.shape[0]), d_budget)
        return self._oracle[key]

    def __call__(self, cmd: Command, rc: int, out_dir: Path, captured: dict) -> Verdict:
        if cmd.subcommand == "rdp":
            result = _read(out_dir / "rdp_result.json")
            rd = self.rd(cmd.spec["q_xw"], cmd.spec["d_budget"]) if rc == EXIT_OK else math.nan
            return judge_rdp(cmd, rc, result, rd)
        if cmd.subcommand == "region":
            p_xy = cmd.spec["p_xy"]
            b = cmd.spec["budgets"]
            return judge_region(cmd, rc, _read(out_dir / "frontier.json"),
                                self.rd(p_xy.sum(axis=1)[:, None], b["D1"]),
                                self.rd(p_xy.sum(axis=0)[:, None], b["D2"]))
        if cmd.subcommand == "simulate":
            configs = captured.get("run_simulation") or [None]
            config = configs[-1]
            if config is None:
                return _unexpected_exit(cmd.name, rc)
            return judge_sim(cmd, rc, _read(out_dir / "sim_report.json"),
                             config.test_channel_x.probs, config.test_channel_y.probs)
        if cmd.subcommand == "derand-audit":
            maps = captured.get("build_seed_map") or [None]
            return judge_audit(cmd, rc, _read(out_dir / "derand_audit.json"), maps[-1])
        raise ValueError(f"no judge for {cmd.subcommand!r}")
