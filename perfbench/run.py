"""gwrdp benchmark: one workload per process, serial, checked outputs.

    python3 perfbench/run.py --workload rdp-active --seed 0 --seconds 12 --trace 0

Run from the root of a source checkout (``src/gwrdp`` is imported from
there). Each round runs every command of the workload once through
``gwrdp.cli.main`` with ``--parallel 1`` and judges each output against
the benchmark's own recomputation (``checks.py``). Rounds repeat until
the next one would end past ``--seconds`` (at least one round runs).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` rounds alternate
untraced and traced, and the metrics are the per-layer ones taken from
the traced rounds plus the tracing overhead. Times are in reference
seconds (see ``speed.py``). Outputs go to ``.perfbench-out/`` in the
checkout; README.md describes the workloads, checks and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
from speed import Clock

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 6
SETUP_PROBE_TIMEOUT = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print it (used by the parent run)")
    return ap.parse_args(argv)


def set_up(workload: str, seed: int, work_dir: Path):
    """Imports, inputs and config files: everything before the first
    timed operation. Returns (cli module, commands, config paths)."""
    if not (ROOT / "src" / "gwrdp" / "__init__.py").is_file():
        raise SystemExit(f"gwrdp sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import gwrdp.cli as cli
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    commands = workloads.WORKLOADS[workload](seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for cmd in commands:
        path = work_dir / f"{cmd.name}.json"
        path.write_text(json.dumps(cmd.config, sort_keys=True))
        paths.append(path)
    return cli, commands, paths


def probe_setup_times(args) -> list[list[float]]:
    """Set-up timed in fresh processes: [raw, reference] seconds each."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT)
        if out.returncode != 0:
            raise SystemExit(f"set-up probe failed: {out.stderr.strip()}")
        times.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs rounds of one workload and keeps what the metrics need."""

    def __init__(self, cli, commands, paths, work_dir: Path):
        import workloads

        self.cli = cli
        self.commands = commands
        self.paths = paths
        self.work_dir = work_dir
        self.judge = workloads.Judge()
        self.verdict = workloads.Verdict()
        self.rate_bits: list[float] = []
        self.capture = layertrace.Capture()
        # pass-through hooks: the checks need the test channels the CLI
        # solved for and the seed map's assignment, which no output holds
        self.capture.install(cli, "run_simulation", lambda a, k, r: a[0])
        self.capture.install(cli, "build_seed_map", lambda a, k, r: r.assignment)

    def round(self, clock: Clock, tracer=None) -> tuple[float, float]:
        """One pass over the commands; returns the time spent inside
        ``gwrdp.cli.main`` in raw and in reference seconds."""
        raw = ref = rate = 0.0
        main = self.cli.main
        if tracer is not None:
            main = tracer.span("cli", "main", main)
        for cmd, path in zip(self.commands, self.paths):
            out_dir = self.work_dir / cmd.name
            shutil.rmtree(out_dir, ignore_errors=True)  # judge this round's files only
            rc, timing = clock.measure(main, cmd.argv(path, out_dir))
            raw += timing.raw_s
            ref += timing.ref_s
            if tracer is not None:
                tracer.counts["cli.bytes_written"] += sum(
                    f.stat().st_size for f in out_dir.iterdir() if f.is_file())
            captured = {k: self.capture.take(k) for k in ("run_simulation", "build_seed_map")}
            v = self.judge(cmd, rc, out_dir, captured)
            self.verdict.add(v)
            rate += v.rate_bits
        self.rate_bits.append(rate)
        return raw, ref


def run(args) -> dict:
    clock = Clock()
    work_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    (cli, commands, paths), setup = clock.measure(set_up, args.workload, args.seed, work_dir)
    runner = Runner(cli, commands, paths, work_dir)
    # stdout of the commands is not the benchmark's; keep the last line ours
    devnull = open(os.devnull, "w")
    rounds = {"untraced": [], "traced": []}
    tracers = []
    longest = 0.0
    start = time.perf_counter()
    try:
        while True:
            do_trace = args.trace == 1 and len(rounds["traced"]) < len(rounds["untraced"])
            tracer = layertrace.Tracer() if do_trace else None
            if tracer is not None:
                install_layer_spans(tracer)
            t = time.perf_counter()
            saved, sys.stdout = sys.stdout, devnull
            try:
                raw, ref = runner.round(clock, tracer)
            finally:
                sys.stdout = saved
                if tracer is not None:
                    tracer.restore()
            longest = max(longest, time.perf_counter() - t)
            rounds["traced" if do_trace else "untraced"].append({"raw_s": raw, "ref_s": ref})
            if tracer is not None:
                tracers.append(tracer)
            have_all = args.trace == 0 or tracers
            if have_all and time.perf_counter() - start + longest > args.seconds:
                break
    finally:
        devnull.close()
        runner.capture.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [[setup.raw_s, setup.ref_s]] + probe_setup_times(args)
    shutil.rmtree(work_dir, ignore_errors=True)

    v = runner.verdict
    for p in v.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {"correct": not v.problems, "attempted": v.attempted, "failed": v.failed}

    def median_ref(kind):
        return statistics.median(r["ref_s"] for r in rounds[kind])

    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(ref for _, ref in setups), "s"),
            "wall_s": (median_ref("untraced"), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "rate_bits": (statistics.median(runner.rate_bits), "bits"),
        }
    else:
        metrics = layer_metrics(tracers)
        metrics["trace.overhead_pct"] = (
            100.0 * (median_ref("traced") / median_ref("untraced") - 1.0), "%")
        OUT.mkdir(exist_ok=True)
        tracers[-1].write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    result["metrics"] = {k: {"value": val, "unit": unit} for k, (val, unit) in metrics.items()}
    result["rounds"] = rounds
    result["setups_raw_ref_s"] = setups
    return result


# ---------------------------------------------------------------------------
# per-layer spans
# ---------------------------------------------------------------------------


def install_layer_spans(tr):
    """Wrap each layer's public functions in every namespace the CLI and
    the library call them through."""
    import gwrdp.cli as cli
    import gwrdp.codec as codec
    import gwrdp.derandom as derandom
    import gwrdp.prob as prob
    import gwrdp.region as region
    import gwrdp.simulate as simulate
    import gwrdp.solver as solver

    def solved(t, a, k, res):
        t.counts["solver.sweeps"] += res.iterations
        t.counts["solver.nonconverged"] += int(not res.converged)

    def codebook_made(t, a, k, cb):
        t.counts["codec.codewords"] += cb.common.shape[0] + cb.priv_x.shape[0] * (
            cb.priv_x.shape[1] + cb.priv_y.shape[1])
        t.counts["codec.codebook_mb"] += (cb.common.nbytes + cb.priv_x.nbytes
                                          + cb.priv_y.nbytes) / 1e6

    def encoded(t, a, k, enc):
        cb = a[0]
        m0, m1, m2 = cb.sizes
        t.counts["codec.codewords_needed"] += (
            (m0 if enc.miss_common else enc.s0 + 1)
            + (m1 if enc.miss_x else enc.s1 + 1)
            + (m2 if enc.miss_y else enc.s2 + 1))

    def simulated(t, a, k, report):
        t.counts["simulate.trials"] += report.trials

    def seed_map_built(t, a, k, sm):
        t.counts["derandom.atoms"] += sm.assignment.shape[0]

    def frontier_found(t, a, k, fr):
        t.counts["region.frontier_points"] += len(fr.points)

    tr.install([solver, region, cli], "conditional_rdp", "solver", observe=solved)
    tr.install([region], "rate_triple_for_aux", "region")
    tr.install([region], "scalarized_search", "region")
    tr.install([cli], "compute_frontier", "region", observe=frontier_found)
    tr.install([prob.JointPmf], "extend", "prob")
    tr.install([prob.JointPmf], "marginal", "prob")
    tr.install([prob, region], "mutual_information", "prob")
    tr.install([simulate], "generate_codebook", "codec", observe=codebook_made)
    tr.install([simulate, derandom], "encode", "codec", observe=encoded)
    tr.install([simulate, derandom], "decode", "codec")
    tr.install([simulate, cli], "build_seed_map", "derandom", observe=seed_map_built)
    tr.install([simulate], "deterministic_encode", "derandom")
    tr.install([simulate], "deterministic_decode", "derandom")
    tr.install([cli], "run_simulation", "simulate", observe=simulated)


def layer_metrics(tracers) -> dict:
    """Per-round means over the traced rounds (every round runs the same
    commands on the same inputs)."""
    k = len(tracers)

    def per_round(f):
        return sum(f(t) for t in tracers) / k

    m = {
        "solver.calls": (per_round(lambda t: t.calls["solver.conditional_rdp"]), "count"),
        "solver.sweeps": (per_round(lambda t: t.counts["solver.sweeps"]), "count"),
        "solver.s": (per_round(lambda t: t.layer_self_s("solver")), "s"),
        "solver.nonconverged": (per_round(lambda t: t.counts["solver.nonconverged"]), "count"),
        "region.triples": (per_round(lambda t: t.calls["region.rate_triple_for_aux"]), "count"),
        "region.self_s": (per_round(lambda t: t.layer_self_s("region")), "s"),
        "region.frontier_points": (per_round(lambda t: t.counts["region.frontier_points"]),
                                   "count"),
        "prob.calls": (per_round(lambda t: t.layer_calls("prob")), "count"),
        "prob.s": (per_round(lambda t: t.layer_self_s("prob")), "s"),
        "codec.codebook_s": (per_round(lambda t: t.self_s["codec.generate_codebook"]), "s"),
        "codec.codewords": (per_round(lambda t: t.counts["codec.codewords"]), "count"),
        "codec.codebook_mb": (per_round(lambda t: t.counts["codec.codebook_mb"]), "MB"),
        "codec.encode_calls": (per_round(lambda t: t.calls["codec.encode"]), "count"),
        "codec.encode_s": (per_round(lambda t: t.self_s["codec.encode"]), "s"),
        "codec.codewords_needed": (per_round(lambda t: t.counts["codec.codewords_needed"]),
                                   "count"),
        "codec.decode_s": (per_round(lambda t: t.self_s["codec.decode"]), "s"),
        "derandom.seed_map_s": (per_round(lambda t: t.self_s["derandom.build_seed_map"]), "s"),
        "derandom.atoms": (per_round(lambda t: t.counts["derandom.atoms"]), "count"),
        "simulate.trials": (per_round(lambda t: t.counts["simulate.trials"]), "count"),
        "simulate.self_s": (per_round(lambda t: t.layer_self_s("simulate")), "s"),
        "cli.self_s": (per_round(lambda t: t.layer_self_s("cli")), "s"),
        "cli.bytes_written": (per_round(lambda t: t.counts["cli.bytes_written"]), "bytes"),
    }
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        work_dir = OUT / f"probe-{args.workload}-pid{os.getpid()}"
        try:
            _, setup = Clock().measure(set_up, args.workload, args.seed, work_dir)
            print(json.dumps([setup.raw_s, setup.ref_s]))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    result = run(args)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
