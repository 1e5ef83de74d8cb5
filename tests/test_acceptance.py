"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with -s to see the lines as they complete).

Criterion 1 draws its random instances on the oracle's own resolution
lattice (uniform sources for |W|=1, multinomial(40)/40 joints for
|W|=2, budgets in fortieths): the exhaustive grid-41 oracle carries a
quantization slack that exceeds the stated tolerance on steep
continuous instances, so agreement at 5e-3 is only a solver test when
the instance family is grid-representable. Continuous instances are
covered against a 641-point grid in test_solver.py.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from gwrdp.codec import (
    TypicalSetSpec,
    compute_code_sizes,
    generate_codebook,
    sample_uniform_typical,
)
from gwrdp.derandom import build_seed_map, default_tail_length
from gwrdp.prob import JointPmf, Pmf
from gwrdp.region import AuxChannel, Budgets, RegionProblem, compute_frontier, rate_triple_for_aux
from gwrdp.simulate import SimConfig, run_simulation, wilson_halfwidth
from gwrdp.solver import (
    DistortionMatrix,
    PerceptionMeasure,
    RdpQuery,
    conditional_rdp,
    hamming,
    rdp_point_to_point,
)

from oracles import (brute_force_rdp, conditional_rd_function, h2, is_cond_typical, is_typical,
                     rd_function)

HAM2 = DistortionMatrix(hamming(2))
TV = PerceptionMeasure("tv")


def dsbs(a):
    return JointPmf([[0.5 * (1 - a), 0.5 * a], [0.5 * a, 0.5 * (1 - a)]], ("X", "Y"))


def report_line(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def lattice_query(seed: int, n_w: int) -> RdpQuery:
    """Random binary query on the grid-41 lattice (see module docstring)."""
    rng = np.random.default_rng(91000 + seed)
    if n_w == 1:
        q_xw = JointPmf(np.array([[0.5], [0.5]]), ("X", "W"))
        d = float(rng.integers(8, 37) / 80.0)
    else:
        while True:
            counts = rng.multinomial(40, rng.dirichlet(np.ones(4)))
            if counts.min() >= 5:
                break
        q_xw = JointPmf(counts.reshape(2, 2) / 40.0, ("X", "W"))
        d = float(rng.integers(8, 19) / 40.0)
    p = math.inf if rng.uniform() < 0.4 else float(rng.integers(8, 49) / 40.0)
    return RdpQuery(q_xw, HAM2, TV, d, p)


def test_criterion_1_solver_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for i in range(50):
        query = lattice_query(i, 1 + i % 2)
        res = conditional_rdp(query)
        grid = brute_force_rdp(query, 41)
        worst = max(worst, abs(res.rate - grid.rate))
        assert res.converged, f"query {i} did not converge"
    elapsed = time.time() - t0
    ok = worst <= 5e-3 and elapsed < 300
    report_line(1, ok, f"50 queries, worst |solver-grid41| = {worst:.2e} bits "
                       f"(tol 5e-3), {elapsed:.0f}s (target < 300s)")
    assert worst <= 5e-3
    assert elapsed < 300


def test_criterion_2_classical_reduction():
    rng = np.random.default_rng(2024)
    worst_random = 0.0
    for _ in range(20):
        p0 = float(rng.uniform(0.1, 0.9))
        d = float(rng.uniform(0.04, 0.45))
        res = rdp_point_to_point(Pmf([p0, 1 - p0]), HAM2, TV, d, math.inf)
        want = rd_function(np.array([p0, 1 - p0]), HAM2.values, d)
        worst_random = max(worst_random, abs(res.rate - want))
    worst_uniform = 0.0
    for d in (0.05, 0.1, 0.2):
        res = rdp_point_to_point(Pmf([0.5, 0.5]), HAM2, TV, d, math.inf)
        worst_uniform = max(worst_uniform, abs(res.rate - (1.0 - h2(d))))
    ok = worst_random <= 1e-3 and worst_uniform <= 1e-3
    report_line(2, ok, f"20 random sources worst gap {worst_random:.2e}, "
                       f"uniform closed form worst gap {worst_uniform:.2e} (tol 1e-3)")
    assert worst_random <= 1e-3
    assert worst_uniform <= 1e-3


def test_criterion_3_monotonicity_and_convexity():
    rng = np.random.default_rng(333)
    d_grid = np.linspace(0.06, 0.41, 6)
    p_grid = np.linspace(0.1, 1.1, 6)
    worst_mono = -math.inf
    worst_conv = -math.inf
    for inst in range(10):
        if inst % 2 == 0:
            p0 = float(rng.uniform(0.2, 0.8))
            q_xw = JointPmf(np.array([p0, 1 - p0])[:, None], ("X", "W"))
        else:
            q_xw = JointPmf(rng.dirichlet(np.ones(4)).reshape(2, 2), ("X", "W"))
        rate = np.array([[conditional_rdp(RdpQuery(q_xw, HAM2, TV, float(d), float(p))).rate
                          for p in p_grid] for d in d_grid])
        worst_mono = max(worst_mono, float(np.diff(rate, axis=0).max()),
                         float(np.diff(rate, axis=1).max()))
        # midpoint convexity over all grid pairs whose midpoint is on-grid
        idx = list(itertools.product(range(6), range(6)))
        for (i1, j1), (i2, j2) in itertools.combinations(idx, 2):
            if (i1 + i2) % 2 or (j1 + j2) % 2:
                continue
            mid = rate[(i1 + i2) // 2, (j1 + j2) // 2]
            worst_conv = max(worst_conv, float(mid - (rate[i1, j1] + rate[i2, j2]) / 2))
    ok = worst_mono <= 1e-4 and worst_conv <= 2e-4
    report_line(3, ok, f"10 instances on a 6x6 budget grid: worst monotonicity "
                       f"violation {worst_mono:.2e} (tol 1e-4), worst midpoint-convexity "
                       f"violation {worst_conv:.2e} (tol 2e-4)")
    assert worst_mono <= 1e-4
    assert worst_conv <= 2e-4


def test_criterion_4_region_sanity():
    problem = RegionProblem.with_hamming_tv(dsbs(0.1))
    budgets = Budgets(d1=0.1, d2=0.1, p1=0.6, p2=0.6)
    frontier = compute_frontier(problem, budgets, samples=8, w_size=2, seed=40)
    rdp_x = rdp_point_to_point(Pmf([0.5, 0.5]), problem.delta_x, TV, 0.1, 0.6).rate
    rdp_y = rdp_point_to_point(Pmf([0.5, 0.5]), problem.delta_y, TV, 0.1, 0.6).rate
    worst_recompute = 0.0
    worst_cutset = -math.inf
    for pt in frontier.points:
        again = rate_triple_for_aux(problem, pt.witness, budgets)
        worst_recompute = max(worst_recompute,
                              max(abs(a - b) for a, b in zip(pt.triple, again.triple)))
        worst_cutset = max(worst_cutset, rdp_x - (pt.r0 + pt.r1), rdp_y - (pt.r0 + pt.r2))

    free = Budgets(d1=0.1, d2=0.1, p1=math.inf, p2=math.inf)
    frontier_free = compute_frontier(problem, free, samples=6, w_size=2, seed=41)
    worst_free = 0.0
    for pt in frontier_free.points:
        q_xyw = problem.p_xy.extend(pt.witness.kernel, "W")
        for branch, got in (("X", pt.r1), ("Y", pt.r2)):
            q_sw = np.asarray(q_xyw.marginal(branch, "W").probs)
            want = conditional_rd_function(q_sw, problem.delta_x.values, 0.1)
            worst_free = max(worst_free, abs(got - want))
    ok = worst_recompute <= 1e-6 and worst_cutset <= 1e-3 and worst_free <= 1e-3
    report_line(4, ok, f"{len(frontier.points)} frontier points: witness recompute "
                       f"{worst_recompute:.2e} (tol 1e-6), cut-set slack "
                       f"{worst_cutset:+.2e} (tol 1e-3), P=inf vs distortion-only "
                       f"solver {worst_free:.2e} (tol 1e-3)")
    assert worst_recompute <= 1e-6
    assert worst_cutset <= 1e-3
    assert worst_free <= 1e-3


def test_criterion_5_codec_exactness():
    # chi-square goodness of fit against exhaustive enumeration
    p_values = []
    for q0, n, delta in ((0.5, 8, 0.3), (0.5, 10, 0.2), (0.5, 12, 0.25), (0.3, 12, 0.3)):
        spec = TypicalSetSpec(np.array([q0, 1 - q0]), delta, n)
        members = {}
        for seq in itertools.product((0, 1), repeat=n):
            if is_typical(np.array(seq), spec):
                members[seq] = len(members)
        draws = sample_uniform_typical(spec, 40_000, 500 + n)
        counts = np.zeros(len(members))
        for d in draws:
            counts[members[tuple(int(v) for v in d)]] += 1
        p_values.append(stats.chisquare(counts).pvalue)
    sampler_ok = all(p > 0.01 for p in p_values)

    # 100% codeword typicality on a generated codebook
    p_xy = dsbs(0.1)
    q_xyw = p_xy.extend(AuxChannel.independent(2, 2).kernel, "W")
    pt = rate_triple_for_aux(RegionProblem.with_hamming_tv(p_xy),
                             AuxChannel.independent(2, 2),
                             Budgets(0.4, 0.4, 0.1, 0.1))
    sizes = compute_code_sizes(q_xyw, pt.test_channel_x, pt.test_channel_y, 16, 0.15)
    cb = generate_codebook(q_xyw, pt.test_channel_x, pt.test_channel_y,
                           sizes, 0.15, 16, seed=55)
    q_w = np.asarray(q_xyw.probs).sum(axis=(0, 1))
    w_spec = TypicalSetSpec(q_w, 0.15, 16)
    n_checked = 0
    typical_ok = all(is_typical(w, w_spec) for w in cb.common)
    for i in range(cb.common.shape[0]):
        for cw in cb.priv_x[i]:
            typical_ok &= is_cond_typical(cw, cb.common[i], cb.joint_xt_w, 0.15)
            n_checked += 1
        for cw in cb.priv_y[i]:
            typical_ok &= is_cond_typical(cw, cb.common[i], cb.joint_yt_w, 0.15)
            n_checked += 1

    # exact shift/distortion/type invariants on 10^4 randomized cases
    rng = np.random.default_rng(501)
    n = 20
    cases = 10_000
    a = rng.integers(0, 2, size=(cases, n))
    b = rng.integers(0, 2, size=(cases, n))
    ks = rng.integers(0, n, size=cases)
    cols = (np.arange(n)[None, :] + ks[:, None]) % n
    a_s = np.take_along_axis(a, cols, axis=1)
    b_s = np.take_along_axis(b, cols, axis=1)
    invariants_ok = (np.array_equal((a_s != b_s).mean(axis=1), (a != b).mean(axis=1))
                     and np.array_equal(a_s.sum(axis=1), a.sum(axis=1))
                     and np.array_equal(b_s.sum(axis=1), b.sum(axis=1)))

    ok = sampler_ok and typical_ok and invariants_ok
    report_line(5, ok, f"sampler chi-square p-values {[f'{p:.3f}' for p in p_values]} "
                       f"(all > 0.01), {n_checked} codewords 100% typical: {typical_ok}, "
                       f"shift/distortion/type invariants exact on {cases} cases: "
                       f"{invariants_ok}")
    assert sampler_ok
    assert typical_ok
    assert invariants_ok


def _dsbs_witness_config(n: int, trials: int, mode: str = "common-randomness",
                         seed: int = 60) -> SimConfig:
    p_xy = dsbs(0.1)
    budgets = Budgets(d1=0.4, d2=0.4, p1=0.1, p2=0.1)
    pt = rate_triple_for_aux(RegionProblem.with_hamming_tv(p_xy),
                             AuxChannel.independent(2, 2), budgets)
    return SimConfig(p_xy=p_xy, aux=pt.witness, test_channel_x=pt.test_channel_x,
                     test_channel_y=pt.test_channel_y, n=n, delta=0.15,
                     trials=trials, master_seed=seed, budgets=budgets,
                     mode=mode, memory_cap=2 ** 27)


def test_criterion_6_simulation_trend():
    t0 = time.time()
    reports = [run_simulation(_dsbs_witness_config(n, 10_000)) for n in (16, 24, 32)]
    excess = []
    for r in reports:
        width = r.x.distortion_wilson
        excess.append(max(r.x.mean_distortion - r.x.threshold - width,
                          r.y.mean_distortion - r.y.threshold - width))
    distortion_ok = all(e <= 0 for e in excess)
    r32 = reports[-1]
    tv_ok = (float((r32.x.tv - r32.budgets.p1 - r32.x.tv_interval).max()) <= 0.05
             and float((r32.y.tv - r32.budgets.p2 - r32.y.tv_interval).max()) <= 0.05)
    miss0 = [r.freq_no_common_codeword for r in reports]
    miss_ok = all(b <= a + 1e-12 for a, b in zip(miss0, miss0[1:]))
    elapsed = time.time() - t0
    ok = distortion_ok and tv_ok and miss_ok and elapsed < 900
    report_line(6, ok, f"n=16/24/32 x 10^4 trials: distortion excess over threshold "
                       f"(beyond Wilson) {[f'{e:+.4f}' for e in excess]} (<= 0), "
                       f"n=32 max TV excess beyond interval "
                       f"{float((r32.x.tv - r32.budgets.p1 - r32.x.tv_interval).max()):+.4f} "
                       f"(tol 0.05), miss frequencies {miss0} non-increasing: {miss_ok}, "
                       f"{elapsed:.0f}s (target < 900s)")
    assert distortion_ok
    assert tv_ok
    assert miss_ok
    assert elapsed < 900


def test_witness_in_the_paper_regime():
    # the criterion 6 witness where its joint band is non-empty; its private
    # layers hold 3.75e7 (n = 40) and 1.3e12 (n = 64) codewords per branch,
    # drawn a page at a time
    reports = [run_simulation(_dsbs_witness_config(n, 2000)) for n in (40, 64)]
    miss0 = [r.freq_no_common_codeword for r in reports]
    print(f"\nwitness n=40/64 x 2000 trials: sizes {[r.sizes for r in reports]}, "
          f"common miss frequencies {miss0}, falls: {miss0[1] < miss0[0]}")
    for r in reports:
        assert not r.joint_set_empty
        assert 0.0 < r.freq_no_common_codeword < 1.0


def test_criterion_7_derandomization():
    # exhaustive audits of built seed maps
    audits_ok = True
    for p_xy, n0, n in ((dsbs(0.1), 4, 16), (dsbs(0.1), 6, 8),
                        (JointPmf(np.full((2, 2), 0.25), ("X", "Y")), 2, 4)):
        sm = build_seed_map(p_xy, n0, n)
        audit = sm.audit()
        audits_ok &= audit["within_bound"]
        audits_ok &= audit["max_deviation"] <= sm.p_max + 1e-15

    # deterministic mode vs common-randomness mode at n = 16
    n = 16
    n0 = default_tail_length(4, n)
    cr = run_simulation(_dsbs_witness_config(n, 10_000))
    det = run_simulation(_dsbs_witness_config(n, 10_000, mode="deterministic"))
    assert det.n0 == n0
    width = 2 * (cr.x.distortion_wilson + det.x.distortion_wilson)
    gap_x = abs(det.x.mean_distortion_head - cr.x.mean_distortion)
    gap_y = abs(det.y.mean_distortion_head - cr.y.mean_distortion)
    dist_ok = gap_x <= width and gap_y <= width
    overhead_want = math.log2(n) / (n + n0)
    overhead_ok = (det.seed_overhead == overhead_want
                   and det.rates[0] == pytest.approx(
                       math.log2(max(det.sizes[0], 1)) / n + overhead_want, abs=0.0))
    ok = audits_ok and dist_ok and overhead_ok
    report_line(7, ok, f"seed-map audits within p_max bound: {audits_ok}; "
                       f"det vs cr head-distortion gaps ({gap_x:.4f}, {gap_y:.4f}) "
                       f"within 2 Wilson intervals ({width:.4f}); seed overhead "
                       f"{det.seed_overhead:.6f} == log2({n})/{n + n0}: {overhead_ok}")
    assert audits_ok
    assert dist_ok
    assert overhead_ok


def test_criterion_8_determinism(tmp_path):
    import json as _json

    from gwrdp.cli import main as cli_main

    sim_cfg = {
        "p_xy": {"alphabets": [2, 2], "probs": [0.45, 0.05, 0.05, 0.45]},
        "aux": "independent",
        "n": 16, "delta": 0.15, "trials": 400,
        "budgets": {"D1": 0.4, "D2": 0.4, "P1": 0.1, "P2": 0.1},
        "seed": 8,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(_json.dumps(sim_cfg))
    out = tmp_path / "out"
    args = ["simulate", "--config", str(cfg_path), "--out-dir", str(out),
            "--memory-cap", str(2 ** 26)]
    assert cli_main(args + ["--parallel", "1"]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli_main(args + ["--parallel", "4"]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    sim_ok = first == second

    region_cfg = {
        "p_xy": {"alphabets": [2, 2], "probs": [0.45, 0.05, 0.05, 0.45]},
        "budgets": {"D1": 0.1, "D2": 0.1, "P1": 0.6, "P2": 0.6},
        "samples": 3, "w_size": 2, "seed": 8,
    }
    cfg2 = tmp_path / "region.json"
    cfg2.write_text(_json.dumps(region_cfg))
    out2 = tmp_path / "out2"
    args2 = ["region", "--config", str(cfg2), "--out-dir", str(out2)]
    assert cli_main(args2 + ["--parallel", "1"]) == 0
    first2 = {p.name: p.read_bytes() for p in out2.iterdir()}
    assert cli_main(args2 + ["--parallel", "2"]) == 0
    second2 = {p.name: p.read_bytes() for p in out2.iterdir()}
    region_ok = first2 == second2

    ok = sim_ok and region_ok
    report_line(8, ok, f"byte-identical outputs across parallelism: simulate "
                       f"{sim_ok}, region {region_ok}")
    assert sim_ok
    assert region_ok
