import dataclasses
import hashlib
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gwrdp

import gwrdp.solver as solver_module
from gwrdp.prob import JointPmf, Pmf
from gwrdp.solver import (
    GAP_TOL,
    DistortionMatrix,
    InfeasibleError,
    PerceptionMeasure,
    RdpQuery,
    conditional_rdp,
    hamming,
    rdp_point_to_point,
)

from oracles import (binary_rdp_tv, brute_force_rdp, conditional_mutual_information, h2,
                     kkt_block, rd_function, rdp_stress_queries, stress_summary)

HAM2 = DistortionMatrix(hamming(2))
TV = PerceptionMeasure("tv")
KL = PerceptionMeasure("kl")


def point_query(p0, d, p):
    return RdpQuery(JointPmf(np.array([p0, 1 - p0])[:, None], ("X", "W")), HAM2, TV, d, p)


class TestDistortionMatrix:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistortionMatrix([[0.0, -1.0], [1.0, 0.0]])

    def test_requires_zero_option_per_row(self):
        with pytest.raises(ValueError):
            DistortionMatrix([[0.5, 1.0], [1.0, 0.0]])


class TestPerceptionMeasure:
    def test_tv_zero_iff_equal(self):
        p = np.array([0.3, 0.7])
        assert TV.value(p, p) == 0.0
        assert TV.value(p, np.array([0.4, 0.6])) > 0.0

    def test_kl_matches_formula(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        want = 0.5 * math.log2(2.0) + 0.5 * math.log2(0.5 / 0.75)
        assert KL.value(p, q) == pytest.approx(want, abs=1e-12)


class TestKnownValues:
    def test_zero_distortion_zero_perception_gives_entropy(self):
        res = rdp_point_to_point(Pmf([0.5, 0.5]), HAM2, TV, 0.0, 0.0)
        assert res.rate == pytest.approx(1.0, abs=1e-9)
        assert res.converged

    def test_zero_distortion_any_perception_gives_entropy(self):
        p = Pmf([0.3, 0.7])
        for budget in (0.0, 0.5, math.inf):
            res = rdp_point_to_point(p, HAM2, TV, 0.0, budget)
            assert res.rate == pytest.approx(h2(0.3), abs=1e-9)

    def test_generous_distortion_gives_zero_rate(self):
        res = rdp_point_to_point(Pmf([0.5, 0.5]), HAM2, TV, 0.5, math.inf)
        assert res.rate == 0.0
        assert res.converged

    def test_uniform_binary_classic_value(self):
        # frozen: 1 - h2(0.1) evaluated independently
        res = rdp_point_to_point(Pmf([0.5, 0.5]), HAM2, TV, 0.1, math.inf)
        assert res.rate == pytest.approx(1.0 - h2(0.1), abs=5e-3)

    def test_perception_zero_no_cost_for_uniform(self):
        # the distortion-optimal channel already has a uniform output
        for d in (0.05, 0.1, 0.2, 0.3):
            free = rdp_point_to_point(Pmf([0.5, 0.5]), HAM2, TV, d, math.inf)
            pinned = rdp_point_to_point(Pmf([0.5, 0.5]), HAM2, TV, d, 0.0)
            assert pinned.rate == pytest.approx(free.rate, abs=1e-5)
            assert pinned.achieved_perception <= 1e-9


def binary_tv_cases(seed: int, per_regime: int) -> dict[int, list[tuple[float, float, float]]]:
    """Seeded (p, D, P) for ``binary_rdp_tv``, ``per_regime`` in each of its
    three regimes: 1, D <= D1 (P' = P / 2 >= p in some cases, where the
    perception budget does not bind); 2, D1 < D <= D2; 3, D > D2."""
    rng = np.random.default_rng(seed)
    cases = {1: [], 2: [], 3: []}
    while min(map(len, cases.values())) < per_regime:
        p = rng.uniform(0.05, 0.5)
        half = rng.uniform(0.0, 1.25 * p)
        regime = int(rng.integers(1, 4))
        d1 = half / (1 - 2 * (p - half)) if half < p else 0.5
        d2 = 2 * p * (1 - p) - (1 - 2 * p) * half
        if len(cases[regime]) == per_regime or (half >= p and regime > 1):
            continue
        lo, hi = {1: (0.0, d1), 2: (d1, d2), 3: (d2, 0.6)}[regime]
        cases[regime].append((p, rng.uniform(lo, hi), 2 * half))
    return cases


class TestBinaryClosedForm:
    """``rdp_point_to_point`` against Blau and Michaeli's closed-form binary
    R(D, P) for Hamming distortion and TV perception."""

    @pytest.mark.parametrize("regime", [1, 2, 3])
    def test_rate_matches_closed_form(self, regime):
        # the solver aims at a certified gap of 1e-8 bits; near the rate-0
        # boundary it may stop at a wider one, inside GAP_TOL, and then its
        # rate stays within that gap of the exact value
        for p, d, p_tv in binary_tv_cases(0, 30)[regime]:
            res = rdp_point_to_point(Pmf([p, 1 - p]), HAM2, TV, d, p_tv)
            exact = binary_rdp_tv(p, d, p_tv)
            assert res.converged, (p, d, p_tv)
            assert abs(res.rate - exact) <= max(1e-8, abs(res.gap)) + 1e-12, \
                (p, d, p_tv, res.rate, exact, res.gap)
            if regime == 3:
                assert exact == 0.0


class TestResultContracts:
    def test_feasible_channel_and_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            q = RdpQuery(JointPmf(rng.dirichlet(np.ones(4)).reshape(2, 2), ("X", "W")),
                         HAM2, TV, float(rng.uniform(0.05, 0.4)),
                         float(rng.uniform(0.2, 1.0)))
            res = conditional_rdp(q)
            # independent recomputation from the returned channel
            joint = np.asarray(q.q_xw.probs)[:, :, None] * res.test_channel.probs
            dist = float((joint * HAM2.values[:, None, :]).sum())
            marg = joint.sum(axis=(0, 1))
            perc = float(np.abs(marg - np.asarray(q.q_xw.probs).sum(axis=1)).sum())
            out_w = joint.sum(axis=0) / np.asarray(q.q_xw.probs).sum(axis=0)[:, None]
            rate = float(np.sum(joint * np.log2(np.where(
                joint > 0, res.test_channel.probs / np.maximum(out_w[None], 1e-300), 1.0))))
            assert rate <= res.rate + 1e-6
            assert dist == pytest.approx(res.achieved_distortion, abs=1e-9)
            assert perc == pytest.approx(res.achieved_perception, abs=1e-9)
            assert res.achieved_distortion <= q.d_budget + 1e-6
            assert res.achieved_perception <= q.p_budget + 1e-6
            h_x_given_w = (-(np.asarray(q.q_xw.probs)[np.asarray(q.q_xw.probs) > 0]
                             * np.log2(np.asarray(q.q_xw.probs)[np.asarray(q.q_xw.probs) > 0])).sum()
                           + (np.asarray(q.q_xw.probs).sum(axis=0)
                              * np.log2(np.maximum(np.asarray(q.q_xw.probs).sum(axis=0), 1e-300))).sum())
            assert -1e-9 <= res.rate <= h_x_given_w + 1e-6

    @pytest.mark.parametrize("p_budget", [math.inf, 0.02])
    def test_iterations_count_every_sweep(self, monkeypatch, p_budget):
        # free path and perception-active path alike: every inner Newton
        # step the solve took is reported, not only the last inner solve's
        steps = []
        inner_newton = solver_module._inner_newton

        def counted(*args, **kwargs):
            r, taken = inner_newton(*args, **kwargs)
            steps.append(taken)
            return r, taken

        monkeypatch.setattr(solver_module, "_inner_newton", counted)
        res = conditional_rdp(point_query(0.3, 0.1, p_budget))
        assert len(steps) > 1
        assert res.iterations == sum(steps)

    def test_kl_perception_active(self):
        res = rdp_point_to_point(Pmf([0.3, 0.7]), HAM2, KL, 0.25, 0.02)
        assert res.converged
        assert res.achieved_perception <= 0.02 + 1e-6
        free = rdp_point_to_point(Pmf([0.3, 0.7]), HAM2, KL, 0.25, math.inf)
        assert res.rate >= free.rate - 1e-6


def source_query(probs, perception, d, p, delta=None):
    probs = np.asarray(probs, dtype=np.float64)
    return RdpQuery(JointPmf(probs[:, None], ("X", "W")),
                    DistortionMatrix(hamming(probs.size) if delta is None else delta),
                    perception, d, p)


class TestPerceptionActiveSearch:
    """Queries whose optimum lies on the perception boundary with more than
    two reconstruction symbols. The bounds sit 1e-5 bits or less above the
    minimum; a converged result is within its 1e-6-bit gap of it."""

    def test_ternary_tv(self):
        res = conditional_rdp(source_query([0.5, 0.3, 0.2], TV, 0.2, 0.1))
        assert res.converged
        assert res.rate <= 0.564985
        assert res.achieved_perception <= 0.1 + 1e-6

    def test_ternary_kl(self):
        res = conditional_rdp(source_query([0.5, 0.3, 0.2], KL, 0.2, 0.01))
        assert res.converged
        assert res.rate <= 0.565400
        assert res.achieved_perception <= 0.01 + 1e-6

    def test_optimum_leaves_a_symbol_unused(self):
        # the optimal marginal is (0.95, 0.05, 0): the search has to price
        # moving mass into a column outside the pinned support
        res = conditional_rdp(source_query([0.85, 0.1, 0.05], TV, 0.12, 0.2))
        assert res.converged
        assert res.rate <= 0.105109

    @pytest.mark.parametrize("perception,budget,delta",
                             [(TV, 0.3, None),
                              (TV, 0.3, [[0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 0]])],
                             ids=["tv", "tv-dropped-symbol"])
    def test_lmo_minimizes_over_the_ball(self, perception, budget, delta):
        from gwrdp.solver import _build_problem, _lmo, _perception_of

        # with three reconstruction symbols, the fourth source symbol's mass
        # is lost to every marginal
        pr = _build_problem(source_query([0.4, 0.3, 0.2, 0.1], perception, 0.5, budget,
                                         delta=delta))
        n_h = pr.delta.shape[1]
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.normal(size=n_h)
            s = _lmo(pr, g)
            assert s.min() >= 0.0 and s.sum() == pytest.approx(1.0, abs=1e-12)
            assert _perception_of(pr, s) <= budget + 1e-9
            for m in rng.dirichlet(np.ones(n_h), size=50):
                if _perception_of(pr, m) > budget:
                    # bisect the segment from P_X (normalized on the
                    # reconstruction symbols) to m for its last point inside
                    # the ball
                    p = pr.p_h / pr.p_h.sum()
                    lo, hi = 0.0, 1.0
                    for _ in range(100):
                        mid = 0.5 * (lo + hi)
                        inside = _perception_of(pr, (1 - mid) * p + mid * m) <= budget
                        lo, hi = (mid, hi) if inside else (lo, mid)
                    m = (1 - lo) * p + lo * m
                assert g @ s <= g @ m + 1e-9


def seeded_active_queries():
    """Eight perception-active queries: 3x2 and 4x1 sources from
    default_rng(11), TV then KL, with P a fraction of the perception the
    perception-free optimum needs (infinite KL counts as 0.1 bits)."""
    rng = np.random.default_rng(11)
    out = []
    for i in range(8):
        shape = (3, 2) if i % 2 == 0 else (4, 1)
        kind = TV if i < 4 else KL
        q_xw = JointPmf(rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape), ("X", "W"))
        delta = DistortionMatrix(hamming(shape[0]))
        d = float(rng.uniform(0.05, 0.3))
        free = conditional_rdp(RdpQuery(q_xw, delta, kind, d, math.inf))
        p = float(rng.uniform(0.3, 0.7)) * min(free.achieved_perception, 0.1)
        out.append((RdpQuery(q_xw, delta, kind, d, p), free))
    return out


class TestDualSolver:
    """Certified gaps on hard instances: a 5x4 source with two tied tilts
    at the optimum, a multiplier at a critical slope, and seeded
    perception-active queries."""

    def test_5x4_tv(self):
        q_xw = JointPmf(np.random.default_rng(0).dirichlet(np.ones(20)).reshape(5, 4), ("X", "W"))
        res = conditional_rdp(RdpQuery(q_xw, DistortionMatrix(hamming(5)), TV, 0.2, 0.1))
        assert res.converged
        assert res.gap <= 1e-6
        assert res.rate <= 0.6134520
        assert res.achieved_distortion <= 0.2 + 1e-6
        assert res.achieved_perception <= 0.1 + 1e-6

    @pytest.mark.parametrize("p_budget", [0.6, math.inf])
    def test_critical_slope(self, p_budget):
        # the optimal lam sits at log2 9, where the w = 1 column's source
        # (0.9, 0.1) reaches rate 0
        q_xw = JointPmf([[0.275, 0.225], [0.475, 0.025]], ("X", "W"))
        res = conditional_rdp(RdpQuery(q_xw, HAM2, TV, 0.1, p_budget))
        assert res.converged
        assert res.rate <= 0.3593121
        assert res.lam == pytest.approx(math.log2(9.0), abs=1e-3)

    @pytest.mark.parametrize("index", range(8))
    def test_seeded_perception_active(self, index):
        query, free = seeded_active_queries()[index]
        assert free.achieved_perception > query.p_budget
        res = conditional_rdp(query)
        assert res.converged
        assert res.gap <= 1e-6
        assert res.achieved_distortion <= query.d_budget + 1e-6
        assert res.achieved_perception <= query.p_budget + 1e-6

    @pytest.mark.parametrize("p0,d,p", [(0.35, 0.17, 0.6), (0.5, 0.15, 0.5), (0.3, 0.1, 0.1)])
    def test_certified_bound_below_grid_optimum(self, p0, d, p):
        # rate - gap is a lower bound on the minimum, so no feasible grid
        # channel may beat it
        q = point_query(p0, d, p)
        res = conditional_rdp(q)
        assert res.converged
        assert res.rate - res.gap <= brute_force_rdp(q, 201).rate + 1e-12

    def test_one_debug_record_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gwrdp.solver"):
            res = conditional_rdp(point_query(0.3, 0.1, 0.02))
        records = [r for r in caplog.records if r.name == "gwrdp.solver"]
        assert len(records) == 1
        message = records[0].getMessage()
        assert "outer iterations" in message
        assert f"{res.iterations} inner Newton steps" in message

    def test_library_imports_without_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(gwrdp.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", "import gwrdp, sys; assert 'scipy' not in sys.modules"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_kkt_matches_block_assembly(self, k):
        # seeded faces of k columns with row maximum 1, as the inner solve
        # poses them, some with coinciding columns (where the ridge matters)
        rng = np.random.default_rng(k)
        for _ in range(40):
            rows = int(rng.integers(1, 7))
            a = rng.random((rows, k))
            if k > 1 and rng.random() < 0.5:
                a[:, -1] = a[:, 0]
            a /= a.max(axis=1, keepdims=True)
            p, r = rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(k))
            z = a @ r
            assert solver_module._kkt(a, p, z).tobytes() == kkt_block(a, p, z).tobytes()



def assert_converged_within_budgets(query):
    res = conditional_rdp(query)
    assert res.converged
    assert res.achieved_distortion <= query.d_budget + 1e-6
    assert res.achieved_perception <= query.p_budget + 1e-6


def family_b_query(p_budget):
    """Family B's |W| = 1 source under KL at D = 0.11: at P = inf the
    optimum leaves a reconstruction symbol unused, so its KL is infinite."""
    p_x = [0.056, 0.367, 0.212, 0.249, 0.116]
    delta = DistortionMatrix([[0, .74, .21, .10, .87],
                              [.36, 0, .41, .46, .02],
                              [.05, .32, 0, .49, .51],
                              [.06, .54, .92, 0, .03],
                              [.53, .70, .31, .70, 0]])
    return RdpQuery(JointPmf(np.array(p_x)[:, None], ("X", "W")), delta, KL, 0.11, p_budget)


class TestKnownFailureFamilies:
    """Queries with good answers on which the solver gives up; a fix of
    one turns its strict xfail into an unexpected pass, which fails. Family
    B's first reproducer, at P = 0.124, converges and is kept as a check."""

    @pytest.mark.xfail(strict=True, reason="family A: P = 0, |W| = 2, rate 0 feasible; "
                       "returns perception 0.0142, not converged")
    def test_family_a_zero_perception_rate_zero(self):
        q_xw = JointPmf([[0.671, 0.001], [0.012, 0.316]], ("X", "W"))
        assert_converged_within_budgets(RdpQuery(q_xw, HAM2, TV, 0.071, 0.0))

    def test_family_b_kl_unused_symbol(self):
        assert_converged_within_budgets(family_b_query(0.124))

    @pytest.mark.parametrize("p_budget", [0.05, 0.2])
    @pytest.mark.xfail(strict=True, reason="family B: KL, the perception-free optimum "
                       "leaves a symbol unused; returns KL = inf, not converged")
    def test_family_b_kl_unused_symbol_other_budgets(self, p_budget):
        assert_converged_within_budgets(family_b_query(p_budget))


class TestStressSet:
    """The first 40 queries of the seeded stress set at seeds 7 and 8: a
    result reports its test channel's own rate, distortion and perception,
    and a result flagged converged lies within both budgets with a gap of at
    most 1e-6 bits either way. Only an infeasible query may raise."""

    @pytest.mark.parametrize("seed", [7, 8])
    def test_reported_figures_and_convergence(self, seed):
        for i, query in enumerate(rdp_stress_queries(seed, 40)):
            try:
                res = conditional_rdp(query)
            except InfeasibleError:
                continue
            where = f"seed {seed} query {i}"
            q_xw = query.q_xw.probs
            joint = q_xw[:, :, None] * res.test_channel.probs  # (X, W, Xhat)
            p_x, m = q_xw.sum(axis=1), joint.sum(axis=(0, 1))
            if query.perception.kind == "tv":
                perception = float(np.abs(m - p_x).sum())
            elif np.any(m[p_x > 0] == 0):
                perception = math.inf
            else:
                perception = sum(a * math.log2(a / b) for a, b in zip(p_x, m) if a > 0)
            rate = conditional_mutual_information(
                JointPmf(joint.transpose(0, 2, 1), ("X", "Xhat", "W")))
            assert res.rate == pytest.approx(rate, abs=1e-9), where
            assert res.achieved_distortion == pytest.approx(
                float((joint * query.delta.values[:, None, :]).sum()), abs=1e-9), where
            assert res.achieved_perception == pytest.approx(perception, abs=1e-9), where
            if res.converged:
                assert res.achieved_distortion <= query.d_budget + 1e-6, where
                assert res.achieved_perception <= query.p_budget + 1e-6, where
                assert abs(res.gap) <= 1e-6, where

    def test_summary_is_deterministic_and_per_query(self):
        summary = stress_summary((7,), 10)
        assert stress_summary((7,), 10) == summary
        converged, raised, digest = 0, 0, hashlib.sha256()
        for query in rdp_stress_queries(7, 10):
            try:
                res = conditional_rdp(query)
            except InfeasibleError as exc:
                raised += 1
                digest.update(str(exc).encode())
                continue
            converged += res.converged
            digest.update(repr((res.rate, res.gap, res.converged, res.iterations, res.lam,
                                res.achieved_distortion, res.achieved_perception)).encode())
            digest.update(res.test_channel.probs.tobytes())
        assert summary == (converged, raised, digest.hexdigest())
        assert stress_summary((7,), 9)[2] != summary[2]


class TestRateBound:
    """The bound a scalarized search prunes trials by: for any lambda it is
    at most the rate of every result whose channel lies within both budgets
    plus _CONSTRAINT_TOL, and at a converged perception-free result's own
    lambda it sits within GAP_TOL + lambda _CONSTRAINT_TOL of the rate."""

    @pytest.mark.parametrize("seed", [7, 8])
    def test_below_every_rate_and_tight_at_its_own_lambda(self, seed, caplog):
        caplog.set_level(logging.DEBUG, logger="gwrdp.solver")
        tol, inside, tight = solver_module._CONSTRAINT_TOL, 0, 0
        for i, query in enumerate(rdp_stress_queries(seed, 40)):
            caplog.clear()
            try:
                res = conditional_rdp(query)
            except InfeasibleError:
                continue
            where = f"seed {seed} query {i}"
            bounds = {lam: solver_module._rate_bound(query, lam)
                      for lam in (0.0, res.lam, 2.0 * res.lam, 10.0)}
            if (res.achieved_distortion <= query.d_budget + tol
                    and res.achieved_perception <= query.p_budget + tol):
                inside += 1
                # the search's margin for rounding: 1e-12 of the rate
                assert max(bounds.values()) <= res.rate + 1e-12 * (1.0 + res.rate), where
            (record,) = caplog.records
            if res.converged and not record.getMessage().startswith(
                    "conditional_rdp: perception"):
                tight += 1
                assert res.rate - bounds[res.lam] <= GAP_TOL + res.lam * tol, where
        assert inside >= 35 and tight >= 15


def perception_active_queries():
    """The benchmark's four rdp-active queries: the ternary source under TV
    and KL, the 5x4 conditional source, and the binary |W| = 2 source at
    seed 0."""
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0.200, 0.205), rng.uniform(0.600, 0.605)
    q54 = JointPmf(np.random.default_rng(0).dirichlet(np.ones(20)).reshape(5, 4), ("X", "W"))
    return [source_query([0.5, 0.3, 0.2], TV, 0.2, 0.1),
            source_query([0.5, 0.3, 0.2], KL, 0.2, 0.01),
            RdpQuery(q54, DistortionMatrix(hamming(5)), TV, 0.2, 0.1),
            RdpQuery(JointPmf(0.5 * np.array([[1 - a, 1 - b], [a, b]]), ("X", "W")),
                     HAM2, TV, 0.1, 0.02)]


def solved_fields(queries) -> list:
    """Every field of each query's result, the channel as its bytes; an
    infeasible query gives its error message."""
    out = []
    for query in queries:
        try:
            res = conditional_rdp(query)
        except InfeasibleError as exc:
            out.append(str(exc))
            continue
        out.append([res.test_channel.probs.tobytes() if f.name == "test_channel"
                    else repr(getattr(res, f.name)) for f in dataclasses.fields(res)])
    return out


class TestLazyDualPoints:
    """A dual point forms its channel, Blahut bound, metrics and Hessian
    only when the outer loop reads them, from the inner solutions it keeps."""

    @pytest.mark.parametrize("queries", [
        lambda: rdp_stress_queries(7, 40), lambda: rdp_stress_queries(8, 40),
        perception_active_queries], ids=["stress-7", "stress-8", "rdp-active"])
    def test_reading_every_field_at_once_changes_nothing(self, monkeypatch, queries):
        queries = queries()
        lazy = solved_fields(queries)
        point = solver_module._Dual.point

        def eager(self, theta):
            pt = point(self, theta)
            for name in ("g_low", "q", "metrics", "grad", "hess"):
                getattr(pt, name)
            return pt

        monkeypatch.setattr(solver_module._Dual, "point", eager)
        assert solved_fields(queries) == lazy

    def test_hessians_only_where_the_outer_loop_steps(self, monkeypatch, caplog):
        # every _maximize call ends on a point whose Hessian it never reads,
        # and rejected trials need none either
        calls = []
        maximize = solver_module._maximize

        def counted(*args, **kwargs):
            calls.append(args)
            return maximize(*args, **kwargs)

        monkeypatch.setattr(solver_module, "_maximize", counted)
        with caplog.at_level(logging.DEBUG, logger="gwrdp.solver"):
            conditional_rdp(source_query([0.5, 0.3, 0.2], TV, 0.2, 0.1))
        (record,) = [r for r in caplog.records if r.name == "gwrdp.solver"]
        _, points, hessians, _, _ = debug_counts(record.getMessage())
        assert calls
        assert hessians < points
        assert hessians <= points - len(calls)


def polished(dual, theta):
    """Each live w's inner solution at theta, solved afresh from the uniform
    start, then Newton steps on its support to machine precision."""
    out = {}
    for w, aw, r, z, _ in solver_module._Dual(dual.pr, solver_module._MAX_INNER).point(
            theta).solved:
        p, sup, r = dual.p[w], r > 0, r.copy()
        for _ in range(3):
            z = aw @ r
            c = aw.T @ (p / z)
            r[sup] += np.linalg.solve(kkt_block(aw[:, sup], p, z),
                                      np.append(c[sup] - 1.0, 0.0))[:-1]
        out[w] = r
    return out


class TestInnerPrediction:
    """Trial points start each w's inner solve from r_w + (dr_w/dtheta) step,
    the slope coming from the KKT solve the Hessian already makes."""

    def test_slope_matches_central_differences(self, monkeypatch):
        # every 7th point that steps on the first 40 stress queries at seed 7;
        # w's whose fresh solve is not unique, or whose support changes
        # within +-eps, have no derivative to compare
        stepped, predict = [], solver_module._Point.predict

        def kept(self, step):
            if not stepped or stepped[-1] is not self:
                stepped.append(self)
            predict(self, step)

        monkeypatch.setattr(solver_module._Point, "predict", kept)
        for query in rdp_stress_queries(7, 40):
            try:
                conditional_rdp(query)
            except InfeasibleError:
                continue
        eps, covered = 1e-6, set()
        for pt in stepped[::7]:
            at = polished(pt.dual, pt.theta)
            moved = [[polished(pt.dual, pt.theta + s * eps * e) for s in (1, -1)]
                     for e in np.eye(pt.theta.size)]
            for (w, aw, r, _, _), slope in zip(pt.solved, pt.slopes):
                sup = r > 0
                if (np.abs(at[w] - r).max() > 1e-8
                        or any(not np.array_equal(m[w] > 0, sup) for pair in moved for m in pair)):
                    continue
                diff = np.stack([(up[w] - down[w])[sup] / (2 * eps) for up, down in moved],
                                axis=1)
                assert np.abs(diff - slope).max() <= 1e-6 * max(1.0, np.abs(slope).max())
                covered.add(pt.dual.pr.perception.kind)
                if sup.sum() < (aw.max(axis=0) > 0).sum():
                    covered.add("dropped column")
        assert covered == {"tv", "kl", "dropped column"}

    def test_rdp_active_inner_steps(self, caplog):
        # 547 inner Newton steps, 175 dual points and 116 Hessians when each
        # trial point started from the last r solved; 319 steps, 175 points
        # and 116 Hessians before the tau-drop rescale
        with caplog.at_level(logging.DEBUG, logger="gwrdp.solver"):
            for query in perception_active_queries():
                conditional_rdp(query)
        counts = np.array([debug_counts(r.getMessage())
                           for r in caplog.records if r.name == "gwrdp.solver"])
        steps, points, hessians, _, _ = counts.sum(axis=0)
        assert len(counts) == 4
        assert steps <= 325 and points <= 94 and hessians <= 69


def debug_counts(message: str) -> list[int]:
    """(inner steps, dual points, Hessians, rejected trials, rescaled points)
    from a solve's DEBUG record."""
    found = re.search(r"(\d+) inner Newton steps, (\d+) dual points, (\d+) Hessians, "
                      r"(\d+) rejected trials, (\d+) rescaled points", message)
    return [int(v) for v in found.groups()]


def softmax(e: np.ndarray) -> np.ndarray:
    ex = np.exp(e - e.max())
    return ex / ex.sum()


class TestTauDropRescale:
    """At each tau drop of the TV perception phase, the offsets of each group
    of tied tilts from the max (min) shrink by tau_new / tau, so both
    log-sum-exp softmaxes read the same at the new tau."""

    def test_ternary_tv_steps_through_each_drop(self, caplog):
        # 104 dual points, 49 of them rejected trials, and a gap of 6.8e-9
        # bits before the rescale
        with caplog.at_level(logging.DEBUG, logger="gwrdp.solver"):
            res = conditional_rdp(source_query([0.5, 0.3, 0.2], TV, 0.2, 0.1))
        (record,) = caplog.records
        _, points, _, rejected, rescaled = debug_counts(record.getMessage())
        assert res.converged and abs(res.gap) <= 1e-8
        assert points <= 30 and rejected <= 3 and rescaled >= 1

    def test_keeps_both_softmaxes_and_moves_no_other_tilt(self, monkeypatch):
        calls, perception_dual = [], solver_module._perception_dual

        def recorded(pr, theta):
            *head, rescale, start = perception_dual(pr, theta)
            if rescale is None:
                return (*head, None, start)

            def kept(th, tau, tau_new):
                out = rescale(th, tau, tau_new)
                calls.append((th, tau, tau_new, out))
                return out

            return (*head, kept, start)

        monkeypatch.setattr(solver_module, "_perception_dual", recorded)
        for query in perception_active_queries():
            conditional_rdp(query)
        pr = solver_module._build_problem(
            source_query([0.3, 0.25, 0.2, 0.15, 0.1], TV, 0.2, 0.1))
        rescale = perception_dual(pr, np.zeros(6))[4]
        tau = 1e-4
        for nu in ([0.0, 0.3, 0.3 - 2 * tau, -0.2, 0.1],              # a tie at the max
                   [0.0, 0.3, 0.3 - 2 * tau, -0.2 + 30 * tau, -0.2],  # and one at the min
                   [0.3 - 2 * tau, 0.3, 0.0, -0.2, 0.1],              # nu_0 tied: re-anchored
                   [0.0, tau, 3 * tau, -tau, 2 * tau]):               # one group: all scale
            th = np.array([0.7, *nu])
            calls.append((th, tau, tau / 10, rescale(th, tau, tau / 10)))
        assert rescale(np.array([0.7, 0.0, 0.3, -0.2, 0.1, 0.2]), tau, tau / 10) is None
        assert sum(out is not None for *_, out in calls) >= 15
        for th, tau, tau_new, out in calls:
            if out is None:
                continue
            nu, moved = th[1:], out[1:]
            assert out[0] == th[0] and moved[0] == 0.0
            # moved is stored to a spacing of ulp(max |nu|), which alone
            # shifts an exponent at tau_new by up to ulp / tau_new
            tol = 1e-12 + np.spacing(np.abs(nu).max()) / tau_new
            for s in (1.0, -1.0):
                assert np.abs(softmax(s * moved / tau_new)
                              - softmax(s * nu / tau)).max() <= tol
            reach = tau * 52 * math.log(2.0)
            outside = (nu.max() - nu > reach) & (nu - nu.min() > reach)
            top = int(np.argmax(nu))
            np.testing.assert_allclose((moved - moved[top])[outside],
                                       (nu - nu[top])[outside], rtol=0, atol=1e-15)

    def test_none_for_kl(self):
        pr = solver_module._build_problem(source_query([0.5, 0.3, 0.2], KL, 0.2, 0.01))
        assert solver_module._perception_dual(pr, np.zeros(4))[4] is None


class TestFreePhase:
    """The perception-free dual returns only channels inside D: the
    barrier's centres satisfy E d = D - tau / lam, so a converged rate sits
    above the closed form by no more than its certified gap."""

    def test_binary_hamming_closed_form_and_stress_set(self):
        # log-uniform D reaches the small budgets where lam is steep
        rng = np.random.default_rng(29)
        for i in range(20):
            p0 = float(rng.uniform(0.05, 0.5))
            d = float(np.exp(rng.uniform(math.log(0.002), math.log(0.95 * p0))))
            res = conditional_rdp(point_query(p0, d, math.inf))
            where = f"source {i}: p {p0}, D {d}"
            assert res.converged, where
            assert res.achieved_distortion <= d, where
            # the certified bound meets R(D) here, up to rounding
            assert 0.0 <= res.rate - (h2(p0) - h2(d)) <= res.gap + 1e-12, where
            assert res.gap <= 1e-8, where
        for seed in (7, 8):
            for i, query in enumerate(rdp_stress_queries(seed, 40)):
                if query.p_budget == math.inf:
                    res = conditional_rdp(query)
                    assert not res.converged or res.achieved_distortion <= query.d_budget, (
                        f"seed {seed} query {i}")

    def test_debug_record_gives_tau_levels(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gwrdp.solver"):
            conditional_rdp(source_query([0.5, 0.3, 0.2], TV, 0.2, 0.1))
        (record,) = [r for r in caplog.records if r.name == "gwrdp.solver"]
        phases = re.findall(r"; (\w+) phase (\d+) tau levels to ([\d.e+-]+)",
                            record.getMessage())
        assert [name for name, _, _ in phases] == ["free", "perception"]
        assert all(int(n) >= 1 and 0.0 < float(t) <= 0.1 for _, n, t in phases)


class TestClassicalReduction:
    def test_matches_independent_rd_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            p0 = float(rng.uniform(0.1, 0.9))
            d = float(rng.uniform(0.04, 0.4))
            res = rdp_point_to_point(Pmf([p0, 1 - p0]), HAM2, TV, d, math.inf)
            want = rd_function(np.array([p0, 1 - p0]), HAM2.values, d)
            assert res.rate == pytest.approx(want, abs=1e-3)

    def test_uniform_binary_closed_form(self):
        for d in (0.05, 0.1, 0.2):
            res = rdp_point_to_point(Pmf([0.5, 0.5]), HAM2, TV, d, math.inf)
            assert res.rate == pytest.approx(1.0 - h2(d), abs=1e-3)


class TestBruteForce:
    def test_zero_budgets_give_identity_channel(self):
        q = point_query(0.4, 0.0, 0.0)
        res = brute_force_rdp(q, 11)
        assert res.rate == pytest.approx(h2(0.4), abs=1e-12)
        np.testing.assert_allclose(res.test_channel.probs[:, 0, :], np.eye(2), atol=1e-12)

    def test_rate_nonincreasing_in_resolution(self):
        q = point_query(0.35, 0.17, 0.6)
        rates = [brute_force_rdp(q, steps).rate for steps in (11, 21, 41)]
        assert rates[1] <= rates[0] + 1e-12
        assert rates[2] <= rates[1] + 1e-12

    def test_param_cap(self):
        q_xw = JointPmf(np.full((2, 4), 0.125), ("X", "W"))
        q = RdpQuery(q_xw, HAM2, TV, 0.2, math.inf)
        with pytest.raises(ValueError):
            brute_force_rdp(q, 11, max_free_params=6)

    def test_solver_agrees_at_grid_resolution(self):
        q = point_query(0.5, 0.15, 0.5)
        res = conditional_rdp(q)
        grid = brute_force_rdp(q, 41)
        assert abs(res.rate - grid.rate) <= 5e-3


class TestContinuousInstancesFineGrid:
    def test_solver_within_tolerance_of_fine_grid(self):
        # continuous random sources; grid 641 is sharp enough to certify
        rng = np.random.default_rng(4)
        for _ in range(6):
            p0 = float(rng.uniform(0.15, 0.85))
            d = float(rng.uniform(0.08, 0.4))
            p = math.inf if rng.uniform() < 0.5 else float(rng.uniform(0.2, 1.0))
            q = point_query(p0, d, p)
            res = conditional_rdp(q)
            fine = brute_force_rdp(q, 641)
            assert res.rate <= fine.rate + 5e-4
            assert res.rate >= fine.rate - 5e-3


class TestMonotonicityAndConvexity:
    def test_monotone_in_budgets(self):
        rng = np.random.default_rng(5)
        q_xw = JointPmf(rng.dirichlet(np.ones(4)).reshape(2, 2), ("X", "W"))
        ds = np.linspace(0.08, 0.4, 5)
        ps = np.linspace(0.1, 0.9, 5)
        rates = np.array([[conditional_rdp(RdpQuery(q_xw, HAM2, TV, float(d), float(p))).rate
                           for p in ps] for d in ds])
        assert np.all(np.diff(rates, axis=0) <= 1e-4)
        assert np.all(np.diff(rates, axis=1) <= 1e-4)

    def test_jointly_convex_in_budgets(self):
        rng = np.random.default_rng(6)
        q_xw = JointPmf(rng.dirichlet(np.ones(4)).reshape(2, 2), ("X", "W"))
        b1 = (0.1, 0.2)
        b2 = (0.3, 0.8)
        mid = ((b1[0] + b2[0]) / 2, (b1[1] + b2[1]) / 2)
        r = {b: conditional_rdp(RdpQuery(q_xw, HAM2, TV, b[0], b[1])).rate
             for b in (b1, b2, mid)}
        assert r[mid] <= (r[b1] + r[b2]) / 2 + 2e-4


class TestInfeasibility:
    """Two reconstruction symbols for three source symbols: no marginal
    carries P_X's 0.3 on the third, so TV is at least 0.6 and KL infinite."""

    # the perception-free optimum, which TV 0.87 reaches: R(D) of the binary
    # source that merges the two symbols reconstructed as 0
    FREE_RATE = h2(0.3) - h2(0.2)

    @staticmethod
    def query(perception, p):
        return source_query([0.4, 0.3, 0.3], perception, 0.2, p,
                            delta=[[0, 1], [1, 0], [0, 1]])

    def free_rate(self, perception, p):
        res = conditional_rdp(self.query(perception, p))
        assert res.converged
        assert 0.0 <= res.rate - self.FREE_RATE <= res.gap
        return res.rate

    def test_tv_floor_with_missing_support(self):
        with pytest.raises(InfeasibleError, match="cannot go below 0.6"):
            conditional_rdp(self.query(TV, 0.2))
        at_floor = conditional_rdp(self.query(TV, 0.6))
        assert at_floor.converged
        # symbols 0 and 2 both reconstruct to 0 at zero distortion, so this is
        # a Bernoulli(0.3) source at D = 0.2, and TV 0.6 forces q_1 >= 0.3:
        # the binary RDP function at P = 0
        assert 0.0 <= at_floor.rate - binary_rdp_tv(0.3, 0.2, 0.0) <= at_floor.gap
        assert self.free_rate(TV, 1.0) == pytest.approx(self.free_rate(TV, math.inf), abs=1e-12)

    def test_kl_with_missing_support(self):
        with pytest.raises(InfeasibleError, match="KL perception is infinite"):
            conditional_rdp(self.query(KL, 0.5))
        assert self.free_rate(KL, math.inf) == pytest.approx(self.free_rate(TV, math.inf),
                                                             abs=1e-12)
