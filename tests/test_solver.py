import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gwrdp

import gwrdp.solver as solver_module
from gwrdp.prob import JointPmf, Pmf
from gwrdp.solver import (
    DistortionMatrix,
    InfeasibleError,
    PerceptionMeasure,
    RdpQuery,
    conditional_rdp,
    hamming,
    rdp_point_to_point,
)

from oracles import (brute_force_rdp, conditional_mutual_information, h2, kkt_block,
                     rd_function, rdp_stress_queries)

HAM2 = DistortionMatrix(hamming(2))
TV = PerceptionMeasure("tv")
KL = PerceptionMeasure("kl")


def point_query(p0, d, p, **kw):
    return RdpQuery(JointPmf(np.array([p0, 1 - p0])[:, None], ("X", "W")),
                    HAM2, TV, d, p, **kw)


class TestDistortionMatrix:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistortionMatrix([[0.0, -1.0], [1.0, 0.0]])

    def test_requires_zero_option_per_row(self):
        with pytest.raises(ValueError):
            DistortionMatrix([[0.5, 1.0], [1.0, 0.0]])


class TestRdpQuery:
    @pytest.mark.parametrize("alphabet", [(True, False), (np.bool_(True),), (0, True)],
                             ids=["bools", "numpy-bool", "int-and-bool"])
    def test_bool_recon_columns_refused(self, alphabet):
        # True == 1 as an int, so (True, False) once ran as columns (1, 0)
        with pytest.raises(ValueError, match="recon_alphabet must be a nonempty set"):
            point_query(0.4, 0.1, 0.1, recon_alphabet=alphabet)
        assert point_query(0.4, 0.1, 0.1, recon_alphabet=(np.int64(1), 0)).recon_alphabet


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


def source_query(probs, perception, d, p, **kw):
    probs = np.asarray(probs, dtype=np.float64)
    return RdpQuery(JointPmf(probs[:, None], ("X", "W")), DistortionMatrix(hamming(probs.size)),
                    perception, d, p, **kw)


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

    @pytest.mark.parametrize("perception,budget,alphabet",
                             [(TV, 0.3, None), (TV, 0.3, (0, 1, 2))],
                             ids=["tv", "tv-dropped-symbol"])
    def test_lmo_minimizes_over_the_ball(self, perception, budget, alphabet):
        from gwrdp.solver import _build_problem, _lmo, _perception_of

        pr = _build_problem(source_query([0.4, 0.3, 0.2, 0.1], perception, 0.5, budget,
                                         recon_alphabet=alphabet))
        n_h = pr.cols.size
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.normal(size=n_h)
            s = _lmo(pr, g)
            assert s.min() >= 0.0 and s.sum() == pytest.approx(1.0, abs=1e-12)
            assert _perception_of(pr, s) <= budget + 1e-9
            for m in rng.dirichlet(np.ones(n_h), size=50):
                if _perception_of(pr, m) > budget:
                    # bisect the segment from P_X (normalized on the allowed
                    # columns) to m for its last point inside the ball
                    p = pr.target[pr.cols] / pr.target[pr.cols].sum()
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


class TestKnownFailureFamilies:
    """Queries with good answers on which the solver gives up; a fix of
    either family turns its test into an unexpected pass, which fails."""

    @pytest.mark.xfail(strict=True, reason="family A: P = 0, |W| = 2, rate 0 feasible; "
                       "returns perception 0.0142, not converged")
    def test_family_a_zero_perception_rate_zero(self):
        q_xw = JointPmf([[0.671, 0.001], [0.012, 0.316]], ("X", "W"))
        assert_converged_within_budgets(RdpQuery(q_xw, HAM2, TV, 0.071, 0.0))

    @pytest.mark.xfail(strict=True, reason="family B: KL, the perception-free optimum "
                       "leaves a symbol unused; returns KL = inf, not converged")
    def test_family_b_kl_unused_symbol(self):
        p_x = [0.056, 0.367, 0.212, 0.249, 0.116]
        delta = DistortionMatrix([[0, .74, .21, .10, .87],
                                  [.36, 0, .41, .46, .02],
                                  [.05, .32, 0, .49, .51],
                                  [.06, .54, .92, 0, .03],
                                  [.53, .70, .31, .70, 0]])
        q_xw = JointPmf(np.array(p_x)[:, None], ("X", "W"))
        assert_converged_within_budgets(RdpQuery(q_xw, delta, KL, 0.11, 0.124))

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
    def test_restricted_alphabet_zero_distortion(self):
        q = point_query(0.4, 0.0, math.inf, recon_alphabet=(0,))
        with pytest.raises(InfeasibleError):
            conditional_rdp(q)

    def test_budget_below_minimum(self):
        q = point_query(0.4, 0.1, math.inf, recon_alphabet=(0,))
        # best channel maps everything to symbol 0: distortion = P(X=1) = 0.6
        with pytest.raises(InfeasibleError):
            conditional_rdp(q)

    def test_tv_floor_with_missing_support(self):
        q = point_query(0.4, 0.7, 0.5, recon_alphabet=(0,))
        # TV cannot go below 2 * P(X=1) = 1.2
        with pytest.raises(InfeasibleError):
            conditional_rdp(q)

    def test_kl_with_missing_support(self):
        q = point_query(0.4, 0.7, 5.0)
        ok = conditional_rdp(q)
        assert ok.converged
        q2 = RdpQuery(q.q_xw, HAM2, KL, 0.7, 5.0, recon_alphabet=(0,))
        with pytest.raises(InfeasibleError):
            conditional_rdp(q2)
