import dataclasses
import functools
import logging
import math
import re

import numpy as np
import pytest

import gwrdp.region as region
from gwrdp.prob import JointPmf, Kernel, Pmf, mutual_information
from gwrdp.region import (
    AuxChannel,
    Budgets,
    RegionFrontier,
    RegionProblem,
    compute_frontier,
    pareto_filter,
    rate_triple_for_aux,
    scalarized_search,
)
from gwrdp.solver import (
    DistortionMatrix,
    PerceptionMeasure,
    RdpQuery,
    conditional_rdp,
    hamming,
    rdp_point_to_point,
)

from oracles import (brute_force_rdp, conditional_rd_function, eager_search, h2,
                     hamming_tv_problem)


def dsbs(a):
    return JointPmf([[0.5 * (1 - a), 0.5 * a], [0.5 * a, 0.5 * (1 - a)]], ("X", "Y"))


HAM2 = DistortionMatrix(hamming(2))
PROBLEM = hamming_tv_problem(dsbs(0.1))
BUDGETS = Budgets(d1=0.1, d2=0.1, p1=0.6, p2=0.6)


def recompute_triple(problem, point):
    """Re-derive (r0, r1, r2) from the stored auxiliary witness."""
    fresh = rate_triple_for_aux(problem, point.witness, point.budgets)
    return fresh.triple


class TestRateTriple:
    def test_independent_w_corner(self):
        pt = rate_triple_for_aux(PROBLEM, AuxChannel.independent(2, 2), BUDGETS)
        assert pt.r0 == pytest.approx(0.0, abs=1e-12)
        ref = rdp_point_to_point(Pmf([0.5, 0.5]), PROBLEM.delta_x,
                                 PROBLEM.perception_x, 0.1, 0.6)
        assert pt.r1 == pytest.approx(ref.rate, abs=1e-6)
        assert pt.r2 == pytest.approx(ref.rate, abs=1e-6)

    def test_copy_channel_corner(self):
        budgets = Budgets(d1=0.0, d2=0.0, p1=0.0, p2=0.0)
        pt = rate_triple_for_aux(PROBLEM, AuxChannel.copy_pair(2, 2), budgets)
        h_xy = -(np.asarray(PROBLEM.p_xy.probs).reshape(-1)
                 * np.log2(np.asarray(PROBLEM.p_xy.probs).reshape(-1))).sum()
        assert pt.r0 == pytest.approx(h_xy, abs=1e-9)
        assert pt.r1 == pytest.approx(0.0, abs=1e-9)
        assert pt.r2 == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_aux_matches_independent_recomputation(self):
        aux = AuxChannel(Kernel(np.array([
            [[0.9, 0.1], [0.5, 0.5]],
            [[0.5, 0.5], [0.1, 0.9]],
        ])))
        budgets = Budgets(d1=0.05, d2=0.05, p1=math.inf, p2=math.inf)
        pt = rate_triple_for_aux(PROBLEM, aux, budgets)
        q_xyw = PROBLEM.p_xy.extend(aux.kernel, "W")
        pair_w = JointPmf(q_xyw.probs.reshape(4, 2), ("XY", "W"))
        assert pt.r0 == pytest.approx(mutual_information(pair_w), abs=1e-12)
        for branch, got in (("X", pt.r1), ("Y", pt.r2)):
            q_sw = q_xyw.marginal(branch, "W")
            want = conditional_rd_function(np.asarray(q_sw.probs),
                                           PROBLEM.delta_x.values, 0.05)
            assert got == pytest.approx(want, abs=1e-3)
            # the exhaustive search can only sit above, within its own slack
            query = RdpQuery(q_sw, PROBLEM.delta_x, PROBLEM.perception_x, 0.05, math.inf)
            grid = brute_force_rdp(query, 41)
            assert got <= grid.rate + 5e-3


class TestFrontier:
    def test_witness_recomputation(self):
        fr = compute_frontier(PROBLEM, BUDGETS, samples=6, seed=3)
        assert len(fr.points) >= 1
        for pt in fr.points:
            again = recompute_triple(PROBLEM, pt)
            for a, b in zip(pt.triple, again):
                assert a == pytest.approx(b, abs=1e-6)

    def test_cut_set_dominance(self):
        fr = compute_frontier(PROBLEM, BUDGETS, samples=6, seed=3)
        rdp_x = rdp_point_to_point(Pmf([0.5, 0.5]), PROBLEM.delta_x,
                                   PROBLEM.perception_x, BUDGETS.d1, BUDGETS.p1).rate
        rdp_y = rdp_point_to_point(Pmf([0.5, 0.5]), PROBLEM.delta_y,
                                   PROBLEM.perception_y, BUDGETS.d2, BUDGETS.p2).rate
        for pt in fr.points:
            assert pt.r0 + pt.r1 >= rdp_x - 1e-3
            assert pt.r0 + pt.r2 >= rdp_y - 1e-3

    def test_perception_relaxed_matches_rd_only_solver(self):
        budgets = Budgets(d1=0.1, d2=0.1, p1=math.inf, p2=math.inf)
        fr = compute_frontier(PROBLEM, budgets, samples=4, seed=5)
        for pt in fr.points:
            q_xyw = PROBLEM.p_xy.extend(pt.witness.kernel, "W")
            for branch, got in (("X", pt.r1), ("Y", pt.r2)):
                q_sw = np.asarray(q_xyw.marginal(branch, "W").probs)
                want = conditional_rd_function(q_sw, PROBLEM.delta_x.values, 0.1)
                assert got == pytest.approx(want, abs=1e-3)

    def test_deterministic_for_fixed_seed(self):
        a = compute_frontier(PROBLEM, BUDGETS, samples=5, seed=11)
        b = compute_frontier(PROBLEM, BUDGETS, samples=5, seed=11)
        assert a.to_csv() == b.to_csv()
        assert a.to_dict() == b.to_dict()

    def test_parallel_matches_serial(self):
        a = compute_frontier(PROBLEM, BUDGETS, samples=5, seed=11)
        c = compute_frontier(PROBLEM, BUDGETS, samples=5, seed=11, parallel=2)
        assert a.to_csv() == c.to_csv()

    def test_larger_budget_dominates(self):
        small = compute_frontier(PROBLEM, BUDGETS, samples=3, seed=7)
        large = compute_frontier(PROBLEM, BUDGETS, samples=9, seed=7)
        # same seed: the first 3 samples coincide, so every small-run point
        # is dominated by (or equal to) some large-run point
        for pt in small.points:
            assert any(all(lv <= pv + 1e-9 for lv, pv in zip(lp.triple, pt.triple))
                       for lp in large.points)

    def test_w_size_cap(self):
        with pytest.raises(ValueError):
            compute_frontier(PROBLEM, BUDGETS, w_size=7, samples=1, seed=0)
        with pytest.raises(ValueError, match="exceeds the cardinality bound 6"):
            scalarized_search(PROBLEM, BUDGETS, (1.0, 1.0, 1.0), w_size=7, restarts=1)

    @pytest.mark.parametrize("counts, message", [
        (dict(samples=-3), "samples must be at least 0, got -3"),
        (dict(samples=0, restarts=0), "restarts must be at least 1, got 0"),
        (dict(samples=0, restarts=0, strategy="local"), "restarts must be at least 1, got 0")])
    def test_bad_counts_refused(self, counts, message):
        # these counts were once clamped to 0 samples and 1 restart
        with pytest.raises(ValueError, match=message):
            compute_frontier(PROBLEM, BUDGETS, **counts)

    def test_exports(self):
        fr = compute_frontier(PROBLEM, BUDGETS, samples=3, seed=2)
        csv_text = fr.to_csv()
        header = csv_text.splitlines()[0].split(",")
        assert header == ["R0", "R1", "R2", "D1", "D2", "P1", "P2", "seed"]
        payload = fr.to_dict()
        assert payload["seed"] == 2
        assert len(payload["points"]) == len(fr.points)
        for entry in payload["points"]:
            assert "aux_channel" in entry and "test_channel_x" in entry


class TestParetoFilter:
    def test_dominated_point_removed(self):
        fr = compute_frontier(PROBLEM, BUDGETS, samples=8, seed=1)
        triples = [p.triple for p in fr.points]
        for i, a in enumerate(triples):
            for j, b in enumerate(triples):
                if i == j:
                    continue
                dominates = (all(bv <= av + 1e-9 for bv, av in zip(b, a))
                             and any(bv < av - 1e-9 for bv, av in zip(b, a)))
                assert not dominates


class TestScalarizedSearch:
    def test_common_rate_weight_drives_to_zero(self):
        pt = scalarized_search(PROBLEM, BUDGETS, (1.0, 0.0, 0.0), restarts=2, seed=0)
        assert pt.r0 == pytest.approx(0.0, abs=1e-9)

    def test_private_weights_no_worse_than_independent(self):
        budgets = Budgets(d1=0.05, d2=0.05, p1=math.inf, p2=math.inf)
        pt = scalarized_search(PROBLEM, budgets, (0.0, 1.0, 1.0), restarts=2, seed=0)
        indep = rate_triple_for_aux(PROBLEM, AuxChannel.independent(2, 2), budgets)
        assert pt.r1 + pt.r2 <= indep.r1 + indep.r2 + 1e-9

    def test_deterministic(self):
        a = scalarized_search(PROBLEM, BUDGETS, (1.0, 1.0, 1.0), restarts=2, seed=9)
        b = scalarized_search(PROBLEM, BUDGETS, (1.0, 1.0, 1.0), restarts=2, seed=9)
        assert a.triple == b.triple
        assert np.array_equal(a.witness.kernel.probs, b.witness.kernel.probs)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            scalarized_search(PROBLEM, BUDGETS, (0.0, 0.0, 0.0), seed=0)

    @pytest.mark.parametrize("weights", [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                         (1.0, math.nan, 0.0)])
    def test_rejects_non_finite_weights(self, weights):
        # no start scores below an infinite incumbent with these, so the
        # search once ended in an AttributeError on its missing best channel
        with pytest.raises(ValueError, match="weights must be finite"):
            scalarized_search(PROBLEM, BUDGETS, weights, w_size=2, restarts=1)

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError, match="restarts must be at least 1, got 0"):
            scalarized_search(PROBLEM, BUDGETS, (1.0, 1.0, 1.0), restarts=0)


@pytest.fixture
def solver_calls(monkeypatch):
    """Queries that reached the solver from the region layer."""
    calls = []
    solve = region.conditional_rdp

    def counted(query, **kwargs):
        calls.append(query)
        return solve(query, **kwargs)

    monkeypatch.setattr(region, "conditional_rdp", counted)
    return calls


def query_key(q):
    """Every RdpQuery field, with pmfs and distortion matrices (which compare
    by identity) replaced by their shapes and bytes."""
    def part(value):
        arr = getattr(value, "probs", getattr(value, "values", None))
        return value if arr is None else (arr.shape, arr.tobytes())

    return tuple(part(getattr(q, f.name)) for f in dataclasses.fields(RdpQuery))


class TestSolveCache:
    # perception-free budgets on DSBS(0.25) keep the local search short
    problem = hamming_tv_problem(dsbs(0.25))
    budgets = Budgets(d1=0.2, d2=0.2)
    search = dict(strategy="local", samples=2, restarts=1, w_size=2, seed=4)

    def test_one_solve_per_distinct_query(self, solver_calls, caplog):
        caplog.set_level(logging.DEBUG, logger="gwrdp")
        fr = compute_frontier(self.problem, self.budgets, **self.search)
        keys = [query_key(q) for q in solver_calls]
        assert len(set(keys)) == len(keys)
        counts = [r.args for r in caplog.records if r.name == "gwrdp.region"]
        assert len(counts) == 1
        (n_candidates, n_nonconverged, evaluations, triples, lookups, calls, hits, bounds,
         pruned) = counts[0]
        assert n_candidates == fr.n_evaluated
        assert n_nonconverged == 0
        assert calls == len(solver_calls)
        # the search repeats queries, so the cache is exercised
        assert hits == lookups - calls > calls
        # one triple per search, per anchor and per grid candidate, each with
        # two lookups: 2 searches and 2 anchors, and 3 candidates
        assert triples == 4 + 3
        assert lookups > 2 * triples
        assert evaluations > triples
        # every pruned trial formed a bound first
        assert 0 < pruned <= bounds

    # a second value of each RdpQuery field, for the memo-key test
    FIELD_VARIANTS = {
        "q_xw": JointPmf([[0.3], [0.7]], ("X", "W")),
        "delta": DistortionMatrix([[0.0, 2.0], [1.0, 0.0]]),
        "perception": PerceptionMeasure("kl"),
        "d_budget": 0.15,
        "p_budget": 0.3,
    }

    def test_memo_key_covers_every_query_field(self):
        # a new RdpQuery field fails here until the memo key covers it
        assert set(self.FIELD_VARIANTS) == {f.name for f in dataclasses.fields(RdpQuery)}
        base = RdpQuery(JointPmf([[0.4], [0.6]], ("X", "W")), HAM2, PerceptionMeasure("tv"),
                        0.1, 0.6)
        for name, value in self.FIELD_VARIANTS.items():
            variant = dataclasses.replace(base, **{name: value})
            solves = region._Solves()
            region._solve(base, solves)
            region._solve(variant, solves)
            assert len(solves) == 2, name
            assert query_key(base) != query_key(variant), name

    def test_package_logger_silent_by_default(self):
        handlers = logging.getLogger("gwrdp").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_no_state_between_calls(self, solver_calls):
        first = compute_frontier(self.problem, self.budgets, **self.search)
        n_first = len(solver_calls)
        second = compute_frontier(self.problem, self.budgets, **self.search)
        assert len(solver_calls) == 2 * n_first
        assert first.to_dict() == second.to_dict()

    def test_matches_fresh_recomputation(self):
        fr = compute_frontier(self.problem, self.budgets, **self.search)
        rebuilt = RegionFrontier(
            points=tuple(rate_triple_for_aux(self.problem, p.witness, p.budgets)
                         for p in fr.points),
            seed=fr.seed, strategy=fr.strategy, n_evaluated=fr.n_evaluated)
        assert rebuilt.to_dict() == fr.to_dict()

    @pytest.mark.parametrize("y_problem, y_budgets, calls", [
        ({}, {}, 1),
        ({"delta_y": DistortionMatrix(hamming(2))}, {}, 1),  # equal values, new object
        ({"delta_y": DistortionMatrix([[0.0, 1.0], [0.5, 0.0]])}, {}, 2),
        ({"perception_y": PerceptionMeasure("kl")}, {}, 2),
        ({}, {"d2": 0.15}, 2),
        ({}, {"p2": 0.3}, 2),
    ])
    def test_distinct_inputs_do_not_share(self, solver_calls, y_problem, y_budgets, calls):
        # on a symmetric source with independent W the two branch queries
        # coincide unless a Y-branch input differs
        problem = RegionProblem(**{"p_xy": self.problem.p_xy, "delta_x": HAM2,
                                   "delta_y": HAM2, **y_problem})
        budgets = Budgets(**{"d1": 0.2, "d2": 0.2, "p1": 0.6, "p2": 0.6, **y_budgets})
        aux = AuxChannel.independent(2, 2)
        pt = rate_triple_for_aux(problem, aux, budgets)
        assert len(solver_calls) == calls
        # a direct call starts from an empty cache
        rate_triple_for_aux(problem, aux, budgets)
        assert len(solver_calls) == 2 * calls
        q_yw = JointPmf([[0.5], [0.5]], ("Y", "W"))
        want_y = conditional_rdp(RdpQuery(q_yw, problem.delta_y, problem.perception_y,
                                          budgets.d2, budgets.p2))
        assert pt.r2 == want_y.rate


LOCAL_WEIGHTS = [(1.0, 0.0, 0.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 1.0, 0.0),
                 (0.5, 0.0, 1.0)]


class TestLazySearch:
    """A search scores trial channels by their weighted terms alone, solves
    no trial whose certified bound cannot beat the incumbent and builds the
    full triple once; it returns what the search scoring every triple
    returns."""

    @pytest.mark.parametrize("k, weights", list(enumerate(LOCAL_WEIGHTS)))
    @pytest.mark.parametrize("case", range(7))
    def test_matches_eager_search(self, case, k, weights):
        # (problem, budgets, seed, |W|, restarts): the benchmark's region-local
        # instance; TestSolveCache's; the asymmetric binary pair at TV P = 0.05;
        # DSBS(0.1) at P = 0, where perception binds, under TV and under KL
        # (some of its KL solves stay unconverged); the 3x3 source at |W| = 3;
        # and region-local's instance with two restarts
        problem, budgets, seed, w, restarts = [
            (PROBLEM, BUDGETS, 0, 2, 1),
            (TestSolveCache.problem, TestSolveCache.budgets, 4, 2, 1),
            (*anchor_problem("binary"), 0, 2, 1),
            (*anchor_problem("dsbs", "tv", 0.0), 0, 2, 1),
            (*anchor_problem("dsbs", "kl", 0.0), 0, 2, 1),
            (*anchor_problem("ternary"), 0, 3, 1),
            (PROBLEM, BUDGETS, 0, 2, 2)][case]
        search = dict(w_size=w, restarts=restarts, seed=seed + 1000 * (k + 1))
        lazy = scalarized_search(problem, budgets, weights, **search)
        eager = eager_search(problem, budgets, weights, **search)
        as_dict = [RegionFrontier((pt,), seed=0, strategy="local", n_evaluated=1).to_dict()
                   for pt in (lazy, eager)]
        assert as_dict[0] == as_dict[1]

    def test_an_exact_bound_refuses_only_rejected_trials(self, monkeypatch):
        # with each trial's own rate as its bound, a search refuses exactly the
        # trials it would reject; this one accepts a step that gains 8.4e-5
        # bits, so a looser refusal threshold changes what it returns
        monkeypatch.setattr(region, "_rate_bound", lambda query, lam: conditional_rdp(query).rate)
        search = dict(w_size=2, restarts=2, seed=4000)
        lazy = scalarized_search(PROBLEM, BUDGETS, (0.5, 1.0, 0.0), **search)
        eager = eager_search(PROBLEM, BUDGETS, (0.5, 1.0, 0.0), **search)
        as_dict = [RegionFrontier((pt,), seed=0, strategy="local", n_evaluated=1).to_dict()
                   for pt in (lazy, eager)]
        assert as_dict[0] == as_dict[1]

    def test_common_weight_solves_only_the_final_triple(self, solver_calls, monkeypatch):
        evaluations = []

        def counted(joint):
            evaluations.append(joint)
            return mutual_information(joint)

        monkeypatch.setattr(region, "mutual_information", counted)
        pt = scalarized_search(PROBLEM, BUDGETS, (1.0, 0.0, 0.0), w_size=2, restarts=1)
        assert len(evaluations) > 2
        assert len(solver_calls) <= 2
        assert pt.r0 == pytest.approx(0.0, abs=1e-9)

    def test_unweighted_branch_solves_only_the_final_triple(self, solver_calls):
        # a Y budget apart from X's keeps the two branches' queries distinct
        problem = RegionProblem(PROBLEM.p_xy, HAM2, DistortionMatrix(hamming(2)))
        budgets = Budgets(d1=0.1, d2=0.15, p1=0.6, p2=0.6)
        pt = scalarized_search(problem, budgets, (0.5, 1.0, 0.0), w_size=2, restarts=1)
        y_calls = [q for q in solver_calls if q.delta is problem.delta_y]
        assert len(y_calls) == 1
        assert len(solver_calls) - len(y_calls) > 2
        q_yw = problem.p_xy.extend(pt.witness.kernel, "W").marginal("Y", "W")
        assert np.array_equal(y_calls[0].q_xw.probs, q_yw.probs)


# the anchors' instances: region-local's DSBS(0.1), an asymmetric binary
# pair, and a 3x3 source with |W| = 3; (source, D, TV budget, |W|)
ANCHOR_CASES = {
    "dsbs": (dsbs(0.1), 0.1, 0.6, 2),
    "binary": (JointPmf([[0.55, 0.1], [0.1, 0.25]], ("X", "Y")), 0.1, 0.05, 2),
    "ternary": (JointPmf([[0.3, 0.05, 0.05], [0.05, 0.2, 0.05], [0.02, 0.08, 0.2]],
                         ("X", "Y")), 0.05, 0.1, 3),
}
LOCAL_SEARCH = dict(strategy="local", samples=0, restarts=1, seed=0)


def anchor_problem(case, kind="tv", p=None):
    p_xy, d, p_tv, _ = ANCHOR_CASES[case]
    m = PerceptionMeasure(kind)
    nx, ny = p_xy.shape
    budget = p_tv if p is None else p
    return (RegionProblem(p_xy, DistortionMatrix(hamming(nx)), DistortionMatrix(hamming(ny)),
                          m, m),
            Budgets(d1=d, d2=d, p1=budget, p2=budget))


@functools.lru_cache(maxsize=None)  # frontiers are frozen, so tests can share them
def local_frontier(case, kind="tv", p=None, parallel=1):
    problem, budgets = anchor_problem(case, kind, p)
    return compute_frontier(problem, budgets, w_size=ANCHOR_CASES[case][3], parallel=parallel,
                            **LOCAL_SEARCH)


class TestAnchors:
    """The local frontier's (a, 1, 0) and (a, 0, 1) points, a <= 1, are
    W = X̂ and W = Ŷ, the independent corner's test channels: a*R0 + R1
    meets its lower bound a*R_X there, with R1 = 0."""

    @pytest.mark.parametrize("case", sorted(ANCHOR_CASES))
    def test_anchors_on_the_frontier_at_half_the_rdp_rate(self, case):
        problem, budgets = anchor_problem(case)
        w = ANCHOR_CASES[case][3]
        fr = local_frontier(case)
        corner = rate_triple_for_aux(problem, AuxChannel.independent(*problem.p_xy.shape),
                                     budgets)
        for b, (s, delta, perception, d, p) in enumerate((
                ("X", problem.delta_x, problem.perception_x, budgets.d1, budgets.p1),
                ("Y", problem.delta_y, problem.perception_y, budgets.d2, budgets.p2))):
            rdp = rdp_point_to_point(problem.p_xy.marginal(s), delta, perception, d, p).rate
            best = min(fr.points, key=lambda pt: 0.5 * pt.r0 + pt.triple[1 + b])
            value = 0.5 * best.r0 + best.triple[1 + b]
            assert value == pytest.approx(0.5 * rdp, abs=1e-6)
            assert best.triple[1 + b] == pytest.approx(0.0, abs=1e-9)
            # the witness is that branch's test channel, whatever the other
            # source symbol, zero-padded to |W|
            tc = (corner.test_channel_x, corner.test_channel_y)[b].probs[:, 0, :]
            rows = np.moveaxis(best.witness.kernel.probs, b, 0)
            cols = tc.shape[1]
            assert np.array_equal(rows[:, :, :cols], np.repeat(tc[:, None], rows.shape[1], 1))
            assert not rows[:, :, cols:].any()
            weights = (0.5, 1.0, 0.0) if b == 0 else (0.5, 0.0, 1.0)
            search = scalarized_search(problem, budgets, weights, w_size=w, restarts=1,
                                       seed=1000 * (4 + b))
            assert value <= 0.5 * search.r0 + search.triple[1 + b]

    @pytest.mark.parametrize("case", sorted(ANCHOR_CASES))
    def test_parallel_matches_serial(self, case):
        assert local_frontier(case, parallel=2).to_dict() == local_frontier(case).to_dict()

    # the non-converged frontier points of each P = 0 case before the
    # anchors replaced the (0.5, 1, 0) and (0.5, 0, 1) searches
    @pytest.mark.parametrize("case, kind, before", [
        ("dsbs", "tv", 0), ("dsbs", "kl", 4), ("binary", "tv", 0), ("binary", "kl", 4),
        ("ternary", "tv", 0), ("ternary", "kl", 3)])
    def test_no_more_nonconverged_points_at_zero_perception(self, case, kind, before):
        fr = local_frontier(case, kind, 0.0)
        assert sum(not pt.converged for pt in fr.points) <= before

    @pytest.mark.parametrize("erasure_y", [True, False])
    def test_branch_wider_than_w_keeps_its_search(self, erasure_y, monkeypatch):
        # an erasure symbol gives X̂ three symbols, more than |W| = 2, so that
        # branch keeps its (0.5, 1, 0) search; with both searches kept the
        # frontier is the Pareto filter of four searches and the corner
        erasure = DistortionMatrix([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]])
        problem = RegionProblem(PROBLEM.p_xy, erasure, erasure if erasure_y else HAM2)
        searched = []

        def recording(*args, **kwargs):
            searched.append(args[2])
            return scalarized_search(*args, **kwargs)

        monkeypatch.setattr(region, "scalarized_search", recording)
        fr = compute_frontier(problem, BUDGETS, w_size=2, **LOCAL_SEARCH)
        weights = [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 1.0, 0.0), (0.5, 0.0, 1.0)]
        assert searched == weights[:4 if erasure_y else 3]
        assert fr.n_evaluated == 5
        if not erasure_y:  # Y's anchor, W = Ŷ, costs no R2
            assert any(pt.r2 == pytest.approx(0.0, abs=1e-9) for pt in fr.points)
        else:
            points = [scalarized_search(problem, BUDGETS, wt, w_size=2, restarts=1,
                                        seed=1000 * k)
                      for k, wt in enumerate(weights, start=2)]
            points.append(rate_triple_for_aux(problem, AuxChannel.independent(2, 2), BUDGETS))
            want = RegionFrontier(region._sorted_points(pareto_filter(points)), seed=0,
                                  strategy="local", n_evaluated=5)
            assert fr.to_dict() == want.to_dict()


class TestFreePhaseWork:
    """region-local's frontier solves only perception-free queries, whose
    barrier weight falls superlinearly, and its searches solve no trial
    whose certified bound cannot beat the incumbent: its 10 solves form at
    most 64 dual points (38 solves and 244 points without the bound, 337
    points with a tenfold drop per level), and it forms each distinct
    trial bound once."""

    def test_region_local_dual_points(self, caplog):
        caplog.set_level(logging.DEBUG, logger="gwrdp")
        compute_frontier(PROBLEM, BUDGETS, w_size=2, **LOCAL_SEARCH)
        messages = [r.getMessage() for r in caplog.records if r.name == "gwrdp.solver"]
        assert len(messages) == 10
        # a rate-0 channel forms no dual point
        points = [int(n) for m in messages for n in re.findall(r"(\d+) dual points", m)]
        assert sum(points) <= 64
        # 35 trials with a query not in the memo ask for a bound on both
        # branches at one dual point, and 30 of them are pruned; the bound
        # memo forms each distinct (query, lam) bound once, 35 of the 70
        (record,) = [r for r in caplog.records if r.name == "gwrdp.region"]
        assert record.args[5] == 10
        assert record.args[-2:] == (35, 30)
