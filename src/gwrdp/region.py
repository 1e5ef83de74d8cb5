"""Achievable rate region of the two-decoder common-message network.

A rate triple is generated from an auxiliary channel Q_{W|XY}: the common
rate is I(X,Y;W) and each private rate is the conditional RDP function of
the corresponding source given W. The region is the union of such triples
over auxiliary channels; this module searches that union and keeps the
Pareto-minimal frontier.

Every emitted point stores its witnesses (the auxiliary channel and both
test channels), so the triple can be recomputed from scratch; no claim of
global optimality is made for searched frontiers, only achievability. The
``local`` strategy's points at weights (a, 1, 0) and (a, 0, 1), a <= 1, are
exact and not searched: W = X̂ and W = Ŷ reach a*R_X and a*R_Y.

A scalarized search reads only the terms its weights do not zero: a trial
channel costs I(X,Y;W) for a common-rate weight and one branch solve per
private-rate weight, and the full triple is built once, for the best channel
found. A trial whose certified lower bound cannot beat the incumbent is not
solved: the bound takes I(X,Y;W), memoized rates, and, per branch left,
Blahut's bound at one dual point of the incumbent's multiplier, which lies
below every rate the solver returns within its budgets. So the search accepts
the same trials as when it solves them all, and frontiers keep their bytes.
``rate_triple_for_aux`` and ``scalarized_search`` are the one path for a triple
and a search. Searches repeat branch queries (each starts from the independent
corner; a symmetric source makes the X and Y queries coincide), so they and
``compute_frontier`` take the caller's exact memo of solver results and trial
bounds, keyed on every input of the query (and lam), as ``solves``, or start an
empty one; no result depends on it. ``compute_frontier`` shares the memo across
its searches, serial grid and anchors; each pool job starts its own.
Objective evaluation, triple, lookup, solve, hit, trial-bound and pruned-trial
counts go to the ``gwrdp.region`` logger at DEBUG, never into the exported
files.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .prob import JointPmf, Kernel, mutual_information
from .solver import (
    DistortionMatrix,
    PerceptionMeasure,
    RdpQuery,
    RdpResult,
    _rate_bound,
    conditional_rdp,
)

PARETO_SLACK = 1e-9
_SWEEPS = 2  # coordinate-descent sweeps per scalarized-search start

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Budgets:
    """Distortion and perception budgets for both branches."""

    d1: float
    d2: float
    p1: float = math.inf
    p2: float = math.inf

    def as_dict(self) -> dict:
        return {"D1": self.d1, "D2": self.d2, "P1": self.p1, "P2": self.p2}


@dataclass(frozen=True)
class RegionProblem:
    """Source pair plus both branches' distortion and perception measures."""

    p_xy: JointPmf
    delta_x: DistortionMatrix
    delta_y: DistortionMatrix
    perception_x: PerceptionMeasure = PerceptionMeasure("tv")
    perception_y: PerceptionMeasure = PerceptionMeasure("tv")

    def max_w_size(self) -> int:
        nx, ny = self.p_xy.shape
        return nx * ny + 2


@dataclass(frozen=True)
class AuxChannel:
    """Randomization Q_{W|XY} producing the shared variable W."""

    kernel: Kernel  # cond shape (|X|, |Y|), output |W|

    def __post_init__(self):
        if len(self.kernel.cond_shape) != 2:
            raise ValueError("auxiliary channel must condition on (X, Y)")

    @property
    def w_size(self) -> int:
        return self.kernel.out_size

    @staticmethod
    def independent(nx: int, ny: int) -> "AuxChannel":
        return AuxChannel(Kernel(np.ones((nx, ny, 1))))

    @staticmethod
    def copy_pair(nx: int, ny: int) -> "AuxChannel":
        eye = np.eye(nx * ny).reshape(nx, ny, nx * ny)
        return AuxChannel(Kernel(eye))


@dataclass(frozen=True)
class RegionPoint:
    """One achievable (R0, R1, R2) with its witnesses and budgets."""

    r0: float
    r1: float
    r2: float
    budgets: Budgets
    witness: AuxChannel
    test_channel_x: Kernel
    test_channel_y: Kernel
    converged: bool

    @property
    def triple(self) -> tuple[float, float, float]:
        return (self.r0, self.r1, self.r2)


@dataclass(frozen=True)
class RegionFrontier:
    """Pareto-minimal achievable triples plus search metadata."""

    points: tuple[RegionPoint, ...]
    seed: int
    strategy: str
    n_evaluated: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["R0", "R1", "R2", "D1", "D2", "P1", "P2", "seed"])
        for p in self.points:
            writer.writerow([f"{v:.6g}" for v in
                             (p.r0, p.r1, p.r2, p.budgets.d1, p.budgets.d2,
                              p.budgets.p1, p.budgets.p2)] + [self.seed])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "strategy": self.strategy,
            "n_evaluated": self.n_evaluated,
            "points": [{
                "R0": p.r0, "R1": p.r1, "R2": p.r2,
                "budgets": p.budgets.as_dict(),
                "aux_channel": p.witness.kernel.to_dict(),
                "test_channel_x": p.test_channel_x.to_dict(),
                "test_channel_y": p.test_channel_y.to_dict(),
                "converged": p.converged,
            } for p in self.points],
        }


class _Solves(dict):
    """Memo of conditional_rdp results owned by one top-level region call,
    with its trial bounds' memo, keyed on (query key, lam), and counts of
    the work asked of it."""

    evaluations = 0  # scalarized-search objective evaluations
    triples = 0
    lookups = 0
    bounds = 0  # certified rate bounds formed for search trials
    pruned = 0  # search trials whose bound showed they cannot improve

    def __init__(self):
        super().__init__()
        self.rate_bounds = {}


def _key(query: RdpQuery) -> tuple:
    # DistortionMatrix compares by identity, so key on its values
    q, d = query.q_xw.probs, query.delta.values
    return (q.shape, q.tobytes(), d.shape, d.tobytes(), query.perception,
            query.d_budget, query.p_budget)


def _solve(query: RdpQuery, solves: _Solves) -> RdpResult:
    # RdpResult is frozen and its kernel read-only, so a hit can share the object
    key = _key(query)
    solves.lookups += 1
    res = solves.get(key)
    if res is None:
        res = solves[key] = conditional_rdp(query)
    return res


def _common_rate(q_xyw: JointPmf) -> float:
    """I(X,Y;W) of the (X, Y, W) joint."""
    nx, ny, w = q_xyw.shape
    return mutual_information(JointPmf(q_xyw.probs.reshape(nx * ny, w), ("XY", "W")))


def _query(problem: RegionProblem, budgets: Budgets, q_xyw: JointPmf, b: int) -> RdpQuery:
    """The conditional RDP query of branch ``b`` (0: X, 1: Y) given W."""
    delta, perception, d, p = ((problem.delta_x, problem.perception_x, budgets.d1, budgets.p1)
                               if b == 0 else
                               (problem.delta_y, problem.perception_y, budgets.d2, budgets.p2))
    return RdpQuery(q_xyw.marginal("XY"[b], "W"), delta, perception, d, p)


def _branch(problem: RegionProblem, budgets: Budgets, q_xyw: JointPmf, b: int,
            solves: _Solves) -> RdpResult:
    """The conditional RDP solve of branch ``b`` (0: X, 1: Y) given W."""
    return _solve(_query(problem, budgets, q_xyw, b), solves)


def rate_triple_for_aux(problem: RegionProblem, aux: AuxChannel, budgets: Budgets,
                        solves: _Solves | None = None) -> RegionPoint:
    """Achievable triple for one auxiliary channel.

    r0 = I(X,Y;W) over the induced joint; r1 and r2 come from the
    conditional RDP solver on the (X,W) and (Y,W) marginals. ``solves`` is
    the caller's memo of branch solves (an empty one by default); no
    result depends on it.
    """
    solves = _Solves() if solves is None else solves
    solves.triples += 1
    q_xyw = problem.p_xy.extend(aux.kernel, "W")
    r0 = _common_rate(q_xyw)
    res_x, res_y = (_branch(problem, budgets, q_xyw, b, solves) for b in (0, 1))
    return RegionPoint(r0=r0, r1=res_x.rate, r2=res_y.rate, budgets=budgets,
                       witness=aux, test_channel_x=res_x.test_channel,
                       test_channel_y=res_y.test_channel,
                       converged=res_x.converged and res_y.converged)


def pareto_filter(points: list[RegionPoint]) -> list[RegionPoint]:
    """Keep points not strictly dominated component-wise (with slack)."""
    kept = []
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if i == j:
                continue
            le = all(qv <= pv + PARETO_SLACK for qv, pv in zip(q.triple, p.triple))
            lt = any(qv < pv - PARETO_SLACK for qv, pv in zip(q.triple, p.triple))
            if le and lt:
                dominated = True
                break
            # exact ties: keep the lexicographically-smallest witness only
            if le and not lt and j < i and all(
                    abs(qv - pv) <= PARETO_SLACK for qv, pv in zip(q.triple, p.triple)):
                dominated = True
                break
        if not dominated:
            kept.append(p)
    return kept


def _sorted_points(points: list[RegionPoint]) -> tuple[RegionPoint, ...]:
    def key(p: RegionPoint):
        return (p.r0, p.r1, p.r2, p.witness.kernel.probs.tobytes())

    return tuple(sorted(points, key=key))


def _dirichlet_aux(rng: np.random.Generator, nx: int, ny: int, w_size: int) -> AuxChannel:
    rows = rng.dirichlet(np.ones(w_size), size=(nx, ny))
    return AuxChannel(Kernel(rows))


def _corner_channels(problem: RegionProblem, w_size: int) -> list[AuxChannel]:
    nx, ny = problem.p_xy.shape
    corners = [AuxChannel.independent(nx, ny)]
    if w_size >= nx * ny:
        corners.append(AuxChannel.copy_pair(nx, ny))
    return corners


def _w_size(problem: RegionProblem, w_size: int | None) -> int:
    """|W| for a search: min(bound, 4) by default, refused outside 1..bound."""
    w = w_size if w_size is not None else min(problem.max_w_size(), 4)
    if w < 1:
        raise ValueError(f"w_size must be at least 1, got {w}")
    if w > problem.max_w_size():
        raise ValueError(f"w_size {w} exceeds the cardinality bound {problem.max_w_size()}")
    return w


def _anchor(problem: RegionProblem, corner: RegionPoint, b: int, w_size: int) -> AuxChannel:
    """W = X̂ (b = 0) or W = Ŷ (b = 1): Q(w | x, y) is the independent
    corner's test channel of that branch, zero-padded to ``w_size``."""
    nx, ny = problem.p_xy.shape
    tc = (corner.test_channel_x, corner.test_channel_y)[b].probs[:, 0, :]
    rows = np.zeros((nx, ny, w_size))
    rows[:, :, :tc.shape[1]] = tc[:, None, :] if b == 0 else tc[None, :, :]
    return AuxChannel(Kernel(rows))


def compute_frontier(problem: RegionProblem, budgets: Budgets, *,
                     strategy: str = "grid", w_size: int | None = None,
                     samples: int = 16, restarts: int = 3, seed: int = 0,
                     parallel: int = 1, solves: _Solves | None = None) -> RegionFrontier:
    """Search auxiliary channels and return the Pareto frontier.

    strategy "grid" draws seeded Dirichlet channels plus the two corner
    channels (independent W; W = (X,Y) when w_size allows); "local" adds
    scalarized searches at weights (0, 1, 1) and (1, 1, 1), and the exact
    optima of (a, 1, 0) and (a, 0, 1), a <= 1: W = X̂ and W = Ŷ, from the
    independent corner's test channels (a*R0 + R1 >= a*(I(X;W) + R_{X|W})
    >= a*R_X, with equality at R1 = 0). A branch whose reconstruction
    alphabet exceeds w_size is searched at (0.5, 1, 0) or (0.5, 0, 1)
    instead. ``solves`` is the caller's memo of branch solves (an empty one
    by default); no result depends on it. Deterministic for a fixed seed,
    independent of the parallelism degree. Raises ``ValueError`` for
    samples < 0 or restarts < 1.
    """
    nx, ny = problem.p_xy.shape
    w = _w_size(problem, w_size)
    if strategy not in ("grid", "local"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")

    candidates = _corner_channels(problem, w)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        candidates.append(_dirichlet_aux(rng, nx, ny, w))

    solves = _Solves() if solves is None else solves
    points: list[RegionPoint] = []
    anchored = []  # branches whose W = X̂ or W = Ŷ fits in w symbols
    if strategy == "local":
        anchored = [b for b, delta in enumerate((problem.delta_x, problem.delta_y))
                    if delta.values.shape[1] <= w]
        # no (1, 0, 0) search: its optimum, a W independent of (X, Y), is the
        # independent corner, already a candidate; k keeps each search's seed
        weight_sets = [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 1.0, 0.0), (0.5, 0.0, 1.0)]
        for k, weights in enumerate(weight_sets, start=2):
            # a branch with an anchor needs no (0.5, 1, 0) or (0.5, 0, 1) search
            if k < 4 or k - 4 not in anchored:
                points.append(scalarized_search(problem, budgets, weights, w_size=w,
                                                restarts=restarts, seed=seed + 1000 * k,
                                                solves=solves))

    corner = len(points)  # the independent corner is the first candidate
    if parallel > 1:
        from concurrent.futures import ProcessPoolExecutor   # serial runs skip multiprocessing
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            points.extend(pool.map(rate_triple_for_aux, repeat(problem), candidates,
                                   repeat(budgets)))
    else:
        points.extend(rate_triple_for_aux(problem, aux, budgets, solves) for aux in candidates)
    points.extend(rate_triple_for_aux(problem, _anchor(problem, points[corner], b, w), budgets,
                                      solves) for b in anchored)

    _log.debug("frontier: %d candidates, %d not converged; in this process %d objective "
               "evaluations, %d triples, %d lookups, %d solver calls, %d cache hits, "
               "%d trial bounds, %d trials pruned",
               len(points), sum(not p.converged for p in points), solves.evaluations,
               solves.triples, solves.lookups, len(solves), solves.lookups - len(solves),
               solves.bounds, solves.pruned)
    frontier = _sorted_points(pareto_filter(points))
    return RegionFrontier(points=frontier, seed=seed, strategy=strategy,
                          n_evaluated=len(points))


def scalarized_search(problem: RegionProblem, budgets: Budgets,
                      weights: tuple[float, float, float], *, w_size: int | None = None,
                      restarts: int = 3, seed: int = 0,
                      solves: _Solves | None = None) -> RegionPoint:
    """Minimize w0*r0 + w1*r1 + w2*r2 over auxiliary channels.

    Projected coordinate descent: one (x, y) row at a time moves toward a
    simplex vertex under backtracking, restarted from seeded Dirichlet
    draws; the best restart wins. A local minimizer only. A trial channel
    is scored by the terms whose weight is non-zero alone, so a zero weight
    skips I(X,Y;W) or that branch's solve; the full triple is built once,
    for the best channel. A trial is not solved when a certified lower
    bound on its score cannot beat the incumbent's: w0*I(X,Y;W) plus, per
    weighted branch not in the memo, Blahut's bound at the incumbent's
    multiplier less its D + _CONSTRAINT_TOL term. Every rate the solver
    returns within its budgets lies above that bound, so the search returns
    what it would by solving every trial. ``solves`` is the caller's memo of
    branch solves and bounds (an empty one by default); no result depends
    on it. Raises ``ValueError`` for non-finite, negative or all-zero
    weights, and for restarts < 1.
    """
    if (not all(math.isfinite(wt) and wt >= 0 for wt in weights)
            or all(wt == 0 for wt in weights)):
        raise ValueError(f"weights must be finite, nonnegative and not all zero, got {weights}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    solves = _Solves() if solves is None else solves
    nx, ny = problem.p_xy.shape
    w = _w_size(problem, w_size)
    rng = np.random.default_rng(seed)

    def objective(aux: AuxChannel, incumbent=None):
        """(w0*r0 + w1*r1 + w2*r2, aux, branch results) to the last bit: a
        zero weight times a finite rate adds exactly 0. None when the trial's
        bound shows it cannot go below the ``incumbent``'s value - 1e-9."""
        solves.evaluations += 1
        q_xyw = problem.p_xy.extend(aux.kernel, "W")
        val = 0.0
        if weights[0]:
            val += weights[0] * _common_rate(q_xyw)
        queries = [_query(problem, budgets, q_xyw, b) if weights[1 + b] else None
                   for b in (0, 1)]
        known = [None if query is None else solves.get(_key(query)) for query in queries]
        if incumbent is not None and any(query is not None and res is None
                                         for query, res in zip(queries, known)):
            low = val
            for b, (query, res) in enumerate(zip(queries, known)):
                if res is not None:
                    low += weights[1 + b] * res.rate
                elif query is not None:  # rates are nonnegative: so is the bound
                    bound = (_key(query), incumbent[2][b].lam)
                    if bound not in solves.rate_bounds:
                        solves.bounds += 1
                        solves.rate_bounds[bound] = max(_rate_bound(query, bound[1]), 0.0)
                    low += weights[1 + b] * solves.rate_bounds[bound]
            # the 1e-12 covers the rounding of the bound and of the rates
            if low >= incumbent[0] - 1e-9 + 1e-12 * (1.0 + low):
                solves.pruned += 1
                return None
        results = [None if query is None else _solve(query, solves) for query in queries]
        for b, res in enumerate(results):
            if res is not None:
                val += weights[1 + b] * res.rate
        return val, aux, results

    starts = [AuxChannel.independent(nx, ny)]
    for _ in range(restarts - 1):
        starts.append(_dirichlet_aux(rng, nx, ny, w))

    best = None
    for aux in starts:
        rows = np.array(aux.kernel.probs, dtype=np.float64)
        if rows.shape[2] < w:  # pad the independent corner up to w symbols
            pad = np.zeros((nx, ny, w - rows.shape[2]))
            rows = np.concatenate([rows, pad], axis=2)
        cur = objective(AuxChannel(Kernel(rows)))
        for _ in range(_SWEEPS):
            improved = False
            for ix in range(nx):
                for iy in range(ny):
                    for vertex in range(w):
                        for step in (0.5, 0.25):
                            trial = rows.copy()
                            target = np.zeros(w)
                            target[vertex] = 1.0
                            trial[ix, iy] = (1 - step) * trial[ix, iy] + step * target
                            scored = objective(AuxChannel(Kernel(trial)), cur)
                            if scored is not None and scored[0] < cur[0] - 1e-9:
                                rows, cur = trial, scored
                                improved = True
                                break
            if not improved:
                break
        if best is None or cur[0] < best[0]:
            best = cur
    return rate_triple_for_aux(problem, best[1], budgets, solves)
