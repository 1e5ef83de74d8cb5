"""Achievable rate region of the two-decoder common-message network.

A rate triple is generated from an auxiliary channel Q_{W|XY}: the common
rate is I(X,Y;W) and each private rate is the conditional RDP function of
the corresponding source given W. The region is the union of such triples
over auxiliary channels; this module searches that union and keeps the
Pareto-minimal frontier.

Every emitted point stores its witnesses (the auxiliary channel and both
test channels), so the triple can be recomputed from scratch; no claim of
global optimality is made for searched frontiers, only achievability.

A scalarized search reads only the terms its weights do not zero: a trial
channel costs I(X,Y;W) for a common-rate weight and one branch solve per
private-rate weight, and the full triple is built once, for the best
channel found. ``rate_triple_for_aux`` and ``scalarized_search`` are the one
path for a triple and a search. Searches repeat branch queries (each starts
from the independent corner; a symmetric source makes the X and Y queries
coincide), so both take the caller's exact memo of solver results, keyed on
every input of the query, as ``solves``, or start an empty one; no result
depends on it. ``compute_frontier`` shares one memo across its searches and
serial grid; each pool job starts its own. Objective evaluation, triple,
lookup, solve and hit counts go to the ``gwrdp.region`` logger at DEBUG,
never into the exported files.
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
    with counts of the work asked of it."""

    evaluations = 0  # scalarized-search objective evaluations
    triples = 0
    lookups = 0


def _solve(query: RdpQuery, solves: _Solves) -> RdpResult:
    # DistortionMatrix compares by identity, so key on its values; RdpResult
    # is frozen and its kernel read-only, so a hit can share the object
    q, d = query.q_xw.probs, query.delta.values
    key = (q.shape, q.tobytes(), d.shape, d.tobytes(), query.perception,
           query.d_budget, query.p_budget)
    solves.lookups += 1
    res = solves.get(key)
    if res is None:
        res = solves[key] = conditional_rdp(query)
    return res


def _common_rate(q_xyw: JointPmf) -> float:
    """I(X,Y;W) of the (X, Y, W) joint."""
    nx, ny, w = q_xyw.shape
    return mutual_information(JointPmf(q_xyw.probs.reshape(nx * ny, w), ("XY", "W")))


def _branch(problem: RegionProblem, budgets: Budgets, q_xyw: JointPmf, b: int,
            solves: _Solves) -> RdpResult:
    """The conditional RDP solve of branch ``b`` (0: X, 1: Y) given W."""
    delta, perception, d, p = ((problem.delta_x, problem.perception_x, budgets.d1, budgets.p1)
                               if b == 0 else
                               (problem.delta_y, problem.perception_y, budgets.d2, budgets.p2))
    return _solve(RdpQuery(q_xyw.marginal("XY"[b], "W"), delta, perception, d, p), solves)


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


def compute_frontier(problem: RegionProblem, budgets: Budgets, *,
                     strategy: str = "grid", w_size: int | None = None,
                     samples: int = 16, restarts: int = 3, seed: int = 0,
                     parallel: int = 1) -> RegionFrontier:
    """Search auxiliary channels and return the Pareto frontier.

    strategy "grid" draws seeded Dirichlet channels plus the two corner
    channels (independent W; W = (X,Y) when w_size allows); "local" adds
    scalarized coordinate-descent searches over a small weight set.
    Deterministic for a fixed seed, independent of the parallelism degree.
    Raises ``ValueError`` for samples < 0 or restarts < 1.
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

    solves = _Solves()
    points: list[RegionPoint] = []
    if strategy == "local":
        # no (1, 0, 0) search: its optimum, a W independent of (X, Y), is the
        # independent corner, already a candidate; k keeps each search's seed
        weight_sets = [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 1.0, 0.0), (0.5, 0.0, 1.0)]
        for k, weights in enumerate(weight_sets, start=2):
            points.append(scalarized_search(problem, budgets, weights, w_size=w,
                                            restarts=restarts, seed=seed + 1000 * k,
                                            solves=solves))

    if parallel > 1:
        from concurrent.futures import ProcessPoolExecutor   # serial runs skip multiprocessing
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            points.extend(pool.map(rate_triple_for_aux, repeat(problem), candidates,
                                   repeat(budgets)))
    else:
        points.extend(rate_triple_for_aux(problem, aux, budgets, solves) for aux in candidates)

    _log.debug("frontier: %d candidates, %d not converged; in this process %d objective "
               "evaluations, %d triples, %d lookups, %d solver calls, %d cache hits",
               len(points), sum(not p.converged for p in points), solves.evaluations,
               solves.triples, solves.lookups, len(solves), solves.lookups - len(solves))
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
    for the best channel. ``solves`` is the caller's memo of branch solves
    (an empty one by default); no result depends on it. Raises
    ``ValueError`` for restarts < 1.
    """
    if any(wt < 0 for wt in weights) or all(wt == 0 for wt in weights):
        raise ValueError("weights must be nonnegative and not all zero")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    solves = _Solves() if solves is None else solves
    nx, ny = problem.p_xy.shape
    w = _w_size(problem, w_size)
    rng = np.random.default_rng(seed)

    def objective(aux: AuxChannel) -> tuple[float, AuxChannel]:
        # w0*r0 + w1*r1 + w2*r2 to the last bit: a zero weight times a
        # finite rate adds exactly 0
        solves.evaluations += 1
        q_xyw = problem.p_xy.extend(aux.kernel, "W")
        val = 0.0
        if weights[0]:
            val += weights[0] * _common_rate(q_xyw)
        for b in (0, 1):
            if weights[1 + b]:
                val += weights[1 + b] * _branch(problem, budgets, q_xyw, b, solves).rate
        return val, aux

    starts = [AuxChannel.independent(nx, ny)]
    for _ in range(restarts - 1):
        starts.append(_dirichlet_aux(rng, nx, ny, w))

    best_val, best_aux = math.inf, None
    for aux in starts:
        rows = np.array(aux.kernel.probs, dtype=np.float64)
        if rows.shape[2] < w:  # pad the independent corner up to w symbols
            pad = np.zeros((nx, ny, w - rows.shape[2]))
            rows = np.concatenate([rows, pad], axis=2)
        val, cur = objective(AuxChannel(Kernel(rows)))
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
                            tval, taux = objective(AuxChannel(Kernel(trial)))
                            if tval < val - 1e-9:
                                rows, val, cur = trial, tval, taux
                                improved = True
                                break
            if not improved:
                break
        if val < best_val:
            best_val, best_aux = val, cur
    return rate_triple_for_aux(problem, best_aux, budgets, solves)
