"""Achievable rate region of the two-decoder common-message network.

A rate triple is generated from an auxiliary channel Q_{W|XY}: the common
rate is I(X,Y;W) and each private rate is the conditional RDP function of
the corresponding source given W. The region is the union of such triples
over auxiliary channels; this module searches that union and keeps the
Pareto-minimal frontier.

Every emitted point stores its witnesses (the auxiliary channel and both
test channels), so the triple can be recomputed from scratch; no claim of
global optimality is made for searched frontiers, only achievability.

Each private rate depends only on its own branch marginal and budgets, and
searches repeat branch queries (every scalarized search starts from the
independent corner; a symmetric source makes the X and Y queries coincide).
So each top-level call keeps an exact memo of solver results, keyed on every
input of the query: ``compute_frontier`` shares one across its scalarized
searches and serial grid, while a direct ``scalarized_search`` or
``rate_triple_for_aux`` call, each pool job included, starts an empty one.
Triple, solve and hit counts go to the ``gwrdp.region`` logger at DEBUG,
never into the exported files.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from concurrent.futures import ProcessPoolExecutor
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
    """Memo of conditional_rdp results owned by one top-level region call."""

    lookups = 0


def _solve(query: RdpQuery, solves: _Solves) -> RdpResult:
    # DistortionMatrix compares by identity, so key on its values; RdpResult
    # is frozen and its kernel read-only, so a hit can share the object
    q, d = query.q_xw.probs, query.delta.values
    key = (q.shape, q.tobytes(), d.shape, d.tobytes(), query.perception,
           query.d_budget, query.p_budget, query.recon_alphabet)
    solves.lookups += 1
    res = solves.get(key)
    if res is None:
        res = solves[key] = conditional_rdp(query)
    return res


def _rate_triple(problem: RegionProblem, aux: AuxChannel, budgets: Budgets,
                 solves: _Solves) -> RegionPoint:
    p_xy = problem.p_xy
    q_xyw = p_xy.extend(aux.kernel, "W")
    nx, ny = p_xy.shape
    pair_w = JointPmf(q_xyw.probs.reshape(nx * ny, aux.w_size), ("XY", "W"))
    r0 = mutual_information(pair_w)
    res_x = _solve(RdpQuery(q_xyw.marginal("X", "W"), problem.delta_x,
                            problem.perception_x, budgets.d1, budgets.p1), solves)
    res_y = _solve(RdpQuery(q_xyw.marginal("Y", "W"), problem.delta_y,
                            problem.perception_y, budgets.d2, budgets.p2), solves)
    return RegionPoint(r0=r0, r1=res_x.rate, r2=res_y.rate, budgets=budgets,
                       witness=aux, test_channel_x=res_x.test_channel,
                       test_channel_y=res_y.test_channel,
                       converged=res_x.converged and res_y.converged)


def rate_triple_for_aux(problem: RegionProblem, aux: AuxChannel,
                        budgets: Budgets) -> RegionPoint:
    """Achievable triple for one auxiliary channel.

    r0 = I(X,Y;W) over the induced joint; r1 and r2 come from the
    conditional RDP solver on the (X,W) and (Y,W) marginals.
    """
    return _rate_triple(problem, aux, budgets, _Solves())


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
    """
    nx, ny = problem.p_xy.shape
    w = _w_size(problem, w_size)
    if strategy not in ("grid", "local"):
        raise ValueError(f"unknown strategy {strategy!r}")

    candidates = _corner_channels(problem, w)
    rng = np.random.default_rng(seed)
    for _ in range(max(samples, 0)):
        candidates.append(_dirichlet_aux(rng, nx, ny, w))

    solves = _Solves()
    points: list[RegionPoint] = []
    if strategy == "local":
        weight_sets = [(1.0, 0.0, 0.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0),
                       (0.5, 1.0, 0.0), (0.5, 0.0, 1.0)]
        for k, weights in enumerate(weight_sets):
            points.append(_scalarized_search(problem, budgets, weights, solves, w_size=w,
                                             restarts=restarts,
                                             seed=seed + 1000 * (k + 1)))

    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            points.extend(pool.map(rate_triple_for_aux, repeat(problem), candidates,
                                   repeat(budgets)))
    else:
        points.extend(_rate_triple(problem, aux, budgets, solves) for aux in candidates)

    _log.debug("frontier: %d candidates, %d not converged; in this process %d triples, "
               "%d solver calls, %d cache hits", len(points),
               sum(not p.converged for p in points), solves.lookups // 2, len(solves),
               solves.lookups - len(solves))
    frontier = _sorted_points(pareto_filter(points))
    return RegionFrontier(points=frontier, seed=seed, strategy=strategy,
                          n_evaluated=len(points))


def scalarized_search(problem: RegionProblem, budgets: Budgets,
                      weights: tuple[float, float, float], *, w_size: int | None = None,
                      restarts: int = 3, seed: int = 0) -> RegionPoint:
    """Minimize w0*r0 + w1*r1 + w2*r2 over auxiliary channels.

    Projected coordinate descent: one (x, y) row at a time moves toward a
    simplex vertex under backtracking, restarted from seeded Dirichlet
    draws; the best restart wins. A local minimizer only.
    """
    return _scalarized_search(problem, budgets, weights, _Solves(), w_size=w_size,
                              restarts=restarts, seed=seed)


def _scalarized_search(problem: RegionProblem, budgets: Budgets,
                       weights: tuple[float, float, float], solves: _Solves, *,
                       w_size: int | None, restarts: int, seed: int) -> RegionPoint:
    if any(wt < 0 for wt in weights) or all(wt == 0 for wt in weights):
        raise ValueError("weights must be nonnegative and not all zero")
    nx, ny = problem.p_xy.shape
    w = _w_size(problem, w_size)
    rng = np.random.default_rng(seed)

    def objective(aux: AuxChannel) -> tuple[float, RegionPoint]:
        pt = _rate_triple(problem, aux, budgets, solves)
        return (weights[0] * pt.r0 + weights[1] * pt.r1 + weights[2] * pt.r2, pt)

    starts = [AuxChannel.independent(nx, ny)]
    for _ in range(max(restarts - 1, 0)):
        starts.append(_dirichlet_aux(rng, nx, ny, w))

    best_val, best_pt = math.inf, None
    for aux in starts:
        rows = np.array(aux.kernel.probs, dtype=np.float64)
        if rows.shape[2] < w:  # pad the independent corner up to w symbols
            pad = np.zeros((nx, ny, w - rows.shape[2]))
            rows = np.concatenate([rows, pad], axis=2)
        val, pt = objective(AuxChannel(Kernel(rows)))
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
                            tval, tpt = objective(AuxChannel(Kernel(trial)))
                            if tval < val - 1e-9:
                                rows, val, pt = trial, tval, tpt
                                improved = True
                                break
            if not improved:
                break
        if val < best_val:
            best_val, best_pt = val, pt
    return best_pt
