"""Independent oracles used by the test suite.

Kept deliberately separate from the library: a textbook alternating-
minimization rate-distortion solver (no perception) with multiplier
bisection, plus closed-form helpers, checks the main solver through a
different code path; the exhaustive grid oracle searches test channels and
shares only the solver's problem setup and metrics. Entropy and
conditional mutual information by their defining sums check the library's
mutual information. The codec's encoder scans and the greedy seed map are
checked against plain one-item-at-a-time loops kept here, and its exact
uniform sampler against a rejection sampler. The band-test oracles
``is_typical``, ``is_cond_typical`` and ``is_jointly_typical`` check the
samplers' draws and the codebooks' codewords; they, ``encode_loop`` and
the rejection sampler decide the multiplicative band with one helper that
counts joint cells by ``bincount``. ``shift_position`` is the circular
shift's position map, one position at a time, against which
``circular_shift`` is checked; ``hamming_tv_problem`` builds the Hamming,
TV region problem most tests pose. ``eager_search`` is the
scalarized search that builds the full triple of every trial channel,
against which the search that reads only its weighted terms is checked,
and ``kkt_block`` assembles the solver's Newton system with ``np.block``.
``sample_uniform_typical`` draws from an unconditional typical set,
described by a ``TypicalSetSpec``, through the library's conditional
sampler given a constant conditioning row. ``rdp_stress_queries`` is the
seeded stress set of conditional RDP queries, so a query it names can be
replayed from its seed and index.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from gwrdp.codec import sample_uniform_cond_typical
from gwrdp.prob import JointPmf, Kernel
from gwrdp.region import (_SWEEPS, AuxChannel, RegionProblem, _dirichlet_aux, _Solves, _w_size,
                          rate_triple_for_aux)
from gwrdp.solver import (DistortionMatrix, InfeasibleError, PerceptionMeasure, RdpQuery, RdpResult,
                          _build_problem, _metrics, _perception_of, _to_result, hamming)

_GRID_CHUNK = 200_000  # grid channels brute_force_rdp scores at once


def entropy(p) -> float:
    """H(p) in bits by its defining sum, with 0*log2(0) = 0; ``p`` is an
    array of any shape or anything with ``probs``."""
    p = np.asarray(getattr(p, "probs", p), dtype=np.float64).ravel()
    return float(sum(-v * math.log2(v) for v in p if v > 0))


def conditional_mutual_information(j) -> float:
    """I(A;B|C) in bits by its defining sum, for a 3-axis joint with axes
    ordered (A, B, C)."""
    p = np.asarray(j.probs, dtype=np.float64)
    p_c, p_ac, p_bc = p.sum(axis=(0, 1)), p.sum(axis=1), p.sum(axis=0)
    return float(sum(p[a, b, c] * math.log2(p[a, b, c] * p_c[c] / (p_ac[a, c] * p_bc[b, c]))
                     for a, b, c in np.ndindex(p.shape) if p[a, b, c] > 0))


def h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def ba_rate_at_multiplier(p_x: np.ndarray, delta: np.ndarray, beta: float,
                          max_it: int = 200_000, tol: float = 1e-14):
    """Classical alternating minimization of I + beta*E[delta] (bits)."""
    p_x = np.asarray(p_x, dtype=np.float64)
    d = np.asarray(delta, dtype=np.float64)
    q = np.tile(p_x[None, :] * 0 + 1.0 / d.shape[1], (d.shape[0], 1))
    for _ in range(max_it):
        out = p_x @ q
        q_new = out[None, :] * np.exp2(-beta * d)
        q_new /= q_new.sum(axis=1, keepdims=True)
        if np.abs(q_new - q).max() < tol:
            q = q_new
            break
        q = q_new
    out = p_x @ q
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0) / out[None, :]), 0.0)
    rate = float((p_x[:, None] * term).sum())
    ed = float((p_x[:, None] * q * d).sum())
    return max(rate, 0.0), ed, q


def rd_function(p_x: np.ndarray, delta: np.ndarray, d_budget: float,
                tol: float = 1e-8) -> float:
    """Classical R(D): the conditional function with a constant W."""
    return conditional_rd_function(np.asarray(p_x, dtype=np.float64)[:, None], delta,
                                   d_budget, tol)


def conditional_rd_function(q_xw: np.ndarray, delta: np.ndarray,
                            d_budget: float, tol: float = 1e-8) -> float:
    """Conditional rate-distortion without perception: a per-branch
    multiplier must be shared across W, so run the joint problem by
    bisection with per-w classical updates."""
    q_xw = np.asarray(q_xw, dtype=np.float64)
    if d_budget < float((q_xw.sum(axis=1) * np.asarray(delta).min(axis=1)).sum()):
        raise ValueError("infeasible budget")
    q_w = q_xw.sum(axis=0)
    live = q_w > 0
    cond = [q_xw[:, w] / q_w[w] for w in range(q_xw.shape[1]) if live[w]]
    weights = q_w[live]

    def at(beta):
        rates, dists, _ = zip(*(ba_rate_at_multiplier(p, delta, beta) for p in cond))
        return float(np.dot(weights, rates)), float(np.dot(weights, dists))

    rate0, ed0 = at(0.0)
    if ed0 <= d_budget:
        return 0.0
    lo, hi = 0.0, 1.0
    rate_hi, ed_hi = at(hi)
    while ed_hi > d_budget and hi < 1e9:
        lo, hi = hi, hi * 4.0
        rate_hi, ed_hi = at(hi)
    rate_lo, ed_lo = at(lo)
    for _ in range(200):
        bound = max(0.0, rate_lo + lo * (ed_lo - d_budget))
        if rate_hi - bound <= tol:
            break
        mid = 0.5 * (lo + hi)
        rate_m, ed_m = at(mid)
        if ed_m > d_budget:
            lo, rate_lo, ed_lo = mid, rate_m, ed_m
        else:
            hi, rate_hi, ed_hi = mid, rate_m, ed_m
    return rate_hi


def _simplex_grid(k: int, steps: int) -> np.ndarray:
    """All pmfs on k symbols with entries i/(steps-1); shape (count, k)."""
    if steps < 2:
        raise ValueError("grid_steps must be at least 2")
    total = steps - 1
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i, slots - 1)

    rec([], total, k)
    return np.asarray(out, dtype=np.float64) / total


def brute_force_rdp(query: RdpQuery, grid_steps: int, *,
                    max_free_params: int = 6) -> RdpResult:
    """Exhaustive grid search over test channels; oracle use only.

    Each (x, w) row of the channel ranges over a simplex grid of the given
    resolution; the best feasible grid point is returned. Deterministic:
    ties break toward the smallest enumeration index.
    """
    pr = _build_problem(query)
    n_x, n_w = pr.q_xw.shape
    n_h = pr.delta.shape[1]
    n_rows = n_x * n_w
    free = n_rows * (n_h - 1)
    if free > max_free_params:
        raise ValueError(f"{free} free parameters exceed the cap of {max_free_params}")

    rows = _simplex_grid(n_h, grid_steps)
    n_rowpts = rows.shape[0]
    total = n_rowpts ** n_rows
    q_w = pr.q_xw.sum(axis=0)

    best_rate = math.inf
    best_q = None

    for start in range(0, total, _GRID_CHUNK):
        idx = np.arange(start, min(start + _GRID_CHUNK, total), dtype=np.int64)
        # decode per-row grid indices (mixed radix, row 0 most significant)
        q = np.empty((idx.size, n_rows, n_h))
        rem = idx.copy()
        for row in range(n_rows - 1, -1, -1):
            q[:, row, :] = rows[rem % n_rowpts]
            rem //= n_rowpts
        q = q.reshape(idx.size, n_x, n_w, n_h)

        joint = pr.q_xw[None, :, :, None] * q
        dist = np.einsum("bxwh,xh->b", joint, pr.delta)
        m = joint.sum(axis=(1, 2))
        if pr.perception.kind == "tv" and pr.full_recon == n_x and np.array_equal(pr.cols, np.arange(n_x)):
            perc = np.abs(m - pr.p_x[None, :]).sum(axis=1)
        else:
            perc = np.array([_perception_of(pr, mi) for mi in m])
        r = joint.sum(axis=1)  # (b, w, h) = q_w * per-w output marginal
        with np.errstate(divide="ignore", invalid="ignore"):
            r_cond = r / np.maximum(q_w[None, :, None], 1e-300)
            ratio = np.log2(np.where(joint > 0, q / np.maximum(r_cond[:, None], 1e-300), 1.0))
        rate = np.sum(joint * ratio, axis=(1, 2, 3))

        feasible = (dist <= pr.d_budget + 1e-12) & (perc <= pr.p_budget + 1e-12)
        if np.any(feasible):
            sub = np.where(feasible)[0]
            k = sub[np.argmin(rate[sub])]
            if rate[k] < best_rate - 1e-15:
                best_rate = float(rate[k])
                best_q = q[k].copy()

    if best_q is None:
        raise InfeasibleError("no feasible grid point at this resolution")

    rate, dist, perc, _ = _metrics(pr, best_q)
    return _to_result(pr, best_q, rate, dist, perc, lam=0.0, gap=math.nan, converged=True,
                      iterations=total)


_STRESS_P = {"tv": (0.3, 1.0), "kl": (0.1, 0.5)}  # upper ends of the two uniform P draws


def rdp_stress_queries(seed: int, count: int) -> list[RdpQuery]:
    """The first ``count`` queries of the seeded stress set.

    One ``default_rng(seed)`` draws each query in turn, in this order:
    |X| = integers(2, 6); |W| = integers(1, 4); alpha from (0.3, 1, 3) by
    integers(3); q_xw = dirichlet(alpha on all |X|·|W| cells), laid out
    (X, W); Hamming distortion if random() < 0.5, else a
    uniform(0, 1, (|X|, |X|)) matrix with its diagonal set to 0; TV if
    random() < 0.5, else KL; D = 0 if random() < 0.05, else random() times
    the best constant reconstruction's distortion min_h sum_x p(x) d(x, h);
    then P by integers(4): 0, uniform(0, 0.3) (KL: 0.1), uniform(0, 1)
    (KL: 0.5) or infinity.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nx, nw = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        alpha = (0.3, 1.0, 3.0)[int(rng.integers(3))]
        q_xw = rng.dirichlet(np.full(nx * nw, alpha)).reshape(nx, nw)
        if rng.random() < 0.5:
            delta = hamming(nx)
        else:
            delta = rng.uniform(0.0, 1.0, (nx, nx))
            np.fill_diagonal(delta, 0.0)
        kind = "tv" if rng.random() < 0.5 else "kl"
        d_const = float((q_xw.sum(axis=1) @ delta).min())
        d = 0.0 if rng.random() < 0.05 else float(rng.random()) * d_const
        pick = int(rng.integers(4))
        p = (0.0 if pick == 0 else math.inf if pick == 3
             else float(rng.uniform(0.0, _STRESS_P[kind][pick - 1])))
        out.append(RdpQuery(JointPmf(q_xw, ("X", "W")), DistortionMatrix(delta),
                            PerceptionMeasure(kind), d, p))
    return out


def hamming_tv_problem(p_xy) -> RegionProblem:
    """Both branches under Hamming distortion and TV perception."""
    nx, ny = p_xy.shape
    return RegionProblem(p_xy, DistortionMatrix(hamming(nx)), DistortionMatrix(hamming(ny)))


def eager_search(problem, budgets, weights, *, w_size, restarts, seed):
    """The scalarized coordinate descent scoring each trial channel by its
    full triple: both branch solves and I(X,Y;W), whatever the weights."""
    if any(wt < 0 for wt in weights) or all(wt == 0 for wt in weights):
        raise ValueError("weights must be nonnegative and not all zero")
    nx, ny = problem.p_xy.shape
    w = _w_size(problem, w_size)
    rng = np.random.default_rng(seed)
    solves = _Solves()

    def objective(aux):
        pt = rate_triple_for_aux(problem, aux, budgets, solves)
        return (weights[0] * pt.r0 + weights[1] * pt.r1 + weights[2] * pt.r2, pt)

    starts = [AuxChannel.independent(nx, ny)]
    for _ in range(max(restarts - 1, 0)):
        starts.append(_dirichlet_aux(rng, nx, ny, w))

    best_val, best_pt = math.inf, None
    for aux in starts:
        rows = np.array(aux.kernel.probs, dtype=np.float64)
        if rows.shape[2] < w:
            rows = np.concatenate([rows, np.zeros((nx, ny, w - rows.shape[2]))], axis=2)
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


def kkt_block(a: np.ndarray, p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """[[H + ridge I, 1], [1^T, 0]] with H = a^T diag(p / z^2) a and a
    ridge of 1e-12 tr(H), assembled by ``np.block``."""
    h = (a * (p / z ** 2)[:, None]).T @ a
    h += 1e-12 * np.trace(h) * np.eye(len(h))
    return np.block([[h, np.ones((len(h), 1))], [np.ones((1, len(h))), np.zeros((1, 1))]])


def shift_position(n: int, k: int, t: int) -> int:
    """Position map of the circular shift: ((t + k - 1) mod n) + 1.

    Positions t are 1-based; k is in [0, n-1].
    """
    if not 1 <= t <= n:
        raise ValueError(f"position {t} outside [1, {n}]")
    if not 0 <= k <= n - 1:
        raise ValueError(f"shift {k} outside [0, {n - 1}]")
    return ((t + k - 1) % n) + 1


def in_band(seqs, q, delta: float) -> bool:
    """Joint counts of parallel symbol sequences, one per axis of the pmf
    ``q``, inside the multiplicative band |c/n - q| <= delta * q."""
    q = np.asarray(q, dtype=np.float64)
    cells = np.zeros(np.asarray(seqs[0]).shape[0], dtype=np.int64)
    for seq, size in zip(seqs, q.shape):
        cells = cells * size + np.asarray(seq, dtype=np.int64)
    counts = np.bincount(cells, minlength=q.size).reshape(q.shape)
    return bool(np.all(np.abs(counts / cells.size - q) <= delta * q))


@dataclass(frozen=True)
class TypicalSetSpec:
    """Reference pmf ``q`` with band width ``delta`` at blocklength ``n``."""

    q: np.ndarray
    delta: float
    n: int


def sample_uniform_typical(spec: TypicalSetSpec, count: int,
                           rng: np.random.Generator | int) -> np.ndarray:
    """Exactly uniform draws from ``spec``'s typical set, shape (count, n):
    the conditional sampler given a constant conditioning row, with q as
    the joint's only column, as a codebook draws its common layer."""
    return sample_uniform_cond_typical(spec.q.reshape(-1, 1), spec.delta,
                                       np.zeros(spec.n, dtype=np.int64), count, rng)


def is_typical(seq, spec) -> bool:
    """Multiplicative typicality of a sequence against ``spec``'s pmf."""
    if len(seq) != spec.n:
        raise ValueError(f"sequence length {len(seq)} != n {spec.n}")
    return in_band([seq], spec.q.reshape(-1), spec.delta)


def is_cond_typical(seq, cond_seq, joint_q, delta: float) -> bool:
    """Conditional typicality: joint counts of (seq, cond_seq) inside the
    band around joint_q (axes: sequence symbol, conditioning symbol)."""
    return in_band([seq, cond_seq], joint_q, delta)


def is_jointly_typical(x_seq, y_seq, w_seq, q_xyw, delta: float) -> bool:
    """Triple typicality: the (x, y, w) joint type inside the band."""
    return in_band([x_seq, y_seq, w_seq], q_xyw, delta)


def first_under_threshold_loop(codewords: np.ndarray, ref: np.ndarray,
                               delta_mat: np.ndarray, threshold: float) -> int:
    """Smallest index whose per-letter distortion against ref is at most
    threshold, checking one codeword at a time; -1 if none."""
    ref = np.asarray(ref, dtype=np.int64)
    for i, cw in enumerate(codewords):
        if delta_mat[ref, cw.astype(np.int64)].mean() <= threshold:
            return i
    return -1


def encode_loop(codebook, x_seq, y_seq, k: int):
    """Three-stage encoder, one codeword at a time, by the codebook's rule.
    Joint typicality is the multiplicative band predicate on the (x, y, w)
    counts. Returns
    (s0, s1, s2, miss_common, miss_x, miss_y) with the same fallbacks as
    the library: index 0 and a flag."""
    xb = np.roll(np.asarray(x_seq, dtype=np.int64), k)   # undo the shift by k
    yb = np.roll(np.asarray(y_seq, dtype=np.int64), k)
    s0 = -1
    for i, w in enumerate(codebook.common[0]):
        if is_jointly_typical(xb, yb, w, codebook.q_xyw, codebook.delta):
            s0 = i
            break
    miss_common = s0 < 0
    s0 = max(s0, 0)
    (delta_x, delta_y), (threshold_x, threshold_y) = codebook.distortions, codebook.thresholds
    s1 = first_under_threshold_loop(codebook.priv_x[s0], xb, np.asarray(delta_x), threshold_x)
    s2 = first_under_threshold_loop(codebook.priv_y[s0], yb, np.asarray(delta_y), threshold_y)
    return s0, max(s1, 0), max(s2, 0), miss_common, s1 < 0, s2 < 0


def greedy_seed_assignment(p_flat: np.ndarray, n0: int, n: int) -> np.ndarray:
    """Greedy least-loaded map of all length-n0 tail atoms to n bins: atoms
    by descending probability (ties by index), each popped into the
    lightest bin (ties by bin index) and pushed back."""
    probs = np.asarray(p_flat, dtype=np.float64)
    for _ in range(n0 - 1):
        probs = np.kron(probs, p_flat)
    order = np.lexsort((np.arange(probs.size), -probs))
    assignment = np.empty(probs.size, dtype=np.int64)
    heap = [(0.0, b) for b in range(n)]
    heapq.heapify(heap)
    for atom in order:
        mass, b = heapq.heappop(heap)
        assignment[atom] = b
        heapq.heappush(heap, (mass + probs[atom], b))
    return assignment


def per_letter_distortion(delta_mat: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Average of delta over aligned positions."""
    a = np.asarray(a).astype(np.int64)
    b = np.asarray(b).astype(np.int64)
    if a.shape != b.shape:
        raise ValueError("sequences must have equal length")
    return float(np.asarray(delta_mat)[a, b].mean())


def rejection_sample_typical(spec, count: int, rng: np.random.Generator | int,
                             max_tries: int = 1_000_000) -> np.ndarray:
    """Draw i.i.d. q^n and keep the sequences whose counts lie in the
    multiplicative band |c/n - q| <= delta * q; ``spec`` carries q, delta
    and n."""
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    q = spec.q.reshape(-1)
    out = np.empty((count, spec.n), dtype=np.uint8)
    got = 0
    for _ in range(max_tries):
        seq = rng.choice(q.shape[0], size=spec.n, p=q).astype(np.uint8)
        if is_typical(seq, spec):
            out[got] = seq
            got += 1
            if got == count:
                return out
    raise RuntimeError(f"rejection sampler failed after {max_tries} tries")
