"""Independent oracles used by the test suite.

Kept deliberately separate from the library: a textbook alternating-
minimization rate-distortion solver (no perception) with multiplier
bisection, plus closed-form helpers, checks the main solver through a
different code path, and ``binary_rdp_tv`` is the exact binary R(D, P)
under Hamming distortion and TV perception; the exhaustive grid oracle searches test channels and
shares only the solver's problem setup and metrics (it sums each w's table
of row choices, then rescores the channels near the best as a plain scan
of the whole grid would). Entropy and
conditional mutual information by their defining sums check the library's
mutual information. The codec's encoder scans (``first_under_threshold_loop``,
``first_jointly_typical_loop`` and ``encode_loop``) and the greedy seed map
are checked against plain one-item-at-a-time loops kept here, and its exact
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
sampler given a constant conditioning row, and
``sample_uniform_cond_typical_uncached`` is that sampler without its
cached band and type tables, against which the cached one is checked. ``rdp_stress_queries`` is the
seeded stress set of conditional RDP queries, so a query it names can be
replayed from its seed and index; ``stress_summary`` solves a slice of it
and gives the converged and raised counts and a SHA-256 over every result.
Over the whole set, run from the repository root:
``PYTHONPATH=src:tests python -c "from oracles import stress_summary;
print(stress_summary((7, 8), 300))"``.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass

import numpy as np

from gwrdp.codec import (SYMBOL_DTYPE, EmptyTypicalSetError, TypeTable, _compositions,
                         count_bounds, sample_uniform_cond_typical)
from gwrdp.derandom import _pour
from gwrdp.prob import JointPmf, Kernel
from gwrdp.region import (_SWEEPS, AuxChannel, RegionProblem, _dirichlet_aux, _Solves, _w_size,
                          rate_triple_for_aux)
from gwrdp.solver import (DistortionMatrix, InfeasibleError, PerceptionMeasure, RdpQuery, RdpResult,
                          _build_problem, _metrics, _perception_of, _to_result, conditional_rdp,
                          hamming)

_GRID_CHUNK = 200_000  # grid channels brute_force_rdp scores at once
_GRID_SLACK = 1e-9  # how far a channel's summed scores may sit from its own


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


def binary_rdp_tv(p: float, d: float, p_tv: float) -> float:
    """R(D, P) of a Bernoulli(p) source, p <= 1/2, under Hamming distortion
    D and TV perception P, in closed form: Theorem 2 of Blau and Michaeli,
    "Rethinking lossy compression: the rate-distortion-perception
    tradeoff", ICML 2019. Their TV is half of this library's sum |p - q|,
    so it is P' = P / 2 here. With q = 1 - p, D1 = P' / (1 - 2(p - P'))
    (infinite when P' >= p) and D2 = 2pq - (q - p) P':
    R = h(p) - h(D) for D < p and 0 for D >= p, when D <= D1;
    R = 2h(p) + h(p - P') - H3((D - P') / 2, p) - H3((D + P') / 2, q)
    when D1 < D <= D2, where H3(a, b) is the entropy of (a, b, 1 - a - b);
    R = 0 when D > D2."""
    q, half = 1.0 - p, p_tv / 2.0
    if half >= p or d <= half / (1.0 - 2.0 * (p - half)):
        return h2(p) - h2(d) if d < p else 0.0
    if d > 2.0 * p * q - (q - p) * half:
        return 0.0
    return (2.0 * h2(p) + h2(p - half) - entropy([(d - half) / 2, p, 1 - (d - half) / 2 - p])
            - entropy([(d + half) / 2, q, 1 - (d + half) / 2 - q]))


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


def _grid_scores(q_xw: np.ndarray, delta: np.ndarray, q: np.ndarray):
    """Distortion, reconstruction marginal and rate of channels q, shape
    (b, X, W, H), on the joint q_xw (X, W)."""
    joint = q_xw[None, :, :, None] * q
    dist = np.einsum("bxwh,xh->b", joint, delta)
    m = joint.sum(axis=(1, 2))
    r = joint.sum(axis=1)  # (b, w, h) = q_w * per-w output marginal
    with np.errstate(divide="ignore", invalid="ignore"):
        r_cond = r / np.maximum(q_xw.sum(axis=0)[None, :, None], 1e-300)
        ratio = np.log2(np.where(joint > 0, q / np.maximum(r_cond[:, None], 1e-300), 1.0))
    return dist, m, np.sum(joint * ratio, axis=(1, 2, 3))


def _grid_perception(pr, m: np.ndarray) -> np.ndarray:
    if pr.perception.kind == "tv" and m.shape[1] == pr.p_x.size:
        return np.abs(m - pr.p_x[None, :]).sum(axis=1)
    return np.array([_perception_of(pr, mi) for mi in m])


def _w_table(pr, rows: np.ndarray, w: int):
    """Every grid choice of w's rows: its share of the enumeration index,
    and its distortion, marginal and rate terms."""
    n_x, n_w = pr.q_xw.shape
    n_rowpts = rows.shape[0]
    digits = np.indices((n_rowpts,) * n_x).reshape(n_x, -1)  # x = 0 most significant
    place = np.array([n_rowpts ** (n_x * n_w - 1 - (x * n_w + w)) for x in range(n_x)],
                     dtype=np.int64) @ digits
    parts = [_grid_scores(pr.q_xw[:, [w]], pr.delta,
                          rows[digits[:, s:s + _GRID_CHUNK].T][:, :, None])
             for s in range(0, digits.shape[1], _GRID_CHUNK)]
    return (place, *(np.concatenate(part) for part in zip(*parts)))


def brute_force_rdp(query: RdpQuery, grid_steps: int, *,
                    max_free_params: int = 6) -> RdpResult:
    """Exhaustive grid search over test channels; oracle use only.

    Each (x, w) row of the channel ranges over a simplex grid of the given
    resolution; the best feasible grid point is returned. Deterministic:
    ties break toward the smallest enumeration index, and a later chunk of
    _GRID_CHUNK indices wins only by more than 1e-15 bits.

    Distortion, rate and the reconstruction marginal add over w, so every
    channel is first scored by joining each w's table of row choices.
    Those sums round differently from the channel's own scores, so only the
    channels within _GRID_SLACK of feasible and of the best surely feasible
    rate are scored again, chunk by chunk as a whole grid scan would; the
    choice depends only on channels within 1e-15 bits per chunk of the
    minimum.
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
    d_cap, p_cap = pr.d_budget + 1e-12, pr.p_budget + 1e-12

    tables = [_w_table(pr, rows, w) for w in range(n_w)]
    rest = (np.zeros(1, dtype=np.int64), np.zeros(1), np.zeros((1, n_h)), np.zeros(1))
    for table in tables[1:]:
        rest = tuple((a[:, None] + b[None]).reshape((-1,) + a.shape[1:])
                     for a, b in zip(rest, table))
    top, kept, kept_rate = math.inf, np.zeros(0, dtype=np.int64), np.zeros(0)
    step = max(1, _GRID_CHUNK // rest[0].size)
    for s in range(0, tables[0][0].size, step):
        place, dist, m, rate = ((a[s:s + step, None] + b[None]).reshape((-1,) + a.shape[1:])
                                for a, b in zip(tables[0], rest))
        perc = _grid_perception(pr, m) if math.isfinite(pr.p_budget) else np.zeros(rate.size)
        sure = (dist <= d_cap - _GRID_SLACK) & (perc <= p_cap - _GRID_SLACK)
        top = min(top, float(rate[sure].min(initial=math.inf)))
        near = ((dist <= d_cap + _GRID_SLACK) & (perc <= p_cap + _GRID_SLACK)
                & (rate <= top + _GRID_SLACK))
        old = kept_rate <= top + _GRID_SLACK
        kept, kept_rate = (np.concatenate([kept[old], place[near]]),
                           np.concatenate([kept_rate[old], rate[near]]))

    best_rate = math.inf
    best_q = None
    kept = np.sort(kept)
    chunk = kept // _GRID_CHUNK
    for c in np.unique(chunk):
        idx = kept[chunk == c]
        # decode per-row grid indices (mixed radix, row 0 most significant)
        q = np.empty((idx.size, n_rows, n_h))
        rem = idx.copy()
        for row in range(n_rows - 1, -1, -1):
            q[:, row, :] = rows[rem % n_rowpts]
            rem //= n_rowpts
        q = q.reshape(idx.size, n_x, n_w, n_h)
        dist, m, rate = _grid_scores(pr.q_xw, pr.delta, q)
        perc = _grid_perception(pr, m)
        feasible = (dist <= d_cap) & (perc <= p_cap)
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


def stress_summary(seeds, count: int) -> tuple[int, int, str]:
    """(converged, raised, SHA-256 hex digest) over the first ``count``
    stress queries at each seed in turn. The digest takes each result's
    rate, gap, ``converged``, iterations, lambda, achieved distortion and
    perception as reprs, then its channel's bytes, or the message of the
    InfeasibleError it raised: it shows a solver change to be byte-identical
    or not, and the counts how many queries it closes."""
    digest, converged, raised = hashlib.sha256(), 0, 0
    for seed in seeds:
        for query in rdp_stress_queries(seed, count):
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
    return converged, raised, digest.hexdigest()


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


def sample_uniform_cond_typical_uncached(joint_q: np.ndarray, delta: float,
                                         cond_seq: np.ndarray, count: int,
                                         rng: np.random.Generator | int) -> np.ndarray:
    """The conditional sampler as it stood before its band and type tables
    were cached: each call computes the count bounds, enumerates every
    stratum's types, builds its table and repeats each drawn type's base
    row. The library's sampler must draw the same bytes from the same
    stream, and raise the same errors."""
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    cond = np.asarray(cond_seq).astype(np.int64)
    jq = np.asarray(joint_q, dtype=np.float64)
    ka, kb = jq.shape
    n = cond.shape[0]
    lo, hi = count_bounds(jq, n, delta)
    if np.any(lo > hi):
        a, b = (int(i) for i in np.argwhere(lo > hi)[0])
        raise EmptyTypicalSetError(
            f"cell (a={a}, b={b}): no integer count in [{n * jq[a, b] * (1 - delta):.3f}, "
            f"{n * jq[a, b] * (1 + delta):.3f}] (q={jq[a, b]:.6g}, n={n}, delta={delta})")
    out = np.empty((count, n), dtype=SYMBOL_DTYPE)
    for b in range(kb):
        positions = np.where(cond == b)[0]
        n_b = positions.size
        if n_b == 0:
            if np.any(lo[:, b] > 0):
                a = int(np.argmax(lo[:, b] > 0))
                raise EmptyTypicalSetError(
                    f"cell (a={a}, b={b}) requires at least {lo[a, b]} occurrences "
                    f"but the conditioning sequence never takes symbol {b}")
            continue
        types = _compositions(lo[:, b], hi[:, b], n_b)
        if not types:
            raise EmptyTypicalSetError(
                f"conditioning symbol {b} occurs {n_b} times but no column type fits "
                f"(lo={lo[:, b].tolist()}, hi={hi[:, b].tolist()})")
        table = TypeTable(types, n_b)
        idx = table.draw_indices(rng, count)
        for t in np.unique(idx):
            members = np.where(idx == t)[0]
            base = np.repeat(np.arange(ka, dtype=SYMBOL_DTYPE), table.types[t])
            tiled = np.broadcast_to(base, (members.size, base.shape[0]))
            order = np.argsort(rng.random((members.size, base.shape[0])), axis=1)
            out[np.ix_(members, positions)] = np.take_along_axis(tiled, order, axis=1)
    return out


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
    threshold, scoring one codeword at a time; -1 if none. The distortion
    is sum_v v * K_v / n over the distinct nonzero values v of delta_mat in
    ascending order, K_v the number of positions at distortion v."""
    ref = np.asarray(ref, dtype=np.int64)
    delta_mat = np.asarray(delta_mat, dtype=np.float64)
    levels = sorted(set(delta_mat[delta_mat != 0].tolist()))
    for i, cw in enumerate(codewords):
        d = delta_mat[ref, cw.astype(np.int64)]
        score = 0.0
        for v in levels:
            score += v * int(np.count_nonzero(d == v))
        if score / len(ref) <= threshold:
            return i
    return -1


def first_jointly_typical_loop(codewords: np.ndarray, pairs: np.ndarray,
                               lo: np.ndarray, hi: np.ndarray) -> int:
    """Smallest index whose joint (pair cell, w) counts with ``pairs``, one
    pair cell per position, lie in [lo, hi] (axes: cell, w), counting one
    codeword at a time by ``bincount``; -1 if none."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    cells, kw = lo.shape
    pairs = np.asarray(pairs, dtype=np.int64)
    for i, w in enumerate(codewords):
        counts = np.bincount(pairs * kw + np.asarray(w, dtype=np.int64),
                             minlength=cells * kw).reshape(cells, kw)
        if np.all((counts >= lo) & (counts <= hi)):
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


def level_order_assignment(p_flat: np.ndarray, n0: int, n: int) -> np.ndarray:
    """The level seed map by one stable sort: each atom's level is the
    sorted row of its symbols' probability classes (levels in
    lexicographic order), found by appending symbols to prefixes; levels
    are poured by descending probability (ties by level index) with
    ``gwrdp.derandom._pour``; and the atoms of a level, in index order,
    take the level's bins in order, scattered through a stable argsort of
    the atoms' levels."""
    flat = np.asarray(p_flat, dtype=np.float64).reshape(-1)
    values, symbols = np.unique(flat, return_inverse=True)
    levels, key = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(n0 if flat.size > 1 else 1):
        grown = np.column_stack([np.repeat(levels, flat.size, axis=0),
                                 np.tile(symbols, len(levels))])
        levels, table = np.unique(np.sort(grown, axis=1), axis=0, return_inverse=True)
        key = table.reshape(-1, flat.size)[key].reshape(-1)   # atom prefix * |pair| + last
    sizes = np.bincount(key, minlength=len(levels))
    probs = values[levels].prod(axis=1)
    counts = np.zeros((len(levels), n), dtype=np.int64)
    masses = np.zeros(n)
    for level in np.argsort(-probs, kind="stable"):
        counts[level] = _pour(masses, sizes[level], probs[level])
        masses += counts[level] * probs[level]
    assignment = np.empty(key.size, dtype=np.int64)
    assignment[np.argsort(key, kind="stable")] = np.repeat(np.tile(np.arange(n), len(levels)),
                                                           counts.reshape(-1))
    return assignment


def greedy_pour_counts(masses: np.ndarray, k: int, p: float) -> np.ndarray:
    """Per-bin counts of k atoms of probability p, each popped into the
    lightest of the bins with the given masses (ties by bin index) and
    pushed back."""
    heap = [(float(m), b) for b, m in enumerate(masses)]
    heapq.heapify(heap)
    counts = np.zeros(len(heap), dtype=np.int64)
    for _ in range(k):
        mass, b = heapq.heappop(heap)
        counts[b] += 1
        heapq.heappush(heap, (mass + p, b))
    return counts


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
