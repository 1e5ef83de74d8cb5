"""Independent oracles used by the test suite.

Kept deliberately separate from the library: a textbook alternating-
minimization rate-distortion solver (no perception, no conditioning) with
multiplier bisection, plus closed-form helpers. These validate the main
solver through a different code path. The codec's encoder scans and the
greedy seed map are checked against plain one-item-at-a-time loops kept
here.
"""

from __future__ import annotations

import heapq
import math

import numpy as np


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
    ed = None
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
    """Classical R(D) via bisection over the distortion multiplier."""
    p_x = np.asarray(p_x, dtype=np.float64)
    d = np.asarray(delta, dtype=np.float64)
    d_min = float((p_x * d.min(axis=1)).sum())
    if d_budget < d_min:
        raise ValueError("infeasible budget")
    rate0, ed0, _ = ba_rate_at_multiplier(p_x, d, 0.0)
    if ed0 <= d_budget:
        return 0.0
    lo, hi = 0.0, 1.0
    rate_hi, ed_hi, _ = ba_rate_at_multiplier(p_x, d, hi)
    while ed_hi > d_budget and hi < 1e9:
        lo, hi = hi, hi * 4.0
        rate_hi, ed_hi, _ = ba_rate_at_multiplier(p_x, d, hi)
    rate_lo, ed_lo, _ = ba_rate_at_multiplier(p_x, d, lo)
    for _ in range(200):
        bound = max(0.0, rate_lo + lo * (ed_lo - d_budget))
        if rate_hi - bound <= tol:
            break
        mid = 0.5 * (lo + hi)
        rate_m, ed_m, _ = ba_rate_at_multiplier(p_x, d, mid)
        if ed_m > d_budget:
            lo, rate_lo, ed_lo = mid, rate_m, ed_m
        else:
            hi, rate_hi, ed_hi = mid, rate_m, ed_m
    return rate_hi


def conditional_rd_function(q_xw: np.ndarray, delta: np.ndarray,
                            d_budget: float, tol: float = 1e-8) -> float:
    """Conditional rate-distortion without perception: a per-branch
    multiplier must be shared across W, so run the joint problem by
    bisection with per-w classical updates."""
    q_xw = np.asarray(q_xw, dtype=np.float64)
    q_w = q_xw.sum(axis=0)
    live = q_w > 0
    cond = [q_xw[:, w] / q_w[w] for w in range(q_xw.shape[1]) if live[w]]
    weights = q_w[live]

    def at(beta):
        rates, dists = [], []
        for p in cond:
            r, e, _ = ba_rate_at_multiplier(p, delta, beta)
            rates.append(r)
            dists.append(e)
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


def first_under_threshold_loop(codewords: np.ndarray, ref: np.ndarray,
                               delta_mat: np.ndarray, threshold: float) -> int:
    """Smallest index whose per-letter distortion against ref is at most
    threshold, checking one codeword at a time; -1 if none."""
    ref = np.asarray(ref, dtype=np.int64)
    for i, cw in enumerate(codewords):
        if delta_mat[ref, cw.astype(np.int64)].mean() <= threshold:
            return i
    return -1


def encode_loop(codebook, x_seq, y_seq, k: int, delta_x, delta_y,
                threshold_x: float, threshold_y: float):
    """Three-stage encoder, one codeword at a time. Joint typicality is the
    multiplicative band predicate on the (x, y, w) counts. Returns
    (s0, s1, s2, miss_common, miss_x, miss_y) with the same fallbacks as
    the library: index 0 and a flag."""
    n = codebook.n
    xb = np.roll(np.asarray(x_seq, dtype=np.int64), k)   # undo the shift by k
    yb = np.roll(np.asarray(y_seq, dtype=np.int64), k)
    q = np.asarray(codebook.q_xyw, dtype=np.float64)
    kx, ky, kw = q.shape
    s0 = -1
    for i, w in enumerate(codebook.common):
        cells = (xb * ky + yb) * kw + w.astype(np.int64)
        counts = np.bincount(cells, minlength=kx * ky * kw).reshape(q.shape)
        if np.all(np.abs(counts / n - q) <= codebook.delta * q):
            s0 = i
            break
    miss_common = s0 < 0
    s0 = max(s0, 0)
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
