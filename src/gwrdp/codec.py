"""Typical-set codec: circular shifts, multiplicative typicality, exactly
uniform sampling from (conditional) typical sets, three-layer codebooks,
and the lookup encoders/decoders built on them.

Typicality is multiplicative (robust): a sequence is delta-typical for q
when every symbol count c satisfies |c/n - q(a)| <= delta * q(a); symbols
with q(a) = 0 therefore may not occur at all. Conditional sets apply the
same band to joint counts against the joint distribution, with the
conditioning sequence fixed.

Sampling is exactly uniform: integer type vectors inside the band are
enumerated, weighted by their exact (big-integer) multinomial class
sizes, one is drawn by exact inverse CDF, and a uniformly random
arrangement of its symbol multiset is emitted. The inverse CDF runs on
int64 (unbiased bounded integers and a sorted search) when the total
class size fits, and on big integers otherwise. A plain rejection sampler
is available as a cross-check.

The encoder scans codewords in blocks that grow geometrically, so an
early hit costs a few codewords and a long scan stays vectorized: one
``bincount`` per block for the common layer, one distortion lookup per
block for the private layers.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .prob import JointPmf, Kernel, _entropy_bits

SYMBOL_DTYPE = np.uint8


class EmptyTypicalSetError(ValueError):
    """The requested (q, delta, n) admits no sequence."""


class AlphabetError(ValueError):
    """Sequence symbols do not fit the declared alphabet."""


# ---------------------------------------------------------------------------
# circular shifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftSeed:
    """Shared shift seed k for blocklength n."""

    k: int
    n: int

    def __post_init__(self):
        if self.n < 1 or not (0 <= self.k <= self.n - 1):
            raise ValueError(f"shift seed {self.k} outside [0, {self.n - 1}]")


def shift_position(n: int, k: int, t: int) -> int:
    """Position map of the circular shift: ((t + k - 1) mod n) + 1.

    Positions t are 1-based; k is in [0, n-1].
    """
    if not 1 <= t <= n:
        raise ValueError(f"position {t} outside [1, {n}]")
    if not 0 <= k <= n - 1:
        raise ValueError(f"shift {k} outside [0, {n - 1}]")
    return ((t + k - 1) % n) + 1


def circular_shift(k: int, seq: np.ndarray, other: np.ndarray | None = None):
    """Apply the shift: output position t holds input position
    shift_position(n, k, t). Negative k means shifting by (n - k) mod n.
    A second sequence of equal length is shifted identically."""
    seq = np.asarray(seq)
    n = seq.shape[0]
    if n == 0:
        raise ValueError("empty sequence")
    kk = k % n
    out = np.roll(seq, -kk)
    if other is None:
        return out
    other = np.asarray(other)
    if other.shape[0] != n:
        raise ValueError("paired sequences must have equal length")
    return out, np.roll(other, -kk)


# ---------------------------------------------------------------------------
# multiplicative typicality
# ---------------------------------------------------------------------------


def _cells_ok(counts: np.ndarray, n: int, q: np.ndarray, delta: float) -> bool:
    return bool(np.all(np.abs(counts / n - q) <= delta * q))


@dataclass(frozen=True)
class TypicalSetSpec:
    """Reference pmf with band width delta at blocklength n."""

    q: np.ndarray
    delta: float
    n: int

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        object.__setattr__(self, "q", np.asarray(self.q, dtype=np.float64))


def is_typical(seq: np.ndarray, spec: TypicalSetSpec) -> bool:
    """Multiplicative typicality of a sequence against a pmf."""
    seq = np.asarray(seq)
    q = spec.q.reshape(-1)
    if seq.shape[0] != spec.n:
        raise AlphabetError(f"sequence length {seq.shape[0]} != n {spec.n}")
    if seq.min(initial=0) < 0 or seq.max(initial=0) >= q.shape[0]:
        raise AlphabetError("symbol outside alphabet")
    counts = np.bincount(seq.astype(np.int64), minlength=q.shape[0])
    return _cells_ok(counts, spec.n, q, spec.delta)


def is_cond_typical(seq: np.ndarray, cond_seq: np.ndarray, joint_q: np.ndarray,
                    delta: float) -> bool:
    """Conditional typicality: joint counts of (seq, cond_seq) inside the
    multiplicative band around joint_q (axes: sequence symbol, conditioning
    symbol)."""
    seq = np.asarray(seq).astype(np.int64)
    cond = np.asarray(cond_seq).astype(np.int64)
    if seq.shape[0] != cond.shape[0]:
        raise AlphabetError("sequences must have equal length")
    jq = np.asarray(joint_q, dtype=np.float64)
    ka, kb = jq.shape
    if seq.min() < 0 or seq.max() >= ka or cond.min() < 0 or cond.max() >= kb:
        raise AlphabetError("symbol outside alphabet")
    n = seq.shape[0]
    counts = np.bincount(seq * kb + cond, minlength=ka * kb).reshape(ka, kb)
    return _cells_ok(counts, n, jq, delta)


def is_jointly_typical(x_seq, y_seq, w_seq, q_xyw: np.ndarray, delta: float) -> bool:
    """Triple typicality: the (x, y, w) joint type inside the band."""
    x = np.asarray(x_seq).astype(np.int64)
    y = np.asarray(y_seq).astype(np.int64)
    w = np.asarray(w_seq).astype(np.int64)
    if not (x.shape[0] == y.shape[0] == w.shape[0]):
        raise AlphabetError("sequences must have equal length")
    q = np.asarray(q_xyw, dtype=np.float64)
    kx, ky, kw = q.shape
    for arr, k in ((x, kx), (y, ky), (w, kw)):
        if arr.min() < 0 or arr.max() >= k:
            raise AlphabetError("symbol outside alphabet")
    n = x.shape[0]
    counts = np.bincount((x * ky + y) * kw + w, minlength=kx * ky * kw)
    return _cells_ok(counts.reshape(kx, ky, kw), n, q, delta)


def count_bounds(q: np.ndarray, n: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell integer count ranges [lo, hi] equivalent to the
    multiplicative band, boundary-exact against the same float predicate
    the typicality checks use."""
    flat = np.asarray(q, dtype=np.float64).reshape(-1)
    lo = np.maximum(np.ceil(n * flat * (1 - delta) - 1e-9), 0).astype(np.int64)
    hi = np.minimum(np.floor(n * flat * (1 + delta) + 1e-9), n).astype(np.int64)
    for i, qi in enumerate(flat):
        def ok(c):
            return abs(c / n - qi) <= delta * qi
        while lo[i] <= hi[i] and not ok(lo[i]):
            lo[i] += 1
        while lo[i] - 1 >= 0 and ok(lo[i] - 1):
            lo[i] -= 1
        while hi[i] >= lo[i] and not ok(hi[i]):
            hi[i] -= 1
        while hi[i] + 1 <= n and ok(hi[i] + 1):
            hi[i] += 1
    return lo.reshape(np.shape(q)), hi.reshape(np.shape(q))


# ---------------------------------------------------------------------------
# exact type-class sampling
# ---------------------------------------------------------------------------


def _compositions(lo: np.ndarray, hi: np.ndarray, total: int) -> list[tuple[int, ...]]:
    """All integer vectors c with lo <= c <= hi and sum(c) == total."""
    k = len(lo)
    suffix_lo = np.concatenate([np.cumsum(lo[::-1])[::-1], [0]])
    suffix_hi = np.concatenate([np.cumsum(hi[::-1])[::-1], [0]])
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == k:
            if remaining == 0:
                out.append(prefix)
            return
        lo_i = max(int(lo[i]), remaining - int(suffix_hi[i + 1]))
        hi_i = min(int(hi[i]), remaining - int(suffix_lo[i + 1]))
        for c in range(lo_i, hi_i + 1):
            rec(i + 1, remaining - c, prefix + (c,))

    rec(0, total, ())
    return out


def _multinomial_exact(total: int, counts) -> int:
    num = math.factorial(total)
    for c in counts:
        num //= math.factorial(int(c))
    return num


class TypeTable:
    """Enumerated type vectors of a typical set with exact class sizes."""

    def __init__(self, types: list[tuple[int, ...]], total_positions: int):
        if not types:
            raise EmptyTypicalSetError("no integer type fits the band")
        self.types = types
        self.weights = [_multinomial_exact(total_positions, t) for t in types]
        self.cum = []
        acc = 0
        for w in self.weights:
            acc += w
            self.cum.append(acc)
        self.total = acc
        self.n = total_positions

    def draw_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Exact inverse-CDF draws: unbiased int64 uniforms and a sorted
        search when the total fits in int64, big integers otherwise."""
        if self.total < 2**63:
            u = rng.integers(0, self.total, size=count)
            # the indices go back into the draws' buffer: returning a fresh
            # array raised peak memory by 4.5 MB at 1.1 M draws
            u[:] = np.searchsorted(np.asarray(self.cum, dtype=np.int64), u, side="right")
            return u
        py_rng = random.Random(int(rng.integers(0, 2**63 - 1)))
        bits = self.total.bit_length()
        out = np.empty(count, dtype=np.int64)
        for i in range(count):
            while True:
                u = py_rng.getrandbits(bits)
                if u < self.total:
                    break
            out[i] = bisect.bisect_right(self.cum, u)
        return out


def _type_table(q: np.ndarray, n: int, delta: float, total: int | None = None) -> TypeTable:
    lo, hi = count_bounds(q, n, delta)
    lo_f, hi_f = lo.reshape(-1), hi.reshape(-1)
    if np.any(lo_f > hi_f):
        bad = int(np.argmax(lo_f > hi_f))
        raise EmptyTypicalSetError(
            f"cell {bad}: no integer count in [{n * q.reshape(-1)[bad] * (1 - delta):.3f}, "
            f"{n * q.reshape(-1)[bad] * (1 + delta):.3f}] (q={q.reshape(-1)[bad]:.6g}, "
            f"n={n}, delta={delta})")
    tot = n if total is None else total
    types = _compositions(lo_f, hi_f, tot)
    if not types:
        raise EmptyTypicalSetError(
            f"count boxes admit no composition summing to {tot} "
            f"(lo={lo_f.tolist()}, hi={hi_f.tolist()})")
    return TypeTable(types, tot)


def _permuted_rows(rng: np.random.Generator, base: np.ndarray, rows: int) -> np.ndarray:
    """Independently random permutations of one multiset row."""
    tiled = np.broadcast_to(base, (rows, base.shape[0]))
    order = np.argsort(rng.random((rows, base.shape[0])), axis=1)
    return np.take_along_axis(tiled, order, axis=1)


def sample_uniform_typical(spec: TypicalSetSpec, count: int,
                           rng: np.random.Generator | int) -> np.ndarray:
    """Exactly uniform draws from the typical set; shape (count, n)."""
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    q = spec.q.reshape(-1)
    table = _type_table(q, spec.n, spec.delta)
    idx = table.draw_indices(rng, count)
    out = np.empty((count, spec.n), dtype=SYMBOL_DTYPE)
    for t in np.unique(idx):
        members = np.where(idx == t)[0]
        base = np.repeat(np.arange(q.shape[0], dtype=SYMBOL_DTYPE), table.types[t])
        out[members] = _permuted_rows(rng, base, members.size)
    return out


def sample_uniform_cond_typical(joint_q: np.ndarray, delta: float,
                                cond_seq: np.ndarray, count: int,
                                rng: np.random.Generator | int) -> np.ndarray:
    """Exactly uniform draws from the conditional typical set given
    ``cond_seq``; the joint counts with the conditioning sequence land in
    the band around ``joint_q`` (axes: output symbol, conditioning symbol).
    Positions are stratified by conditioning symbol, with one independent
    type draw and arrangement per stratum."""
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    cond = np.asarray(cond_seq).astype(np.int64)
    jq = np.asarray(joint_q, dtype=np.float64)
    ka, kb = jq.shape
    n = cond.shape[0]
    out = np.empty((count, n), dtype=SYMBOL_DTYPE)
    lo, hi = count_bounds(jq, n, delta)
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
            out[np.ix_(members, positions)] = _permuted_rows(rng, base, members.size)
    return out


def rejection_sample_typical(spec: TypicalSetSpec, count: int,
                             rng: np.random.Generator | int,
                             max_tries: int = 1_000_000) -> np.ndarray:
    """Cross-check sampler: draw i.i.d. q^n and keep typical sequences."""
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    q = spec.q.reshape(-1)
    out = np.empty((count, spec.n), dtype=SYMBOL_DTYPE)
    got = 0
    for _ in range(max_tries):
        seq = rng.choice(q.shape[0], size=spec.n, p=q).astype(SYMBOL_DTYPE)
        if is_typical(seq, spec):
            out[got] = seq
            got += 1
            if got == count:
                return out
    raise EmptyTypicalSetError(f"rejection sampler failed after {max_tries} tries")


# ---------------------------------------------------------------------------
# code sizes and codebooks
# ---------------------------------------------------------------------------


def _exp2_floor(v: float) -> int:
    """floor(2**v) as an exact integer for any nonnegative v."""
    if v < 63:
        return int(math.floor(2.0 ** v))
    iv = int(math.floor(v))
    frac = v - iv
    scaled = int(math.floor((2.0 ** frac) * (1 << 53)))
    return scaled << (iv - 53)


@dataclass(frozen=True)
class CodeSizes:
    """Codeword counts and the band-derived slack terms behind them."""

    m0: int
    m1: int
    m2: int
    slack_w: float   # delta * (H(W) + H(W|XY))
    slack_x: float   # delta * (H(Xtilde|W) + 1)
    slack_y: float   # delta * (H(Ytilde|W) + 1)
    i_pair_w: float  # I(X,Y;W)
    i_x: float       # I(X;Xtilde|W)
    i_y: float       # I(Y;Ytilde|W)
    n: int
    delta: float

    def recompute(self) -> tuple[int, int, int]:
        m0 = _exp2_floor(self.n * (self.i_pair_w + 2 * self.slack_w))
        m1 = _exp2_floor(self.n * (self.i_x + 2 * self.slack_x))
        m2 = _exp2_floor(self.n * (self.i_y + 2 * self.slack_y))
        return m0, m1, m2


def _chain_joints(q_xyw: JointPmf, tc_x: Kernel, tc_y: Kernel):
    """Joint arrays induced by source x auxiliary x test channels."""
    p = np.asarray(q_xyw.probs)          # (X, Y, W)
    q_xw = p.sum(axis=1)                 # (X, W)
    q_yw = p.sum(axis=0)                 # (Y, W)
    j_xw_xt = q_xw[:, :, None] * tc_x.probs   # (X, W, Xt)
    j_yw_yt = q_yw[:, :, None] * tc_y.probs   # (Y, W, Yt)
    return p, j_xw_xt, j_yw_yt


def compute_code_sizes(q_xyw: JointPmf, tc_x: Kernel, tc_y: Kernel,
                       n: int, delta: float) -> CodeSizes:
    """Codeword counts from the information quantities of the induced
    joint, with band-derived slacks (all in bits):

        m0 = floor(2^(n (I(X,Y;W)   + 2 delta (H(W) + H(W|XY)))))
        m1 = floor(2^(n (I(X;Xt|W)  + 2 delta (H(Xt|W) + 1))))
        m2 = floor(2^(n (I(Y;Yt|W)  + 2 delta (H(Yt|W) + 1))))
    """
    p, j_xw_xt, j_yw_yt = _chain_joints(q_xyw, tc_x, tc_y)
    h_w = _entropy_bits(p.sum(axis=(0, 1)))
    h_xyw = _entropy_bits(p)
    h_xy = _entropy_bits(p.sum(axis=2))
    h_w_given_xy = h_xyw - h_xy
    i_pair_w = h_w + h_xy - h_xyw

    def branch(joint):  # (S, W, T): I(S;T|W) and H(T|W)
        h_sw = _entropy_bits(joint.sum(axis=2))
        h_tw = _entropy_bits(joint.sum(axis=0))
        h_stw = _entropy_bits(joint)
        h_w_ = _entropy_bits(joint.sum(axis=(0, 2)))
        return h_sw + h_tw - h_stw - h_w_, h_tw - h_w_

    i_x, h_xt_w = branch(j_xw_xt)
    i_y, h_yt_w = branch(j_yw_yt)
    slack_w = delta * (h_w + h_w_given_xy)
    slack_x = delta * (h_xt_w + 1.0)
    slack_y = delta * (h_yt_w + 1.0)
    sizes = CodeSizes(m0=_exp2_floor(n * (i_pair_w + 2 * slack_w)),
                      m1=_exp2_floor(n * (i_x + 2 * slack_x)),
                      m2=_exp2_floor(n * (i_y + 2 * slack_y)),
                      slack_w=slack_w, slack_x=slack_x, slack_y=slack_y,
                      i_pair_w=i_pair_w, i_x=i_x, i_y=i_y, n=n, delta=delta)
    return sizes


@dataclass(frozen=True, eq=False)
class Codebook:
    """Three-layer codebook: common codewords plus per-index private
    codewords for each branch, all drawn uniformly from their
    (conditional) typical sets."""

    common: np.ndarray          # (M0, n) over the W alphabet
    priv_x: np.ndarray          # (M0, M1, n)
    priv_y: np.ndarray          # (M0, M2, n)
    q_xyw: np.ndarray           # reference joint for encoder typicality
    joint_xt_w: np.ndarray      # (Xt, W) band reference for x codewords
    joint_yt_w: np.ndarray      # (Yt, W)
    n: int
    delta: float
    seed: int

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.common.shape[0], self.priv_x.shape[1], self.priv_y.shape[1])

    @property
    def total_symbols(self) -> int:
        return self.common.size + self.priv_x.size + self.priv_y.size

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "delta": self.delta, "seed": self.seed,
            "common": self.common.tolist(),
            "priv_x": self.priv_x.tolist(),
            "priv_y": self.priv_y.tolist(),
            "q_xyw": self.q_xyw.tolist(),
            "joint_xt_w": self.joint_xt_w.tolist(),
            "joint_yt_w": self.joint_yt_w.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "Codebook":
        o = json.loads(text)
        return cls(common=np.asarray(o["common"], dtype=SYMBOL_DTYPE),
                   priv_x=np.asarray(o["priv_x"], dtype=SYMBOL_DTYPE),
                   priv_y=np.asarray(o["priv_y"], dtype=SYMBOL_DTYPE),
                   q_xyw=np.asarray(o["q_xyw"], dtype=np.float64),
                   joint_xt_w=np.asarray(o["joint_xt_w"], dtype=np.float64),
                   joint_yt_w=np.asarray(o["joint_yt_w"], dtype=np.float64),
                   n=o["n"], delta=o["delta"], seed=o["seed"])


def generate_codebook(q_xyw: JointPmf, tc_x: Kernel, tc_y: Kernel,
                      sizes: CodeSizes, delta: float, n: int, seed: int) -> Codebook:
    """Draw the three codeword layers; bit-identical for a fixed seed."""
    limit = np.iinfo(SYMBOL_DTYPE).max + 1
    for name, size in (("W", q_xyw.shape[2]), ("X reconstruction", tc_x.out_size),
                       ("Y reconstruction", tc_y.out_size)):
        if size > limit:
            raise AlphabetError(f"{name} alphabet has {size} symbols; codewords hold at "
                                f"most {limit}")
    p, j_xw_xt, j_yw_yt = _chain_joints(q_xyw, tc_x, tc_y)
    q_w = p.sum(axis=(0, 1))
    joint_xt_w = j_xw_xt.sum(axis=0).T   # (Xt, W)
    joint_yt_w = j_yw_yt.sum(axis=0).T   # (Yt, W)

    root = np.random.SeedSequence(entropy=seed)
    ss_w, ss_x, ss_y = root.spawn(3)
    rng_w = np.random.Generator(np.random.Philox(ss_w))
    common = sample_uniform_typical(TypicalSetSpec(q_w, delta, n), sizes.m0, rng_w)

    m0, m1, m2 = sizes.m0, sizes.m1, sizes.m2
    priv_x = np.empty((m0, m1, n), dtype=SYMBOL_DTYPE)
    priv_y = np.empty((m0, m2, n), dtype=SYMBOL_DTYPE)
    x_streams = ss_x.spawn(m0)
    y_streams = ss_y.spawn(m0)
    for i in range(m0):
        rng_x = np.random.Generator(np.random.Philox(x_streams[i]))
        priv_x[i] = sample_uniform_cond_typical(joint_xt_w, delta, common[i], m1, rng_x)
        rng_y = np.random.Generator(np.random.Philox(y_streams[i]))
        priv_y[i] = sample_uniform_cond_typical(joint_yt_w, delta, common[i], m2, rng_y)
    return Codebook(common=common, priv_x=priv_x, priv_y=priv_y,
                    q_xyw=np.asarray(q_xyw.probs), joint_xt_w=joint_xt_w,
                    joint_yt_w=joint_yt_w, n=n, delta=delta, seed=seed)


# ---------------------------------------------------------------------------
# encoders / decoders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodeResult:
    s0: int
    s1: int
    s2: int
    miss_common: bool   # no jointly typical common codeword
    miss_x: bool        # no private x codeword under the threshold
    miss_y: bool


def _blocks(m: int, first: int):
    """(start, stop) spans covering [0, m): sizes first, 4*first, ...,
    capped at 4096 rows."""
    start, size = 0, first
    while start < m:
        yield start, min(start + size, m)
        start += size
        size = min(4 * size, 4096)


def _first_under_threshold(codewords: np.ndarray, ref: np.ndarray,
                           delta_mat: np.ndarray, threshold: float) -> int:
    """Smallest codeword index with per-letter distortion <= threshold,
    or -1. Blocks of 16, 64, 256, 1024 and then 4096 codewords, so an
    early hit decodes few of them."""
    for start, stop in _blocks(codewords.shape[0], 16):
        d = delta_mat[ref[None, :], codewords[start:stop]].mean(axis=1)
        hits = np.flatnonzero(d <= threshold)
        if hits.size:
            return start + int(hits[0])
    return -1


def _first_jointly_typical(common: np.ndarray, pair: np.ndarray,
                           lo: np.ndarray, hi: np.ndarray) -> int:
    """Smallest common index whose codeword's joint counts with the
    source pair (``pair`` holds the pair's cell offsets) lie in [lo, hi],
    or -1. Blocks of 64, 256, 1024 and then 4096 codewords, counted by one
    ``bincount`` each over row-offset cell indices."""
    cells = lo.shape[0]
    for start, stop in _blocks(common.shape[0], 64):
        rows = stop - start
        idx = pair + common[start:stop] + (np.arange(rows) * cells)[:, None]
        counts = np.bincount(idx.ravel(), minlength=rows * cells).reshape(rows, cells)
        hits = np.flatnonzero(((counts >= lo) & (counts <= hi)).all(axis=1))
        if hits.size:
            return start + int(hits[0])
    return -1


def encode(codebook: Codebook, x_seq: np.ndarray, y_seq: np.ndarray, k: int,
           delta_x: np.ndarray, delta_y: np.ndarray,
           threshold_x: float, threshold_y: float) -> EncodeResult:
    """Three-stage encoding of one source pair under shift seed k.

    The sources are unshifted first; the common index is the smallest one
    whose codeword is jointly typical with them (falling back to 0 with a
    flag, without a scan when the joint band admits no count vector), then
    each private index is the smallest one meeting its per-letter
    distortion threshold (same fallback).
    """
    n = codebook.n
    x = np.asarray(x_seq)
    y = np.asarray(y_seq)
    if x.shape[0] != n or y.shape[0] != n:
        raise ValueError(f"sequences must have length n={n}")
    xb, yb = circular_shift(-k, x, y)
    xb = xb.astype(np.int64)
    yb = yb.astype(np.int64)

    _, ky, kw = codebook.q_xyw.shape
    lo, hi, empty = _cached_bounds(codebook.q_xyw.tobytes(), codebook.q_xyw.shape, n,
                                   codebook.delta)
    s0 = -1 if empty else _first_jointly_typical(codebook.common, (xb * ky + yb) * kw, lo, hi)
    miss_common = s0 < 0
    if miss_common:
        s0 = 0

    s1 = _first_under_threshold(codebook.priv_x[s0], xb, np.asarray(delta_x), threshold_x)
    s2 = _first_under_threshold(codebook.priv_y[s0], yb, np.asarray(delta_y), threshold_y)
    return EncodeResult(s0=s0, s1=max(s1, 0), s2=max(s2, 0),
                        miss_common=miss_common, miss_x=s1 < 0, miss_y=s2 < 0)


def joint_set_empty(q_xyw: np.ndarray, n: int, delta: float) -> bool:
    """True when the (x, y, w) joint band at blocklength n admits no count
    vector, so no common codeword can ever be jointly typical."""
    q = np.asarray(q_xyw, dtype=np.float64)
    return _cached_bounds(q.tobytes(), q.shape, n, delta)[2]


@lru_cache(maxsize=64)
def _cached_bounds(q_bytes: bytes, shape: tuple, n: int, delta: float):
    """Flat per-cell count bounds of the band, and whether no count vector
    summing to n fits them."""
    q = np.frombuffer(q_bytes, dtype=np.float64).reshape(shape)
    lo, hi = count_bounds(q, n, delta)
    lo, hi = lo.reshape(-1), hi.reshape(-1)
    empty = bool(np.any(lo > hi) or lo.sum() > n or hi.sum() < n)
    return lo, hi, empty


def decode(codebook: Codebook, s0: int, s1: int, s2: int, k: int):
    """Reconstruct both branches: shift the selected codewords back by k."""
    m0, m1, m2 = codebook.sizes
    if not (0 <= s0 < m0 and 0 <= s1 < m1 and 0 <= s2 < m2):
        raise IndexError(f"indices ({s0}, {s1}, {s2}) outside codebook sizes {codebook.sizes}")
    x_hat = circular_shift(k, codebook.priv_x[s0, s1])
    y_hat = circular_shift(k, codebook.priv_y[s0, s2])
    return x_hat, y_hat


def per_letter_distortion(delta_mat: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Average of delta over aligned positions."""
    a = np.asarray(a).astype(np.int64)
    b = np.asarray(b).astype(np.int64)
    if a.shape != b.shape:
        raise ValueError("sequences must have equal length")
    return float(np.asarray(delta_mat)[a, b].mean())
