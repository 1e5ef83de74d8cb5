"""Typical-set codec: circular shifts, multiplicative typicality, exactly
uniform sampling from (conditional) typical sets, three-layer codebooks,
and the lookup encoders/decoders built on them.

Typicality is multiplicative (robust): a sequence is delta-typical for q
when every symbol count c satisfies |c/n - q(a)| <= delta * q(a); symbols
with q(a) = 0 therefore may not occur at all. Conditional sets apply the
same band to joint counts against the joint distribution, with the
conditioning sequence fixed. One float test, ``_in_band``, decides the
band: ``count_bounds`` turns it into per-cell integer count ranges, and
the sampler and the encoder work from those ranges.

Sampling is exactly uniform: integer type vectors inside the band are
enumerated, weighted by their exact (big-integer) multinomial class
sizes, one is drawn by exact inverse CDF, and a uniformly random
arrangement of its symbol multiset is emitted. The inverse CDF runs on
int64 (unbiased bounded integers and a sorted search) when the total
class size fits, and on big integers otherwise. The sampler is
conditional and does this once per conditioning symbol; an unconditional
draw is its one-stratum case, a constant conditioning sequence. The band
and each stratum's type table are built once per process, in bounded
caches, and every page reuses them.

A codebook has three layers of one type, ``PagedLayer``, each drawn
lazily in pages: the common layer (branch 0) and the private layers of X
and Y (branches 1 and 2). Page p holds 16 * 4**p codewords while that is
below PAGE_ROWS (pages 0-3 start at 0, 16, 80 and 336), and PAGE_ROWS
from page 4 on, which starts at 1360. Page p of branch b under
conditioning index s0 is drawn given the parent layer's codeword
``parent[0, s0]``, from its own counter-based stream, Philox keyed by
``SeedSequence(seed, spawn_key=(b, s0, p))``, so a page holds the same
codewords whichever process draws it and in whatever order. A private
layer's parent is the common layer; the common layer has one index, s0 =
0, and its parent is one all-zero row, so its band is W's own.
Generating a codebook draws nothing, and only the pages an encoder or
decoder touches are ever drawn, which lets a layer hold far more
codewords than memory could. A memory cap on the symbols drawn is
checked up front against the first page of each layer, at most 16
codewords, and ends a scan that would run past it. A ``Codebook`` also
holds the encoder's rule: the common layer's joint band, and each
branch's distortion matrix and threshold. So the encoders take only
sources and shift seeds.

The encoder takes a batch of source pairs and scans each layer in blocks
``layer[s0, start:stop]``, s0 = 0 for the common layer. The blocks are
the pages, each cut into pieces of at most ``_SCRATCH`` one-hot elements
(or one row's), so a hit among the first 16 codewords draws and reads
those 16, a scan draws a page only when it reaches it, and a long scan
stays vectorized. Each block is one-hot encoded once and scored for every
trial still without a hit by one matrix product per sub-batch of trials,
held to ``_SCRATCH`` elements (or one trial's share): the trials' pair-cell
one-hot times the block's gives exact integer joint counts for the common
layer; the trials' distortion tables times the block's one-hot give
distortion sums for each private layer, with trials grouped by common
index. A sum within a margin of n * eps * max(distortion) of the threshold
is decided by the exact gather mean instead, so every decision is the one
a lone codeword gets, whatever the BLAS summation order. Every trial keeps
a lone scan's block schedule, so a batch reads the codewords and draws the
pages that one scan per trial would. The trials' tables, built once per
scan, hold n floats per trial and reconstruction symbol (or pair cell).
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .prob import JointPmf, Kernel, _entropy_bits

SYMBOL_DTYPE = np.uint8
PAGE_ROWS = 4096   # codewords per lazily drawn page of a codebook layer from page 4 on
_PAGE_STARTS = (0, 16, 80, 336, 1360)   # first codewords of pages 0-4; page p < 4 holds 16 * 4**p
_SCRATCH = 2 ** 16   # elements of a scan block's one-hot and of one step's product


class EmptyTypicalSetError(ValueError):
    """The requested (q, delta, n) admits no sequence."""


class AlphabetError(ValueError):
    """Sequence symbols do not fit the declared alphabet."""


class ResourceCapError(RuntimeError):
    """A run would pass a resource limit: the memory cap on the codeword
    symbols drawn, a code size too large for a report to write, or the
    seed map's cap on tail atoms. Nothing past the limit is drawn."""


# ---------------------------------------------------------------------------
# circular shifts
# ---------------------------------------------------------------------------


def circular_shift(k, seq: np.ndarray, other: np.ndarray | None = None):
    """Apply the shift: output position t (1-based) holds input position
    ((t + k - 1) mod n) + 1. Any integer k is taken mod n, so k = -1 is
    the shift by n - 1. A second sequence of equal shape is shifted
    identically. Given (rows, n) sequences and one k per row, each row is
    shifted by its own k."""
    seq = np.asarray(seq)
    k = np.asarray(k)
    n = seq.shape[-1]
    if n == 0:
        raise ValueError("empty sequence")
    if k.shape != seq.shape[:-1]:
        raise ValueError(f"shift seeds of shape {k.shape} do not fit sequences of shape "
                         f"{seq.shape}: a 1-D sequence takes one scalar k, a (rows, n) "
                         "batch one k per row")
    cols = (np.arange(n) + k[..., None]) % n
    if other is None:
        return np.take_along_axis(seq, cols, axis=-1)
    other = np.asarray(other)
    if other.shape != seq.shape:
        raise ValueError("paired sequences must have equal length")
    return np.take_along_axis(seq, cols, axis=-1), np.take_along_axis(other, cols, axis=-1)


# ---------------------------------------------------------------------------
# multiplicative typicality
# ---------------------------------------------------------------------------


def _in_band(counts, n: int, q, delta: float) -> np.ndarray:
    """The band test |c/n - q| <= delta * q, elementwise; every typicality
    decision in this module is this one float expression."""
    return np.abs(counts / n - q) <= delta * q


def count_bounds(q: np.ndarray, n: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell integer count ranges [lo, hi] of the multiplicative band:
    the first and last count in 0..n that passes ``_in_band``. Exact by
    construction: c/n - q is monotone in c in floating point too, so a
    cell's passing counts form one unbroken run. A cell that no count fits
    gets lo = n + 1 > hi = n."""
    q = np.asarray(q, dtype=np.float64)
    ok = _in_band(np.arange(n + 1), n, q[..., None], delta)
    lo = np.where(ok.any(axis=-1), ok.argmax(axis=-1), n + 1)
    return lo, n - ok[..., ::-1].argmax(axis=-1)


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
    """Enumerated type vectors of a typical set with exact class sizes, and
    each type's symbols in sorted order, one row per type."""

    def __init__(self, types: list[tuple[int, ...]], total_positions: int):
        if not types:
            raise EmptyTypicalSetError("no integer type fits the band")
        self.types = types
        self.weights = [_multinomial_exact(total_positions, t) for t in types]
        cum = list(itertools.accumulate(self.weights))
        self.total = cum[-1]
        self.cum = np.asarray(cum, dtype=np.int64) if self.total < 2**63 else cum
        symbols = np.tile(np.arange(len(types[0]), dtype=SYMBOL_DTYPE), len(types))
        self.bases = np.repeat(symbols, np.ravel(types)).reshape(len(types), total_positions)

    def draw_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Exact inverse-CDF draws: unbiased int64 uniforms and a sorted
        search when the total fits in int64, big integers otherwise."""
        if self.total < 2**63:
            u = rng.integers(0, self.total, size=count)
            # the indices go back into the draws' buffer: returning a fresh
            # array raised peak memory by 4.5 MB at 1.1 M draws
            u[:] = np.searchsorted(self.cum, u, side="right")
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


@lru_cache(maxsize=256)
def _type_table(lo: tuple[int, ...], hi: tuple[int, ...], n_b: int) -> TypeTable | None:
    """The table of the column types with lo <= c <= hi summing to n_b, or
    None when none does; one per process and stratum, shared by every page."""
    types = _compositions(np.array(lo), np.array(hi), n_b)
    return TypeTable(types, n_b) if types else None


def _permuted_rows(rng: np.random.Generator, base: np.ndarray, rows: int) -> np.ndarray:
    """Independently random permutations of one multiset row."""
    return base[np.argsort(rng.random((rows, base.shape[0])), axis=1)]


def sample_uniform_cond_typical(joint_q: np.ndarray, delta: float,
                                cond_seq: np.ndarray, count: int,
                                rng: np.random.Generator | int) -> np.ndarray:
    """Exactly uniform draws from the conditional typical set given
    ``cond_seq``; the joint counts with the conditioning sequence land in
    the band around ``joint_q`` (axes: output symbol, conditioning symbol).
    Positions are stratified by conditioning symbol, with one independent
    type draw and arrangement per stratum. An empty set raises
    ``EmptyTypicalSetError`` naming the cell or stratum at fault."""
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    cond = np.asarray(cond_seq).astype(np.int64)
    jq = np.asarray(joint_q, dtype=np.float64)
    kb = jq.shape[1]
    n = cond.shape[0]
    lo, hi, _ = _cached_bounds(jq.tobytes(), jq.shape, n, delta)
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
        table = _type_table(tuple(lo[:, b].tolist()), tuple(hi[:, b].tolist()), n_b)
        if table is None:
            raise EmptyTypicalSetError(
                f"conditioning symbol {b} occurs {n_b} times but no column type fits "
                f"(lo={lo[:, b].tolist()}, hi={hi[:, b].tolist()})")
        idx = table.draw_indices(rng, count)
        if len(table.types) == 1:
            out[:, positions] = _permuted_rows(rng, table.bases[0], count)
            continue
        for t in np.unique(idx):
            members = np.where(idx == t)[0]
            out[np.ix_(members, positions)] = _permuted_rows(rng, table.bases[t], members.size)
    return out


# ---------------------------------------------------------------------------
# code sizes and codebooks
# ---------------------------------------------------------------------------


# 2**14284 < 10**4300: a smaller size has at most the 4,300 decimal digits
# that Python turns into a string by default, so a report can write it
_SIZE_LOG2_LIMIT = 14_284


def _exp2_floor(v: float) -> int:
    """floor(2**v) as an exact integer for any nonnegative v below
    _SIZE_LOG2_LIMIT. A larger, infinite or NaN exponent is refused as it
    stands, before any codeword is drawn."""
    if not v < _SIZE_LOG2_LIMIT:
        raise ResourceCapError(f"a code of 2**{v:.6g} codewords is past the "
                               f"2**{_SIZE_LOG2_LIMIT} a report can write; reduce n or delta")
    if v < 63:
        return int(math.floor(2.0 ** v))
    iv = int(math.floor(v))
    scaled = int(math.floor((2.0 ** (v - iv)) * (1 << 53)))
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
        """(m0, m1, m2) from the stored rates and slacks: the one place the
        code-size formula is written."""
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
    sizes = CodeSizes(m0=0, m1=0, m2=0, slack_w=delta * (h_w + h_w_given_xy),
                      slack_x=delta * (h_xt_w + 1.0), slack_y=delta * (h_yt_w + 1.0),
                      i_pair_w=i_pair_w, i_x=i_x, i_y=i_y, n=n, delta=delta)
    m0, m1, m2 = sizes.recompute()
    return replace(sizes, m0=m0, m1=m1, m2=m2)


def _page_of(j):
    """The page holding codeword j: a Python int of any size, or elementwise
    for an int64 array (a 0-d one too)."""
    if isinstance(j, np.ndarray):
        return (np.searchsorted(_PAGE_STARTS, j, side="right") - 1
                + np.maximum(j - _PAGE_STARTS[-1], 0) // PAGE_ROWS)
    return bisect.bisect_right(_PAGE_STARTS, j) - 1 + max(j - _PAGE_STARTS[-1], 0) // PAGE_ROWS


def _page_span(p: int) -> tuple[int, int]:
    """Codewords [start, stop) of page p, before a layer's end cuts it."""
    if p + 1 < len(_PAGE_STARTS):
        return _PAGE_STARTS[p], _PAGE_STARTS[p + 1]
    start = _PAGE_STARTS[-1] + (p + 1 - len(_PAGE_STARTS)) * PAGE_ROWS
    return start, start + PAGE_ROWS


class _SymbolBudget:
    """Codeword symbols one process has drawn for a codebook, every page of
    its three layers, against an optional cap. A pickled copy starts again
    at 0, because paged layers drop their drawn pages when pickled."""

    def __init__(self, cap: int | None):
        self.cap, self.used = cap, 0

    def charge(self, symbols: int):
        if self.cap is not None and self.used + symbols > self.cap:
            raise ResourceCapError(
                f"codebook would hold {self.used + symbols} symbols, cap is {self.cap}; "
                f"raise memory_cap or reduce n/delta")
        self.used += symbols

    def __reduce__(self):
        return _SymbolBudget, (self.cap,)


class PagedLayer:
    """One codebook layer, shape (S, M, n): M codewords under each of S
    conditioning indices, drawn a page at a time on first touch and cached.
    Page p under index s0, the codewords ``_page_span(p)`` (16, 64, 256
    and 1024 on pages 0-3, PAGE_ROWS on each later one), is drawn
    uniformly from the conditional typical set of ``joint`` given the
    parent's codeword ``parent[0, s0]``, from Philox keyed by
    ``SeedSequence(seed, spawn_key=(branch, s0, p))``.

    Array-like: ``shape`` (Python ints); ``layer[s0, a:b]``, the slice of
    codewords under s0, reading only the pages it spans; ``layer[s0]``,
    every codeword under s0; ``layer[s0, j]``; ``layer[s0s, js]`` with
    index arrays, one codeword per (broadcast) pair, each touched page read
    once; and ``np.asarray(layer)``, which draws every page. Indices follow
    NumPy's rule: negatives count from the end (index arrays into a layer
    past 2**63 codewords take none), others out of range raise
    ``IndexError``. ``nbytes`` counts the pages drawn so far. Pickling drops
    the drawn pages; the copy redraws the same ones on demand."""

    dtype = np.dtype(SYMBOL_DTYPE)

    def __init__(self, parent, joint: np.ndarray, delta: float, m: int,
                 seed: int, branch: int, budget: _SymbolBudget):
        self.parent, self.joint, self.delta = parent, joint, delta
        self.seed, self.branch, self.budget = seed, branch, budget
        self.shape = (int(parent.shape[1]), int(m), int(parent.shape[2]))
        self._pages: dict[tuple[int, int], np.ndarray] = {}

    @property
    def pages_drawn(self) -> int:
        return len(self._pages)

    @property
    def codewords_drawn(self) -> int:
        return sum(page.shape[0] for page in self._pages.values())

    @property
    def nbytes(self) -> int:
        return sum(page.nbytes for page in self._pages.values())

    def page(self, s0: int, p: int) -> np.ndarray:
        """The codewords of page p under index s0."""
        got = self._pages.get((s0, p))
        if got is None:
            start, stop = _page_span(p)
            rows = min(stop, self.shape[1]) - start
            cond = self.parent[0, s0:s0 + 1][0]   # a slice skips the index-array path
            self.budget.charge(rows * self.shape[2])
            ss = np.random.SeedSequence(self.seed, spawn_key=(self.branch, s0, p))
            got = sample_uniform_cond_typical(self.joint, self.delta, cond, rows,
                                              np.random.Generator(np.random.Philox(ss)))
            self._pages[(s0, p)] = got
        return got

    def __getitem__(self, key):
        s0, j = key if isinstance(key, tuple) else (key, slice(None))
        if isinstance(j, slice):
            s0, picked = range(self.shape[0])[s0], range(self.shape[1])[j]
            if not picked:
                return np.empty((0, self.shape[2]), dtype=self.dtype)
            lo, hi = min(picked[0], picked[-1]), max(picked[0], picked[-1]) + 1
            first = _page_of(lo)
            pages = [self.page(s0, p) for p in range(first, _page_of(hi - 1) + 1)]
            rows = pages[0] if len(pages) == 1 else np.concatenate(pages)
            return rows[picked[0] - _page_span(first)[0]::picked.step][:len(picked)]
        s0, j = np.broadcast_arrays(_checked_index(s0, self.shape[0]),
                                    _checked_index(j, self.shape[1]))
        out = np.empty(s0.shape + self.shape[2:], dtype=self.dtype)
        page = _page_of(j)
        # each touched page read once, in (s0, page) order; np.unique sorts as
        # the encoder does, where np.lexsort faulted in 0.2 MB more NumPy code
        for a in np.unique(s0).tolist():
            for p in np.unique(page[s0 == a]).tolist():
                members = (s0 == a) & (page == p)
                out[members] = self.page(a, p)[j[members] - _page_span(p)[0]]
        return out

    def __array__(self, dtype=None, copy=None):
        return np.asarray(np.stack([self[s0] for s0 in range(self.shape[0])]), dtype=dtype)

    def __getstate__(self):
        return {**self.__dict__, "_pages": {}}


def _checked_index(i, size: int) -> np.ndarray:
    """An integer index or index array as int64, negatives counted from
    the end; an index outside [-size, size) raises ``IndexError`` naming
    it. Past 2**63 every int64 index is below the size, but a negative one
    would count to a position int64 cannot hold, so it is refused."""
    i = np.asarray(i)
    if i.dtype.kind not in "iu":
        raise IndexError(f"indices must be integers, got {i.dtype}")
    if size >= 2**63:
        bad = (i < 0) | (i >= 2**63)
        if bad.any():
            raise IndexError(f"index {i[bad].flat[0]} is outside [0, 2**63), the indices "
                             f"int64 holds of a size past 2**63")
        return i.astype(np.int64)
    bad = (i < -size) | (i >= size)
    if bad.any():
        raise IndexError(f"index {i[bad].flat[0]} is out of bounds for size {size}")
    return (i % size).astype(np.int64)


@dataclass(frozen=True, eq=False)
class Codebook:
    """Three-layer codebook and the encoder's rule for it. Each layer is an
    (S, M, n) ``PagedLayer`` or array: the common layer, (1, M0, n) over
    the W alphabet, and the private layers of both branches, (M0, M, n),
    whose codewords under index s0 are conditioned on the common codeword
    ``common[0, s0]``. All codewords are drawn uniformly from their
    (conditional) typical sets. The layers are read alike: the encoder in
    blocks ``layer[s0, a:b]``, the decoder one codeword per pair
    ``layer[s0s, js]``. The rule: a common codeword jointly typical with
    the pair under ``q_xyw`` and ``delta``, then on each branch (X, then
    Y) a private codeword whose per-letter distortion under that branch's
    matrix in ``distortions`` is at most its entry in ``thresholds``."""

    common: np.ndarray | PagedLayer   # (1, M0, n)
    priv_x: np.ndarray | PagedLayer   # (M0, M1, n)
    priv_y: np.ndarray | PagedLayer   # (M0, M2, n)
    q_xyw: np.ndarray                 # reference joint for encoder typicality
    distortions: tuple[np.ndarray, np.ndarray]   # (|X|, |Xt|) and (|Y|, |Yt|)
    thresholds: tuple[float, float]   # per-letter distortion thresholds
    n: int
    delta: float

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.common.shape[1], self.priv_x.shape[1], self.priv_y.shape[1])


def generate_codebook(q_xyw: JointPmf, tc_x: Kernel, tc_y: Kernel,
                      distortions: tuple[np.ndarray, np.ndarray], sizes: CodeSizes,
                      delta: float, n: int, seed: int,
                      memory_cap: int | None = None) -> Codebook:
    """Set up the three paged layers, drawing no codeword: branch 0, the
    common layer, has one conditioning index and a constant all-zero
    conditioning row, so its band is W's own; branches 1 and 2, the
    private layers, are conditioned on the common codewords. The codewords
    are bit-identical for a fixed seed. Each branch's threshold, under its
    distortion matrix in ``distortions`` (X, then Y), is its test channel's
    expected distortion plus delta / 2. With a ``memory_cap``, every page
    drawn counts against it; a cap below the first page of each layer, at
    most 16 codewords and the least any encoding draws, is refused here,
    and a later page that would pass it raises ``ResourceCapError`` before
    it is drawn."""
    limit = np.iinfo(SYMBOL_DTYPE).max + 1
    for name, size in (("W", q_xyw.shape[2]), ("X reconstruction", tc_x.out_size),
                       ("Y reconstruction", tc_y.out_size)):
        if size > limit:
            raise AlphabetError(f"{name} alphabet has {size} symbols; codewords hold at "
                                f"most {limit}")
    least = sum(min(m, _page_span(0)[1]) for m in (sizes.m0, sizes.m1, sizes.m2)) * n
    if memory_cap is not None and least > memory_cap:
        raise ResourceCapError(f"codebook needs at least {least} symbols, cap is {memory_cap}; "
                               f"raise memory_cap or reduce n/delta")
    p, *joints = _chain_joints(q_xyw, tc_x, tc_y)
    distortions = tuple(np.asarray(d) for d in distortions)
    thresholds = tuple(float(np.einsum("swh,sh->", joint, d)) + delta / 2.0
                       for joint, d in zip(joints, distortions))

    budget = _SymbolBudget(memory_cap)
    root = np.zeros((1, 1, n), dtype=SYMBOL_DTYPE)
    common = PagedLayer(root, p.sum(axis=(0, 1))[:, None], delta, sizes.m0, seed, 0, budget)
    priv_x, priv_y = (PagedLayer(common, joint.sum(axis=0).T, delta, m, seed, b, budget)
                      for b, joint, m in zip((1, 2), joints, (sizes.m1, sizes.m2)))
    return Codebook(common=common, priv_x=priv_x, priv_y=priv_y, q_xyw=p,
                    distortions=distortions, thresholds=thresholds, n=n, delta=delta)


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


def _blocks(m: int, width: int):
    """(start, stop) spans covering [0, m) in scan order: each page's span,
    cut at m and into pieces of at most _SCRATCH // ``width`` rows (one at
    least) of ``width`` one-hot elements."""
    cap = max(1, _SCRATCH // width)
    p, start = 0, 0
    while start < m:
        stop = min(_page_span(p)[1], m)
        for a in range(start, stop, cap):
            yield a, min(a + cap, stop)
        p, start = p + 1, stop


def _one_hot(seqs: np.ndarray, size: int) -> np.ndarray:
    """Indicators [seqs[r, i] == a] of (rows, n) sequences over ``size``
    symbols, as float64 of shape (n, size, rows); symbols outside
    0..size-1 match nothing."""
    return (seqs.T[:, None, :] == np.arange(size)[:, None]).astype(np.float64)


def _scan(layer, s0: int, trials: int, size: int, per_row: int, hits) -> np.ndarray:
    """Per trial, the smallest j whose codeword ``layer[s0, j]`` ``hits``
    accepts, or -1. Each of the ``_blocks`` for the layer's codewords of n
    symbols over ``size`` is read once, as ``layer[s0, start:stop]``,
    one-hot encoded once and scored for the trials still without a hit, in
    sub-batches whose scores (``per_row`` elements per trial and block row)
    hold at most _SCRATCH elements, or one trial's. ``hits(trials,
    codewords, one_hot)`` returns the (trials, block rows) hit mask."""
    _, m, n = layer.shape
    found = np.full(trials, -1, dtype=np.int64)
    active = np.arange(trials)
    for start, stop in _blocks(m, n * size):
        codewords = layer[s0, start:stop]
        one_hot = _one_hot(codewords, size)
        step = max(1, _SCRATCH // ((stop - start) * per_row))
        for a in range(0, active.size, step):
            some = active[a:a + step]
            ok = hits(some, codewords, one_hot)
            has = ok.any(axis=1)
            found[some[has]] = start + ok[has].argmax(axis=1)
        active = active[found[active] < 0]
        if not active.size:
            break
    return found


def _first_under_threshold(layer, s0: int, refs: np.ndarray,
                           delta_mat: np.ndarray, threshold: float) -> np.ndarray:
    """Per trial (row of the (T, n) ``refs``), the smallest j whose
    codeword ``layer[s0, j]`` has per-letter distortion <= threshold, or
    -1. ``layer`` is a ``PagedLayer`` or an (M0, M, n) array, read in
    blocks ``layer[s0, a:b]`` of 16, 64, 256, ... codewords, its pages, so
    an early hit draws and reads few of them.

    A block is scored by one product of the trials' distortion tables
    ``delta_mat[refs]`` (read as float64) with the block's one-hot: a sum
    of the same n nonnegative terms as the exact distortion, the gather
    ``delta_mat[ref, cw]`` averaged over the contiguous position axis, but
    in BLAS order. Each sum is within (n - 1) * eps / 2 of the exact one,
    relative to it, so the two means differ by less than n * eps *
    max(delta_mat) plus one subnormal step. A score farther than
    ``margin``, four times that, from the threshold decides as the gather
    would; the few within it are decided by the gather, in pieces of at
    most _SCRATCH elements. Where a sum could overflow, the margin is
    infinite and every codeword goes to the gather."""
    n = refs.shape[1]
    delta_mat = np.asarray(delta_mat, dtype=np.float64)
    table = delta_mat[refs].reshape(refs.shape[0], -1)   # (T, n * |reconstruction|)
    dmax, fl = float(delta_mat.max()), np.finfo(np.float64)
    margin = 4 * n * fl.eps * dmax + fl.smallest_subnormal if n * dmax < fl.max / 2 else np.inf

    def under(trials, block, one_hot):
        mean = table[trials] @ one_hot.reshape(table.shape[1], -1)
        mean /= n
        ok = mean <= threshold
        mean -= threshold   # in place from here: each score's distance from the threshold
        close = ~(np.abs(mean, out=mean) > margin)
        if not close.any():
            return ok
        t, r = np.nonzero(close)
        piece = max(1, _SCRATCH // n)
        for a in range(0, t.size, piece):
            tt, rr = t[a:a + piece], r[a:a + piece]
            ok[tt, rr] = delta_mat[refs[trials[tt]], block[rr]].mean(axis=-1) <= threshold
        return ok

    return _scan(layer, s0, refs.shape[0], delta_mat.shape[1], 1, under)


def _first_jointly_typical(common, pairs: np.ndarray,
                           lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per trial, the smallest j whose common codeword ``common[0, j]`` has
    joint counts with the trial's source pair (a row of ``pairs``, the pair
    cell x * |Y| + y per position) in [lo, hi], or -1. The bounds' last
    axis is W, their leading axes the pair cells. ``common`` is a
    ``PagedLayer`` or a (1, M0, n) array, read in blocks ``common[0, a:b]``
    of 16, 64, 256, ... codewords, its pages; the exact integer counts of a
    block are one product of the trials' pair-cell one-hot, (trials *
    cells, n), with the block's, (n, |W| * rows)."""
    kw = lo.shape[-1]
    lo, hi = lo.reshape(-1, kw, 1), hi.reshape(-1, kw, 1)
    cells, n = lo.shape[0], pairs.shape[1]
    pair_hot = np.ascontiguousarray(_one_hot(pairs, cells).transpose(2, 1, 0))   # (T, cells, n)

    def typical(trials, block, one_hot):
        counts = (pair_hot[trials].reshape(-1, n) @ one_hot.reshape(n, -1)).reshape(
            trials.size, cells, kw, -1)
        return ((counts >= lo) & (counts <= hi)).all(axis=(1, 2))

    return _scan(common, 0, pairs.shape[0], kw, cells * kw, typical)


def encode_batch(codebook: Codebook, xs: np.ndarray, ys: np.ndarray, ks):
    """Three-stage encoding, by the codebook's rule, of T source pairs,
    rows of the (T, n) ``xs`` and ``ys``, each under its own shift seed in
    ``ks``.

    The sources are unshifted first; a trial's common index is the
    smallest one whose codeword is jointly typical with its pair (falling
    back to 0 with a flag, without a scan when the joint band admits no
    count vector or the pair's own counts leave the band's sums over W),
    then each private index is the smallest one within its branch's
    distortion threshold (same fallback). Returns the index
    arrays ``s0``, ``s1``, ``s2`` and a (3, T) mask of common, X and Y
    misses; every trial gets what a lone encoding of it gets. Source
    symbols outside the pair alphabet raise ``ValueError``.
    """
    n = codebook.n
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.ndim != 2 or xs.shape[1] != n or ys.shape != xs.shape:
        raise ValueError(f"sequences must have length n={n}")
    xb, yb = (s.astype(np.int64) for s in circular_shift(-np.asarray(ks), xs, ys))

    kx, ky, _ = codebook.q_xyw.shape
    if np.any((xb < 0) | (xb >= kx) | (yb < 0) | (yb >= ky)):
        raise ValueError(f"source symbols outside the {kx}x{ky} pair alphabet")
    lo, hi, empty = _cached_bounds(codebook.q_xyw.tobytes(), codebook.q_xyw.shape, n,
                                   codebook.delta)
    s0 = np.full(xs.shape[0], -1, dtype=np.int64)
    if not empty:
        # a hit needs each pair count within the band's sums over w, so only
        # trials whose pair type passes that test are scanned
        pairs = xb * ky + yb
        cells = kx * ky
        counts = np.bincount((pairs + cells * np.arange(pairs.shape[0])[:, None]).ravel(),
                             minlength=pairs.shape[0] * cells).reshape(-1, cells)
        fits = ((counts >= lo.sum(axis=-1).ravel())
                & (counts <= hi.sum(axis=-1).ravel())).all(axis=1)
        if fits.any():
            s0[fits] = _first_jointly_typical(codebook.common, pairs[fits], lo, hi)
    miss = np.empty((3, xs.shape[0]), dtype=bool)
    miss[0] = s0 < 0
    s0[miss[0]] = 0

    private = np.empty((2, xs.shape[0]), dtype=np.int64)
    branches = zip((codebook.priv_x, codebook.priv_y), (xb, yb), codebook.distortions,
                   codebook.thresholds)
    for b, (layer, refs, delta_mat, threshold) in enumerate(branches):
        for a in np.unique(s0).tolist():
            members = np.flatnonzero(s0 == a)
            private[b, members] = _first_under_threshold(layer, a, refs[members],
                                                         delta_mat, threshold)
    miss[1:] = private < 0
    np.maximum(private, 0, out=private)
    return s0, private[0], private[1], miss


def encode(codebook: Codebook, x_seq: np.ndarray, y_seq: np.ndarray, k: int) -> EncodeResult:
    """Three-stage encoding of one source pair under shift seed k: the
    one-trial case of ``encode_batch``."""
    s0, s1, s2, miss = encode_batch(codebook, np.asarray(x_seq)[None], np.asarray(y_seq)[None],
                                    [k])
    return EncodeResult(int(s0[0]), int(s1[0]), int(s2[0]), *map(bool, miss[:, 0]))


def joint_set_empty(q_xyw: np.ndarray, n: int, delta: float) -> bool:
    """True when the (x, y, w) joint band at blocklength n admits no count
    vector, so no common codeword can ever be jointly typical."""
    q = np.asarray(q_xyw, dtype=np.float64)
    return _cached_bounds(q.tobytes(), q.shape, n, delta)[2]


@lru_cache(maxsize=64)
def _cached_bounds(q_bytes: bytes, shape: tuple, n: int, delta: float):
    """Per-cell count bounds of the band, and whether no count vector
    summing to n fits them."""
    lo, hi = count_bounds(np.frombuffer(q_bytes, dtype=np.float64).reshape(shape), n, delta)
    lo.flags.writeable = hi.flags.writeable = False   # shared by every caller
    empty = bool(np.any(lo > hi) or lo.sum() > n or hi.sum() < n)
    return lo, hi, empty


def decode(codebook: Codebook, s0, s1, s2, k):
    """Reconstruct both branches: shift the selected codewords back by k.
    Given equal-length sequences of indices and seeds, one entry per
    block, each branch comes back as one row per block, read with each
    touched page of a private layer read once. Raises ``ValueError``
    unless the indices and seeds are all scalars or all sequences of one
    length."""
    shapes = [np.shape(v) for v in (s0, s1, s2, k)]
    if len(set(shapes)) > 1 or len(shapes[0]) > 1:
        raise ValueError("s0, s1, s2 and k must be all scalars or all sequences of one "
                         f"length, got shapes {shapes}")
    if shapes[0] == (0,):  # np.asarray([]) is float64, which no shift can index by
        k = np.zeros(0, dtype=np.int64)
    idx = [np.atleast_1d(np.asarray(s, dtype=np.int64)) for s in (s0, s1, s2)]
    for s, m in zip(idx, codebook.sizes):
        bad = (s < 0) | (s >= m)
        if bad.any():
            i = int(bad.argmax())
            raise IndexError(f"indices ({idx[0][i]}, {idx[1][i]}, {idx[2][i]}) outside "
                             f"codebook sizes {codebook.sizes}")
    x, y = codebook.priv_x[idx[0], idx[1]], codebook.priv_y[idx[0], idx[2]]
    if not np.ndim(k):
        x, y = x[0], y[0]
    return circular_shift(k, x, y)
