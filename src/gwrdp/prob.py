"""Exact finite-alphabet probability machinery.

Pmfs, joint distributions, conditional channels, entropies, mutual
informations, divergences, expected distortions, and empirical types.
All information quantities are in bits (log base 2), with the
conventions 0*log(0) = 0 and p*log(p/0) = +inf. Probabilities are
double-precision; constructors validate normalization to NORM_TOL and
renormalize exactly, so downstream arithmetic can assume sum == 1.

Everything here is immutable after construction and every operation is
pure, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12


class AlphabetMismatchError(ValueError):
    """Operands are defined over incompatible alphabets."""


def _as_prob_array(probs, ndim: int | None = None) -> np.ndarray:
    arr = np.array(probs, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-axis array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty probability array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite")
    if np.any(arr < 0):
        raise ValueError(f"negative probability entry: min={arr.min()}")
    total = arr.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1 within {NORM_TOL}")
    arr = arr / total  # exact renormalization after any upstream arithmetic
    arr.flags.writeable = False
    return arr


def _entropy_bits(p: np.ndarray) -> float:
    """H(p) = -sum p*log2(p) with 0*log2(0) = 0, over any array shape."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function on a finite alphabet {0, ..., k-1}."""

    probs: np.ndarray

    def __init__(self, probs):
        object.__setattr__(self, "probs", _as_prob_array(probs, ndim=1))

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Pmf) and np.array_equal(self.probs, other.probs)

    def to_dict(self) -> dict:
        return {"alphabets": [self.size], "probs": self.probs.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "Pmf":
        (k,) = obj["alphabets"]
        probs = np.asarray(obj["probs"], dtype=np.float64)
        if probs.shape != (k,):
            raise ValueError("probs length does not match declared alphabet size")
        return cls(probs)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Dense joint distribution over a product of 2 or 3 finite alphabets.

    ``axes`` labels the role each axis plays (e.g. ("X", "W") or
    ("X", "Y", "W")); labels must be distinct.
    """

    probs: np.ndarray
    axes: tuple[str, ...]

    def __init__(self, probs, axes: Sequence[str]):
        axes = tuple(axes)
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ValueError(f"joint pmf needs 2 or 3 axes, got {arr.ndim}")
        if len(axes) != arr.ndim:
            raise ValueError("axis labels do not match array rank")
        if len(set(axes)) != len(axes):
            raise ValueError(f"duplicate axis labels: {axes}")
        object.__setattr__(self, "probs", _as_prob_array(arr))
        object.__setattr__(self, "axes", axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    def axis_index(self, label: str) -> int:
        try:
            return self.axes.index(label)
        except ValueError:
            raise AlphabetMismatchError(f"no axis {label!r} in {self.axes}") from None

    def marginal(self, *labels: str) -> "Pmf | JointPmf":
        """Marginalize onto the given axis labels (order as requested)."""
        idx = [self.axis_index(lab) for lab in labels]
        drop = tuple(i for i in range(self.probs.ndim) if i not in idx)
        summed = self.probs.sum(axis=drop)
        # reorder remaining axes to the requested order
        kept = [i for i in range(self.probs.ndim) if i not in drop]
        perm = [kept.index(i) for i in idx]
        summed = np.transpose(summed, perm) if len(idx) > 1 else summed
        if len(idx) == 1:
            return Pmf(summed)
        return JointPmf(summed, labels)

    def conditional(self, target: str, given: str) -> "Kernel":
        """Kernel p(target | given). Zero-mass rows are filled uniformly."""
        j = self.marginal(given, target) if len(self.axes) > 2 else self
        if isinstance(j, JointPmf) and j.axes != (given, target):
            j = JointPmf(np.transpose(j.probs, (j.axis_index(given), j.axis_index(target))), (given, target))
        mat = np.array(j.probs, dtype=np.float64)
        row_mass = mat.sum(axis=1, keepdims=True)
        out = np.where(row_mass > 0, mat / np.where(row_mass > 0, row_mass, 1.0), 1.0 / mat.shape[1])
        return Kernel(out)

    def extend(self, kernel: "Kernel", new_axis: str) -> "JointPmf":
        """Product joint: this pmf times a kernel conditioned on all current axes."""
        if kernel.cond_shape != self.shape:
            raise AlphabetMismatchError(
                f"kernel conditions on {kernel.cond_shape}, joint has shape {self.shape}")
        probs = self.probs[..., None] * kernel.probs
        # 3-axis inputs would create a 4-axis joint; callers marginalize first
        if probs.ndim > 3:
            raise ValueError("extend would exceed 3 axes; marginalize first")
        return JointPmf(probs, self.axes + (new_axis,))

    def __eq__(self, other) -> bool:
        return (isinstance(other, JointPmf) and self.axes == other.axes
                and np.array_equal(self.probs, other.probs))

    def to_dict(self) -> dict:
        return {"alphabets": list(self.shape), "probs": self.probs.reshape(-1).tolist(),
                "axes": list(self.axes)}

    @classmethod
    def from_dict(cls, obj: dict) -> "JointPmf":
        shape = tuple(obj["alphabets"])
        probs = np.asarray(obj["probs"], dtype=np.float64).reshape(shape)
        axes = tuple(obj.get("axes") or ("X", "Y", "W")[: len(shape)])
        return cls(probs, axes)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Conditional channel: a pmf over the output alphabet per conditioning
    symbol (or symbol tuple). Stored with the output as the last axis."""

    probs: np.ndarray

    def __init__(self, probs):
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim < 2:
            raise ValueError("kernel needs at least one conditioning axis")
        if arr.size == 0:
            raise ValueError("empty kernel")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("kernel entries must be finite and nonnegative")
        sums = arr.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > NORM_TOL):
            worst = np.abs(sums - 1.0).max()
            raise ValueError(f"kernel rows must sum to 1 (worst deviation {worst:g})")
        arr = arr / sums[..., None]
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def cond_shape(self) -> tuple[int, ...]:
        return self.probs.shape[:-1]

    @property
    def out_size(self) -> int:
        return self.probs.shape[-1]

    def row(self, *cond) -> np.ndarray:
        return self.probs[cond]

    def __eq__(self, other) -> bool:
        return isinstance(other, Kernel) and np.array_equal(self.probs, other.probs)

    def to_dict(self) -> dict:
        return {"alphabets": list(self.probs.shape), "probs": self.probs.reshape(-1).tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "Kernel":
        shape = tuple(obj["alphabets"])
        return cls(np.asarray(obj["probs"], dtype=np.float64).reshape(shape))


@dataclass(frozen=True, eq=False)
class EmpiricalType:
    """Histogram of a symbol sequence: integer counts summing to n."""

    counts: np.ndarray
    n: int

    def __init__(self, counts, n: int):
        arr = np.array(counts, dtype=np.int64)
        if np.any(arr < 0):
            raise ValueError("negative count")
        if int(arr.sum()) != n:
            raise ValueError(f"counts sum to {int(arr.sum())}, blocklength is {n}")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "n", int(n))

    @property
    def pmf(self) -> np.ndarray:
        return self.counts / self.n

    def __eq__(self, other) -> bool:
        return (isinstance(other, EmpiricalType) and self.n == other.n
                and np.array_equal(self.counts, other.counts))


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------


def entropy(p: Pmf | np.ndarray) -> float:
    """Shannon entropy in bits; 0 <= H <= log2(alphabet size)."""
    arr = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=np.float64)
    return _entropy_bits(arr)


def mutual_information(j: JointPmf) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) in bits, for a 2-axis joint."""
    if j.probs.ndim != 2:
        raise ValueError("mutual_information needs a 2-axis joint")
    h_a = _entropy_bits(j.probs.sum(axis=1))
    h_b = _entropy_bits(j.probs.sum(axis=0))
    h_ab = _entropy_bits(j.probs)
    return max(0.0, h_a + h_b - h_ab)


def conditional_mutual_information(j: JointPmf) -> float:
    """I(A;B|C) in bits for a 3-axis joint with axes ordered (A, B, C)."""
    if j.probs.ndim != 3:
        raise ValueError("conditional_mutual_information needs a 3-axis joint")
    p = j.probs
    # I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)
    h_ac = _entropy_bits(p.sum(axis=1))
    h_bc = _entropy_bits(p.sum(axis=0))
    h_abc = _entropy_bits(p)
    h_c = _entropy_bits(p.sum(axis=(0, 1)))
    return max(0.0, h_ac + h_bc - h_abc - h_c)


def tv_distance(p: Pmf | np.ndarray, q: Pmf | np.ndarray) -> float:
    """Total variation distance d(P,Q) = sum_x |P(x) - Q(x)|, range [0, 2].

    Note the unhalved convention: disjoint supports give 2, not 1.
    Perception budgets throughout this package live on this scale.
    """
    pa = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=np.float64)
    qa = q.probs if isinstance(q, Pmf) else np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape:
        raise AlphabetMismatchError(f"alphabet sizes differ: {pa.shape} vs {qa.shape}")
    return float(np.abs(pa - qa).sum())


def kl_divergence(p: Pmf | np.ndarray, q: Pmf | np.ndarray) -> float:
    """KL(P || Q) in bits, with p*log(p/0) = +inf and 0*log(0/q) = 0."""
    pa = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=np.float64)
    qa = q.probs if isinstance(q, Pmf) else np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape:
        raise AlphabetMismatchError(f"alphabet sizes differ: {pa.shape} vs {qa.shape}")
    mask = pa > 0
    if np.any(qa[mask] == 0):
        return float("inf")
    return float(np.sum(pa[mask] * np.log2(pa[mask] / qa[mask])))


def expected_distortion(j: JointPmf, delta: np.ndarray) -> float:
    """E[delta(A, Ahat)] for a 2-axis joint over (source, reconstruction)."""
    if j.probs.ndim != 2:
        raise ValueError("expected_distortion needs a 2-axis joint")
    d = np.asarray(delta, dtype=np.float64)
    if d.shape != j.probs.shape:
        raise AlphabetMismatchError(
            f"distortion matrix shape {d.shape} does not match joint {j.probs.shape}")
    return float(np.sum(j.probs * d))


# ---------------------------------------------------------------------------
# empirical types
# ---------------------------------------------------------------------------


def empirical_type(seq: Iterable[int], alphabet_size: int) -> EmpiricalType:
    """Histogram of a symbol sequence over {0, ..., alphabet_size-1}."""
    arr = np.asarray(list(seq) if not isinstance(seq, np.ndarray) else seq, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("empty sequence")
    if arr.min() < 0 or arr.max() >= alphabet_size:
        bad = arr[(arr < 0) | (arr >= alphabet_size)][0]
        raise ValueError(f"symbol {bad} outside alphabet of size {alphabet_size}")
    counts = np.bincount(arr, minlength=alphabet_size)
    return EmpiricalType(counts, arr.size)


def joint_empirical_type(seqs: Sequence[Iterable[int]], sizes: Sequence[int]) -> EmpiricalType:
    """Joint histogram of parallel sequences; counts shaped by ``sizes``."""
    arrs = [np.asarray(s, dtype=np.int64) for s in seqs]
    n = arrs[0].size
    if n == 0:
        raise ValueError("empty sequence")
    if any(a.size != n for a in arrs) or len(arrs) != len(sizes):
        raise AlphabetMismatchError("paired sequences must have equal length and one "
                                    "alphabet size each")
    flat = np.zeros(n, dtype=np.int64)
    for a, k in zip(arrs, sizes):
        if a.min() < 0 or a.max() >= k:
            bad = a[(a < 0) | (a >= k)][0]
            raise ValueError(f"symbol {bad} outside alphabet of size {k}")
        flat = flat * k + a
    total = int(np.prod(sizes))
    counts = np.bincount(flat, minlength=total).reshape(tuple(sizes))
    return EmpiricalType(counts, n)
