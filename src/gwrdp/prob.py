"""Exact finite-alphabet probability machinery.

Pmfs, joint distributions, conditional channels, mutual information
and the TV and KL divergences. All information quantities are in bits (log base 2), with the
conventions 0*log(0) = 0 and p*log(p/0) = +inf. Probabilities are
double-precision; constructors validate normalization to NORM_TOL and
renormalize exactly, so downstream arithmetic can assume sum == 1.

Everything here is immutable after construction and every operation is
pure, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True, eq=False)
class Kernel:
    """Conditional channel: a pmf over the output alphabet per conditioning
    symbol (or symbol tuple). Stored with the output as the last axis.

    Rows are renormalized, except a row whose sum lies within (row length)
    eps of 1, which a normalization already produced: dividing it again
    would move its last bits, so ``Kernel(k.probs) == k``."""

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
        normalized = np.abs(sums - 1.0) <= arr.shape[-1] * np.finfo(np.float64).eps
        arr = arr / np.where(normalized, 1.0, sums)[..., None]
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def cond_shape(self) -> tuple[int, ...]:
        return self.probs.shape[:-1]

    @property
    def out_size(self) -> int:
        return self.probs.shape[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Kernel) and np.array_equal(self.probs, other.probs)

    def to_dict(self) -> dict:
        return {"alphabets": list(self.probs.shape), "probs": self.probs.reshape(-1).tolist()}


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------


def mutual_information(j: JointPmf) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) in bits, for a 2-axis joint."""
    if j.probs.ndim != 2:
        raise ValueError("mutual_information needs a 2-axis joint")
    h_a = _entropy_bits(j.probs.sum(axis=1))
    h_b = _entropy_bits(j.probs.sum(axis=0))
    h_ab = _entropy_bits(j.probs)
    return max(0.0, h_a + h_b - h_ab)


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
