"""Common-randomness removal by source simulation.

A few extra source symbols (the tail of an extended block) are hashed
through a fixed map into a seed value in [0, n-1] whose distribution is
within the largest atom probability of uniform, per bin. The map is the
least-loaded greedy: atoms (joint tail realizations) are taken by
descending probability and each is placed into the currently lightest
bin, which bounds the heaviest-lightest gap by the largest atom. Atoms
whose symbols take the same distinct probabilities equally often form a
level of one exact probability (a DSBS's 4**10 atoms form 11 levels), and
the greedy cannot tell them apart; so the map is built a level at a time,
each level's atoms water-filled into the bins in one numpy step, and the
atoms of a level take their bins in index order. The resulting
deterministic code runs the shift-seeded codec with the simulated seed
and extends reconstructions by copying the head prefix into the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import Codebook, EncodeResult, ResourceCapError, decode, encode
from .prob import JointPmf

_ATOM_CAP = 4_194_304  # most tail atoms a seed map enumerates: 2**22 = 4**11


class SeedMapError(ValueError):
    """A tail of n0 symbols has fewer atoms than the n seed bins."""


@dataclass(frozen=True, eq=False)
class SeedMap:
    """Assignment of every length-n0 joint tail realization to a seed bin."""

    assignment: np.ndarray   # (pair_alphabet ** n0,) values in [0, n-1]
    bin_masses: np.ndarray   # (n,)
    p_max: float             # largest atom probability
    n0: int
    n: int
    nx: int
    ny: int

    @property
    def max_deviation(self) -> float:
        return float(np.abs(self.bin_masses - 1.0 / self.n).max())

    def seed_for_tail(self, x_tail: np.ndarray, y_tail: np.ndarray) -> int:
        """The seed of one tail: the one-row case of ``seeds_for_tails``."""
        return int(self.seeds_for_tails(np.asarray(x_tail)[None], np.asarray(y_tail)[None])[0])

    def seeds_for_tails(self, x_tails: np.ndarray, y_tails: np.ndarray) -> np.ndarray:
        """Seeds of T tails, the rows of (T, n0) arrays: each tail's atom
        index, its pair symbols read as base |X||Y| digits (first position
        most significant), looked up in the assignment. Symbols outside
        the alphabets, or given as a non-integer dtype, raise
        ``ValueError``."""
        x, y = np.asarray(x_tails), np.asarray(y_tails)
        if x.dtype.kind not in "iu" or y.dtype.kind not in "iu":
            raise ValueError(f"tail symbols must be integers, got {x.dtype} and {y.dtype}")
        x, y = x.astype(np.int64), y.astype(np.int64)
        if x.ndim != 2 or x.shape[1] != self.n0 or y.shape != x.shape:
            raise ValueError(f"tails must have length n0={self.n0}")
        if np.any((x < 0) | (x >= self.nx) | (y < 0) | (y >= self.ny)):
            raise ValueError(f"tail symbols outside the {self.nx}x{self.ny} pair alphabet")
        radix = (self.nx * self.ny) ** np.arange(self.n0 - 1, -1, -1, dtype=np.int64)
        return self.assignment[(x * self.ny + y) @ radix]

    def audit(self) -> dict:
        """Exhaustive mass audit: per-bin masses against the uniform bound."""
        dev = self.max_deviation
        return {
            "n0": self.n0,
            "n": self.n,
            "atoms": int(self.assignment.shape[0]),
            "bin_masses": self.bin_masses.tolist(),
            "max_deviation": dev,
            "bound_p_max": self.p_max,
            "within_bound": bool(dev <= self.p_max + 1e-15),
        }


def default_tail_length(pair_alphabet_size: int, n: int) -> int:
    """Smallest n0 with pair_alphabet**n0 >= n**2 (deviation slack)."""
    if pair_alphabet_size < 2:
        raise ValueError(f"a pair alphabet of size {pair_alphabet_size} cannot simulate "
                         "a seed; it needs at least 2 symbols")
    n0 = 1
    while pair_alphabet_size ** n0 < n * n:
        n0 += 1
    return n0


def build_seed_map(p_xy: JointPmf, n0: int, n: int) -> SeedMap:
    """Greedy least-loaded assignment of tail atoms to seed bins, built one
    probability level at a time.

    A level is the multiset of distinct symbol probabilities that an atom's
    n0 symbols take (``_atom_levels``), so its atoms share one exact
    probability, the product of those symbol probabilities. Levels are
    taken by descending probability (ties by level index) and each is
    poured into the bins as placing its atoms one at a time into the
    lightest bin would (``_pour``), so the final per-bin deviation from 1/n
    is at most the largest atom probability; the bound is asserted, not
    assumed. Within a level, atoms take their bins in index order: the
    first ones go to bin 0, the next ones to bin 1, and so on.
    """
    if n < 1 or n0 < 1:
        raise ValueError(f"n={n} and n0={n0} must both be at least 1")
    flat = np.asarray(p_xy.probs, dtype=np.float64).reshape(-1)
    nx, ny = p_xy.shape
    size = len(flat)
    # from this n0 on, size**n0 >= 2**n0 > _ATOM_CAP: refuse without
    # forming a count that may run to millions of digits
    if size > 1 and (n0 >= _ATOM_CAP.bit_length() or size ** n0 > _ATOM_CAP):
        raise ResourceCapError(f"{size}**{n0} atoms exceed the cap of {_ATOM_CAP}")
    n_atoms = size ** n0
    if n_atoms < n:
        need = default_tail_length(size, n)
        least = 1
        while size ** least < n:
            least += 1
        if size ** least > _ATOM_CAP:
            raise ResourceCapError(
                f"{n} bins need n0 >= {least}, but {size}**{least} atoms exceed the cap "
                f"of {_ATOM_CAP}")
        raise SeedMapError(
            f"{n_atoms} atoms cannot populate {n} bins; need n0 >= {least} "
            f"(default rule gives {need})")

    values, symbols = np.unique(flat, return_inverse=True)
    levels, sizes, key = _atom_levels(symbols.astype(np.min_scalar_type(len(values))), n_atoms)
    level_probs = values[levels].prod(axis=1)
    counts = np.zeros((len(levels), n), dtype=np.int64)
    masses = np.zeros(n)
    for level in np.argsort(-level_probs, kind="stable").tolist():
        p = level_probs[level]
        counts[level] = _pour(masses, sizes[level], p)
        masses += counts[level] * p

    # atoms grouped by level (ties by atom index) take the level's bins in order
    order = np.argsort(key, kind="stable")
    bins = np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), len(levels))
    assignment = np.empty(n_atoms, dtype=np.int64)
    assignment[order] = np.repeat(bins, counts.reshape(-1))

    bin_masses = counts.T @ level_probs
    p_max = float(level_probs.max())
    gap = float(bin_masses.max() - bin_masses.min())
    if gap > p_max + 1e-15:
        raise AssertionError(
            f"greedy guarantee violated: bin gap {gap} exceeds largest atom {p_max}")
    return SeedMap(assignment=assignment, bin_masses=bin_masses, p_max=p_max,
                   n0=n0, n=n, nx=nx, ny=ny)


def _atom_levels(symbols: np.ndarray,
                 n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every level of the atoms of ``symbols`` (each pair symbol's class of
    equal probability), as a sorted row of class indices, the rows in
    lexicographic order; each level's number of atoms; and each atom's
    level index, in the smallest dtype that fits. An atom's level is its
    prefix's with its last symbol's class added, so a level index is a
    table lookup on the prefix's index and the symbol. A one-symbol pair
    has one atom, whose level stays the empty row (probability 1) however
    long the tail."""
    levels, sizes = np.zeros((1, 0), dtype=symbols.dtype), np.ones(1)
    key = np.zeros(1, dtype=np.uint8)
    while key.size < n_atoms:
        grown = np.column_stack([np.repeat(levels, symbols.size, axis=0),
                                 np.tile(symbols, len(levels))])
        levels, ranks = np.unique(np.sort(grown, axis=1), axis=0, return_inverse=True)
        ranks = ranks.reshape(-1)
        sizes = np.bincount(ranks, weights=np.repeat(sizes, symbols.size))
        table = ranks.astype(np.min_scalar_type(len(levels))).reshape(-1, symbols.size)
        key = np.take(table, key, axis=0).reshape(-1)   # faster than table[key]
    return levels, sizes.astype(np.int64), key


def _pour(masses: np.ndarray, k: int, p: float) -> np.ndarray:
    """Per-bin counts of k atoms of probability p placed one at a time into
    the lightest of the bins with the given masses (ties by bin index).

    Those placements are the k smallest (value, bin) pairs among each bin's
    candidates m_b, m_b + p, m_b + 2p, ... The continuous water level over
    the q bins below it gives each of them a share (level - m_b) / p. The
    floors of the shares take candidates smaller than any other and leave
    fewer than q atoms, which go one each to the bins of the lightest next
    candidates (a rounding that leaves n or more gives every bin its whole
    rounds first). The shares are summed from the sorted bin gaps, not
    from the level itself, so atoms too light to move a bin mass (below
    its float spacing) still spread over the lightest bins.
    """
    n = len(masses)
    counts = np.zeros(n, dtype=np.int64)
    # one atom goes to the lightest bin, and so do atoms of p = 0, whose
    # candidates in a bin all tie its mass
    if k == 1 or p == 0.0:
        counts[np.argmin(masses)] = k
        return counts
    order = masses.argsort(kind="stable")
    low = masses[order]
    # deficit[i]: the mass that lifts the i + 1 lightest bins to low[i]
    deficit = np.zeros(n)
    np.cumsum(np.arange(1, n) * (low[1:] - low[:-1]), out=deficit[1:])
    q = int(deficit.searchsorted(k * p))   # bins below the level
    share = (low[q - 1] - low[:q]) / p + (k / q - deficit[q - 1] / (q * p))
    # a share outside [0, k] is rounding; clip before the float becomes an integer
    counts[order[:q]] = share.clip(0, k).astype(np.int64)
    rest = k - int(counts.sum())
    counts += rest // n
    if rest % n:
        counts[(masses + counts * p).argsort(kind="stable")[:rest % n]] += 1
    return counts


def seed_rate_overhead(n: int, n0: int) -> float:
    """Extra bits per symbol each message carries for the simulated seed."""
    return math.log2(n) / (n + n0)


def deterministic_encode(codebook: Codebook, seed_map: SeedMap,
                         x_ext: np.ndarray, y_ext: np.ndarray) -> tuple[EncodeResult, int]:
    """Encode an extended block: the tail simulates the seed, the head is
    encoded with it. Fully deterministic."""
    n, n0 = codebook.n, seed_map.n0
    x = np.asarray(x_ext)
    y = np.asarray(y_ext)
    if x.shape[0] != n + n0 or y.shape[0] != n + n0:
        raise ValueError(f"extended sequences must have length n+n0={n + n0}")
    k_sim = seed_map.seed_for_tail(x[n:], y[n:])
    return encode(codebook, x[:n], y[:n], k_sim), k_sim


def deterministic_decode(codebook: Codebook, s0, s1, s2, k_sim,
                         n0: int) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct an extended block: shift the selected codewords by the
    simulated seed, then copy the first n0 head positions into the tail.
    Takes sequences of blocks as ``decode`` does."""
    seeds = np.atleast_1d(k_sim)
    bad = (seeds < 0) | (seeds >= codebook.n)
    if bad.any():
        i = int(bad.argmax())
        raise IndexError(f"seed {seeds[i]} of block {i} outside [0, {codebook.n - 1}]")
    x_hat, y_hat = decode(codebook, s0, s1, s2, k_sim)
    x_ext = np.concatenate([x_hat, x_hat[..., :n0]], axis=-1)
    y_ext = np.concatenate([y_hat, y_hat[..., :n0]], axis=-1)
    return x_ext, y_ext
