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
atoms of a level take their bins in index order. No sort finds that
order: an atom index reads the first tail symbol as its most significant
digit, so the atoms s + b (a first symbol s before a shorter tail b) of a
level are, in index order, those with a smaller first symbol and then
the level's own atoms under s, ranked as their tails b are. An atom's
rank within its level is therefore its tail's rank plus an entry of a
small (levels, symbols) table, and the map is gathered from tables and
the ranks of tails a few symbols shorter, a block of atoms at a time.
The resulting deterministic code runs the shift-seeded codec with the
simulated seed and extends reconstructions by copying the head prefix
into the tail.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .codec import Codebook, EncodeResult, ResourceCapError, decode, encode
from .prob import JointPmf

_ATOM_CAP = 4_194_304  # most tail atoms a seed map enumerates: 2**22 = 4**11
_BLOCK = 16_384  # most atoms whose seeds the map gathers at once

_log = logging.getLogger(__name__)


class SeedMapError(ValueError):
    """A tail of n0 symbols has fewer atoms than the n seed bins."""


@dataclass(frozen=True, eq=False)
class SeedMap:
    """Assignment of every length-n0 joint tail realization to a seed bin."""

    assignment: np.ndarray   # (pair_alphabet ** n0,) in the narrowest unsigned dtype of n-1
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
        # int64, whatever the map's dtype: the codec negates seeds
        return self.assignment[(x * self.ny + y) @ radix].astype(np.int64)

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
    first ones go to bin 0, the next ones to bin 1, and so on. Logs one
    DEBUG record to the ``gwrdp.derandom`` logger: atoms, levels poured,
    the largest deviation and its bound.
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
    levels, sizes, steps = _atom_levels(symbols.astype(np.min_scalar_type(len(values))),
                                        n0 if size > 1 else 1)
    level_probs = values[levels].prod(axis=1)
    counts = np.zeros((len(levels), n), dtype=np.int64)
    masses = np.zeros(n)
    for level in np.argsort(-level_probs, kind="stable").tolist():
        p = level_probs[level]
        counts[level] = _pour(masses, sizes[level], p)
        masses += counts[level] * p

    bin_masses = counts.T @ level_probs
    p_max = float(level_probs.max())
    gap = float(bin_masses.max() - bin_masses.min())
    if gap > p_max + 1e-15:
        raise AssertionError(
            f"greedy guarantee violated: bin gap {gap} exceeds largest atom {p_max}")
    bins = np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), len(levels))
    seed_map = SeedMap(assignment=_gather(steps, sizes, np.repeat(bins, counts.reshape(-1))),
                       bin_masses=bin_masses, p_max=p_max, n0=n0, n=n, nx=nx, ny=ny)
    _log.debug("seed map: %d atoms, %d levels poured; max deviation %.6e, bound %.6e",
               n_atoms, len(levels), seed_map.max_deviation, p_max)
    return seed_map


def _atom_levels(symbols: np.ndarray,
                 n0: int) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Every level of the length-n0 atoms of ``symbols`` (each pair
    symbol's class of equal probability), as a sorted row of class
    indices, the rows in lexicographic order; each level's number of
    atoms; and per tail length i < n0, the (levels of length i, symbols)
    tables of prepending a symbol s to a tail of each level: the level of
    the longer tail, and how many atoms of that level have a first symbol
    below s. A one-symbol pair has one atom whatever n0, which one step
    builds."""
    width = symbols.size
    levels, sizes = np.zeros((1, 0), dtype=symbols.dtype), np.ones(1, dtype=np.int64)
    steps = []
    for _ in range(n0):
        grown = np.column_stack([np.repeat(levels, width, axis=0),
                                 np.tile(symbols, len(levels))])
        levels, table = np.unique(np.sort(grown, axis=1), axis=0, return_inverse=True)
        table = table.reshape(-1, width)
        # a symbol added to distinct levels gives distinct levels, so each
        # longer level takes its atoms under s from at most one shorter
        # level: with the (s, shorter level) pairs grouped stably by longer
        # level, the atoms below s are a running sum within the group
        longer, weight = table.T.reshape(-1), np.tile(sizes, width)
        sizes = np.bincount(longer, weights=weight, minlength=len(levels)).astype(np.int64)
        order = np.argsort(longer, kind="stable")
        longer, weight = longer[order], weight[order]
        before = np.empty_like(longer)
        before[order] = np.cumsum(weight) - weight - (np.cumsum(sizes) - sizes)[longer]
        steps.append((table, before.reshape(width, -1).T))
    return levels, sizes, steps


def _gather(steps: list[tuple[np.ndarray, np.ndarray]], sizes: np.ndarray,
            by_position: np.ndarray) -> np.ndarray:
    """Every atom's bin: ``by_position`` holds the bins of each level's
    atoms in index order, the levels one after another, so an atom's bin
    sits at its level's offset plus its rank within the level.

    The atoms are split into a head and a tail of at most ``_BLOCK``
    atoms. Every tail's level and rank come from prepending its symbols
    one at a time (``_atom_levels``' tables); the heads' symbols, taken
    off from the last, turn the level offsets into a (heads, tail levels)
    table of starts. An atom's position is then its head's start for its
    tail's level plus its tail's rank, gathered a block of heads at a
    time: the map and ``by_position``, in the bins' dtype, are the only
    per-atom arrays."""
    width = steps[0][0].shape[1]
    cut = len(steps)
    while width ** cut > _BLOCK:
        cut -= 1
    key = rank = np.zeros(1, dtype=np.intp)
    for table, before in steps[:cut]:
        # a longer tail's index puts its first symbol before the tail's, so
        # the (symbols, tails) arrays raveled are in index order
        key, rank = (np.take(table.T, key, axis=1).reshape(-1),
                     (np.take(before.T, key, axis=1) + rank).reshape(-1))
    start = (np.cumsum(sizes) - sizes)[None]
    for table, before in reversed(steps[cut:]):
        # a tail of level l under the head h + s is a tail of level
        # table[l, s] under h, after that level's atoms whose first symbol
        # is below s
        start = (start[:, table] + before).transpose(0, 2, 1).reshape(-1, len(table))
    assignment = np.empty((len(start), key.size), dtype=by_position.dtype)
    per = _BLOCK // key.size
    for h in range(0, len(start), per):
        at = np.take(start[h:h + per], key, axis=1)
        at += rank
        np.take(by_position, at, out=assignment[h:h + per], mode="clip")
    return assignment.reshape(-1)


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
