"""Common-randomness removal by source simulation.

A few extra source symbols (the tail of an extended block) are hashed
through a fixed map into a seed value in [0, n-1] whose distribution is
within the largest atom probability of uniform, per bin. The map is built
greedily: atoms (joint tail realizations) are taken by descending
probability and each is placed into the currently lightest bin, which
bounds the heaviest-lightest gap by the largest atom. The order is a
stable integer sort of the atoms' exact ranks among their ``np.kron``
floats, so it builds no per-atom probability array. A run of atoms of
equal probability (a DSBS's 4**10 atoms take only 11 probabilities) is
placed in one numpy step; short runs, and runs whose candidate table
would be large, go through the heap loop instead. Either way the map is
the one the heap loop over every atom gives. The resulting deterministic
code runs the shift-seeded codec with the simulated seed and extends
reconstructions by copying the head prefix into the tail.
"""

from __future__ import annotations

import heapq
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
    """Greedy least-loaded assignment of tail atoms to seed bins.

    Atoms are taken by descending probability (ties by index) and placed
    into the lightest bin (ties by bin index), so the final per-bin
    deviation from 1/n is at most the largest atom probability; the bound
    is asserted, not assumed. The order is a stable integer sort of the
    atoms' exact ranks among their ``np.kron`` floats
    (``_ranked_atom_floats``), so it builds no per-atom probability array.
    A run of atoms with equal probability is placed in one numpy step
    (``_place_run_in_bulk``) when it has at least ``_MIN_BULK_RUN + n``
    atoms and its candidate table at most ``_BULK_TABLE_FACTOR`` entries
    per atom; the heap loop places every other atom. The assignment, and
    hence ``bin_masses``, equal those of the heap loop over every atom.
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
        raise SeedMapError(
            f"{n_atoms} atoms cannot populate {n} bins; need n0 >= {least} "
            f"(default rule gives {need})")

    values, key = _ranked_atom_floats(flat, n_atoms)
    counts = np.bincount(key)
    order = np.argsort(key, kind="stable")   # ties by atom index
    bounds = np.r_[0, np.cumsum(counts)]
    long = np.flatnonzero(counts >= _MIN_BULK_RUN + n)
    runs = list(zip(bounds[long].tolist(), bounds[long + 1].tolist(), values[long].tolist()))

    assignment = np.empty(n_atoms, dtype=np.int64)
    heap = [(0.0, b) for b in range(n)]   # sorted, hence already a heap
    done = 0   # the atoms order[:done] are placed
    for lo, hi, p in runs:
        _place_by_heap(heap, order[done:lo], values, key, assignment)
        placed = _place_run_in_bulk(heap, order[lo:hi], p, assignment)
        if placed is None:
            done = lo
        else:
            heap, done = placed, hi
    _place_by_heap(heap, order[done:], values, key, assignment)
    del order

    masses = np.zeros(n)
    np.add.at(masses, assignment, values[key])
    p_max = float(values[0])
    gap = float(masses.max() - masses.min())
    if gap > p_max + 1e-15:
        raise AssertionError(
            f"greedy guarantee violated: bin gap {gap} exceeds largest atom {p_max}")
    return SeedMap(assignment=assignment, bin_masses=masses, p_max=p_max,
                   n0=n0, n=n, nx=nx, ny=ny)


# A run goes through the bulk step only when its candidate table holds at
# most this many entries per atom; a larger table (short runs, or atoms too
# small to move the bin masses) costs more than the heap loop. On the
# 4**10-atom DSBS(0.25) map with n = 32, factors 2 to 16 gave the same map
# at about the same speed.
_BULK_TABLE_FACTOR = 4
# Nor when the run has fewer than this many atoms plus one per bin: the
# bulk step costs about 30 us plus 0.6 us per bin whatever the run's
# length, the heap loop about 0.5 us per atom.
_MIN_BULK_RUN = 64


def _ranked_atom_floats(flat: np.ndarray, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct atom floats of ``np.kron`` powers of ``flat``,
    descending, and each atom's rank among them in the smallest dtype that
    fits. np.kron makes an atom's float its prefix's times its last
    symbol's, so a rank is a table lookup on the prefix's rank and the
    symbol. Symbol counts would not do: rounding splits and merges them."""
    # values holds negated floats, which round as the floats do and which
    # np.unique sorts into descending probability; the empty prefix is 1
    values, key = -np.ones(1), np.zeros(1, dtype=np.uint8)
    while key.size < n_atoms:
        products = np.multiply.outer(values, flat)
        values, ranks = np.unique(products, return_inverse=True)
        table = ranks.astype(np.min_scalar_type(len(values))).reshape(products.shape)
        key = table[key].reshape(-1)
    return -values, key


def _place_by_heap(heap: list, atoms: np.ndarray, values: np.ndarray, key: np.ndarray,
                   assignment: np.ndarray) -> None:
    """Place atoms one at a time, in the given order, each into the
    lightest bin of ``heap`` (ties by bin index), updating it in place;
    atom a has probability values[key[a]]."""
    slots = memoryview(assignment)
    # memoryviews read and write plain Python numbers one at a time, so
    # the loop avoids numpy scalars without a list of every atom
    for atom, p in zip(memoryview(atoms), memoryview(values[key[atoms]])):
        mass, b = heap[0]
        slots[atom] = b
        heapq.heapreplace(heap, (mass + p, b))


def _place_run_in_bulk(heap: list, atoms: np.ndarray, p: float,
                       assignment: np.ndarray) -> list | None:
    """Place a run of atoms of probability p as popping each from ``heap``
    would, in one step; return the heap after the run, or None, with
    nothing changed, when the run's candidate table would be too large.

    The heap's k pops for the run are the k smallest (mass, bin) pairs
    among each bin's candidates m_b, m_b + p, (m_b + p) + p, ...: a
    row-wise cumsum makes the same float adds, and a stable argsort of the
    bin-major table breaks ties by bin. The i-th atom takes the bin of the
    i-th smallest candidate.
    """
    k, n = len(atoms), len(heap)
    masses, bins = zip(*heap)
    loads = np.empty(n)
    loads[list(bins)] = masses
    top = max(masses)
    # every float add of p moves a mass by p - u/2 to p + u/2, so a bin
    # takes at most k//n + bound + 1 atoms; when an add may leave a mass
    # unchanged (step <= 0), a bin may take all k
    u = float(np.spacing(2 * (top + k * p)))
    step = p - u / 2
    bound = (top - heap[0][0] + k // n * u) / step if step > 0 else math.inf
    c = k if bound >= k else min(k, -(-k // n) + math.ceil(bound) + 2)
    if n * c > _BULK_TABLE_FACTOR * k:
        return None
    table = np.empty((n, c))
    table[:, 0] = loads
    table[:, 1:] = p
    np.cumsum(table, axis=1, out=table)
    picks = table.reshape(-1).argsort(kind="stable")[:k] // c
    counts = np.bincount(picks, minlength=n)
    if counts.max() >= c and c < k:
        raise AssertionError(
            f"seed-map run of {k} atoms filled all {c} candidates of a bin")
    assignment[atoms] = picks
    hit = counts > 0
    loads[hit] = table[hit, counts[hit] - 1] + p
    return sorted(zip(loads.tolist(), range(n)))


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
