"""Common-randomness removal by source simulation.

A few extra source symbols (the tail of an extended block) are hashed
through a fixed map into a seed value in [0, n-1] whose distribution is
within the largest atom probability of uniform, per bin. The map is built
greedily: atoms (joint tail realizations) are sorted by descending
probability and each is placed into the currently lightest bin, which
bounds the heaviest-lightest gap by the largest atom. The resulting
deterministic code runs the shift-seeded codec with the simulated seed
and extends reconstructions by copying the head prefix into the tail.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .codec import Codebook, EncodeResult, decode, encode
from .prob import JointPmf


class SeedMapError(ValueError):
    """The requested (n0, n) cannot produce a valid seed map."""


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
        the alphabets raise ``ValueError``."""
        x = np.asarray(x_tails).astype(np.int64)
        y = np.asarray(y_tails).astype(np.int64)
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


def build_seed_map(p_xy: JointPmf, n0: int, n: int, *,
                   atom_cap: int = 4_194_304) -> SeedMap:
    """Greedy least-loaded assignment of tail atoms to seed bins.

    Atoms are sorted by descending probability (ties by index) and placed
    into the lightest bin, so the final per-bin deviation from 1/n is at
    most the largest atom probability; the bound is asserted, not assumed.
    """
    if n < 1 or n0 < 1:
        raise ValueError(f"n={n} and n0={n0} must both be at least 1")
    flat = np.asarray(p_xy.probs, dtype=np.float64).reshape(-1)
    nx, ny = p_xy.shape
    n_atoms = len(flat) ** n0
    if n_atoms < n:
        need = default_tail_length(len(flat), n)
        raise SeedMapError(
            f"{n_atoms} atoms cannot populate {n} bins; need n0 >= "
            f"{math.ceil(math.log(n, len(flat)))} (default rule gives {need})")
    if n_atoms > atom_cap:
        raise SeedMapError(f"{n_atoms} atoms exceed the cap of {atom_cap}")

    probs = flat
    for _ in range(n0 - 1):
        probs = np.kron(probs, flat)
    order = np.argsort(-probs, kind="stable")   # ties by atom index

    assignment = np.empty(n_atoms, dtype=np.int64)
    heap = [(0.0, b) for b in range(n)]   # sorted, hence already a heap
    # memoryviews read and write plain Python numbers one at a time, so
    # the loop avoids numpy scalars without a list of every atom
    slots = memoryview(assignment)
    for atom, p in zip(memoryview(order), memoryview(probs[order])):
        mass, b = heap[0]
        slots[atom] = b
        heapq.heapreplace(heap, (mass + p, b))

    masses = np.zeros(n)
    np.add.at(masses, assignment, probs)
    p_max = float(probs.max())
    gap = float(masses.max() - masses.min())
    if gap > p_max + 1e-15:
        raise AssertionError(
            f"greedy guarantee violated: bin gap {gap} exceeds largest atom {p_max}")
    return SeedMap(assignment=assignment, bin_masses=masses, p_max=p_max,
                   n0=n0, n=n, nx=nx, ny=ny)


def seed_rate_overhead(n: int, n0: int) -> float:
    """Extra bits per symbol each message carries for the simulated seed."""
    return math.log2(n) / (n + n0)


def deterministic_encode(codebook: Codebook, seed_map: SeedMap,
                         x_ext: np.ndarray, y_ext: np.ndarray,
                         delta_x: np.ndarray, delta_y: np.ndarray,
                         threshold_x: float, threshold_y: float
                         ) -> tuple[EncodeResult, int]:
    """Encode an extended block: the tail simulates the seed, the head is
    encoded with it. Fully deterministic."""
    n, n0 = codebook.n, seed_map.n0
    x = np.asarray(x_ext)
    y = np.asarray(y_ext)
    if x.shape[0] != n + n0 or y.shape[0] != n + n0:
        raise ValueError(f"extended sequences must have length n+n0={n + n0}")
    k_sim = seed_map.seed_for_tail(x[n:], y[n:])
    enc = encode(codebook, x[:n], y[:n], k_sim, delta_x, delta_y,
                 threshold_x, threshold_y)
    return enc, k_sim


def deterministic_decode(codebook: Codebook, s0, s1, s2, k_sim,
                         n0: int) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct an extended block: shift the selected codewords by the
    simulated seed, then copy the first n0 head positions into the tail.
    Takes sequences of blocks as ``decode`` does."""
    seeds = np.asarray(k_sim)
    if np.any((seeds < 0) | (seeds >= codebook.n)):
        raise IndexError(f"seed {k_sim} outside [0, {codebook.n - 1}]")
    x_hat, y_hat = decode(codebook, s0, s1, s2, k_sim)
    x_ext = np.concatenate([x_hat, x_hat[..., :n0]], axis=-1)
    y_ext = np.concatenate([y_hat, y_hat[..., :n0]], axis=-1)
    return x_ext, y_ext
