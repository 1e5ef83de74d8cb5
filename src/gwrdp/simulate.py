"""Monte Carlo verification of the shift-seeded coding scheme.

Draws i.i.d. source pairs, runs the three-stage encoder and the lookup
decoders (with a uniformly drawn shift seed, or the simulated seed of the
deterministic variant), and accumulates per-letter distortions,
per-position reconstruction marginals with their perception distances,
and encoder miss frequencies.

Trials use counter-based RNG streams keyed by (master seed, trial index),
so report contents are bit-identical between serial and parallel runs:
per-trial values are assembled into trial-indexed arrays and reduced once
in a fixed order. Each trial's stream is Philox4x64-10 keyed (master seed,
trial); one array kernel draws a whole chunk's streams and reproduces
numpy's per-trial Philox ``Generator`` bit for bit.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

# encode and deterministic_encode are not called here; they stay importable
# from this module, where perfbench's layer trace wraps them
from .codec import (
    PAGE_ROWS,
    Codebook,
    ResourceCapError,
    compute_code_sizes,
    decode,
    encode,
    encode_batch,
    generate_codebook,
    joint_set_empty,
)
from .derandom import (
    SeedMap,
    build_seed_map,
    default_tail_length,
    deterministic_decode,
    deterministic_encode,
    seed_rate_overhead,
)
from .prob import AlphabetMismatchError, JointPmf, Kernel
from .region import AuxChannel, Budgets
from .solver import DistortionMatrix, hamming

MODES = ("common-randomness", "deterministic")
DEFAULT_MEMORY_CAP = 2 ** 24   # codeword symbols one process may draw

_log = logging.getLogger(__name__)


def wilson_halfwidth(p_hat: float | np.ndarray, n: int, z: float = 1.96):
    """Half-width of the Wilson score interval for a proportion."""
    denom = 1.0 + z * z / n
    return (z * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))) / denom


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation needs; immutable and picklable."""

    p_xy: JointPmf
    aux: AuxChannel
    test_channel_x: Kernel
    test_channel_y: Kernel
    n: int
    delta: float
    trials: int
    master_seed: int
    budgets: Budgets
    mode: str = "common-randomness"
    n0: int | None = None
    delta_x_mat: DistortionMatrix | None = None
    delta_y_mat: DistortionMatrix | None = None
    memory_cap: int = DEFAULT_MEMORY_CAP

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 2 <= self.n <= 2 ** 32:
            raise ValueError(f"n must lie in [2, 2**32] (shift seeds are 32-bit draws), "
                             f"got {self.n}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "deterministic" and self.n0 is not None and not 1 <= self.n0 <= self.n:
            raise ValueError(f"n0={self.n0} must lie in [1, n={self.n}]: the tail copies "
                             "head positions")
        nx, ny = self.p_xy.shape
        if self.delta_x_mat is None:
            object.__setattr__(self, "delta_x_mat", DistortionMatrix(hamming(nx)))
        if self.delta_y_mat is None:
            object.__setattr__(self, "delta_y_mat", DistortionMatrix(hamming(ny)))
        w = self.aux.w_size
        for b, size, channel, mat in (("x", nx, self.test_channel_x, self.delta_x_mat),
                                      ("y", ny, self.test_channel_y, self.delta_y_mat)):
            if channel.cond_shape != (size, w):
                raise AlphabetMismatchError(
                    f"test_channel_{b} conditions on {channel.cond_shape}, expected "
                    f"({size}, {w}) from the source and auxiliary alphabets")
            if (mat.n_source, mat.n_recon) != (size, channel.out_size):
                raise AlphabetMismatchError(
                    f"distortion_{b} has shape {(mat.n_source, mat.n_recon)}, expected "
                    f"({size}, {channel.out_size}) from the source and test channel")

    def tail_length(self) -> int:
        if self.mode != "deterministic":
            return 0
        if self.n0 is not None:
            return self.n0
        nx, ny = self.p_xy.shape
        return default_tail_length(nx * ny, self.n)


@dataclass(frozen=True)
class BranchStats:
    """Monte Carlo statistics of one branch (X or Y) of a simulation."""

    threshold: float             # encoder's per-letter distortion threshold
    mean_distortion: float
    mean_distortion_head: float  # first-n positions only (equals the full
                                 # mean in common-randomness mode)
    stderr_distortion: float
    distortion_wilson: float     # pooled-letter Wilson half-width
    freq_no_codeword: float      # private-layer scans that missed
    marginals: np.ndarray        # (positions, |X|) estimated reconstruction pmfs
    marginal_halfwidth: np.ndarray
    tv: np.ndarray               # per-position TV to the source marginal
    tv_interval: np.ndarray      # conservative per-position interval

    def max_tv_excess(self, p_budget: float) -> float:
        return float((self.tv - p_budget).max())

    def to_dict(self, branch: str) -> dict:
        """Fields keyed as in the report files: ``<field>_x``, and
        ``freq_no_x_codeword`` for the miss frequency."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            key = (f"freq_no_{branch}_codeword" if f.name == "freq_no_codeword"
                   else f"{f.name}_{branch}")
            out[key] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


@dataclass(frozen=True)
class SimReport:
    """Aggregated Monte Carlo statistics for one configuration."""

    mode: str
    n: int
    n0: int
    trials: int
    sizes: tuple[int, int, int]
    x: BranchStats
    y: BranchStats
    freq_no_common_codeword: float
    joint_set_empty: bool        # no (x, y, w) count vector fits the joint
                                 # band: every common scan misses
    rates: tuple[float, float, float]
    seed_overhead: float
    budgets: Budgets
    master_seed: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "n": self.n, "n0": self.n0, "trials": self.trials,
            "sizes": list(self.sizes),
            **self.x.to_dict("x"), **self.y.to_dict("y"),
            "freq_no_common_codeword": self.freq_no_common_codeword,
            "joint_set_empty": self.joint_set_empty,
            "rates": list(self.rates),
            "seed_overhead": self.seed_overhead,
            "budgets": self.budgets.as_dict(),
            "master_seed": self.master_seed,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["row", "position", "tv_x", "tv_interval_x", "tv_y", "tv_interval_y"])
        for t in range(self.x.tv.shape[0]):
            w.writerow(["position", t] + [f"{v:.6g}" for v in
                        (self.x.tv[t], self.x.tv_interval[t],
                         self.y.tv[t], self.y.tv_interval[t])])
        w.writerow(["summary", "", f"{self.x.mean_distortion:.6g}",
                    f"{self.y.mean_distortion:.6g}",
                    f"{self.freq_no_common_codeword:.6g}",
                    f"{self.rates[0]:.6g}"])
        return buf.getvalue()


def encoder_thresholds(q_xyw: JointPmf, tc_x: Kernel, tc_y: Kernel,
                       delta_x: np.ndarray, delta_y: np.ndarray,
                       delta: float) -> tuple[float, float]:
    """Per-letter distortion thresholds: achieved expected distortion of
    each test channel plus delta/2."""
    p = np.asarray(q_xyw.probs)
    q_sw = (p.sum(axis=1), p.sum(axis=0))   # (X, W) and (Y, W)
    return tuple(
        float(np.einsum("swh,sh->", q[:, :, None] * tc.probs, np.asarray(d))) + delta / 2.0
        for q, tc, d in zip(q_sw, (tc_x, tc_y), (delta_x, delta_y)))


@dataclass
class _TrialBatch:
    """Per-trial results of trials [lo, hi); the first axis of ``dist``,
    ``head`` and ``hist`` is the branch (X, then Y)."""

    dist: np.ndarray             # (2, trials) per-letter distortion
    head: np.ndarray             # (2, trials) over the first n positions
    miss: np.ndarray             # (3, trials) common, X and Y scan misses
    hist: list[np.ndarray]       # per branch (positions, |X|) symbol counts
    pages: tuple[int, int]       # private pages (x, y) this batch's process drew
    codewords: tuple[int, int]   # and the codewords on them

    @classmethod
    def merge(cls, batches: list["_TrialBatch"]) -> "_TrialBatch":
        return cls(dist=np.concatenate([b.dist for b in batches], axis=1),
                   head=np.concatenate([b.head for b in batches], axis=1),
                   miss=np.concatenate([b.miss for b in batches], axis=1),
                   hist=[sum(h) for h in zip(*(b.hist for b in batches))],
                   pages=tuple(map(sum, zip(*(b.pages for b in batches)))),
                   codewords=tuple(map(sum, zip(*(b.codewords for b in batches)))))


_CHUNK = 256   # trials whose draws, decoding and statistics run as arrays

_LO32 = np.uint64(0xFFFFFFFF)
# Philox4x64 round multipliers and key bumps (Salmon et al., SC 2011)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _mulhi(a, b):
    """High 64 bits of the 128-bit product of uint64s, from 32-bit halves."""
    a0, a1, b0, b1 = a & _LO32, a >> 32, b & _LO32, b >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (t >> 32) + ((t & _LO32) + a0 * b1 >> 32)


def _philox_words(seed: int, trials: np.ndarray, blocks) -> np.ndarray:
    """Philox4x64-10 keyed (seed, t) for each trial t (rows) at each
    counter (b, 0, 0, 0) of ``blocks``: shape (trials, 4 * blocks), uint64.
    Counter b gives outputs 4(b - 1) .. 4b - 1 of numpy's Philox keyed (seed, t)."""
    c0 = np.asarray(blocks, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = np.uint64(seed), np.asarray(trials, dtype=np.uint64)[:, None]
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0, k1 = k0 + w0, k1 + w1
            c0, c1, c2, c3 = _mulhi(m1, c2) ^ c1 ^ k0, m1 * c2, _mulhi(m0, c0) ^ c3 ^ k1, m0 * c0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(k1.shape[0], -1)


def _trial_draws(seed: int, lo: int, hi: int, total_len: int,
                 n: int | None) -> tuple[np.ndarray, np.ndarray | None]:
    """What trials [lo, hi) draw from their streams: ``total_len``
    uniforms each, as ``Generator.random``, then (unless n is None) a
    shift seed K as ``Generator.integers(0, n)``, numpy's 32-bit Lemire
    draw over the stream's next uint32s (each word's low half first)."""
    trials = np.arange(lo, hi, dtype=np.uint64)
    words = _philox_words(seed, trials, np.arange(1, total_len // 4 + 2))
    u = (words[:, :total_len] >> 11) * 2.0 ** -53
    if n is None:
        return u, None
    limit = (2 ** 32 - n) % n
    m = (words[:, total_len] & _LO32) * np.uint64(n)
    redo = np.flatnonzero(m & _LO32 < limit)
    half = 2 * total_len + 1   # the next uint32 in each stream
    while redo.size:
        i = half // 2
        word = _philox_words(seed, trials[redo], [i // 4 + 1])[:, i % 4]
        m[redo] = (word >> np.uint64(32 * (half % 2)) & _LO32) * np.uint64(n)
        redo = redo[m[redo] & _LO32 < limit]
        half += 1
    return u, (m >> 32).astype(np.int64)


def _run_trials(config: SimConfig, codebook: Codebook, seed_map: SeedMap | None,
                thr_x: float, thr_y: float, lo: int, hi: int) -> _TrialBatch:
    """Trials [lo, hi). Each trial draws from its own Philox stream keyed
    (master seed, trial); one kernel draws a whole chunk's streams, bit for
    bit as numpy's per-trial ``Generator`` would, and the chunk is then
    encoded, decoded, scored and counted together."""
    n, n0 = config.n, config.tail_length()
    total_len = n + n0
    shared_seed = config.mode == "common-randomness"
    ny = config.p_xy.shape[1]
    # rng.choice(p=) draws uniforms and searches this normalized cdf
    cdf = np.cumsum(np.asarray(config.p_xy.probs).reshape(-1))
    cdf /= cdf[-1]
    dx, dy = deltas = (config.delta_x_mat.values, config.delta_y_mat.values)
    count = hi - lo
    dist = np.empty((2, count))
    head = np.empty((2, count))
    miss = np.empty((3, count), dtype=bool)
    hist = [np.zeros((total_len, d.shape[1]), dtype=np.int64) for d in deltas]
    layers = (codebook.priv_x, codebook.priv_y)
    pages_before = [layer.pages_drawn for layer in layers]
    codewords_before = [layer.codewords_drawn for layer in layers]

    for start in range(lo, hi, _CHUNK):
        stop = min(start + _CHUNK, hi)
        u, ks = _trial_draws(config.master_seed, start, stop, total_len,
                             n if shared_seed else None)
        pair = cdf.searchsorted(u, side="right")
        xs, ys = pair // ny, pair % ny
        if not shared_seed:
            ks = seed_map.seeds_for_tails(xs[:, n:], ys[:, n:])
        rows = slice(start - lo, stop - lo)
        s0, s1, s2, miss[:, rows] = encode_batch(codebook, xs[:, :n], ys[:, :n], ks,
                                                 dx, dy, thr_x, thr_y)
        if shared_seed:
            hats = decode(codebook, s0, s1, s2, ks)
        else:
            hats = deterministic_decode(codebook, s0, s1, s2, ks, n0)
        for b, (d, src, hat) in enumerate(zip(deltas, (xs, ys), hats)):
            dist[b, rows] = d[src, hat].mean(axis=1)
            head[b, rows] = d[src[:, :n], hat[:, :n]].mean(axis=1)
            cells = np.arange(total_len) * hist[b].shape[1] + hat
            hist[b] += np.bincount(cells.ravel(), minlength=hist[b].size).reshape(hist[b].shape)
    return _TrialBatch(
        dist, head, miss, hist,
        pages=tuple(layer.pages_drawn - b for layer, b in zip(layers, pages_before)),
        codewords=tuple(layer.codewords_drawn - b for layer, b in zip(layers, codewords_before)))


def _branch_stats(batch: _TrialBatch, b: int, threshold: float, p_source: np.ndarray,
                  delta_mat: np.ndarray) -> BranchStats:
    """Statistics of branch b (0 for X, 1 for Y) over all trials of a
    merged batch."""
    dist = batch.dist[b]
    trials, total_len = dist.shape[0], batch.hist[b].shape[0]
    marginals = batch.hist[b] / trials
    halfwidth = wilson_halfwidth(marginals, trials)
    pooled = float(dist.mean())
    # the pooled letters are Bernoulli only under a 0/1 distortion
    is01 = set(np.unique(delta_mat)) <= {0.0, 1.0}
    return BranchStats(
        threshold=threshold,
        mean_distortion=pooled,
        mean_distortion_head=float(batch.head[b].mean()),
        stderr_distortion=float(dist.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        distortion_wilson=(float(wilson_halfwidth(pooled, trials * total_len))
                           if is01 else float("nan")),
        freq_no_codeword=float(batch.miss[1 + b].mean()),
        marginals=marginals,
        marginal_halfwidth=halfwidth,
        tv=np.abs(marginals - p_source[None, :]).sum(axis=1),
        tv_interval=halfwidth.sum(axis=1))


def run_simulation(config: SimConfig, parallel: int = 1) -> SimReport:
    """Run all trials and aggregate; deterministic for a fixed master seed
    and independent of the parallelism degree."""
    q_xyw = config.p_xy.extend(config.aux.kernel, "W")
    sizes = compute_code_sizes(q_xyw, config.test_channel_x, config.test_channel_y,
                               config.n, config.delta)
    # the common layer and one page per branch are the least any trial draws
    first_symbols = (sizes.m0 + min(sizes.m1, PAGE_ROWS) + min(sizes.m2, PAGE_ROWS)) * config.n
    if first_symbols > config.memory_cap:
        raise ResourceCapError(
            f"codebook needs at least {first_symbols} symbols, cap is {config.memory_cap}; "
            f"raise memory_cap or reduce n/delta")

    deltas = (config.delta_x_mat.values, config.delta_y_mat.values)
    thresholds = encoder_thresholds(q_xyw, config.test_channel_x, config.test_channel_y,
                                    *deltas, config.delta)
    codebook = generate_codebook(q_xyw, config.test_channel_x, config.test_channel_y,
                                 sizes, config.delta, config.n, config.master_seed,
                                 memory_cap=config.memory_cap)
    n0 = config.tail_length()
    seed_map = (build_seed_map(config.p_xy, n0, config.n)
                if config.mode == "deterministic" else None)

    trials = config.trials
    if parallel > 1:
        # distinct bounds, so every worker gets a nonempty span
        bounds = np.unique(np.linspace(0, trials, parallel + 1).astype(int)).tolist()
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            batch = _TrialBatch.merge(list(pool.map(
                _run_trials, repeat(config), repeat(codebook), repeat(seed_map),
                repeat(thresholds[0]), repeat(thresholds[1]), bounds[:-1], bounds[1:])))
    else:
        batch = _run_trials(config, codebook, seed_map, *thresholds, 0, trials)
    _log.debug("private pages drawn: x %d (%d codewords), y %d (%d codewords)",
               batch.pages[0], batch.codewords[0], batch.pages[1], batch.codewords[1])

    sources = (config.p_xy.marginal("X").probs, config.p_xy.marginal("Y").probs)
    x, y = (_branch_stats(batch, b, thresholds[b], sources[b], deltas[b]) for b in (0, 1))
    overhead = seed_rate_overhead(config.n, n0) if config.mode == "deterministic" else 0.0
    rates = tuple(math.log2(max(m, 1)) / config.n + overhead
                  for m in (sizes.m0, sizes.m1, sizes.m2))

    return SimReport(
        mode=config.mode, n=config.n, n0=n0, trials=trials,
        sizes=(sizes.m0, sizes.m1, sizes.m2), x=x, y=y,
        freq_no_common_codeword=float(batch.miss[0].mean()),
        joint_set_empty=joint_set_empty(codebook.q_xyw, config.n, config.delta),
        rates=rates, seed_overhead=overhead,
        budgets=config.budgets, master_seed=config.master_seed)
