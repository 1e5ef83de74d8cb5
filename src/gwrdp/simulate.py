"""Monte Carlo verification of the shift-seeded coding scheme.

Builds one code, a ``Codebook`` that holds the encoder's thresholds and
distortion matrices with its layers. Draws i.i.d. source pairs, runs the
three-stage encoder and the lookup decoders (with a uniformly drawn shift
seed, or the simulated seed of the deterministic variant), and
accumulates per-letter distortions, per-position reconstruction marginals
with their perception distances, and encoder miss frequencies. The
report's code sizes and thresholds are the codebook's.

Every trial runs in the calling process. Trials draw from counter-based
Philox streams, one per block of 256 trials, keyed by (master seed, block
index), so every trial's draws are a fixed function of the master seed
and the trial index. A pass of up to 16 blocks is encoded, decoded and
scored together, so each codebook block is scanned once per pass.
Per-trial values go into trial-indexed arrays, reduced once in order.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

# encode and deterministic_encode are not called here; they stay importable
# from this module, where perfbench's layer trace wraps them, as does
# ResourceCapError, which the CLI catches
from .codec import (
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
DEFAULT_MEMORY_CAP = 2 ** 24   # codeword symbols one simulation may draw

_log = logging.getLogger(__name__)


def wilson_halfwidth(p_hat: float | np.ndarray, n: int, z: float = 1.96):
    """Half-width of the Wilson score interval for a proportion."""
    denom = 1.0 + z * z / n
    return (z * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))) / denom


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation needs; immutable."""

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
        if self.memory_cap < 1:
            raise ValueError(f"memory_cap must be at least 1, got {self.memory_cap}")
        if not 2 <= self.n <= 2 ** 32:
            raise ValueError(f"n must lie in [2, 2**32], got {self.n}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.n0 is not None and not 1 <= self.n0 <= self.n:
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


# trials that share one random stream; the block size fixes every trial's
# draws, so changing it changes every report and needs a version bump
_CHUNK = 256
_PASS = 16 * _CHUNK   # trials encoded together; any multiple of _CHUNK gives the same outputs


def _run_trials(config: SimConfig, codebook: Codebook, seed_map: SeedMap | None):
    """Every trial, as per-trial arrays: ``dist`` and ``head`` (2, trials),
    the per-letter distortion over all positions and over the first n,
    branch X then Y; ``miss`` (3, trials), the common, X and Y scan misses;
    ``hist``, per branch the (positions, |X|) reconstruction symbol counts.
    Trials [256b, 256b + 256) draw from one Philox ``Generator`` keyed
    (master seed, b): first each trial's source uniforms, then, in
    common-randomness mode, each trial's shift seed K. The last block draws
    whole and keeps its own rows. A pass of up to 16 blocks is encoded,
    decoded, scored and counted together, its source symbols held in the
    narrowest unsigned dtype of the pair alphabet."""
    n, n0, trials = config.n, config.tail_length(), config.trials
    total_len = n + n0
    shared_seed = config.mode == "common-randomness"
    ny = config.p_xy.shape[1]
    # rng.choice(p=) draws uniforms and searches this normalized cdf
    cdf = np.cumsum(np.asarray(config.p_xy.probs).reshape(-1))
    cdf /= cdf[-1]
    deltas = codebook.distortions
    dist = np.empty((2, trials))
    head = np.empty((2, trials))
    miss = np.empty((3, trials), dtype=bool)
    hist = [np.zeros((total_len, d.shape[1]), dtype=np.int64) for d in deltas]

    for first in range(0, trials, _PASS):
        rows = slice(first, min(trials, first + _PASS))
        pair = np.empty((rows.stop - first, total_len), dtype=np.min_scalar_type(cdf.size))
        ks = np.empty(len(pair), dtype=np.int64)
        for a in range(0, len(pair), _CHUNK):
            rng = np.random.Generator(np.random.Philox(
                key=np.array([config.master_seed, (first + a) // _CHUNK], dtype=np.uint64)))
            u = rng.random((_CHUNK, total_len))[:len(pair) - a]
            pair[a:a + _CHUNK] = cdf.searchsorted(u, side="right")
            if shared_seed:
                ks[a:a + _CHUNK] = rng.integers(0, n, _CHUNK)[:len(pair) - a]
        xs, ys = pair // ny, pair % ny
        if not shared_seed:
            ks = seed_map.seeds_for_tails(xs[:, n:], ys[:, n:])
        s0, s1, s2, miss[:, rows] = encode_batch(codebook, xs[:, :n], ys[:, :n], ks)
        if shared_seed:
            hats = decode(codebook, s0, s1, s2, ks)
        else:
            hats = deterministic_decode(codebook, s0, s1, s2, ks, n0)
        for b, (d, src, hat) in enumerate(zip(deltas, (xs, ys), hats)):
            # one gather from the flat matrix by cell codes in the narrowest
            # dtype of its size, which indexing casts in buffers (np.take
            # would copy them whole to intp); codes and gather are freed
            # before the counts' (T, positions) cells
            cell = np.multiply(src, d.shape[1], dtype=np.min_scalar_type(d.size))
            cell += hat
            per = d.ravel()[cell]
            del cell
            dist[b, rows] = per.mean(axis=1)
            head[b, rows] = per[:, :n].mean(axis=1)
            del per
            cells = np.arange(total_len) * hist[b].shape[1] + hat
            hist[b] += np.bincount(cells.ravel(), minlength=hist[b].size).reshape(hist[b].shape)
    return dist, head, miss, hist


def _branch_stats(codebook: Codebook, b: int, p_source: np.ndarray, dist: np.ndarray,
                  head: np.ndarray, miss: np.ndarray, hist: np.ndarray) -> BranchStats:
    """Statistics of branch b (0 for X, 1 for Y) from its rows of
    ``_run_trials``' arrays."""
    trials, total_len = dist.shape[0], hist.shape[0]
    marginals = hist / trials
    halfwidth = wilson_halfwidth(marginals, trials)
    pooled = float(dist.mean())
    # the pooled letters are Bernoulli only under a 0/1 distortion
    is01 = set(np.unique(codebook.distortions[b])) <= {0.0, 1.0}
    return BranchStats(
        threshold=codebook.thresholds[b],
        mean_distortion=pooled,
        mean_distortion_head=float(head.mean()),
        stderr_distortion=float(dist.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        distortion_wilson=(float(wilson_halfwidth(pooled, trials * total_len))
                           if is01 else float("nan")),
        freq_no_codeword=float(miss.mean()),
        marginals=marginals,
        marginal_halfwidth=halfwidth,
        tv=np.abs(marginals - p_source[None, :]).sum(axis=1),
        tv_interval=halfwidth.sum(axis=1))


def run_simulation(config: SimConfig) -> SimReport:
    """Run all trials in this process and aggregate; deterministic for a
    fixed master seed."""
    q_xyw = config.p_xy.extend(config.aux.kernel, "W")
    sizes = compute_code_sizes(q_xyw, config.test_channel_x, config.test_channel_y,
                               config.n, config.delta)
    codebook = generate_codebook(q_xyw, config.test_channel_x, config.test_channel_y,
                                 (config.delta_x_mat.values, config.delta_y_mat.values),
                                 sizes, config.delta, config.n, config.master_seed,
                                 memory_cap=config.memory_cap)
    n0 = config.tail_length()
    seed_map = (build_seed_map(config.p_xy, n0, config.n)
                if config.mode == "deterministic" else None)

    dist, head, miss, hist = _run_trials(config, codebook, seed_map)
    layers = (codebook.common, codebook.priv_x, codebook.priv_y)
    _log.debug("pages drawn: common %d (%d codewords), x %d (%d codewords), "
               "y %d (%d codewords); scan multiply-adds: common %d, x %d, y %d",
               *(v for layer in layers for v in (layer.pages_drawn, layer.codewords_drawn)),
               *(layer.multiply_adds for layer in layers))

    sources = (config.p_xy.marginal("X").probs, config.p_xy.marginal("Y").probs)
    x, y = (_branch_stats(codebook, b, sources[b], dist[b], head[b], miss[1 + b], hist[b])
            for b in (0, 1))
    overhead = seed_rate_overhead(config.n, n0) if config.mode == "deterministic" else 0.0
    rates = tuple(math.log2(max(m, 1)) / config.n + overhead for m in codebook.sizes)

    return SimReport(
        mode=config.mode, n=config.n, n0=n0, trials=config.trials,
        sizes=codebook.sizes, x=x, y=y,
        freq_no_common_codeword=float(miss[0].mean()),
        joint_set_empty=joint_set_empty(codebook.q_xyw, config.n, config.delta),
        rates=rates, seed_overhead=overhead,
        budgets=config.budgets, master_seed=config.master_seed)
