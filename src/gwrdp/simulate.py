"""Monte Carlo verification of the shift-seeded coding scheme.

Builds one code, a ``Codebook`` that holds the encoder's thresholds and
distortion matrices with its layers. Draws i.i.d. source pairs, runs the
three-stage encoder and the lookup decoders (with a uniformly drawn shift
seed, or the simulated seed of the deterministic variant), and
accumulates per-letter distortions, per-position reconstruction marginals
with their perception distances, and encoder miss frequencies. The
report's code sizes and thresholds are the codebook's.

Trials draw from counter-based Philox streams, one per block of 256
trials, keyed by (master seed, block index), so every trial's draws are a
fixed function of the master seed and the trial index. Report contents
are bit-identical between serial and parallel runs: per-trial values are
assembled into trial-indexed arrays and reduced once in a fixed order.
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


# trials that share one random stream and whose draws, decoding and
# statistics run as arrays; the block size fixes every trial's draws, so
# changing it changes every report and needs a version bump
_CHUNK = 256


def _run_trials(config: SimConfig, codebook: Codebook, seed_map: SeedMap | None,
                lo: int, hi: int) -> _TrialBatch:
    """Trials [lo, hi). Trials [256b, 256b + 256) draw from one Philox
    ``Generator`` keyed (master seed, b): first each trial's source
    uniforms, then, in common-randomness mode, each trial's shift seed K.
    A span that starts or ends inside a block draws the whole block and
    keeps its own rows, so a trial's draws do not depend on the span. Each
    block is then encoded, decoded, scored and counted together."""
    n, n0 = config.n, config.tail_length()
    total_len = n + n0
    shared_seed = config.mode == "common-randomness"
    ny = config.p_xy.shape[1]
    # rng.choice(p=) draws uniforms and searches this normalized cdf
    cdf = np.cumsum(np.asarray(config.p_xy.probs).reshape(-1))
    cdf /= cdf[-1]
    deltas = codebook.distortions
    count = hi - lo
    dist = np.empty((2, count))
    head = np.empty((2, count))
    miss = np.empty((3, count), dtype=bool)
    hist = [np.zeros((total_len, d.shape[1]), dtype=np.int64) for d in deltas]
    layers = (codebook.priv_x, codebook.priv_y)
    pages_before = [layer.pages_drawn for layer in layers]
    codewords_before = [layer.codewords_drawn for layer in layers]

    for block in range(lo // _CHUNK, (hi - 1) // _CHUNK + 1):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([config.master_seed, block], dtype=np.uint64)))
        first, stop = max(lo, block * _CHUNK), min(hi, (block + 1) * _CHUNK)
        keep = slice(first - block * _CHUNK, stop - block * _CHUNK)
        u = rng.random((_CHUNK, total_len))[keep]
        ks = rng.integers(0, n, _CHUNK)[keep] if shared_seed else None
        pair = cdf.searchsorted(u, side="right")
        xs, ys = pair // ny, pair % ny
        if not shared_seed:
            ks = seed_map.seeds_for_tails(xs[:, n:], ys[:, n:])
        rows = slice(first - lo, stop - lo)
        s0, s1, s2, miss[:, rows] = encode_batch(codebook, xs[:, :n], ys[:, :n], ks)
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


def _branch_stats(batch: _TrialBatch, codebook: Codebook, b: int,
                  p_source: np.ndarray) -> BranchStats:
    """Statistics of branch b (0 for X, 1 for Y) over all trials of a
    merged batch."""
    dist = batch.dist[b]
    trials, total_len = dist.shape[0], batch.hist[b].shape[0]
    marginals = batch.hist[b] / trials
    halfwidth = wilson_halfwidth(marginals, trials)
    pooled = float(dist.mean())
    # the pooled letters are Bernoulli only under a 0/1 distortion
    is01 = set(np.unique(codebook.distortions[b])) <= {0.0, 1.0}
    return BranchStats(
        threshold=codebook.thresholds[b],
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
    codebook = generate_codebook(q_xyw, config.test_channel_x, config.test_channel_y,
                                 (config.delta_x_mat.values, config.delta_y_mat.values),
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
                bounds[:-1], bounds[1:])))
    else:
        batch = _run_trials(config, codebook, seed_map, 0, trials)
    _log.debug("private pages drawn: x %d (%d codewords), y %d (%d codewords)",
               batch.pages[0], batch.codewords[0], batch.pages[1], batch.codewords[1])

    sources = (config.p_xy.marginal("X").probs, config.p_xy.marginal("Y").probs)
    x, y = (_branch_stats(batch, codebook, b, sources[b]) for b in (0, 1))
    overhead = seed_rate_overhead(config.n, n0) if config.mode == "deterministic" else 0.0
    rates = tuple(math.log2(max(m, 1)) / config.n + overhead for m in codebook.sizes)

    return SimReport(
        mode=config.mode, n=config.n, n0=n0, trials=trials,
        sizes=codebook.sizes, x=x, y=y,
        freq_no_common_codeword=float(batch.miss[0].mean()),
        joint_set_empty=joint_set_empty(codebook.q_xyw, config.n, config.delta),
        rates=rates, seed_overhead=overhead,
        budgets=config.budgets, master_seed=config.master_seed)
