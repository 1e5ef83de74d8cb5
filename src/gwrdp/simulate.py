"""Monte Carlo verification of the shift-seeded coding scheme.

Draws i.i.d. source pairs, runs the three-stage encoder and the lookup
decoders (with a uniformly drawn shift seed, or the simulated seed of the
deterministic variant), and accumulates per-letter distortions,
per-position reconstruction marginals with their perception distances,
and encoder miss frequencies.

Trials use counter-based RNG streams keyed by (master seed, trial index),
so report contents are bit-identical between serial and parallel runs:
per-trial values are assembled into trial-indexed arrays and reduced once
in a fixed order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .codec import (
    Codebook,
    CodeSizes,
    compute_code_sizes,
    decode,
    encode,
    generate_codebook,
    joint_set_empty,
    per_letter_distortion,
)
from .derandom import (
    SeedMap,
    build_seed_map,
    default_tail_length,
    deterministic_decode,
    deterministic_encode,
    seed_rate_overhead,
)
from .prob import JointPmf, Kernel, tv_distance
from .region import AuxChannel, Budgets
from .solver import DistortionMatrix, hamming

MODES = ("common-randomness", "deterministic")


class ResourceCapError(RuntimeError):
    """Configured memory cap would be exceeded; nothing was allocated."""


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
    memory_cap: int = 2 ** 24
    wilson_z: float = 1.96

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
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

    def tail_length(self) -> int:
        if self.mode != "deterministic":
            return 0
        if self.n0 is not None:
            return self.n0
        nx, ny = self.p_xy.shape
        return default_tail_length(nx * ny, self.n)


@dataclass(frozen=True)
class SimReport:
    """Aggregated Monte Carlo statistics for one configuration."""

    mode: str
    n: int
    n0: int
    trials: int
    sizes: tuple[int, int, int]
    threshold_x: float
    threshold_y: float
    mean_distortion_x: float
    mean_distortion_y: float
    mean_distortion_head_x: float   # first-n positions only (equals the
    mean_distortion_head_y: float   # full mean in common-randomness mode)
    stderr_distortion_x: float
    stderr_distortion_y: float
    distortion_wilson_x: float   # pooled-letter Wilson half-width
    distortion_wilson_y: float
    freq_no_common_codeword: float
    joint_set_empty: bool        # no (x, y, w) count vector fits the joint
                                 # band: every common scan misses
    freq_no_x_codeword: float
    freq_no_y_codeword: float
    marginals_x: np.ndarray      # (positions, |X|) estimated reconstruction pmfs
    marginals_y: np.ndarray
    marginal_halfwidth_x: np.ndarray
    marginal_halfwidth_y: np.ndarray
    tv_x: np.ndarray             # per-position TV to the source marginal
    tv_y: np.ndarray
    tv_interval_x: np.ndarray    # conservative per-position interval
    tv_interval_y: np.ndarray
    rates: tuple[float, float, float]
    seed_overhead: float
    budgets: Budgets
    master_seed: int

    @property
    def max_tv_excess_x(self) -> float:
        return float((self.tv_x - self.budgets.p1).max())

    @property
    def max_tv_excess_y(self) -> float:
        return float((self.tv_y - self.budgets.p2).max())

    def to_json(self) -> str:
        d = {
            "mode": self.mode, "n": self.n, "n0": self.n0, "trials": self.trials,
            "sizes": list(self.sizes),
            "threshold_x": self.threshold_x, "threshold_y": self.threshold_y,
            "mean_distortion_x": self.mean_distortion_x,
            "mean_distortion_y": self.mean_distortion_y,
            "mean_distortion_head_x": self.mean_distortion_head_x,
            "mean_distortion_head_y": self.mean_distortion_head_y,
            "stderr_distortion_x": self.stderr_distortion_x,
            "stderr_distortion_y": self.stderr_distortion_y,
            "distortion_wilson_x": self.distortion_wilson_x,
            "distortion_wilson_y": self.distortion_wilson_y,
            "freq_no_common_codeword": self.freq_no_common_codeword,
            "joint_set_empty": self.joint_set_empty,
            "freq_no_x_codeword": self.freq_no_x_codeword,
            "freq_no_y_codeword": self.freq_no_y_codeword,
            "marginals_x": self.marginals_x.tolist(),
            "marginals_y": self.marginals_y.tolist(),
            "marginal_halfwidth_x": self.marginal_halfwidth_x.tolist(),
            "marginal_halfwidth_y": self.marginal_halfwidth_y.tolist(),
            "tv_x": self.tv_x.tolist(), "tv_y": self.tv_y.tolist(),
            "tv_interval_x": self.tv_interval_x.tolist(),
            "tv_interval_y": self.tv_interval_y.tolist(),
            "rates": list(self.rates),
            "seed_overhead": self.seed_overhead,
            "budgets": self.budgets.as_dict(),
            "master_seed": self.master_seed,
        }
        return json.dumps(d)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["row", "position", "tv_x", "tv_interval_x", "tv_y", "tv_interval_y"])
        for t in range(self.tv_x.shape[0]):
            w.writerow(["position", t] + [f"{v:.6g}" for v in
                        (self.tv_x[t], self.tv_interval_x[t],
                         self.tv_y[t], self.tv_interval_y[t])])
        w.writerow(["summary", "", f"{self.mean_distortion_x:.6g}",
                    f"{self.mean_distortion_y:.6g}",
                    f"{self.freq_no_common_codeword:.6g}",
                    f"{self.rates[0]:.6g}"])
        return buf.getvalue()


def encoder_thresholds(q_xyw: JointPmf, tc_x: Kernel, tc_y: Kernel,
                       delta_x: np.ndarray, delta_y: np.ndarray,
                       delta: float) -> tuple[float, float]:
    """Per-letter distortion thresholds: achieved expected distortion of
    each test channel plus delta/2."""
    p = np.asarray(q_xyw.probs)
    j_x = p.sum(axis=1)[:, :, None] * tc_x.probs   # (X, W, Xt)
    j_y = p.sum(axis=0)[:, :, None] * tc_y.probs
    e_x = float(np.einsum("xwh,xh->", j_x, np.asarray(delta_x)))
    e_y = float(np.einsum("ywh,yh->", j_y, np.asarray(delta_y)))
    return e_x + delta / 2.0, e_y + delta / 2.0


@dataclass
class _TrialBatch:
    dist_x: np.ndarray
    dist_y: np.ndarray
    head_x: np.ndarray
    head_y: np.ndarray
    miss0: np.ndarray
    miss1: np.ndarray
    miss2: np.ndarray
    hist_x: np.ndarray
    hist_y: np.ndarray


def _run_trials(config: SimConfig, codebook: Codebook, seed_map: SeedMap | None,
                thr_x: float, thr_y: float, lo: int, hi: int) -> _TrialBatch:
    n, n0 = config.n, config.tail_length()
    total_len = n + n0
    nx, ny = config.p_xy.shape
    flat = np.asarray(config.p_xy.probs).reshape(-1)
    dx = config.delta_x_mat.values
    dy = config.delta_y_mat.values
    count = hi - lo
    dist_x = np.empty(count)
    dist_y = np.empty(count)
    head_x = np.empty(count)
    head_y = np.empty(count)
    miss0 = np.empty(count, dtype=bool)
    miss1 = np.empty(count, dtype=bool)
    miss2 = np.empty(count, dtype=bool)
    hist_x = np.zeros((total_len, dx.shape[1]), dtype=np.int64)
    hist_y = np.zeros((total_len, dy.shape[1]), dtype=np.int64)

    for t in range(lo, hi):
        rng = np.random.Generator(np.random.Philox(key=[config.master_seed, t]))
        pair = rng.choice(nx * ny, size=total_len, p=flat)
        xs = (pair // ny).astype(np.int64)
        ys = (pair % ny).astype(np.int64)
        if config.mode == "common-randomness":
            k = int(rng.integers(0, n))
            enc = encode(codebook, xs, ys, k, dx, dy, thr_x, thr_y)
            x_hat, y_hat = decode(codebook, enc.s0, enc.s1, enc.s2, k)
        else:
            enc, k_sim = deterministic_encode(codebook, seed_map, xs, ys,
                                              dx, dy, thr_x, thr_y)
            x_hat, y_hat = deterministic_decode(codebook, enc.s0, enc.s1,
                                                enc.s2, k_sim, n0)
        i = t - lo
        dist_x[i] = per_letter_distortion(dx, xs, x_hat)
        dist_y[i] = per_letter_distortion(dy, ys, y_hat)
        head_x[i] = per_letter_distortion(dx, xs[:n], x_hat[:n])
        head_y[i] = per_letter_distortion(dy, ys[:n], y_hat[:n])
        miss0[i], miss1[i], miss2[i] = enc.miss_common, enc.miss_x, enc.miss_y
        hist_x[np.arange(total_len), x_hat.astype(np.int64)] += 1
        hist_y[np.arange(total_len), y_hat.astype(np.int64)] += 1
    return _TrialBatch(dist_x, dist_y, head_x, head_y, miss0, miss1, miss2,
                       hist_x, hist_y)


def _worker(args):
    return _run_trials(*args)


def run_simulation(config: SimConfig, parallel: int = 1) -> SimReport:
    """Run all trials and aggregate; deterministic for a fixed master seed
    and independent of the parallelism degree."""
    q_xyw = config.p_xy.extend(config.aux.kernel, "W")
    sizes = compute_code_sizes(q_xyw, config.test_channel_x, config.test_channel_y,
                               config.n, config.delta)
    total_symbols = (sizes.m0 + sizes.m0 * sizes.m1 + sizes.m0 * sizes.m2) * config.n
    if total_symbols > config.memory_cap:
        raise ResourceCapError(
            f"codebook needs {total_symbols} symbols, cap is {config.memory_cap}; "
            f"raise memory_cap or reduce n/delta")

    thr_x, thr_y = encoder_thresholds(q_xyw, config.test_channel_x,
                                      config.test_channel_y,
                                      config.delta_x_mat.values,
                                      config.delta_y_mat.values, config.delta)
    codebook = generate_codebook(q_xyw, config.test_channel_x, config.test_channel_y,
                                 sizes, config.delta, config.n, config.master_seed)
    n0 = config.tail_length()
    seed_map = (build_seed_map(config.p_xy, n0, config.n)
                if config.mode == "deterministic" else None)

    trials = config.trials
    if parallel > 1:
        bounds = np.linspace(0, trials, parallel + 1).astype(int)
        jobs = [(config, codebook, seed_map, thr_x, thr_y, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            batches = list(pool.map(_worker, jobs))
    else:
        batches = [_run_trials(config, codebook, seed_map, thr_x, thr_y, 0, trials)]

    dist_x = np.concatenate([b.dist_x for b in batches])
    dist_y = np.concatenate([b.dist_y for b in batches])
    head_x = np.concatenate([b.head_x for b in batches])
    head_y = np.concatenate([b.head_y for b in batches])
    miss0 = np.concatenate([b.miss0 for b in batches])
    miss1 = np.concatenate([b.miss1 for b in batches])
    miss2 = np.concatenate([b.miss2 for b in batches])
    hist_x = sum(b.hist_x for b in batches)
    hist_y = sum(b.hist_y for b in batches)

    total_len = config.n + n0
    marg_x = hist_x / trials
    marg_y = hist_y / trials
    hw_x = wilson_halfwidth(marg_x, trials, config.wilson_z)
    hw_y = wilson_halfwidth(marg_y, trials, config.wilson_z)
    p_x = np.asarray(config.p_xy.marginal("X").probs)
    p_y = np.asarray(config.p_xy.marginal("Y").probs)
    tv_x = np.abs(marg_x - p_x[None, :]).sum(axis=1)
    tv_y = np.abs(marg_y - p_y[None, :]).sum(axis=1)

    letters = trials * total_len
    pooled_x = float(dist_x.mean())
    pooled_y = float(dist_y.mean())
    is01_x = set(np.unique(config.delta_x_mat.values)) <= {0.0, 1.0}
    is01_y = set(np.unique(config.delta_y_mat.values)) <= {0.0, 1.0}
    wilson_x = float(wilson_halfwidth(pooled_x, letters, config.wilson_z)) if is01_x else float("nan")
    wilson_y = float(wilson_halfwidth(pooled_y, letters, config.wilson_z)) if is01_y else float("nan")

    overhead = seed_rate_overhead(config.n, n0) if config.mode == "deterministic" else 0.0
    denom = config.n
    rates = (math.log2(max(sizes.m0, 1)) / denom + overhead,
             math.log2(max(sizes.m1, 1)) / denom + overhead,
             math.log2(max(sizes.m2, 1)) / denom + overhead)

    return SimReport(
        mode=config.mode, n=config.n, n0=n0, trials=trials,
        sizes=(sizes.m0, sizes.m1, sizes.m2),
        threshold_x=thr_x, threshold_y=thr_y,
        mean_distortion_x=pooled_x, mean_distortion_y=pooled_y,
        mean_distortion_head_x=float(head_x.mean()),
        mean_distortion_head_y=float(head_y.mean()),
        stderr_distortion_x=float(dist_x.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        stderr_distortion_y=float(dist_y.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        distortion_wilson_x=wilson_x, distortion_wilson_y=wilson_y,
        freq_no_common_codeword=float(miss0.mean()),
        joint_set_empty=joint_set_empty(codebook.q_xyw, config.n, config.delta),
        freq_no_x_codeword=float(miss1.mean()),
        freq_no_y_codeword=float(miss2.mean()),
        marginals_x=marg_x, marginals_y=marg_y,
        marginal_halfwidth_x=hw_x, marginal_halfwidth_y=hw_y,
        tv_x=tv_x, tv_y=tv_y,
        tv_interval_x=hw_x.sum(axis=1), tv_interval_y=hw_y.sum(axis=1),
        rates=rates, seed_overhead=overhead,
        budgets=config.budgets, master_seed=config.master_seed)


def convergence_study(base: SimConfig, n_list: list[int],
                      parallel: int = 1) -> dict:
    """One simulation per blocklength; reports the distortion and
    perception excesses and whether the common-codeword miss frequency is
    non-increasing in n."""
    rows = []
    for n in sorted(n_list):
        cfg = replace(base, n=n)
        rows.append(run_simulation(cfg, parallel=parallel))
    excess_x = [r.mean_distortion_x - r.threshold_x for r in rows]
    excess_y = [r.mean_distortion_y - r.threshold_y for r in rows]
    miss0 = [r.freq_no_common_codeword for r in rows]
    return {
        "reports": rows,
        "n_list": [r.n for r in rows],
        "distortion_excess_x": excess_x,
        "distortion_excess_y": excess_y,
        "max_tv_excess_x": [r.max_tv_excess_x for r in rows],
        "max_tv_excess_y": [r.max_tv_excess_y for r in rows],
        "freq_no_common_codeword": miss0,
        "miss0_non_increasing": all(b <= a + 1e-12 for a, b in zip(miss0, miss0[1:])),
        "distortion_trend_ok": (excess_x[-1] <= excess_x[0] + 1e-12
                                and excess_y[-1] <= excess_y[0] + 1e-12),
    }
