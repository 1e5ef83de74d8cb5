"""Independent checks of gwrdp outputs.

Everything here is recomputed with plain numpy from the inputs and the
witnesses a command returns (test channels, auxiliary channels, code
sizes, seed-map assignments). Nothing is compared against a stored copy
of an earlier output, and nothing here imports gwrdp.

Every ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# solver constraint tolerance (gwrdp's conditional_rdp default) plus slack
# for re-evaluating the same sums in another order
FEAS_TOL = 2e-6
# agreement between a reported figure and its recomputation from witnesses
VALUE_TOL = 1e-7
# rate of a solver result against the perception-free oracle lower bound
ORACLE_TOL = 1e-5
# extra allowance on per-position TV, as in gwrdp's acceptance criterion 6
TV_SLACK = 0.05


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=np.float64).ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def cond_mutual_info(joint) -> float:
    """I(A;B|C) for a joint array with axes (A, C, B)."""
    j = np.asarray(joint, dtype=np.float64)
    return (entropy_bits(j.sum(axis=2)) + entropy_bits(j.sum(axis=0))
            - entropy_bits(j) - entropy_bits(j.sum(axis=(0, 2))))


def channel_figures(q_sw, channel, delta, perception: str):
    """Rate I(S;T|W), expected distortion and perception of a test channel.

    q_sw: (S, W) joint; channel: (S, W, T) rows q(t|s,w); delta: (S, T).
    Perception compares the reconstruction marginal with the source
    marginal: unhalved TV, or KL(P_S || Q_T) in bits.
    """
    q_sw = np.asarray(q_sw, dtype=np.float64)
    joint = q_sw[:, :, None] * np.asarray(channel, dtype=np.float64)
    rate = max(cond_mutual_info(joint), 0.0)
    dist = float((joint * np.asarray(delta)[:, None, :]).sum())
    p_s = q_sw.sum(axis=1)
    m = joint.sum(axis=(0, 1))
    target = np.zeros(max(m.size, p_s.size))
    target[:p_s.size] = p_s
    recon = np.zeros_like(target)
    recon[:m.size] = m
    if perception == "tv":
        perc = float(np.abs(target - recon).sum())
    elif perception == "kl":
        mask = target > 0
        perc = (math.inf if np.any(recon[mask] <= 0)
                else float((target[mask] * np.log2(target[mask] / recon[mask])).sum()))
    else:
        raise ValueError(f"unknown perception {perception!r}")
    return rate, dist, perc


def hamming(n: int) -> np.ndarray:
    return 1.0 - np.eye(n)


# ---------------------------------------------------------------------------
# perception-free oracle: textbook alternating minimization
# ---------------------------------------------------------------------------


def _ba(cond: np.ndarray, weights: np.ndarray, delta: np.ndarray, beta: float,
        tol: float = 1e-13, max_it: int = 100_000):
    """Blahut-Arimoto at multiplier beta, one column of cond per w.

    Returns the weighted rate and distortion of the fixed point.
    """
    n_x, n_w = cond.shape
    out = np.full((n_w, delta.shape[1]), 1.0 / delta.shape[1])
    kernel = np.exp2(-beta * delta)                      # (X, T)
    for _ in range(max_it):
        q = out[None, :, :] * kernel[:, None, :]         # (X, W, T)
        q /= q.sum(axis=2, keepdims=True)
        new = np.einsum("xw,xwt->wt", cond, q)
        if np.abs(new - out).max() < tol:
            out = new
            break
        out = new
    q = out[None, :, :] * kernel[:, None, :]
    q /= q.sum(axis=2, keepdims=True)
    joint = cond[:, :, None] * q * weights[None, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 0, q / out[None, :, :], 1.0)
        rate = float((joint * np.log2(ratio)).sum())
    dist = float((joint * delta[:, None, :]).sum())
    return max(rate, 0.0), dist


def conditional_rd(q_xw, delta, d_budget: float, tol: float = 1e-9) -> float:
    """Perception-free conditional R_{X|W}(D) in bits, by multiplier
    bisection on the shared distortion multiplier; returns the feasible
    (upper) end, within ``tol`` of the minimum."""
    q_xw = np.asarray(q_xw, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    q_w = q_xw.sum(axis=0)
    live = q_w > 0
    weights = q_w[live]
    cond = q_xw[:, live] / weights[None, :]
    rate, dist = _ba(cond, weights, delta, 0.0)
    if dist <= d_budget:
        return rate
    lo, lo_rate, lo_dist = 0.0, rate, dist
    hi = 1.0
    hi_rate, hi_dist = _ba(cond, weights, delta, hi)
    while hi_dist > d_budget and hi < 1e6:
        lo, lo_rate, lo_dist = hi, hi_rate, hi_dist
        hi *= 4.0
        hi_rate, hi_dist = _ba(cond, weights, delta, hi)
    for _ in range(200):
        # Lagrangian lower bound from the infeasible side
        if hi_rate - max(0.0, lo_rate + lo * (lo_dist - d_budget)) <= tol:
            break
        mid = 0.5 * (lo + hi)
        rate, dist = _ba(cond, weights, delta, mid)
        if dist > d_budget:
            lo, lo_rate, lo_dist = mid, rate, dist
        else:
            hi, hi_rate, hi_dist = mid, rate, dist
    return hi_rate


# ---------------------------------------------------------------------------
# rdp
# ---------------------------------------------------------------------------


def check_rdp(q_xw, delta, perception: str, d_budget: float, p_budget: float,
              result: dict, rd_lower: float) -> list[str]:
    """One `gwrdp rdp` result: figures recomputed from the returned test
    channel, budgets met, and R_{X|W}(D) <= rate <= H(X|W)."""
    problems = []
    q_xw = np.asarray(q_xw, dtype=np.float64)
    channel = np.asarray(result["test_channel"]["probs"], dtype=np.float64).reshape(
        result["test_channel"]["alphabets"])
    if channel.shape[:2] != q_xw.shape:
        return [f"test channel shape {channel.shape} does not match q_xw {q_xw.shape}"]
    if np.any(channel < 0) or np.abs(channel.sum(axis=2) - 1.0).max() > 1e-9:
        problems.append("test channel rows are not pmfs")
    rate, dist, perc = channel_figures(q_xw, channel, delta, perception)
    for name, mine, theirs in (("rate", rate, result["rate_bits"]),
                               ("distortion", dist, result["achieved_distortion"]),
                               ("perception", perc, result["achieved_perception"])):
        if not abs(mine - theirs) <= VALUE_TOL:
            problems.append(f"{name} {theirs!r} but the test channel gives {mine!r}")
    if dist > d_budget + FEAS_TOL:
        problems.append(f"distortion {dist:.9g} exceeds the budget {d_budget}")
    if perc > p_budget + FEAS_TOL:
        problems.append(f"perception {perc:.9g} exceeds the budget {p_budget}")
    h_cond = entropy_bits(q_xw) - entropy_bits(q_xw.sum(axis=0))
    if rate < rd_lower - ORACLE_TOL:
        problems.append(f"rate {rate:.9g} below the perception-free R(D) {rd_lower:.9g}")
    if rate > h_cond + ORACLE_TOL:
        problems.append(f"rate {rate:.9g} above H(X|W) {h_cond:.9g}")
    return problems


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def _kernel(obj: dict) -> np.ndarray:
    return np.asarray(obj["probs"], dtype=np.float64).reshape(obj["alphabets"])


def check_region_point(p_xy, budgets: dict, point: dict, perception: str = "tv"
                       ) -> list[str]:
    """One frontier point: R0 = I(X,Y;W), R1 and R2 recomputed from the
    witnesses, and both test channels meet their budgets."""
    p_xy = np.asarray(p_xy, dtype=np.float64)
    nx, ny = p_xy.shape
    aux = _kernel(point["aux_channel"])
    q_xyw = p_xy[:, :, None] * aux
    problems = []
    r0 = max(cond_mutual_info(q_xyw.reshape(nx * ny, 1, -1)), 0.0)
    branches = (("R1", q_xyw.sum(axis=1), point["test_channel_x"], "D1", "P1"),
                ("R2", q_xyw.sum(axis=0), point["test_channel_y"], "D2", "P2"))
    if not abs(r0 - point["R0"]) <= VALUE_TOL:
        problems.append(f"R0 {point['R0']!r} but I(X,Y;W) is {r0!r}")
    for name, q_sw, tc, d_key, p_key in branches:
        rate, dist, perc = channel_figures(q_sw, _kernel(tc), hamming(q_sw.shape[0]),
                                           perception)
        if not abs(rate - point[name]) <= VALUE_TOL:
            problems.append(f"{name} {point[name]!r} but its test channel gives {rate!r}")
        if dist > budgets[d_key] + FEAS_TOL:
            problems.append(f"{name} channel distortion {dist:.9g} exceeds {d_key}")
        if perc > budgets[p_key] + FEAS_TOL:
            problems.append(f"{name} channel perception {perc:.9g} exceeds {p_key}")
    return problems


def check_cutset(point: dict, rd_x: float, rd_y: float) -> list[str]:
    """R0+R1 >= R_X(D1) and R0+R2 >= R_Y(D2), with the perception-free
    rate-distortion functions as the (smaller) reference."""
    problems = []
    if point["R0"] + point["R1"] < rd_x - ORACLE_TOL:
        problems.append(f"R0+R1 {point['R0'] + point['R1']:.9g} below R_X(D1) {rd_x:.9g}")
    if point["R0"] + point["R2"] < rd_y - ORACLE_TOL:
        problems.append(f"R0+R2 {point['R0'] + point['R2']:.9g} below R_Y(D2) {rd_y:.9g}")
    return problems


def dominated_pairs(points: list[dict], slack: float = 1e-9) -> list[tuple[int, int]]:
    """Pairs (i, j) where point i is no worse than point j in every rate
    and better in at least one, beyond ``slack``."""
    triples = np.array([[p["R0"], p["R1"], p["R2"]] for p in points])
    out = []
    for i in range(len(points)):
        for j in range(len(points)):
            if i != j and np.all(triples[i] <= triples[j] + slack) \
                    and np.any(triples[i] < triples[j] - slack):
                out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# simulate and derand-audit
# ---------------------------------------------------------------------------


def wilson_halfwidth(p_hat, n: int, z: float = 1.96):
    p_hat = np.asarray(p_hat, dtype=np.float64)
    denom = 1.0 + z * z / n
    return z * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / denom


def code_size_exponents(p_xy, aux, tc_x, tc_y, n: int, delta: float) -> list[float]:
    """n(I + 2 slack) in bits for the common and both private layers, from
    the joint induced by the source, auxiliary and test channels; each
    layer holds floor(2^exponent) codewords."""
    p = np.asarray(p_xy, dtype=np.float64)[:, :, None] * np.asarray(aux)
    h_w = entropy_bits(p.sum(axis=(0, 1)))
    h_xy = entropy_bits(p.sum(axis=2))
    h_xyw = entropy_bits(p)
    out = [n * (h_w + h_xy - h_xyw + 2 * delta * (h_w + h_xyw - h_xy))]
    for q_sw, tc in ((p.sum(axis=1), tc_x), (p.sum(axis=0), tc_y)):
        joint = q_sw[:, :, None] * np.asarray(tc)
        h_t_given_w = entropy_bits(joint.sum(axis=0)) - entropy_bits(joint.sum(axis=(0, 2)))
        out.append(n * (cond_mutual_info(joint) + 2 * delta * (h_t_given_w + 1.0)))
    return out


def size_matches(size: int, exponent: float) -> bool:
    """size == floor(2^exponent), allowing for the last bits of the
    exponent when 2^exponent sits on an integer."""
    eps = 1e-12 * max(1.0, exponent)
    return math.floor(2.0 ** (exponent - eps)) <= size <= math.floor(2.0 ** (exponent + eps))


def check_sim(p_xy, aux, tc_x, tc_y, budgets: dict, delta_band: float,
              report: dict) -> list[str]:
    """One `gwrdp simulate` report.

    * code sizes are floor(2^(n(I + 2 slack))) of the induced joint and the
      rates are log2(m)/n plus log2(n)/(n+n0) in deterministic mode;
    * the mean distortion of the encoded block (the first n positions in
      deterministic mode, whose tail copies the head) is at most the
      encoder threshold plus its Wilson half-width;
    * per-position TV is at most P plus the marginal interval plus 0.05;
    * the common-layer miss frequency lies strictly between 0 and 1, and
      no private miss frequency is 1.
    """
    problems = []
    p_xy = np.asarray(p_xy, dtype=np.float64)
    n, n0, trials = report["n"], report["n0"], report["trials"]
    exponents = code_size_exponents(p_xy, aux, tc_x, tc_y, n, delta_band)
    if not all(size_matches(m, v) for m, v in zip(report["sizes"], exponents)):
        want = [math.floor(2.0 ** v) for v in exponents]
        problems.append(f"code sizes {report['sizes']} but the induced joint gives {want}")
    deterministic = report["mode"] == "deterministic"
    overhead = math.log2(n) / (n + n0) if deterministic else 0.0
    for layer, (m, r) in enumerate(zip(report["sizes"], report["rates"])):
        if not abs(math.log2(max(m, 1)) / n + overhead - r) <= 1e-12:
            problems.append(f"rate {layer} is {r!r}, not log2({m})/{n} + {overhead!r}")

    p_sw = {"x": p_xy.sum(axis=1), "y": p_xy.sum(axis=0)}
    joint_sw = {"x": (p_xy[:, :, None] * np.asarray(aux)).sum(axis=1),
                "y": (p_xy[:, :, None] * np.asarray(aux)).sum(axis=0)}
    channels = {"x": np.asarray(tc_x), "y": np.asarray(tc_y)}
    for branch, d_key, p_key in (("x", "D1", "P1"), ("y", "D2", "P2")):
        _, expected_d, _ = channel_figures(joint_sw[branch], channels[branch],
                                           hamming(p_sw[branch].size), "tv")
        threshold = expected_d + delta_band / 2.0
        if not abs(threshold - report[f"threshold_{branch}"]) <= VALUE_TOL:
            problems.append(f"threshold_{branch} {report[f'threshold_{branch}']!r} "
                            f"but the test channel gives {threshold!r}")
        if deterministic:
            mean, letters = report[f"mean_distortion_head_{branch}"], trials * n
        else:
            mean, letters = report[f"mean_distortion_{branch}"], trials * (n + n0)
        if mean > threshold + float(wilson_halfwidth(mean, letters)):
            problems.append(f"mean distortion {mean:.6g} on {branch} exceeds threshold "
                            f"{threshold:.6g} beyond its Wilson half-width")
        marg = np.asarray(report[f"marginals_{branch}"], dtype=np.float64)
        tv = np.abs(marg - p_sw[branch][None, :]).sum(axis=1)
        interval = wilson_halfwidth(marg, trials).sum(axis=1)
        worst = float((tv - budgets[p_key] - interval).max())
        if worst > TV_SLACK:
            problems.append(f"per-position TV on {branch} exceeds P + interval by {worst:.4f}")
    miss0 = report["freq_no_common_codeword"]
    if not 0.0 < miss0 < 1.0:
        problems.append(f"common-layer miss frequency {miss0} is not strictly inside (0, 1)")
    for key in ("freq_no_x_codeword", "freq_no_y_codeword"):
        if not 0.0 <= report[key] < 1.0:
            problems.append(f"{key} is {report[key]}")
    return problems


def check_seed_map(p_xy, n0: int, n: int, assignment, audit: dict) -> list[str]:
    """Bin masses recomputed from the assignment of every tail atom agree
    with the audit and deviate from 1/n by at most the largest atom."""
    flat = np.asarray(p_xy, dtype=np.float64).ravel()
    probs = flat
    for _ in range(n0 - 1):
        probs = np.multiply.outer(probs, flat).ravel()
    assignment = np.asarray(assignment)
    if assignment.shape != probs.shape:
        return [f"{assignment.size} atoms assigned, {probs.size} exist"]
    if assignment.min() < 0 or assignment.max() >= n:
        return ["assignment outside [0, n)"]
    masses = np.bincount(assignment, weights=probs, minlength=n)
    p_max = float(probs.max())
    problems = []
    if np.abs(masses - np.asarray(audit["bin_masses"])).max() > 1e-12:
        problems.append("audited bin masses differ from the assignment's")
    dev = float(np.abs(masses - 1.0 / n).max())
    if dev > p_max + 1e-15:
        problems.append(f"bin mass deviation {dev:.3e} exceeds p_max {p_max:.3e}")
    if not abs(audit["bound_p_max"] - p_max) <= 1e-15:
        problems.append(f"audit bound {audit['bound_p_max']!r} is not p_max {p_max!r}")
    if audit["atoms"] != probs.size:
        problems.append(f"audit counts {audit['atoms']} atoms, {probs.size} exist")
    return problems
