"""Conditional rate-distortion-perception solver.

Computes R_{X|W}(Q_XW, D, P): the minimum of I(X; Xhat | W) over test
channels q(xhat | x, w) subject to an expected-distortion budget D and a
perception budget P on the reconstruction marginal Q_Xhat (measured
against the source marginal P_X; the TV measure uses the unhalved
sum-of-absolute-differences convention with range [0, 2]).

The problem is convex: mutual information is convex in the test channel,
the distortion constraint is linear, and the perception measure is convex
in the reconstruction marginal. The solver is a double loop:

* outer: bisection over the distortion multiplier lambda, keeping the
  feasible-side endpoint so the returned channel always meets the budget;
* inner: alternating minimization between the test channel and the per-W
  output marginal (the classical Gibbs/marginal sweep, base-2 exponents).

When the perception constraint is active, the solver minimizes V(m), the
least rate with the reconstruction marginal pinned to m, over the
perception ball by conditional gradient (Frank-Wolfe). A pinned solve
adds a per-symbol exponential tilt nu to the inner sweep, matched until
the marginal equals m, and -nu is the gradient of V. The search starts
where the segment from P_X to the relaxed optimum leaves the ball and
stops once the Frank-Wolfe gap, an upper bound on V(m) - min V, is at
most FW_GAP bits; for binary reconstructions the gap there is already 0.

Rates are in bits throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .prob import JointPmf, Kernel, Pmf, _entropy_bits

LAMBDA_MAX = 1e12
FW_GAP = 1e-6  # bits: Frank-Wolfe duality gap that counts as converged


class InfeasibleError(ValueError):
    """No test channel can satisfy the requested budgets."""


def hamming(n_source: int, n_recon: int | None = None) -> np.ndarray:
    """0/1 distortion matrix; zero exactly on the shared-symbol diagonal."""
    m = n_recon if n_recon is not None else n_source
    d = np.ones((n_source, m))
    np.fill_diagonal(d, 0.0)
    return d


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """Per-symbol-pair distortion values, nonnegative and bounded.

    Every source symbol must have at least one zero-distortion
    reconstruction; restricting the reconstruction alphabet afterwards may
    remove it, which the solver reports as infeasible when D is too small.
    """

    values: np.ndarray

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("distortion matrix must be 2-D (source x reconstruction)")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("distortion values must be finite and nonnegative")
        if np.any(arr.min(axis=1) > 0):
            bad = int(np.argmax(arr.min(axis=1) > 0))
            raise ValueError(f"source symbol {bad} has no zero-distortion reconstruction")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_source(self) -> int:
        return self.values.shape[0]

    @property
    def n_recon(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PerceptionMeasure:
    """Divergence d(P_source, Q_recon), convex in its second argument.

    kind: "tv" (sum |p-q|, range [0,2]) or "kl" (bits).
    """

    kind: str = "tv"

    def __post_init__(self):
        if self.kind not in ("tv", "kl"):
            raise ValueError(f"unknown perception kind {self.kind!r}")

    def value(self, p: np.ndarray, q: np.ndarray) -> float:
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        if self.kind == "tv":
            return float(np.abs(p - q).sum())
        mask = p > 0
        if np.any(q[mask] <= 0):
            return math.inf
        return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


@dataclass(frozen=True)
class RdpQuery:
    """One conditional RDP problem instance."""

    q_xw: JointPmf
    delta: DistortionMatrix
    perception: PerceptionMeasure
    d_budget: float
    p_budget: float
    recon_alphabet: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.q_xw.probs.ndim != 2:
            raise ValueError("q_xw must be a 2-axis joint over (X, W)")
        if self.delta.n_source != self.q_xw.shape[0]:
            raise ValueError("distortion matrix rows must match the source alphabet")
        if self.d_budget < 0:
            raise ValueError("d_budget must be nonnegative")
        if self.p_budget < 0:
            raise ValueError("p_budget must be nonnegative (use inf to disable)")
        if self.recon_alphabet is not None:
            cols = tuple(self.recon_alphabet)
            if (len(cols) == 0 or not all(isinstance(c, (int, np.integer)) for c in cols)
                    or len(set(cols)) != len(cols)):
                raise ValueError("recon_alphabet must be a nonempty set of column indices")
            if min(cols) < 0 or max(cols) >= self.delta.n_recon:
                raise ValueError("recon_alphabet indices out of range")
            object.__setattr__(self, "recon_alphabet", cols)


@dataclass(frozen=True)
class RdpResult:
    """Solution of a conditional RDP query."""

    rate: float
    test_channel: Kernel  # shape (|X|, |W|, |Xhat|)
    achieved_distortion: float
    achieved_perception: float
    converged: bool
    iterations: int
    lam: float = 0.0


@dataclass(frozen=True)
class FeasibilityReport:
    """Witness-based check that a query admits an epsilon-feasible channel
    with finite rate (at most H(X|W))."""

    satisfied: bool
    finite_rate_ok: bool
    conditions: dict
    diagnostic: str
    witness: RdpResult | None


# ---------------------------------------------------------------------------
# problem setup
# ---------------------------------------------------------------------------


@dataclass
class _Problem:
    q_xw: np.ndarray        # (X, W)
    x_given_w: np.ndarray   # (X, W), uniform on zero-mass w columns
    p_x: np.ndarray         # (X,) source marginal
    delta: np.ndarray       # (X, H) over allowed reconstruction columns
    cols: np.ndarray        # indices of allowed columns in the full alphabet
    full_recon: int         # size of the full reconstruction alphabet
    perception: PerceptionMeasure
    d_budget: float
    p_budget: float
    mask: np.ndarray        # (X, H) boolean support mask (D=0 handling)
    target: np.ndarray      # source marginal embedded in the full alphabet


def _build_problem(query: RdpQuery) -> _Problem:
    q_xw = np.asarray(query.q_xw.probs, dtype=np.float64)
    n_x, n_w = q_xw.shape
    p_x = q_xw.sum(axis=1)
    q_w = q_xw.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        x_given_w = np.where(q_w > 0, q_xw / np.where(q_w > 0, q_w, 1.0), 1.0 / n_x)

    full = query.delta.values
    cols = np.asarray(sorted(query.recon_alphabet) if query.recon_alphabet is not None
                      else range(full.shape[1]), dtype=np.int64)
    delta = full[:, cols]

    # distortion feasibility (exact for the D constraint alone)
    d_min = float(np.sum(p_x * delta.min(axis=1)))
    if query.d_budget < d_min - 1e-12:
        lacking = [int(x) for x in range(n_x) if p_x[x] > 0 and delta[x].min() > 0]
        raise InfeasibleError(
            f"distortion budget {query.d_budget} below achievable minimum {d_min:.6g}"
            + (f"; source symbols without zero-distortion option: {lacking}" if lacking else ""))

    # perception feasibility against the restricted reconstruction support
    if math.isfinite(query.p_budget):
        col_set = set(cols.tolist())
        missing = [h for h in range(full.shape[1]) if h not in col_set]
        lost_mass = float(sum(p_x[m] for m in missing if m < n_x))
        if query.perception.kind == "kl" and lost_mass > 0:
            raise InfeasibleError(
                "KL perception is infinite: reconstruction alphabet drops source support "
                f"{missing}")
        if query.perception.kind == "tv" and 2.0 * lost_mass > query.p_budget + 1e-12:
            raise InfeasibleError(
                f"TV perception cannot go below {2 * lost_mass:.6g} with reconstruction "
                f"alphabet missing {missing}, budget is {query.p_budget}")

    if query.d_budget <= 1e-15:
        mask = delta == 0.0
        if not np.all(mask.any(axis=1)):
            bad = int(np.argmin(mask.any(axis=1)))
            raise InfeasibleError(f"D=0 but source symbol {bad} has no zero-distortion column")
    else:
        mask = np.ones_like(delta, dtype=bool)

    target = np.zeros(max(full.shape[1], n_x))
    target[:n_x] = p_x
    return _Problem(q_xw=q_xw, x_given_w=x_given_w, p_x=p_x, delta=delta, cols=cols,
                    full_recon=full.shape[1], perception=query.perception,
                    d_budget=query.d_budget, p_budget=query.p_budget, mask=mask,
                    target=target)


def _full_marginal(pr: _Problem, m: np.ndarray) -> np.ndarray:
    out = np.zeros(pr.target.shape[0])
    out[pr.cols] = m
    return out


def _perception_of(pr: _Problem, m: np.ndarray) -> float:
    return pr.perception.value(pr.target, _full_marginal(pr, m))


def _metrics(pr: _Problem, q: np.ndarray):
    joint = pr.q_xw[:, :, None] * q
    r = np.einsum("xw,xwh->wh", pr.x_given_w, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log2(np.where(joint > 0, q / np.maximum(r[None], 1e-300), 1.0))
    rate = float(np.sum(joint * ratio))
    dist = float(np.sum(joint * pr.delta[:, None, :]))
    m = joint.sum(axis=(0, 1))
    return max(rate, 0.0), dist, _perception_of(pr, m), m


@dataclass
class _Solution:
    q: np.ndarray
    rate: float
    dist: float
    perc: float
    sweeps: int
    settled: bool
    nu: np.ndarray | None = None  # pinning tilt; -nu is the gradient of the pinned rate


def _uniform_channel(pr: _Problem, submask: np.ndarray | None = None) -> np.ndarray:
    n_x, n_w = pr.q_xw.shape
    allowed = pr.mask if submask is None else (pr.mask & submask[None, :])
    q = np.where(allowed[:, None, :], 1.0, 0.0)
    q = np.broadcast_to(q, (n_x, n_w, pr.delta.shape[1])).copy()
    return q / q.sum(axis=2, keepdims=True)


def _blend(q_warm: np.ndarray, q_uniform: np.ndarray) -> np.ndarray:
    # multiplicative updates never leave a zero; blending restores support
    return 0.99 * q_warm + 0.01 * q_uniform


def _am_solve(pr: _Problem, lam: float, q0: np.ndarray, max_sweeps: int,
              m_target: np.ndarray | None = None, q_tol: float = 1e-11) -> _Solution:
    """Alternating minimization at fixed lambda.

    With ``m_target`` set, a per-symbol tilt is matched each sweep so the
    reconstruction marginal converges to the target (zero-target columns
    are excluded from the support).
    """
    if m_target is not None:
        submask = m_target > 1e-14
        allowed = pr.mask & submask[None, :]
        if not np.all(allowed.any(axis=1)):
            return _Solution(q=q0, rate=math.inf, dist=math.inf, perc=math.inf,
                             sweeps=0, settled=False)
        q = np.where(allowed[:, None, :], q0, 0.0)
        norm = q.sum(axis=2, keepdims=True)
        q = np.where(norm > 0, q / np.maximum(norm, 1e-300), 0.0)
        bad_rows = (norm[:, :, 0] <= 0)
        if np.any(bad_rows):
            u = _uniform_channel(pr, submask)
            q = np.where(bad_rows[:, :, None], u, q)
    else:
        allowed = pr.mask
        q = q0
    nu = np.zeros(pr.delta.shape[1])
    base = -lam * pr.delta[:, None, :]
    settled = False
    sweeps = 0

    uni_rows = allowed / allowed.sum(axis=1, keepdims=True)

    def gibbs(r: np.ndarray, tilt: np.ndarray) -> np.ndarray:
        expo = base - tilt[None, None, :]
        expo = expo - expo.max(axis=2, keepdims=True)
        out = r[None, :, :] * np.exp2(expo)
        out = np.where(allowed[:, None, :], out, 0.0)
        norm = out.sum(axis=2, keepdims=True)
        # rows with no carried mass (zero-probability (x, w) pairs) are
        # metrically irrelevant; keep them on the uniform support row
        return np.where(norm > 1e-300, out / np.maximum(norm, 1e-300),
                        uni_rows[:, None, :])

    def scale_to_target(r: np.ndarray, passes: int) -> np.ndarray:
        # proportional scaling of the pinning tilt, warm across sweeps
        nonlocal nu
        q_new = gibbs(r, nu)
        for _ in range(passes):
            m = np.einsum("xw,xwh->h", pr.q_xw, q_new)
            if float(np.abs(m - m_target).max()) < 1e-12:
                break
            step = np.where(m_target > 1e-14,
                            np.log2(np.maximum(m, 1e-300) / m_target.clip(1e-300)),
                            0.0)
            nu = nu + np.clip(step, -30.0, 30.0)
            q_new = gibbs(r, nu)
        return q_new

    for sweeps in range(1, max_sweeps + 1):
        r = np.einsum("xw,xwh->wh", pr.x_given_w, q)
        if m_target is not None:
            q_new = scale_to_target(r, passes=3)
        else:
            q_new = gibbs(r, nu)
        change = float(np.abs(q_new - q).max())
        q = q_new
        if change < q_tol:
            settled = True
            break
    else:
        settled = change < 3e-9  # cap hit, but effectively stationary
    if m_target is not None:
        # one exact pinning pass against the final per-w marginals
        r = np.einsum("xw,xwh->wh", pr.x_given_w, q)
        q = scale_to_target(r, passes=200)
    rate, dist, perc, m = _metrics(pr, q)
    if m_target is not None:
        if float(np.abs(m - m_target).max()) > 1e-6:
            # tilt matching failed (unreachable target under the mask)
            return _Solution(q=q, rate=math.inf, dist=math.inf, perc=perc,
                             sweeps=sweeps, settled=False)
        nu = np.where(submask, nu, _entry_tilt(pr, lam, r, nu, allowed))
    return _Solution(q=q, rate=rate, dist=dist, perc=perc, sweeps=sweeps,
                     settled=settled, nu=nu)


def _entry_tilt(pr: _Problem, lam: float, r: np.ndarray, nu: np.ndarray,
                allowed: np.ndarray) -> np.ndarray:
    """Least tilt per column that keeps it unused; off the pinned support,
    minus this is the pinned rate's derivative in mass moved into it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        expo = -lam * pr.delta[:, None, :]
        log_z = np.logaddexp2.reduce(
            np.where(allowed[:, None, :], np.log2(r)[None] + expo - nu, -np.inf), axis=2)
        terms = np.log2(pr.x_given_w)[:, :, None] + expo - log_z[:, :, None]
        per_w = np.logaddexp2.reduce(np.where(pr.mask[:, None, :], terms, -np.inf), axis=0)
    return per_w[pr.q_xw.sum(axis=0) > 0].max(axis=0)


class _Budgeter:
    """Tracks total inner sweeps against the global iteration cap."""

    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def left(self, default: int) -> int:
        return max(min(default, self.cap - self.used), 1)

    def charge(self, sol: _Solution):
        self.used += sol.sweeps

    @property
    def exhausted(self) -> bool:
        return self.used >= self.cap


def _bisect_lambda(pr: _Problem, budget: _Budgeter, ctol: float,
                   m_target: np.ndarray | None = None,
                   per_call: int = 5000, rate_gap: float = 1e-6) -> tuple[_Solution, float]:
    """Smallest lambda whose minimizer meets the distortion budget.

    Returns the feasible-side endpoint (dist <= D) whenever one exists;
    otherwise the endpoint at the multiplier cap, for the caller to judge.
    Stops once the Lagrangian duality gap (feasible rate minus the lower
    bound rate_lo + lam_lo*(dist_lo - D) from the infeasible side) is
    below ``rate_gap``.
    """
    d = pr.d_budget
    uni = _uniform_channel(pr)

    def solve(lam: float, warm: np.ndarray) -> _Solution:
        sol = _am_solve(pr, lam, _blend(warm, uni), budget.left(per_call), m_target)
        budget.charge(sol)
        return sol

    def lower_bound(lam_lo: float, sol_lo: _Solution) -> float:
        if not math.isfinite(sol_lo.rate):
            return 0.0
        return max(0.0, sol_lo.rate + lam_lo * (sol_lo.dist - d))

    sol = solve(0.0, uni)
    if sol.dist <= d + ctol:
        return sol, 0.0

    lam_lo, sol_lo = 0.0, sol
    lam_hi = 1.0
    sol_hi = solve(lam_hi, sol.q)
    while sol_hi.dist > d and lam_hi < LAMBDA_MAX and not budget.exhausted:
        lam_lo, sol_lo = lam_hi, sol_hi
        lam_hi = lam_hi * 8.0
        sol_hi = solve(lam_hi, sol_hi.q)
    if sol_hi.dist > d + ctol:
        return sol_hi, lam_hi

    best = sol_hi
    for _ in range(200):
        # rate is nonnegative, so a near-zero feasible rate is already optimal
        if best.rate <= rate_gap:
            break
        if best.rate - lower_bound(lam_lo, sol_lo) <= rate_gap:
            break
        gap = d - sol_hi.dist
        if gap * max(lam_hi, 1.0) <= 1e-8 or (lam_hi - lam_lo) <= 1e-13 * (1.0 + lam_hi):
            break
        if budget.exhausted:
            break
        # while the whole (0, lam_hi] range has stayed feasible, descend
        # aggressively: in flat regions the rate decays with lambda and a
        # plain midpoint would crawl through dozens of probes
        mid = lam_hi / 32.0 if lam_lo == 0.0 else 0.5 * (lam_lo + lam_hi)
        sol_mid = solve(mid, sol_hi.q)
        if sol_mid.dist > d:
            lam_lo, sol_lo = mid, sol_mid
        else:
            lam_hi, sol_hi = mid, sol_mid
            if sol_hi.rate <= best.rate:
                best = sol_hi
    return best, lam_hi


# ---------------------------------------------------------------------------
# perception boundary search
# ---------------------------------------------------------------------------


def _last_inside(pr: _Problem, path, lo: float, hi: float) -> np.ndarray:
    """Bisect t in [lo, hi] for the last point path(t) inside the perception
    ball; path(lo) must be inside and the perception must grow along t."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _perception_of(pr, path(mid)) > pr.p_budget:
            hi = mid
        else:
            lo = mid
    return path(lo)


def _boundary_crossing(pr: _Problem, m_free: np.ndarray) -> np.ndarray:
    """Point where the segment [P_X, m_free] crosses the perception sphere
    d(P_X, .) = P; assumes d(P_X, m_free) > P."""
    p = pr.target[pr.cols].copy()
    p = p / p.sum() if p.sum() > 0 else np.full_like(p, 1.0 / p.size)
    return _last_inside(pr, lambda t: (1 - t) * p + t * m_free, 0.0, 1.0)


def _lmo(pr: _Problem, g: np.ndarray) -> np.ndarray:
    """Linear minimization oracle: the marginal on the allowed columns that
    minimizes <g, s> inside the perception ball d(P_X, s) <= P."""
    p = pr.target[pr.cols]
    if pr.perception.kind == "tv":
        # the P/2 budget, less the dropped columns' mass, moves mass from the
        # dearest cells to the cheapest one, which also takes the dropped mass
        low = int(np.argmin(g))
        s = p.copy()
        movable = max(pr.p_budget / 2.0 - (1.0 - p.sum()), 0.0)
        for h in np.argsort(g)[::-1]:
            if h != low:
                take = min(s[h], movable)
                s[h] -= take
                movable -= take
        s[low] += 1.0 - s.sum()
        return s
    # KL: stationarity gives s proportional to p / (g + alpha) with alpha
    # above -min g on the support; KL(P_X || s) falls as alpha grows
    g = g - g[p > 0].min()
    scale = max(float(g.max()), 1e-300)

    def point(t: float) -> np.ndarray:
        s = np.where(p > 0, p / (g + scale * 2.0 ** -t), 0.0)
        return s / s.sum()

    return _last_inside(pr, point, -60.0, 60.0)


def conditional_rdp(query: RdpQuery, *, constraint_tol: float = 1e-6,
                    max_iterations: int = 100_000) -> RdpResult:
    """Solve the conditional RDP minimization for one query.

    Returns a feasible test channel whose conditional mutual information
    is within solver tolerance of the constrained minimum. Raises
    InfeasibleError when no channel can meet the budgets (e.g. a
    restricted reconstruction alphabet with D too small). An exhausted
    iteration cap or a Frank-Wolfe gap above FW_GAP is reported via
    converged=False.
    """
    pr = _build_problem(query)
    # with a finite perception budget, phase 1 may sit in a flat near-zero
    # rate region; cap it so the boundary-pinned phase keeps iterations
    phase1_cap = max_iterations if not math.isfinite(query.p_budget) \
        else max(max_iterations * 2 // 5, 1000)
    budget = _Budgeter(min(phase1_cap, max_iterations))
    ctol = constraint_tol

    # exact rate-0 shortcut: reconstruction drawn per w, independent of x
    if pr.d_budget > 1e-15:
        c_w = np.einsum("xw,xh->wh", pr.x_given_w, pr.delta)
        pick = np.argmin(c_w, axis=1)
        n_w = c_w.shape[0]
        q_w = pr.q_xw.sum(axis=0)
        dist0 = float(np.sum(q_w * c_w[np.arange(n_w), pick]))
        if dist0 <= pr.d_budget + 1e-15:
            q0 = np.zeros((pr.q_xw.shape[0], n_w, pr.delta.shape[1]))
            q0[:, np.arange(n_w), pick] = 1.0
            rate0, dist0x, perc0, _ = _metrics(pr, q0)
            if perc0 <= pr.p_budget:
                sol0 = _Solution(q=q0, rate=0.0, dist=dist0x, perc=perc0,
                                 sweeps=0, settled=True)
                return _to_result(pr, sol0, lam=0.0, converged=True, iterations=0)

    sol, lam = _bisect_lambda(pr, budget, ctol)
    if sol.dist > pr.d_budget + ctol:
        return _to_result(pr, sol, lam, converged=False, iterations=budget.used)
    if sol.perc <= pr.p_budget + ctol:
        converged = sol.settled and not budget.exhausted
        return _to_result(pr, sol, lam, converged, iterations=budget.used)

    # perception active: Frank-Wolfe on the pinned rate V(m) over the
    # perception ball; the gap <g, m - s> with g = -nu bounds V(m) - min V
    budget2 = _Budgeter(max(max_iterations - budget.used, 1000))

    def pin(m_t: np.ndarray) -> tuple[_Solution, float, np.ndarray]:
        s, l = _bisect_lambda(pr, budget2, ctol, m_target=m_t)
        return (s if s.dist <= pr.d_budget + ctol else replace(s, rate=math.inf)), l, m_t

    best = pin(_boundary_crossing(pr, np.einsum("xw,xwh->h", pr.q_xw, sol.q)))
    gap = math.inf
    while math.isfinite(best[0].rate) and not budget2.exhausted:
        m = best[2]
        direction = _lmo(pr, -best[0].nu) - m
        gap = float(best[0].nu @ direction)
        if gap <= FW_GAP:
            break
        # secant step on the slope -nu . d: take the vertex unless the slope
        # there has turned positive (or the vertex misses D); then step to
        # the zero of the secant through the slopes at both ends
        cand = pin(m + direction)
        slope = -float(cand[0].nu @ direction) if math.isfinite(cand[0].rate) else gap
        if slope > 0:
            cand = pin(m + gap / (gap + slope) * direction)
        if not cand[0].rate < best[0].rate:
            break
        best = cand
    sol_p, lam_p, _ = best

    total_used = budget.used + budget2.used
    if not math.isfinite(sol_p.rate):
        # no marginal on the boundary meets the distortion budget jointly
        return _to_result(pr, sol, lam, converged=False, iterations=total_used)
    converged = (gap <= FW_GAP and sol_p.settled and not budget2.exhausted
                 and sol_p.perc <= pr.p_budget + ctol)
    return _to_result(pr, sol_p, lam_p, converged, iterations=total_used)


def _to_result(pr: _Problem, sol: _Solution, lam: float, converged: bool,
               iterations: int) -> RdpResult:
    n_x, n_w = pr.q_xw.shape
    full = np.zeros((n_x, n_w, pr.full_recon))
    full[:, :, pr.cols] = sol.q
    return RdpResult(rate=sol.rate, test_channel=Kernel(full),
                     achieved_distortion=sol.dist, achieved_perception=sol.perc,
                     converged=converged,
                     iterations=iterations,
                     lam=lam)


def rdp_point_to_point(p_x: Pmf, delta: DistortionMatrix, perception: PerceptionMeasure,
                       d_budget: float, p_budget: float,
                       recon_alphabet: tuple[int, ...] | None = None,
                       **kwargs) -> RdpResult:
    """Point-to-point RDP function: the conditional problem with |W| = 1."""
    q_xw = JointPmf(p_x.probs[:, None], ("X", "W"))
    query = RdpQuery(q_xw=q_xw, delta=delta, perception=perception,
                     d_budget=d_budget, p_budget=p_budget, recon_alphabet=recon_alphabet)
    return conditional_rdp(query, **kwargs)


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------


def _simplex_grid(k: int, steps: int) -> np.ndarray:
    """All pmfs on k symbols with entries i/(steps-1); shape (count, k)."""
    if steps < 2:
        raise ValueError("grid_steps must be at least 2")
    total = steps - 1
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i, slots - 1)

    rec([], total, k)
    return np.asarray(out, dtype=np.float64) / total


def brute_force_rdp(query: RdpQuery, grid_steps: int, *,
                    max_free_params: int = 6, chunk: int = 200_000) -> RdpResult:
    """Exhaustive grid search over test channels; oracle use only.

    Each (x, w) row of the channel ranges over a simplex grid of the given
    resolution; the best feasible grid point is returned. Deterministic:
    ties break toward the smallest enumeration index.
    """
    pr = _build_problem(query)
    n_x, n_w = pr.q_xw.shape
    n_h = pr.delta.shape[1]
    n_rows = n_x * n_w
    free = n_rows * (n_h - 1)
    if free > max_free_params:
        raise ValueError(f"{free} free parameters exceed the cap of {max_free_params}")

    rows = _simplex_grid(n_h, grid_steps)
    n_rowpts = rows.shape[0]
    total = n_rowpts ** n_rows
    q_w = pr.q_xw.sum(axis=0)

    best_rate = math.inf
    best_q = None

    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        # decode per-row grid indices (mixed radix, row 0 most significant)
        q = np.empty((idx.size, n_rows, n_h))
        rem = idx.copy()
        for row in range(n_rows - 1, -1, -1):
            q[:, row, :] = rows[rem % n_rowpts]
            rem //= n_rowpts
        q = q.reshape(idx.size, n_x, n_w, n_h)

        joint = pr.q_xw[None, :, :, None] * q
        dist = np.einsum("bxwh,xh->b", joint, pr.delta)
        m = joint.sum(axis=(1, 2))
        if pr.perception.kind == "tv" and pr.full_recon == n_x and np.array_equal(pr.cols, np.arange(n_x)):
            perc = np.abs(m - pr.p_x[None, :]).sum(axis=1)
        else:
            perc = np.array([_perception_of(pr, mi) for mi in m])
        r = joint.sum(axis=1)  # (b, w, h) = q_w * per-w output marginal
        with np.errstate(divide="ignore", invalid="ignore"):
            r_cond = r / np.maximum(q_w[None, :, None], 1e-300)
            ratio = np.log2(np.where(joint > 0, q / np.maximum(r_cond[:, None], 1e-300), 1.0))
        rate = np.sum(joint * ratio, axis=(1, 2, 3))

        feasible = (dist <= pr.d_budget + 1e-12) & (perc <= pr.p_budget + 1e-12)
        if np.any(feasible):
            sub = np.where(feasible)[0]
            k = sub[np.argmin(rate[sub])]
            if rate[k] < best_rate - 1e-15:
                best_rate = float(rate[k])
                best_q = q[k].copy()

    if best_q is None:
        raise InfeasibleError("no feasible grid point at this resolution")

    rate, dist, perc, _ = _metrics(pr, best_q)
    sol = _Solution(q=best_q, rate=rate, dist=dist, perc=perc, sweeps=total, settled=True)
    return _to_result(pr, sol, lam=0.0, converged=True, iterations=total)


# ---------------------------------------------------------------------------
# feasibility report
# ---------------------------------------------------------------------------


def feasibility_report(query: RdpQuery, epsilon: float = 1e-6) -> FeasibilityReport:
    """Check that the query admits an epsilon-feasible finite-rate witness.

    Verifies rate <= H(X|W) and re-evaluates the witness channel's rate,
    distortion, and perception directly from the induced joint.
    """
    q_xw = np.asarray(query.q_xw.probs)
    h_x_given_w = _entropy_bits(q_xw) - _entropy_bits(q_xw.sum(axis=0))
    try:
        witness = conditional_rdp(query)
    except InfeasibleError as exc:
        return FeasibilityReport(satisfied=False, finite_rate_ok=True,
                                 conditions={}, diagnostic=str(exc), witness=None)

    pr = _build_problem(query)
    q = witness.test_channel.probs[:, :, pr.cols]
    rate, dist, perc, _ = _metrics(pr, q)
    conditions = {
        "rate_within_epsilon": rate <= witness.rate + epsilon,
        "distortion_within_epsilon": dist <= query.d_budget + epsilon,
        "perception_within_epsilon": perc <= query.p_budget + epsilon,
        "rate_at_most_conditional_entropy": rate <= h_x_given_w + epsilon,
    }
    ok = all(conditions.values()) and witness.converged
    diag = "" if ok else "witness failed: " + ", ".join(k for k, v in conditions.items() if not v)
    if not witness.converged:
        diag = (diag + "; " if diag else "") + "solver did not converge"
    return FeasibilityReport(satisfied=ok, finite_rate_ok=conditions["rate_at_most_conditional_entropy"],
                             conditions=conditions, diagnostic=diag, witness=witness)
