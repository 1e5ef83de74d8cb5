"""Conditional rate-distortion-perception solver.

Computes R_{X|W}(Q_XW, D, P): the minimum of I(X; Xhat | W) over test
channels q(xhat | x, w) subject to an expected-distortion budget D and a
perception budget P on the reconstruction marginal Q_Xhat (measured
against the source marginal P_X; the TV measure uses the unhalved
sum-of-absolute-differences convention with range [0, 2]).

The problem is convex; the solver maximizes its Lagrange dual
G(lam, nu) - lam D - sigma(nu) over lam >= 0 and the tilt nu, where
G(lam, nu) = sum_w q_w min_r -sum_x p(x|w) log2 sum_h r_h 2^(-lam d(x,h) - nu_h)
is the least I(X; Xhat | W) + lam E d + nu . Q_Xhat, with gradient
(E d, Q_Xhat), and sigma is the support function of the perception ball.
Each w's minimization over r is an active-set Newton solve; the outer
loop is damped Newton with G's Hessian from the inner optimality
conditions. That Hessian's KKT solve also gives dr_w/dtheta on r_w's
support (Fiacco's sensitivity of a parametric program), so each trial
point starts w's inner solve from the accepted point's first-order
prediction r_w + (dr_w/dtheta) step, clipped at 0. A dual point forms G
from its inner solves at once, and its channel, Blahut bound, metrics
and Hessian only where the outer loop reads them: a rejected trial step
needs none, and the point where a search ends no Hessian. A log barrier
keeps lam > 0; TV's sigma(nu) = nu.P_X + (P/2)(max nu - min nu) is
smoothed by tau-weighted log-sum-exp; KL's sigma(nu) = -2^-P prod_h
(-nu_h)^P_X(h) is smooth. tau falls whenever the gradient is below it:
tenfold once nu is free, and to min(tau/10, tau^1.5) on the
perception-free phase, whose Newton steps land on each new centre at
once. That phase keeps only channels with E d <= D exactly, as its
centres have E d = D - tau/lam; the perception phase allows
_CONSTRAINT_TOL. nu joins only when the perception-free solution misses
P.

Every dual point certifies a lower bound: Blahut's bound f(r) - log2
max_h c_h on each inner minimum (Blahut, IEEE T-IT 1972; Csiszar, IEEE
T-IT 1974), less lam D and the exact sigma. ``gap`` is a result's rate
minus the best bound; ``converged`` means its channel meets both budgets
with |gap| at most GAP_TOL bits (below -GAP_TOL, the budget slack bought a
rate under the certified bound). The solver draws no random numbers; one
DEBUG record per solve gives its path, outer steps, inner Newton steps,
dual points formed, Hessians formed and each phase's tau levels and last tau.

Rates are in bits throughout.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prob import JointPmf, Kernel, Pmf, kl_divergence, tv_distance

GAP_TOL = 1e-6  # bits: certified gap that counts as converged
_GAP_AIM = GAP_TOL / 100  # bits: where the search stops, well inside GAP_TOL
_INNER_TOL = 1e-10  # bits: Blahut bound each inner solve reaches
_MAX_OUTER = 500  # outer Newton steps per dual
_MAX_INNER = 100_000  # inner Newton steps per query
_CONSTRAINT_TOL = 1e-6  # slack on both budgets for a returned channel

_log = logging.getLogger(__name__)


class InfeasibleError(ValueError):
    """No test channel can satisfy the requested budgets."""


def hamming(n_source: int) -> np.ndarray:
    """Square 0/1 distortion matrix; zero exactly on the diagonal."""
    d = np.ones((n_source, n_source))
    np.fill_diagonal(d, 0.0)
    return d


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """Per-symbol-pair distortion values, nonnegative and bounded.

    The columns are the reconstruction alphabet, and reconstruction symbol
    h is compared with source symbol h by the perception measure. Every
    source symbol must have at least one zero-distortion reconstruction.
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
        return (tv_distance if self.kind == "tv" else kl_divergence)(p, q)


@dataclass(frozen=True)
class RdpQuery:
    """One conditional RDP problem instance."""

    q_xw: JointPmf
    delta: DistortionMatrix
    perception: PerceptionMeasure
    d_budget: float
    p_budget: float

    def __post_init__(self):
        if self.q_xw.probs.ndim != 2:
            raise ValueError("q_xw must be a 2-axis joint over (X, W)")
        if self.delta.n_source != self.q_xw.shape[0]:
            raise ValueError("distortion matrix rows must match the source alphabet")
        if self.d_budget < 0:
            raise ValueError("d_budget must be nonnegative")
        if self.p_budget < 0:
            raise ValueError("p_budget must be nonnegative (use inf to disable)")


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
    gap: float = math.nan  # rate minus the certified lower bound, bits


# ---------------------------------------------------------------------------
# problem setup
# ---------------------------------------------------------------------------


@dataclass
class _Problem:
    q_xw: np.ndarray        # (X, W)
    x_given_w: np.ndarray   # (X, W), uniform on zero-mass w columns
    p_x: np.ndarray         # (X,) source marginal
    delta: np.ndarray       # (X, H)
    perception: PerceptionMeasure
    d_budget: float
    p_budget: float
    mask: np.ndarray        # (X, H) boolean support mask (D=0 handling)
    target: np.ndarray      # source marginal, zero-padded to max(X, H) symbols
    p_h: np.ndarray         # (H,) source marginal on the first H symbols


def _build_problem(query: RdpQuery) -> _Problem:
    q_xw = np.asarray(query.q_xw.probs, dtype=np.float64)
    n_x, n_w = q_xw.shape
    p_x = q_xw.sum(axis=1)
    q_w = q_xw.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        x_given_w = np.where(q_w > 0, q_xw / np.where(q_w > 0, q_w, 1.0), 1.0 / n_x)

    delta = query.delta.values
    n_h = delta.shape[1]

    # a reconstruction never carries the mass of source symbols past |Xhat|
    lost = float(p_x[n_h:].sum())
    if math.isfinite(query.p_budget):
        if query.perception.kind == "kl" and lost > 0:
            raise InfeasibleError(
                f"KL perception is infinite: the {n_h} reconstruction symbols miss source "
                f"mass {lost:.6g}")
        if query.perception.kind == "tv" and 2.0 * lost > query.p_budget + 1e-12:
            raise InfeasibleError(
                f"TV perception cannot go below {2 * lost:.6g} with {n_h} reconstruction "
                f"symbols, budget is {query.p_budget}")

    # D = 0 allows only zero-distortion cells, which every row has
    mask = delta == 0.0 if query.d_budget <= 1e-15 else np.ones_like(delta, dtype=bool)
    target = np.zeros(max(n_h, n_x))
    target[:n_x] = p_x
    return _Problem(q_xw=q_xw, x_given_w=x_given_w, p_x=p_x, delta=delta,
                    perception=query.perception, d_budget=query.d_budget,
                    p_budget=query.p_budget, mask=mask, target=target, p_h=target[:n_h])


def _perception_of(pr: _Problem, m: np.ndarray) -> float:
    full = np.zeros(pr.target.shape[0])
    full[:m.shape[0]] = m
    return pr.perception.value(pr.target, full)


def _metrics(pr: _Problem, q: np.ndarray):
    joint = pr.q_xw[:, :, None] * q
    r = np.einsum("xw,xwh->wh", pr.x_given_w, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log2(np.where(joint > 0, q / np.maximum(r[None], 1e-300), 1.0))
    rate = float(np.sum(joint * ratio))
    dist = float(np.sum(joint * pr.delta[:, None, :]))
    m = joint.sum(axis=(0, 1))
    return max(rate, 0.0), dist, _perception_of(pr, m), m


def _lmo(pr: _Problem, g: np.ndarray) -> np.ndarray:
    """Linear minimization oracle of the TV ball: the reconstruction
    marginal that minimizes <g, s> subject to TV(P_X, s) <= P. The P/2
    budget, less P_X's mass past the last reconstruction symbol, moves mass
    from the dearest cells to the cheapest one, which also takes that
    mass."""
    p = pr.p_h
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


# ---------------------------------------------------------------------------
# dual solver
# ---------------------------------------------------------------------------


def _kkt(a: np.ndarray, p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Newton system of f on the face of a's columns: [[H, 1], [1^T, 0]];
    a relative ridge of 1e-12 keeps H definite when columns coincide."""
    h = (a * (p / z ** 2)[:, None]).T @ a
    k = len(h)
    m = np.empty((k + 1, k + 1))
    m[:k, :k] = h
    m.flat[:k * (k + 2):k + 2] += 1e-12 * np.trace(h)  # the ridge, on H's diagonal
    m[:k, k] = m[k, :k] = 1.0
    m[k, k] = 0.0
    return m


def _inner_newton(p: np.ndarray, a: np.ndarray, r: np.ndarray,
                  max_steps: int) -> tuple[np.ndarray, int]:
    """Minimize f(r) = -sum_x p_x log2 (a r)_x over the simplex from ``r``
    by Newton steps on the face r > 0; a solved face takes in the column
    with the largest c_h = sum_x p_x a_xh / (a r)_x. Stops once Blahut's
    bound log2 max_h c_h >= f(r) - min f is at most _INNER_TOL. Returns r
    and the number of Newton steps.
    """
    steps, last = 0, math.inf
    with np.errstate(divide="ignore"):
        while steps < max_steps:
            z = a @ r
            c = a.T @ (p / z)
            if math.log2(c.max()) <= _INNER_TOL:
                break
            free = r > 0
            face = math.log2(c[free].max())
            if face <= _INNER_TOL / 2 or face >= last:
                # the face is solved, or no longer improves at double
                # precision: the best column outside it joins, if any helps
                out = np.where(free, -np.inf, c)
                if out.max() <= c[free].max():
                    break
                free[np.argmax(out)] = True
            steps += 1
            while True:  # solved for c - 1, as the constant only moves the multiplier
                d = np.zeros_like(r)
                d[free] = np.linalg.solve(_kkt(a[:, free], p, z),
                                          np.append(c[free] - 1.0, 0.0))[:-1]
                stuck = (r == 0) & (d < 0)
                if not stuck.any():
                    break
                free &= ~stuck
            # longest step keeping r >= 0, then Armijo backtracking; below
            # f's rounding level the model is exact, so the step is taken,
            # and the face counts as solved once that stops shrinking its gap
            ratios = np.where(d < 0, r / np.maximum(-d, 1e-300), np.inf)
            edge = int(np.argmin(ratios))
            t = min(1.0, float(ratios[edge]))
            f0, slope = -p @ np.log(z), -((c - 1.0) @ d)
            last = face if slope > -1e-13 else math.inf
            for _ in range(40):
                r_new = np.maximum(r + t * d, 0.0)
                if t == ratios[edge]:
                    r_new[edge] = 0.0
                if last < math.inf or -p @ np.log(a @ r_new) <= f0 + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break
            r = r_new / r_new.sum()
    return r, steps


class _Point:
    """G at theta = (lam, nu) with each w's inner solution (w, its rows
    of a, r, a r and its term of G). The channel, Blahut's bound, the
    metrics and the Hessian, with each w's slope dr_w/dtheta, are formed on
    first read: a rejected trial needs only G, and the point where a
    search ends no Hessian."""

    def __init__(self, dual: "_Dual", theta: np.ndarray, g: float, solved: list):
        self.dual, self.theta, self.g, self.solved = dual, theta, g, solved

    @cached_property
    def g_low(self) -> float:
        """Blahut's lower bound on G(theta)."""
        dual, g_low = self.dual, 0.0
        for w, aw, r, z, f in self.solved:
            g_low += dual.q_w[w] * (f - math.log2((aw.T @ (dual.p[w] / z)).max()))
        return g_low

    @cached_property
    def q(self) -> np.ndarray:
        """(X, W, H) test channel; uniform on the mask for zero-mass w."""
        q = self.dual.q_base.copy()
        for w, aw, r, z, _ in self.solved:
            q[self.dual.on[w], w] = aw * r / z[:, None]
        return q

    @cached_property
    def metrics(self) -> tuple[float, float, float, np.ndarray]:
        """(rate, E d, perception, Q_Xhat) of the channel."""
        return _metrics(self.dual.pr, self.q)

    rate = property(lambda self: self.metrics[0])
    dist = property(lambda self: self.metrics[1])
    perc = property(lambda self: self.metrics[2])
    grad = property(lambda self: np.concatenate([[self.metrics[1]], self.metrics[3]]))

    @cached_property
    def hess(self) -> np.ndarray:
        # the covariance under the channel of the exponent's gradient
        # (d(x, h), e_h), plus r's response through the inner optimality
        # conditions; that response, times -ln 2, is dr_w/dtheta on r_w's
        # support, kept as each w's slope for ``predict``
        dual, q = self.dual, self.q
        dual.hessians += 1
        hess = np.zeros((self.theta.size, self.theta.size))
        self.slopes = []
        for w, aw, r, z, _ in self.solved:
            on, p, dw = dual.on[w], dual.p[w], dual.delta[w]
            qw = q[on, w]
            dev = np.concatenate([(dw - (qw * dw).sum(axis=1, keepdims=True))[:, :, None],
                                  dual.eye[None] - qw[:, None, :]], axis=2)
            wdev = dev * (p[:, None] * qw)[:, :, None]
            sup = r > 0
            cross = wdev[:, sup].sum(axis=0) / r[sup][:, None]
            resp = np.linalg.solve(_kkt(aw[:, sup], p, z), np.vstack([cross, dual.zero]))[:-1]
            self.slopes.append(-math.log(2.0) * resp)
            hess -= math.log(2.0) * dual.q_w[w] * (np.einsum("xhi,xhj->ij", wdev, dev)
                                                   + cross.T @ resp)
        return hess

    def predict(self, step: np.ndarray) -> None:
        """Start each w's next inner solve at theta + step from the first-order
        prediction r_w + (dr_w/dtheta) step on r_w's support, clipped at 0 and
        renormalized; it stays 0 off the support. Needs the Hessian."""
        for (w, _, r, _, _), slope in zip(self.solved, self.slopes):
            sup = r > 0
            start = np.zeros_like(r)
            start[sup] = np.maximum(r[sup] + slope @ step, 0.0)
            self.dual.r[w] = start / start.sum()


class _Dual:
    """G by one warm-started inner solve per w; counts inner steps, dual
    points and Hessians formed."""

    def __init__(self, pr: _Problem, max_steps: int):
        self.pr, self.steps, self.cap = pr, 0, max_steps
        self.points = self.hessians = 0
        self.q_w = pr.q_xw.sum(axis=0)
        self.on = [pr.x_given_w[:, w] > 0 for w in range(self.q_w.size)]
        self.p = [pr.x_given_w[on, w] for w, on in enumerate(self.on)]
        self.delta = [pr.delta[on] for on in self.on]
        self.live = np.flatnonzero(self.q_w > 0)
        usable = [pr.mask[on].any(axis=0) for on in self.on]
        self.r = [u / u.sum() for u in usable]
        n_h = pr.delta.shape[1]
        self.q_base = np.broadcast_to((pr.mask / pr.mask.sum(axis=1, keepdims=True))[:, None, :],
                                      pr.q_xw.shape + (n_h,)).copy()
        self.eye, self.zero = np.eye(n_h), np.zeros(1 + n_h)

    def point(self, theta: np.ndarray) -> _Point:
        pr = self.pr
        expo = np.where(pr.mask, theta[0] * pr.delta + theta[1:], np.inf)
        lo = expo.min(axis=1)
        a = np.exp2(lo[:, None] - expo)  # row maximum 1, zero off the mask
        g, solved = 0.0, []
        for w in self.live:
            on, p = self.on[w], self.p[w]
            aw = a[on]
            r, steps = _inner_newton(p, aw, self.r[w], max(self.cap - self.steps, 0))
            self.steps += steps
            self.r[w] = r
            z = aw @ r
            f = float(p @ lo[on] - p @ np.log2(z))
            g += self.q_w[w] * f
            solved.append((w, aw, r, z, f))
        self.points += 1
        return _Point(self, theta, g, solved)


def _maximize(dual: _Dual, theta: np.ndarray, free: np.ndarray, sign: np.ndarray,
              p_budget: float, terms=None, sigma=None):
    """Maximize G(theta) - lam D + tau log lam + terms(theta, tau) over
    theta[free] (``sign`` +1 / -1 keeps a coordinate positive / negative)
    until the best channel within the budgets is at most _GAP_AIM above
    the best bound G_low - lam D - sigma. Returns that channel's point (or
    the last), the bound, the number of outer steps and (tau levels, last tau).
    """
    pr = dual.pr
    tau, reg, levels = 0.1, 0.0, 1
    slack = _CONSTRAINT_TOL if terms else 0.0  # the free phase's centres lie inside D

    def smoothed(th: np.ndarray):
        val, grad, hess = (terms(th, tau) if terms else
                           (0.0, np.zeros(th.size), np.zeros((th.size, th.size))))
        if free[0]:  # the barrier keeps lam > 0 and E d < D
            val += tau * math.log(th[0]) - th[0] * pr.d_budget
            grad[0] += tau / th[0] - pr.d_budget
            hess[0, 0] -= tau / th[0] ** 2
        return val, grad, hess

    pt, here = dual.point(theta), None  # here: smoothed(pt.theta) at this tau, once formed
    best, bound, outer = None, 0.0, 0  # rates are nonnegative: 0 is a bound
    while True:
        bound = max(bound, pt.g_low - pt.theta[0] * pr.d_budget
                    - (sigma(pt.theta) if sigma else 0.0))
        if (pt.dist <= pr.d_budget + slack and pt.perc <= p_budget + _CONSTRAINT_TOL
                and (best is None or pt.rate < best.rate)):
            best = pt
        if ((best is not None and best.rate - bound <= _GAP_AIM) or dual.steps >= dual.cap
                or outer >= _MAX_OUTER or not free.any()):
            break
        val, grad, hess = here or smoothed(pt.theta)
        grad = (pt.grad + grad)[free]
        if np.abs(grad).max() <= tau:
            if tau < 1e-13:
                break
            # a free-phase Newton step lands on the next centre at once, so
            # tau falls superlinearly there, never past the stop's 1e-14
            tau = tau * 0.1 if terms else max(min(tau * 0.1, tau ** 1.5), 1e-14)
            here, levels = None, levels + 1
            continue
        hess = -(pt.hess + hess)[np.ix_(free, free)]
        hess += 1e-12 * max(1.0, float(np.diag(hess).max())) * np.eye(grad.size)
        # Levenberg-Marquardt: a rejected trial adds a tenfold ridge. Steps
        # move no multiplier by more than 1 + |theta|, keep signs, and are
        # taken as they are below the objective's rounding level.
        while reg < 1e12:
            step = np.zeros_like(theta)
            step[free] = np.linalg.solve(hess + reg * np.eye(grad.size), grad)
            decrement = float(grad @ step[free])
            toward = sign * step < 0
            t = min(1.0, (1.0 + np.abs(pt.theta).max()) / np.abs(step).max(),
                    0.99 * float(np.min(np.abs(pt.theta[toward] / step[toward]),
                                        initial=np.inf)))
            pt.predict(t * step)
            trial, here = dual.point(pt.theta + t * step), None
            if decrement < 1e-13:
                break
            here = smoothed(trial.theta)
            if trial.g + here[0] >= pt.g + val + 0.1 * t * decrement:
                break
            reg = max(10.0 * reg, 1e-4)
        else:
            break
        reg = reg / 10.0 if reg > 1e-4 else 0.0
        pt = trial
        outer += 1
    return best or pt, bound, outer, (levels, tau)


def _perception_dual(pr: _Problem, theta: np.ndarray):
    """Free tilts, signs, terms, sigma and a start for the perception dual.
    TV: sigma(nu) = nu.p + a max nu - b min nu, a = P/2, b = a - (P_X's
    mass past the last reconstruction symbol); the dual is constant along
    nu + c, so nu_0 stays 0. KL: dualizing -log m_h by its conjugate gives
    sigma(nu) = -2^-P prod_h (-nu_h)^p_h, nu < 0 on P_X's support and 0 off
    it.
    """
    p = pr.p_h
    free, sign, theta = np.zeros(theta.size, dtype=bool), np.zeros(theta.size), theta.copy()
    if pr.perception.kind == "tv":
        free[2:] = True
        theta[1:] = 0.0
        weights = ((pr.p_budget / 2.0, 1.0), (max(pr.p_budget / 2.0 - (1.0 - p.sum()), 0.0), -1.0))

        def terms(th: np.ndarray, tau: float):
            val, grad, hess = -(th[1:] @ p), np.zeros(th.size), np.zeros((th.size, th.size))
            grad[1:] = -p
            for weight, s in weights:  # weight * tau * log-sum-exp(s nu / tau)
                e = s * th[1:] / tau
                ex = np.exp(e - e.max())
                pi = ex / ex.sum()
                val -= weight * tau * (e.max() + math.log(ex.sum()))
                grad[1:] -= weight * s * pi
                hess[1:, 1:] -= weight / tau * (np.diag(pi) - np.outer(pi, pi))
            return val, grad, hess

        return free, sign, terms, (lambda th: th[1:] @ _lmo(pr, -th[1:])), theta

    sup = p > 0
    free[1:] = sup
    sign[1:] = theta[1:] = np.where(sup, -1.0, 0.0)
    ps, idx = p[sup], 1 + np.flatnonzero(sup)

    def gm(th: np.ndarray) -> float:
        return 2.0 ** -pr.p_budget * math.exp(ps @ np.log(-th[idx]))

    def terms(th: np.ndarray, tau: float):
        # the barrier on -nu keeps the marginal above sigma's maximizer
        nu, g = th[idx], gm(th)
        grad, hess = np.zeros(th.size), np.zeros((th.size, th.size))
        grad[idx] = g * ps / nu + tau / nu
        hess[np.ix_(idx, idx)] = (g * (np.outer(ps / nu, ps / nu) - np.diag(ps / nu ** 2))
                                  - np.diag(tau / nu ** 2))
        return g + tau * float(np.log(-nu).sum()), grad, hess

    return free, sign, terms, (lambda th: -gm(th)), theta


def conditional_rdp(query: RdpQuery) -> RdpResult:
    """Solve the conditional RDP minimization for one query.

    Returns the best test channel found within both budgets (the
    perception phase allows _CONSTRAINT_TOL) with its certified gap (see
    the module docstring); _MAX_INNER caps the inner Newton steps. Raises
    InfeasibleError when no channel can meet the perception budget: a
    finite KL budget, or a TV budget below twice P_X's mass, on source
    symbols past the last reconstruction symbol.
    """
    pr = _build_problem(query)

    # exact rate-0 shortcut: each w's least-distortion symbol, independent
    # of x; if that misses P, mixed toward P_X as far as D allows
    dist0 = math.inf
    if pr.d_budget > 1e-15:
        c_w = np.einsum("xw,xh->wh", pr.x_given_w, pr.delta)
        q0 = np.zeros(pr.q_xw.shape + pr.delta.shape[1:])
        q0[:, np.arange(c_w.shape[0]), np.argmin(c_w, axis=1)] = 1.0
        _, dist0, perc0, _ = _metrics(pr, q0)
        src = pr.p_h
        if dist0 <= pr.d_budget + 1e-15 and perc0 > pr.p_budget and src.sum() > 0:
            q1 = np.broadcast_to(src / src.sum(), q0.shape)
            dist1 = _metrics(pr, q1)[1]
            t = 1.0 if dist1 <= pr.d_budget else (pr.d_budget - dist0) / (dist1 - dist0)
            q0 = (1.0 - t) * q0 + t * q1
            _, dist0, perc0, _ = _metrics(pr, q0)
        if dist0 <= pr.d_budget + 1e-15 and perc0 <= pr.p_budget + 1e-15:
            _log.debug("conditional_rdp: rate-0 channel")
            return _to_result(pr, q0, 0.0, dist0, perc0, lam=0.0, gap=0.0,
                              converged=True, iterations=0)

    # the perception-free dual first, unless the rate-0 channel meets D
    dual = _Dual(pr, _MAX_INNER)
    lam = np.zeros(1 + pr.delta.shape[1], dtype=bool)
    lam[0] = pr.d_budget > 1e-15
    best, outer, path, phases = None, 0, "free", []
    if dist0 > pr.d_budget:
        best, bound, outer, taus = _maximize(dual, lam * 1.0, lam, lam * 1.0, math.inf)
        phases.append(("free", *taus))
    if math.isfinite(pr.p_budget) and (best is None or best.perc > pr.p_budget + _CONSTRAINT_TOL):
        path = "perception"
        free, sign, terms, sigma, theta = _perception_dual(pr, lam * 1.0 if best is None
                                                           else best.theta)
        best, bound, more, taus = _maximize(dual, theta, free | lam, sign + lam, pr.p_budget,
                                            terms, sigma)
        outer += more
        phases.append(("perception", *taus))
    gap = float(best.rate - bound)
    converged = bool(best.dist <= pr.d_budget + _CONSTRAINT_TOL
                     and best.perc <= pr.p_budget + _CONSTRAINT_TOL and abs(gap) <= GAP_TOL)
    _log.debug("conditional_rdp: %s dual, %d outer iterations, %d inner Newton steps, "
               "%d dual points, %d Hessians, gap %.3g bits%s", path, outer, dual.steps,
               dual.points, dual.hessians, gap,
               "".join(f"; {name} phase {n} tau levels to {t:.2g}" for name, n, t in phases))
    return _to_result(pr, best.q, best.rate, best.dist, best.perc, lam=float(best.theta[0]),
                      gap=gap, converged=converged, iterations=dual.steps)


def _rate_bound(query: RdpQuery, lam: float) -> float:
    """For any lam >= 0, a lower bound on the rate of every channel on the
    solver's support (zero-distortion cells only at D = 0) with E d <= D +
    _CONSTRAINT_TOL, so on every rate conditional_rdp returns within its
    budgets: Blahut's bound on G(lam, 0) at one dual point, less lam (D +
    _CONSTRAINT_TOL), by weak duality; nu = 0 drops the perception term."""
    pr = _build_problem(query)
    theta = np.zeros(1 + pr.delta.shape[1])
    theta[0] = lam
    return _Dual(pr, _MAX_INNER).point(theta).g_low - lam * (pr.d_budget + _CONSTRAINT_TOL)


def _to_result(pr: _Problem, q: np.ndarray, rate: float, dist: float, perc: float, *,
               lam: float, gap: float, converged: bool, iterations: int) -> RdpResult:
    return RdpResult(rate=rate, test_channel=Kernel(q), achieved_distortion=dist,
                     achieved_perception=perc, converged=converged, iterations=iterations,
                     lam=lam, gap=gap)


def rdp_point_to_point(p_x: Pmf, delta: DistortionMatrix, perception: PerceptionMeasure,
                       d_budget: float, p_budget: float) -> RdpResult:
    """Point-to-point RDP function: the conditional problem with |W| = 1."""
    q_xw = JointPmf(p_x.probs[:, None], ("X", "W"))
    query = RdpQuery(q_xw=q_xw, delta=delta, perception=perception,
                     d_budget=d_budget, p_budget=p_budget)
    return conditional_rdp(query)
