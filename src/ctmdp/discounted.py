"""Discounted solver: uniformization and fixed-point value iteration.

The optimality equation is iterated in gain/bias coordinates
(g = alpha*J(x0), h = J - J(x0)) so that the iterate stays well scaled
even for vanishing discount factors, where J itself grows like 1/alpha.
The gain is read off the Bellman image at the reference state each sweep
(exact at the fixed point, where h(x0) = 0), so both components converge
at the span contraction rate of the uniformized kernel, independent of
alpha.

At alpha = 0 the same map is relative value iteration for the average-
reward equation, stopped by the span bounds of Odoni (1969) and Puterman
(1994, section 8.5): for any h, with bell(x) = max_a { r + sum_y h q }(x),
every policy's gain lies below max_x bell and the greedy policy's gain
above min_x bell. Between two such Bellman sweeps, cheaper sweeps over
the greedy policy's rows alone do most of the work (modified policy
iteration, Puterman and Shin 1978).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CtmdpModel, FlatModel, ModelError, StationaryPolicy

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10 ** 6
# sweeps without progress after which a pass of the iteration is taken to
# be stuck
STALL_SWEEPS = 1000
# policy-only sweeps after each Bellman sweep of the alpha = 0 per-state pass
POLICY_SWEEPS = 30


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted, or a stalled gain bracket, before the
    tolerance was met. `bracket` is the running (lower, upper) gain bracket
    of an alpha = 0 run; `trace` is the partial trace of the caller."""

    def __init__(self, message, residual=None, iterations=None, alpha=None,
                 bracket=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.alpha = alpha
        self.bracket = bracket
        self.trace = None

    def detail(self) -> dict:
        out = {"alpha": self.alpha, "sweeps": self.iterations,
               "residual": self.residual}
        if self.bracket is not None:
            out["gain_lower"], out["gain_upper"] = self.bracket
        if self.trace is not None:
            out["trace"] = self.trace
        return out


@dataclass
class UniformizedKernel:
    """Probability rows P(.|x,a) = q(.|x,a)/m(x) + I, with m(x) > q(x)."""

    m: np.ndarray
    flat: FlatModel

    def row(self, x: int, a: int):
        """Sorted (targets, probabilities) for the row of (x, a)."""
        p = self.flat.pair_index(x, a)
        lo, hi = self.flat.Q.indptr[p], self.flat.Q.indptr[p + 1]
        targets = self.flat.Q.indices[lo:hi]
        ys = np.union1d(targets, [x]).astype(np.int64)
        probs = np.zeros(len(ys))
        probs[np.searchsorted(ys, targets)] = self.flat.Q.data[lo:hi] / self.m[x]
        probs[np.searchsorted(ys, x)] += 1.0
        return ys, probs


def uniformize(model: CtmdpModel) -> UniformizedKernel:
    """Embed the generator into probability rows with m(x) = q(x) + 1.

    The additive constant keeps the contraction modulus away from 1 even
    where q(x) = 0 and makes absorbing rows exact point masses.
    """
    flat = model.flat()
    return UniformizedKernel(m=flat.qmax + 1.0, flat=flat)


@dataclass
class DiscountedSolution:
    alpha: float
    values: np.ndarray
    policy: StationaryPolicy
    iterations: int
    residual: float          # w-weighted sup-norm Bellman residual
    kappa: float

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "J": self.values.tolist(),
                "policy": self.policy.choice.tolist(),
                "iters": self.iterations, "residual": self.residual,
                "kappa": self.kappa}


def _state_max(vals: np.ndarray, flat: FlatModel) -> np.ndarray:
    return np.maximum.reduceat(vals, flat.starts)


def _state_argmax(vals: np.ndarray, best: np.ndarray,
                  flat: FlatModel) -> np.ndarray:
    """Per-state argmax over action values, given their maximum `best` =
    `_state_max(vals, flat)`; ties go to the lowest index."""
    hit = vals >= best[flat.x_of_pair]
    cand = np.where(hit, flat.a_of_pair, flat.n_pairs + 1)
    return np.minimum.reduceat(cand, flat.starts)


def _vi_relative(flat: FlatModel, alpha: float, x0: int, tol: float,
                 max_iter: int, w: np.ndarray, h0=None):
    """Iterate the uniformized fixed-point map in (gain, bias) coordinates.

    Returns (g, h, iterations, residual) with g = alpha * J(x0),
    h = J - J(x0) and the w-weighted residual of the optimality equation
    alpha*J(x) = max_a { r(x,a) + sum_y J(y) q(y|x,a) } at the returned
    candidate. The gain estimate is the Bellman image at x0, which equals
    alpha*J(x0) exactly at the fixed point because h(x0) = 0. At alpha = 0
    the stop is the span bracket instead (`_bracket_iteration`).

    The per-state m(x) = q(x) + 1 feeds the gain read at x0 into state x
    with weight m(x0) / m(x), which can make the iteration diverge, as at
    alpha = 0. When the residual is not finite, or has not reached a new
    minimum for STALL_SWEEPS sweeps, the iteration restarts from the
    initial h with the uniform m = max_x q(x) + 1. Under a uniform m it is
    the J iteration J <- T J shifted by J(x0) after each sweep, a
    contraction of modulus m / (alpha + m).
    """
    h = np.zeros(flat.n) if h0 is None else np.array(h0, dtype=np.float64)
    if alpha == 0:
        return _bracket_iteration(flat, x0, tol, max_iter, h)
    start = h
    m = flat.qmax + 1.0
    m_max = float(np.max(m))

    uniform = False
    lowest = residual = np.inf
    moved = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iter):
            vals = flat.r + flat.Q @ h
            bell = _state_max(vals, flat)            # max_a { r + sum h q }
            g = float(bell[x0])
            residual = float(np.max(np.abs(g + alpha * h - bell) / w))
            if residual <= tol and it > 0:
                return g, h, it, residual
            if residual < lowest:
                lowest, moved = residual, it
            elif not uniform and (not np.isfinite(residual)
                                  or it - moved >= STALL_SWEEPS):
                uniform, h = True, start
                m = np.full(flat.n, m_max)
                continue
            delta = (bell + m * h - g) / (alpha + m)
            h = delta - delta[x0]
    raise ConvergenceError(
        f"no convergence after {max_iter} sweeps (residual {residual:.3e})",
        residual=residual, iterations=max_iter, alpha=alpha)


def _bracket_iteration(flat: FlatModel, x0: int, tol: float, max_iter: int,
                       h: np.ndarray):
    """Relative value iteration at alpha = 0, stopped by the span bracket.

    Returns (g, h, sweeps, width): the bracket [min_x bell, max_x bell] at
    the returned h is `width` <= tol wide and g is its midpoint. Both ends
    are valid at every sweep, so a running bracket [max lo, min hi] is kept
    for the error report.

    The first pass uses the per-state uniformization m(x) = q(x) + 1, which
    is fast where exit rates differ widely, and is modified policy
    iteration (Puterman 1994, section 8.7): each Bellman sweep that leaves
    the bracket open is followed by up to POLICY_SWEEPS sweeps over the
    rows of its greedy policy alone (`_policy_sweeps`). The bracket is read
    at Bellman sweeps only, so it certifies the result. The gain read at
    x0 enters state x with weight m(x0) / m(x) and can make this pass
    diverge (a transient x0 with a fast exit rate does). Policy sweeps
    that stop contracting turn themselves off for the rest of the pass,
    which then goes on as plain relative value iteration. When its
    bracket has not narrowed below its narrowest for STALL_SWEEPS sweeps,
    or is not finite, the iteration restarts from the initial h with the
    uniform m = max_x q(x) + 1 and no policy sweeps: plain relative value
    iteration, which converges on every unichain model (Puterman 1994,
    section 8.5). In that pass the width never grows, but it can stay flat
    while the states inside the bracket still move, so a sweep that moves
    some bell(x) by more than tol, or shrinks some pair's gap bell(x) -
    (r + Q h)(x, a) below its state's maximum by more than tol, also counts
    as progress; STALL_SWEEPS sweeps without any (bell has settled with its
    bracket open, as on a multichain model) raise ConvergenceError.
    `sweeps` and STALL_SWEEPS count Bellman and policy sweeps alike.
    """
    start = h
    m = flat.qmax + 1.0
    uniform = False
    best = (-np.inf, np.inf)
    narrowest = np.inf
    it = moved = 0
    prev = gap = width = np.inf
    policy, policy_sweeps = None, True
    with np.errstate(over="ignore", invalid="ignore"):
        while it < max_iter:
            vals = flat.r + flat.Q @ h
            bell = _state_max(vals, flat)
            lo, hi = float(np.min(bell)), float(np.max(bell))
            width = hi - lo
            if width <= tol:
                return 0.5 * (lo + hi), h, it, width
            finite = np.isfinite(width)
            if finite:
                best = (max(lo, best[0]), min(hi, best[1]))
            if uniform:
                gap, prev_gap = bell[flat.x_of_pair] - vals, gap
                moving = (np.max(np.abs(bell - prev)) > tol
                          or np.max(prev_gap - gap) > tol)
            if width < narrowest or (uniform and moving):
                narrowest = min(width, narrowest)
                moved = it
            elif not finite or it - moved >= STALL_SWEEPS:
                if uniform:
                    raise ConvergenceError(
                        f"gain bracket [{best[0]:.17g}, {best[1]:.17g}] "
                        f"stalled above tol {tol:.3e}",
                        residual=width, iterations=it, alpha=0.0,
                        bracket=best)
                uniform, moved, h, narrowest = True, it, start, np.inf
                policy_sweeps = False
                m = np.full(flat.n, float(np.max(m)))
                it += 1
                continue
            prev = bell
            g = bell[x0]
            delta = (bell + m * h - g) / m
            h = delta - delta[x0]
            it += 1
            if policy_sweeps:
                f = _state_argmax(vals, bell, flat)
                if not np.array_equal(f, policy):
                    policy, rows = f, flat.starts + f
                    Qf, rf = flat.Q[rows], flat.r[rows]
                h, k, policy_sweeps = _policy_sweeps(
                    Qf, rf, m, h, x0, tol, min(POLICY_SWEEPS, max_iter - it))
                it += k
    raise ConvergenceError(
        f"no convergence after {max_iter} sweeps (residual {width:.3e})",
        residual=width, iterations=max_iter, alpha=0.0, bracket=best)


def _policy_sweeps(Qf, rf, m, h, x0, tol, budget):
    """Relative value iteration on one policy's rows (Qf, rf): up to
    `budget` sweeps h <- (v + m h - v(x0)) / m with v = rf + Qf h,
    renormalised to h(x0) = 0.

    Returns (h, sweeps, contracting). The sweeps end early after one that
    moves h by at most tol, or by more than the sweep before it; then
    `contracting` is false, since under the per-state m the gain read at
    x0 can make one policy's iteration diverge.
    """
    last = np.inf
    for k in range(budget):
        v = rf + Qf @ h
        delta = (v + m * h - v[x0]) / m
        new = delta - delta[x0]
        change = np.max(np.abs(new - h))
        h = new
        if change <= tol or change > last:
            return h, k + 1, change <= last
        last = change
    return h, budget, True


def check_positive(**values) -> None:
    """ModelError unless every value is finite and > 0; a NaN tolerance or
    discount rate would otherwise run the whole sweep budget."""
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise ModelError(f"{name} must be finite and > 0, got {value}")


def solve_discounted(model: CtmdpModel, alpha: float, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     x0: int = 0, h0=None) -> DiscountedSolution:
    """Solve the discounted optimality equation by value iteration.

    The returned value vector satisfies the fixed-point equation with
    w-weighted residual at most `tol`; the maximizing policy breaks ties
    by lowest action index.
    """
    check_positive(alpha=alpha, tol=tol)
    if not 0 <= x0 < model.n:
        raise ModelError("reference state out of range")
    flat = model.flat()
    w = model.weights()
    g, h, iters, residual = _vi_relative(flat, alpha, x0, tol, max_iter,
                                         w, h0=h0)
    J = g / alpha + h
    m = flat.qmax + 1.0
    kappa = float(np.max(m / (alpha + m)))
    return DiscountedSolution(alpha=alpha, values=J,
                              policy=extract_policy(model, h),
                              iterations=iters, residual=residual,
                              kappa=kappa)


def extract_policy(model: CtmdpModel, J) -> StationaryPolicy:
    """argmax_a { r(x,a) + sum_y J(y) q(y|x,a) }, ties to the lowest index.

    Shifting J by a constant leaves the argmax unchanged (rows sum to
    zero), so the relative value h may be passed instead of J.
    """
    flat = model.flat()
    J = np.asarray(J, dtype=np.float64)
    vals = flat.r + flat.Q @ J
    return StationaryPolicy(
        choice=_state_argmax(vals, _state_max(vals, flat), flat))


def bellman_operator(model: CtmdpModel, alpha: float, u) -> np.ndarray:
    """One application of the uniformized fixed-point map to u."""
    flat = model.flat()
    m = flat.qmax + 1.0
    u = np.asarray(u, dtype=np.float64)
    vals = flat.r + flat.Q @ u + m[flat.x_of_pair] * u[flat.x_of_pair]
    return _state_max(vals, flat) / (alpha + m)
