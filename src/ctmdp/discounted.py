"""Discounted and average-reward solver: one relative value iteration.

The iterate is kept in gain/bias coordinates (g = alpha*J(x0),
h = J - J(x0)), so that it stays well scaled even for vanishing discount
rates, where J itself grows like 1/alpha. At alpha = 0 the map is relative
value iteration for the average-reward equation, stopped by the span
bounds of Odoni (1969) and Puterman (1994, section 8.5): for any h, with
bell(x) = max_a { r + sum_y h q }(x), every policy's gain lies below
max_x bell and the greedy policy's gain above min_x bell. Between two such
Bellman sweeps, cheaper sweeps over the greedy policy's rows alone do most
of the work (modified policy iteration, Puterman and Shin 1978).

At alpha > 0 the discounted equation is the average-reward equation of
the restart model, in which every (state, action) pair also jumps to x0 at
rate alpha, and the same iteration solves it. Its Bellman sweeps evaluate
the given model, so the stop is the weighted residual of the discounted
equation that the solution reports, and its uniform pass, a contraction,
has no stall rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .model import (CtmdpModel, ModelError, NumericError, Report,
                    StationaryPolicy)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10 ** 6
# sweeps without progress after which a pass of the iteration is taken to
# be stuck
STALL_SWEEPS = 1000
# policy-only sweeps after each Bellman sweep of the per-state pass
POLICY_SWEEPS = 30


@dataclass(eq=False)
class ConvergenceError(NumericError):
    """Iteration budget exhausted, or a stalled gain bracket, before the
    tolerance was met. [gain_lower, gain_upper] brackets the gain: the
    running bracket at alpha = 0, that of the last iterate for alpha*J(x0)
    at alpha > 0; `rounding_floor` is eps * max_x q(x) * max|h| at the
    last h, the size of one rounding in (Q h)(x, a), below which no
    tolerance can be met, and the message ends with it; `trace` is the
    partial trace of the caller."""

    alpha: float
    sweeps: int
    residual: float
    gain_lower: float
    gain_upper: float
    rounding_floor: float
    trace: Optional[list] = None

    def __post_init__(self):
        self.message += f"; rounding floor {self.rounding_floor:.3e}"
        super().__post_init__()


@dataclass
class DiscountedSolution(Report):
    alpha: float
    values: np.ndarray
    policy: StationaryPolicy
    sweeps: int
    residual: float          # w-weighted sup-norm Bellman residual
    kappa: float


def bellman(model: CtmdpModel, u) -> tuple:
    """(vals, bell): the pair values r + Q u and their per-state maximum
    bell(x) = max_a (r + Q u)(x, a), read by every sweep and certificate."""
    vals = model.r + model.kernel.Q @ np.asarray(u, dtype=np.float64)
    return vals, np.maximum.reduceat(vals, model.kernel.starts)


def _greedy(vals, best, model: CtmdpModel) -> StationaryPolicy:
    """Per-state argmax over action values, given their maximum `best`
    (`bellman`'s pair); ties go to the lowest index."""
    hit = vals >= best[model.x_of_pair]
    cand = np.where(hit, model.a_of_pair, model.n_pairs + 1)
    return StationaryPolicy(np.minimum.reduceat(cand, model.kernel.starts))


def _restart(model: CtmdpModel, alpha: float, x0: int) -> sp.csr_matrix:
    """The pair rows of the restart model, in which every (state, action)
    pair also jumps to x0 at rate alpha. Each row outside x0 gains alpha at
    column x0 and -alpha on its diagonal, one addition per entry, and keeps
    its targets sorted; x0's own rows are left as they are, since adding
    alpha to them and taking it off again is not exact."""
    kernel = model.kernel
    pairs = np.flatnonzero(model.x_of_pair != x0)
    k = len(pairs)
    return sp.coo_matrix(
        (np.concatenate([kernel.data, np.full(k, alpha), np.full(k, -alpha)]),
         (np.concatenate([model.pair_of_entry, pairs, pairs]),
          np.concatenate([kernel.indices, np.full(k, x0),
                          model.x_of_pair[pairs]]))),
        shape=kernel.Q.shape).tocsr()


def _vi_relative(model: CtmdpModel, alpha: float, x0: int, tol: float,
                 h0=None):
    """Relative value iteration in (gain, bias) coordinates, g = alpha *
    J(x0) and h = J - J(x0), for every alpha >= 0.

    Returns (g, h, sweeps, residual, vals, bell), the last two `bellman`'s
    evaluation at the returned h. At alpha = 0 the stop is the span
    bracket [min_x bell, max_x bell], bell(x) = max_a { r + sum_y h q }(x):
    it is `residual` <= tol wide at the returned h and g is its midpoint.
    Both ends are valid at every sweep, so a running bracket [max lo,
    min hi] is kept for the error report.

    At alpha > 0 the discounted equation alpha*J(x) = max_a { r(x,a) +
    sum_y J(y) q(y|x,a) } reads g = max_a { r + sum_y h q + alpha (h(x0) -
    h(x)) }(x): the average-reward equation of the restart model, in which
    every pair also jumps to x0 at rate alpha. That model is unichain, has
    the gain alpha*J(x0) and the uniformization m + alpha, and the same
    iteration runs on it. Since h(x0) = 0, its Bellman image is
    bell - alpha h, so a Bellman sweep of it, (bell - alpha h + (m + alpha)
    h - g) / (m + alpha), is computed as (bell + m h - g) / (m + alpha)
    from the given model's bell. Policy sweeps run on the restart model's
    rows (`_restart`). g is bell(x0), and the stop is the w-weighted
    residual max_x |g + alpha h(x) - bell(x)| / w(x) of the discounted
    equation (w = model.weights()), the figure `solve_discounted` reports;
    the span is no stop there, since rounding in the unweighted far states
    can keep it open above tol. The bracket of an error report is the span
    of bell - alpha h at the last h.

    The first pass uses the per-state uniformization m(x) = q(x) + 1, which
    is fast where exit rates differ widely, and is modified policy
    iteration (Puterman 1994, section 8.7): each Bellman sweep that leaves
    the stop open is followed by up to POLICY_SWEEPS sweeps over the
    rows of its greedy policy alone (`_policy_sweeps`). The stop is read
    at Bellman sweeps only, so it certifies the result. The gain read at
    x0 enters state x with weight m(x0) / m(x) and can make this pass
    diverge (a transient x0 with a fast exit rate does). Policy sweeps
    that stop contracting turn themselves off for the rest of the pass,
    which then goes on as plain relative value iteration. When its
    residual has not fallen below its lowest for STALL_SWEEPS sweeps,
    or is not finite, the iteration restarts from the initial h with the
    uniform m = max_x q(x) + 1 and no policy sweeps: plain relative value
    iteration, which converges on every unichain model (Puterman 1994,
    section 8.5). At alpha > 0 that pass is the iteration J <- (T J +
    m J) / (alpha + m) shifted by a constant, a contraction of modulus
    m / (alpha + m), so it runs until the stop or DEFAULT_MAX_ITER. At
    alpha = 0 the span never grows, but it can stay flat while the states
    inside the bracket still move, so a sweep that moves some bell(x) by
    more than tol, or shrinks some pair's gap bell(x) - (r + Q h)(x, a)
    below its state's maximum by more than tol, also counts as progress;
    STALL_SWEEPS sweeps without any (bell has settled with its bracket
    open, as on a multichain model) raise ConvergenceError.
    `sweeps` and STALL_SWEEPS count Bellman and policy sweeps alike.
    """
    h = np.zeros(model.n) if h0 is None else np.array(h0, dtype=np.float64)
    w, max_iter = model.weights(), DEFAULT_MAX_ITER
    Q = _restart(model, alpha, x0) if alpha > 0 else model.kernel.Q
    start = h
    m = model.qmax + 1.0
    m_alpha = alpha + m
    uniform = False
    best = (-np.inf, np.inf)
    narrowest = np.inf
    it = moved = 0
    prev = gap = width = np.inf
    policy, policy_sweeps = None, True
    with np.errstate(over="ignore", invalid="ignore"):
        while it < max_iter:
            vals, bell = bellman(model, h)
            g = bell[x0]
            if alpha > 0:
                width = float((np.abs(g + alpha * h - bell) / w).max())
            else:
                lo, hi = float(bell.min()), float(bell.max())
                width = hi - lo
            if width <= tol:
                return (0.5 * (lo + hi) if alpha == 0 else float(g), h, it,
                        width, vals, bell)
            if alpha == 0 and np.isfinite(width):
                best = (max(lo, best[0]), min(hi, best[1]))
            if uniform and alpha == 0:
                gap, prev_gap = bell[model.x_of_pair] - vals, gap
                moving = (np.abs(bell - prev).max() > tol
                          or (prev_gap - gap).max() > tol)
            if width < narrowest or (uniform and (alpha > 0 or moving)):
                narrowest = min(width, narrowest)
                moved = it
            elif not np.isfinite(width) or it - moved >= STALL_SWEEPS:
                if uniform:
                    raise ConvergenceError(
                        f"gain bracket [{best[0]:.17g}, {best[1]:.17g}] "
                        f"stalled above tol {tol:.3e}", alpha=alpha,
                        sweeps=it, residual=width, gain_lower=best[0],
                        gain_upper=best[1],
                        rounding_floor=_rounding_floor(model, h))
                uniform, moved, h, narrowest = True, it, start, np.inf
                policy_sweeps = False
                m = np.full(model.n, float(np.max(m)))
                m_alpha = alpha + m
                it += 1
                continue
            prev = bell
            delta = (bell + m * h - g) / m_alpha
            h = delta - delta[x0]
            it += 1
            if policy_sweeps:
                f = _greedy(vals, bell, model).choice
                if not np.array_equal(f, policy):
                    policy, rows = f, model.kernel.starts + f
                    Qf, rf = Q[rows], model.r[rows]
                h, k, policy_sweeps = _policy_sweeps(
                    Qf, rf, m_alpha, h, x0, tol,
                    min(POLICY_SWEEPS, max_iter - it))
                it += k
    if alpha > 0:
        image = bellman(model, h)[1] - alpha * h
        best = (float(image.min()), float(image.max()))
    raise ConvergenceError(
        f"no convergence after {max_iter} sweeps (residual {width:.3e})",
        alpha=alpha, sweeps=max_iter, residual=width, gain_lower=best[0],
        gain_upper=best[1], rounding_floor=_rounding_floor(model, h))


def _rounding_floor(model: CtmdpModel, h) -> float:
    """eps * max_x q(x) * max|h|: one rounding of (Q h)(x, a); NaN or
    infinite, without a warning, at an h that is not finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.finfo(np.float64).eps * model.qmax.max()
                     * np.abs(h).max())


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
        change = np.abs(new - h).max()
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
            raise ModelError(f"{name} must be finite and > 0, got {value}",
                             field=name)


def solve_discounted(model: CtmdpModel, alpha: float, tol: float = DEFAULT_TOL,
                     x0: int = 0) -> DiscountedSolution:
    """Solve the discounted optimality equation by value iteration.

    The returned value vector satisfies the fixed-point equation with
    w-weighted residual at most `tol`; the maximizing policy breaks ties
    by lowest action index. The iteration runs on the restart model, but
    its stop, the gain g = alpha*J(x0), the residual and the policy are
    read off a Bellman evaluation of the given model at the returned h.
    """
    check_positive(alpha=alpha, tol=tol)
    x0 = model.check_state(x0)
    g, h, sweeps, residual, vals, bell = _vi_relative(model, alpha, x0, tol)
    m = model.qmax + 1.0
    kappa = float(np.max(m / (alpha + m)))
    return DiscountedSolution(
        alpha=alpha, values=g / alpha + h, policy=_greedy(vals, bell, model),
        sweeps=sweeps, residual=residual, kappa=kappa)


def extract_policy(model: CtmdpModel, J) -> StationaryPolicy:
    """argmax_a { r(x,a) + sum_y J(y) q(y|x,a) }, ties to the lowest index.

    Shifting J by a constant leaves the argmax unchanged (rows sum to
    zero), so the relative value h may be passed instead of J.
    """
    return _greedy(*bellman(model, J), model)

