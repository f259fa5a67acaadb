"""Discounted solver: uniformization and fixed-point value iteration.

The optimality equation is iterated in gain/bias coordinates
(g = alpha*J(x0), h = J - J(x0)) so that the iterate stays well scaled
even for vanishing discount factors, where J itself grows like 1/alpha.
The gain is read off the Bellman image at the reference state each sweep
(exact at the fixed point, where h(x0) = 0), so both components converge
at the span contraction rate of the uniformized kernel, independent of
alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CtmdpModel, FlatModel, ModelError, StationaryPolicy

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10 ** 6


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before the tolerance was met."""

    def __init__(self, message, kappa=None, residual=None, iterations=None):
        super().__init__(message)
        self.kappa = kappa
        self.residual = residual
        self.iterations = iterations


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


def _state_argmax(vals: np.ndarray, flat: FlatModel) -> np.ndarray:
    """Per-state argmax over action values; ties go to the lowest index."""
    best = _state_max(vals, flat)
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
    alpha*J(x0) exactly at the fixed point because h(x0) = 0.
    """
    m = flat.qmax + 1.0
    m_max = float(np.max(m))
    kappa = m_max / (alpha + m_max)

    h = np.zeros(flat.n) if h0 is None else np.array(h0, dtype=np.float64)
    g = 0.0
    residual = np.inf
    for it in range(max_iter):
        vals = flat.r + flat.Q @ h
        bell = _state_max(vals, flat)            # max_a { r + sum h q }
        g = float(bell[x0])
        residual = float(np.max(np.abs(g + alpha * h - bell) / w))
        if residual <= tol and it > 0:
            return g, h, it, residual
        delta = (bell + m * h - g) / (alpha + m)
        h = delta - delta[x0]
    raise ConvergenceError(
        f"no convergence after {max_iter} sweeps (residual {residual:.3e})",
        kappa=kappa, residual=residual, iterations=max_iter)


def solve_discounted(model: CtmdpModel, alpha: float, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     x0: int = 0, h0=None) -> DiscountedSolution:
    """Solve the discounted optimality equation by value iteration.

    The returned value vector satisfies the fixed-point equation with
    w-weighted residual at most `tol`; the maximizing policy breaks ties
    by lowest action index.
    """
    if alpha <= 0:
        raise ModelError("discount rate alpha must be positive")
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
    return StationaryPolicy(choice=_state_argmax(vals, flat))


def bellman_operator(model: CtmdpModel, alpha: float, u) -> np.ndarray:
    """One application of the uniformized fixed-point map to u."""
    flat = model.flat()
    m = flat.qmax + 1.0
    u = np.asarray(u, dtype=np.float64)
    vals = flat.r + flat.Q @ u + m[flat.x_of_pair] * u[flat.x_of_pair]
    return _state_max(vals, flat) / (alpha + m)
