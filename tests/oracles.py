"""Independent reference computations used to check the solvers.

The linear-algebra references go through dense matrices of the
fixed-policy generator and share no code with the iterative solver path.
"""

import numpy as np

from ctmdp import CtmdpModel, StationaryPolicy
from ctmdp.lyapunov import SLACK_TOL, CheckRecord, DriftReport
from ctmdp.model import (ROW_SUM_TOL, ModelError, ValidationReport,
                         boundary_states, generator_apply)


def dense_generator(model: CtmdpModel, f: StationaryPolicy) -> np.ndarray:
    """Fixed-policy generator matrix Q_f as a dense array."""
    n = model.n
    Q = np.zeros((n, n))
    for x in range(n):
        ys, rates = model.kernel.row(x, f[x])
        Q[x, ys] = rates
    return Q


def reward_vector(model: CtmdpModel, f: StationaryPolicy) -> np.ndarray:
    return np.array([model.rewards.rate(x, f[x]) for x in range(model.n)])


def discounted_value(model: CtmdpModel, f: StationaryPolicy,
                     alpha: float) -> np.ndarray:
    """Fixed-policy discounted value from the linear system
    (alpha*I - Q_f) J = r_f."""
    Q = dense_generator(model, f)
    r = reward_vector(model, f)
    return np.linalg.solve(alpha * np.eye(model.n) - Q, r)


def stationary_distribution(model: CtmdpModel,
                            f: StationaryPolicy) -> np.ndarray:
    """Stationary distribution of the fixed-policy chain (assumes it is
    irreducible on the full space)."""
    Q = dense_generator(model, f)
    n = model.n
    A = np.vstack([Q.T, np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return pi


def policy_gain(model: CtmdpModel, f: StationaryPolicy) -> float:
    pi = stationary_distribution(model, f)
    return float(pi @ reward_vector(model, f))


def transient_mean(model: CtmdpModel, f: StationaryPolicy, x0: int,
                   u, t: float) -> float:
    """E_x0 u(x(t)) via the matrix exponential of the fixed-policy
    generator (eigen/series solve, independent of the simulator)."""
    from scipy.linalg import expm
    Q = dense_generator(model, f)
    u = np.asarray(u, dtype=np.float64)
    return float((expm(Q * t) @ u)[x0])


# -- pointwise loop references for the whole-array model checks ------------
#
# These are the scan-order loops the array versions in ctmdp.model and
# ctmdp.lyapunov replaced; the differential tests require byte-identical
# reports from both.

def validate_model_loop(model: CtmdpModel) -> ValidationReport:
    violations = []

    def bad(name, x=None, a=None, y=None, slack=None):
        violations.append({"check": name, "x": x, "a": a, "y": y,
                           "slack": None if slack is None else float(slack)})

    for x in range(model.n):
        for a in range(model.n_actions(x)):
            ys, rates = model.kernel.row(x, a)
            s = 0.0
            for y, rate in zip(ys.tolist(), rates.tolist()):
                s += rate
                if not np.isfinite(rate):
                    bad("finite_rate", x, a, y)
                elif y != x and rate < 0:
                    bad("offdiagonal_nonnegative", x, a, y, slack=rate)
                elif y == x and rate > 0:
                    bad("diagonal_nonpositive", x, a, y, slack=-rate)
            if abs(s) > ROW_SUM_TOL:
                bad("row_sum_zero", x, a, slack=abs(s) - ROW_SUM_TOL)
            rr = model.rewards.rate(x, a)
            if not np.isfinite(rr):
                bad("finite_reward", x, a)
        if not np.isfinite(model.kernel.q_max(x)):
            bad("stable_rates", x)

    lyap = model.lyapunov
    if lyap is not None:
        for x in range(model.n):
            for a in range(model.n_actions(x)):
                rr = abs(model.rewards.rate(x, a))
                bound = lyap.M * lyap.w[x]
                if rr > bound:
                    bad("reward_weight_bound", x, a, slack=bound - rr)

    return ValidationReport(ok=not violations, violations=violations)


def pointwise_check_loop(name, model, lhs_fn, rhs_fn) -> CheckRecord:
    boundary = set(boundary_states(model).tolist())
    worst = (np.inf, None, None, None, None)      # slack, x, a, lhs, rhs
    worst_boundary = np.inf
    for x in range(model.n):
        for a in range(model.n_actions(x)):
            lhs = lhs_fn(x, a)
            rhs = rhs_fn(x, a)
            slack = rhs - lhs
            if x in boundary:
                worst_boundary = min(worst_boundary, slack)
            if slack < worst[0]:
                worst = (slack, x, a, lhs, rhs)
    rec = CheckRecord(name=name, passed=worst[0] >= SLACK_TOL,
                      worst_state=worst[1], worst_action=worst[2],
                      lhs=worst[3], rhs=worst[4], slack=float(worst[0]))
    if boundary:
        rec.detail["boundary_worst_slack"] = (
            None if worst_boundary is np.inf else float(worst_boundary))
        rec.detail["boundary_states"] = sorted(boundary)
    return rec


def check_assumption_A_loop(model: CtmdpModel) -> DriftReport:
    lyap = model.lyapunov
    if lyap is None:
        raise ModelError("model carries no Lyapunov data")
    w, c, b = lyap.w, lyap.c, lyap.b
    drift = pointwise_check_loop(
        "drift_w", model,
        lambda x, a: generator_apply(model, w, x, a),
        lambda x, a: -c * w[x] + b)
    rate = pointwise_check_loop(
        "rate_bound", model,
        lambda x, a: model.kernel.exit_rate(x, a),
        lambda x, a: lyap.M_q * w[x])
    b_hat = -np.inf
    c_hat = np.inf
    for x in range(model.n):
        for a in range(model.n_actions(x)):
            lhs = generator_apply(model, w, x, a)
            b_hat = max(b_hat, lhs + c * w[x])
            c_hat = min(c_hat, (b - lhs) / w[x])
    return DriftReport(checks=[drift, rate],
                       fitted={"b_hat": float(b_hat), "c_hat": float(c_hat)})


def check_assumption_B_loop(model: CtmdpModel) -> DriftReport:
    lyap = model.lyapunov
    if lyap is None:
        raise ModelError("model carries no Lyapunov data")
    w = lyap.w
    checks = [pointwise_check_loop(
        "reward_bound", model,
        lambda x, a: abs(model.rewards.rate(x, a)),
        lambda x, a: lyap.M * w[x])]
    if lyap.wprime is not None:
        wp = lyap.wprime
        checks.append(pointwise_check_loop(
            "rate_weight_product", model,
            lambda x, a: model.kernel.exit_rate(x, a) * w[x],
            lambda x, a: lyap.Mprime * wp[x]))
        checks.append(pointwise_check_loop(
            "growth_wprime", model,
            lambda x, a: generator_apply(model, wp, x, a),
            lambda x, a: lyap.cprime * wp[x] + lyap.bprime))
    return DriftReport(checks=checks)


def check_monotonicity_loop(model: CtmdpModel,
                            f: StationaryPolicy) -> DriftReport:
    """Dense n x n tail-sum table, scanned over (x, k)."""
    if model.states.dim != 1:
        return DriftReport(checks=[], status="unsupported")
    model.check_policy(f)
    n = model.n
    if n == 1:
        return DriftReport(checks=[CheckRecord(name="tail_monotone",
                                               passed=True, slack=0.0)])
    tails = np.zeros((n, n))
    for x in range(n):
        dense = np.zeros(n)
        ys, rates = model.kernel.row(x, f[x])
        dense[ys] = rates
        tails[x] = np.cumsum(dense[::-1])[::-1]
    worst = (np.inf, None, None, None, None)
    for x in range(n - 1):
        for k in range(n):
            if k == x + 1:
                continue
            slack = tails[x + 1, k] - tails[x, k]
            if slack < worst[0]:
                worst = (slack, x, f[x], tails[x, k], tails[x + 1, k])
    rec = CheckRecord(name="tail_monotone", passed=worst[0] >= SLACK_TOL,
                      worst_state=worst[1], worst_action=worst[2],
                      lhs=worst[3], rhs=worst[4], slack=float(worst[0]))
    return DriftReport(checks=[rec])
