"""Exhaustive verification of the drift, bound, and monotonicity conditions.

All checks are pointwise over the finite truncation, computed as array
operations over the (state, action) pairs of the model's CSR kernel. Rows
touching the truncation boundary are distorted by the clamp construction,
so their worst slack is reported separately alongside the interior result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import families
from .model import (CtmdpModel, ModelError, Report, StationaryPolicy,
                    _run_sums, boundary_states)

SLACK_TOL = -1e-10


@dataclass
class CheckRecord(Report):
    name: str
    passed: bool
    worst_state: int | None = None
    worst_action: int | None = None
    lhs: float | None = None
    rhs: float | None = None
    slack: float | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class DriftReport(Report):
    checks: list
    fitted: dict = field(default_factory=dict)
    status: str = "ok"
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _scan_min(values):
    """(index, value) of the first strictly smallest entry below +inf, as a
    scan `if v < worst` from worst = inf finds it: NaN never wins and ties
    keep the earliest. (None, inf) if no entry qualifies."""
    masked = np.where(values < np.inf, values, np.inf)
    i = int(np.argmin(masked))
    return (i, values[i]) if masked[i] < np.inf else (None, np.inf)


def _pointwise_check(name, model, lhs, rhs) -> CheckRecord:
    """Worst slack rhs - lhs over the (x, a) pairs, from per-pair arrays in
    pair order; interior and boundary rows are tracked separately."""
    boundary = boundary_states(model)
    x_of = model.x_of_pair
    slack = rhs - lhs
    i, worst = _scan_min(slack)
    at = [None] * 4 if i is None else [int(x_of[i]), int(model.a_of_pair[i]),
                                       lhs[i], rhs[i]]
    rec = CheckRecord(name, worst >= SLACK_TOL, *at, slack=float(worst))
    if len(boundary):
        _, worst_boundary = _scan_min(slack[np.isin(x_of, boundary)])
        rec.detail["boundary_worst_slack"] = (
            None if worst_boundary == np.inf else float(worst_boundary))
        rec.detail["boundary_states"] = boundary.tolist()
    return rec


def check_assumption_A(model: CtmdpModel) -> DriftReport:
    """Drift inequality sum_y w(y) q(y|x,a) <= -c w(x) + b and the rate
    bound q(x) <= M_q w(x); also reports the minimal feasible constants."""
    lyap = model.lyapunov
    if lyap is None:
        raise ModelError("model carries no Lyapunov data")
    w, c, b = lyap.w, lyap.c, lyap.b
    wx = w[model.x_of_pair]
    lhs = model.kernel.Q @ w
    drift = _pointwise_check("drift_w", model, lhs, -c * wx + b)
    rate = _pointwise_check("rate_bound", model, model.exit, lyap.M_q * wx)
    b_hat = -_scan_min(-(lhs + c * wx))[1]
    c_hat = _scan_min((b - lhs) / wx)[1]
    return DriftReport(checks=[drift, rate],
                       fitted={"b_hat": float(b_hat), "c_hat": float(c_hat)})


def check_assumption_B(model: CtmdpModel) -> DriftReport:
    """Reward bound |r| <= M w plus the secondary growth conditions
    q(x) w(x) <= M' w'(x) and sum_y w'(y) q(y|x,a) <= c' w'(x) + b'.

    The w' drift is one-sided with a plus sign: it only caps growth.
    """
    lyap = model.lyapunov
    if lyap is None:
        raise ModelError("model carries no Lyapunov data")
    wx = lyap.w[model.x_of_pair]
    checks = [_pointwise_check("reward_bound", model, np.abs(model.r),
                               lyap.M * wx)]
    if lyap.wprime is not None:
        wpx = lyap.wprime[model.x_of_pair]
        checks.append(_pointwise_check(
            "rate_weight_product", model, model.exit * wx, lyap.Mprime * wpx))
        checks.append(_pointwise_check(
            "growth_wprime", model, model.kernel.Q @ lyap.wprime,
            lyap.cprime * wpx + lyap.bprime))
    return DriftReport(checks=checks)


def check_monotonicity(model: CtmdpModel, f: StationaryPolicy) -> DriftReport:
    """Tail-sum comparison sum_{y>=k} q(y|x,f(x)) <= sum_{y>=k} q(y|x+1,f(x+1))
    for all x and all k != x+1, on 1-D ordered state spaces only.

    Works on the stored entries of the policy's rows. A row's tail sum
    T(k) is a step function of k: for k in (y_{j-1}, y_j] it is the sum
    of the row's entries j, j+1, ..., added one at a time from the last,
    as a cumulative sum over the reversed dense row adds them (the zero
    cells in between change only the sign of a zero sum: T(k) is -0.0
    only where every cell from k to n-1 holds a stored -0.0). The slack
    T_{x+1}(k) - T_x(k) is then constant on each segment between
    consecutive targets of rows x and x+1, and is evaluated at the first
    k of each segment (x+2 in place of the skipped x+1). The worst slack
    is the first strict minimum over (x, k) in row-major order, as a scan
    of the dense n x n table finds it.
    """
    if model.labels is not None and len(model.labels[0]) != 1:
        return DriftReport(checks=[], status="unsupported")
    model.check_policy(f)
    n = model.n
    if n == 1:
        return DriftReport(checks=[CheckRecord(name="tail_monotone",
                                               passed=True, slack=0.0)])

    # row x is q(.|x, f(x)); its entries in storage order, targets ascending
    row, ys, rates = model.entries_of(model.kernel.starts + f.choice)
    size = np.bincount(row, minlength=n)
    end = np.cumsum(size)
    # tail[j]: sum of entries j, j+1, ... of their row, added from the last
    # (running sums of the reversed rows, in place: `rates` is consumed);
    # a +0.0 pad at the end
    tail = np.append(_run_sums(rates[::-1], size[::-1], -0.0)[::-1], 0.0)
    del rates
    # entry j's tail is T(y_j) itself if entries j, ... fill y_j..n-1
    after = end[row] - 1 - np.arange(len(ys))
    fills = np.append(ys == n - 1 - after, False)
    target = np.append(ys, -1)
    key = row * n + ys

    # segment starts of the pair (x, x+1): 0 and y+1 for the targets y of
    # both rows, as keys x * n + k in (x, k) order (a merge of three sorted
    # runs). A start listed twice is read twice, and the first of equal
    # slacks wins, so repeats change nothing.
    up = ys + 1 < n
    starts = np.sort(np.concatenate((
        np.arange(n - 1) * n,
        (key + 1)[up & (row < n - 1)],
        (key - n + 1)[up & (row > 0)])), kind="stable")
    x, k = np.divmod(starts, n)
    # the segment from the skipped k = x+1 is read at x+2
    k += k == x + 1
    x, k = x[k < n], k[k < n]

    def tails(r):
        """T_r(k) of the rows r at the segment starts k."""
        j = np.searchsorted(key, r * n + k)
        j = np.where(j < end[r], j, len(ys))    # no entry >= k: the pad
        return np.where((target[j] == k) & fills[j], tail[j], tail[j] + 0.0)

    lhs, rhs = tails(x), tails(x + 1)
    i, s = _scan_min(rhs - lhs)
    worst = ([None] * 4 if i is None else
             [int(x[i]), f[int(x[i])], lhs[i], rhs[i]])
    rec = CheckRecord("tail_monotone", s >= SLACK_TOL, *worst, slack=float(s))
    return DriftReport(checks=[rec])


def _cond(name, slack, detail) -> CheckRecord:
    return CheckRecord(name=name, passed=slack >= SLACK_TOL,
                       slack=float(slack), detail=dict(detail))


def check_example_conditions(name: str, params: dict) -> DriftReport:
    """Evaluate the lettered parameter conditions of a builtin family."""
    spec = families.spec(name)
    return DriftReport(checks=[_cond(*c) for c in spec.conditions(
        families.resolve(spec, params))])
