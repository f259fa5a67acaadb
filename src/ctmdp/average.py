"""Vanishing-discount extraction of the optimal average gain and policy.

Drives the discounted solver along a geometric schedule alpha_k -> 0,
reads the gain off alpha_K * J(x0), and keeps the relative values
h_alpha = J - J(x0). An independent brute-force oracle (policy
enumeration with stationary-distribution evaluation, or average-reward
policy iteration when the policy space is too large) cross-checks the
result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .discounted import _vi_relative, extract_policy
from .model import CtmdpModel, ModelError, StationaryPolicy, weighted_norm

ENUMERATION_LIMIT = 10 ** 6


@dataclass(frozen=True)
class VanishingSchedule:
    """Geometric discount schedule alpha_k = alpha0 * ratio^k, k = 0..steps."""

    alpha0: float = 0.1
    ratio: float = 0.5
    steps: int = 25
    x0: int = 0

    def __post_init__(self):
        if not (self.alpha0 > 0 and 0 < self.ratio < 1 and self.steps >= 1):
            raise ModelError("need alpha0 > 0, ratio in (0,1), steps >= 1")

    def alphas(self) -> list:
        return [self.alpha0 * self.ratio ** k for k in range(self.steps + 1)]


@dataclass
class AverageSolution:
    gain: float
    h: np.ndarray
    policy: StationaryPolicy
    trace: list                      # per-step {alpha, alpha_J_x0, h_change}
    residual_upper: float
    residual_lower: float
    h_lower: np.ndarray
    h_upper: np.ndarray
    converged: bool
    x0: int

    def to_dict(self) -> dict:
        return {"gain": self.gain, "h": self.h.tolist(),
                "policy": self.policy.choice.tolist(),
                "trace": self.trace,
                "residual_upper": self.residual_upper,
                "residual_lower": self.residual_lower,
                "h_lower": self.h_lower.tolist(),
                "h_upper": self.h_upper.tolist(),
                "converged": self.converged, "x0": self.x0}


def optimality_residuals(model: CtmdpModel, g: float, h,
                         f: StationaryPolicy):
    """Residuals of the two average-optimality inequalities at (g, h, f)."""
    flat = model.flat()
    h = np.asarray(h, dtype=np.float64)
    vals = flat.r + flat.Q @ h
    upper = float(np.max(np.maximum.reduceat(vals, flat.starts)) - g)
    idx = flat.starts + f.choice
    lower = float(np.max(g - vals[idx]))
    return upper, lower


def solve_average(model: CtmdpModel,
                  schedule: VanishingSchedule = VanishingSchedule(),
                  tol: float = 1e-8) -> AverageSolution:
    """Run the discount schedule and extract (gain, relative values, policy).

    Each discounted solve warm-starts from the previous step; convergence
    is declared when both the gain reading and the relative values have
    settled to `tol` between the last two steps.
    """
    flat = model.flat()
    w = model.weights()
    x0 = schedule.x0
    if not 0 <= x0 < model.n:
        raise ModelError("reference state out of range")
    inner_tol = max(min(tol / 10.0, 1e-10), 1e-13)

    trace = []
    h_prev = None
    h = None
    g = 0.0
    tail = []
    for alpha in schedule.alphas():
        g, h, _, _ = _vi_relative(flat, alpha, x0, inner_tol,
                                  10 ** 6, w, h0=h)
        h_change = (weighted_norm(h - h_prev, w)
                    if h_prev is not None else None)
        trace.append({"alpha": alpha, "alpha_J_x0": g, "h_change": h_change})
        h_prev = h.copy()
        tail.append(h.copy())
        if len(tail) > 5:
            tail.pop(0)

    converged = (len(trace) >= 2
                 and abs(trace[-1]["alpha_J_x0"] - trace[-2]["alpha_J_x0"]) <= tol
                 and trace[-1]["h_change"] is not None
                 and trace[-1]["h_change"] <= tol)
    policy = extract_policy(model, h)
    upper, lower = optimality_residuals(model, g, h, policy)
    stack = np.stack(tail)
    return AverageSolution(gain=g, h=h, policy=policy, trace=trace,
                           residual_upper=upper, residual_lower=lower,
                           h_lower=stack.min(axis=0), h_upper=stack.max(axis=0),
                           converged=converged, x0=x0)


# -- independent oracle ------------------------------------------------------

@dataclass
class OracleResult:
    gain: float
    policy: StationaryPolicy
    method: str                      # "enumeration" or "policy_iteration"
    restricted: bool = False         # gain evaluated on a proper subclass
    evaluations: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"gain": self.gain, "policy": self.policy.choice.tolist(),
                "method": self.method, "restricted": self.restricted}


class OracleError(RuntimeError):
    """Singular or ambiguous stationary system for some policy."""


def _dense_q(model: CtmdpModel, f: StationaryPolicy) -> np.ndarray:
    flat = model.flat()
    return flat.dense_rows(flat.starts + f.choice)


def _recurrent_class(Q: np.ndarray, start: int = 0):
    """Closed communicating class reached from `start` (Kosaraju on the
    reachable subgraph); raises if more than one terminal class is hit."""
    n = Q.shape[0]
    adj = [np.flatnonzero(Q[x] > 0).tolist() for x in range(n)]
    reach = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in reach:
                reach.add(y)
                stack.append(y)
    # back-reachability: states in `reach` that every reach-state leads to
    order = []
    seen = set()

    def dfs(x):
        todo = [(x, iter(adj[x]))]
        seen.add(x)
        while todo:
            node, it = todo[-1]
            adv = False
            for y in it:
                if y in reach and y not in seen:
                    seen.add(y)
                    todo.append((y, iter(adj[y])))
                    adv = True
                    break
            if not adv:
                order.append(node)
                todo.pop()

    for x in reach:
        if x not in seen:
            dfs(x)
    radj = [[] for _ in range(n)]
    for x in reach:
        for y in adj[x]:
            if y in reach:
                radj[y].append(x)
    comp = {}
    terminal = []
    for x in reversed(order):
        if x in comp:
            continue
        members = []
        stack = [x]
        comp[x] = len(terminal)
        while stack:
            u = stack.pop()
            members.append(u)
            for v in radj[u]:
                if v in reach and v not in comp:
                    comp[v] = len(terminal)
                    stack.append(v)
        terminal.append(members)
    closed = [sorted(m) for m in terminal
              if all(y in set(m) for u in m for y in adj[u])]
    if len(closed) != 1:
        raise OracleError(f"{len(closed)} closed classes reachable from "
                          f"state {start}")
    return closed[0], len(closed[0]) < len(reach) or len(reach) < n


def _stationary_gain(model: CtmdpModel, f: StationaryPolicy):
    """Gain of the fixed-policy chain via its stationary distribution."""
    Q = _dense_q(model, f)
    members, restricted = _recurrent_class(Q)
    sub = Q[np.ix_(members, members)]
    k = len(members)
    A = np.vstack([sub.T, np.ones(k)])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    pi, res, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < k or np.any(pi < -1e-9):
        raise OracleError(f"singular stationary system for policy "
                          f"{f.choice.tolist()}")
    r_f = np.array([model.rewards.rate(x, f[x]) for x in members])
    return float(pi @ r_f), restricted


def _policy_iteration(model: CtmdpModel, x0: int = 0, max_rounds: int = 200):
    """Average-reward policy iteration with exact linear-solve evaluation."""
    n = model.n
    f = StationaryPolicy(choice=np.zeros(n, dtype=np.int64))
    best = None
    for _ in range(max_rounds):
        Q = _dense_q(model, f)
        r_f = np.array([model.rewards.rate(x, f[x]) for x in range(n)])
        # solve Q h - g*1 = -r with h(x0) = 0
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = Q
        A[:n, n] = -1.0
        A[n, x0] = 1.0
        rhs = np.concatenate([-r_f, [0.0]])
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise OracleError(f"singular evaluation system for policy "
                              f"{f.choice.tolist()}") from exc
        h, g = sol[:n], float(sol[n])
        improved = extract_policy(model, h)
        if best is not None and g <= best[0] + 1e-13:
            return best
        best = (g, f)
        if np.array_equal(improved.choice, f.choice):
            return best
        f = improved
    return best


def brute_force_oracle(model: CtmdpModel,
                       enumeration_limit: int = ENUMERATION_LIMIT) -> OracleResult:
    """Optimal average gain by full policy enumeration when feasible.

    Falls back to average-reward policy iteration (flagged) when the
    policy space exceeds the enumeration limit. Both routes rest on
    stationary-distribution / Poisson-equation linear solves and share no
    code with the discounted iteration.
    """
    counts = model.kernel.counts.tolist()
    if math.prod(counts) > enumeration_limit:
        gain, f = _policy_iteration(model)
        return OracleResult(gain=gain, policy=f, method="policy_iteration")

    best = None
    restricted_any = False
    for pid, combo in enumerate(itertools.product(*[range(c) for c in counts])):
        f = StationaryPolicy(choice=np.array(combo, dtype=np.int64))
        gain, restricted = _stationary_gain(model, f)
        restricted_any = restricted_any or restricted
        if best is None or gain > best[0] + 0.0:
            best = (gain, f, pid)
    return OracleResult(gain=best[0], policy=best[1], method="enumeration",
                        restricted=restricted_any)


# -- truncation sensitivity --------------------------------------------------

@dataclass
class SensitivityReport:
    levels: list
    gains: list
    gaps: list
    h_inner_gaps: list
    stable: bool

    def to_dict(self) -> dict:
        return {"levels": self.levels, "gains": self.gains, "gaps": self.gaps,
                "h_inner_gaps": self.h_inner_gaps, "stable": self.stable}


def truncation_sensitivity(builder, params: dict, levels,
                           schedule: VanishingSchedule = VanishingSchedule(),
                           tol: float = 1e-8,
                           stable_gap: float = 1e-6) -> SensitivityReport:
    """Gain stability of a builtin family across truncation levels.

    `builder` maps a params dict (with the level substituted under "N")
    to a model. The h comparison covers the states of the smaller level
    whose every coordinate lies in its lower half, matched by label.
    """
    levels = sorted(int(N) for N in levels)
    runs = []
    for N in levels:
        model = builder(dict(params, N=N))
        runs.append((model.states,
                     solve_average(model, schedule=schedule, tol=tol)))
    gains = [s.gain for _, s in runs]
    gaps = [abs(b - a) for a, b in zip(gains, gains[1:])]
    h_gaps = []
    for (space_a, sa), (space_b, sb) in zip(runs, runs[1:]):
        half = (space_a.truncation_level + 1) // 2
        h_b = dict(zip(space_b.labels, sb.h))
        diffs = [abs(h - h_b[lab]) for lab, h in zip(space_a.labels, sa.h)
                 if max(lab) < half]
        grows = space_a.size < space_b.size
        h_gaps.append(float(np.max(diffs)) if diffs and grows else 0.0)
    stable = (not gaps) or gaps[-1] <= stable_gap
    return SensitivityReport(levels=levels, gains=gains, gaps=gaps,
                             h_inner_gaps=h_gaps, stable=stable)
