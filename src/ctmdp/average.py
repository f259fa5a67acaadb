"""Optimal average gain, relative values and policy, with a certified
gain bracket.

The solver is relative value iteration at alpha = 0 (the discounted map
of `discounted._vi_relative` with alpha = 0), stopped when the span
bracket [min_x bell, max_x bell], bell(x) = max_a { r + sum_y h q }(x),
is at most `tol` wide; the gain is its midpoint. The paper's vanishing-
discount construction, a geometric schedule alpha_k -> 0 that reads the
gain off alpha_K * J(x0), runs only when a schedule is passed, and then
warm-starts the alpha = 0 stage. An independent brute-force oracle
(every policy's stationary distribution from batched linear solves, or
Howard's policy iteration with sparse Poisson solves when the policy space
is too large) cross-checks the result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .discounted import (DEFAULT_MAX_ITER, ConvergenceError, _state_max,
                         _vi_relative, extract_policy)
from .model import CtmdpModel, ModelError, StationaryPolicy, weighted_norm

ENUMERATION_LIMIT = 10 ** 6
# enumeration evaluates policies in chunks of about this many stacked
# generator entries (chunk policies x n x n), which bounds its memory
CHUNK_ENTRIES = 2 ** 20
# enumeration returns the first policy, in itertools.product order, whose
# gain is this close (relative) to the best: policies that differ only on
# transient states have the same gain up to rounding
TIE_RTOL = 1e-12
ENVELOPE_STAGES = 5


@dataclass(frozen=True)
class VanishingSchedule:
    """Geometric discount schedule alpha_k = alpha0 * ratio^k, k = 0..steps."""

    alpha0: float = 0.1
    ratio: float = 0.5
    steps: int = 25

    def __post_init__(self):
        if not (self.alpha0 > 0 and 0 < self.ratio < 1 and self.steps >= 1):
            raise ModelError("need alpha0 > 0, ratio in (0,1), steps >= 1")

    def alphas(self) -> list:
        return [self.alpha0 * self.ratio ** k for k in range(self.steps + 1)]


@dataclass
class AverageSolution:
    gain: float                      # midpoint of [gain_lower, gain_upper]
    gain_lower: float
    gain_upper: float
    sweeps: int                      # sweeps of the alpha = 0 stage
    h: np.ndarray
    policy: StationaryPolicy
    trace: list                      # per schedule alpha: {alpha, alpha_J_x0,
                                     # h_change, sweeps}
    residual_upper: float
    residual_lower: float
    converged: bool                  # gain_upper - gain_lower <= tol
    x0: int
    h_lower: Optional[np.ndarray] = None   # envelope of h over the last
    h_upper: Optional[np.ndarray] = None   # stages; scheduled runs only

    def to_dict(self) -> dict:
        out = {"gain": self.gain, "gain_lower": self.gain_lower,
               "gain_upper": self.gain_upper, "sweeps": self.sweeps,
               "h": self.h.tolist(), "policy": self.policy.choice.tolist(),
               "trace": self.trace,
               "residual_upper": self.residual_upper,
               "residual_lower": self.residual_lower,
               "converged": self.converged, "x0": self.x0}
        if self.h_lower is not None:
            out["h_lower"] = self.h_lower.tolist()
            out["h_upper"] = self.h_upper.tolist()
        return out


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
                  schedule: Optional[VanishingSchedule] = None,
                  tol: float = 1e-8, x0: int = 0) -> AverageSolution:
    """Optimal (gain, relative values, policy) with a gain bracket <= tol.

    Relative value iteration at alpha = 0 with h(x0) = 0 runs until the
    span bracket closes to `tol`; gain, h and policy are read at the same
    h, so both optimality residuals are at most tol / 2. A `schedule` first
    runs the vanishing-discount steps (each to an inner tolerance,
    warm-started from the previous one) and starts the alpha = 0 stage
    from their last h. Raises ConvergenceError, carrying the partial trace,
    when a stage fails or the bracket stalls above `tol`.
    """
    flat = model.flat()
    w = model.weights()
    if not 0 <= x0 < model.n:
        raise ModelError("reference state out of range")
    inner_tol = max(min(tol / 10.0, 1e-10), 1e-13)

    trace = []
    tail = []
    h = None
    try:
        for alpha in (schedule.alphas() if schedule is not None else []):
            h_prev = h
            g, h, sweeps, _ = _vi_relative(flat, alpha, x0, inner_tol,
                                           DEFAULT_MAX_ITER, w, h0=h)
            h_change = (weighted_norm(h - h_prev, w)
                        if h_prev is not None else None)
            trace.append({"alpha": alpha, "alpha_J_x0": g,
                          "h_change": h_change, "sweeps": sweeps})
            tail = (tail + [h])[-(ENVELOPE_STAGES - 1):]
        g, h, sweeps, _ = _vi_relative(flat, 0.0, x0, tol, DEFAULT_MAX_ITER,
                                       w, h0=h)
    except ConvergenceError as exc:
        exc.trace = trace
        raise

    bell = _state_max(flat.r + flat.Q @ h, flat)
    lo, hi = float(np.min(bell)), float(np.max(bell))
    policy = extract_policy(model, h)
    upper, lower = optimality_residuals(model, g, h, policy)
    sol = AverageSolution(gain=g, gain_lower=lo, gain_upper=hi,
                          sweeps=sweeps, h=h, policy=policy, trace=trace,
                          residual_upper=upper, residual_lower=lower,
                          converged=hi - lo <= tol, x0=x0)
    if schedule is not None:
        stack = np.stack(tail + [h])
        sol.h_lower, sol.h_upper = stack.min(axis=0), stack.max(axis=0)
    return sol


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
    """Singular or ambiguous stationary system for some policy. The route
    that raises sets `method` and the offending `policy`, with the number of
    policies `evaluated` before it (enumeration) or the `round` and the best
    gain so far (policy iteration)."""

    def __init__(self, message, method=None, policy=None, evaluated=None,
                 round=None, best_gain=None):
        super().__init__(message)
        self.method = method
        self.policy = policy
        self.evaluated = evaluated
        self.round = round
        self.best_gain = best_gain

    def detail(self) -> dict:
        out = {"method": self.method, "policy": self.policy}
        if self.method == "enumeration":
            out["evaluated"] = self.evaluated
        elif self.method == "policy_iteration":
            out["round"], out["best_gain"] = self.round, self.best_gain
        return out


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


def _closed_classes(Q_f) -> int:
    """Number of closed communicating classes of a sparse generator: its
    strongly connected components that no positive rate leaves."""
    from scipy.sparse.csgraph import connected_components

    Q_f = Q_f.tocoo()
    edge = Q_f.data > 0
    rows, cols = Q_f.row[edge], Q_f.col[edge]
    k, comp = connected_components(
        sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=Q_f.shape),
        directed=True, connection="strong")
    leaving = comp[rows] != comp[cols]
    return k - len(np.unique(comp[rows[leaving]]))


def _policy_iteration(model: CtmdpModel, x0: int = 0, max_rounds: int = 200):
    """Howard's average-reward policy iteration (Puterman 1994, section
    8.6). Each policy f is evaluated by a sparse LU solve of its bordered
    Poisson system [[Q_f, -1], [e_x0^T, 0]] (h, g) = (-r_f, 0), which has
    one solution iff Q_f has one closed class; that is checked first, on
    the graph of Q_f, since rounding can leave a multichain system with a
    nonzero pivot."""
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    flat = model.flat()
    n = flat.n
    border = sp.csr_matrix(np.full((n, 1), -1.0))
    anchor = sp.csr_matrix(([1.0], ([0], [x0])), shape=(1, n))
    f = StationaryPolicy(choice=np.zeros(n, dtype=np.int64))
    best = None
    for rnd in range(1, max_rounds + 1):
        pairs = flat.starts + f.choice
        Q_f = flat.Q[pairs]
        closed = _closed_classes(Q_f)
        sol = np.full(n + 1, np.nan)
        if closed == 1:
            A = sp.bmat([[Q_f, border], [anchor, None]], format="csc")
            with warnings.catch_warnings():
                warnings.simplefilter("error", MatrixRankWarning)
                try:
                    sol = spsolve(A, np.append(-flat.r[pairs], 0.0))
                except MatrixRankWarning:
                    pass
        if not np.all(np.isfinite(sol)):
            why = (f"{closed} closed classes" if closed > 1
                   else "singular evaluation system")
            raise OracleError(f"{why} for policy {f.choice.tolist()}",
                              method="policy_iteration",
                              policy=f.choice.tolist(), round=rnd,
                              best_gain=None if best is None else best[0])
        h, g = sol[:n], float(sol[n])
        improved = extract_policy(model, h)
        if best is not None and g <= best[0] + 1e-13:
            return best
        best = (g, f)
        if np.array_equal(improved.choice, f.choice):
            return best
        f = improved
    return best


def _reachability(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a stack of boolean adjacency
    matrices, by repeated squaring."""
    n = adj.shape[-1]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        step = reach.astype(np.float32)
        reach = (step @ step) > 0
    return reach


def _enumeration(model: CtmdpModel) -> OracleResult:
    """Evaluate every policy, in `itertools.product` order and in chunks of
    stacked systems, and return the first whose gain is within
    TIE_RTOL * max(1, |g*|) of the best gain g*.

    Recurrence is structural: in a policy's reachability closure a state is
    recurrent iff every state it reaches reaches it back. When every
    recurrent state reaches every other (one closed class), pi solves
    Q_f^T pi = 0 with its last balance equation replaced by sum(pi) = 1, one
    batched solve per chunk. The other policies go through
    `_stationary_gain`, which raises OracleError when more than one closed
    class is reachable from state 0. `restricted` is set when some policy
    leaves a state outside the closed class its gain is read on.
    """
    flat = model.flat()
    n = flat.n
    counts = model.kernel.counts
    total = math.prod(counts.tolist())
    # mixed radix of itertools.product: the last state varies fastest
    stride = np.append(np.cumprod(counts[:0:-1])[::-1], 1)
    rows = flat.dense_rows(np.arange(flat.n_pairs))
    chunk = max(1, CHUNK_ENTRIES // (n * n))
    gains = np.empty(total)
    restricted_any = False
    for lo in range(0, total, chunk):
        ids = np.arange(lo, min(lo + chunk, total))
        choice = (ids[:, None] // stride) % counts
        pairs = flat.starts + choice
        Q = rows[pairs]
        reach = _reachability(Q > 0)
        recurrent = np.all(reach <= reach.transpose(0, 2, 1), axis=2)
        multichain = np.any(recurrent[:, :, None] & recurrent[:, None, :]
                            & ~reach, axis=(1, 2))
        uni = np.flatnonzero(~multichain)
        restricted_any = restricted_any or bool(np.any(~recurrent[uni]))
        A = Q[uni].transpose(0, 2, 1)
        A[:, -1, :] = 1.0
        rhs = np.zeros((len(uni), n, 1))
        rhs[:, -1] = 1.0
        pi = np.linalg.solve(A, rhs)[:, :, 0]
        negative = np.flatnonzero(np.any(pi < -1e-9, axis=1))
        if len(negative):
            i = uni[negative[0]]
            raise OracleError(f"singular stationary system for policy "
                              f"{choice[i].tolist()}", method="enumeration",
                              policy=choice[i].tolist(), evaluated=lo + int(i))
        gains[ids[uni]] = np.einsum("bx,bx->b", pi, flat.r[pairs[uni]])
        for i in np.flatnonzero(multichain):
            f = StationaryPolicy(choice=choice[i])
            try:
                gains[lo + i], restricted = _stationary_gain(model, f)
            except OracleError as exc:
                exc.method, exc.policy = "enumeration", choice[i].tolist()
                exc.evaluated = lo + int(i)
                raise
            restricted_any = restricted_any or restricted
    top = float(np.max(gains))
    pid = int(np.argmax(gains >= top - TIE_RTOL * max(1.0, abs(top))))
    f = StationaryPolicy(choice=(pid // stride) % counts)
    return OracleResult(gain=float(gains[pid]), policy=f,
                        method="enumeration", restricted=restricted_any)


def brute_force_oracle(model: CtmdpModel,
                       enumeration_limit: int = ENUMERATION_LIMIT) -> OracleResult:
    """Optimal average gain by full policy enumeration when feasible.

    Falls back to average-reward policy iteration (flagged) when the
    policy space exceeds the enumeration limit. Both routes rest on
    stationary-distribution / Poisson-equation linear solves and share no
    code with the discounted iteration.
    """
    if math.prod(model.kernel.counts.tolist()) > enumeration_limit:
        gain, f = _policy_iteration(model)
        return OracleResult(gain=gain, policy=f, method="policy_iteration")
    return _enumeration(model)


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
                           schedule: Optional[VanishingSchedule] = None,
                           tol: float = 1e-8, stable_gap: float = 1e-6,
                           x0: int = 0) -> SensitivityReport:
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
                     solve_average(model, schedule=schedule, tol=tol, x0=x0)))
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
