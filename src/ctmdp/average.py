"""Optimal average gain, relative values and policy, with a certified
gain bracket.

The solver is relative value iteration at alpha = 0 (`discounted.
_vi_relative`), stopped when the span bracket [min_x bell, max_x bell],
bell(x) = max_a { r + sum_y h q }(x), is at most `tol` wide; the gain is
its midpoint. The paper's vanishing-discount construction, a geometric
schedule alpha_k -> 0 that reads the gain off alpha_K * J(x0), runs only
when a schedule is passed, and then warm-starts the alpha = 0 stage. Each
of its stages is the same iteration, run on the restart model of its
alpha. An independent brute-force oracle (every policy's stationary
distribution from batched linear solves, or Howard's policy iteration
with sparse Poisson solves when the policy space is too large)
cross-checks the result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import families
from .discounted import (ConvergenceError, _greedy, _vi_relative,
                         check_positive, extract_policy)
from .model import (CtmdpModel, ModelError, NumericError, Report,
                    StationaryPolicy, is_integer, require_valid, weighted_norm)

ENUMERATION_LIMIT = 10 ** 6
POLICY_ROUNDS = 200
# enumeration evaluates policies in chunks of about this many stacked
# generator entries (chunk policies x n x n), which bounds its memory
CHUNK_ENTRIES = 2 ** 20
# enumeration returns the first policy, in itertools.product order, whose
# gain is this close (relative) to the best: policies that differ only on
# transient states have the same gain up to rounding
TIE_RTOL = 1e-12
ENVELOPE_STAGES = 5
# truncation_sensitivity calls a family stable when its last gain gap is
# at most this
STABLE_GAP = 1e-6


@dataclass(frozen=True)
class VanishingSchedule:
    """Geometric discount schedule alpha_k = alpha0 * ratio^k, k = 0..steps."""

    alpha0: float = 0.1
    ratio: float = 0.5
    steps: int = 25

    def __post_init__(self):
        if not (0 < self.alpha0 < np.inf and 0 < self.ratio < 1
                and self.steps >= 1):
            raise ModelError("need finite alpha0 > 0, ratio in (0,1), "
                             "steps >= 1")

    def alphas(self) -> list:
        return [self.alpha0 * self.ratio ** k for k in range(self.steps + 1)]


@dataclass
class AverageSolution(Report):
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
    x0: int
    h_lower: Optional[np.ndarray] = None   # envelope of h over the last
    h_upper: Optional[np.ndarray] = None   # stages; scheduled runs only
    # gain_upper - gain_lower <= tol: any other outcome raises
    converged = True


def solve_average(model: CtmdpModel,
                  schedule: Optional[VanishingSchedule] = None,
                  tol: float = 1e-8, x0: int = 0) -> AverageSolution:
    """Optimal (gain, relative values, policy) with a gain bracket <= tol.

    Relative value iteration at alpha = 0 with h(x0) = 0 runs until the
    span bracket closes to `tol`; gain, bracket and policy are read off
    the last sweep's Bellman evaluation, at the returned h, and so are
    both optimality residuals, max bell - g and g - min bell (the greedy
    policy's values at its pairs are bell), each at most tol / 2. A
    `schedule` first runs the vanishing-discount steps (each to an inner
    tolerance, warm-started from the previous one) and starts the alpha =
    0 stage from their last h. Raises ConvergenceError, carrying the
    partial trace, when a stage fails or the bracket stalls above `tol`.
    """
    check_positive(tol=tol)
    x0 = model.check_state(x0)
    inner_tol = max(min(tol / 10.0, 1e-10), 1e-13)

    trace = []
    tail = []
    h = None
    try:
        for alpha in (schedule.alphas() if schedule is not None else []):
            h_prev = h
            g, h, sweeps, *_ = _vi_relative(model, alpha, x0, inner_tol, h0=h)
            h_change = (weighted_norm(h - h_prev, model.weights())
                        if h_prev is not None else None)
            trace.append({"alpha": alpha, "alpha_J_x0": g,
                          "h_change": h_change, "sweeps": sweeps})
            tail = (tail + [h])[-(ENVELOPE_STAGES - 1):]
        g, h, sweeps, _, vals, bell = _vi_relative(model, 0.0, x0, tol, h0=h)
    except ConvergenceError as exc:
        exc.trace = trace
        raise

    lo, hi = float(np.min(bell)), float(np.max(bell))
    sol = AverageSolution(
        gain=g, gain_lower=lo, gain_upper=hi, sweeps=sweeps, h=h,
        policy=_greedy(vals, bell, model), trace=trace,
        residual_upper=hi - g, residual_lower=g - lo, x0=x0)
    if schedule is not None:
        stack = np.stack(tail + [h])
        sol.h_lower, sol.h_upper = stack.min(axis=0), stack.max(axis=0)
    return sol


# -- independent oracle ------------------------------------------------------

@dataclass
class OracleResult(Report):
    gain: float
    policy: StationaryPolicy
    method: str                      # "enumeration" or "policy_iteration"
    restricted: bool = False         # gain evaluated on a proper subclass


@dataclass(eq=False)
class OracleError(NumericError):
    """Singular or ambiguous stationary system for some policy. The route
    that raises sets `method` and the offending `policy`, with the number of
    policies `evaluated` before it (enumeration) or the `round` and the best
    gain so far (policy iteration)."""

    method: str
    policy: list
    evaluated: Optional[int] = None
    round: Optional[int] = None
    best_gain: Optional[float] = None


def _dense_q(model: CtmdpModel, f: StationaryPolicy) -> np.ndarray:
    return model.dense_rows(model.kernel.starts + f.choice)


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


def _policy_iteration(model: CtmdpModel):
    """Howard's average-reward policy iteration (Puterman 1994, section
    8.6), for at most POLICY_ROUNDS rounds. Each policy f is evaluated by a
    sparse LU solve of its bordered Poisson system [[Q_f, -1], [e_0^T, 0]]
    (h, g) = (-r_f, 0), which has one solution iff Q_f has one closed
    class; that is checked first, on the graph of Q_f, since rounding can
    leave a multichain system with a nonzero pivot."""
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    n = model.n
    border = sp.csr_matrix(np.full((n, 1), -1.0))
    anchor = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, n))
    f = StationaryPolicy(choice=np.zeros(n, dtype=np.int64))
    best = None
    for rnd in range(1, POLICY_ROUNDS + 1):
        pairs = model.kernel.starts + f.choice
        Q_f = model.kernel.Q[pairs]
        closed = _closed_classes(Q_f)
        sol = np.full(n + 1, np.nan)
        if closed == 1:
            A = sp.bmat([[Q_f, border], [anchor, None]], format="csc")
            with warnings.catch_warnings():
                warnings.simplefilter("error", MatrixRankWarning)
                try:
                    sol = spsolve(A, np.append(-model.r[pairs], 0.0))
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
    batched solve per chunk. The other policies are evaluated one at a time
    on the recurrent states that state 0 reaches: OracleError unless these
    reach each other (one closed class), else pi by least squares on that
    class's block of Q_f. `restricted` is set when some policy leaves a
    state outside the closed class its gain is read on.
    """
    n = model.n
    counts = model.kernel.counts
    total = math.prod(counts.tolist())
    # mixed radix of itertools.product: the last state varies fastest
    stride = np.append(np.cumprod(counts[:0:-1])[::-1], 1)
    rows = model.dense_rows(np.arange(model.n_pairs))
    chunk = max(1, CHUNK_ENTRIES // (n * n))
    gains = np.empty(total)
    restricted_any = False
    for lo in range(0, total, chunk):
        ids = np.arange(lo, min(lo + chunk, total))
        choice = (ids[:, None] // stride) % counts
        pairs = model.kernel.starts + choice
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
        gains[ids[uni]] = np.einsum("bx,bx->b", pi, model.r[pairs[uni]])
        for i in np.flatnonzero(multichain):
            members = np.flatnonzero(recurrent[i] & reach[i, 0])
            closure = reach[i][np.ix_(members, members)]
            where = {"method": "enumeration", "policy": choice[i].tolist(),
                     "evaluated": lo + int(i)}
            if not closure.all():
                k = len(np.unique(closure, axis=0))
                raise OracleError(f"{k} closed classes reachable from "
                                  f"state 0", **where)
            Q_f = _dense_q(model, StationaryPolicy(choice=choice[i]))
            k = len(members)
            A = np.vstack([Q_f[np.ix_(members, members)].T, np.ones(k)])
            rhs = np.zeros(k + 1)
            rhs[-1] = 1.0
            pi, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
            if rank < k or np.any(pi < -1e-9):
                raise OracleError(f"singular stationary system for policy "
                                  f"{where['policy']}", **where)
            gains[lo + i] = pi @ model.r[pairs[i, members]]
            restricted_any = restricted_any or k < n
    top = float(np.max(gains))
    pid = int(np.argmax(gains >= top - TIE_RTOL * max(1.0, abs(top))))
    f = StationaryPolicy(choice=(pid // stride) % counts)
    return OracleResult(gain=float(gains[pid]), policy=f,
                        method="enumeration", restricted=restricted_any)


def brute_force_oracle(model: CtmdpModel) -> OracleResult:
    """Optimal average gain by full policy enumeration when feasible.

    Falls back to average-reward policy iteration (flagged) when the
    policy space exceeds ENUMERATION_LIMIT. Both routes rest on
    stationary-distribution / Poisson-equation linear solves; the one code
    they share with the solver is policy iteration's improvement step,
    `discounted.extract_policy`.
    """
    if math.prod(model.kernel.counts.tolist()) > ENUMERATION_LIMIT:
        gain, f = _policy_iteration(model)
        return OracleResult(gain=gain, policy=f, method="policy_iteration")
    return _enumeration(model)


# -- truncation sensitivity --------------------------------------------------

@dataclass
class SensitivityReport(Report):
    levels: list
    gains: list
    gaps: list
    h_inner_gaps: list
    stable: bool


def truncation_sensitivity(name: str, params: dict, levels,
                           schedule: Optional[VanishingSchedule] = None,
                           tol: float = 1e-8, x0: int = 0) -> SensitivityReport:
    """Gain stability of builtin family `name` across truncation levels.

    Each level is `params` with the level set as "N", so `params` must not
    give N; `levels` must hold two distinct integer levels at least, each
    in the family's range of N, and repeats are dropped. Every level is
    built and validated before any is solved. The h comparison covers the
    states of the smaller level whose every coordinate lies in its lower
    half, matched by label.
    """
    check_positive(tol=tol)
    if "N" in params:
        raise ModelError(f"params must not give N, which each of the "
                         f"levels sets; got N = {params['N']!r}",
                         field="params")
    if not all(map(is_integer, levels)):
        raise ModelError(f"levels must be integers, got {list(levels)}",
                         field="levels")
    levels = sorted({int(N) for N in levels})
    if len(levels) < 2:
        raise ModelError(f"levels must list at least two distinct "
                         f"truncation levels, got {levels}", field="levels")
    models = []
    for N in levels:
        try:
            models.append(families.build(name, dict(params, N=N)))
        except ModelError as exc:
            # resolve names the family and the field at fault
            if str(exc).startswith(f"{name}: N "):
                raise ModelError(f"levels: {exc}", field="levels") from None
            raise
    for model in models:
        require_valid(model)
    runs = [(model, solve_average(model, schedule=schedule, tol=tol, x0=x0))
            for model in models]
    gains = [s.gain for _, s in runs]
    gaps = [abs(b - a) for a, b in zip(gains, gains[1:])]
    h_gaps = []
    for (model_a, sa), (model_b, sb) in zip(runs, runs[1:]):
        half = (model_a.truncation_level + 1) // 2
        h_b = dict(zip(model_b.labels, sb.h))
        diffs = [abs(h - h_b[lab]) for lab, h in zip(model_a.labels, sa.h)
                 if max(lab) < half]
        h_gaps.append(float(np.max(diffs)) if diffs else 0.0)
    stable = gaps[-1] <= STABLE_GAP
    return SensitivityReport(levels=levels, gains=gains, gaps=gaps,
                             h_inner_gaps=h_gaps, stable=stable)
