"""Independent reference computations used to check the solvers.

The linear-algebra references go through dense matrices of the
fixed-policy generator and share no code with the iterative solver path.
"""

import bisect
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ctmdp import (CtmdpModel, OracleError, OracleResult, StationaryPolicy,
                   average, extract_policy, families)
from ctmdp.lyapunov import SLACK_TOL, CheckRecord, DriftReport
from ctmdp.model import (_JSON_TYPES, ROW_SUM_TOL, LyapunovData, ModelError,
                         RateKernel, ValidationReport, boundary_states)
from ctmdp.simulate import FIRST_BLOCK, LAST_BLOCK, stream


def kernel_from_rows(rows) -> RateKernel:
    """Kernel of nested rows: rows[x][a] = sequence of (target, rate)
    pairs of (x, a)."""
    pair_rows = [entries for per_state in rows for entries in per_state]
    return RateKernel([len(per_state) for per_state in rows],
                      [len(entries) for entries in pair_rows],
                      [int(y) for entries in pair_rows for y, _ in entries],
                      [float(r) for entries in pair_rows for _, r in entries])


def index_actions(counts) -> np.ndarray:
    """The actions (0.0,), (1.0,), ... of states with counts[x] actions,
    as a model's (pairs, 1) array."""
    return np.array([[float(a)] for c in counts for a in range(c)])


def reward(model: CtmdpModel, x: int, a: int) -> float:
    """r(x, a) as a Python float."""
    return float(model.r[model.kernel.starts[x] + a])


def generator_apply_loop(model: CtmdpModel, u, x: int, a: int) -> float:
    """Sum_y u(y) q(y|x,a), added over the sorted row one entry at a time
    from 0.0."""
    u = np.asarray(u, dtype=np.float64)
    ys, rates = model.kernel.row(x, a)
    total = 0.0
    for y, rate in zip(ys.tolist(), rates.tolist()):
        total += u[y] * rate
    return total


def dense_generator(model: CtmdpModel, f: StationaryPolicy) -> np.ndarray:
    """Fixed-policy generator matrix Q_f as a dense array."""
    n = model.n
    Q = np.zeros((n, n))
    for x in range(n):
        ys, rates = model.kernel.row(x, f[x])
        Q[x, ys] = rates
    return Q


def reward_vector(model: CtmdpModel, f: StationaryPolicy) -> np.ndarray:
    return np.array([reward(model, x, f[x]) for x in range(model.n)])


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


def optimal_gains(model: CtmdpModel) -> np.ndarray:
    """Optimal gain from every start state, multichain models included:
    the largest (Pi_f r_f)(x) over all deterministic stationary policies f,
    with Pi_f the limit of the uniformized chain (I + Q_f / Lambda)^(2^k),
    taken for every policy at once by repeated squaring (rows renormalized
    after each step, so that rounding cannot compound)."""
    n = model.n
    policies = [StationaryPolicy(choice=np.array(c, dtype=np.int64))
                for c in itertools.product(*[range(model.kernel.counts[x])
                                             for x in range(n)])]
    Q = np.stack([dense_generator(model, f) for f in policies])
    r = np.stack([reward_vector(model, f) for f in policies])
    P = np.eye(n) + Q / (np.max(-Q) + 1.0)
    for _ in range(64):
        P = P @ P
        P /= P.sum(axis=2, keepdims=True)
    return np.max(np.einsum("kxy,ky->kx", P, r), axis=0)


def closed_class_gain(model: CtmdpModel, f: StationaryPolicy):
    """(gain, restricted) of the fixed-policy chain on the closed class that
    state 0 reaches, from a reachable-set search out of every state: x is
    recurrent iff every state it reaches reaches it back, and the class of
    a recurrent x is the set it reaches. Raises OracleError unless state 0
    reaches exactly one class; `restricted` is set when the class leaves
    out some state."""
    Q = dense_generator(model, f)
    n = model.n
    reach = []
    for x in range(n):
        seen, todo = {x}, [x]
        while todo:
            y = todo.pop()
            new = [z for z in range(n) if Q[y, z] > 0 and z not in seen]
            seen.update(new)
            todo.extend(new)
        reach.append(seen)
    members = sorted(x for x in reach[0]
                     if all(x in reach[y] for y in reach[x]))
    classes = {frozenset(reach[x]) for x in members}
    if len(classes) != 1:
        raise OracleError(f"{len(classes)} closed classes reachable from "
                          f"state 0", method="enumeration",
                          policy=f.choice.tolist())
    k = len(members)
    A = np.vstack([Q[np.ix_(members, members)].T, np.ones(k)])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < k or np.any(pi < -1e-9):
        raise OracleError(f"singular stationary system for policy "
                          f"{f.choice.tolist()}", method="enumeration",
                          policy=f.choice.tolist())
    return float(pi @ reward_vector(model, f)[members]), k < n


# -- dense brute-force oracle -------------------------------------------------
#
# The routes `brute_force_oracle` took before it became sparse and batched:
# one lstsq stationary solve per enumerated policy (strict first maximum),
# and policy iteration with a dense solve of the bordered Poisson system.

def dense_policy_iteration(model: CtmdpModel, x0: int = 0,
                           max_rounds: int = 200):
    n = model.n
    f = StationaryPolicy(choice=np.zeros(n, dtype=np.int64))
    best = None
    for _ in range(max_rounds):
        Q = dense_generator(model, f)
        r_f = reward_vector(model, f)
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = Q
        A[:n, n] = -1.0
        A[n, x0] = 1.0
        rhs = np.concatenate([-r_f, [0.0]])
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise OracleError(f"singular evaluation system for policy "
                              f"{f.choice.tolist()}",
                              method="policy_iteration",
                              policy=f.choice.tolist()) from exc
        h, g = sol[:n], float(sol[n])
        improved = extract_policy(model, h)
        if best is not None and g <= best[0] + 1e-13:
            return best
        best = (g, f)
        if np.array_equal(improved.choice, f.choice):
            return best
        f = improved
    return best


def dense_brute_force_oracle(model: CtmdpModel,
                             enumeration_limit: int = average.ENUMERATION_LIMIT
                             ) -> OracleResult:
    counts = model.kernel.counts.tolist()
    if math.prod(counts) > enumeration_limit:
        gain, f = dense_policy_iteration(model)
        return OracleResult(gain=gain, policy=f, method="policy_iteration")
    best = None
    restricted_any = False
    for combo in itertools.product(*[range(c) for c in counts]):
        f = StationaryPolicy(choice=np.array(combo, dtype=np.int64))
        gain, restricted = closed_class_gain(model, f)
        restricted_any = restricted_any or restricted
        if best is None or gain > best[0]:
            best = (gain, f)
    return OracleResult(gain=best[0], policy=best[1], method="enumeration",
                        restricted=restricted_any)


# -- truncation ---------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFamily:
    """A countable family supplied row by row: `entries(label, action)`
    lists the (target, rate) pairs of one raw row and `reward(label,
    action)` gives one reward rate; `actions` and `lyapunov` are as in
    `ctmdp.model.CountableFamily`."""

    dim: int
    actions: Callable
    entries: Callable
    reward: Callable
    lyapunov: Optional[Callable] = None


def truncate_loop(family: ScalarFamily, N: int) -> CtmdpModel:
    """`model.truncate` as a per-entry Python merge: each entry is clamped
    componentwise onto the boundary, clamped self-loops are dropped, the
    rest is merged per pair in a dict in entry order, and the diagonal is
    minus the merged rates added left to right from 0 in first-appearance
    order (not `sum`, which compensates from Python 3.12 on). Row p of
    the action array is the float() conversion of pair p's action."""
    labels = list(itertools.product(range(N + 1), repeat=family.dim))
    index = {lab: i for i, lab in enumerate(labels)}

    counts, actions, rewards = [], [], []
    lengths, targets, rates = [], [], []
    for x, lab in enumerate(labels):
        acts = [tuple(a) for a in family.actions(lab)]
        for a in acts:
            mass = {}      # clamped target -> rate, merged in entry order
            for target, rate in family.entries(lab, a):
                clamped = tuple(min(int(t), N) for t in target)
                if any(t < 0 for t in clamped):
                    raise ModelError(f"negative target "
                                     f"{tuple(map(int, target))} from {lab}")
                if clamped == lab:
                    continue   # folded into the diagonal
                mass[index[clamped]] = mass.get(index[clamped], 0.0) + float(rate)
            targets.extend(mass)
            targets.append(x)
            rates.extend(mass.values())
            rates.append(-functools.reduce(operator.add, mass.values(), 0))
            lengths.append(len(mass) + 1)
            rewards.append(family.reward(lab, a))
            actions.append([float(v) for v in a])
        counts.append(len(acts))

    lyap = family.lyapunov(labels) if family.lyapunov is not None else None
    return CtmdpModel(
        actions=actions,
        kernel=RateKernel(counts, lengths, targets, rates),
        r=rewards,
        lyapunov=lyap,
        labels=tuple(labels),
        truncation_level=N,
    )


# -- scalar references of the truncated builtins ------------------------------
#
# The row-by-row callbacks the builtins had before `CountableFamily` became
# array-valued; `truncate_loop` over them must build each builtin's model
# byte for byte, Lyapunov data included.

def _birth_death(s: dict) -> ScalarFamily:
    lam, mu1, mu2, p1, p = (s[k] for k in ("lambda", "mu1", "mu2", "p1", "p"))
    p2 = 1.0 - p1
    rc, M_tilde = families._rc_fn(s["rc"], mu2)
    grid = families._grid(mu1, mu2, s["G"])

    def entries(lab, act):
        (x,) = lab
        (a,) = act
        if x == 0:
            return [((1,), lam)]
        if x == 1:
            return [((0,), a), ((2,), lam)]
        out = [((x - 1,), p2 * a * x), ((x + 1,), lam * x)]
        if p1 > 0:
            out.append(((x - 2,), p1 * a * x))
        return out

    return ScalarFamily(
        dim=1,
        actions=lambda lab: [(a,) for a in grid],
        entries=entries,
        reward=lambda lab, act: p * lab[0] - rc(lab[0], act[0]),
        lyapunov=families._linear_lyapunov(lam, mu1, mu2, p + M_tilde + 1e-12),
    )


def _skip_free(s: dict) -> ScalarFamily:
    lam, mu, tau, p, q1, q2, kappa_c, gamma2 = (s[k] for k in (
        "lambda", "mu", "tau", "p", "q1", "q2", "kappa_c", "gamma2"))

    def gam2(x):
        return 0.0 if x <= 1 else gamma2

    def d(x, a2):
        return 0.0 if x == 0 else 2.0 * a2 * x

    a1_grid = families._grid(0.0, s["b"], s["G"])
    a2_grid = families._grid(s["b"], s["beta"], s["G"])

    def actions(lab):
        (x,) = lab
        if x == 0:
            return [(a1, 0.0) for a1 in a1_grid]
        return [(a1, a2) for a1 in a1_grid for a2 in a2_grid]

    def entries(lab, act):
        (x,) = lab
        a1, a2 = act
        out = []
        up = lam * x + a1
        if up > 0:
            out.append(((x + 1,), up))
        if x >= 1:
            g2 = gam2(x)
            dn1 = mu * x + d(x, a2) * (1.0 - g2)
            if dn1 > 0:
                out.append(((x - 1,), dn1))
            if x >= 2 and g2 > 0:
                out.append(((x - 2,), d(x, a2) * g2))
        return out

    def reward(lab, act):
        (x,) = lab
        a1, a2 = act
        dv = d(x, a2)
        cost = 0.0 if x == 0 else kappa_c * a2 * x
        return tau * a1 - cost - p * dv \
            + q1 * (1.0 - gam2(x)) * dv + q2 * gam2(x) * dv

    def lyapunov(labels):
        w = np.array([x + 1.0 for (x,) in labels])
        wp = np.array([(x + 1.0) * (x + 2.0) for (x,) in labels])
        c = 0.5 * (mu - lam) if mu > lam else 1e-12
        b_fit, M, M_q, cprime, Mprime = _fit_constants(
            labels, actions, entries, reward, w, wp, c)
        return LyapunovData(w=w, c=c, b=max(b_fit, 0.0) + 1e-9, M=M + 1e-9,
                            M_q=M_q + 1e-9, wprime=wp, cprime=cprime + 1e-9,
                            bprime=0.0, Mprime=Mprime + 1e-9)

    return ScalarFamily(dim=1, actions=actions, entries=entries,
                        reward=reward, lyapunov=lyapunov)


def _fit_constants(labels, actions, entries, reward, w, wp, c):
    b = M = -np.inf
    M_q, cprime, Mprime = 0.0, 1e-12, 1e-12
    for i, lab in enumerate(labels):
        (x,) = lab
        for act in actions(lab):
            row = entries(lab, act)
            drift_w = drift_wp = 0.0
            for (t,), rate in row:
                drift_w += rate * ((t + 1.0) - (x + 1.0))
                drift_wp += rate * ((t + 1.0) * (t + 2.0)
                                    - (x + 1.0) * (x + 2.0))
            q = functools.reduce(operator.add, (rate for _, rate in row), 0)
            b = max(b, drift_w + c * w[i])
            M = max(M, abs(reward(lab, act)) / w[i])
            M_q = max(M_q, q / w[i])
            cprime = max(cprime, drift_wp / wp[i])
            Mprime = max(Mprime, q * w[i] / wp[i])
    return b, M, M_q, cprime, Mprime


def _tandem(s: dict) -> ScalarFamily:
    throughput = s["reward"]["kind"] == "throughput"
    c1, c2, cap = (s["reward"][k] for k in ("c1", "c2", "cap"))

    def reward(lab, act):
        (x1, x2), (a1, a2) = lab, act
        if throughput:
            return a2 * (1.0 if x2 > 0 else 0.0) - c1 * a1 - c2 * a2
        return -min(float(x1 + x2), cap)

    g1 = families._grid(s["mu1"], s["mu1star"], s["G"])
    g2 = families._grid(s["mu2"], s["mu2star"], s["G"])

    def entries(lab, act):
        x1, x2 = lab
        a1, a2 = act
        out = [((x1 + 1, x2), 1.0)]
        if x1 > 0:
            out.append(((x1 - 1, x2 + 1), a1))
        if x2 > 0:
            out.append(((x1, x2 - 1), a2))
        return out

    def lyapunov(labels):
        w = np.array([families.tandem_weight(x1, x2) for x1, x2 in labels])
        sup_r = max(abs(reward(lab, act)) for lab in labels
                    for act in [(g1[0], g2[0]), (g1[-1], g2[-1])])
        # a Python float, as the array build gives it (a numpy float64
        # before, when the grids held numpy values; same value)
        sup_r = float(sup_r)
        return LyapunovData(w=w, c=0.002, b=0.0501,
                            M=max(sup_r, 1e-9) + 1e-9,
                            M_q=(1.0 + s["mu1star"] + s["mu2star"])
                            / float(np.min(w)) + 1e-9)

    return ScalarFamily(
        dim=2,
        actions=lambda lab: [(a1, a2) for a1 in g1 for a2 in g2],
        entries=entries, reward=reward, lyapunov=lyapunov)


def _mmn0(s: dict) -> ScalarFamily:
    lam, mu1, mu2, N = s["lambda"], s["mu1"], s["mu2"], s["N"]
    p, kappa = s["reward"]["p"], s["reward"]["kappa"]
    grid = families._grid(mu1, mu2, s["G"])

    def actions(lab):
        (x,) = lab
        if x == 0:
            return [(0.0,)]
        return [(m,) for m in grid]

    def entries(lab, act):
        (x,) = lab
        (m,) = act
        out = []
        if x < N:
            out.append(((x + 1,), lam))
        if x > 0:
            out.append(((x - 1,), m * x))
        return out

    return ScalarFamily(
        dim=1, actions=actions, entries=entries,
        reward=lambda lab, act: p * lab[0] - kappa * act[0] * lab[0],
        lyapunov=families._linear_lyapunov(lam, mu1, mu2,
                                           p + kappa * mu2 + 1e-12))


SCALAR_BUILTINS = {"birth_death": _birth_death, "skip_free": _skip_free,
                   "tandem": _tandem, "mmn0": _mmn0}


def build_loop(name: str, params: dict) -> CtmdpModel:
    """`families.build` of a truncated builtin through its scalar reference
    family and `truncate_loop`."""
    s = families.resolve(families.spec(name), params)
    return truncate_loop(SCALAR_BUILTINS[name](s), s["N"])


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
        for a in range(model.kernel.counts[x]):
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
            if not np.isfinite(reward(model, x, a)):
                bad("finite_reward", x, a)
        if not all(np.isfinite(model.kernel.exit_rate(x, a))
                   for a in range(model.kernel.counts[x])):
            bad("stable_rates", x)

    lyap = model.lyapunov
    if lyap is not None:
        for x in range(model.n):
            for a in range(model.kernel.counts[x]):
                rr = abs(reward(model, x, a))
                bound = lyap.M * lyap.w[x]
                if rr > bound:
                    bad("reward_weight_bound", x, a, slack=bound - rr)

    return ValidationReport(ok=not violations, violations=violations)


def pointwise_check_loop(name, model, lhs_fn, rhs_fn) -> CheckRecord:
    boundary = set(boundary_states(model).tolist())
    worst = (np.inf, None, None, None, None)      # slack, x, a, lhs, rhs
    worst_boundary = np.inf
    for x in range(model.n):
        for a in range(model.kernel.counts[x]):
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
        lambda x, a: generator_apply_loop(model, w, x, a),
        lambda x, a: -c * w[x] + b)
    rate = pointwise_check_loop(
        "rate_bound", model,
        lambda x, a: model.kernel.exit_rate(x, a),
        lambda x, a: lyap.M_q * w[x])
    b_hat = -np.inf
    c_hat = np.inf
    for x in range(model.n):
        for a in range(model.kernel.counts[x]):
            lhs = generator_apply_loop(model, w, x, a)
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
        lambda x, a: abs(reward(model, x, a)),
        lambda x, a: lyap.M * w[x])]
    if lyap.wprime is not None:
        wp = lyap.wprime
        checks.append(pointwise_check_loop(
            "rate_weight_product", model,
            lambda x, a: model.kernel.exit_rate(x, a) * w[x],
            lambda x, a: lyap.Mprime * wp[x]))
        checks.append(pointwise_check_loop(
            "growth_wprime", model,
            lambda x, a: generator_apply_loop(model, wp, x, a),
            lambda x, a: lyap.cprime * wp[x] + lyap.bprime))
    return DriftReport(checks=checks)


def check_monotonicity_loop(model: CtmdpModel,
                            f: StationaryPolicy) -> DriftReport:
    """Dense n x n tail-sum table, scanned over (x, k)."""
    if model.labels is not None and len(model.labels[0]) != 1:
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


# -- field-by-field reference for the explicit model reader ----------------

def _typed_loop(value, kind, where):
    """`model.typed` one element at a time, with no fast path."""
    if isinstance(kind, list):
        items = _typed_loop(value, list, where)
        return [_typed_loop(v, kind[0], f"{where}[{i}]")
                for i, v in enumerate(items)]
    if type(value) is kind:
        return value
    if (kind is float and type(value) is int
            and abs(value) <= sys.float_info.max
            or kind is int and type(value) is float and value.is_integer()):
        return kind(value)
    raise ModelError(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")


def _need_loop(doc, key, where="", kind=None, required=True):
    if not required and doc.get(key) is None:
        return None
    path = f"{where}.{key}" if where else key
    if key not in doc:
        raise ModelError(f"missing field {path}")
    return doc[key] if kind is None else _typed_loop(doc[key], kind, path)


def _per_pair_loop(doc, key, actions, read, what):
    rows = [[None] * len(acts) for acts in actions]
    for i, rec in enumerate(_need_loop(doc, key, kind=[dict])):
        where = f"{key}[{i}]"
        x = _need_loop(rec, "x", where, int)
        a = _need_loop(rec, "a", where, int)
        if not (0 <= x < len(rows) and 0 <= a < len(rows[x])):
            raise ModelError(f"(x, a) out of range at {where}")
        rows[x][a] = read(rec, x, where)
    for x, per_state in enumerate(rows):
        if None in per_state:
            raise ModelError(f"no {what} supplied for "
                             f"({x}, {per_state.index(None)})")
    return rows


def _rate_entries_loop(rec, x, where):
    entries = {}
    for j, pair in enumerate(_need_loop(rec, "entries", where, list)):
        at = f"{where}.entries[{j}]"
        if type(pair) is not list or len(pair) != 2:
            raise ModelError(f"{at} is not a [y, rate] pair")
        y = _typed_loop(pair[0], int, f"{at}[0]")
        rate = _typed_loop(pair[1], float, f"{at}[1]")
        if y in entries:
            raise ModelError(f"duplicate target {y} at {where}")
        entries[y] = rate
    if x not in entries:
        total = 0                  # left to right in file order, from 0
        for rate in entries.values():
            total = total + rate
        entries[x] = -total
    return entries


def explicit_model_loop(doc) -> CtmdpModel:
    """`model_from_dict` on an explicit document, one field at a time:
    every record and entry through the checked accessors, each row a
    target -> rate dict sorted by target in Python."""
    kind = _need_loop(_typed_loop(doc, dict, "model document"), "kind")
    if kind != "explicit":
        raise ModelError(f"unknown model kind {kind!r}")
    n = _need_loop(doc, "states", kind=int)
    actions_doc = _need_loop(doc, "actions", kind=[[[float]]])
    if len(actions_doc) != n:
        raise ModelError("'actions' length does not match 'states'")
    first, actions = None, []
    for x, acts in enumerate(actions_doc):
        for a, act in enumerate(acts):
            first = act if first is None else first
            if len(act) != len(first):
                raise ModelError(
                    f"actions[{x}][{a}] has {len(act)} numbers where the "
                    f"first action has {len(first)}: every action must have "
                    f"the same length")
            actions.append(act)
    rate_rows = _per_pair_loop(doc, "rates", actions_doc, _rate_entries_loop,
                               "rate row")
    kernel = kernel_from_rows([[sorted(entries.items())
                                for entries in per_state]
                               for per_state in rate_rows])
    reward_rows = _per_pair_loop(
        doc, "rewards", actions_doc,
        lambda rec, x, where: _need_loop(rec, "r", where, float), "reward")

    ld = _need_loop(doc, "lyapunov", kind=dict, required=False)

    def get(key, kind=float, required=True):
        return _need_loop(ld, key, "lyapunov", kind, required)

    try:
        lyap = None if ld is None else LyapunovData(
            w=get("w", [float]), c=get("c"), b=get("b"), M=get("M"),
            M_q=get("Mq"), wprime=get("wprime", [float], False),
            cprime=get("cprime", required=False),
            bprime=get("bprime", required=False),
            Mprime=get("Mprime", required=False))
    except ModelError as exc:
        raise ModelError(f"bad 'lyapunov' block: {exc}") from exc
    labels = _need_loop(doc, "labels", kind=list, required=False)
    try:
        return CtmdpModel(actions=np.array(actions, dtype=np.float64).reshape(
                              len(actions), len(first or [])),
                          kernel=kernel,
                          r=list(itertools.chain.from_iterable(
                              reward_rows)),
                          lyapunov=lyap, labels=labels)
    except TypeError as exc:
        raise ModelError(f"bad 'labels': {exc}") from exc


def model_to_dict_loop(model: CtmdpModel) -> dict:
    """`model_to_dict`, one (state, action) pair at a time through the
    kernel's row views."""
    rates, rewards = [], []
    for x, per_state in enumerate(model.kernel.rows):
        for a, (ys, vals) in enumerate(per_state):
            rates.append({"x": x, "a": a, "entries": [
                list(e) for e in zip(ys.tolist(), vals.tolist())]})
            rewards.append({"x": x, "a": a, "r": reward(model, x, a)})
    doc = {"kind": "explicit", "states": model.n,
           "actions": [[model.actions[model.kernel.starts[x] + a].tolist()
                        for a in range(model.kernel.counts[x])]
                       for x in range(model.n)],
           "rates": rates, "rewards": rewards}
    if model.labels is not None:
        doc["labels"] = [list(lab) for lab in model.labels]
    lyap = model.lyapunov
    if lyap is not None:
        doc["lyapunov"] = {
            "w": lyap.w.tolist(), "c": lyap.c, "b": lyap.b,
            "M": lyap.M, "Mq": lyap.M_q,
            "wprime": None if lyap.wprime is None else lyap.wprime.tolist(),
            "cprime": lyap.cprime, "bprime": lyap.bprime,
            "Mprime": lyap.Mprime}
    return doc


# -- scalar reference for the replication-batched simulation stepper --------

def replication_draws(seed: int, rep: int, n_draws: int):
    """Per-jump draws (E, u[, E']) of one replication, read block by block
    in the layout documented in ctmdp.simulate."""
    gen = stream(seed, rep)
    for k in itertools.count():
        size = min(FIRST_BLOCK * 2 ** k, LAST_BLOCK)
        block = [gen.standard_exponential(size), gen.random(size)]
        if n_draws == 3:
            block.append(gen.standard_exponential(size))
        yield from zip(*(b.tolist() for b in block))


def reference_path(exit_rate, reward, jump, x0, horizon, draws,
                   checkpoints=()):
    """One jump at a time: returns (times, states, reward integral,
    [(state, reward so far) at each checkpoint <= horizon], jumps)."""
    x, t, rint = x0, 0.0, 0.0
    times, states, at_checkpoints = [0.0], [x0], []
    cps = list(checkpoints)
    for draw in draws:
        q = exit_rate(x)
        t_next = t + draw[0] / q if q > 0 else np.inf
        end = min(t_next, horizon)
        while len(at_checkpoints) < len(cps) \
                and cps[len(at_checkpoints)] <= end:
            tc = cps[len(at_checkpoints)]
            at_checkpoints.append((x, rint + reward(x) * (tc - t)))
        rint += reward(x) * (end - t)
        if t_next >= horizon:
            break
        t = t_next
        x = jump(x, *draw[1:])
        times.append(t)
        states.append(x)
    return times, states, rint, at_checkpoints, len(times) - 1


def reference_policy_chain(model: CtmdpModel, f: StationaryPolicy):
    """Per-state exit rates and rewards of a tabulated model under f, and
    its jump rule (x, u) -> next state: the off-diagonal targets of x in
    ascending order, chosen by the first normalized running sum of rates
    >= u (x itself where x does not move)."""
    targets, cums, rates, rewards = [], [], [], []
    for x in range(model.n):
        ys, qs = model.kernel.row(x, f[x])
        off = ys != x
        running = np.cumsum(qs[off])
        lam = float(running[-1]) if len(running) else 0.0
        targets.append(ys[off].tolist())
        cums.append((running / lam).tolist() if lam > 0 else [])
        rates.append(lam)
        rewards.append(reward(model, x, f[x]))

    def jump(x, u):
        return targets[x][bisect.bisect_left(cums[x], u)] if cums[x] else x

    return rates, rewards, jump


def reference_policy_path(model: CtmdpModel, f: StationaryPolicy, x0: int,
                          horizon: float, seed: int, rep: int = 0,
                          checkpoints=()):
    """reference_path for a tabulated model, by reference_policy_chain."""
    rates, rewards, jump = reference_policy_chain(model, f)
    return reference_path(rates.__getitem__, rewards.__getitem__, jump,
                          int(x0), horizon,
                          replication_draws(seed, rep, 2), checkpoints)


def redistribution_weight(x) -> float:
    """w(x) = sum_i x_i of one state of the redistribution process."""
    return float(np.sum(x))


def redistribution_reward(proc, x, policy) -> float:
    """r(x) = sum_i q_i sum_j p_ij x_j - lambda sum_i x_i of one state of
    the redistribution process under `policy`, with the index pattern
    q_i p_ij x_j as printed in the source display."""
    x = np.asarray(x, dtype=np.float64)
    gain = float(policy.q @ (policy.matrix @ x))
    return gain - proc.lam * float(np.sum(x))


def reference_redistribution_path(proc, policy, x0, horizon: float,
                                  seed: int, rep: int = 0, checkpoints=()):
    """reference_path for the redistribution process, one point at a time."""
    d = proc.d

    def jump(x, u, e):
        i = min(int(u * d), d - 1)
        moved = e / proc.lam * x[i]
        x = x.copy()
        x[i] = 0.0
        x += moved * policy.matrix[i]
        return x

    return reference_path(lambda x: proc.total_rate,
                          lambda x: redistribution_reward(proc, x, policy),
                          jump,
                          np.asarray(x0, dtype=np.float64), horizon,
                          replication_draws(seed, rep, 3), checkpoints)
