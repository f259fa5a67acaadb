"""Independent reference computations used to check the solvers.

The linear-algebra references go through dense matrices of the
fixed-policy generator and share no code with the iterative solver path.
"""

import bisect
import itertools
import math

import numpy as np

from ctmdp import (CtmdpModel, OracleError, OracleResult, StationaryPolicy,
                   average, extract_policy)
from ctmdp.lyapunov import SLACK_TOL, CheckRecord, DriftReport
from ctmdp.model import (ROW_SUM_TOL, ActionSets, CountableFamily,
                         ModelError, RateKernel, RewardTable, StateSpace,
                         ValidationReport, boundary_states, generator_apply)
from ctmdp.simulate import FIRST_BLOCK, LAST_BLOCK, stream


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


def optimal_gains(model: CtmdpModel) -> np.ndarray:
    """Optimal gain from every start state, multichain models included:
    the largest (Pi_f r_f)(x) over all deterministic stationary policies f,
    with Pi_f the limit of the uniformized chain (I + Q_f / Lambda)^(2^k),
    taken for every policy at once by repeated squaring (rows renormalized
    after each step, so that rounding cannot compound)."""
    n = model.n
    policies = [StationaryPolicy(choice=np.array(c, dtype=np.int64))
                for c in itertools.product(*[range(model.n_actions(x))
                                             for x in range(n)])]
    Q = np.stack([dense_generator(model, f) for f in policies])
    r = np.stack([reward_vector(model, f) for f in policies])
    P = np.eye(n) + Q / (np.max(-Q) + 1.0)
    for _ in range(64):
        P = P @ P
        P /= P.sum(axis=2, keepdims=True)
    return np.max(np.einsum("kxy,ky->kx", P, r), axis=0)


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
        Q = average._dense_q(model, f)
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
        gain, restricted = average._stationary_gain(model, f)
        restricted_any = restricted_any or restricted
        if best is None or gain > best[0]:
            best = (gain, f)
    return OracleResult(gain=best[0], policy=best[1], method="enumeration",
                        restricted=restricted_any)


# -- truncation ---------------------------------------------------------------

def truncate_loop(family: CountableFamily, N: int) -> CtmdpModel:
    """`model.truncate` as a per-entry Python merge: each entry is clamped
    componentwise onto the boundary, clamped self-loops are dropped, the
    rest is merged per pair in a dict in entry order, and the diagonal is
    minus the Python sum of the merged rates in first-appearance order."""
    labels = list(itertools.product(range(N + 1), repeat=family.dim))
    index = {lab: i for i, lab in enumerate(labels)}

    action_sets, reward_rows = [], []
    lengths, targets, rates = [], [], []
    for x, lab in enumerate(labels):
        acts = [tuple(a) for a in family.actions(lab)]
        per_state_rewards = []
        for a in acts:
            mass = {}      # clamped target -> rate, merged in entry order
            for target, rate in family.entries(lab, a):
                clamped = tuple(min(int(t), N) for t in target)
                if any(t < 0 for t in clamped):
                    raise ModelError(f"negative target {target} from {lab}")
                if clamped == lab:
                    continue   # folded into the diagonal
                mass[index[clamped]] = mass.get(index[clamped], 0.0) + float(rate)
            targets.extend(mass)
            targets.append(x)
            rates.extend(mass.values())
            rates.append(-sum(mass.values()))
            lengths.append(len(mass) + 1)
            per_state_rewards.append(family.reward(lab, a))
        action_sets.append(acts)
        reward_rows.append(per_state_rewards)

    lyap = family.lyapunov(labels) if family.lyapunov is not None else None
    return CtmdpModel(
        states=StateSpace(size=len(labels), labels=tuple(labels),
                          truncation_level=N),
        actions=ActionSets(sets=tuple(action_sets)),
        kernel=RateKernel.from_pairs([len(acts) for acts in action_sets],
                                     lengths, targets, rates),
        rewards=RewardTable(table=tuple(reward_rows)),
        lyapunov=lyap,
    )


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
        if not all(np.isfinite(model.kernel.exit_rate(x, a))
                   for a in range(model.n_actions(x))):
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


def reference_policy_path(model: CtmdpModel, f: StationaryPolicy, x0: int,
                          horizon: float, seed: int, rep: int = 0,
                          checkpoints=()):
    """reference_path for a tabulated model: the off-diagonal targets of
    x in ascending order, chosen by the first normalized running sum of
    rates >= u."""
    targets, cums, rates, rewards = [], [], [], []
    for x in range(model.n):
        ys, qs = model.kernel.row(x, f[x])
        off = ys != x
        running = np.cumsum(qs[off])
        lam = float(running[-1]) if len(running) else 0.0
        targets.append(ys[off].tolist())
        cums.append((running / lam).tolist() if lam > 0 else [])
        rates.append(lam)
        rewards.append(model.rewards.rate(x, f[x]))

    def jump(x, u):
        return targets[x][bisect.bisect_left(cums[x], u)]

    return reference_path(rates.__getitem__, rewards.__getitem__, jump,
                          int(x0), horizon,
                          replication_draws(seed, rep, 2), checkpoints)


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
                          lambda x: proc.reward(x, policy), jump,
                          np.asarray(x0, dtype=np.float64), horizon,
                          replication_draws(seed, rep, 3), checkpoints)
