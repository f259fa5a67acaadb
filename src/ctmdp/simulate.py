"""Event-driven simulation of the controlled jump process.

Exact jump-chain construction (the direct method of Gillespie 1977), no
time discretization. One stepper serves every Monte Carlo run: it advances
a group of replications in lockstep, one embedded-chain jump per step, and
computes holding times, the horizon cut, reward integrals, occupation
times and checkpoint values per block of jumps with array operations.

Random draws. Replication i of a run with master seed s draws from its own
counter-based Philox stream, key = (s << 64) + i, so its path depends only
on (s, i), not on the replication count or on how replications are
grouped, and every report is bit-reproducible across platforms. A stream
is read in blocks k = 0, 1, 2, ... of L_k = min(16 * 2**k, 1024) draws
each: `standard_exponential(L_k)`, then `random(L_k)`, then, for the
redistribution process only, `standard_exponential(L_k)`. Jump j of a
path (counted from 0 over the concatenated blocks) reads entry j of each:

* the holding time in the current state x is E_j / q(x), infinite where
  the exit rate q(x) is 0 (an absorbing state); the path stops at the
  first jump time >= horizon and the rest of its draws go unused;
* in a tabulated model q(x) is the running sum of the off-diagonal rates
  of x under the policy, in ascending target order, and the next state is
  the first of those targets whose running sum divided by q(x) is >= u_j
  (the last positive-rate target reads exactly q(x) / q(x) = 1, so every
  u_j < 1 finds one);
* in the redistribution process q = d, component min(floor(u_j d), d - 1)
  fires and its mass is scaled by E'_j / lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .families import PotlachPolicy, PotlachProcess
from .model import CtmdpModel, ModelError, StationaryPolicy

RNG_FAMILY = "numpy.random.Philox"
RNG_DRAWS = ("blocks k = 0, 1, ... of min(16 * 2**k, 1024) draws: "
             "standard_exponential (holding time E / q(x)), random (jump "
             "choice), then for the redistribution process "
             "standard_exponential (mass factor E / lambda)")
FIRST_BLOCK, LAST_BLOCK = 16, 1024
GROUP_CELLS = 1 << 15        # replications x block length stepped at once
MAX_JUMPS = 10 ** 8


class SimulationError(RuntimeError):
    """Explosion suspected: the per-path jump-count guard was exceeded."""

    def __init__(self, message, last_state=None, rep=None, jumps=None,
                 time=None):
        super().__init__(message)
        self.last_state = last_state
        self.rep = rep
        self.jumps = jumps
        self.time = time

    def detail(self) -> dict:
        return {"replication": self.rep, "jumps": self.jumps,
                "time": self.time, "last_state": self.last_state}


def stream(seed: int, rep: int) -> np.random.Generator:
    """Replication RNG: Philox keyed by (seed, rep)."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(rep)))


def rng_info(seed: int) -> dict:
    return {"family": RNG_FAMILY, "seed": int(seed),
            "derivation": "key = (seed << 64) + replication_index",
            "draws": RNG_DRAWS}


@dataclass
class PathRecorder:
    """One realized trajectory: jump times, visited states, action path."""

    times: np.ndarray          # segment start times, times[0] = 0
    states: np.ndarray         # state at each segment (indices, or points)
    actions: list              # action vector in force on each segment
    horizon: float
    reward_integral: float
    checkpoint_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    checkpoint_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def state_at(self, t: float):
        if t < 0 or t > self.horizon:
            raise ValueError("time outside the recorded horizon")
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.states[i]


# -- the two jump chains: start states, one block of jumps, per-state rates --

class _PolicyChain:
    """Embedded chain of a tabulated model under a stationary policy, as
    padded (n, K) target and cumulative-probability tables."""

    n_draws = 2

    def __init__(self, model: CtmdpModel, f: StationaryPolicy):
        model.check_policy(f)
        flat = model.flat()
        n = self.n = model.n
        x_of, ys, rates = flat.entries_of(flat.starts + f.choice)
        off = ys != x_of
        x_of, ys, rates = x_of[off], ys[off], rates[off]
        counts = np.bincount(x_of, minlength=n)
        K = max(int(counts.max()), 1)
        col = np.arange(len(ys)) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
        cum = np.zeros((n, K))
        cum[x_of, col] = rates
        np.cumsum(cum, axis=1, out=cum)
        self.rate = cum[:, -1].copy()
        moves = self.rate > 0
        cum[moves] /= self.rate[moves, None]     # padding columns read 1
        targets = np.repeat(np.arange(n)[:, None], K, axis=1)
        targets[x_of, col] = ys
        targets[~moves] = np.arange(n)[~moves, None]
        self.cum, self.targets = cum, targets.ravel()
        self.row0 = np.arange(n) * K
        self.reward = flat.r[flat.starts + f.choice]

    def start(self, x0, reps: int) -> np.ndarray:
        x0 = int(x0)
        if not 0 <= x0 < self.n:
            raise ModelError(f"start state {x0} out of range")
        return np.full(reps, x0, dtype=np.int64)

    def walk(self, x, draws) -> np.ndarray:
        """States before and after each jump of a block, (G, L + 1)."""
        u = np.ascontiguousarray(draws[1].T)[:, :, None]
        S = np.empty((len(u) + 1, len(x)), dtype=np.int64)
        S[0] = x
        for j, uj in enumerate(u):
            # u < 1 = cum[x, -1] where x moves, so argmin finds the first
            # cum >= u; in an absorbing x it finds column 0, x itself
            x = self.targets.take(self.row0.take(x)
                                  + (self.cum.take(x, 0) < uj).argmin(1))
            S[j + 1] = x
        return S.T

    def exit_rate(self, S) -> np.ndarray:
        return self.rate.take(S)

    def reward_rate(self, S) -> np.ndarray:
        return self.reward.take(S)


class _RedistributionChain:
    """The redistribution process: d components firing at unit rate."""

    n_draws = 3
    n = 0                        # no finite state space to occupy

    def __init__(self, proc: PotlachProcess, policy: PotlachPolicy):
        if not isinstance(policy, PotlachPolicy):
            raise ModelError("the redistribution process takes a "
                             "PotlachPolicy")
        self.proc, self.policy = proc, policy

    def start(self, x0, reps: int) -> np.ndarray:
        return np.tile(np.asarray(x0, dtype=np.float64), (reps, 1))

    def walk(self, x, draws) -> np.ndarray:
        """States before and after each jump of a block, (G, L + 1, d)."""
        d = self.proc.d
        comp = np.minimum((draws[1] * d).astype(np.int64), d - 1).T
        mass = (draws[2] / self.proc.lam).T
        S = np.empty((len(comp) + 1,) + x.shape)
        S[0] = x
        for j in range(len(comp)):
            x = S[j + 1] = self.proc.redistribute(x, self.policy, comp[j],
                                                  mass[j])
        return S.transpose(1, 0, 2)

    def exit_rate(self, S) -> np.ndarray:
        return np.full(S.shape[:2], self.proc.total_rate)

    def reward_rate(self, S) -> np.ndarray:
        pol = self.policy
        return (S @ pol.matrix.T) @ pol.q - self.proc.lam * S.sum(axis=-1)


def _chain(model, f):
    if isinstance(model, PotlachProcess):
        return _RedistributionChain(model, f)
    return _PolicyChain(model, f)


@dataclass
class _Runs:
    """Per-replication results of one stepper call."""

    reward: np.ndarray           # reward integral over [0, horizon]
    jumps: np.ndarray            # jumps taken before the horizon
    cp_states: np.ndarray        # (reps, C[, d]) state at each checkpoint
    cp_rewards: np.ndarray       # (reps, C) reward integral up to each
                                 # (both unset past the horizon)
    occupation: np.ndarray       # time per state, pooled (tabulated chains)
    path: tuple = None           # (times, states) of replication 0


def _run(chain, x0, horizon: float, reps: int, seed: int, checkpoints=(),
         record=False, max_jumps=None) -> _Runs:
    """The stepper: `reps` replications from x0 over [0, horizon].

    A checkpoint t is read in the segment between jump times t_j < t <=
    t_{j+1} (the first segment for t <= 0, the last one ends at the
    horizon): its state, and the reward integral up to t.
    """
    max_jumps = MAX_JUMPS if max_jumps is None else max_jumps
    cps = np.asarray(checkpoints, dtype=np.float64)
    if np.any(np.diff(cps) < 0):
        raise ValueError("checkpoint times must be non-decreasing")
    C = len(cps)
    x = chain.start(x0, reps)
    t, reward = np.zeros(reps), np.zeros(reps)
    jumps, cp_count = np.zeros(reps, np.int64), np.zeros(reps, np.int64)
    cp_states = np.zeros((reps, C) + x.shape[1:], dtype=x.dtype)
    cp_rewards = np.zeros((reps, C))
    occupation = np.zeros(chain.n)
    times, states = [np.zeros(1)], [x[:1].copy()]
    gens = {}
    live = np.arange(reps)
    k = 0
    while live.size:
        L = min(FIRST_BLOCK << min(k, 16), LAST_BLOCK)
        size = max(GROUP_CELLS // L, 1)
        going = []
        for idx in np.array_split(live, -(-live.size // size)):
            draws = np.empty((chain.n_draws, idx.size, L))
            for row, rep in enumerate(idx.tolist()):
                gen = gens.get(rep)
                if gen is None:
                    gen = gens[rep] = stream(seed, rep)
                gen.standard_exponential(out=draws[0, row])
                gen.random(out=draws[1, row])
                if chain.n_draws == 3:
                    gen.standard_exponential(out=draws[2, row])
            S = chain.walk(x[idx], draws)
            rate = chain.exit_rate(S[:, :L])
            hold = np.divide(draws[0], rate, where=rate > 0,
                             out=np.full_like(rate, np.inf))
            T = np.cumsum(np.concatenate([t[idx, None], hold], axis=1),
                          axis=1)
            m = np.count_nonzero(T[:, 1:] < horizon, axis=1)
            over = jumps[idx] + m > max_jumps
            if over.any():
                row = int(np.argmax(over))
                j = max_jumps - int(jumps[idx[row]]) + 1
                last = S[row, j].tolist()
                raise SimulationError(
                    f"jump-count guard ({max_jumps}) exceeded in replication "
                    f"{int(idx[row])} at time {T[row, j]!r}; drift "
                    f"condition likely violated", last_state=last,
                    rep=int(idx[row]), jumps=max_jumps + 1,
                    time=float(T[row, j]))
            ends = np.minimum(T[:, 1:], horizon)
            seg = ends - T[:, :L]
            seg[np.arange(L) > m[:, None]] = 0.0
            rrate = chain.reward_rate(S[:, :L])
            R = np.cumsum(np.concatenate([reward[idx, None], rrate * seg],
                                         axis=1), axis=1)
            if chain.n:
                occupation += np.bincount(S[:, :L].ravel(), seg.ravel(),
                                          minlength=chain.n)
            if C:
                # checkpoint i lies in the first segment whose end count
                # n_seg (checkpoints <= end) exceeds i; rows are offset by
                # C + 1 so one searchsorted finds it in every row
                n_seg = np.searchsorted(cps, ends, side="right")
                base = (C + 1) * np.arange(idx.size)[:, None]
                pos = np.searchsorted((n_seg + base).ravel(),
                                      base + np.arange(C), side="right")
                j = pos - L * np.arange(idx.size)[:, None]
                hit = (j < L) & (np.arange(C) >= cp_count[idx, None])
                rows, ks = np.nonzero(hit)
                js = j[rows, ks]
                cp_states[idx[rows], ks] = S[rows, js]
                cp_rewards[idx[rows], ks] = (R[rows, js] + rrate[rows, js]
                                             * (cps[ks] - T[rows, js]))
                cp_count[idx] = n_seg[:, -1]
            if record:
                times.append(T[0, 1:m[0] + 1])
                states.append(S[0, 1:m[0] + 1])
            jumps[idx] += m
            reward[idx] = R[:, L]
            t[idx], x[idx] = T[:, L], S[:, L]
            going.append(idx[m == L])
            for rep in idx[m < L].tolist():
                del gens[rep]
        live = np.concatenate(going)
        k += 1
    path = (np.concatenate(times), np.concatenate(states)) if record else None
    return _Runs(reward=reward, jumps=jumps, cp_states=cp_states,
                 cp_rewards=cp_rewards, occupation=occupation, path=path)


def simulate_path(model, f, x0, horizon: float, seed: int,
                  checkpoints=None, cp_fn=None,
                  max_jumps: int | None = None) -> PathRecorder:
    """Simulate one trajectory (replication 0) under a stationary policy.

    Dispatches on the model type: tabulated CTMDP instances take a
    `StationaryPolicy`; the continuous-state redistribution process takes
    a `PotlachPolicy`. `cp_fn(state, reward_so_far)` gives the value at
    each checkpoint <= horizon (default: the state index, or the weight
    of the redistribution process).
    """
    cps = np.asarray(checkpoints if checkpoints is not None else [],
                     dtype=np.float64)
    runs = _run(_chain(model, f), x0, horizon, 1, seed, cps, record=True,
                max_jumps=max_jumps)
    times, states = runs.path
    reached = int(np.searchsorted(cps, horizon, side="right"))
    cp_states = runs.cp_states[0, :reached]
    if isinstance(model, PotlachProcess):
        actions = [f] * len(states)
        values = cp_states.sum(axis=-1)
    else:
        actions = [model.actions[s][f[s]] for s in states.tolist()]
        values = (np.array([cp_fn(s, ri) for s, ri in zip(
            cp_states.tolist(), runs.cp_rewards[0, :reached].tolist())])
            if cp_fn else cp_states.astype(np.float64))
    return PathRecorder(times=times, states=states, actions=actions,
                        horizon=horizon, reward_integral=float(runs.reward[0]),
                        checkpoint_times=cps, checkpoint_values=values)


@dataclass
class SimulationReport:
    values: np.ndarray           # per-replication time-averaged reward
    mean: float
    se: float
    occupation: np.ndarray       # pooled visit-time fractions
    horizon: float
    reps: int
    rng: dict
    jumps: np.ndarray            # per-replication jump counts

    def to_dict(self) -> dict:
        return {"values": self.values.tolist(), "mean": self.mean,
                "se": self.se, "occupation": self.occupation.tolist(),
                "horizon": self.horizon, "reps": self.reps, "rng": self.rng,
                "jumps": self.jumps.tolist()}


def estimate_average_reward(model: CtmdpModel, f: StationaryPolicy, x0: int,
                            horizon: float, reps: int,
                            seed: int) -> SimulationReport:
    """Monte Carlo estimate of the long-run average reward under f."""
    runs = _run(_PolicyChain(model, f), x0, horizon, reps, seed)
    values = runs.reward / horizon
    se = float(values.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return SimulationReport(values=values, mean=float(values.mean()), se=se,
                            occupation=runs.occupation / runs.occupation.sum(),
                            horizon=horizon, reps=reps, rng=rng_info(seed),
                            jumps=runs.jumps)


@dataclass
class CheckpointReport:
    checkpoints: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    bounds: np.ndarray
    passed: bool
    rng: dict
    jumps: np.ndarray            # per-replication jump counts
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"checkpoints": self.checkpoints.tolist(),
                "means": self.means.tolist(), "ses": self.ses.tolist(),
                "bounds": self.bounds.tolist(), "passed": self.passed,
                "rng": self.rng, "jumps": self.jumps.tolist(),
                "detail": self.detail}


def _checkpoint_run(model, f, x0, checkpoints, reps, seed) -> _Runs:
    """Replications run just past the last checkpoint."""
    checkpoints = np.asarray(checkpoints, dtype=np.float64)
    horizon = float(checkpoints[-1]) * (1 + 1e-12)
    return _run(_chain(model, f), x0, horizon, reps, seed, checkpoints)


def _checkpoint_samples(model, f, x0, checkpoints, reps, seed, value_fn):
    """value_fn(states) at the checkpoint times, (reps, C); value_fn None
    gives the weight of the redistribution process."""
    states = _checkpoint_run(model, f, x0, checkpoints, reps, seed).cp_states
    return states.sum(axis=-1) if value_fn is None else value_fn(states)


def check_lyapunov_bound(model, f, x0, checkpoints, reps: int,
                         seed: int) -> CheckpointReport:
    """Empirical check of E w(x(t)) <= exp(-c t) w(x0) + b/c at checkpoints."""
    if isinstance(model, PotlachProcess):
        w0 = model.weight(x0)
        c, b = model.drift_constant, 0.0
        weight = lambda states: states.sum(axis=-1)
    else:
        if model.lyapunov is None:
            raise ModelError("model carries no Lyapunov data")
        w0 = model.lyapunov.w[int(x0)]
        c, b = model.lyapunov.c, model.lyapunov.b
        weight = model.lyapunov.w.take
    runs = _checkpoint_run(model, f, x0, checkpoints, reps, seed)
    samples = weight(runs.cp_states)
    checkpoints = np.asarray(checkpoints, dtype=np.float64)
    means = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    bounds = np.exp(-c * checkpoints) * w0 + b / c
    passed = bool(np.all(means <= bounds + 3.0 * ses))
    return CheckpointReport(checkpoints=checkpoints, means=means, ses=ses,
                            bounds=bounds, passed=passed, rng=rng_info(seed),
                            jumps=runs.jumps,
                            detail={"c": c, "b": b, "w_x0": float(w0)})


@dataclass
class ErgodicityReport:
    checkpoints: np.ndarray
    diffs: dict                  # probe index -> per-start mean |E u - mu(u)|
    rho_hat: float | None
    R_hat: float | None
    empirical: bool
    flagged: bool
    rng: dict

    def to_dict(self) -> dict:
        return {"checkpoints": self.checkpoints.tolist(),
                "diffs": {str(k): v.tolist() for k, v in self.diffs.items()},
                "rho_hat": self.rho_hat, "R_hat": self.R_hat,
                "empirical": self.empirical, "flagged": self.flagged,
                "rng": self.rng}


def estimate_ergodicity(model: CtmdpModel, f: StationaryPolicy, probes,
                        x0_pair, checkpoints, reps: int,
                        seed: int) -> ErgodicityReport:
    """Empirical decay rate of |E_x u(x(t)) - mu_f(u)| for probe functions.

    mu_f is estimated from the pooled occupation measure of a long run;
    the decay exponent is fit by least squares on the log gaps above the
    two-standard-error noise floor. Reported values carry an explicit
    empirical flag; nothing here is a proof.
    """
    checkpoints = np.asarray(checkpoints, dtype=np.float64)
    occ = estimate_average_reward(model, f, int(x0_pair[0]),
                                  horizon=float(checkpoints[-1]) * 10,
                                  reps=4, seed=seed + 1).occupation
    diffs = {}
    pts, vals = [], []
    for pi, u in enumerate(probes):
        u = np.asarray(u, dtype=np.float64)
        mu_u = float(occ @ u)
        per_start = []
        for x0 in x0_pair:
            samples = _checkpoint_samples(model, f, int(x0), checkpoints,
                                          reps, seed, lambda s: u[s])
            means = samples.mean(axis=0)
            ses = samples.std(axis=0, ddof=1) / np.sqrt(reps)
            gap = np.abs(means - mu_u)
            per_start.append(gap)
            keep = gap > 2.0 * ses
            pts.extend(checkpoints[keep].tolist())
            vals.extend(np.log(gap[keep]).tolist())
        diffs[pi] = np.stack(per_start)
    if len(pts) >= 2 and np.ptp(pts) > 0:
        slope, intercept = np.polyfit(pts, vals, 1)
        rho_hat = float(-slope)
        R_hat = float(np.exp(intercept))
        flagged = rho_hat <= 0
    else:
        rho_hat, R_hat, flagged = None, None, True
    return ErgodicityReport(checkpoints=checkpoints, diffs=diffs,
                            rho_hat=rho_hat, R_hat=R_hat, empirical=True,
                            flagged=flagged, rng=rng_info(seed))
