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

Jump choice by rank. The cuts of a tabulated chain are the distinct
normalized running sums of all its states (1 in a state that does not
move, whose jumps stay put). Once per block each draw u is ranked by p =
the number of cuts below u. A running sum c is below u exactly when fewer
than p cuts are below c, so the rule above selects the first target of x
whose running sum ranks >= p. The chain keys each stored entry of its
rows, and a sentinel x at 1 closing row x, by x * width + rank in one
sorted array: a jump is the target of the first key >= x * width + p,
found by binary search, or by one gather from a table of every (x, p)
built once per chain (Chen and Asau 1974) where n * width is at most
JUMP_TABLE_CELLS. The ranks lie in 0..B-1 for the B = width - 1 cuts, as
u < 1, the last cut. Where that table fits, a second one, composed from
it once per chain, gives the state after k jumps for every x and run of
k ranks read as one base-B number c: k is the largest power of two up to
FIRST_BLOCK with n * B**k at most JUMP_TABLE_CELLS. A block then takes
one gather per k jumps and fills the k - 1 states inside every group with
k - 1 one-step gathers over the whole block; a block whose length is not
a multiple of k takes one jump per gather. Memory is linear in the
stored entries, the tables aside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discounted import check_positive
from .families import PotlachPolicy, PotlachProcess
from .model import (CtmdpModel, ModelError, NumericError, Report,
                    StationaryPolicy, _run_sums, is_integer)

RNG_FAMILY = "numpy.random.Philox"
RNG_DRAWS = ("blocks k = 0, 1, ... of min(16 * 2**k, 1024) draws: "
             "standard_exponential (holding time E / q(x)), random (jump "
             "choice), then for the redistribution process "
             "standard_exponential (mass factor E / lambda)")
FIRST_BLOCK, LAST_BLOCK = 16, 1024
GROUP_CELLS = 1 << 15        # replications x block length stepped at once
JUMP_TABLE_CELLS = 1 << 20   # states x (cuts + 1) of the jump table, at most
MAX_JUMPS = 10 ** 8
DEFAULT_CHECKPOINTS = tuple(np.geomspace(0.25, 16.0, 8))


@dataclass(eq=False)
class SimulationError(NumericError):
    """Explosion suspected: the per-path jump-count guard was exceeded.
    `last_state` is a state index, or the redistribution process's masses."""

    replication: int
    jumps: int
    time: float
    last_state: object


def stream(seed: int, rep: int) -> np.random.Generator:
    """Replication RNG: Philox keyed by (seed, rep)."""
    if not is_integer(seed) or not 0 <= seed < 2 ** 64:
        raise ModelError(f"seed must be in [0, 2**64), got {seed}",
                         field="seed")
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(rep)))


def rng_info(seed: int) -> dict:
    return {"family": RNG_FAMILY, "seed": int(seed),
            "derivation": "key = (seed << 64) + replication_index",
            "draws": RNG_DRAWS}


# -- the two jump chains: start states, one block of jumps, per-state rates --

class _PolicyChain:
    """Embedded chain of a tabulated model under a stationary policy: the
    off-diagonal entries of its rows in (state, target) order, each row
    closed by a sentinel for the state itself at running sum 1 (a row that
    does not move keeps only its sentinel). to[e] is entry e's target times
    `width`, key[e] = x * width + the rank of its normalized running sum,
    and `next` tabulates the first entry of row x ranked >= p for every
    (x, p), unless that takes more than JUMP_TABLE_CELLS cells. Then
    next_k[x * stride + c] is the target after the k jumps whose ranks
    read c in base B, times stride = B**k; next_k is next, and stride is
    width, for k = 1."""

    n_draws = 2

    def __init__(self, model: CtmdpModel, f: StationaryPolicy):
        if not isinstance(model, CtmdpModel):
            raise ModelError(f"{type(model).__name__} is not a CtmdpModel; "
                             f"the redistribution process supports "
                             f"check_lyapunov_bound (simulate --mode "
                             f"lyapunov) only")
        model.check_policy(f)
        self.model = model
        n = self.n = model.n
        pairs = model.kernel.starts + f.choice
        x_of, ys, rates = model.entries_of(pairs)
        off = ys != x_of
        x_of, ys, rates = x_of[off], ys[off], rates[off]
        # each row's entries, then its sentinel, at rate 0 in the sums
        size = np.bincount(x_of, minlength=n) + 1
        last = np.cumsum(size) - 1
        rows = np.arange(n).repeat(size)
        at = np.arange(len(ys)) + x_of
        to, run = rows.copy(), np.zeros(len(rows))
        to[at], run[at] = ys, rates
        _run_sums(run, size, -0.0)
        self.rate = run[last]
        self.reward = model.r[pairs]
        moves = self.rate > 0
        run /= np.where(moves, self.rate, 1.0)[rows]
        run[last] = 1.0
        keep = moves[rows] | (to == rows)     # rows that move, sentinels
        rows, to, run = rows[keep], to[keep], run[keep]
        self.cuts = np.unique(run)
        W = self.width = len(self.cuts) + 1
        self.to = to * W
        self.key = rows * W + self.cuts.searchsorted(run)
        self.k, self.stride = 1, W
        if n * W > JUMP_TABLE_CELLS:
            self.next = self.next_k = None
            return
        # the first entry of row x ranked >= p follows every entry keyed
        # below x * W + p; p = W - 1 (u above every cut, never drawn) would
        # read the next row's first entry: x's own sentinel instead
        first = np.bincount(self.key + 1, minlength=n * W)
        np.cumsum(first, out=first)
        first[W - 1::W] -= 1
        self.next = self.next_k = self.to[first]
        B = W - 1
        while (2 * self.k <= FIRST_BLOCK
               and n * B ** (2 * self.k) <= JUMP_TABLE_CELLS):
            self.k *= 2
        if self.k == 1:
            return
        # the states after each run of k ranks, the first rank outermost
        ends = np.arange(0, n * W, W)[:, None]
        for _ in range(self.k):
            ends = self.next.take(ends[..., None] + np.arange(B)).reshape(n, -1)
        self.stride = B ** self.k
        self.next_k = (ends // W * self.stride).ravel()

    def start(self, x0, reps: int) -> np.ndarray:
        return np.full(reps, self.model.check_state(x0), dtype=np.int64)

    def walk(self, x, draws) -> np.ndarray:
        """States before and after each jump of a block, (G, L + 1)."""
        L, W = draws.shape[2], self.width
        k, stride, table = self.k, self.stride, self.next_k
        if L % k:
            k, stride, table = 1, W, self.next
        lookup = (table.take if table is not None else
                  lambda xWp: self.to.take(self.key.searchsorted(xWp)))
        # p = the cuts below u, and c = each group of k ranks read as one
        # base-B number: the state after the group is entry x * stride + c
        # of the table, or for k = 1 without one the target of the first
        # key >= x * W + p
        p = self.cuts.searchsorted(draws[1]).T
        B = len(self.cuts)
        c = B ** np.arange(k - 1, -1, -1) @ p.reshape(L // k, k, -1)
        S = np.empty((L + 1, len(x)), dtype=np.int64)
        ends = S[::k]
        xs = ends[0] = x * stride
        for j, cj in enumerate(c):
            xs = ends[j + 1] = lookup(xs + cj)
        ends //= stride
        # then the k - 1 states inside every group, one jump at a time
        for i in range(1, k):
            S[i::k] = self.next.take(S[i - 1:-1:k] * W + p[i - 1::k]) // W
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
        proc.check_policy(policy)
        self.proc, self.policy = proc, policy

    def start(self, x0, reps: int) -> np.ndarray:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (self.proc.d,):
            raise ModelError(f"x0 must list {self.proc.d} masses, got "
                             f"{x0.tolist()}", field="x0")
        if not np.all((x0 >= 0) & (x0 < np.inf)):
            raise ModelError(f"x0 masses must be finite and non-negative, "
                             f"got {x0.tolist()}", field="x0")
        return np.tile(x0, (reps, 1))

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


@dataclass
class _Runs:
    """Per-replication results of one stepper call."""

    reward: np.ndarray           # reward integral over [0, horizon]
    jumps: np.ndarray            # jumps taken before the horizon
    cp_states: np.ndarray        # (reps, C[, d]) state at each checkpoint
    cp_rewards: np.ndarray       # (reps, C) reward integral up to each
                                 # (both unset past the horizon)
    occupation: np.ndarray       # time per state, pooled (tabulated chains)


def _checkpoint_times(checkpoints) -> np.ndarray:
    """The checkpoint times as an array, unless they are not finite,
    non-negative and non-decreasing: then ModelError."""
    cps = np.asarray(checkpoints, dtype=np.float64)
    if not np.all((np.diff(cps, prepend=0.0) >= 0) & (cps < np.inf)):
        raise ModelError(f"checkpoints must be finite, non-negative and "
                         f"non-decreasing, got {cps.tolist()}",
                         field="checkpoints")
    return cps


def _run(chain, x0, horizon: float, reps: int, seed: int,
         checkpoints=()) -> _Runs:
    """The stepper: `reps` replications from x0 over [0, horizon].

    A checkpoint t is read in the segment between jump times t_j < t <=
    t_{j+1} (the first segment for t = 0, the last one ends at the
    horizon): its state, and the reward integral up to t.
    """
    if not is_integer(reps):
        raise ModelError(f"reps must be an integer, got {reps}", field="reps")
    cps = _checkpoint_times(checkpoints)
    C = len(cps)
    x = chain.start(x0, reps)
    t, reward = np.zeros(reps), np.zeros(reps)
    jumps, cp_count = np.zeros(reps, np.int64), np.zeros(reps, np.int64)
    cp_states = np.zeros((reps, C) + x.shape[1:], dtype=x.dtype)
    cp_rewards = np.zeros((reps, C))
    occupation = np.zeros(chain.n)
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
            over = jumps[idx] + m > MAX_JUMPS
            if over.any():
                row = int(np.argmax(over))
                j = MAX_JUMPS - int(jumps[idx[row]]) + 1
                raise SimulationError(
                    f"jump-count guard ({MAX_JUMPS}) exceeded in replication "
                    f"{int(idx[row])} at time {T[row, j]!r}; drift "
                    f"condition likely violated", replication=int(idx[row]),
                    jumps=MAX_JUMPS + 1, time=float(T[row, j]),
                    last_state=S[row, j].tolist())
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
            jumps[idx] += m
            reward[idx] = R[:, L]
            t[idx], x[idx] = T[:, L], S[:, L]
            going.append(idx[m == L])
            for rep in idx[m < L].tolist():
                del gens[rep]
        live = np.concatenate(going)
        k += 1
    return _Runs(reward=reward, jumps=jumps, cp_states=cp_states,
                 cp_rewards=cp_rewards, occupation=occupation)


@dataclass
class SimulationReport(Report):
    values: np.ndarray           # per-replication time-averaged reward
    mean: float
    se: float
    occupation: np.ndarray       # pooled visit-time fractions
    horizon: float
    reps: int
    rng: dict
    jumps: np.ndarray            # per-replication jump counts


def estimate_average_reward(model: CtmdpModel, f: StationaryPolicy, x0: int,
                            horizon: float, reps: int,
                            seed: int) -> SimulationReport:
    """Monte Carlo estimate of the long-run average reward under f."""
    check_positive(horizon=horizon, reps=reps)
    runs = _run(_PolicyChain(model, f), x0, horizon, reps, seed)
    values = runs.reward / horizon
    se = float(values.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return SimulationReport(values=values, mean=float(values.mean()), se=se,
                            occupation=runs.occupation / runs.occupation.sum(),
                            horizon=horizon, reps=reps, rng=rng_info(seed),
                            jumps=runs.jumps)


@dataclass
class CheckpointReport(Report):
    checkpoints: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    bounds: np.ndarray
    passed: bool
    rng: dict
    jumps: np.ndarray            # per-replication jump counts
    detail: dict = field(default_factory=dict)


def check_replications(reps: int) -> None:
    """ModelError unless reps >= 2, as a standard error needs."""
    if reps < 2:
        raise ModelError(f"reps must be at least 2, got {reps}", field="reps")


def _checkpoint_run(chain, x0, checkpoints, reps, seed) -> _Runs:
    """Replications run just past the last checkpoint."""
    if not len(checkpoints):
        raise ModelError("checkpoints must list at least one time, got []",
                         field="checkpoints")
    horizon = float(checkpoints[-1]) * (1 + 1e-12)
    return _run(chain, x0, horizon, reps, seed, checkpoints)


def check_lyapunov_bound(model, f, x0, checkpoints, reps: int,
                         seed: int) -> CheckpointReport:
    """Empirical check of E w(x(t)) <= exp(-c t) w(x0) + b/c at checkpoints."""
    check_replications(reps)
    if isinstance(model, PotlachProcess):
        c, b = model.drift_constant, 0.0
        weight = lambda states: states.sum(axis=-1)
        chain = _RedistributionChain(model, f)
    else:
        if model.lyapunov is None:
            raise ModelError("model carries no Lyapunov data")
        c, b = model.lyapunov.c, model.lyapunov.b
        weight = model.lyapunov.w.take
        chain = _PolicyChain(model, f)
    w0 = float(weight(chain.start(x0, 1))[0])
    runs = _checkpoint_run(chain, x0, checkpoints, reps, seed)
    samples = weight(runs.cp_states)
    checkpoints = np.asarray(checkpoints, dtype=np.float64)
    means = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    bounds = np.exp(-c * checkpoints) * w0 + b / c
    passed = bool(np.all(means <= bounds + 3.0 * ses))
    return CheckpointReport(checkpoints=checkpoints, means=means, ses=ses,
                            bounds=bounds, passed=passed, rng=rng_info(seed),
                            jumps=runs.jumps,
                            detail={"c": c, "b": b, "w_x0": w0})


@dataclass
class ErgodicityReport(Report):
    checkpoints: np.ndarray
    diffs: dict                  # probe index -> per-start mean |E u - mu(u)|
    rho_hat: float | None
    R_hat: float | None
    empirical: bool
    flagged: bool
    rng: dict


def estimate_ergodicity(model: CtmdpModel, f: StationaryPolicy, probes,
                        x0_pair, checkpoints, reps: int,
                        seed: int) -> ErgodicityReport:
    """Empirical decay rate of |E_x u(x(t)) - mu_f(u)| for probe functions.

    mu_f is estimated from the pooled occupation measure of a long run;
    the decay exponent is fit by least squares on the log gaps above the
    two-standard-error noise floor. Reported values carry an explicit
    empirical flag; nothing here is a proof.
    """
    check_replications(reps)
    chain = _PolicyChain(model, f)
    checkpoints = _checkpoint_times(checkpoints)
    if not (len(checkpoints) and checkpoints[-1] > 0):
        raise ModelError(f"checkpoints must end with a time > 0, got "
                         f"{checkpoints.tolist()}", field="checkpoints")
    for x0, name in zip(x0_pair, ("x0", "x0b")):
        model.check_state(x0, name)
    states = [_checkpoint_run(chain, x0, checkpoints, reps, seed).cp_states
              for x0 in x0_pair]
    occ = _run(chain, x0_pair[0], float(checkpoints[-1]) * 10, 4,
               (seed + 1) % 2 ** 64).occupation
    occ = occ / occ.sum()
    diffs = {}
    pts, vals = [], []
    for pi, u in enumerate(probes):
        u = np.asarray(u, dtype=np.float64)
        mu_u = float(occ @ u)
        per_start = []
        for cp_states in states:
            samples = u[cp_states]
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
        rho_hat, R_hat = float(-slope), float(np.exp(intercept))
        flagged = rho_hat <= 0
    else:
        rho_hat, R_hat, flagged = None, None, True
    return ErgodicityReport(checkpoints=checkpoints, diffs=diffs,
                            rho_hat=rho_hat, R_hat=R_hat, empirical=True,
                            flagged=flagged, rng=rng_info(seed))
