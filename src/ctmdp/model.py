"""Core data types for CTMDP instances on finite state spaces.

A model is the tuple (states, per-state action sets, rate kernel, reward
table) plus optional Lyapunov weight data. Rate rows are stored sparsely
per (state, action) with the diagonal entry included; all operations here
are pure functions of their inputs and models are treated as immutable
once validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

ROW_SUM_TOL = 1e-12


class ModelError(ValueError):
    """Structurally malformed model input (bad index, shape, or sign)."""


@dataclass(frozen=True)
class StateSpace:
    """Finite index set 0..size-1, optionally labelled (e.g. queue lengths)."""

    size: int
    labels: Optional[tuple] = None
    truncation_level: Optional[int] = None

    def __post_init__(self):
        if self.size < 1:
            raise ModelError("state space must contain at least one state")
        if self.labels is not None:
            labels = tuple(tuple(lab) if isinstance(lab, (list, tuple)) else (lab,)
                           for lab in self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.size:
                raise ModelError("label count does not match state count")
            if len(set(labels)) != self.size:
                raise ModelError("state labels must be pairwise distinct")

    @property
    def dim(self) -> int:
        if self.labels is None:
            return 1
        return len(self.labels[0])


@dataclass(frozen=True)
class ActionSets:
    """Per-state finite action sets; each action is a tuple of parameters."""

    sets: tuple
    grid_meta: Optional[dict] = None

    def __post_init__(self):
        sets = tuple(tuple(tuple(float(v) for v in a) for a in acts)
                     for acts in self.sets)
        object.__setattr__(self, "sets", sets)
        for x, acts in enumerate(sets):
            if len(acts) == 0:
                raise ModelError(f"state {x} has an empty action set")
            if len(set(acts)) != len(acts):
                raise ModelError(f"state {x} has duplicate actions")

    def __len__(self):
        return len(self.sets)

    def __getitem__(self, x):
        return self.sets[x]

    def n_actions(self, x: int) -> int:
        return len(self.sets[x])


class RateKernel:
    """Sparse transition-rate rows q(.|x,a), diagonal entry included.

    Entries for each (x, a) are kept sorted by target state so that sparse
    dot products have a fixed summation order.
    """

    def __init__(self, rows):
        # rows: rows[x][a] = sequence of (target, rate) pairs
        self.rows = []
        for x, per_state in enumerate(rows):
            acts = []
            for entries in per_state:
                if len(entries) == 0:
                    ys = np.empty(0, dtype=np.int64)
                    rates = np.empty(0, dtype=np.float64)
                else:
                    pairs = sorted((int(y), float(r)) for y, r in entries)
                    ys = np.array([p[0] for p in pairs], dtype=np.int64)
                    rates = np.array([p[1] for p in pairs], dtype=np.float64)
                    if len(set(ys.tolist())) != len(ys):
                        raise ModelError(f"duplicate target in rate row ({x})")
                acts.append((ys, rates))
            self.rows.append(acts)

    def row(self, x: int, a: int):
        """Sorted (targets, rates) arrays for the row of (x, a)."""
        return self.rows[x][a]

    def rate(self, y: int, x: int, a: int) -> float:
        ys, rates = self.rows[x][a]
        i = np.searchsorted(ys, y)
        if i < len(ys) and ys[i] == y:
            return float(rates[i])
        return 0.0

    def exit_rate(self, x: int, a: int) -> float:
        """-q({x}|x,a), the total jump rate out of x under action a."""
        return -self.rate(x, x, a)

    def q_max(self, x: int) -> float:
        """q(x) = max over actions of the exit rate at x; NaN if any is."""
        return float(np.max([self.exit_rate(x, a)
                             for a in range(len(self.rows[x]))]))


@dataclass(frozen=True)
class RewardTable:
    """Reward rates r(x, a); signed, units reward per unit time."""

    table: tuple  # table[x] = tuple of rewards over the actions of x

    def __post_init__(self):
        table = tuple(tuple(float(r) for r in per_state) for per_state in self.table)
        object.__setattr__(self, "table", table)

    def __getitem__(self, x):
        return self.table[x]

    def rate(self, x: int, a: int) -> float:
        return self.table[x][a]


@dataclass(frozen=True)
class LyapunovData:
    """Weight vectors and constants for the drift and bound conditions."""

    w: np.ndarray
    c: float
    b: float
    M: float
    M_q: float
    wprime: Optional[np.ndarray] = None
    cprime: Optional[float] = None
    bprime: Optional[float] = None
    Mprime: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        if self.wprime is not None:
            object.__setattr__(self, "wprime",
                               np.asarray(self.wprime, dtype=np.float64))
        if np.any(self.w < 1.0):
            raise ModelError("Lyapunov weight w must satisfy w(x) >= 1")
        if not self.c > 0:
            raise ModelError("drift constant c must be positive")
        if self.b < 0:
            raise ModelError("drift offset b must be nonnegative")
        if not self.M > 0:
            raise ModelError("reward bound M must be positive")
        if not self.M_q > 0:
            raise ModelError("rate bound M_q must be positive")
        if self.wprime is not None:
            if np.any(self.wprime < 0):
                raise ModelError("secondary weight w' must be nonnegative")
            if self.cprime is None or not self.cprime > 0:
                raise ModelError("growth constant c' must be positive")
            if self.bprime is None or self.bprime < 0:
                raise ModelError("growth offset b' must be nonnegative")
            if self.Mprime is None or not self.Mprime > 0:
                raise ModelError("bound M' must be positive")


@dataclass(frozen=True)
class StationaryPolicy:
    """Deterministic stationary policy: per-state chosen action index."""

    choice: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "choice",
                           np.asarray(self.choice, dtype=np.int64))

    def __getitem__(self, x):
        return int(self.choice[x])

    def __len__(self):
        return len(self.choice)


@dataclass
class FlatModel:
    """Flattened (state, action) pair view used by the solvers."""

    n: int
    n_pairs: int
    x_of_pair: np.ndarray      # state index of each pair
    a_of_pair: np.ndarray      # action index within the state
    starts: np.ndarray         # first pair index of each state
    Q: sp.csr_matrix           # n_pairs x n sparse rate rows (diagonal included)
    r: np.ndarray              # reward per pair
    exit: np.ndarray           # exit rate per pair
    qmax: np.ndarray           # q(x) per state

    def pair_index(self, x: int, a: int) -> int:
        return int(self.starts[x]) + a


@dataclass
class CtmdpModel:
    """A full CTMDP instance; immutable by convention after validation."""

    states: StateSpace
    actions: ActionSets
    kernel: RateKernel
    rewards: RewardTable
    lyapunov: Optional[LyapunovData] = None
    provenance: str = "explicit"
    _flat: Optional[FlatModel] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.states.size
        if len(self.actions) != n or len(self.kernel.rows) != n \
                or len(self.rewards.table) != n:
            raise ModelError("component tables disagree on the state count")
        for x in range(n):
            na = self.actions.n_actions(x)
            if len(self.kernel.rows[x]) != na or len(self.rewards[x]) != na:
                raise ModelError(f"action count mismatch at state {x}")
            for a in range(na):
                ys, _ = self.kernel.row(x, a)
                if len(ys) and (ys[0] < 0 or ys[-1] >= n):
                    raise ModelError(f"rate target out of range at ({x},{a})")
        if self.lyapunov is not None and len(self.lyapunov.w) != n:
            raise ModelError("Lyapunov weight length mismatch")

    @property
    def n(self) -> int:
        return self.states.size

    def n_actions(self, x: int) -> int:
        return self.actions.n_actions(x)

    def weights(self) -> np.ndarray:
        """Lyapunov weight vector, defaulting to all-ones."""
        if self.lyapunov is not None:
            return self.lyapunov.w
        return np.ones(self.n)

    def check_policy(self, f: StationaryPolicy):
        if len(f) != self.n:
            raise ModelError("policy length does not match the state count")
        for x in range(self.n):
            if not 0 <= f[x] < self.n_actions(x):
                raise ModelError(f"policy action index out of range at state {x}")

    def flat(self) -> FlatModel:
        if self._flat is None:
            self._flat = _flatten(self)
        return self._flat


def _flatten(model: CtmdpModel) -> FlatModel:
    n = model.n
    counts = np.array([model.n_actions(x) for x in range(n)], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    n_pairs = int(counts.sum())
    x_of = np.repeat(np.arange(n), counts)
    a_of = np.concatenate([np.arange(c) for c in counts])
    rows = [row for per_state in model.kernel.rows for row in per_state]
    indptr = np.cumsum([0] + [len(ys) for ys, _ in rows])
    Q = sp.csr_matrix((np.concatenate([rates for _, rates in rows]),
                       np.concatenate([ys for ys, _ in rows]), indptr),
                      shape=(n_pairs, n))
    r = np.array([rr for per_state in model.rewards.table for rr in per_state])
    # -0.0 where a row has no diagonal entry, as RateKernel.exit_rate gives
    ex = -Q[np.arange(n_pairs), x_of].A1
    qmax = np.zeros(n)
    np.maximum.at(qmax, x_of, ex)
    return FlatModel(n=n, n_pairs=n_pairs, x_of_pair=x_of, a_of_pair=a_of,
                     starts=starts, Q=Q, r=r, exit=ex, qmax=qmax)


@dataclass
class ValidationReport:
    ok: bool
    violations: list

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": self.violations}


def validate_model(model: CtmdpModel) -> ValidationReport:
    """Check the transition-rate sign/conservation primitives and bounds.

    Violations are collected and reported rather than raised; only
    structurally malformed input is a hard error (raised at construction).
    """
    flat = model.flat()
    violations = []

    def bad(name, x=None, a=None, y=None, slack=None):
        violations.append({"check": name, "x": x, "a": a, "y": y,
                           "slack": None if slack is None else float(slack)})

    # scan only states with a bad entry (which a non-finite q(x) needs),
    # row sum (CSR matvec sums left to right from 0.0, as the scan) or reward
    entry_x = np.repeat(flat.x_of_pair, np.diff(flat.Q.indptr))
    vals = flat.Q.data
    bad_entry = ~np.isfinite(vals) | np.where(flat.Q.indices == entry_x,
                                              vals > 0, vals < 0)
    bad_pair = ((np.abs(flat.Q @ np.ones(flat.n)) > ROW_SUM_TOL)
                | ~np.isfinite(flat.r))
    for x in np.union1d(entry_x[bad_entry], flat.x_of_pair[bad_pair]).tolist():
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
        if not np.all(np.isfinite(
                flat.exit[flat.starts[x]:flat.starts[x] + model.n_actions(x)])):
            bad("stable_rates", x)

    lyap = model.lyapunov
    if lyap is not None:
        rr = np.abs(flat.r)
        bound = lyap.M * lyap.w[flat.x_of_pair]
        for p in np.flatnonzero(rr > bound).tolist():
            bad("reward_weight_bound", int(flat.x_of_pair[p]),
                int(flat.a_of_pair[p]), slack=bound[p] - rr[p])

    return ValidationReport(ok=not violations, violations=violations)


def generator_apply(model: CtmdpModel, u, x: int, a: int) -> float:
    """Sum_y u(y) q(y|x,a), the generator applied to u at (x, a).

    Summation runs over the sparse row in ascending target order so the
    result is reproducible bit for bit.
    """
    u = np.asarray(u, dtype=np.float64)
    ys, rates = model.kernel.row(x, a)
    total = 0.0
    for y, rate in zip(ys.tolist(), rates.tolist()):
        total += u[y] * rate
    return total


def weighted_norm(u, w) -> float:
    """max_x |u(x)| / w(x)."""
    u = np.asarray(u, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 1.0):
        raise ModelError("weight vector must satisfy w(x) >= 1")
    return float(np.max(np.abs(u) / w))


@dataclass(frozen=True)
class CountableFamily:
    """Description of a countable-state model, supplied row by row.

    `entries(label, action)` yields the off-diagonal rate mass of the raw
    (untruncated) model; the diagonal is completed during truncation.
    Labels are integer tuples of length `dim`.
    """

    dim: int
    actions: Callable[[tuple], Sequence[tuple]]
    entries: Callable[[tuple, tuple], Sequence]
    reward: Callable[[tuple, tuple], float]
    name: str
    params: dict = field(default_factory=dict)
    lyapunov: Optional[Callable] = None   # labels -> LyapunovData
    grid_meta: Optional[dict] = None
    min_level: int = 1


def truncate(family: CountableFamily, N: int) -> CtmdpModel:
    """Truncate a countable model at level N with boundary redirection.

    Rate mass aimed beyond the boundary is clamped componentwise onto it;
    clamped self-loops are dropped and the diagonal recomputed so every
    row sums to zero exactly.
    """
    if N < family.min_level:
        raise ModelError(f"truncation level {N} below the minimum "
                         f"{family.min_level} for family {family.name}")
    if family.dim == 1:
        labels = [(x,) for x in range(N + 1)]
    else:
        grids = np.meshgrid(*[np.arange(N + 1)] * family.dim, indexing="ij")
        labels = [tuple(int(g[idx]) for g in grids)
                  for idx in np.ndindex(*grids[0].shape)]
    index = {lab: i for i, lab in enumerate(labels)}

    action_sets, rate_rows, reward_rows = [], [], []
    for lab in labels:
        acts = [tuple(a) for a in family.actions(lab)]
        per_state_rows, per_state_rewards = [], []
        for a in acts:
            mass = {}
            for target, rate in family.entries(lab, a):
                clamped = tuple(min(int(t), N) for t in target)
                if any(t < 0 for t in clamped):
                    raise ModelError(f"negative target {target} from {lab}")
                if clamped == lab:
                    continue   # folded into the diagonal
                mass[index[clamped]] = mass.get(index[clamped], 0.0) + float(rate)
            diag = -sum(mass.values())
            mass[index[lab]] = diag
            per_state_rows.append(sorted(mass.items()))
            per_state_rewards.append(family.reward(lab, a))
        action_sets.append(acts)
        rate_rows.append(per_state_rows)
        reward_rows.append(per_state_rewards)

    lyap = family.lyapunov(labels) if family.lyapunov is not None else None
    return CtmdpModel(
        states=StateSpace(size=len(labels), labels=tuple(labels),
                          truncation_level=N),
        actions=ActionSets(sets=tuple(action_sets), grid_meta=family.grid_meta),
        kernel=RateKernel(rate_rows),
        rewards=RewardTable(table=tuple(reward_rows)),
        lyapunov=lyap,
        provenance=f"builtin:{family.name}:{family.params}",
    )


def boundary_states(model: CtmdpModel) -> np.ndarray:
    """Indices whose rows were distorted by truncation (any coordinate at N)."""
    N = model.states.truncation_level
    if N is None or model.states.labels is None:
        return np.empty(0, dtype=np.int64)
    return np.array([i for i, lab in enumerate(model.states.labels)
                     if any(t == N for t in lab)], dtype=np.int64)
