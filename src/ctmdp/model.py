"""Core data types for CTMDP instances on finite state spaces.

A model is the tuple (states, per-state action sets, rate kernel, reward
table) plus optional Lyapunov weight data. The rates are stored once, as
one CSR matrix over the (state, action) pairs with the diagonal entry
included; every solver and check reads that matrix. All operations here
are pure functions of their inputs and models are treated as immutable
once validated.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

ROW_SUM_TOL = 1e-12


class ModelError(ValueError):
    """Structurally malformed model input (bad index, shape, or sign)."""


_JSON_TYPES = {float: "a number", int: "an integer", str: "a string",
               list: "a list", dict: "an object"}


def typed(value, kind, where: str, error=ModelError):
    """`value`, as read from JSON, checked against `kind`: float, int (an
    integral number), str, list, dict, or [k] for a list of k. Bools are
    never numbers. Raises `error` naming `where` on a mismatch."""
    if isinstance(kind, list):
        items = typed(value, list, where, error)
        if all(type(v) is kind[0] for v in items):   # nothing to convert
            return items
        return [typed(v, kind[0], f"{where}[{i}]", error)
                for i, v in enumerate(items)]
    if type(value) is kind:
        return value
    if (kind is float and type(value) is int
            and abs(value) <= sys.float_info.max
            or kind is int and type(value) is float and value.is_integer()):
        return kind(value)
    raise error(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")


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

    def __post_init__(self):
        # a truncated family repeats one action list at many states: each
        # distinct list is converted and checked once and then shared, but
        # not a list holding a zero, since -0.0 == 0.0
        shared, sets = {}, []
        for x, acts in enumerate(self.sets):
            key = tuple(map(tuple, acts))
            converted = shared.get(key)
            if converted is None:
                converted = tuple(tuple(float(v) for v in a) for a in key)
                if len(converted) == 0:
                    raise ModelError(f"state {x} has an empty action set")
                if len(set(converted)) != len(converted):
                    raise ModelError(f"state {x} has duplicate actions")
                if 0 not in itertools.chain.from_iterable(converted):
                    shared[key] = converted
            sets.append(converted)
        object.__setattr__(self, "sets", tuple(sets))

    def __len__(self):
        return len(self.sets)

    def __getitem__(self, x):
        return self.sets[x]

    def n_actions(self, x: int) -> int:
        return len(self.sets[x])


class RateKernel:
    """Sparse transition-rate rows q(.|x,a), diagonal entry included, as
    one CSR matrix `Q` over the (state, action) pairs: row starts[x] + a
    holds the entries of (x, a), sorted by target state so that sparse dot
    products have a fixed summation order. `row` and `rows` return views
    of it. CtmdpModel range-checks the targets.
    """

    def __init__(self, rows):
        # rows: rows[x][a] = sequence of (target, rate) pairs
        pair_rows = [entries for per_state in rows for entries in per_state]
        self._store([len(per_state) for per_state in rows],
                    [len(entries) for entries in pair_rows],
                    [int(y) for entries in pair_rows for y, _ in entries],
                    [float(r) for entries in pair_rows for _, r in entries])

    @classmethod
    def from_pairs(cls, counts, lengths, targets, rates) -> "RateKernel":
        """Kernel from flat lists: state x has counts[x] actions, pair p
        (state-major order) lengths[p] entries, and targets/rates hold the
        entries of all pairs in pair order (any order within a pair)."""
        kernel = cls.__new__(cls)
        kernel._store(counts, lengths, targets, rates)
        return kernel

    def _store(self, counts, lengths, targets, rates):
        self.counts = np.asarray(counts, dtype=np.int64)   # actions per state
        self.starts = np.cumsum(self.counts) - self.counts
        pair = np.repeat(np.arange(len(lengths)), lengths)
        ys = np.asarray(targets, dtype=np.int64)
        order = np.lexsort((ys, pair))
        ys = ys[order]
        dup = (ys[1:] == ys[:-1]) & (pair[1:] == pair[:-1])
        if dup.any():
            x = self.state_of(pair[np.argmax(dup)])
            raise ModelError(f"duplicate target in rate row ({x})")
        self.Q = sp.csr_matrix(
            (np.asarray(rates, dtype=np.float64)[order], ys,
             np.concatenate(([0], np.cumsum(lengths)))),
            shape=(len(lengths), len(counts)))
        self.indptr, self.indices, self.data = self.Q.indptr, self.Q.indices, \
            self.Q.data

    def state_of(self, p: int) -> int:
        """State of pair p."""
        return int(np.searchsorted(self.starts, p, side="right")) - 1

    @property
    def rows(self) -> tuple:
        """rows[x][a] = row(x, a), built on each access."""
        cut = self.indptr[1:-1]
        pairs = list(zip(np.split(self.indices, cut), np.split(self.data, cut)))
        return tuple(tuple(pairs[s:s + c]) for s, c in
                     zip(self.starts.tolist(), self.counts.tolist()))

    def row(self, x: int, a: int):
        """Sorted (targets, rates) views of the row of (x, a)."""
        if not 0 <= a < self.counts[x]:
            raise IndexError(f"action {a} out of range at state {x}")
        p = self.starts[x] + a
        lo, hi = self.indptr[p], self.indptr[p + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def rate(self, y: int, x: int, a: int) -> float:
        ys, rates = self.row(x, a)
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
                             for a in range(self.counts[x])]))


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
    pair_of_entry: np.ndarray  # row of each stored entry of Q
    r: np.ndarray              # reward per pair
    exit: np.ndarray           # exit rate per pair
    qmax: np.ndarray           # q(x) per state

    def pair_index(self, x: int, a: int) -> int:
        return int(self.starts[x]) + a

    def entries_of(self, pairs):
        """(i, target, rate) of each stored entry of row pairs[i] of Q, for
        distinct pairs, in storage order."""
        row = np.full(self.n_pairs, -1)
        row[pairs] = np.arange(len(pairs))
        row = row[self.pair_of_entry]
        keep = row >= 0
        return row[keep], self.Q.indices[keep], self.Q.data[keep]

    def dense_rows(self, pairs) -> np.ndarray:
        """Rows `pairs` of Q as a dense array, filled by assignment (so a
        stored -0.0 survives)."""
        dense = np.zeros((len(pairs), self.n))
        i, ys, rates = self.entries_of(pairs)
        dense[i, ys] = rates
        return dense


@dataclass
class CtmdpModel:
    """A full CTMDP instance; immutable by convention after validation."""

    states: StateSpace
    actions: ActionSets
    kernel: RateKernel
    rewards: RewardTable
    lyapunov: Optional[LyapunovData] = None
    _flat: Optional[FlatModel] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.states.size
        kernel = self.kernel
        if len(self.actions) != n or len(kernel.counts) != n \
                or len(self.rewards.table) != n:
            raise ModelError("component tables disagree on the state count")
        # first offender in state order; at one state the count comes first
        na = [len(acts) for acts in self.actions.sets]
        count_bad = np.flatnonzero(
            (kernel.counts != na)
            | (np.array([len(rs) for rs in self.rewards.table]) != na))
        x_count = int(count_bad[0]) if len(count_bad) else n
        off = np.flatnonzero((kernel.indices < 0) | (kernel.indices >= n))
        if len(off):
            p = int(np.searchsorted(kernel.indptr, off[0], side="right")) - 1
            x = kernel.state_of(p)
            if x < x_count:
                raise ModelError(f"rate target out of range at "
                                 f"({x},{p - int(kernel.starts[x])})")
        if x_count < n:
            raise ModelError(f"action count mismatch at state {x_count}")
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
    kernel = model.kernel
    Q, starts = kernel.Q, kernel.starts
    n_pairs, n = Q.shape
    x_of = np.repeat(np.arange(n), kernel.counts)
    a_of = np.arange(n_pairs) - starts[x_of]
    r = np.array([rr for per_state in model.rewards.table for rr in per_state])
    pair_of_entry = np.repeat(np.arange(n_pairs), np.diff(Q.indptr))
    diag = Q.indices == x_of[pair_of_entry]
    # -0.0 where a row has no diagonal entry, as RateKernel.exit_rate gives
    ex = np.full(n_pairs, -0.0)
    ex[pair_of_entry[diag]] = -Q.data[diag]
    # q(x) = max(0, exit rates of x), NaN if any is NaN
    qmax = np.maximum(np.maximum.reduceat(ex, starts), 0.0)
    return FlatModel(n=n, n_pairs=n_pairs, x_of_pair=x_of, a_of_pair=a_of,
                     starts=starts, Q=Q, pair_of_entry=pair_of_entry, r=r,
                     exit=ex, qmax=qmax)


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
    entry_x = flat.x_of_pair[flat.pair_of_entry]
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
    lyapunov: Optional[Callable] = None   # labels -> LyapunovData


def truncate(family: CountableFamily, N: int) -> CtmdpModel:
    """Truncate a countable model at level N with boundary redirection.

    Rate mass aimed beyond the boundary is clamped componentwise onto it;
    clamped self-loops are dropped and the diagonal recomputed so every
    row sums to zero exactly. The callbacks' entries are collected flat
    and merged on arrays: the rates of one target of a pair add up in entry
    order, and the diagonal is minus their sequential sum in order of first
    appearance (+0.0 for a row without off-diagonal mass).
    """
    labels = list(itertools.product(range(N + 1), repeat=family.dim))
    action_sets, reward_rows = [], []
    coords, rates = [], array("d")   # all entries, in entry order
    ends = []                        # entry count after each pair
    for lab in labels:
        acts = [tuple(a) for a in family.actions(lab)]
        per_state_rewards = []
        for a in acts:
            for target, rate in family.entries(lab, a):
                coords.extend(target)
                rates.append(rate)
            ends.append(len(rates))
            per_state_rewards.append(family.reward(lab, a))
        action_sets.append(acts)
        reward_rows.append(per_state_rewards)

    clamped = np.minimum(np.asarray(coords, dtype=np.int64)
                         .reshape(len(rates), family.dim), N)
    del coords     # free the Python entry list before the array temporaries
    counts = [len(acts) for acts in action_sets]
    x_of = np.repeat(np.arange(len(labels)), counts)         # state of a pair
    negative = np.flatnonzero((clamped < 0).any(axis=1))
    if len(negative):
        k = int(negative[0])
        p = int(np.searchsorted(ends, k, side="right"))
        x = int(x_of[p])
        a = action_sets[x][p - int(np.searchsorted(x_of, x))]
        # the offending target as the (pure) callback gave it
        target, _ = list(family.entries(labels[x], a))[
            k - (ends[p - 1] if p else 0)]
        raise ModelError(f"negative target {target} from {labels[x]}")
    # target index: mixed radix of the itertools.product grid
    key = clamped[:, 0].copy()
    for column in clamped.T[1:]:
        key *= N + 1
        key += column
    del clamped
    pair = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    keep = key != x_of[pair]                # clamped self-loops are dropped
    key += pair * len(labels)               # key = pair * n + target
    del pair
    key, rates = key[keep], np.frombuffer(rates, dtype=np.float64)[keep]
    del keep
    kernel = _merged_kernel(counts, x_of, key, rates)
    lyap = family.lyapunov(labels) if family.lyapunov is not None else None
    return CtmdpModel(
        states=StateSpace(size=len(labels), labels=tuple(labels),
                          truncation_level=N),
        actions=ActionSets(sets=tuple(action_sets)),
        kernel=kernel,
        rewards=RewardTable(table=tuple(reward_rows)),
        lyapunov=lyap,
    )


def _merged_kernel(counts, x_of, key, rate) -> RateKernel:
    """Kernel of the off-diagonal entries key[k] = pair * n + target with
    rates rate[k], k in entry order: duplicate targets of a pair summed in
    entry order from 0.0, and a diagonal entry added to each pair."""
    n_pairs, n = len(x_of), len(counts)
    key, first, slot = np.unique(key, return_index=True, return_inverse=True)
    merged = np.zeros(len(key))
    np.add.at(merged, slot, rate)
    del slot
    owner = key // n                      # pair of each merged entry
    size = np.bincount(owner, minlength=n_pairs)
    # the diagonal adds each pair's merged rates one at a time, in order of
    # first appearance (np.add.reduceat does not add sequentially, so its
    # rounding differs)
    ordered = merged[np.argsort(first)]   # pair by pair
    del first
    end = np.cumsum(size)
    at = end - size
    total = np.zeros(n_pairs)
    live = np.flatnonzero(size)
    while len(live):
        total[live] += ordered[at[live]]
        at[live] += 1
        live = live[at[live] < end[live]]
    del ordered
    # each pair's merged entries, then its diagonal
    targets = np.empty(len(key) + n_pairs, dtype=np.int64)
    values = np.empty(len(key) + n_pairs)
    at = np.arange(len(key)) + owner
    targets[at], values[at] = key - owner * n, merged
    del key, merged, owner
    at = end + np.arange(n_pairs)
    targets[at], values[at] = x_of, np.where(size > 0, -total, 0.0)
    return RateKernel.from_pairs(counts, size + 1, targets, values)


def boundary_states(model: CtmdpModel) -> np.ndarray:
    """Indices whose rows were distorted by truncation (any coordinate at N)."""
    N = model.states.truncation_level
    if N is None or model.states.labels is None:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero((np.array(model.states.labels) == N).any(axis=1))
