"""Core data types for CTMDP instances on finite state spaces.

A model is the tuple (actions, rate kernel, reward per pair) plus
optional state labels, truncation level and Lyapunov weight data; the
kernel's action counts are the one record of the states. The rates are
stored once, as one CSR matrix over the (state, action) pairs with the
diagonal entry included, and the actions and rewards once each, as
arrays over the same pairs (every action a vector of the same k
numbers). Every solver and check reads these and the per-pair arrays
(state, action and exit rate of each pair) that the model lays out
once, at construction. All operations here are pure functions of their
inputs and models are treated as immutable once validated.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

ROW_SUM_TOL = 1e-12


class ModelError(ValueError):
    """Structurally malformed model input (bad index, shape, or sign).
    `field`, if given, names the argument at fault, and the message
    starts with it."""

    def __init__(self, message, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


_JSON_TYPES = {float: "a number", int: "an integer", str: "a string",
               list: "a list", dict: "an object"}


def _is_kind(value, kind) -> bool:
    """Whether `value` is of `kind` exactly, level by level of a nested
    list kind, so that `typed` has nothing to convert."""
    values = [value]
    while isinstance(kind, list):
        if not set(map(type, values)) <= {list}:
            return False
        values = list(itertools.chain.from_iterable(values))
        kind = kind[0]
    return set(map(type, values)) <= {kind}


def typed(value, kind, where: str):
    """`value`, as read from JSON, checked against `kind`: float, int (an
    integral number), str, list, dict, or [k] for a list of k. Bools are
    never numbers. Raises ModelError naming `where` on a mismatch."""
    if isinstance(kind, list):
        if _is_kind(value, kind):                    # nothing to convert
            return value
        items = typed(value, list, where)
        return [typed(v, kind[0], f"{where}[{i}]")
                for i, v in enumerate(items)]
    if type(value) is kind:
        return value
    if (kind is float and type(value) is int
            and abs(value) <= sys.float_info.max
            or kind is int and type(value) is float and value.is_integer()):
        return kind(value)
    raise ModelError(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")


def is_integer(value) -> bool:
    """Whether `value` is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class RateKernel:
    """Sparse transition-rate rows q(.|x,a), diagonal entry included, as
    one CSR matrix `Q` over the (state, action) pairs: row starts[x] + a
    holds the entries of (x, a), sorted by target state so that sparse dot
    products have a fixed summation order. `row` and `rows` return views
    of it. CtmdpModel range-checks the targets.
    """

    def __init__(self, counts, lengths, targets, rates):
        """State x has counts[x] actions, pair p (state-major order)
        lengths[p] entries, and targets/rates hold the entries of all pairs
        in pair order (any order within a pair)."""
        self.counts = np.asarray(counts, dtype=np.int64)   # actions per state
        self.starts = np.cumsum(self.counts) - self.counts
        n = len(counts)
        pair = np.repeat(np.arange(len(lengths)), lengths)
        ys = np.asarray(targets, dtype=np.int64)
        # one stable sort by (pair, target) on the int64 key pair * (2B + 1)
        # + target + B; targets beyond +-B (where CtmdpModel rejects any
        # outside 0..n-1) tie at +-B, so the key of a pair never reaches
        # into the next one
        bound = 2 ** 61 // max(len(lengths), 1)
        order = np.argsort(pair * (2 * bound + 1) + np.clip(ys, -bound, bound)
                           + bound, kind="stable")
        ys = ys[order]
        dup = (ys[1:] == ys[:-1]) & (pair[1:] == pair[:-1])
        if dup.any():
            x = self.state_of(pair[np.argmax(dup)])
            raise ModelError(f"duplicate target in rate row ({x})")
        self.Q = sp.csr_matrix(
            (np.asarray(rates, dtype=np.float64)[order], ys,
             np.concatenate(([0], np.cumsum(lengths)))),
            shape=(len(lengths), n))
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


def _pair_field():
    """A field that `_flatten` sets: not an __init__ parameter, and left
    out of repr and equality."""
    return field(init=False, repr=False, compare=False)


@dataclass
class CtmdpModel:
    """A full CTMDP instance; immutable by convention after validation.

    Construction checks the structure, then lays the (state, action) pairs
    out once (`_flatten`): pair p = kernel.starts[x] + a is row p of
    kernel.Q and of `actions`, and `r` and the per-pair arrays below are
    indexed by it. kernel.counts holds the number of actions of each state,
    and its length is the number of states n. `labels` (one per state, a
    scalar label read as a 1-tuple) and `truncation_level` are optional.
    """

    actions: np.ndarray = field(compare=False)  # (n_pairs, k) action vectors
    kernel: RateKernel
    r: np.ndarray = field(compare=False)       # reward rate per pair
    lyapunov: Optional[LyapunovData] = None
    labels: Optional[tuple] = None             # e.g. queue lengths
    truncation_level: Optional[int] = None
    n_pairs: int = _pair_field()
    x_of_pair: np.ndarray = _pair_field()      # state index of each pair
    a_of_pair: np.ndarray = _pair_field()      # action index within the state
    pair_of_entry: np.ndarray = _pair_field()  # pair of each stored Q entry
    exit: np.ndarray = _pair_field()           # exit rate per pair
    qmax: np.ndarray = _pair_field()           # q(x) per state

    def __post_init__(self):
        kernel = self.kernel
        n = len(kernel.counts)
        if n < 1:
            raise ModelError("state space must contain at least one state")
        if self.labels is not None:
            labels = self.labels = tuple(
                tuple(lab) if isinstance(lab, (list, tuple)) else (lab,)
                for lab in self.labels)
            if len(labels) != n:
                raise ModelError("label count does not match state count")
            if len(set(labels)) != n:
                raise ModelError("state labels must be pairwise distinct")
        n_pairs = kernel.Q.shape[0]
        try:
            acts = self.actions = np.asarray(self.actions, dtype=np.float64)
        except ValueError:
            raise ModelError("actions must all have one length") from None
        if acts.ndim != 2 or len(acts) != n_pairs:
            raise ModelError(f"action count mismatch: actions has shape "
                             f"{acts.shape} for {n_pairs} (state, action) "
                             f"pairs")
        # equal actions have equal bits once -0.0 is +0.0 (a NaN equals a
        # NaN of its bits); sorted by state, then bits, equal actions of a
        # state are adjacent
        x_of = np.repeat(np.arange(n), kernel.counts)
        bits = (acts + 0.0).view(np.int64)
        order = np.lexsort((*bits.T, x_of))
        x_of, bits = x_of[order], bits[order]
        dup = (x_of[1:] == x_of[:-1]) & (bits[1:] == bits[:-1]).all(axis=1)
        bad = np.append(x_of[1:][dup], np.flatnonzero(kernel.counts == 0))
        if len(bad):
            x = int(bad.min())
            raise ModelError(f"state {x} has " + ("duplicate actions" if
                             kernel.counts[x] else "an empty action set"))
        off = np.flatnonzero((kernel.indices < 0) | (kernel.indices >= n))
        if len(off):
            p = int(np.searchsorted(kernel.indptr, off[0], side="right")) - 1
            x = kernel.state_of(p)
            raise ModelError(f"rate target out of range at "
                             f"({x},{p - int(kernel.starts[x])})")
        self.r = np.asarray(self.r, dtype=np.float64)
        if self.r.shape != (n_pairs,):
            raise ModelError(f"reward count mismatch: r has shape "
                             f"{self.r.shape} for {n_pairs} (state, action) "
                             f"pairs")
        if self.lyapunov is not None and len(self.lyapunov.w) != n:
            raise ModelError("Lyapunov weight length mismatch")
        _flatten(self)

    @property
    def n(self) -> int:
        return len(self.kernel.counts)

    def weights(self) -> np.ndarray:
        """Lyapunov weight vector, defaulting to all-ones."""
        if self.lyapunov is not None:
            return self.lyapunov.w
        return np.ones(self.n)

    def check_policy(self, f: StationaryPolicy):
        if len(f) != self.n:
            raise ModelError("policy length does not match the state count")
        bad = np.flatnonzero((f.choice < 0) | (f.choice >= self.kernel.counts))
        if len(bad):
            raise ModelError(f"policy action index out of range at state "
                             f"{bad[0]}")

    def check_values(self, u, field: str = "u") -> np.ndarray:
        """u as a float array of shape (n,), else ModelError naming `field`."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n,):
            raise ModelError(f"{field} must hold one value per state "
                             f"({self.n}), got shape {u.shape}", field=field)
        return u

    def check_state(self, x, field: str = "x0") -> int:
        """x as an int, unless it is not a state index: then ModelError
        naming `field`."""
        if not is_integer(x) or not 0 <= x < self.n:
            raise ModelError(f"{field} must be in 0..{self.n - 1}, got {x}",
                             field=field)
        return int(x)

    def entries_of(self, pairs):
        """(i, target, rate) of each stored entry of row pairs[i] of
        kernel.Q, for distinct pairs, in storage order."""
        row = np.full(self.n_pairs, -1)
        row[pairs] = np.arange(len(pairs))
        row = row[self.pair_of_entry]
        keep = row >= 0
        return row[keep], self.kernel.indices[keep], self.kernel.data[keep]

    def dense_rows(self, pairs) -> np.ndarray:
        """Rows `pairs` of kernel.Q as a dense array, filled by assignment
        (so a stored -0.0 survives)."""
        dense = np.zeros((len(pairs), self.n))
        i, ys, rates = self.entries_of(pairs)
        dense[i, ys] = rates
        return dense


def _flatten(model: CtmdpModel) -> None:
    """Set the per-pair arrays of `model` from its kernel."""
    kernel = model.kernel
    Q, starts = kernel.Q, kernel.starts
    n_pairs, n = Q.shape
    x_of = np.repeat(np.arange(n), kernel.counts)
    pair_of_entry = np.repeat(np.arange(n_pairs), np.diff(Q.indptr))
    diag = Q.indices == x_of[pair_of_entry]
    # -0.0 where a row has no diagonal entry, as RateKernel.exit_rate gives
    ex = np.full(n_pairs, -0.0)
    ex[pair_of_entry[diag]] = -Q.data[diag]
    model.n_pairs, model.x_of_pair = n_pairs, x_of
    model.a_of_pair = np.arange(n_pairs) - starts[x_of]
    model.pair_of_entry, model.exit = pair_of_entry, ex
    # q(x) = max(0, exit rates of x), NaN if any is NaN
    model.qmax = np.maximum(np.maximum.reduceat(ex, starts), 0.0)


def plain(value):
    """`value` as JSON data: a numpy array or scalar by one `tolist()`, a
    StationaryPolicy as its action list, an object with `to_dict` as that
    dict, a dict (keys as strings), list or tuple item by item, and None,
    a string or a number as it is. Anything else raises TypeError."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, StationaryPolicy):
        return value.choice.tolist()
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(plain, value))
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"cannot write a {type(value).__name__} as JSON data")


class Report:
    """A result dataclass whose fields are its report keys."""

    def to_dict(self) -> dict:
        return plain({f.name: getattr(self, f.name) for f in fields(self)})


@dataclass(eq=False)
class NumericError(Report, RuntimeError):
    """A numeric failure: the solver, the oracle or the simulator could not
    finish. A subclass's fields, `message` included, are its report keys."""

    message: str

    def __post_init__(self):
        RuntimeError.__init__(self, self.message)


@dataclass
class ValidationReport(Report):
    ok: bool
    violations: list


def validate_model(model: CtmdpModel) -> ValidationReport:
    """Check the transition-rate sign/conservation primitives and bounds.

    Violations are collected and reported rather than raised; only
    structurally malformed input is a hard error (raised at construction).
    They come in state order; within a state, each action's bad entries
    in target order, then its row sum and its reward, and after the last
    action the state's stable_rates. reward_weight_bound comes last.
    """
    kernel, x_of = model.kernel, model.x_of_pair
    pair, ys, rates = model.pair_of_entry, kernel.indices, kernel.data
    finite, diag = np.isfinite(rates), ys == x_of[pair]
    found = []           # (pair, step, entry, check, y, slack), scan order
    for check, mask, slack in (
            ("finite_rate", ~finite, None),
            ("offdiagonal_nonnegative", finite & ~diag & (rates < 0), rates),
            ("diagonal_nonpositive", finite & diag & (rates > 0), -rates)):
        found += [(int(pair[e]), 0, e, check, int(ys[e]),
                   None if slack is None else float(slack[e]))
                  for e in np.flatnonzero(mask).tolist()]
    # a CSR matvec adds each row from 0.0 in target order
    row_sum = np.abs(kernel.Q @ np.ones(model.n))
    found += [(p, 1, 0, "row_sum_zero", None, float(row_sum[p] - ROW_SUM_TOL))
              for p in np.flatnonzero(row_sum > ROW_SUM_TOL).tolist()]
    found += [(p, 2, 0, "finite_reward", None, None)
              for p in np.flatnonzero(~np.isfinite(model.r)).tolist()]
    last = np.cumsum(kernel.counts) - 1          # last pair of each state
    found += [(int(last[x]), 3, 0, "stable_rates", None, None)
              for x in np.unique(x_of[~np.isfinite(model.exit)]).tolist()]
    found.sort(key=lambda rec: rec[:3])

    lyap = model.lyapunov
    if lyap is not None:
        rr = np.abs(model.r)
        bound = lyap.M * lyap.w[x_of]
        found += [(p, 4, 0, "reward_weight_bound", None,
                   float(bound[p] - rr[p]))
                  for p in np.flatnonzero(rr > bound).tolist()]

    violations = [{"check": check, "x": int(x_of[p]),
                   "a": (None if check == "stable_rates"
                         else int(model.a_of_pair[p])),
                   "y": y, "slack": slack}
                  for p, _, _, check, y, slack in found]
    return ValidationReport(ok=not violations, violations=violations)


def require_valid(model: CtmdpModel) -> None:
    """ModelError, with the validation report, unless `model` validates."""
    rep = validate_model(model)
    if not rep.ok:
        raise ModelError("model fails validation: "
                         + json.dumps(rep.to_dict(), sort_keys=True))


def weighted_norm(u, w) -> float:
    """max_x |u(x)| / w(x)."""
    u = np.asarray(u, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 1.0):
        raise ModelError("weight vector must satisfy w(x) >= 1")
    return float(np.max(np.abs(u) / w))


@dataclass(frozen=True)
class CountableFamily:
    """Description of a countable-state model, supplied on arrays.

    Labels are integer tuples of length `dim`. `actions(label)` lists the
    actions of one state, each a tuple of k numbers. The other callbacks
    take P (state, action) pairs at once, as an int array X (P, dim) of
    labels and a float array A (P, k) of actions. `entries(X, A)` returns
    `(targets (P, K, dim), rates (P, K), present (P, K))`: the off-diagonal
    rate mass of the raw (untruncated) model, pair p's entries being the
    present slots of row p in slot order; the diagonal is completed during
    truncation. `reward(X, A)` returns the (P,) reward rates.
    """

    dim: int
    actions: Callable[[tuple], Sequence[tuple]]
    entries: Callable[[np.ndarray, np.ndarray], tuple]
    reward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lyapunov: Optional[Callable] = None   # labels -> LyapunovData


def pairs(family: CountableFamily, labels) -> tuple:
    """(counts, X, A) of `labels` under `family`: the number of actions of
    each state, and the pairs in state-major order, X (P, dim) their labels
    and A (P, k) their actions."""
    lists = [family.actions(lab) for lab in labels]
    counts = list(map(len, lists))
    X = np.repeat(np.array(labels, dtype=np.int64).reshape(len(labels), -1),
                  counts, axis=0)
    # one array per distinct (shared) action list
    blocks = {id(acts): acts for acts in lists if len(acts)}
    try:
        blocks = {i: np.array(a, dtype=np.float64) for i, a in blocks.items()}
        A = [blocks[id(acts)] for acts in lists if len(acts)]
        return counts, X, np.concatenate(A) if A else np.empty((0, 0))
    except ValueError:
        k = np.size(next(a for acts in lists for a in acts))
        for x, acts in enumerate(lists):
            if any(np.size(a) != k for a in acts):
                raise ModelError(f"state {labels[x]}: every action must "
                                 f"have length {k}, as the first") from None
        raise


def truncate(family: CountableFamily, N: int) -> CtmdpModel:
    """Truncate a countable model at level N with boundary redirection.

    `entries` and `reward` are called once, on all (state, action) pairs of
    the grid {0..N}^dim in state-major order. Rate mass aimed beyond the
    boundary is clamped componentwise onto it; clamped self-loops are
    dropped and the diagonal recomputed so every row sums to zero exactly.
    The rates of one target of a pair add up in entry order, and the
    diagonal is minus their sequential sum in order of first appearance
    (+0.0 for a row without off-diagonal mass).
    """
    labels = list(itertools.product(range(N + 1), repeat=family.dim))
    counts, X, A = pairs(family, labels)
    targets, rates, present = family.entries(X, A)
    present = np.asarray(present, dtype=bool)
    pair = np.nonzero(present)[0]           # pair of each entry, entry order
    coords = np.asarray(targets, dtype=np.int64)[present]
    rates = np.asarray(rates, dtype=np.float64)[present]
    negative = np.flatnonzero((coords < 0).any(axis=1))
    if len(negative):
        k = int(negative[0])
        raise ModelError(f"negative target {tuple(coords[k].tolist())} "
                         f"from {tuple(X[pair[k]].tolist())}")
    # target index: mixed radix of the itertools.product grid
    key = np.ravel_multi_index(np.minimum(coords, N).T, (N + 1,) * family.dim)
    x_of = np.repeat(np.arange(len(labels)), counts)         # state of a pair
    keep = key != x_of[pair]                # clamped self-loops are dropped
    kernel = _merged_kernel(counts, x_of, key[keep] + pair[keep] * len(labels),
                            rates[keep])
    lyap = family.lyapunov(labels) if family.lyapunov is not None else None
    return CtmdpModel(actions=A, kernel=kernel, r=family.reward(X, A),
                      lyapunov=lyap, labels=labels, truncation_level=N)


def _merged_kernel(counts, x_of, key, rate) -> RateKernel:
    """Kernel of the off-diagonal entries key[k] = pair * n + target with
    rates rate[k], k in entry order: duplicate targets of a pair summed in
    entry order from 0.0, and a diagonal entry added to each pair."""
    n_pairs, n = len(x_of), len(counts)
    # equal keys in runs, each run in entry order
    order = np.argsort(key, kind="stable")
    key, rate = key[order], rate[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    head = np.flatnonzero(new)
    first = order[head]                   # first entry of each merged key
    del order, new
    end = np.append(head, len(key))[1:]
    merged = _run_sums(rate, end - head, 0.0)[end - 1]
    del rate
    key = key[head]
    owner = key // n                      # pair of each merged entry
    size = np.bincount(owner, minlength=n_pairs)
    # the diagonal adds each pair's merged rates in order of first appearance
    end = np.cumsum(size)
    total = _run_sums(merged[np.argsort(first)], size, 0.0)
    del first
    # each pair's merged entries, then its diagonal
    targets = np.empty(len(key) + n_pairs, dtype=np.int64)
    values = np.zeros(len(key) + n_pairs)
    at = np.arange(len(key)) + owner
    targets[at], values[at] = key - owner * n, merged
    at = end + np.arange(n_pairs)
    targets[at], values[at[size > 0]] = x_of, -total[end[size > 0] - 1]
    del key, merged, owner, total, head
    return RateKernel(counts, size + 1, targets, values)


def _run_sums(values, size, zero) -> np.ndarray:
    """`values`, in place, as running sums within consecutive runs of
    lengths `size`, each added one value at a time from `zero`: -0.0 adds
    as np.cumsum does (-0.0 + v is v), 0.0 as a CSR matvec does.
    np.add.reduceat does not add sequentially, so its rounding differs."""
    start = np.cumsum(size) - size
    values[start[size > 0]] += zero
    live, t = np.flatnonzero(size > 1), 1
    while len(live):
        i = start[live] + t
        values[i] += values[i - 1]
        t += 1
        live = live[size[live] > t]
    return values


def boundary_states(model: CtmdpModel) -> np.ndarray:
    """Indices whose rows were distorted by truncation (any coordinate at N)."""
    N = model.truncation_level
    if N is None or model.labels is None:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero((np.array(model.labels) == N).any(axis=1))
