"""JSON model files and deterministic report serialization.

A model file is either {"kind": "explicit", ...} with the full tables or
{"kind": "builtin", "name": ..., "params": {...}} naming a packaged
family. Reports are serialized with sorted keys and shortest round-trip
floats (format 6), so identical runs produce byte-identical output and
every float reads back to the same value.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

from . import families
from .model import (CtmdpModel, LyapunovData, ModelError, RateKernel,
                    StationaryPolicy, _run_sums, plain, typed)

FORMAT_VERSION = "6"


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, shortest round-trip floats,
    NaN and +-Infinity spelled as in JavaScript, one trailing newline."""
    return json.dumps(obj, sort_keys=True, default=plain) + "\n"


def _need(doc: dict, key: str, where: str = "", kind=None,
          required: bool = True):
    """doc[key] of the object `doc` at `where`, of JSON type `kind` (see
    `model.typed`) if given; None if absent or null and not `required`."""
    if not required and doc.get(key) is None:
        return None
    if key in doc and (kind is None or type(doc[key]) is kind):
        return doc[key]
    path = f"{where}.{key}" if where else key
    if key not in doc:
        raise ModelError(f"missing field {path}")
    return typed(doc[key], kind, path)


def _rate_record(rec: dict, where: str, pair) -> tuple:
    """(x, a, entries) of the record `where` = rates[i] with every value
    converted to its exact type (an int rate, an integral-float x, ...),
    or ModelError at its first fault: x, a, `pair(x, a, where)`'s range
    check, then the entries in order, a repeated target at its repeat."""
    x, a = _need(rec, "x", where, int), _need(rec, "a", where, int)
    pair(x, a, where)
    row = {}
    for j, entry in enumerate(_need(rec, "entries", where, list)):
        if type(entry) is not list or len(entry) != 2:
            raise ModelError(f"{where}.entries[{j}] is not a [y, rate] pair")
        at = f"{where}.entries[{j}]"
        y, rate = typed(entry[0], int, f"{at}[0]"), typed(entry[1], float,
                                                           f"{at}[1]")
        if y in row:
            raise ModelError(f"duplicate target {y} at {where}")
        row[y] = rate
    return x, a, list(map(list, row.items()))


def _reward_record(rec: dict, where: str, pair) -> tuple:
    """(x, a, r) of the record `where` = rewards[i], converted as
    `_rate_record` converts a rate record."""
    x, a = _need(rec, "x", where, int), _need(rec, "a", where, int)
    pair(x, a, where)
    return x, a, _need(rec, "r", where, float)


def _exact_rate(rec: dict) -> bool:
    """Whether the rate record has every value of its exact type."""
    entries = rec.get("entries")
    return (type(rec.get("x")) is int and type(rec.get("a")) is int
            and type(entries) is list
            and all(type(e) is list and len(e) == 2 and type(e[0]) is int
                    and type(e[1]) is float for e in entries))


def _exact_reward(rec: dict) -> bool:
    """Whether the reward record has every value of its exact type."""
    return (type(rec.get("x")) is int and type(rec.get("a")) is int
            and type(rec.get("r")) is float)


def _all(values: list, kind) -> bool:
    """Whether every value is of type `kind` exactly."""
    return set(map(type, values)) <= {kind}


def _entry_table(rows: list):
    """(lengths, targets, rates) of the entry lists `rows` as arrays, the
    entries flattened; None unless every entry is a [y, rate] list of an
    int and a float."""
    if not _all(rows, list):
        return None
    flat = list(itertools.chain.from_iterable(rows))
    if not (_all(flat, list) and set(map(len, flat)) <= {2}):
        return None
    both = list(itertools.chain.from_iterable(flat))
    ys, rates = both[0::2], both[1::2]
    if not (_all(ys, int) and _all(rates, float)):
        return None
    return (np.array(list(map(len, rows)), dtype=np.int64),
            np.array(ys, dtype=np.int64), np.array(rates, dtype=np.float64))


def _reward_table(values: list):
    """The rewards `values` as an array; None unless every one is a float."""
    return np.array(values, dtype=np.float64) if _all(values, float) else None


class _Records:
    """The records doc[key] of one table (rates or rewards), read as
    columns: x and a, and `table`, `tabulate` of the values. When x, a or
    the values are not all of their exact types, each record that `exact`
    refuses goes through `convert`, in record order, which converts it or
    raises its first fault; the records from that one on are dropped, and
    the fault is kept, to be raised unless an earlier record has one.
    Records 0..m-1 have an (x, a) in range, and `pair` = starts[x] + a."""

    def __init__(self, doc: dict, key: str, value: str, tabulate, exact,
                 convert, starts: list):
        recs = _need(doc, key, kind=[dict])
        self.key, self.starts, self.fault = key, starts, None
        cols = [list(map(dict.get, recs, itertools.repeat(name)))
                for name in ("x", "a", value)]
        self.table = tabulate(cols[2])
        if self.table is None or not (_all(cols[0], int)
                                      and _all(cols[1], int)):
            for i, rec in enumerate(recs):
                if exact(rec):
                    continue
                try:
                    row = convert(rec, f"{key}[{i}]", self.check_pair)
                except ModelError as exc:
                    cols, self.fault = [c[:i] for c in cols], exc
                    break
                for col, v in zip(cols, row):
                    col[i] = v
            self.table = tabulate(cols[2])
        self.count = len(cols[0])
        starts = np.asarray(starts)
        try:
            x, a = (np.array(c, dtype=np.int64) for c in cols[:2])
        except OverflowError:          # beyond int64, so out of range
            self.m = next(i for i, (x, a) in enumerate(zip(*cols[:2]))
                          if not 0 <= x < len(starts) - 1
                          or not 0 <= a < starts[x + 1] - starts[x])
            x, a = (np.array(c[:self.m], dtype=np.int64) for c in cols[:2])
        else:
            inside = (x >= 0) & (x < len(starts) - 1)
            inside[inside] = (a[inside] >= 0) & (
                a[inside] < np.diff(starts)[x[inside]])
            self.m = len(x) if inside.all() else int(np.argmin(inside))
        self.pair = starts[x[:self.m]] + a[:self.m]

    def check_pair(self, x: int, a: int, where: str) -> None:
        starts = self.starts
        if not (0 <= x < len(starts) - 1
                and 0 <= a < starts[x + 1] - starts[x]):
            raise ModelError(f"(x, a) out of range at {where}")

    def rows(self, fault, what: str) -> np.ndarray:
        """The record that each pair takes, its last one, after raising the
        first fault in record order: `fault` (one of records 0..m-1, or
        None), record m's (x, a) out of range, the converter's fault, a
        pair without a record."""
        if fault is None and self.m < self.count:
            fault = ModelError(f"(x, a) out of range at {self.key}[{self.m}]")
        if fault is not None or self.fault is not None:
            raise fault or self.fault
        starts = np.asarray(self.starts)
        rec = np.full(starts[-1], -1)
        np.maximum.at(rec, self.pair, np.arange(self.m))
        if (rec < 0).any():
            p = int(np.argmax(rec < 0))
            x = int(np.searchsorted(starts, p, side="right")) - 1
            raise ModelError(f"no {what} supplied for ({x}, {p - starts[x]})")
        return rec


def _rate_kernel(doc: dict, counts: list, starts: list) -> RateKernel:
    """The kernel of the rate records: each pair's row from its last
    record, the diagonal completed if absent so that the row is
    conservative: minus the record's rates added left to right in file
    order from 0 (`sum` adds floats with compensation from Python 3.12
    on, which changes the last bits)."""
    recs = _Records(doc, "rates", "entries", _entry_table, _exact_rate,
                    _rate_record, starts)
    m = recs.m
    lengths = recs.table[0][:m]
    end = np.cumsum(lengths)
    ys, rates = (column[:int(lengths.sum())] for column in recs.table[1:])
    rec = np.repeat(np.arange(m), lengths)
    # one stable sort of the entries by (record, target): a repeated
    # target follows the entry it repeats, and each record's entries come
    # in CSR order
    lo, span = (int(ys.min()), int(ys.max()) - int(ys.min()) + 1) \
        if len(ys) else (0, 1)
    order = (np.argsort(rec * span + (ys - lo), kind="stable")
             if m * span < 2 ** 62 else np.lexsort((ys, rec)))
    again = order[1:][(ys[order[1:]] == ys[order[:-1]])
                      & (rec[order[1:]] == rec[order[:-1]])]
    fault = None
    if len(again):
        e = again.min()             # the first repeat in record order
        fault = ModelError(f"duplicate target {ys[e]} at rates[{rec[e]}]")
    row = recs.rows(fault, "rate row")
    filled = lengths > 0            # +0.0 for a record without entries
    fill = np.zeros(m)
    fill[filled] = -_run_sums(rates.copy(), lengths, 0.0)[end[filled] - 1]
    # each pair's record, in pair order
    size = lengths[row]
    at = np.cumsum(size) - size
    take = order[np.repeat((end - lengths)[row] - at, size)
                 + np.arange(size.sum())]
    ys, rates = ys[take], rates[take]
    pair = np.repeat(np.arange(len(row)), size)
    x = np.repeat(np.arange(len(counts)), counts)
    # the diagonal, where absent, after the targets below it
    lack = np.bincount(pair[ys == x[pair]], minlength=len(row)) == 0
    at = (at + np.bincount(pair[ys < x[pair]], minlength=len(row)))[lack]
    return RateKernel(counts, size + lack, np.insert(ys, at, x[lack]),
                      np.insert(rates, at, fill[row][lack]))


def _explicit_model(doc: dict) -> CtmdpModel:
    n = _need(doc, "states", kind=int)
    actions_doc = _need(doc, "actions", kind=[[[float]]])
    if len(actions_doc) != n:
        raise ModelError("'actions' length does not match 'states'")
    counts = list(map(len, actions_doc))
    starts = list(itertools.accumulate(counts, initial=0))
    flat = list(itertools.chain.from_iterable(actions_doc))
    k = len(flat[0]) if flat else 0
    if not set(map(len, flat)) <= {k}:
        x, a = next((x, a) for x, acts in enumerate(actions_doc)
                    for a, act in enumerate(acts) if len(act) != k)
        raise ModelError(
            f"actions[{x}][{a}] has {len(actions_doc[x][a])} numbers where "
            f"the first action has {k}: every action must have the same "
            f"length")
    actions = np.fromiter(itertools.chain.from_iterable(flat),
                          dtype=np.float64, count=len(flat) * k
                          ).reshape(len(flat), k)
    kernel = _rate_kernel(doc, counts, starts)
    rewards = _Records(doc, "rewards", "r", _reward_table, _exact_reward,
                       _reward_record, starts)
    r = rewards.table[rewards.rows(None, "reward")]

    ld = _need(doc, "lyapunov", kind=dict, required=False)
    get = functools.partial(_need, ld, where="lyapunov", kind=float)
    try:
        lyap = None if ld is None else LyapunovData(
            w=get("w", kind=[float]), c=get("c"), b=get("b"), M=get("M"),
            M_q=get("Mq"), wprime=get("wprime", kind=[float], required=False),
            cprime=get("cprime", required=False),
            bprime=get("bprime", required=False),
            Mprime=get("Mprime", required=False))
    except ModelError as exc:
        raise ModelError(f"bad 'lyapunov' block: {exc}") from exc

    labels = _need(doc, "labels", kind=list, required=False)
    try:
        return CtmdpModel(actions=actions, kernel=kernel, r=r,
                          lyapunov=lyap, labels=labels)
    except TypeError as exc:       # an unhashable label
        raise ModelError(f"bad 'labels': {exc}") from exc


def model_from_dict(doc: dict):
    """Build a model (or simulation process) from a parsed model document."""
    kind = _need(typed(doc, dict, "model document"), "kind")
    if kind == "explicit":
        return _explicit_model(doc)
    if kind == "builtin":
        return families.build(_need(doc, "name", kind=str),
                              doc.get("params", {}))
    raise ModelError(f"unknown model kind {kind!r}")


def model_to_dict(model: CtmdpModel) -> dict:
    """Explicit-form document for a tabulated model; round-trips exactly."""
    xs, acts = model.x_of_pair.tolist(), model.a_of_pair.tolist()
    cut = model.kernel.indptr.tolist()
    ys, vals = model.kernel.indices.tolist(), model.kernel.data.tolist()
    rates = [{"x": x, "a": a, "entries": list(map(list, zip(ys[lo:hi],
                                                            vals[lo:hi])))}
             for x, a, lo, hi in zip(xs, acts, cut, cut[1:])]
    rewards = [{"x": x, "a": a, "r": r}
               for x, a, r in zip(xs, acts, model.r.tolist())]
    actions = model.actions.tolist()
    doc = {"kind": "explicit", "states": model.n,
           "actions": [actions[s:s + c] for s, c in zip(
               model.kernel.starts.tolist(), model.kernel.counts.tolist())],
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


def policy_from_dict(doc, model: CtmdpModel) -> StationaryPolicy:
    """Policy document: either a plain index array or {"policy": [...]}"""
    if isinstance(doc, dict):
        doc = _need(doc, "policy")
    choice = typed(doc, [int], "policy")
    for x, a in enumerate(choice):
        if not 0 <= a < 2 ** 63:         # beyond int64 before check_policy
            raise ModelError(f"policy action index out of range at "
                             f"state {x}: {a}")
    f = StationaryPolicy(choice=np.array(choice, dtype=np.int64))
    model.check_policy(f)
    return f
