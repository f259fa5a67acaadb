"""JSON model files and deterministic report serialization.

A model file is either {"kind": "explicit", ...} with the full tables or
{"kind": "builtin", "name": ..., "params": {...}} naming a packaged
family. Reports are serialized with sorted keys and shortest round-trip
floats (format 6), so identical runs produce byte-identical output and
every float reads back to the same value.

An explicit file's rate and reward tables are read in bulk: the x, a and
value columns of all records at once, each value converted inside its
column as `model.typed` converts it. When a column does not convert, an
(x, a) is out of range, or a record repeats a target, the records are
checked one at a time in file order and the first fault is raised.
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


def _rate_record(rec: dict, where: str) -> None:
    """Raise the first fault of the entries of the rate record `where`, if
    any: the entries in order, a repeated target at its repeat."""
    seen = set()
    for j, entry in enumerate(_need(rec, "entries", where, list)):
        if type(entry) is not list or len(entry) != 2:
            raise ModelError(f"{where}.entries[{j}] is not a [y, rate] pair")
        at = f"{where}.entries[{j}]"
        y = typed(entry[0], int, f"{at}[0]")
        typed(entry[1], float, f"{at}[1]")
        if y in seen:
            raise ModelError(f"duplicate target {y} at {where}")
        seen.add(y)


def _reward_record(rec: dict, where: str) -> None:
    """Raise the fault of the reward of the record `where`, if any."""
    _need(rec, "r", where, float)


def _field(recs: list, name: str) -> list:
    """The field `name` of each record, None where it is absent."""
    return list(map(dict.get, recs, itertools.repeat(name)))


def _column(values: list, kind) -> np.ndarray:
    """The JSON values `values` as one float64 (`kind` float) or int64
    (`kind` int) array, each converted as `typed` converts it (ModelError
    if one does not), or an object array of ints if one is beyond int64."""
    if not set(map(type, values)) <= {kind}:
        values = [v if type(v) is kind else typed(v, kind, "")
                  for v in values]
    try:
        return np.array(values, dtype=np.float64 if kind is float
                        else np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _pairs(recs: list, starts: np.ndarray) -> np.ndarray:
    """The pair starts[x] + a of each record; ModelError unless every x
    and a converts and (x, a) is in range (OverflowError if one is beyond
    int64)."""
    x, a = (np.asarray(_column(_field(recs, name), int), dtype=np.int64)
            for name in "xa")
    inside = (x >= 0) & (x < len(starts) - 1)
    inside[inside] = (a[inside] >= 0) & (a[inside]
                                         < np.diff(starts)[x[inside]])
    if not inside.all():
        raise ModelError("(x, a) out of range")
    return starts[x] + a


def _entry_table(rows: list) -> tuple:
    """(lengths, targets, rates) of the entry lists `rows` as arrays, the
    entries flattened and converted by `_column`; ModelError unless every
    entry is a [y, rate] list whose y and rate convert."""
    flat = list(itertools.chain.from_iterable(typed(rows, [list], "")))
    if not set(map(len, typed(flat, [list], ""))) <= {2}:
        raise ModelError("not a [y, rate] pair")
    both = list(itertools.chain.from_iterable(flat))
    return (np.array(list(map(len, rows)), dtype=np.int64),
            _column(both[0::2], int), _column(both[1::2], float))


def _first_fault(recs: list, key: str, check, counts: list):
    """Raise the first fault of the records doc[key] in file order: in
    each record its x, a, the range of (x, a), then what `check` finds."""
    for i, rec in enumerate(recs):
        where = f"{key}[{i}]"
        x, a = _need(rec, "x", where, int), _need(rec, "a", where, int)
        if not (0 <= x < len(counts) and 0 <= a < counts[x]):
            raise ModelError(f"(x, a) out of range at {where}")
        check(rec, where)
    raise AssertionError(f"no record of {key} has the bulk read's fault")


def _last_records(pairs: np.ndarray, starts: np.ndarray, what: str):
    """The record that each pair takes, its last one; ModelError naming
    the first pair without one."""
    rec = np.full(starts[-1], -1)
    np.maximum.at(rec, pairs, np.arange(len(pairs)))
    if (rec < 0).any():
        p = int(np.argmax(rec < 0))
        x = int(np.searchsorted(starts, p, side="right")) - 1
        raise ModelError(f"no {what} supplied for ({x}, {p - starts[x]})")
    return rec


def _rate_kernel(doc: dict, counts: list, starts: np.ndarray) -> RateKernel:
    """The kernel of the rate records: each pair's row from its last
    record, the diagonal completed if absent so that the row is
    conservative: minus the record's rates added left to right in file
    order from 0 (`sum` adds floats with compensation from Python 3.12
    on, which changes the last bits)."""
    recs = _need(doc, "rates", kind=[dict])
    try:
        pairs = _pairs(recs, starts)
        lengths, ys, rates = _entry_table(_field(recs, "entries"))
    except (ModelError, OverflowError):
        _first_fault(recs, "rates", _rate_record, counts)
    m = len(lengths)
    end = np.cumsum(lengths)
    rec = np.repeat(np.arange(m), lengths)
    # one stable sort of the entries by (record, target): a repeated
    # target follows the entry it repeats, and each record's entries come
    # in CSR order
    lo, span = (int(ys.min()), int(ys.max()) - int(ys.min()) + 1) \
        if len(ys) else (0, 1)
    order = (np.argsort(rec * span + (ys - lo), kind="stable")
             if m * span < 2 ** 62 else np.lexsort((ys, rec)))
    if ((ys[order[1:]] == ys[order[:-1]])
            & (rec[order[1:]] == rec[order[:-1]])).any():
        _first_fault(recs, "rates", _rate_record, counts)
    row = _last_records(pairs, starts, "rate row")
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
    starts = np.array(list(itertools.accumulate(counts, initial=0)))
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
    recs = _need(doc, "rewards", kind=[dict])
    try:
        pairs, r = _pairs(recs, starts), _column(_field(recs, "r"), float)
    except (ModelError, OverflowError):
        _first_fault(recs, "rewards", _reward_record, counts)
    r = r[_last_records(pairs, starts, "reward")]

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
