"""JSON model files and deterministic report serialization.

A model file is either {"kind": "explicit", ...} with the full tables or
{"kind": "builtin", "name": ..., "params": {...}} naming a packaged
family. Reports are serialized with sorted keys and shortest round-trip
floats (format 6), so identical runs produce byte-identical output and
every float reads back to the same value.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import operator

import numpy as np

from . import families
from .model import (CtmdpModel, LyapunovData, ModelError, RateKernel,
                    StationaryPolicy, plain, typed)

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


def _per_pair(doc: dict, key: str, starts: list, read, what: str) -> list:
    """read(rec, x, i) of each record rec = doc[key][i], in pair order: state
    x has the pairs starts[x] <= p < starts[x + 1]. Every (x, a) needs a
    record, and a later record of a pair replaces an earlier one. Paths
    are built for error messages only."""
    n = len(starts) - 1
    rows = [None] * starts[-1]
    for i, rec in enumerate(_need(doc, key, kind=[dict])):
        x, a = rec.get("x"), rec.get("a")
        if type(x) is not int or type(a) is not int:     # convert, or fail
            where = f"{key}[{i}]"
            x, a = _need(rec, "x", where, int), _need(rec, "a", where, int)
        if not (0 <= x < n and 0 <= a < starts[x + 1] - starts[x]):
            raise ModelError(f"(x, a) out of range at {key}[{i}]")
        rows[starts[x] + a] = read(rec, x, i)
    if None in rows:
        p = rows.index(None)
        x = bisect.bisect_right(starts, p) - 1
        raise ModelError(f"no {what} supplied for ({x}, {p - starts[x]})")
    return rows


def _rate_entries(rec: dict, x: int, i: int) -> dict:
    """target -> rate of the record rates[i] of state x, in file order, the
    diagonal completed if absent so that the row is conservative: minus
    the rates added left to right from 0 (`sum` adds floats with
    compensation from Python 3.12 on, which changes the last bits)."""
    entries = rec.get("entries")
    if type(entries) is not list:
        entries = _need(rec, "entries", f"rates[{i}]", list)
    row = {}
    for j, pair in enumerate(entries):
        if type(pair) is not list or len(pair) != 2:
            raise ModelError(
                f"rates[{i}].entries[{j}] is not a [y, rate] pair")
        y, rate = pair
        if type(y) is not int or type(rate) is not float:   # convert, or fail
            at = f"rates[{i}].entries[{j}]"
            y, rate = typed(y, int, f"{at}[0]"), typed(rate, float, f"{at}[1]")
        if y in row:
            raise ModelError(f"duplicate target {y} at rates[{i}]")
        row[y] = rate
    if x not in row:
        row[x] = -functools.reduce(operator.add, row.values(), 0)
    return row


def _reward(rec: dict, x: int, i: int) -> float:
    r = rec.get("r")
    return r if type(r) is float else _need(rec, "r", f"rewards[{i}]", float)


def _explicit_model(doc: dict) -> CtmdpModel:
    n = _need(doc, "states", kind=int)
    actions_doc = _need(doc, "actions", kind=[[[float]]])
    if len(actions_doc) != n:
        raise ModelError("'actions' length does not match 'states'")
    counts = list(map(len, actions_doc))
    starts = list(itertools.accumulate(counts, initial=0))
    flat = list(itertools.chain.from_iterable(actions_doc))
    k = len(flat[0]) if flat else 0
    for x, a in ((x, a) for x, acts in enumerate(actions_doc)
                 for a, act in enumerate(acts) if len(act) != k):
        raise ModelError(
            f"actions[{x}][{a}] has {len(actions_doc[x][a])} numbers where "
            f"the first action has {k}: every action must have the same "
            f"length")
    actions = np.array(flat, dtype=np.float64).reshape(len(flat), k)
    rate_rows = _per_pair(doc, "rates", starts, _rate_entries, "rate row")
    kernel = RateKernel(
        counts, [len(row) for row in rate_rows],
        list(itertools.chain.from_iterable(rate_rows)),
        list(itertools.chain.from_iterable(map(dict.values, rate_rows))))
    rewards = _per_pair(doc, "rewards", starts, _reward, "reward")

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
        return CtmdpModel(actions=actions, kernel=kernel, r=rewards,
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
