"""JSON model files and deterministic report serialization.

A model file is either {"kind": "explicit", ...} with the full tables or
{"kind": "builtin", "name": ..., "params": {...}} naming a packaged
family. Reports are serialized with sorted keys and floats printed at 17
significant digits so identical runs produce byte-identical output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import families
from .model import (ActionSets, CtmdpModel, LyapunovData, ModelError,
                    RateKernel, RewardTable, StateSpace, StationaryPolicy)

FORMAT_VERSION = "1"


class ModelFileError(ModelError):
    """Malformed model file; the message names the offending field."""


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def _render(obj):
    """Recursively render to a JSON string with fixed float formatting."""
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _fmt_float(float(obj))
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ", ".join(f"{json.dumps(str(k))}: {_render(v)}"
                         for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    return _render(obj) + "\n"


def _need(doc: dict, key: str, where: str = "top level"):
    if key not in doc:
        raise ModelFileError(f"missing field {key!r} at {where}")
    return doc[key]


def _per_pair(doc: dict, key: str, actions: ActionSets, read, what: str):
    """read(rec, x, where) of each record of doc[key], filed by its (x, a);
    every (x, a) of the model needs one."""
    rows = [[None] * len(acts) for acts in actions.sets]
    for i, rec in enumerate(_need(doc, key)):
        where = f"{key}[{i}]"
        x = int(_need(rec, "x", where))
        a = int(_need(rec, "a", where))
        if not (0 <= x < len(rows) and 0 <= a < len(rows[x])):
            raise ModelFileError(f"(x, a) out of range at {where}")
        rows[x][a] = read(rec, x, where)
    for x, per_state in enumerate(rows):
        if None in per_state:
            raise ModelFileError(f"no {what} supplied for "
                                 f"({x}, {per_state.index(None)})")
    return rows


def _rate_entries(rec: dict, x: int, where: str) -> dict:
    """target -> rate of one rate record, the diagonal completed if absent
    so that the row is conservative."""
    entries = {}
    for pair in _need(rec, "entries", where):
        if len(pair) != 2:
            raise ModelFileError(f"entry is not a [y, rate] pair at {where}")
        y, rate = int(pair[0]), float(pair[1])
        if y in entries:
            raise ModelFileError(f"duplicate target {y} at {where}")
        entries[y] = rate
    if x not in entries:
        entries[x] = -sum(entries.values())
    return entries


def _explicit_model(doc: dict) -> CtmdpModel:
    n = int(_need(doc, "states"))
    actions_doc = _need(doc, "actions")
    if len(actions_doc) != n:
        raise ModelFileError("'actions' length does not match 'states'")
    try:
        actions = ActionSets(sets=tuple(tuple(np.atleast_1d(a) for a in acts)
                                        for acts in actions_doc))
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"bad 'actions' entry: {exc}") from exc

    rate_rows = _per_pair(doc, "rates", actions, _rate_entries, "rate row")
    pair_rows = [entries for per_state in rate_rows for entries in per_state]
    kernel = RateKernel.from_pairs(
        [len(per_state) for per_state in rate_rows],
        [len(entries) for entries in pair_rows],
        [y for entries in pair_rows for y in entries],
        [rate for entries in pair_rows for rate in entries.values()])
    reward_rows = _per_pair(
        doc, "rewards", actions,
        lambda rec, x, where: float(_need(rec, "r", where)), "reward")

    lyap = None
    if doc.get("lyapunov") is not None:
        ld = doc["lyapunov"]
        try:
            lyap = LyapunovData(
                w=np.asarray(_need(ld, "w", "lyapunov"), dtype=np.float64),
                c=float(_need(ld, "c", "lyapunov")),
                b=float(_need(ld, "b", "lyapunov")),
                M=float(_need(ld, "M", "lyapunov")),
                M_q=float(_need(ld, "Mq", "lyapunov")),
                wprime=(None if ld.get("wprime") is None
                        else np.asarray(ld["wprime"], dtype=np.float64)),
                cprime=ld.get("cprime"), bprime=ld.get("bprime"),
                Mprime=ld.get("Mprime"))
        except ModelError as exc:
            raise ModelFileError(f"bad 'lyapunov' block: {exc}") from exc

    labels = doc.get("labels")
    try:
        return CtmdpModel(
            states=StateSpace(size=n, labels=None if labels is None
                              else tuple(labels)),
            actions=actions,
            kernel=kernel,
            rewards=RewardTable(table=tuple(tuple(row) for row in reward_rows)),
            lyapunov=lyap,
            provenance="explicit")
    except ModelError as exc:
        raise ModelFileError(str(exc)) from exc


def model_from_dict(doc: dict):
    """Build a model (or simulation process) from a parsed model document."""
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    kind = _need(doc, "kind")
    if kind == "explicit":
        return _explicit_model(doc)
    if kind == "builtin":
        name = _need(doc, "name")
        params = dict(doc.get("params", {}))
        if "truncation" in doc:
            params["N"] = int(doc["truncation"])
        if "action_grid" in doc:
            params["G"] = int(doc["action_grid"])
        try:
            return families.build(name, params)
        except KeyError as exc:
            raise ModelFileError(f"missing builtin parameter {exc}") from exc
    raise ModelFileError(f"unknown model kind {kind!r}")


def loads_model(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    return model_from_dict(doc)


def load_model(path: str):
    """Read a model file; '-' is not handled here (the CLI resolves stdin)."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())


def model_to_dict(model: CtmdpModel) -> dict:
    """Explicit-form document for a tabulated model; round-trips exactly."""
    rates, rewards = [], []
    for x, per_state in enumerate(model.kernel.rows):
        for a, (ys, vals) in enumerate(per_state):
            rates.append({"x": x, "a": a, "entries": [
                list(e) for e in zip(ys.tolist(), vals.tolist())]})
            rewards.append({"x": x, "a": a, "r": model.rewards.rate(x, a)})
    doc = {"kind": "explicit", "format_version": FORMAT_VERSION,
           "states": model.n,
           "actions": [[list(a) for a in model.actions[x]]
                       for x in range(model.n)],
           "rates": rates, "rewards": rewards}
    if model.states.labels is not None:
        doc["labels"] = [list(lab) for lab in model.states.labels]
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
    try:
        f = StationaryPolicy(choice=np.asarray(doc, dtype=np.int64))
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"bad policy document: {exc}") from exc
    try:
        model.check_policy(f)
    except ModelError as exc:
        raise ModelFileError(str(exc)) from exc
    return f
