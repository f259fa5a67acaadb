"""Malformed builtin params and explicit model files: every single-field
mutation of a valid input must make `validate` exit 2 with a message that
names the field, and no exception may escape the CLI."""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmdp.cli import run

GOLDEN = Path(__file__).parent / "golden"

# a valid params dict of each builtin, every field given (numbers as
# floats, integers as ints) and N, G and d small
VALID = {
    "birth_death": {"lambda": 1.0, "mu1": 3.0, "mu2": 4.0, "p1": 0.3,
                    "p": 2.0, "rc": {"kind": "linear", "kappa": 0.1},
                    "N": 4, "G": 2},
    "skip_free": {"lambda": 1.0, "mu": 2.0, "b": 1.0, "beta": 2.0,
                  "tau": 1.0, "p": 1.0, "q1": 0.5, "q2": 0.5,
                  "kappa_c": 0.0, "gamma2": 0.7, "N": 4, "G": 2},
    "tandem": {"mu1": 3.0, "mu1star": 4.0, "mu2": 2.0, "mu2star": 3.0,
               "N": 3, "G": 2, "reward": {"kind": "holding_bounded",
                                          "c1": 0.0, "c2": 0.0, "cap": 5.0}},
    "mmn0": {"lambda": 1.0, "mu1": 1.5, "mu2": 3.0, "N": 3, "G": 2,
             "reward": {"p": 1.0, "kappa": 0.0}},
    "potlach": {"d": 2, "lambda": 2.0,
                "matrices": [[[0.5, 0.5], [0.5, 0.5]]],
                "qstar": [1.0, 1.0]},
}
REQUIRED = {"birth_death": ["lambda", "mu1", "mu2"],
            "skip_free": ["lambda", "mu", "b", "beta"], "tandem": [],
            "mmn0": ["lambda", "mu1", "mu2"], "potlach": ["lambda"]}
# values outside each field's range, given the other fields of VALID
OUT_OF_RANGE = {
    "birth_death": {"lambda": [0, -1.0], "mu1": [0.0], "mu2": [3, 2.5],
                    "p1": [-0.1, 1.5], "rc.kind": ["cubic"], "N": [2, 0],
                    "G": [0, -3]},
    "skip_free": {"lambda": [0.0], "mu": [-1], "b": [0], "beta": [1.0, 0.5],
                  "gamma2": [1.5, -0.1], "N": [2], "G": [0]},
    "tandem": {"mu1": [2.9], "mu1star": [3.0], "mu2": [1.0],
               "mu2star": [2.0], "N": [1], "G": [0],
               "reward.kind": ["holding"]},
    "mmn0": {"lambda": [0], "mu1": [0], "mu2": [1.5, 1.0], "N": [0],
             "G": [0]},
    "potlach": {"d": [0, -1], "lambda": [1.0, 0.5],
                "matrices": [[[[0.5, 0.5]]], [[[0.7, 0.7], [0.5, 0.5]]],
                             [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                             [[[1.0, 0.0], [0.5]]]],
                "qstar": [[1.0], [-1.0, 1.0], [1.0, 1.0, 1.0]]},
}
WRONG_TYPES = {"a string": "x", "a bool": True, "a list": [1.0],
               "null": None, "an object": {"v": 1.0}, "a number": 2.5}


def wrong_values(value):
    """JSON values of another type than `value`; 2.5 is wrong for an int."""
    if isinstance(value, bool):
        kind = "a bool"
    elif isinstance(value, (int, float)):
        kind = "an integer" if isinstance(value, int) else "a number"
    else:
        kind = {str: "a string", list: "a list",
                dict: "an object"}[type(value)]
    return [v for k, v in WRONG_TYPES.items() if k != kind]


def paths(doc, prefix=()):
    """Paths of every field of a params dict, nested objects included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from paths(value, prefix + (key,))


def get_parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def validate(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run(["validate"] + argv)
    return code, err.getvalue()


@st.composite
def mutated_params(draw):
    """(family, params, field name the message must carry)"""
    name = draw(st.sampled_from(sorted(VALID)))
    params = copy.deepcopy(VALID[name])
    how = draw(st.sampled_from(["type", "remove", "unknown", "range"]))
    if how == "remove" and REQUIRED[name]:
        field = draw(st.sampled_from(REQUIRED[name]))
        del params[field]
        return name, params, field
    if how == "range":
        field = draw(st.sampled_from(sorted(OUT_OF_RANGE[name])))
        path = tuple(field.split("."))
        get_parent(params, path)[path[-1]] = draw(
            st.sampled_from(OUT_OF_RANGE[name][field]))
        return name, params, field
    path = draw(st.sampled_from(list(paths(params))))
    if how == "unknown":
        host = get_parent(params, path)
        key = draw(st.sampled_from(["zz", "Lambda", "n", "extra_field"]))
        host[key] = 1.0
        return name, params, ".".join(path[:-1] + (key,))
    host = get_parent(params, path)
    host[path[-1]] = draw(st.sampled_from(wrong_values(host[path[-1]])))
    return name, params, ".".join(path)


def test_valid_params_validate():
    for name, params in VALID.items():
        assert validate(["--builtin", name, "--params",
                         json.dumps(params)])[0] == 0, name


@settings(max_examples=150, deadline=None)
@given(mutated_params())
def test_mutated_builtin_params_exit_2_naming_the_field(case):
    name, params, field = case
    code, err = validate(["--builtin", name, "--params", json.dumps(params)])
    assert code == 2, (name, params)
    assert f"{name}: " in err and field in err, err
    assert "Traceback" not in err


# -- explicit model files ----------------------------------------------------

EXPLICIT = json.loads((GOLDEN / "explicit_model.json").read_text())


def explicit_fields():
    """(path, role) of each field of the explicit model file: "required"
    (removing it is an error), "optional" (null means absent) or "item"
    (a list element)."""
    yield ("kind",), "required"
    yield ("labels",), "optional"
    for key in ("states", "actions", "rates", "rewards"):
        yield (key,), "required"
    for i, acts in enumerate(EXPLICIT["actions"]):
        yield ("actions", i), "item"
        yield ("actions", i, 0, 0), "item"
    for key, fields in (("rates", ("x", "a", "entries")),
                        ("rewards", ("x", "a", "r"))):
        for i, rec in enumerate(EXPLICIT[key]):
            yield (key, i), "item"
            for f in fields:
                yield (key, i, f), "required"
    for i, rec in enumerate(EXPLICIT["rates"]):
        for j in range(len(rec["entries"])):
            yield ("rates", i, "entries", j, 0), "item"
            yield ("rates", i, "entries", j, 1), "required"   # the rate


EXPLICIT_FIELDS = list(explicit_fields())


def names(path):
    """Text the message must contain for a mutation at `path`."""
    if len(path) == 1:
        return [path[0]]
    if path[0] == "actions":
        return ["actions"]
    if len(path) == 5:
        return [f"{path[0]}[{path[1]}].entries"]
    return [f"{path[0]}[{path[1]}]" + "".join(f".{k}" for k in path[2:])]


@st.composite
def mutated_model(draw):
    doc = copy.deepcopy(EXPLICIT)
    how = draw(st.sampled_from(["type", "remove", "range"]))
    if how == "range":
        path, value = draw(st.sampled_from([
            (("states",), 5), (("states",), 0), (("states",), -2),
            (("rates", 2, "x"), 4), (("rates", 2, "a"), 3),
            (("rewards", 0, "x"), -1), (("rewards", 6, "a"), 1),
            (("rates", 1, "entries", 0, 0), 9)]))
        get_parent(doc, path)[path[-1]] = value
        expect = (["states"] if path == ("states",) else
                  ["rate target"] if len(path) == 5 else
                  [f"{path[0]}[{path[1]}]"])
        return doc, expect
    path, role = draw(st.sampled_from(
        [f for f in EXPLICIT_FIELDS if how == "type" or f[1] == "required"]))
    host = get_parent(doc, path)
    if how == "remove":
        del host[path[-1]]
        return doc, names(path)
    values = wrong_values(host[path[-1]])
    if role == "optional":
        values = [v for v in values if v is not None]
    host[path[-1]] = draw(st.sampled_from(values))
    return doc, names(path)


@settings(max_examples=150, deadline=None)
@given(mutated_model())
def test_mutated_explicit_model_exits_2_naming_the_field(tmp_path_factory,
                                                          case):
    doc, expect = case
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(doc))
    code, err = validate(["--model", str(path)])
    assert code == 2, doc
    assert all(text in err for text in expect), (expect, err)


# -- redistribution policies -------------------------------------------------

@pytest.mark.parametrize("params, policy", [
    # a row-stochastic matrix that is not one of the declared 'matrices'
    ({"d": 2, "lambda": 2.0}, {"matrix": [[1.0, 0.0], [0.0, 1.0]]}),
    ({"d": 2, "lambda": 2.0, "matrices": [[[1.0, 0.0], [0.0, 1.0]]]},
     {"matrix": [[0.5, 0.5], [0.5, 0.5]]}),
    # weights outside [0, qstar]
    ({"d": 2, "lambda": 2.0}, {"matrix": [[0.5, 0.5], [0.5, 0.5]],
                               "q": [0.5, 1.5]}),
    ({"d": 2, "lambda": 2.0, "qstar": [2.0, 0.25]},
     {"matrix": [[0.5, 0.5], [0.5, 0.5]], "q": [-0.5, 0.0]}),
    ({"d": 2, "lambda": 2.0, "qstar": [2.0, 0.25]},
     {"matrix": [[0.5, 0.5], [0.5, 0.5]], "q": [1.0, 0.5]}),
])
def test_inadmissible_redistribution_policy_exits_2(tmp_path, params,
                                                    policy):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = run(["simulate", "--builtin", "potlach", "--params",
                    json.dumps(params), "--policy", str(path), "--mode",
                    "lyapunov", "--x0", "[1, 1]", "--reps", "3"])
    assert code == 2
    assert out.getvalue() == ""
    assert "--policy" in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("params, policy", [
    ({"d": 2, "lambda": 2.0}, {"matrix": [[0.5, 0.5], [0.5, 0.5]],
                               "q": [0.0, 0.0]}),
    ({"d": 2, "lambda": 2.0}, {"matrix": [[0.5, 0.5], [0.5, 0.5]],
                               "q": [1.0, 0.25]}),
    ({"d": 2, "lambda": 2.0,
      "matrices": [[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]},
     {"matrix": [[1.0, 0.0], [0.0, 1.0]]}),
])
def test_admissible_redistribution_policy_runs(tmp_path, params, policy):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy))
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(["simulate", "--builtin", "potlach", "--params",
                    json.dumps(params), "--policy", str(path), "--mode",
                    "lyapunov", "--x0", "[1, 1]", "--reps", "3"])
    assert code in (0, 1)    # 1 is the simulator's own 3-SE verdict
