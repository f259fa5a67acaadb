"""Malformed builtin params and explicit model files: every single-field
mutation of a valid input must make `validate` exit 2 with a message that
names the field, and no exception may escape the CLI."""

import contextlib
import copy
import io
import json
import warnings
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, field, value", [
    ("tandem", "reward.cap", NAN),     # min(x, nan) is x: the cap was lost
    ("birth_death", "lambda", INF),    # used to exit 1 with a report
    ("birth_death", "p", NAN),         # used to blame the reward bound M
    ("birth_death", "rc.kappa", -INF),
    ("skip_free", "gamma2", NAN),
    ("mmn0", "reward.p", INF),
    ("potlach", "lambda", INF),
    ("potlach", "qstar", [1.0, NAN]),
    ("potlach", "matrices", [[[0.5, 0.5], [INF, 0.5]]]),
])
def test_non_finite_builtin_params_exit_2_naming_the_field(name, field,
                                                          value):
    params = copy.deepcopy(VALID[name])
    path = field.split(".")
    get_parent(params, path)[path[-1]] = value
    code, err = validate(["--builtin", name, "--params", json.dumps(params)])
    assert code == 2
    assert f"{name}: {field} must be finite" in err, err
    assert "Traceback" not in err


# -- solution documents --------------------------------------------------------

@pytest.mark.parametrize("command", ["verify", "martingale"])
@pytest.mark.parametrize("h", [[0.0, 0.5, 2.5], [0.0, 0.5, 2.5, 2.75, 1.0]])
def test_wrong_length_h_exits_2_naming_the_field(tmp_path, command, h):
    # the explicit golden model has 4 states; a short h used to fail with
    # an IndexError or a matmul ValueError, a long one with the latter
    path = tmp_path / "solution.json"
    path.write_text(json.dumps({"gain": 1.5, "h": h, "policy": [1, 0, 2, 0]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = run([command, "--model", str(GOLDEN / "explicit_model.json"),
                    "--solution", str(path)])
    assert code == 2
    assert out.getvalue() == ""
    assert "--solution 'h'" in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command", ["verify", "martingale"])
@pytest.mark.parametrize("field, solution", [
    ("h", {"gain": 1.5, "h": [0.0, NAN, 2.5, 2.75], "policy": [1, 0, 2, 0]}),
    ("gain", {"gain": INF, "h": [0.0, 0.5, 2.5, 2.75],
              "policy": [1, 0, 2, 0]})])
def test_non_finite_solution_exits_2_naming_the_field(tmp_path, command,
                                                      field, solution):
    # verify used to exit 1 and martingale 0 on these, with a numpy
    # RuntimeWarning on stderr
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(solution))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = run([command, "--model", str(GOLDEN / "explicit_model.json"),
                    "--solution", str(path)])
    assert code == 2
    assert out.getvalue() == ""
    assert f"--solution '{field}' must be finite" in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()


# finite params whose rates overflow float64 (lambda * x at x = 2)
OVERFLOW = ["--builtin", "birth_death", "--params",
            '{"lambda":1e308,"mu1":3,"mu2":4,"G":2,"N":4}']


@pytest.mark.parametrize("command, code", [("validate", 1),
                                           ("solve-average", 2)])
def test_overflowing_builtin_reports_without_numpy_warnings(command, code):
    # numpy's overflow warning used to reach stderr (a traceback under
    # -W error::RuntimeWarning); here every warning is recorded, not raised
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        warnings.simplefilter("always")
        assert run([command] + OVERFLOW) == code
    assert [str(w.message) for w in caught] == []
    if command == "validate":
        violations = json.loads(out.getvalue())["report"]["primitives"][
            "violations"]
        assert {v["check"] for v in violations} >= {"finite_rate"}
    else:
        assert out.getvalue() == ""
        assert "model fails validation: " in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()


# -- solver flags ---------------------------------------------------------------

@pytest.mark.parametrize("command", ["solve-average", "sensitivity"])
@pytest.mark.parametrize("flags, named", [
    (["--steps", "2", "--ratio", "2"], "argument --ratio: must be in (0, 1)"),
    (["--steps", "-3"], "argument --steps: must be at least 0"),
    (["--steps", "1", "--alpha0", "0"],
     "argument --alpha0: must be finite and > 0"),
    (["--steps", "0", "--alpha0", "0"],
     "argument --alpha0: must be finite and > 0"),
    (["--x0", "99"], "x0 must be in 0..3, got 99")])
def test_bad_solver_flag_exits_2_naming_the_flag(command, flags, named):
    # each used to exit 2 with a message that named no flag
    params = dict(VALID["mmn0"])
    if command == "sensitivity":
        del params["N"]                # each of the levels sets N
    model = ["--builtin", "mmn0", "--params", json.dumps(params)]
    if command == "sensitivity":
        model += ["--levels", "3,4"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = run([command] + model + flags)
    assert code == 2
    assert out.getvalue() == ""
    assert named in err.getvalue(), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command, flags, named", [
    ("martingale", ["--x0", "99"], "--x0 must be in 0..3, got 99"),
    ("martingale", ["--x0", "-1"], "--x0 must be in 0..3, got -1"),
    ("simulate", ["--x0", "99"], "--x0 must be in 0..3, got 99"),
    ("simulate", ["--mode", "lyapunov", "--x0", "-2"],
     "--x0 must be in 0..3, got -2"),
    ("simulate", ["--mode", "ergodicity", "--x0b", "99"],
     "--x0b must be in 0..3, got 99"),
    ("simulate", ["--mode", "ergodicity", "--x0b", "-1"],
     "--x0b must be in 0..3, got -1")])
def test_bad_start_state_exits_2_naming_the_flag(tmp_path, command, flags,
                                                named):
    # each used to exit 2 with "start state 99 out of range", naming
    # neither the flag nor the states
    model = ["--builtin", "mmn0", "--params", json.dumps(VALID["mmn0"])]
    with contextlib.redirect_stdout(io.StringIO()) as solved:
        assert run(["solve-average"] + model) == 0
    solution = tmp_path / "solution.json"
    solution.write_text(solved.getvalue())
    policy = tmp_path / "policy.json"
    policy.write_text("[0, 0, 0, 0]")
    given = (["--solution", str(solution)] if command == "martingale"
             else ["--policy", str(policy), "--horizon", "1", "--reps", "2"])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = run([command] + model + given + flags)
    assert code == 2
    assert out.getvalue() == ""
    assert named in err.getvalue(), err.getvalue()
    assert "Traceback" not in err.getvalue()


# -- refusals made by the library -----------------------------------------------

ADMISSIBLE = [[0.5, 0.5], [0.5, 0.5]]
NOT_DECREASING = ("--checkpoints must be finite, non-negative and "
                  "non-decreasing")


@pytest.mark.parametrize("command, flags, named", [
    ("solve-average", ["--x0", "9"], "--x0 must be in 0..3, got 9"),
    ("solve-discounted", ["--alpha", "0.5", "--x0", "-1"],
     "--x0 must be in 0..3, got -1"),
    ("sensitivity", ["--levels", "3,4", "--x0", "99"],
     "--x0 must be in 0..3, got 99"),
    ("sensitivity", ["--levels", "3,3"],
     "--levels must list at least two distinct truncation levels"),
    ("martingale", ["--x0", "99"], "--x0 must be in 0..3, got 99"),
    ("martingale", ["--checkpoints", "5"],
     "--checkpoints must list at least two distinct times"),
    ("martingale", ["--checkpoints=-1,1"], NOT_DECREASING),
    ("simulate", ["--x0", "4"], "--x0 must be in 0..3, got 4"),
    ("simulate", ["--mode", "lyapunov", "--x0", "-2"],
     "--x0 must be in 0..3, got -2"),
    ("simulate", ["--mode", "lyapunov", "--checkpoints", "4,1"],
     NOT_DECREASING),
    ("simulate", ["--mode", "ergodicity", "--checkpoints", "1,nan"],
     NOT_DECREASING),
    ("simulate", ["--mode", "ergodicity", "--checkpoints=0"],
     "--checkpoints must end with a time > 0"),
    ("simulate", ["--mode", "ergodicity", "--x0b", "99"],
     "--x0b must be in 0..3, got 99"),
    ("simulate", ["--mode", "lyapunov", "--reps", "1"],
     "--reps must be at least 2, got 1"),
    ("simulate", ["--mode", "ergodicity", "--reps", "1"],
     "--reps must be at least 2, got 1"),
    ("potlach", [{"matrix": [[1, 0], [0]]}, "[1, 1]"],
     "--policy 'matrix' must be a rectangular array of numbers"),
    ("potlach", [{"matrix": [[0.5, 0.5]]}, "[1, 1]"],
     "--policy 'matrix' must be square"),
    ("potlach", [{"matrix": [[0.5, 0.6], [0.5, 0.5]]}, "[1, 1]"],
     "--policy 'matrix' must be row-stochastic"),
    ("potlach", [{"matrix": [[1, 0], [0, 1]]}, "[1, 1]"],
     "--policy 'matrix' must be one of the family's admissible"),
    ("potlach", [{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "[1, 1]"],
     "--policy 'matrix' must be one of the family's admissible"),
    ("potlach", [{"matrix": ADMISSIBLE, "q": [1, 2, 3]}, "[1, 1]"],
     "--policy 'q' must satisfy 0 <= q <= qstar"),
    ("potlach", [{"matrix": ADMISSIBLE}, "[1, 1, 1]"],
     "--x0 must list 2 masses, got [1.0, 1.0, 1.0]"),
    ("potlach", [{"matrix": ADMISSIBLE}, "[-5, 1]"],
     "--x0 masses must be finite and non-negative, got [-5.0, 1.0]"),
    ("potlach", [{"matrix": ADMISSIBLE}, "[NaN, 1]"],
     "--x0 masses must be finite and non-negative, got [nan, 1.0]")])
def test_library_refusal_exits_2_naming_the_flag(tmp_path, command, flags,
                                                 named):
    # the command line leaves these checks to the library, whose
    # ModelError.field names the flag
    policy = tmp_path / "policy.json"
    if command == "potlach":
        doc, x0 = flags
        policy.write_text(json.dumps(doc))
        argv = ["simulate", "--builtin", "potlach", "--params",
                json.dumps(VALID["potlach"]), "--policy", str(policy),
                "--mode", "lyapunov", "--x0", x0]
    else:
        params = dict(VALID["mmn0"])
        if command == "sensitivity":
            del params["N"]            # each of the levels sets N
        argv = [command, "--builtin", "mmn0", "--params", json.dumps(params)]
        if command == "martingale":
            with contextlib.redirect_stdout(io.StringIO()) as solved:
                assert run(["solve-average"] + argv[1:]) == 0
            solution = tmp_path / "solution.json"
            solution.write_text(solved.getvalue())
            argv += ["--solution", str(solution)]
        elif command == "simulate":
            policy.write_text("[0, 0, 0, 0]")
            argv += ["--policy", str(policy), "--horizon", "1"]
        argv += flags
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = run(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith(f"ctmdp: error: {named}"), \
        err.getvalue()
    assert "Traceback" not in err.getvalue()


# -- refusals of the command line ----------------------------------------------

# two states, and no rate row for (1, 0)
MISSING_ROW = {"kind": "explicit", "states": 2, "actions": [[[0.0]], [[0.0]]],
               "rates": [{"x": 0, "a": 0, "entries": [[1, 1.0]]}],
               "rewards": [{"x": 0, "a": 0, "r": 0.0},
                           {"x": 1, "a": 0, "r": 1.0}]}
# an explicit model file without a lyapunov block; ZEROS is a policy for it
NO_LYAPUNOV = ["--model", str(GOLDEN / "two_absorbing_model.json")]
POTLACH = ["--builtin", "potlach", "--params", '{"lambda":2}']


@pytest.mark.parametrize("argv, message", [
    (["solve-average"] + POTLACH,
     "this subcommand needs a tabulated model; the continuous-state "
     "builtin is simulation-only"),
    (["validate"] + NO_LYAPUNOV + ["--checks", "foo"],
     "unknown check 'foo'"),
    (["validate", "--model", "MISSING_ROW"],
     "no rate row supplied for (1, 0)"),
    (["validate"] + NO_LYAPUNOV + ["--checks", "drift"],
     "model carries no Lyapunov data"),
    (["validate"] + NO_LYAPUNOV + ["--checks", "bounds"],
     "model carries no Lyapunov data"),
    (["simulate"] + NO_LYAPUNOV + ["--policy", "ZEROS", "--mode",
                                   "lyapunov"],
     "model carries no Lyapunov data"),
    (["simulate"] + POTLACH + ["--policy",
                               str(GOLDEN / "policy_potlach.json"),
                               "--x0", "[1, 1]", "--mode", "average"],
     "the continuous-state builtin supports --mode lyapunov only")],
    ids=["not_tabulated", "unknown_check", "missing_rate_row",
         "drift_without_lyapunov", "bounds_without_lyapunov",
         "simulate_without_lyapunov", "potlach_average"])
def test_command_line_refusal_exits_2(tmp_path, argv, message):
    files = {"MISSING_ROW": json.dumps(MISSING_ROW), "ZEROS": "[0, 0, 0]"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = run(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue() == f"ctmdp: error: {message}\n"


# -- input that is not UTF-8 ----------------------------------------------------

# 0xff is never UTF-8; it stands at byte 33
NOT_UTF8 = b'{"kind": "explicit", "states": 1 \xff}'


@pytest.mark.parametrize("command, flag", [
    ("validate", "--model"), ("validate", "--params"),
    ("verify", "--solution"), ("simulate", "--policy")])
def test_input_that_is_not_utf8_exits_2_naming_the_flag(tmp_path, command,
                                                         flag):
    # each used to raise UnicodeDecodeError out of the CLI, exit 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    mmn0 = ["--builtin", "mmn0", "--params", json.dumps(VALID["mmn0"])]
    argv = {"--model": ["--model", str(bad)],
            "--params": ["--builtin", "mmn0", "--params", str(bad)],
            "--solution": mmn0 + ["--solution", str(bad)],
            "--policy": mmn0 + ["--policy", str(bad)]}[flag]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = run([command] + argv)
    assert code == 2
    assert out.getvalue() == ""
    assert f"{flag} {bad} is not UTF-8 text" in err.getvalue()
    assert "at byte 33" in err.getvalue()
    assert "Traceback" not in err.getvalue()
