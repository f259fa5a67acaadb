import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import struct
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ctmdp
from ctmdp import ModelError, dumps, model_from_dict, model_to_dict
from ctmdp.cli import build_parser, run

GOLDEN = Path(__file__).parent / "golden"

EXPLICIT_DOC = {
    "kind": "explicit",
    "states": 2,
    "actions": [[[0.0]], [[0.0]]],
    "rates": [
        {"x": 0, "a": 0, "entries": [[1, 1.0]]},        # diagonal omitted
        {"x": 1, "a": 0, "entries": [[0, 2.0], [1, -2.0]]},
    ],
    "rewards": [{"x": 0, "a": 0, "r": 1.0}, {"x": 1, "a": 0, "r": 0.0}],
}


def test_explicit_load_completes_diagonal():
    m = model_from_dict(EXPLICIT_DOC)
    ys, rates = m.kernel.row(0, 0)
    assert dict(zip(ys.tolist(), rates.tolist())) == {0: -1.0, 1: 1.0}
    assert ctmdp.validate_model(m).ok


def test_explicit_diagonal_adds_the_rates_left_to_right():
    # ((0 + 0.1) + 0.2) + 0.3 in file order; Python >= 3.12 `sum` adds
    # floats with compensation and gives 0.6
    doc = {"kind": "explicit", "states": 4, "actions": [[[0.0]]] * 4,
           "rates": [{"x": 0, "a": 0, "entries": [[1, 0.1], [2, 0.2],
                                                  [3, 0.3]]}]
           + [{"x": x, "a": 0, "entries": []} for x in (1, 2, 3)],
           "rewards": [{"x": x, "a": 0, "r": 0.0} for x in range(4)]}
    m = model_from_dict(doc)
    assert repr(m.kernel.rate(0, 0, 0)) == "-0.6000000000000001"
    # a row of no entries completes to +0.0, as minus the empty sum 0
    assert repr(m.kernel.rate(1, 1, 0)) == "0.0"


def test_model_roundtrip():
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3,
                             "G": 2})
    m2 = model_from_dict(model_to_dict(m))
    for x in range(m.n):
        for a in range(m.kernel.counts[x]):
            ys1, r1 = m.kernel.row(x, a)
            ys2, r2 = m2.kernel.row(x, a)
            assert np.array_equal(ys1, ys2)
            assert np.array_equal(r1, r2)
    assert np.array_equal(m.r, m2.r)


def test_model_document_carries_no_format_version():
    # the stamp was never read back, and a format bump changed the sha256
    # of a re-written model file
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3,
                             "G": 2})
    assert "format_version" not in model_to_dict(m)


@pytest.mark.parametrize("flag, where", [
    ("--model", "file"), ("--params", "inline"), ("--params", "file")])
def test_cli_malformed_json_names_flag_and_location(tmp_path, capsys, flag,
                                                   where):
    raw = text = '{"kind": "explicit",}'
    if where == "file":
        raw = str(tmp_path / "broken.json")
        Path(raw).write_text(text)
    argv = (["validate", "--model", raw] if flag == "--model" else
            ["validate", "--builtin", "mmn0", "--params", raw])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ctmdp: error: malformed JSON in {flag} at line 1 column 21: "
        f"Expecting property name enclosed in double quotes\n")


def test_missing_field_named():
    with pytest.raises(ModelError, match="actions"):
        model_from_dict({"kind": "explicit", "states": 1})


def test_dumps_is_deterministic_and_roundtrip_exact():
    vals = [0.1, 1 / 3, 6.0 / 13.0, 1e-300, -2.5e17]
    text = dumps({"b": vals, "a": 1, "flag": True, "none": None})
    assert text == dumps({"a": 1, "none": None, "flag": True, "b": vals})
    assert text.index('"a"') < text.index('"b"') < text.index('"flag"')
    back = json.loads(text)
    assert back["b"] == vals                  # shortest repr round-trips


def test_dumps_handles_numpy_types():
    doc = json.loads(dumps({"x": np.float64(0.5), "n": np.int64(3),
                            "arr": np.arange(3.0), "flag": np.bool_(True)}))
    assert doc == {"x": 0.5, "n": 3, "arr": [0.0, 1.0, 2.0], "flag": True}


@pytest.mark.parametrize("value", [{1, 2}, object(), b"x"],
                         ids=["set", "object", "bytes"])
def test_dumps_refuses_a_value_it_cannot_write_naming_its_type(value):
    # these used to fail as "ValueError: Circular reference detected"
    with pytest.raises(TypeError,
                       match=f"cannot write a {type(value).__name__} as JSON"):
        dumps({"x": value})


def _plain(x):
    """The plain-Python value that `dumps(x)` must read back as."""
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return [_plain(v) for v in x] if isinstance(x, list) else x


def _reversed_keys(x):
    if isinstance(x, dict):
        return {k: _reversed_keys(x[k]) for k in reversed(list(x))}
    return [_reversed_keys(v) for v in x] if isinstance(x, list) else x


def _same_bits(a, b):
    """Equal with matching types, floats bit for bit (sign of zero kept)
    except that any NaN equals any NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (
            struct.pack("<d", a) == struct.pack("<d", b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    return a == b


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072009e-308, math.nan, math.inf, -math.inf])
_SCALARS = st.one_of(
    _FLOATS, st.integers(), st.booleans(), st.none(),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]).flatmap(
        lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0,
                                                          max_dims=2,
                                                          max_side=3))))
_DOCUMENTS = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_dumps_reads_back_the_plain_value_bit_for_bit(doc):
    text = dumps(doc)
    assert _same_bits(json.loads(text), _plain(doc))
    assert text == dumps(_reversed_keys(doc))
    assert text.endswith("\n") and text.count("\n") == 1


def stdin(text):
    """A stand-in for sys.stdin holding `text`, read as bytes by the CLI."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                            encoding="utf-8")


def write_model(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_validate_exit_codes(tmp_path, capsys):
    assert run(["validate", "--model", write_model(tmp_path, EXPLICIT_DOC)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["ok"]
    assert out["format_version"] == "6"
    bad = dict(EXPLICIT_DOC)
    bad["rates"] = [
        {"x": 0, "a": 0, "entries": [[0, -1.0], [1, 1.5]]},
        {"x": 1, "a": 0, "entries": [[0, 2.0], [1, -2.0]]},
    ]
    assert run(["validate", "--model", write_model(tmp_path, bad)]) == 1


def test_cli_usage_error_is_2(tmp_path):
    assert run(["validate", "--model", str(tmp_path / "missing.json")]) == 2
    assert run(["oracle"]) == 2
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["oracle", "--model", str(path)]) == 2


def test_cli_nonconservative_model_blocks_solving(tmp_path):
    bad = dict(EXPLICIT_DOC)
    bad["rates"] = [
        {"x": 0, "a": 0, "entries": [[0, -1.0], [1, 1.5]]},
        {"x": 1, "a": 0, "entries": [[0, 2.0], [1, -2.0]]},
    ]
    assert run(["oracle", "--model", write_model(tmp_path, bad)]) == 2


def test_cli_solve_and_verify_pipeline(tmp_path, capsys, monkeypatch):
    params = '{"N":2,"lambda":1,"mu1":2,"mu2":2.5,"G":1}'
    assert run(["solve-average", "--builtin", "mmn0", "--params", params,
                "--steps", "20"]) == 0
    solved = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", stdin(solved))
    assert run(["verify", "--model", "-", "--solution", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["report"]["passed"]


def test_cli_reports_are_byte_identical(tmp_path, capsys):
    args = ["solve-discounted", "--builtin", "mmn0", "--params",
            '{"N":2,"lambda":1,"mu1":2,"mu2":2.5,"G":1}', "--alpha", "0.5"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_cli_describe_and_out_file(tmp_path):
    out = tmp_path / "schema.json"
    assert run(["describe", "--builtin", "potlach", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "lambda" in doc["report"]["params"]


def test_cli_oracle_matches_solver(tmp_path, capsys):
    params = '{"N":3,"lambda":1,"mu1":1.5,"mu2":3,"G":2}'
    assert run(["oracle", "--builtin", "mmn0", "--params", params]) == 0
    orc = json.loads(capsys.readouterr().out)
    assert run(["solve-average", "--builtin", "mmn0", "--params",
                params]) == 0
    sol = json.loads(capsys.readouterr().out)
    assert abs(orc["report"]["gain"] - sol["report"]["gain"]) <= 1e-6


def test_cli_simulate_emits_series(tmp_path, capsys):
    pol = tmp_path / "policy.json"
    pol.write_text("[0, 0, 0]")
    csv_path = tmp_path / "series.csv"
    assert run(["simulate", "--builtin", "mmn0", "--params",
                '{"N":2,"lambda":1,"mu1":2,"mu2":2.5,"G":1}',
                "--policy", str(pol), "--horizon", "200", "--reps", "3",
                "--seed", "7", "--emit-series", str(csv_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["report"]["reps"] == 3
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "rep,value"
    assert len(lines) == 4


def test_cli_simulate_ergodicity_emits_series(tmp_path, capsys):
    # one row per checkpoint: the first probe's gap from the first start
    csv_path = tmp_path / "series.csv"
    assert run(["simulate", "--builtin", "mmn0", "--params",
                '{"N":3,"lambda":1,"mu1":1.5,"mu2":3,"G":2}',
                "--policy", str(GOLDEN / "policy_mmn0.json"),
                "--mode", "ergodicity", "--reps", "10", "--seed", "1",
                "--checkpoints", "0.5,1,2", "--emit-series",
                str(csv_path)]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["t", "gap"]
    assert [list(map(float, row)) for row in rows] == [
        [t, gap] for t, gap in zip(rep["checkpoints"], rep["diffs"]["0"][0])]
    assert len(rows) == 3


def test_cli_simulate_lyapunov_mode(tmp_path, capsys):
    pol = tmp_path / "policy.json"
    pol.write_text(json.dumps([0] * 16))
    csv_path = tmp_path / "series.csv"
    code = run(["simulate", "--builtin", "birth_death", "--params",
                '{"N":15,"lambda":1,"mu1":3,"mu2":4,"G":1}',
                "--policy", str(pol), "--mode", "lyapunov", "--x0", "8",
                "--reps", "40", "--seed", "3",
                "--checkpoints", "0.5,1,2,4",
                "--emit-series", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,mean,se,bound"
    assert len(lines) == 5


def test_cli_sensitivity(tmp_path, capsys):
    assert run(["sensitivity", "--builtin", "birth_death", "--params",
                '{"lambda":1,"mu1":3,"mu2":4,"G":2}', "--levels", "15,30",
                "--steps", "20"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["report"]["levels"] == [15, 30]
    assert rep["report"]["stable"]


def test_cli_martingale(tmp_path, capsys):
    params = '{"N":2,"lambda":1,"mu1":2,"mu2":2.5,"G":1}'
    assert run(["solve-average", "--builtin", "mmn0", "--params", params,
                "--steps", "20", "--out", str(tmp_path / "sol.json")]) == 0
    assert run(["martingale", "--builtin", "mmn0", "--params", params,
                "--solution", str(tmp_path / "sol.json"),
                "--reps", "30", "--seed", "1",
                "--checkpoints", "1,5,20"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["report"]["submartingale_consistent"]
    assert rep["report"]["supermartingale_consistent"]


@pytest.mark.parametrize("flags, flag", [
    (["--reps", "0"], "--reps"),
    (["--reps", "-3"], "--reps"),
    (["--horizon", "-5"], "--horizon"),
    (["--horizon", "0"], "--horizon"),
    (["--horizon", "nan"], "--horizon"),
    (["--horizon", "inf"], "--horizon"),
])
def test_cli_simulate_rejects_bad_reps_and_horizon(tmp_path, capsys, flags,
                                                   flag):
    pol = tmp_path / "policy.json"
    pol.write_text("[0, 0, 0]")
    assert run(["simulate", "--builtin", "mmn0", "--params",
                '{"N":2,"lambda":1,"mu1":2,"mu2":2.5,"G":1}',
                "--policy", str(pol)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_cli_martingale_rejects_bad_reps(tmp_path, capsys):
    params = '{"N":2,"lambda":1,"mu1":2,"mu2":2.5,"G":1}'
    assert run(["solve-average", "--builtin", "mmn0", "--params", params,
                "--steps", "20", "--out", str(tmp_path / "sol.json")]) == 0
    assert run(["martingale", "--builtin", "mmn0", "--params", params,
                "--solution", str(tmp_path / "sol.json"),
                "--reps", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--reps" in captured.err


MMN0 = '{"N":2,"lambda":1,"mu1":2,"mu2":2.5,"G":1}'


def test_cli_monte_carlo_reports_give_jump_counts(tmp_path):
    pol = tmp_path / "policy.json"
    pol.write_text("[0, 0, 0]")
    model = ["--builtin", "mmn0", "--params", MMN0]
    assert run(["solve-average"] + model + [
        "--steps", "20", "--out", str(tmp_path / "sol.json")]) == 0
    runs = {
        "average": ["simulate"] + model + ["--policy", str(pol),
                                           "--horizon", "50", "--reps", "3"],
        "lyapunov": ["simulate"] + model + ["--policy", str(pol), "--mode",
                                            "lyapunov", "--reps", "4"],
        "martingale": ["martingale"] + model + [
            "--solution", str(tmp_path / "sol.json"), "--reps", "5",
            "--checkpoints", "1,5,20"],
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        run(argv + ["--out", str(out)])
        rep = json.loads(out.read_text())
        jumps = rep["report"]["jumps"]
        assert len(jumps) == rep["config"]["reps"]
        assert all(isinstance(j, int) and j > 0 for j in jumps)


@pytest.mark.parametrize("argv, flag", [
    (["solve-average", "--tol", "-1"], "--tol"),
    (["solve-average", "--tol", "nan"], "--tol"),
    (["solve-discounted", "--alpha", "nan"], "--alpha"),
    (["solve-discounted", "--alpha", "1", "--tol", "0"], "--tol"),
    (["sensitivity", "--levels", "2,3", "--tol", "inf"], "--tol"),
    (["verify", "--solution", "-", "--tol", "nan"], "--tol"),
    (["verify", "--solution", "-", "--tol", "-0.001"], "--tol"),
    (["simulate", "--policy", "-", "--seed", "-1"], "--seed"),
    (["simulate", "--policy", "-", "--seed", str(2 ** 64)], "--seed"),
    (["martingale", "--solution", "-", "--seed", "-1"], "--seed"),
])
def test_cli_refuses_unmeetable_tolerance_or_seed(capsys, argv, flag):
    """Refused before any work: the tolerances used to run the whole sweep
    budget, the seeds to escape as a ValueError of the random stream."""
    t0 = time.perf_counter()
    assert run(argv[:1] + ["--builtin", "mmn0", "--params", MMN0]
               + argv[1:]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--solution", "-", "--tol", "-1e-9"],
    ["solve-discounted", "--alpha", "-1e-3"],
    ["solve-average", "--steps", "2", "--alpha0", "-1e-3"],
    ["simulate", "--policy", "-", "--horizon", "-1e5"],
    ["solve-average", "--tol", "-inf"],
])
def test_cli_reads_a_negative_exponent_as_the_flag_value(capsys, argv):
    """`--flag -1e-9` is refused as `--flag=-1e-9` is; argparse used to
    take the value for an option ("expected one argument")."""
    def refusal(args):
        assert run(args[:1] + ["--builtin", "mmn0", "--params", MMN0]
                   + args[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    err = refusal(argv)
    assert err == refusal(argv[:-2] + [f"{argv[-2]}={argv[-1]}"])
    assert "expected one argument" not in err
    assert argv[-2] in err or "alpha0" in err


@pytest.mark.parametrize("mode", ["average", "ergodicity"])
def test_cli_simulate_accepts_the_largest_seed(tmp_path, capsys, mode):
    pol = tmp_path / "policy.json"
    pol.write_text("[0, 0, 0]")
    assert run(["simulate", "--builtin", "mmn0", "--params", MMN0,
                "--policy", str(pol), "--horizon", "5", "--reps", "2",
                "--mode", mode, "--seed", str(2 ** 64 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--horizon", "1e4", "--reps", "3"],
    ["simulate", "--mode", "lyapunov", "--checkpoints", "100,1000"],
])
def test_cli_simulation_error_report_goes_to_out(tmp_path, capsys,
                                                 monkeypatch, argv):
    from ctmdp import simulate
    monkeypatch.setattr(simulate, "MAX_JUMPS", 50)
    pol = tmp_path / "policy.json"
    pol.write_text("[0, 0, 0]")
    out = tmp_path / "err.json"
    assert run(argv + ["--builtin", "mmn0", "--params", MMN0,
                       "--policy", str(pol), "--seed", "7",
                       "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["config"]["subcommand"] == "simulate"
    assert doc["config"]["seed"] == 7
    assert doc["config"]["model"]["name"] == "mmn0"
    err = doc["error"]
    assert err["type"] == "SimulationError"
    assert err["replication"] == 0
    assert err["jumps"] == 51
    assert 0 < err["time"] < 1e4
    assert err["last_state"] in (0, 1, 2)
    assert "jump-count guard (50)" in err["message"]


@pytest.mark.parametrize("flags, flag", [
    (["--mode", "lyapunov", "--checkpoints", "4,1"], "--checkpoints"),
    (["--mode", "lyapunov", "--checkpoints", "1,nan"], "--checkpoints"),
    (["--mode", "lyapunov", "--checkpoints", "1,x"], "--checkpoints"),
    (["--x0", "7"], "--x0 must be in 0..2, got 7"),
    (["--x0", "1.7"], "--x0"),
    (["--x0", "true"], "--x0"),
    (["--x0", '"1"'], "--x0"),
    (["--mode", "ergodicity", "--checkpoints=0"], "--checkpoints"),
    (["--mode", "ergodicity", "--checkpoints=-2,-1"], "--checkpoints"),
    (["--mode", "lyapunov", "--checkpoints=-1,0"], "--checkpoints"),
])
def test_cli_simulate_rejects_bad_checkpoints_and_start(tmp_path, capsys,
                                                        flags, flag):
    pol = tmp_path / "policy.json"
    pol.write_text("[0, 0, 0]")
    assert run(["simulate", "--builtin", "mmn0", "--params", MMN0,
                "--policy", str(pol)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_two_runs_build_one_parser(monkeypatch, capsys):
    import ctmdp.cli

    built = []
    init = ctmdp.cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ctmdp.cli._Parser, "__init__", counting)
    ctmdp.cli._parser.cache_clear()
    for _ in range(2):
        assert run(["describe", "--builtin", "mmn0"]) == 0
    assert built.count("ctmdp") == 1


@pytest.mark.parametrize("x0", ["99", "-1"])
def test_cli_solve_discounted_rejects_out_of_range_x0(capsys, x0):
    assert run(["solve-discounted", "--builtin", "mmn0", "--params", MMN0,
                "--alpha", "0.5", "--x0", x0]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ctmdp: error: --x0 must be in 0..2, got {x0}\n" == captured.err


@pytest.mark.parametrize("name, params, field", [
    ("birth_death", '{"lambda":"x","mu1":3,"mu2":4}', "lambda"),
    ("birth_death", '{"lambda":1,"mu1":3,"mu2":4,"N":"abc"}', "N"),
    ("birth_death", '{"lambda":1,"mu1":3,"mu2":4,"N":30.9}', "N"),
    ("birth_death", '{"lambda":1,"mu1":3,"mu2":4,"G":true}', "G"),
    ("birth_death", '{"lambda":1,"mu1":3,"mu2":4,"rc":5}', "rc"),
    ("birth_death", '{"lambda":1,"mu1":3,"mu2":4,"lamda":1}', "lamda"),
    ("tandem", '{"reward":{"cap":"x"}}', "reward.cap"),
    ("potlach", '{"d":0,"lambda":2}', "d"),
    ("potlach", '{"d":3,"lambda":2,"matrices":[[[0.5,0.5],[0.5,0.5]]]}',
     "matrices"),
    ("mmn0", "[1,2]", "--params"),
    ("mmn0", "no-such-params.json", "no-such-params.json"),
])
def test_cli_malformed_builtin_params_exit_2(tmp_path, monkeypatch, capsys,
                                             name, params, field):
    monkeypatch.chdir(tmp_path)
    assert run(["validate", "--builtin", name, "--params", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_cli_params_from_file(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(MMN0)
    assert run(["validate", "--builtin", "mmn0", "--params", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["ok"]


def test_cli_builtin_document_params_must_be_an_object(tmp_path, capsys):
    path = write_model(tmp_path, {"kind": "builtin", "name": "mmn0",
                                  "params": [1, 2]})
    assert run(["validate", "--model", path]) == 2
    assert "mmn0: params must be an object" in capsys.readouterr().err


def test_cli_sensitivity_rejects_bad_levels(capsys):
    assert run(["sensitivity", "--builtin", "mmn0", "--params", MMN0,
                "--levels", "a,b"]) == 2
    assert "--levels" in capsys.readouterr().err


@pytest.mark.parametrize("name, params, levels, message", [
    # lambda * x overflows at x = 2: this exited 1 with a ConvergenceError
    # report, after solving a model with infinite rates
    ("birth_death", '{"lambda":1e308,"mu1":3,"mu2":4,"G":2}', "3,4",
     "model fails validation: "),
    # the continuous-state builtin has no truncation level
    ("potlach", '{"d":2,"lambda":2.0}', "2,3", "potlach: unknown field N"),
    # a level below the family's least N was refused naming N, not the flag
    ("birth_death", '{"lambda":1,"mu1":3,"mu2":4,"G":2}', "1,4",
     "--levels: birth_death: N must be >= 3, got 1\n"),
    # an N in --params was ignored, and echoed in config.model
    ("birth_death", '{"lambda":1,"mu1":3,"mu2":4,"G":2,"N":99}', "3,4",
     "--params must not give N, which each of the levels sets; got N = 99")])
def test_cli_sensitivity_refuses_a_level_it_cannot_solve(
        capsys, name, params, levels, message):
    assert run(["sensitivity", "--builtin", name, "--params", params,
                "--levels", levels]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ctmdp: error: {message}")


@pytest.mark.parametrize("levels", ["a,b", "30", "", "15,15"])
def test_cli_sensitivity_rejects_levels_comparing_nothing(capsys, levels):
    # "30", "" and "15,15" used to report "stable" comparing nothing
    assert run(["sensitivity", "--builtin", "birth_death", "--params",
                '{"lambda":1,"mu1":3,"mu2":4,"G":2}',
                f"--levels={levels}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--levels" in captured.err


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--mode", "lyapunov"]),
    ("simulate", ["--mode", "ergodicity"]),
    ("martingale", [])])
def test_cli_checkpoint_estimates_refuse_one_replication(tmp_path, capsys,
                                                         command, flags):
    # each used to exit 0 or 1 with NaN standard errors
    model = ["--builtin", "mmn0", "--params", MMN0]
    if command == "martingale":
        assert run(["solve-average"] + model) == 0
        sol = tmp_path / "solution.json"
        sol.write_text(capsys.readouterr().out)
        flags = ["--solution", str(sol)]
    else:
        pol = tmp_path / "policy.json"
        pol.write_text("[0, 0, 0]")
        flags = flags + ["--policy", str(pol)]
    assert run([command] + model + flags + ["--reps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--reps" in captured.err
    assert "Traceback" not in captured.err


def test_cli_checkpoints_at_zero_and_one_average_replication(tmp_path,
                                                            capsys):
    model = ["--builtin", "mmn0", "--params", MMN0]
    pol = tmp_path / "policy.json"
    pol.write_text("[0, 0, 0]")
    sim = ["simulate"] + model + ["--policy", str(pol), "--horizon", "20"]
    assert run(sim + ["--reps", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["se"] == 0.0
    assert run(sim + ["--mode", "lyapunov", "--reps", "20",
                      "--checkpoints=0,1"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["checkpoints"][0] == 0
    assert run(["solve-average"] + model) == 0
    sol = tmp_path / "solution.json"
    sol.write_text(capsys.readouterr().out)
    assert run(["martingale"] + model + ["--solution", str(sol), "--reps",
                                         "20", "--checkpoints=0,1"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["checkpoints"][0] == 0
    assert run(["martingale"] + model + ["--solution", str(sol),
                                         "--checkpoints=-2,-1"]) == 2
    assert "--checkpoints" in capsys.readouterr().err


@pytest.mark.parametrize("checkpoints", ["5", "0,0", "2,2,2"])
def test_cli_martingale_refuses_checkpoints_comparing_nothing(tmp_path,
                                                              capsys,
                                                              checkpoints):
    # each used to report both verdicts true with no interval compared
    model = ["--builtin", "mmn0", "--params", MMN0]
    assert run(["solve-average"] + model) == 0
    sol = tmp_path / "solution.json"
    sol.write_text(capsys.readouterr().out)
    assert run(["martingale"] + model + ["--solution", str(sol), "--reps",
                                         "20", "--checkpoints",
                                         checkpoints]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--checkpoints must list at least two distinct times" in \
        captured.err


@pytest.mark.parametrize("checks", ["drift", "drift,bounds", "monotone"])
def test_cli_validate_refuses_checks_on_the_continuous_state_builtin(
        capsys, checks):
    # the checks used to be echoed in the config, none run, and "ok" true
    # (golden/validate_potlach.json is the same run without --checks)
    assert run(["validate", "--builtin", "potlach", "--params",
                '{"d":2,"lambda":2.0}', "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--checks" in captured.err


def test_cli_explicit_actions_of_differing_lengths_exit_2(tmp_path, capsys):
    doc = dict(EXPLICIT_DOC, actions=[[[0.0]], [[0.0, 1.0]]])
    assert run(["validate", "--model", write_model(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "actions[1][0] has 2 numbers where the first action has 1" in \
        captured.err


@pytest.mark.parametrize("y", [2 ** 70, 1e300])
def test_cli_rate_target_beyond_int64_exits_2(tmp_path, capsys, y):
    # it raised numpy's OverflowError: a traceback and exit 1
    doc = json.loads(json.dumps(EXPLICIT_DOC))
    doc["rates"][0]["entries"][0][0] = y
    assert run(["validate", "--model", write_model(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ctmdp: error: rate target out of range at (0,0)\n"


@pytest.mark.parametrize("path, value, field", [
    (("rates", 0, "entries"), 5, "rates[0].entries must be a list"),
    (("rates", 1, "x"), "a", "rates[1].x must be an integer"),
    (("states",), "abc", "states must be an integer"),
    (("rewards", 0, "r"), "x", "rewards[0].r must be a number"),
    (("rewards", 1), 3, "rewards[1] must be an object"),
    (("rates", 0, "entries", 0), [1, "x"], "rates[0].entries[0]"),
    (("rates", 0, "entries", 0), [1], "rates[0].entries[0] is not a"),
    (("actions", 0, 0), [True], "actions[0][0][0] must be a number"),
    (("lyapunov",), {"w": [1.0, 1.0], "c": "x", "b": 1.0, "M": 1.0,
                     "Mq": 5.0}, "lyapunov.c must be a number"),
])
def test_cli_ill_typed_explicit_model_exits_2(tmp_path, capsys, path, value,
                                              field):
    doc = json.loads(json.dumps(EXPLICIT_DOC))
    host = doc
    for key in path[:-1]:
        host = host[key]
    host[path[-1]] = value
    assert run(["validate", "--model", write_model(tmp_path, doc)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("policy, x0, flag", [
    ({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "[1,1]", "--policy"),
    ({"matrix": [[1, 0], [0]]}, "[1,1]", "--policy"),
    ({"matrix": [[1, 0], [0, 1]], "q": [1, 2, 3]}, "[1,1]", "--policy"),
    ({"matrix": [[1, 0], [0, 1]], "q": ["x", 1]}, "[1,1]", "--policy"),
    ([[1, 0], [0, 1]], "[1,1]", "--policy"),
    ({"matrix": [[0.5, 0.5], [0.5, 0.5]]}, "[1,1,1]", "--x0"),
    ({"matrix": [[1, 0], [0, 1]]}, "1", "--x0"),
])
def test_cli_simulate_redistribution_checks_dimensions(tmp_path, capsys,
                                                       policy, x0, flag):
    pol = tmp_path / "policy.json"
    pol.write_text(json.dumps(policy))
    assert run(["simulate", "--builtin", "potlach", "--params",
                '{"d":2,"lambda":2.0}', "--policy", str(pol),
                "--mode", "lyapunov", "--x0", x0, "--reps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_cli_simulate_without_x0_starts_a_tabulated_model_at_0(tmp_path):
    # config.x0 echoes 0, so the report has the bytes of an explicit --x0 0
    argv = ["simulate", "--builtin", "mmn0", "--params",
            '{"lambda":1,"mu1":1.5,"mu2":3,"N":3,"G":2}', "--policy",
            str(GOLDEN / "policy_mmn0.json"), "--horizon", "10", "--reps",
            "3", "--out"]
    assert run(argv + [str(tmp_path / "default.json")]) == 0
    assert run(argv + [str(tmp_path / "zero.json"), "--x0", "0"]) == 0
    default = (tmp_path / "default.json").read_bytes()
    assert default == (tmp_path / "zero.json").read_bytes()
    assert json.loads(default)["config"]["x0"] == 0


def test_cli_simulate_redistribution_requires_x0(capsys):
    # no default start fits the masses: the flag is required, not "got 0"
    assert run(["simulate", "--builtin", "potlach", "--params",
                '{"d":2,"lambda":2.0}', "--policy",
                str(GOLDEN / "policy_potlach.json"), "--mode", "lyapunov",
                "--reps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ctmdp: error: --x0 is required for the "
                            "continuous-state builtin: a list of its 2 "
                            "masses\n")


@pytest.mark.parametrize("text, field", [
    ('"a config"', "model document must be an object"),
    ('{"config": 5}', "--model config must be an object"),
    # a report whose config has no model used to be read as the model
    # itself, and refused as "missing field kind"
    ('{"config": {"subcommand": "x"}, "report": {}}',
     "--model: missing field config.model"),
])
def test_cli_model_document_must_be_an_object(tmp_path, capsys, text, field):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert run(["validate", "--model", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_cli_simulate_rejects_policy_index_beyond_int64(tmp_path, capsys):
    pol = tmp_path / "policy.json"
    pol.write_text("[10000000000000000000000, 0, 0]")
    assert run(["simulate", "--builtin", "mmn0", "--params", MMN0,
                "--policy", str(pol)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "policy" in captured.err
    assert "Traceback" not in captured.err


TWO_ABSORBING = {
    "kind": "explicit", "states": 3,
    "actions": [[[0.0]], [[0.0]], [[0.0]]],
    "rates": [{"x": 0, "a": 0, "entries": [[1, 1.0], [2, 1.0]]},
              {"x": 1, "a": 0, "entries": []},
              {"x": 2, "a": 0, "entries": []}],
    "rewards": [{"x": 0, "a": 0, "r": 0.0}, {"x": 1, "a": 0, "r": 1.0},
                {"x": 2, "a": 0, "r": 3.0}],
}


@pytest.mark.parametrize("steps", [0, 3])
def test_cli_solve_average_multichain_exits_1_with_partial_trace(
        tmp_path, capsys, steps):
    import time
    out = tmp_path / "err.json"
    start = time.perf_counter()
    assert run(["solve-average", "--model",
                write_model(tmp_path, TWO_ABSORBING), "--steps", str(steps),
                "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["config"]["subcommand"] == "solve-average"
    assert doc["config"]["steps"] == steps
    err = doc["error"]
    assert err["type"] == "ConvergenceError"
    assert err["alpha"] == 0.0
    assert err["sweeps"] >= ctmdp.discounted.STALL_SWEEPS
    # the two absorbing states' gains 1 and 3 bound every bracket
    assert err["gain_lower"] <= 1.0 and err["gain_upper"] >= 3.0
    assert err["residual"] >= 2.0
    assert [e["alpha"] for e in err["trace"]] \
        == ([0.1 * 0.5 ** k for k in range(steps + 1)] if steps else [])
    assert all(e["sweeps"] > 0 for e in err["trace"])


def test_cli_oracle_multichain_exits_1_with_partial_state(tmp_path, capsys):
    out = tmp_path / "err.json"
    assert run(["oracle", "--model", write_model(tmp_path, TWO_ABSORBING),
                "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["config"]["subcommand"] == "oracle"
    err = doc["error"]
    assert err["type"] == "OracleError"
    assert "2 closed classes" in err["message"]
    assert (err["method"], err["policy"], err["evaluated"]) \
        == ("enumeration", [0, 0, 0], 0)


@pytest.mark.parametrize("argv, patch, error", [
    (["solve-average", "--model", "{two_absorbing}"], None,
     ctmdp.ConvergenceError),
    (["oracle", "--model", "{two_absorbing}"], None, ctmdp.OracleError),
    (["simulate", "--builtin", "mmn0", "--params", MMN0, "--policy",
      "{policy}", "--horizon", "1e4", "--reps", "3"],
     ("simulate", "MAX_JUMPS", 50), ctmdp.SimulationError),
    (["solve-discounted", "--builtin", "mmn0", "--params", MMN0, "--alpha",
      "0.05"], ("discounted", "DEFAULT_MAX_ITER", 3),
     ctmdp.ConvergenceError),
], ids=["solve_average", "oracle", "simulate", "solve_discounted"])
def test_cli_error_report_keys_are_its_fields(tmp_path, capsys, monkeypatch,
                                              argv, patch, error):
    # every field is written, a None one as null
    if patch:
        module, name, value = patch
        monkeypatch.setattr(getattr(ctmdp, module), name, value)
    pol = tmp_path / "policy.json"
    pol.write_text("[0, 0, 0]")
    files = {"{two_absorbing}": write_model(tmp_path, TWO_ABSORBING),
             "{policy}": str(pol)}
    assert run([files.get(arg, arg) for arg in argv]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == error.__name__
    assert set(err) == {"type"} | {f.name for f in dataclasses.fields(error)}


# x0 = 0 leaves at rate 4 for the absorbing state 1: the per-state
# uniformized iteration diverges there at every alpha
FAST_EXIT = {
    "kind": "explicit", "states": 2, "actions": [[[0.0]], [[0.0]]],
    "rates": [{"x": 0, "a": 0, "entries": [[1, 4.0]]},
              {"x": 1, "a": 0, "entries": []}],
    "rewards": [{"x": 0, "a": 0, "r": 0.0}, {"x": 1, "a": 0, "r": 1.0}],
}


@pytest.mark.parametrize("argv, key, value", [
    (["solve-discounted", "--alpha", "0.5"], "values", [16.0 / 9.0, 2.0]),
    (["solve-average", "--steps", "2"], "gain", 1.0)])
def test_cli_fast_exit_reference_converges_at_every_alpha(tmp_path, capsys,
                                                          argv, key, value):
    assert run(argv + ["--model", write_model(tmp_path, FAST_EXIT)]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep[key] == pytest.approx(value, abs=1e-8)


def test_cli_solve_average_tandem_converges(capsys):
    assert run(["solve-average", "--builtin", "tandem", "--params",
                '{"N":10,"G":2}']) == 0
    doc = json.loads(capsys.readouterr().out)
    rep = doc["report"]
    assert doc["config"]["steps"] == 0
    assert rep["gain_upper"] - rep["gain_lower"] <= doc["config"]["tol"]
    assert rep["gain_lower"] <= rep["gain"] <= rep["gain_upper"]
    assert rep["trace"] == [] and rep["h_lower"] is rep["h_upper"] is None
    assert rep["sweeps"] > 0


def test_cli_bd500_solution_passes_verify(capsys, monkeypatch):
    params = json.dumps({"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3,
                         "p": 2.0, "N": 500, "G": 11})
    assert run(["solve-average", "--builtin", "birth_death", "--params",
                params]) == 0
    solved = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", stdin(solved))
    assert run(["verify", "--builtin", "birth_death", "--params", params,
                "--solution", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["passed"]
    assert rep["upper"]["max_violation"] <= 5e-9
    assert rep["lower"]["max_violation"] <= 5e-9


def test_cli_stalled_bracket_reports_its_rounding_floor(tmp_path):
    out = tmp_path / "err.json"
    assert run(["solve-average", "--model",
                write_model(tmp_path, TWO_ABSORBING), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert sorted(doc["config"]["model"]) == ["kind", "sha256"]
    err = doc["error"]
    assert err["rounding_floor"] > 0
    assert f"rounding floor {err['rounding_floor']:.3e}" in err["message"]


# -- report formats 3 and 4: every input file is echoed as its sha256 -------

BIRTH_DEATH = ["--builtin", "birth_death", "--params",
               '{"lambda":1,"mu1":3,"mu2":4,"p1":0.3,"p":2.0,"N":6,"G":3}']
SOLUTION = GOLDEN / "verify_solution_birth_death.json"
POLICY = GOLDEN / "policy_birth_death.json"
# argv, with FILE for the --solution or --policy file that the test varies
ECHOED_INPUTS = {
    "verify": ["verify", *BIRTH_DEATH, "--solution", "FILE"],
    "martingale_star": ["martingale", *BIRTH_DEATH, "--solution", "FILE",
                        "--reps", "5"],
    "martingale_policy": ["martingale", *BIRTH_DEATH, "--solution",
                          str(SOLUTION), "--policy", "FILE", "--reps", "5"],
    "simulate": ["simulate", *BIRTH_DEATH, "--policy", "FILE",
                 "--horizon", "5", "--reps", "2"],
}


@pytest.mark.parametrize("name", sorted(ECHOED_INPUTS))
def test_cli_input_files_are_echoed_as_their_sha256(name, tmp_path, capsys,
                                                     monkeypatch):
    argv = ECHOED_INPUTS[name]
    key = argv[argv.index("FILE") - 1].lstrip("-")
    data = (SOLUTION if key == "solution" else POLICY).read_bytes()

    def report(path):
        assert run([str(path) if arg == "FILE" else arg for arg in argv]) == 0
        return capsys.readouterr().out

    paths = [tmp_path / "a.json", tmp_path / "other name.json",
             tmp_path / "changed.json"]
    for path, content in zip(paths, [data, data,
                                     data.replace(b" ", b"\n", 1)]):
        path.write_bytes(content)
    first, second, changed = map(report, paths)
    monkeypatch.setattr(sys, "stdin", stdin(data.decode("utf-8")))
    assert report("-") == first == second
    config = json.loads(first)["config"]
    assert config[key] == hashlib.sha256(data).hexdigest()
    assert json.loads(changed)["config"] != config
    assert str(tmp_path) not in first
    if name == "martingale_star":
        assert config["policy"] == "star"
    if name == "martingale_policy":
        assert config["solution"] \
            == hashlib.sha256(SOLUTION.read_bytes()).hexdigest()


def test_cli_same_model_at_two_paths_gives_identical_reports(tmp_path, capsys):
    first = tmp_path / "a" / "model.json"
    second = tmp_path / "b" / "other name.json"
    for path in (first, second):
        path.parent.mkdir()
        path.write_bytes((GOLDEN / "explicit_model.json").read_bytes())
    for command in ("validate", "solve-average"):
        outs = []
        for path in (first, second):
            assert run([command, "--model", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert str(tmp_path) not in outs[0]


def test_cli_explicit_report_read_back_as_model_exits_2(capsys, monkeypatch):
    assert run(["validate", "--model",
                str(GOLDEN / "explicit_model.json")]) == 0
    monkeypatch.setattr(sys, "stdin", stdin(capsys.readouterr().out))
    assert run(["solve-average", "--model", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config.model" in captured.err
    assert "model file" in captured.err


def test_cli_explicit_model_from_stdin_echoes_its_sha256(capsys,
                                                         monkeypatch):
    path = GOLDEN / "explicit_model.json"
    monkeypatch.setattr(sys, "stdin", stdin(path.read_text(encoding="utf-8")))
    assert run(["validate", "--model", "-"]) == 0
    echo = json.loads(capsys.readouterr().out)["config"]["model"]
    assert echo["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_stdin_that_is_not_utf8_exits_2(capsys, monkeypatch):
    # in a C locale stdin used to decode with surrogateescape: a byte that
    # is not UTF-8 inside a JSON string was taken, and the run exited 0
    doc = json.dumps(EXPLICIT_DOC).encode()[:-1] + b', "note": "\xff"}'
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(doc)))
    assert run(["validate", "--model", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--model stdin is not UTF-8 text" in captured.err


def queue_document(n):
    """An n-state explicit queue with three service speeds per state."""
    rates, rewards = [], []
    for x in range(n):
        for a in range(3):
            entries = [[x + 1, 1.0]] * (x + 1 < n) + [[x - 1, 1.5 + a]] * (x > 0)
            rates.append({"x": x, "a": a, "entries": entries})
            rewards.append({"x": x, "a": a, "r": -0.01 * x - 0.5 * a})
    return {"kind": "explicit", "states": n,
            "actions": [[[0.0], [1.0], [2.0]]] * n, "rates": rates,
            "rewards": rewards}


def test_cli_large_explicit_report_is_sized_to_the_report(tmp_path, capsys):
    path = write_model(tmp_path, queue_document(3000))
    assert (tmp_path / "model.json").stat().st_size > 800_000
    assert run(["solve-average", "--model", path]) == 0
    out = capsys.readouterr().out
    assert len(out.encode("utf-8")) < 200_000
    assert len(json.loads(out)["report"]["h"]) == 3000


# -- report format 5: config is the parsed command line --------------------

def test_cli_config_echoes_every_option_of_each_subcommand(tmp_path,
                                                           capsys):
    # config holds each option's dest but the output paths, with --model,
    # --builtin and --params folded into config.model where a model is read
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    model = ["--builtin", "mmn0", "--params", MMN0]
    policy = tmp_path / "policy.json"
    policy.write_text("[0, 0, 0]")
    assert run(["solve-average"] + model) == 0
    solution = tmp_path / "solution.json"
    solution.write_text(capsys.readouterr().out)
    runs = [
        ["validate"] + model + ["--checks", "drift"],
        ["describe", "--builtin", "mmn0"],
        ["solve-discounted"] + model + ["--alpha", "0.5"],
        ["solve-average"] + model,
        ["oracle"] + model,
        ["sensitivity", "--builtin", "birth_death", "--params",
         '{"lambda":1,"mu1":3,"mu2":4,"G":2}', "--levels", "5,8"],
        ["verify"] + model + ["--solution", str(solution)],
        ["martingale"] + model + ["--solution", str(solution), "--reps", "5"],
    ] + [["simulate"] + model + ["--policy", str(policy), "--mode", mode,
                                 "--horizon", "5", "--reps", "2"]
         for mode in ("average", "lyapunov", "ergodicity")]
    assert {argv[0] for argv in runs} == set(subparsers.choices)
    for argv in runs:
        assert run(argv) in (0, 1)
        config = json.loads(capsys.readouterr().out)["config"]
        dests = {action.dest for action in subparsers.choices[argv[0]]._actions
                 if action.dest != "help"} - {"out", "emit_series"}
        if argv[0] != "describe":
            dests = dests - {"builtin", "params"} | {"model"}
        assert set(config) == dests | {"subcommand"}, argv
        assert config["subcommand"] == argv[0]
