import json

import numpy as np
import pytest

import ctmdp
from ctmdp import dumps, loads_model, model_from_dict, model_to_dict
from ctmdp.cli import run
from ctmdp.modelio import ModelFileError


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


def test_model_roundtrip():
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3,
                             "G": 2})
    m2 = model_from_dict(model_to_dict(m))
    for x in range(m.n):
        for a in range(m.n_actions(x)):
            ys1, r1 = m.kernel.row(x, a)
            ys2, r2 = m2.kernel.row(x, a)
            assert np.array_equal(ys1, ys2)
            assert np.array_equal(r1, r2)
            assert m.rewards.rate(x, a) == m2.rewards.rate(x, a)


def test_malformed_json_names_location():
    with pytest.raises(ModelFileError, match="line"):
        loads_model('{"kind": "explicit",}')


def test_missing_field_named():
    with pytest.raises(ModelFileError, match="actions"):
        model_from_dict({"kind": "explicit", "states": 1})


def test_dumps_is_deterministic_and_roundtrip_exact():
    vals = [0.1, 1 / 3, 6.0 / 13.0, 1e-300, -2.5e17]
    text = dumps({"b": vals, "a": 1, "flag": True, "none": None})
    assert text == dumps({"a": 1, "none": None, "flag": True, "b": vals})
    assert text.index('"a"') < text.index('"b"') < text.index('"flag"')
    back = json.loads(text)
    assert back["b"] == vals                  # 17 digits round-trip float64


def test_dumps_handles_numpy_types():
    doc = json.loads(dumps({"x": np.float64(0.5), "n": np.int64(3),
                            "arr": np.arange(3.0), "flag": np.bool_(True)}))
    assert doc == {"x": 0.5, "n": 3, "arr": [0.0, 1.0, 2.0], "flag": True}


def write_model(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_validate_exit_codes(tmp_path, capsys):
    assert run(["validate", "--model", write_model(tmp_path, EXPLICIT_DOC)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["ok"]
    assert out["format_version"] == "1"
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
    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(solved))
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
    (["--x0", "7"], "start state 7"),
    (["--x0", "1.7"], "--x0"),
    (["--x0", "true"], "--x0"),
    (["--x0", '"1"'], "--x0"),
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


@pytest.mark.parametrize("x0", ["99", "-1"])
def test_cli_solve_discounted_rejects_out_of_range_x0(capsys, x0):
    assert run(["solve-discounted", "--builtin", "mmn0", "--params", MMN0,
                "--alpha", "0.5", "--x0", x0]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reference state out of range" in captured.err
