"""Golden CLI reports: stored stdout bytes and exit status that the
current code must reproduce exactly.

* `validate --checks drift,bounds,monotone` for each tabulated
  builtin at a small level and for an explicit model that triggers every
  violation kind (captured with the pointwise loop implementation of the
  checks);
* `solve-average`, `verify` (fed that solution), `oracle` and
  `simulate --mode average --horizon 50 --reps 4 --seed 1` (following the
  solved policy) for the same builtins and a valid explicit model file
  (captured with per-row rate storage, before the kernel became one CSR
  matrix).
"""

import json
from pathlib import Path

import pytest

from ctmdp.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "birth_death": ["--builtin", "birth_death", "--params", json.dumps(
        {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3, "p": 2.0, "N": 6,
         "G": 3})],
    "skip_free": ["--builtin", "skip_free", "--params", json.dumps(
        {"lambda": 1, "mu": 2, "b": 1.0, "beta": 2.0, "N": 6, "G": 3})],
    "tandem": ["--builtin", "tandem", "--params", json.dumps(
        {"N": 3, "G": 2})],
    "mmn0": ["--builtin", "mmn0", "--params", json.dumps(
        {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3, "G": 2})],
    "violations": ["--model", str(GOLDEN / "violations_model.json")],
}

PIPELINE_MODELS = {
    **{name: CASES[name] for name in ("birth_death", "skip_free", "tandem",
                                      "mmn0")},
    "explicit": ["--model", str(GOLDEN / "explicit_model.json")],
}
PIPELINE_COMMANDS = ("solve_average", "verify", "oracle", "simulate")


def golden(stem):
    return json.loads((GOLDEN / f"{stem}.json").read_text())


def validate_argv(name):
    return (["validate"] + CASES[name]
            + ["--checks", "drift,bounds,monotone"])


def pipeline_argv(command, name, tmp_path):
    """argv of one pipeline command; verify and simulate read the stored
    solve-average report (as the solution, and for its policy)."""
    extra = []
    if command == "verify":
        path = tmp_path / "solution.json"
        path.write_text(golden(f"solve_average_{name}")["stdout"])
        extra = ["--solution", str(path)]
    elif command == "simulate":
        solution = json.loads(golden(f"solve_average_{name}")["stdout"])
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"policy": solution["report"]["policy"]}))
        extra = ["--policy", str(path), "--mode", "average", "--horizon", "50",
                 "--reps", "4", "--seed", "1"]
    return [command.replace("_", "-")] + PIPELINE_MODELS[name] + extra


@pytest.mark.parametrize("name", sorted(CASES))
def test_validate_report_matches_golden(name, capsys):
    expected = golden(f"validate_{name}")
    code = run(validate_argv(name))
    assert code == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


@pytest.mark.parametrize("command", PIPELINE_COMMANDS)
@pytest.mark.parametrize("name", sorted(PIPELINE_MODELS))
def test_pipeline_report_matches_golden(command, name, tmp_path, capsys):
    expected = golden(f"{command}_{name}")
    code = run(pipeline_argv(command, name, tmp_path))
    assert code == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


def test_violations_model_covers_every_kind():
    expected = golden("validate_violations")
    report = json.loads(expected["stdout"])["report"]
    kinds = {v["check"] for v in report["primitives"]["violations"]}
    assert kinds == {"finite_rate", "offdiagonal_nonnegative",
                     "diagonal_nonpositive", "row_sum_zero", "finite_reward",
                     "stable_rates", "reward_weight_bound"}
