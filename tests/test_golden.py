"""Golden `validate` reports: the stdout bytes of
`validate --checks drift,bounds,monotone --threads 1` for each tabulated
builtin at a small level and for an explicit model that triggers every
violation kind. The files under tests/golden/ were captured with the
pointwise loop implementation of the checks; the reports must stay
byte-identical.
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


def validate_argv(name):
    return (["validate"] + CASES[name]
            + ["--checks", "drift,bounds,monotone", "--threads", "1"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_validate_report_matches_golden(name, capsys):
    expected = json.loads((GOLDEN / f"validate_{name}.json").read_text())
    code = run(validate_argv(name))
    assert code == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


def test_violations_model_covers_every_kind():
    expected = json.loads((GOLDEN / "validate_violations.json").read_text())
    report = json.loads(expected["stdout"])["report"]
    kinds = {v["check"] for v in report["primitives"]["violations"]}
    assert kinds == {"finite_rate", "offdiagonal_nonnegative",
                     "diagonal_nonpositive", "row_sum_zero", "finite_reward",
                     "stable_rates", "reward_weight_bound"}
