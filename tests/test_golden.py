"""Golden CLI reports: stored stdout bytes and exit status that the
current code must reproduce exactly.

* `validate --checks drift,bounds,monotone` for each tabulated
  builtin at a small level and for an explicit model that triggers every
  violation kind (captured with the pointwise loop implementation of the
  checks);
* `solve-average`, `verify` (fed the solve-average report it was
  captured with, kept as `verify_solution_<name>.json`), `oracle` and
  `simulate --mode average --horizon 50 --reps 4 --seed 1` (following the
  solved policy) for the same builtins and a valid explicit model file
  (captured with per-row rate storage, before the kernel became one CSR
  matrix; the `solve-average` and `verify` reports re-captured when the
  solver became the certified-bracket iteration, and the `oracle` reports
  when the oracle became sparse and batched, each with unchanged policies);
* `oracle` for a multichain explicit model whose winning policy has a
  closed class that state 0 cannot reach (captured while the oracle still
  found each such policy's class with its own graph search);
* `describe` for each builtin, and `validate` of the continuous-state
  redistribution process (captured before the family specs were
  gathered into one `FamilySpec` per builtin).

All of them were re-captured in report format 2 (shortest round-trip
floats); each decodes to the same values as its format-1 version. The
`solve-average` reports of explicit, mmn0, skip_free and tandem were
re-captured again when the alpha = 0 iteration gained policy-only sweeps
(modified policy iteration), with the same exit codes and policies, gains
within 8.4e-10 of the old ones and brackets within tol; birth_death kept
its bytes. Every stored `solve-average` report must also pass `verify`.

All of them were re-captured in report format 3, which echoes an explicit
model file in `config.model` as its kind and sha256, not the whole
document. Each decodes to the same values as its format-2 version except
`format_version` and, for the six reports of an explicit model file,
`config.model`; the exit codes are the same. The `verify_solution_*.json`
inputs stay in format 2, so `verify` is shown to read format-2 reports.

`REPORTS` covers the other report kinds, captured in format 3 while each
result class still wrote its own `to_dict`: `solve-discounted`, a scheduled
`solve-average` (with its trace and h envelope), a `sensitivity` run that
exits 1, `martingale` with the solution's policy and with a policy file,
`simulate --mode lyapunov` on a tabulated model and on the
continuous-state process, `simulate --mode ergodicity`, and the exit-1
error report of `solve-average` on a model with two absorbing states.

All 41 reports were re-captured in report format 4, which echoes every
input file by the sha256 of its bytes and writes every result's fields as
they are. Each decodes to the same values as its format-3 version, with
the same exit code, except `format_version` and these key paths:

* `config.solution` added: `verify_*` (5) and `martingale_*` (2);
* `config.policy` added: `simulate_*` (8); changed from the path to the
  sha256: `martingale_policy_birth_death`;
* `report.converged` dropped: `solve_average_*` (6, not the exit-1 error
  report `solve_average_two_absorbing`), and `report.h_lower` and
  `report.h_upper` added as null in the five of them run without
  `--steps`;
* `report.J` and `report.iters` renamed `report.values` and
  `report.sweeps`: `solve_discounted_mmn0`.

No path is echoed any more, so every input is passed by absolute path.

All 41 reports were re-captured in report format 5, whose config is the
parsed command line, and whose `validate` report is the library's own
reports. Each decodes to the same values as its format-4 version, with
the same exit code, except `format_version` and these key paths:

* `config.builtin` and `config.params` become `config.model`:
  `sensitivity_birth_death`;
* `config.checkpoints` and `config.x0b` added as null: `simulate_*` of
  `--mode average` (5);
* `config.x0b` added as null: `simulate_lyapunov_*` (2);
* `report.primitives` dropped: `validate_potlach` (the continuous-state
  process has no primitives check);
* `report.monotone.ok` from false to true: `validate_tandem` (an
  "unsupported" check has no failed check).

`oracle_two_absorbing`, the exit-1 error report of `oracle` on the model
with two absorbing states, was captured in format 5, before the numeric
errors became `Report`s. All 42 reports were then re-captured in report
format 6, whose error report's keys are the error class's fields, each
written. Each decodes to the same values as its format-5 version, with
the same exit code, except `format_version` and these key paths:

* `error.round` and `error.best_gain` added as null:
  `oracle_two_absorbing` (an enumeration error).

`simulate_long_birth_death`, `simulate --mode average --horizon 2000
--reps 4 --seed 1` on the birth_death case following its stored policy,
was captured in format 6 while the simulator still took one jump per
table lookup. Its replications run about 4000 jumps, so it covers the
1024-draw blocks, which the horizon-50 `simulate_*` reports never reach.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ctmdp.cli import run

GOLDEN = Path(__file__).parent / "golden"


def held(name):
    """The path of an input file kept in tests/golden."""
    return str(GOLDEN / name)


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
    "violations": ["--model", held("violations_model.json")],
}

PIPELINE_MODELS = {
    **{name: CASES[name] for name in ("birth_death", "skip_free", "tandem",
                                      "mmn0")},
    "explicit": ["--model", held("explicit_model.json")],
}
PIPELINE_COMMANDS = ("solve_average", "verify", "oracle", "simulate")
# the winning policy [0, 1, 0] has the closed classes {0, 1} and {2}, and
# only the first is reachable from state 0; 3 of the 4 policies have
# several closed classes and are evaluated one at a time
ORACLE_MODELS = {"multichain": ["--model",
                                held("multichain_model.json")]}

SPEC_REPORTS = {
    **{f"describe_{name}": ["describe", "--builtin", name]
       for name in ("birth_death", "skip_free", "tandem", "mmn0", "potlach")},
    "validate_potlach": ["validate", "--builtin", "potlach", "--params",
                         '{"d":2,"lambda":2.0}'],
}


BIRTH_DEATH_SOLUTION = ["--solution",
                        held("verify_solution_birth_death.json"),
                        "--reps", "20"]
SIMULATE = ["--reps", "20", "--seed", "1"]
REPORTS = {
    "solve_discounted_mmn0": ["solve-discounted"] + CASES["mmn0"]
    + ["--alpha", "0.5"],
    "solve_average_steps_birth_death": ["solve-average"]
    + CASES["birth_death"] + ["--steps", "3"],
    "sensitivity_birth_death": [
        "sensitivity", "--builtin", "birth_death", "--params", json.dumps(
            {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3, "p": 2.0, "G": 2}),
        "--levels", "5,8"],
    "martingale_star_birth_death": ["martingale"] + CASES["birth_death"]
    + BIRTH_DEATH_SOLUTION,
    "martingale_policy_birth_death": ["martingale"] + CASES["birth_death"]
    + BIRTH_DEATH_SOLUTION + ["--policy", held("policy_birth_death.json")],
    "simulate_lyapunov_birth_death": ["simulate"] + CASES["birth_death"]
    + ["--policy", held("policy_birth_death.json"), "--mode", "lyapunov"]
    + SIMULATE,
    "simulate_lyapunov_potlach": [
        "simulate", "--builtin", "potlach", "--params",
        '{"d":2,"lambda":2.0}', "--policy", held("policy_potlach.json"),
        "--mode", "lyapunov", "--x0", "[1.0, 2.0]"] + SIMULATE,
    "simulate_ergodicity_mmn0": ["simulate"] + CASES["mmn0"]
    + ["--policy", held("policy_mmn0.json"), "--mode", "ergodicity"]
    + SIMULATE,
    "solve_average_two_absorbing": ["solve-average", "--model",
                                    held("two_absorbing_model.json")],
    "oracle_two_absorbing": ["oracle", "--model",
                             held("two_absorbing_model.json")],
}


def golden(stem):
    return json.loads((GOLDEN / f"{stem}.json").read_text())


def validate_argv(name):
    return (["validate"] + CASES[name]
            + ["--checks", "drift,bounds,monotone"])


def pipeline_argv(command, name, tmp_path, horizon="50"):
    """argv of one pipeline command; verify reads the solve-average report
    it was captured with (`verify_solution_<name>.json`), simulate the
    policy of the stored solve-average report."""
    extra = []
    if command == "verify":
        extra = ["--solution", str(GOLDEN / f"verify_solution_{name}.json")]
    elif command == "simulate":
        solution = json.loads(golden(f"solve_average_{name}")["stdout"])
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"policy": solution["report"]["policy"]}))
        extra = ["--policy", str(path), "--mode", "average", "--horizon",
                 horizon, "--reps", "4", "--seed", "1"]
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


def test_long_simulation_matches_golden(tmp_path, capsys):
    expected = golden("simulate_long_birth_death")
    code = run(pipeline_argv("simulate", "birth_death", tmp_path, "2000"))
    assert code == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_oracle_report_matches_golden(name, capsys):
    expected = golden(f"oracle_{name}")
    code = run(["oracle"] + ORACLE_MODELS[name])
    assert code == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


@pytest.mark.parametrize("name", sorted(PIPELINE_MODELS))
def test_stored_solution_passes_verify(name, tmp_path, capsys):
    path = tmp_path / "solution.json"
    path.write_text(golden(f"solve_average_{name}")["stdout"])
    code = run(["verify"] + PIPELINE_MODELS[name] + ["--solution", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["report"]["passed"]


@pytest.mark.parametrize("stem", sorted(SPEC_REPORTS))
def test_spec_report_matches_golden(stem, capsys):
    expected = golden(stem)
    code = run(SPEC_REPORTS[stem])
    assert code == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


@pytest.mark.parametrize("stem", sorted(REPORTS))
def test_report_matches_golden(stem, capsys):
    expected = golden(stem)
    code = run(REPORTS[stem])
    assert code == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


def test_every_golden_report_is_format_6():
    docs = [json.loads(path.read_text()) for path in GOLDEN.glob("*.json")]
    reports = [json.loads(doc["stdout"]) for doc in docs if "stdout" in doc]
    assert len(reports) == (len(CASES) + len(SPEC_REPORTS) + len(ORACLE_MODELS)
                            + len(PIPELINE_MODELS) * len(PIPELINE_COMMANDS)
                            + len(REPORTS) + 1)
    assert all(rep["format_version"] == "6" for rep in reports)


def test_explicit_model_is_echoed_as_its_sha256(capsys):
    path = GOLDEN / "explicit_model.json"
    assert run(["validate", "--model", str(path)]) == 0
    echo = json.loads(capsys.readouterr().out)["config"]["model"]
    assert echo == {"kind": "explicit",
                    "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def test_verify_solutions_stay_format_2():
    # test_pipeline_report_matches_golden feeds them to verify, which so
    # reads format-2 reports
    paths = sorted(GOLDEN.glob("verify_solution_*.json"))
    assert len(paths) == len(PIPELINE_MODELS)
    assert {json.loads(p.read_text())["format_version"] for p in paths} \
        == {"2"}


def test_violations_model_covers_every_kind():
    expected = golden("validate_violations")
    report = json.loads(expected["stdout"])["report"]
    kinds = {v["check"] for v in report["primitives"]["violations"]}
    assert kinds == {"finite_rate", "offdiagonal_nonnegative",
                     "diagonal_nonpositive", "row_sum_zero", "finite_reward",
                     "stable_rates", "reward_weight_bound"}
