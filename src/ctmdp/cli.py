"""Command-line front end: model ingestion, solving, certification, simulation.

Every report is a single JSON object {format_version, config, report}
where config echoes the fully-resolved options (defaults included) so a
run can be reproduced from its own output. Serialization is byte-stable:
sorted keys, floats at 17 significant digits.

Exit codes: 0 success, 1 check failure (failed validation or
certificate) or a numeric failure, 2 usage or malformed input. A numeric
failure writes {format_version, config, error} where the report would
have gone. `solve-average` exits 1 when it cannot close its gain bracket
to --tol (a stalled bracket, as on a multichain model, or the sweep
budget); its error names the stage's alpha, sweeps and residual, and
carries the running bracket and the partial trace. A simulation error
names the replication, the jumps taken, the time reached and the last
state.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import families, modelio, verify
from .average import (OracleError, VanishingSchedule, brute_force_oracle,
                      solve_average, truncation_sensitivity)
from .discounted import ConvergenceError, solve_discounted
from .families import PotlachPolicy, PotlachProcess
from .lyapunov import (check_assumption_A, check_assumption_B,
                       check_example_conditions, check_monotonicity)
from .model import (CtmdpModel, ModelError, StationaryPolicy, typed,
                    validate_model)
from .modelio import ModelFileError, dumps
from .simulate import (SimulationError, check_lyapunov_bound,
                       estimate_average_reward, estimate_ergodicity)
from .verify import certify_lower, certify_upper, martingale_diagnostic

FORMAT_VERSION = modelio.FORMAT_VERSION


class UsageError(Exception):
    pass


def _read_text(path: str, stdin_text: dict) -> str:
    if path == "-":
        if stdin_text.get("text") is None:
            stdin_text["text"] = sys.stdin.read()
        return stdin_text["text"]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {what} at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc


def _params_arg(raw, stdin_text):
    """--params: a JSON object, inline or in a file."""
    if raw is None:
        return {}
    inline = raw.strip()[:1] in ("{", "[")
    return typed(_parse_json(raw if inline else _read_text(raw, stdin_text),
                             "--params"), dict, "--params")


def _model_document(args, stdin_text) -> dict:
    if getattr(args, "model", None):
        doc = _parse_json(_read_text(args.model, stdin_text), "--model")
        # a piped report carries the model under config
        if isinstance(doc, dict) and "kind" not in doc and "config" in doc:
            doc = typed(doc["config"], dict, "--model config").get("model", doc)
        return doc
    if getattr(args, "builtin", None):
        return {"kind": "builtin", "name": args.builtin,
                "params": _params_arg(getattr(args, "params", None),
                                      stdin_text)}
    raise UsageError("one of --model or --builtin is required")


def _resolve_model(args, stdin_text):
    doc = _model_document(args, stdin_text)
    return doc, modelio.model_from_dict(doc)


def _require_tabulated(model):
    if not isinstance(model, CtmdpModel):
        raise UsageError("this subcommand needs a tabulated model; the "
                         "continuous-state builtin is simulation-only")
    return model


def _validate_or_die(model: CtmdpModel):
    rep = validate_model(model)
    if not rep.ok:
        raise ModelFileError("model fails validation: "
                             + dumps(rep.to_dict()).strip())


def _valid_tabulated_model(args, stdin_text):
    doc, model = _resolve_model(args, stdin_text)
    _validate_or_die(_require_tabulated(model))
    return doc, model


def _solution(args, stdin_text) -> tuple:
    """Gain, relative values and policy document of --solution."""
    doc = typed(_parse_json(_read_text(args.solution, stdin_text),
                            "--solution"), dict, "--solution")
    if "gain" not in doc and "report" in doc:
        doc = typed(doc["report"], dict, "--solution 'report'")
    for key in ("gain", "h", "policy"):
        if key not in doc:
            raise UsageError(f"solution document lacks field {key!r}")
    return (typed(doc["gain"], float, "--solution 'gain'"),
            np.array(typed(doc["h"], [float], "--solution 'h'")),
            doc["policy"])


def _checkpoints_arg(raw, default):
    if raw is None:
        return list(default)
    try:
        times = [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise UsageError(f"--checkpoints: {exc}") from exc
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0):
        raise UsageError(f"--checkpoints must be finite and non-decreasing: "
                         f"{raw}")
    return times


def _write(args, payload: dict) -> None:
    text = dumps(payload)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, config: dict, report: dict) -> None:
    _write(args, {"format_version": FORMAT_VERSION, "config": config,
                  "report": report})


def _emit_error(args, exc: Exception) -> None:
    error = {"type": type(exc).__name__, "message": str(exc)}
    if hasattr(exc, "detail"):
        error.update(exc.detail())
    _write(args, {"format_version": FORMAT_VERSION,
                  "config": getattr(args, "config", None), "error": error})


def _emit_series(path, header, rows) -> None:
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, float) else v
                             for v in row])


def _base_config(args, model_doc) -> dict:
    """The resolved options; kept on args as well, so that an error report
    echoes them with whatever the handler adds."""
    args.config = {"subcommand": args.command, "model": model_doc}
    return args.config


# -- subcommand handlers -----------------------------------------------------

def _cmd_validate(args, stdin_text) -> int:
    doc, model = _resolve_model(args, stdin_text)
    checks = [c for c in (args.checks or "").split(",") if c]
    for c in checks:
        if c not in ("drift", "bounds", "monotone"):
            raise UsageError(f"unknown check {c!r}")
    config = _base_config(args, doc)
    config["checks"] = checks
    report = {}
    ok = True
    if isinstance(model, PotlachProcess):
        report["primitives"] = {"ok": True, "violations": [],
                                "note": "continuous-state generator; "
                                        "rate bound q(x) <= d by construction"}
    else:
        primitives = validate_model(model)
        report["primitives"] = primitives.to_dict()
        ok = ok and primitives.ok
        if "drift" in checks:
            rep = check_assumption_A(model)
            report["drift"] = rep.to_dict()
            ok = ok and rep.ok
        if "bounds" in checks:
            rep = check_assumption_B(model)
            report["bounds"] = rep.to_dict()
            ok = ok and rep.ok
        if "monotone" in checks:
            f = StationaryPolicy(choice=np.zeros(model.n, dtype=np.int64))
            rep = check_monotonicity(model, f)
            report["monotone"] = rep.to_dict()
            ok = ok and (rep.status == "unsupported" or rep.ok)
    if doc.get("kind") == "builtin":
        rep = check_example_conditions(doc["name"], doc.get("params", {}))
        report["family_conditions"] = rep.to_dict()
        ok = ok and rep.ok
    report["ok"] = ok
    _emit(args, config, report)
    return 0 if ok else 1


def _cmd_describe(args, stdin_text) -> int:
    schema = families.describe(args.builtin)
    _emit(args, {"subcommand": "describe", "builtin": args.builtin}, schema)
    return 0


def _cmd_solve_discounted(args, stdin_text) -> int:
    doc, model = _valid_tabulated_model(args, stdin_text)
    config = _base_config(args, doc)
    config.update({"alpha": args.alpha, "tol": args.tol, "x0": args.x0})
    sol = solve_discounted(model, args.alpha, tol=args.tol, x0=args.x0)
    _emit(args, config, sol.to_dict())
    return 0


def _schedule(args):
    """--steps K > 0 runs the K + 1 discount steps before the alpha = 0
    stage; the default 0 runs none."""
    if args.steps == 0:
        return None
    return VanishingSchedule(alpha0=args.alpha0, ratio=args.ratio,
                             steps=args.steps)


def _cmd_solve_average(args, stdin_text) -> int:
    doc, model = _valid_tabulated_model(args, stdin_text)
    schedule = _schedule(args)
    config = _base_config(args, doc)
    config.update({"alpha0": args.alpha0, "ratio": args.ratio,
                   "steps": args.steps, "x0": args.x0, "tol": args.tol})
    sol = solve_average(model, schedule=schedule, tol=args.tol, x0=args.x0)
    _emit(args, config, sol.to_dict())
    return 0


def _cmd_oracle(args, stdin_text) -> int:
    doc, model = _valid_tabulated_model(args, stdin_text)
    config = _base_config(args, doc)
    result = brute_force_oracle(model)
    _emit(args, config, result.to_dict())
    return 0


def _cmd_sensitivity(args, stdin_text) -> int:
    if not args.builtin:
        raise UsageError("sensitivity requires --builtin")
    params = _params_arg(args.params, stdin_text)
    levels = typed(_parse_json(f"[{args.levels}]", "--levels"), [int],
                   "--levels")
    schedule = _schedule(args)
    config = args.config = {
        "subcommand": "sensitivity", "builtin": args.builtin,
        "params": params, "levels": levels, "alpha0": args.alpha0,
        "ratio": args.ratio, "steps": args.steps, "x0": args.x0,
        "tol": args.tol}

    def builder(p):
        return _require_tabulated(families.build(args.builtin, p))

    rep = truncation_sensitivity(builder, params, levels, schedule=schedule,
                                 tol=args.tol, x0=args.x0)
    _emit(args, config, rep.to_dict())
    return 0 if rep.stable else 1


def _cmd_verify(args, stdin_text) -> int:
    doc, model = _valid_tabulated_model(args, stdin_text)
    g, h, pol_doc = _solution(args, stdin_text)
    f = modelio.policy_from_dict(pol_doc, model)
    upper = certify_upper(model, g, h, tol=args.tol)
    lower = certify_lower(model, g, h, f, tol=args.tol)
    config = _base_config(args, doc)
    config["tol"] = args.tol
    passed = upper.passed and lower.passed
    _emit(args, config, {"upper": upper.to_dict(), "lower": lower.to_dict(),
                         "passed": passed})
    return 0 if passed else 1


def _cmd_martingale(args, stdin_text) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    doc, model = _valid_tabulated_model(args, stdin_text)
    g, h, pol_doc = _solution(args, stdin_text)
    if args.policy == "star":
        f = modelio.policy_from_dict(pol_doc, model)
    else:
        f = modelio.policy_from_dict(
            _parse_json(_read_text(args.policy, stdin_text), "--policy"),
            model)
    checkpoints = _checkpoints_arg(args.checkpoints,
                                   verify.DEFAULT_CHECKPOINTS)
    config = _base_config(args, doc)
    config.update({"policy": args.policy, "reps": args.reps,
                   "seed": args.seed, "x0": args.x0,
                   "checkpoints": checkpoints})
    rep = martingale_diagnostic(model, f, h, g, args.x0,
                                checkpoints=checkpoints, reps=args.reps,
                                seed=args.seed)
    _emit(args, config, rep.to_dict())
    return 0


def _cmd_simulate(args, stdin_text) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    if not 0 < args.horizon < np.inf:
        raise UsageError(f"--horizon must be finite and > 0: {args.horizon}")
    doc, model = _resolve_model(args, stdin_text)
    x0 = _parse_json(args.x0, "--x0")
    pol_doc = _parse_json(_read_text(args.policy, stdin_text), "--policy")
    if isinstance(model, PotlachProcess):
        d = model.d
        pol_doc = typed(pol_doc, dict, "--policy")
        matrix = typed(pol_doc.get("matrix"), [[float]], "--policy 'matrix'")
        q = typed(pol_doc.get("q", [0.0] * d), [float], "--policy 'q'")
        if not families.stochastic(matrix, d) or len(q) != d:
            raise UsageError(f"--policy needs a {d} x {d} row-stochastic "
                             f"'matrix' and {d} weights 'q'")
        f = PotlachPolicy(matrix=matrix, q=q)
        x0 = np.array(typed(x0, [float], "--x0"))
        if len(x0) != d:
            raise UsageError(f"--x0 must list {d} masses, got {args.x0}")
        if args.mode != "lyapunov":
            raise UsageError("the continuous-state builtin supports "
                             "--mode lyapunov only")
        if not any(np.array_equal(f.matrix, m) for m in model.matrices):
            raise UsageError("--policy 'matrix' must be one of the "
                             "family's admissible 'matrices'")
        if not np.all((f.q >= 0) & (f.q <= model.qstar)):
            raise UsageError(f"--policy 'q' must satisfy 0 <= q <= qstar "
                             f"= {model.qstar.tolist()}, got {q}")
    else:
        _validate_or_die(model)
        f = modelio.policy_from_dict(pol_doc, model)
        x0 = typed(x0, int, "--x0 (a state index)")

    config = _base_config(args, doc)
    config.update({"mode": args.mode, "x0": _parse_json(args.x0, "--x0"),
                   "horizon": args.horizon, "reps": args.reps,
                   "seed": args.seed})
    if args.mode == "average":
        rep = estimate_average_reward(model, f, x0, args.horizon, args.reps,
                                      args.seed)
        _emit(args, config, rep.to_dict())
        if args.emit_series:
            _emit_series(args.emit_series, ["rep", "value"],
                         list(enumerate(rep.values.tolist())))
        return 0
    checkpoints = _checkpoints_arg(args.checkpoints,
                                   np.geomspace(0.25, 16.0, 8))
    config["checkpoints"] = checkpoints
    if args.mode == "lyapunov":
        rep = check_lyapunov_bound(model, f, x0, checkpoints, args.reps,
                                   args.seed)
        _emit(args, config, rep.to_dict())
        if args.emit_series:
            _emit_series(args.emit_series, ["t", "mean", "se", "bound"],
                         zip(rep.checkpoints.tolist(), rep.means.tolist(),
                             rep.ses.tolist(), rep.bounds.tolist()))
        return 0 if rep.passed else 1
    # ergodicity: default probe u = w (or state index), starts (x0, x0 + 1)
    w = model.weights()
    probe = w if model.lyapunov is not None else np.arange(model.n, dtype=float)
    x0b = args.x0b if args.x0b is not None else min(model.n - 1, x0 + 1)
    config["x0b"] = x0b
    rep = estimate_ergodicity(model, f, [probe], (x0, x0b), checkpoints,
                              args.reps, args.seed)
    _emit(args, config, rep.to_dict())
    if args.emit_series:
        gaps = rep.diffs[0][0]
        _emit_series(args.emit_series, ["t", "mean", "se", "bound"],
                     zip(rep.checkpoints.tolist(), gaps.tolist(),
                         [0.0] * len(gaps), [0.0] * len(gaps)))
    return 0


# -- parser ------------------------------------------------------------------

def _add_model_args(p):
    p.add_argument("--model", help="model JSON file, or - for stdin")
    p.add_argument("--builtin", help="builtin family name")
    p.add_argument("--params", help="builtin parameters (inline JSON or file)")


def _add_common(p):
    p.add_argument("--out", help="write the JSON report here (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctmdp",
        description="Average-reward CTMDP solver, verifier, and simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="model primitives and drift checks")
    _add_model_args(p)
    p.add_argument("--checks", default="",
                   help="comma list from drift,bounds,monotone")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("describe", help="builtin parameter schema")
    p.add_argument("--builtin", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_describe)

    p = sub.add_parser("solve-discounted", help="discounted value iteration")
    _add_model_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--x0", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_solve_discounted)

    p = sub.add_parser("solve-average", help="optimal average gain, bracketed")
    _add_model_args(p)
    p.add_argument("--alpha0", type=float, default=0.1)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=0,
                   help="vanishing-discount steps before the alpha = 0 "
                        "stage (default 0: none)")
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p)
    p.set_defaults(handler=_cmd_solve_average)

    p = sub.add_parser("oracle", help="brute-force optimal gain")
    _add_model_args(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("sensitivity", help="gain vs truncation level")
    p.add_argument("--builtin", required=True)
    p.add_argument("--params")
    p.add_argument("--levels", required=True, help="comma list, e.g. 20,40,80")
    p.add_argument("--alpha0", type=float, default=0.1)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=0,
                   help="vanishing-discount steps before the alpha = 0 "
                        "stage (default 0: none)")
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p)
    p.set_defaults(handler=_cmd_sensitivity)

    p = sub.add_parser("verify", help="two-sided gain certificates")
    _add_model_args(p)
    p.add_argument("--solution", required=True,
                   help="solve-average report JSON, or - for stdin")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("martingale", help="compensated-process drift test")
    _add_model_args(p)
    p.add_argument("--solution", required=True)
    p.add_argument("--policy", default="star",
                   help="'star' for the solution policy, or a policy file")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--checkpoints", help="comma list of times")
    _add_common(p)
    p.set_defaults(handler=_cmd_martingale)

    p = sub.add_parser("simulate", help="event-driven path simulation")
    _add_model_args(p)
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.add_argument("--mode", choices=["average", "lyapunov", "ergodicity"],
                   default="average")
    p.add_argument("--x0", default="0", help="start state (JSON)")
    p.add_argument("--x0b", type=int, default=None,
                   help="second start for ergodicity runs")
    p.add_argument("--horizon", type=float, default=1e5)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--checkpoints", help="comma list of times")
    p.add_argument("--emit-series", dest="emit_series",
                   help="CSV path for the time/replication series")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    stdin_text = {"text": None}
    try:
        return args.handler(args, stdin_text)
    except (UsageError, ModelError) as exc:
        print(f"ctmdp: error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, OracleError, SimulationError) as exc:
        _emit_error(args, exc)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
