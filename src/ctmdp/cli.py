"""Command-line front end: model ingestion, solving, certification, simulation.

Every report is a single JSON object {format_version, config, report}.
config is the parsed command line, built once in `run`: it echoes every
option of the subcommand, defaults included, except the output paths
(--out, --emit-series), and each input as it is read, in the one place
it is read. --model, --builtin and --params become config.model: a
builtin model document whole, with its --params, or an explicit model
file as its kind and sha256. A --solution or --policy file is echoed as
the sha256 of its bytes (`sha256sum FILE`, stdin's bytes for "-"), and
`--policy star` as "star"; --x0 JSON as parsed; a comma list (--checks,
--levels, --checkpoints) as the list read. Handlers add only what they
compute: the default --checkpoints and --x0b. No path is echoed, so a
run can be reproduced from its output and the files with those digests,
and the same bytes at two paths give the same report. Serialization is
byte-stable: sorted keys, shortest round-trip floats (report format 6).

Exit codes: 0 success, 1 check failure (failed validation or
certificate) or a `NumericError`, 2 usage or malformed input: an
argparse usage error or a `ModelError`, nothing else. Here argparse
ranges each flag and the JSON input is parsed; the library makes every
other argument check, and a `ModelError` whose `field` names its
argument (x0, checkpoints, reps, ...) is printed as that flag. The
command line's own refusals (an unreadable, non-UTF-8 or malformed JSON
input, a missing --model/--builtin, an unknown --checks name, a model
that fails validation) are `ModelError`s without a field. A
`NumericError` writes {format_version, config, error} where the report
would have gone, error its class name as `type` and all its fields.
`solve-average` exits 1 when it cannot close its gain bracket to --tol
(a stalled bracket, as on a multichain model, or the sweep budget); its
error names the stage's alpha, sweeps and residual, and carries the
running bracket and the partial trace. A simulation error names the
replication, the jumps taken, the time reached and the last state.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys

import numpy as np

from . import families, modelio, simulate, verify
from .average import (VanishingSchedule, brute_force_oracle, solve_average,
                      truncation_sensitivity)
from .discounted import solve_discounted
from .families import PotlachPolicy, PotlachProcess
from .lyapunov import (check_assumption_A, check_assumption_B,
                       check_example_conditions, check_monotonicity)
from .model import (CtmdpModel, ModelError, NumericError, StationaryPolicy,
                    require_valid, typed, validate_model)
from .modelio import dumps
from .simulate import (check_lyapunov_bound, estimate_average_reward,
                       estimate_ergodicity)
from .verify import certify_lower, certify_upper, martingale_diagnostic


class _Parser(argparse.ArgumentParser):
    """Reads "-1e-9", "-inf" or "-nan" after a flag as its value, as it
    reads "-1" and "-0.5", so that the range check names the flag;
    argparse takes any other word that starts with "-" for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)


def _ranged(kind, ok, what):
    """argparse type: kind(text), refused unless ok(value) (exit 2)."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = kind.__name__     # "invalid float value: 'x'"
    return parse


_POSITIVE = _ranged(float, lambda v: 0 < v < np.inf, "finite and > 0")
_NONNEGATIVE = _ranged(float, lambda v: 0 <= v < np.inf, "finite and >= 0")
_AT_LEAST_0 = _ranged(int, lambda v: v >= 0, "at least 0")
_AT_LEAST_1 = _ranged(int, lambda v: v >= 1, "at least 1")
_AT_LEAST_2 = _ranged(int, lambda v: v >= 2, "at least 2")
_FRACTION = _ranged(float, lambda v: 0 < v < 1, "in (0, 1)")
_SEED = _ranged(int, lambda v: 0 <= v < 2 ** 64, "in [0, 2**64)")


def _read(args, raw: str, flag: str, inline: bool = False) -> tuple:
    """(document, echo) of the JSON input `raw` of option `flag`; the echo
    replaces the option's raw value in config. Inline JSON is echoed as
    parsed. Otherwise `raw` names a file, or stdin (read once per run) for
    "-", echoed as the sha256 of the bytes read (`sha256sum FILE`); they
    are decoded as strict UTF-8, so a byte that is not UTF-8 exits 2
    naming the flag, the file and the offset."""
    text = raw
    if not inline:
        try:
            if raw != "-":
                with open(raw, "rb") as fh:
                    data = fh.read()
            else:
                if args.stdin is None:
                    args.stdin = sys.stdin.buffer.read()
                data = args.stdin
            text = data.decode("utf-8")
        except OSError as exc:
            raise ModelError(f"cannot read {raw}: {exc}") from exc
        except UnicodeDecodeError as exc:
            where = "stdin" if raw == "-" else raw
            raise ModelError(f"{flag} {where} is not UTF-8 text: {exc.reason} "
                             f"at byte {exc.start}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed JSON in {flag} at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    echo = doc if inline else hashlib.sha256(data).hexdigest()
    args.config[flag[2:]] = echo
    return doc, echo


def _comma_list(args, flag: str, kind, default=()) -> list:
    """The comma list of option `flag` (--levels, --checkpoints), each item
    read by `kind`, or `default` if the option is not given; config echoes
    the list. A value out of range, NaN included, is the library's to
    refuse."""
    raw = getattr(args, flag[2:])
    try:
        items = (list(default) if raw is None
                 else [kind(v) for v in raw.split(",")])
    except ValueError as exc:
        raise ModelError(f"{flag}: {exc}") from None
    args.config[flag[2:]] = items
    return items


def _model_document(args) -> dict:
    """The model document of --model or --builtin. Its echo replaces
    --model, --builtin and --params in config.model: an explicit document
    as its kind and `_read`'s sha256; a builtin one, which is small and
    rebuilds the model, whole, with its --params (a JSON object, inline
    or in a file). A piped report gives its config.model, which must then
    be a builtin document."""
    config = args.config
    if getattr(args, "model", None):
        doc, digest = _read(args, args.model, "--model")
        config["model"] = doc
        if isinstance(doc, dict) and "kind" not in doc and "config" in doc:
            piped = typed(doc["config"], dict, "--model config")
            if "model" not in piped:
                raise ModelError("--model: missing field config.model")
            doc = config["model"] = piped["model"]
            if isinstance(doc, dict) and doc.get("kind") == "explicit":
                raise ModelError(
                    "--model: a report's config.model is read back for a "
                    "builtin model only; pass the explicit model file itself")
        elif isinstance(doc, dict) and doc.get("kind") == "explicit":
            config["model"] = {"kind": "explicit", "sha256": digest}
    elif getattr(args, "builtin", None) is not None:
        raw = "{}" if args.params is None else args.params
        params = _read(args, raw, "--params",
                       inline=raw.strip()[:1] in ("{", "["))[0]
        doc = config["model"] = {"kind": "builtin", "name": args.builtin,
                                 "params": typed(params, dict, "--params")}
    else:
        raise ModelError("one of --model or --builtin is required")
    config.pop("builtin", None)
    config.pop("params", None)
    return doc


def _valid_tabulated_model(args):
    model = modelio.model_from_dict(_model_document(args))
    if not isinstance(model, CtmdpModel):
        raise ModelError("this subcommand needs a tabulated model; the "
                         "continuous-state builtin is simulation-only")
    require_valid(model)
    return model


def _solution(args) -> tuple:
    """The model, then the gain, relative values (one per state) and
    policy document of --solution."""
    model = _valid_tabulated_model(args)
    sol = typed(_read(args, args.solution, "--solution")[0], dict,
                "--solution")
    if "gain" not in sol and "report" in sol:
        sol = typed(sol["report"], dict, "--solution 'report'")
    for key in ("gain", "h", "policy"):
        if key not in sol:
            raise ModelError(f"solution document lacks field {key!r}")
    h = np.array(typed(sol["h"], [float], "--solution 'h'"))
    if len(h) != model.n:
        raise ModelError(f"--solution 'h' has {len(h)} entries for "
                         f"{model.n} states")
    gain = typed(sol["gain"], float, "--solution 'gain'")
    for key, value in (("h", h), ("gain", gain)):
        if not np.all(np.isfinite(value)):
            raise ModelError(f"--solution {key!r} must be finite")
    return model, gain, h, sol["policy"]


def _write(args, payload: dict) -> None:
    text = dumps(payload)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, report) -> None:
    _write(args, {"format_version": modelio.FORMAT_VERSION,
                  "config": args.config, "report": report})


def _emit_error(args, exc: NumericError) -> None:
    _write(args, {"format_version": modelio.FORMAT_VERSION,
                  "config": args.config,
                  "error": {"type": type(exc).__name__, **exc.to_dict()}})


def _emit_series(path, header, rows) -> None:
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])


# -- subcommand handlers -----------------------------------------------------

# lambdas, so that each check is looked up by its module-level name when it
# runs, and a wrapper installed on that name sees the call
_CHECKS = {
    "drift": lambda model: check_assumption_A(model),
    "bounds": lambda model: check_assumption_B(model),
    "monotone": lambda model: check_monotonicity(
        model, StationaryPolicy(choice=np.zeros(model.n, dtype=np.int64))),
}


def _cmd_validate(args) -> int:
    doc = _model_document(args)
    model = modelio.model_from_dict(doc)
    checks = args.config["checks"] = [c for c in args.checks.split(",") if c]
    for c in checks:
        if c not in _CHECKS:
            raise ModelError(f"unknown check {c!r}")
    if checks and isinstance(model, PotlachProcess):
        raise ModelError("--checks: the continuous-state builtin has no "
                         "drift, bounds or monotone check")
    report = {}
    if isinstance(model, CtmdpModel):
        report["primitives"] = validate_model(model)
    for name in checks:
        report[name] = _CHECKS[name](model)
    if doc.get("kind") == "builtin":
        report["family_conditions"] = check_example_conditions(
            doc["name"], doc.get("params", {}))
    ok = report["ok"] = all(rep.ok for rep in report.values())
    _emit(args, report)
    return 0 if ok else 1


def _cmd_describe(args) -> int:
    _emit(args, families.describe(args.builtin))
    return 0


def _cmd_solve_discounted(args) -> int:
    model = _valid_tabulated_model(args)
    _emit(args, solve_discounted(model, args.alpha, tol=args.tol, x0=args.x0))
    return 0


def _schedule(args):
    """--steps K > 0 runs the K + 1 discount steps before the alpha = 0
    stage; the default 0 runs none."""
    if args.steps == 0:
        return None
    return VanishingSchedule(alpha0=args.alpha0, ratio=args.ratio,
                             steps=args.steps)


def _cmd_solve_average(args) -> int:
    model = _valid_tabulated_model(args)
    _emit(args, solve_average(model, schedule=_schedule(args), tol=args.tol,
                              x0=args.x0))
    return 0


def _cmd_oracle(args) -> int:
    _emit(args, brute_force_oracle(_valid_tabulated_model(args)))
    return 0


def _cmd_sensitivity(args) -> int:
    rep = truncation_sensitivity(args.builtin, _model_document(args)["params"],
                                 _comma_list(args, "--levels", int),
                                 schedule=_schedule(args), tol=args.tol,
                                 x0=args.x0)
    _emit(args, rep)
    return 0 if rep.stable else 1


def _cmd_verify(args) -> int:
    model, g, h, pol_doc = _solution(args)
    f = modelio.policy_from_dict(pol_doc, model)
    upper = certify_upper(model, g, h, tol=args.tol)
    lower = certify_lower(model, g, h, f, tol=args.tol)
    passed = upper.passed and lower.passed
    _emit(args, {"upper": upper, "lower": lower, "passed": passed})
    return 0 if passed else 1


def _cmd_martingale(args) -> int:
    model, g, h, pol_doc = _solution(args)
    if args.policy != "star":
        pol_doc = _read(args, args.policy, "--policy")[0]
    f = modelio.policy_from_dict(pol_doc, model)
    rep = martingale_diagnostic(
        model, f, h, g, args.x0,
        checkpoints=_comma_list(args, "--checkpoints", float,
                                verify.DEFAULT_CHECKPOINTS),
        reps=args.reps, seed=args.seed)
    _emit(args, rep)
    return 0


def _cmd_simulate(args) -> int:
    model = modelio.model_from_dict(_model_document(args))
    x0 = _read(args, args.x0, "--x0", inline=True)[0]
    pol_doc = _read(args, args.policy, "--policy")[0]
    if isinstance(model, PotlachProcess):
        pol_doc = typed(pol_doc, dict, "--policy")
        f = PotlachPolicy(matrix=typed(pol_doc.get("matrix"), [[float]],
                                       "--policy 'matrix'"),
                          q=typed(pol_doc.get("q", [0.0] * model.d), [float],
                                  "--policy 'q'"))
        x0 = typed(x0, [float], "--x0")
        if args.mode != "lyapunov":
            raise ModelError("the continuous-state builtin supports "
                             "--mode lyapunov only")
    else:
        require_valid(model)
        f = modelio.policy_from_dict(pol_doc, model)
        x0 = typed(x0, int, "--x0 (a state index)")

    if args.mode == "average":
        rep = estimate_average_reward(model, f, x0, args.horizon, args.reps,
                                      args.seed)
        _emit(args, rep)
        if args.emit_series:
            _emit_series(args.emit_series, ["rep", "value"],
                         list(enumerate(rep.values.tolist())))
        return 0
    checkpoints = _comma_list(args, "--checkpoints", float,
                              simulate.DEFAULT_CHECKPOINTS)
    if args.mode == "lyapunov":
        rep = check_lyapunov_bound(model, f, x0, checkpoints, args.reps,
                                   args.seed)
        _emit(args, rep)
        if args.emit_series:
            _emit_series(args.emit_series, ["t", "mean", "se", "bound"],
                         zip(rep.checkpoints.tolist(), rep.means.tolist(),
                             rep.ses.tolist(), rep.bounds.tolist()))
        return 0 if rep.passed else 1
    # ergodicity: default probe u = w (or state index), starts (x0, x0 + 1)
    x0b = args.config["x0b"] = (min(model.n - 1, x0 + 1) if args.x0b is None
                                else args.x0b)
    w = model.weights()
    probe = w if model.lyapunov is not None else np.arange(model.n, dtype=float)
    rep = estimate_ergodicity(model, f, [probe], (x0, x0b), checkpoints,
                              args.reps, args.seed)
    _emit(args, rep)
    if args.emit_series:
        gaps = rep.diffs[0][0]
        _emit_series(args.emit_series, ["t", "gap"],
                     zip(rep.checkpoints.tolist(), gaps.tolist()))
    return 0


# -- parser ------------------------------------------------------------------

def _add_model_args(p):
    p.add_argument("--model", help="model JSON file, or - for stdin")
    p.add_argument("--builtin", help="builtin family name")
    p.add_argument("--params", help="builtin parameters (inline JSON or file)")


def _add_average_args(p):
    p.add_argument("--alpha0", type=_POSITIVE, default=0.1)
    p.add_argument("--ratio", type=_FRACTION, default=0.5)
    p.add_argument("--steps", type=_AT_LEAST_0, default=0,
                   help="vanishing-discount steps before the alpha = 0 "
                        "stage (default 0: none)")
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--tol", type=_POSITIVE, default=1e-8)


def _add_common(p):
    p.add_argument("--out", help="write the JSON report here (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    p.add_argument("--alpha", type=_POSITIVE, required=True)
    p.add_argument("--tol", type=_POSITIVE, default=1e-10)
    p.add_argument("--x0", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_solve_discounted)

    p = sub.add_parser("solve-average", help="optimal average gain, bracketed")
    _add_model_args(p)
    _add_average_args(p)
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
    _add_average_args(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_sensitivity)

    p = sub.add_parser("verify", help="two-sided gain certificates")
    _add_model_args(p)
    p.add_argument("--solution", required=True,
                   help="solve-average report JSON, or - for stdin")
    p.add_argument("--tol", type=_NONNEGATIVE, default=1e-6)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("martingale", help="compensated-process drift test")
    _add_model_args(p)
    p.add_argument("--solution", required=True)
    p.add_argument("--policy", default="star",
                   help="'star' for the solution policy, or a policy file")
    p.add_argument("--reps", type=_AT_LEAST_2, default=200)
    p.add_argument("--seed", type=_SEED, default=42)
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
    p.add_argument("--horizon", type=_POSITIVE, default=1e5)
    p.add_argument("--reps", type=_AT_LEAST_1, default=20)
    p.add_argument("--seed", type=_SEED, default=7)
    p.add_argument("--checkpoints", help="comma list of times")
    p.add_argument("--emit-series", dest="emit_series",
                   help="CSV path for the time/replication series")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    return ap


# one parser per process: building it costs milliseconds, parsing reuses it
_parser = functools.cache(build_parser)
# argparse's plumbing and the output paths, which config does not echo
_NOT_ECHOED = ("command", "handler", "out", "emit_series")


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    args.config = {"subcommand": args.command,
                   **{key: value for key, value in vars(args).items()
                      if key not in _NOT_ECHOED}}
    args.stdin = None            # stdin's bytes, once read
    try:
        return args.handler(args)
    except ModelError as exc:
        flag = "--" if exc.field else ""
        print(f"ctmdp: error: {flag}{exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        _emit_error(args, exc)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
