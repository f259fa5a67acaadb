"""ctmdp benchmark: closed-loop, single-process runs of the CLI entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 40

Workloads (see workloads.py):
  solve_ladder  solve-average -> verify (solution by file), then oracle, on
                five builtin instances of 31 to 1681 states
  model_scale   validate with drift/bounds/monotone checks on large builtin
                models and on a seeded random explicit model file
  simulate      simulate (average and lyapunov modes) and martingale runs

A run sets up (import, inputs from --seed, the bd30 solve) in several fresh
processes and takes the median as the set-up time. It then runs passes of
the workload until --seconds would be exceeded and takes the median pass
time. Both are reported at nominal machine speed: a reference kernel runs
every 20 ms during each timed interval and the interval is rescaled by its
mean time (speed.py), because the CPU speed of a shared host drifts by
tens of percent over minutes; the plain wall times are printed too. With
--trace 1 it alternates untraced and traced passes and reports per-layer
metrics (plain wall times) from the traced ones, plus the tracing overhead.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}. An op fails when a CLI call exits non-zero (for `simulate --mode
lyapunov`, whose exit status 1 is its own 3-SE verdict: when the status
disagrees with the report), a report fails its gate (Monte Carlo gates at
5 SE, see workloads.py), or an exception escapes; `correct` is false only
when an output is wrong: a gain that disagrees with the oracle, a crash,
or report bytes that change between passes of the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
PIN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

def _import_ctmdp():
    """Import ctmdp from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ctmdp
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ctmdp from "
                         f"{ROOT / 'src'}: {exc}")
    if Path(ctmdp.__file__).resolve().parent != ROOT / "src" / "ctmdp":
        raise SystemExit(f"perfbench: ctmdp imported from {ctmdp.__file__}, "
                         f"not from this checkout")


def _environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit[5:]
        if commit.startswith("ref: ") and ref.exists():
            commit = ref.read_text().strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ctmdp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "source_sha256": src.hexdigest(), "seed": seed,
            "blas_threads": {k: os.environ.get(k) for k in PIN_ENV}}


def _setup_seconds(work: Path, seed: int, size: str):
    """Median time, plain and at nominal speed, of SETUP_PROBES fresh
    processes that each import ctmdp and generate the inputs. Each probe
    samples the machine's speed itself and prints what it saw."""
    import speed
    wall, scaled = [], []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-only", str(work / f"setup-{i}"),
                               "--seed", str(seed), "--size", size],
                              check=True, timeout=120, capture_output=True,
                              text=True)
        dt = time.perf_counter() - t0
        seen = json.loads(proc.stdout.strip().splitlines()[-1])
        wall.append(dt - seen["spent_s"])
        scaled.append(speed.at_nominal(wall[-1], seen["mean_kernel_s"]))
    return statistics.median(wall), statistics.median(scaled)


def _run_passes(workload, inputs, seconds, trace):
    """Run passes until the next one would overrun `seconds`. With tracing,
    passes alternate untraced / traced. Returns (passes, tracer)."""
    import spans
    from workloads import WORKLOADS, Pass

    ops = WORKLOADS[workload](inputs)
    tracer = spans.Tracer() if trace else None
    passes, op_base = [], 0
    t_start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            p = Pass(inputs, tracer if traced else None, op_base,
                     len(passes)).run(ops)
        finally:
            if traced:
                tracer.remove()
        passes.append(p)
        op_base = p.op_id
        elapsed = time.perf_counter() - t_start
        if (elapsed + p.total_s > seconds
                and len(passes) >= (2 if trace else 1)):
            return passes, tracer


def _baseline_hashes(workload: str, seed: int) -> dict:
    """Report hashes recorded at the seed commit for this workload and seed
    (full size only), keyed "instance subcommand"."""
    try:
        doc = json.loads((Path(__file__).resolve().parent / "baseline.json")
                         .read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return doc.get("report_sha256", {}).get(workload, {}).get(str(seed), {})


def _report(passes, baseline: dict):
    """Print failures, report hashes (against `baseline`) and per-call
    times; return (correct, attempted, failed)."""
    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.reasons]
    first = passes[0].hashes
    unstable = sorted({k for p in passes for k, h in p.hashes.items()
                       if first.get(k) != h})
    for (inst, why), n in Counter((r.instance, "; ".join(r.reasons))
                                  for r in failed).items():
        print(f"failed {inst} ({n} of {len(passes)} passes): {why}")
    for (inst, why), n in Counter((r.instance, "; ".join(r.notes))
                                  for r in results if r.notes).items():
        print(f"cli verdict at 3 SE {inst} ({n} of {len(passes)} passes): "
              f"{why}")
    for inst, sub in unstable:
        print(f"report bytes changed between passes: {inst} {sub}")
    for (inst, sub), h in sorted(first.items()):
        old = baseline.get(f"{inst} {sub}")
        same = "none" if old is None else ("same" if old == h else "differs")
        print(f"report_sha256 {inst} {sub} {h} baseline {same}")
    plain = [p for p in passes if not p.traced]
    for inst, sub in plain[0].call_s:
        ts = [p.call_s[(inst, sub)] for p in plain]
        print(f"call_s {inst} {sub} median {statistics.median(ts):.6f} "
              f"n {len(ts)}")
    print(f"fail_share {len(failed) / len(results):.6f} "
          f"({len(failed)} failed / {len(results)} attempted)")
    correct = not unstable and not any(r.wrong for r in results)
    return correct, len(results), len(failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["solve_ladder", "model_scale",
                                           "simulate"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny is for the self-test only")
    ap.add_argument("--setup-only", dest="setup_only", metavar="DIR",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.update(PIN_ENV)
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import speed
    if args.setup_only:
        with speed.Sampler() as sampler:
            _import_ctmdp()
            import workloads
            workloads.make_inputs(Path(args.setup_only), args.seed,
                                  args.size)
        print(json.dumps({"mean_kernel_s": sampler.mean_kernel_s(),
                          "spent_s": sampler.spent_s}))
        return 0
    _import_ctmdp()
    import workloads

    if args.workload is None:
        ap.error("--workload is required")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_wall_s, setup_s = _setup_seconds(work, args.seed, args.size)
        inputs = workloads.make_inputs(work / "inputs", args.seed, args.size)
        passes, tracer = _run_passes(args.workload, inputs, args.seconds,
                                     bool(args.trace))
        if tracer is not None:
            tracer.write(ROOT / ".bench_work" /
                         f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("env " + json.dumps(_environment(args.seed), sort_keys=True))
    baseline = (_baseline_hashes(args.workload, args.seed)
                if args.size == "full" else {})
    correct, attempted, failed = _report(passes, baseline)
    plain = [p for p in passes if not p.traced]
    pass_wall_s = statistics.median(p.total_s for p in plain)
    pass_s = statistics.median(p.scaled_total_s for p in plain)
    kernel = [k for p in plain for k in p.kernel_s]
    print(f"passes {len(passes)} ({len(plain)} untraced), pass times "
          + " ".join(f"{p.total_s:.4f}" for p in plain) + ", at nominal "
          "speed " + " ".join(f"{p.scaled_total_s:.4f}" for p in plain))
    print(f"reference kernel median of per-call means "
          f"{statistics.median(kernel):.7f} s (nominal {speed.NOMINAL_S} s, "
          f"{len(kernel)} calls)")
    for stage in workloads.STAGES[args.workload]:
        t = statistics.median(p.stage_s.get(stage, 0.0) for p in plain)
        ts = statistics.median(p.scaled_s.get(stage, 0.0) for p in plain)
        print(f"{stage}_s {t:.6f} s wall, {ts:.6f} s at nominal speed")
    print(f"pass_s {pass_wall_s:.6f} s wall, {pass_s:.6f} s at nominal speed")
    print(f"setup_s {setup_wall_s:.6f} s wall, {setup_s:.6f} s at nominal "
          "speed")
    print(f"peak_rss_mb {peak_rss_mb:.3f} MB")

    if args.trace:
        traced = statistics.median(p.scaled_total_s for p in passes
                                   if p.traced)
        instances = [name for name, _, _ in inputs.size["ladder"]]
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in tracer.metrics(instances).items()}
        metrics["trace.overhead_s"] = {"value": traced - pass_s,
                                       "unit": "s"}
        metrics["trace.overhead_share"] = {
            "value": (traced - pass_s) / pass_s, "unit": "share"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    base = name.split(".")[1]
    if base.endswith("_per_s"):
        return "1/s"
    if base.endswith("_us"):
        return "us"
    if base.endswith("_s"):
        return "s"
    if base == "report_bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
