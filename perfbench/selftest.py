"""Self-test of the benchmark, at the tiny problem size.

For every workload and both trace modes, run.py must exit 0 and end its
output with a result object whose metrics are exactly the ones that
BENCHMARK.json names, with the same units. A copy of the benchmark in a
directory without the package sources must exit non-zero and print no
result.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, last, err = _run(ROOT, workload, trace)
            where = f"{workload} trace={trace}"
            if code != 0:
                problems.append(f"{where}: exit {code}: {err.strip()[-300:]}")
                continue
            result = json.loads(last)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                units = sorted(k for k in got if k in wanted[trace]
                               and got[k] != wanted[trace][k])
                problems.append(f"{where}: missing {missing} extra {extra} "
                                f"unit mismatch {units}")
            print(f"{where}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, last, _ = _run(bare, "solve_ladder", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or last.startswith("{"):
        problems.append(f"bare directory: exit {code}, last line {last!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
