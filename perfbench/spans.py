"""Span tracer that wraps ctmdp's layer functions from outside the package.

Each target function is replaced, in every ctmdp module that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent span, op id) and, for some targets, a count taken from the call's
arguments or result. Spans stay in memory until `write`. `remove` puts
the original functions back, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict


# -- counters taken at a traced boundary: (tracer, args, result) -> None ----

def _count_sweeps(tr, args, result):
    tr.add("discounted.sweeps", result[2])


def _count_size(tr, args, result):
    rows = getattr(getattr(result, "kernel", None), "rows", None)
    if rows is not None:         # tabulated model, not a simulation process
        tr.add("model.pairs", sum(len(per_state) for per_state in rows))
        tr.add("model.nnz", sum(len(ys) for per_state in rows
                                for ys, _ in per_state))


def _count_solve(tr, args, result):
    tr.add("average.steps", len(result.trace))
    tr.add("average.unconverged", int(not result.converged))


def _count_oracle_eval(tr, args, result):
    tr.add("average.oracle_evals", 1)


def _count_cert(tr, args, result):
    tr.add("verify.cert_failed", int(not result.passed))


def _count_bytes(tr, args, result):
    tr.add("modelio.report_bytes", len(result.encode("utf-8")))


def _count_jumps(tr, args, result):
    # expected jumps = sum_x occupation(x) * exit rate under f * horizon * reps
    model, f, _, horizon, reps = args[:5]
    exit_f = [model.kernel.exit_rate(x, f[x]) for x in range(model.n)]
    tr.add("simulate.jumps_computed",
           float(result.occupation @ exit_f) * horizon * reps)


def _count_reps(tr, args, result):
    tr.add("simulate.reps", args[4])


# (module, function, span name or None for a count-only boundary, counter)
TARGETS = [
    ("families", "build", "families.build", None),
    ("model", "_flatten", "model.flatten", None),
    ("model", "validate_model", "model.validate", None),
    ("lyapunov", "check_assumption_A", "lyapunov.drift", None),
    ("lyapunov", "check_assumption_B", "lyapunov.bounds", None),
    ("lyapunov", "check_monotonicity", "lyapunov.monotone", None),
    ("lyapunov", "check_example_conditions", "lyapunov.conditions", None),
    ("discounted", "_vi_relative", "discounted.vi", _count_sweeps),
    ("average", "solve_average", "average.solve", _count_solve),
    ("average", "brute_force_oracle", "average.oracle", None),
    ("average", "_dense_q", None, _count_oracle_eval),
    ("verify", "certify_upper", "verify.certify", _count_cert),
    ("verify", "certify_lower", "verify.certify", _count_cert),
    ("verify", "martingale_diagnostic", "verify.martingale", None),
    ("simulate", "estimate_average_reward", "simulate.average", _count_jumps),
    ("simulate", "check_lyapunov_bound", "simulate.checkpoint", _count_reps),
    ("modelio", "model_from_dict", "modelio.parse", _count_size),
    ("modelio", "dumps", "modelio.dumps", _count_bytes),
]

CLI_SPAN = "cli.run"
# spans reported as self time (duration minus their child spans) ...
SELF_TIME = {"average.solve": "average.self_s",
             "modelio.parse": "modelio.parse_s", CLI_SPAN: "cli.self_s"}
# ... and those reported only as self time
SELF_ONLY = {"modelio.parse", CLI_SPAN}

# per-layer metric -> what it needs: span names and counts
LAYER_METRICS = {
    "families.build_s": ("families.build",),
    "model.flatten_s": ("model.flatten",),
    "model.validate_s": ("model.validate",),
    "model.pairs": ("modelio.parse",),
    "model.nnz": ("modelio.parse",),
    "lyapunov.drift_s": ("lyapunov.drift",),
    "lyapunov.bounds_s": ("lyapunov.bounds",),
    "lyapunov.monotone_s": ("lyapunov.monotone",),
    "lyapunov.conditions_s": ("lyapunov.conditions",),
    "discounted.vi_s": ("discounted.vi",),
    "discounted.sweeps": ("discounted.vi",),
    "discounted.sweep_us": ("discounted.vi",),
    "average.solve_s": ("average.solve",),
    "average.self_s": ("average.solve",),
    "average.steps": ("average.solve",),
    "average.unconverged": ("average.solve",),
    "average.oracle_s": ("average.oracle",),
    "average.oracle_evals": ("average._dense_q",),
    "verify.certify_s": ("verify.certify",),
    "verify.cert_failed": ("verify.certify",),
    "verify.martingale_s": ("verify.martingale",),
    "simulate.average_s": ("simulate.average",),
    "simulate.jumps_computed": ("simulate.average",),
    "simulate.jumps_per_s": ("simulate.average",),
    "simulate.checkpoint_s": ("simulate.checkpoint",),
    "simulate.reps_per_s": ("simulate.checkpoint",),
    "modelio.parse_s": ("modelio.parse",),
    "modelio.dumps_s": ("modelio.dumps",),
    "modelio.report_bytes": ("modelio.dumps",),
    "cli.self_s": (CLI_SPAN,),
}

# metrics also reported per instance on the solve ladder
PER_INSTANCE = [
    "families.build_s", "model.flatten_s", "model.validate_s", "model.pairs",
    "model.nnz", "discounted.vi_s", "discounted.sweeps", "discounted.sweep_us",
    "average.solve_s", "average.self_s", "average.steps",
    "average.unconverged", "average.oracle_s", "average.oracle_evals",
    "verify.certify_s", "verify.cert_failed", "modelio.dumps_s",
    "modelio.report_bytes", "cli.self_s",
]

# problem sizes: the largest value seen per instance, not a sum over calls
SIZE_COUNTS = {"model.pairs", "model.nnz"}


class Tracer:
    """Records spans and counts while installed; one op id per CLI chain."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = []         # [name, value, op id]
        self.ops = {}            # op id -> (pass index, instance)
        self.op = None
        self.wrapped = set()     # span and count names whose target exists
        self._stack = []
        self._patches = []

    # -- installing and removing the wrappers -------------------------------

    def install(self):
        for mod_name, attr, span, counter in TARGETS:
            try:
                mod = importlib.import_module(f"ctmdp.{mod_name}")
                original = getattr(mod, attr)
            except (ImportError, AttributeError):
                continue         # target gone: its metrics are dropped
            wrapper = self._wrap(original, span, counter)
            for holder in [m for n, m in sys.modules.items()
                           if n == "ctmdp" or n.startswith("ctmdp.")]:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))
            self.wrapped.add(span or f"{mod_name}.{attr}")
        self.wrapped.add(CLI_SPAN)

    def remove(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _wrap(self, fn, span, counter):
        tracer = self

        if span is None:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(tracer, args, result)
                return result
            return count_only

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(span):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, result)
            return result
        return traced

    # -- recording ------------------------------------------------------------

    def begin_op(self, op_id, pass_index, instance):
        self.op = op_id
        self.ops[op_id] = (pass_index, instance)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name, value):
        self.counts.append([name, value, self.op])

    def write(self, path):
        """Dump spans, counts and op table as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, (pi, inst) in sorted(self.ops.items()):
                fh.write(json.dumps({"op": op, "pass": pi,
                                     "instance": inst}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"span": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
            for name, value, op in self.counts:
                fh.write(json.dumps({"count": name, "value": value,
                                     "op": op}) + "\n")

    # -- aggregation ----------------------------------------------------------

    def layer_values(self):
        """Per traced pass: {(metric, instance): value}, summed over ops."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_pass = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            pi, inst = self.ops[op]
            dur = end - start
            if name in SELF_TIME:
                per_pass[pi][(SELF_TIME[name], inst)] += dur - child[i]
            if name not in SELF_ONLY:
                per_pass[pi][(name + "_s", inst)] += dur
        for name, value, op in self.counts:
            pi, inst = self.ops[op]
            if name in SIZE_COUNTS:
                old = per_pass[pi][(name, inst)]
                per_pass[pi][(name, inst)] = max(old, value)
            else:
                per_pass[pi][(name, inst)] += value
        return per_pass

    def metrics(self, instances):
        """Median over traced passes of each layer metric, workload total and
        per instance in `instances`. Metrics whose target is gone are
        dropped."""
        per_pass = list(self.layer_values().values())
        names = [m for m, needs in LAYER_METRICS.items()
                 if all(n in self.wrapped for n in needs)]
        out = {}
        for suffix, keep in [(None, None)] + [(i, {i}) for i in instances]:
            for m in names:
                if suffix is not None and m not in PER_INSTANCE:
                    continue
                vals = [_derive(m, p, keep) for p in per_pass]
                key = m if suffix is None else f"{m}.{suffix}"
                out[key] = statistics.median(vals) if vals else 0.0
        return out


def _derive(metric, values, keep):
    """Value of `metric` in one pass, over the instances in `keep` (all
    when None)."""
    def total(name):
        return float(sum(v for (n, inst), v in values.items()
                         if n == name and (keep is None or inst in keep)))
    if metric == "discounted.sweep_us":
        sweeps = total("discounted.sweeps")
        return total("discounted.vi_s") / sweeps * 1e6 if sweeps else 0.0
    if metric == "simulate.jumps_per_s":
        t = total("simulate.average_s")
        return total("simulate.jumps_computed") / t if t else 0.0
    if metric == "simulate.reps_per_s":
        t = total("simulate.checkpoint_s")
        return total("simulate.reps") / t if t else 0.0
    return total(metric)
