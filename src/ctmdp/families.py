"""Builtin parametric model families, one `FamilySpec` each in `BUILTINS`.

`resolve` is the only reader of raw params. A builder takes resolved params
and returns a `CountableFamily`, its raw rows and Lyapunov data, which only
`build` truncates at N (or the continuous-state process, a simulator).
"""

from __future__ import annotations

import math
import operator
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import (CountableFamily, LyapunovData, ModelError, label_rows,
                    pairs, truncate, typed)

DEFAULT_GRID = 11


@dataclass(frozen=True)
class Param:
    """One parameter: JSON type (as `model.typed` reads it; a nested object
    lists its `fields`), default (None if required; a function of the params
    resolved before it) and range (`ok(value, resolved)`, stated by `rule`)."""

    name: str
    kind: object = float
    default: object = None
    ok: Optional[Callable] = None
    rule: str = ""
    fields: tuple = ()


@dataclass(frozen=True)
class FamilySpec:
    """Everything known about one builtin family."""

    name: str
    params: tuple              # Param, in resolution order
    build: Callable            # params -> family or process; `build` truncates
    conditions: Callable       # resolved params -> [(name, slack, detail)]
    condition_text: tuple      # the conditions as `describe` lists them
    notes: dict = field(default_factory=dict)   # more describe-only text


def _cmp(op: str, bound) -> dict:
    """Range `op bound`: a number, or the value of the param so named."""
    cmp = operator.gt if op == ">" else operator.ge
    return {"rule": f"{op} {bound}",
            "ok": lambda v, s: cmp(v, s.get(bound, bound))}


def _one_of(*choices) -> dict:
    return {"rule": "one of " + ", ".join(choices),
            "ok": lambda v, s: v in choices}


_UNIT = {"rule": "in [0, 1]", "ok": lambda v, s: 0 <= v <= 1}


def _grid_params(N: int, N_min: int, G: int) -> tuple:
    return (Param("N", int, N, **_cmp(">=", N_min)),
            Param("G", int, G, **_cmp(">=", 1)))


def _finite(value) -> bool:
    """Whether every number in `value`, list elements included, is finite."""
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def resolve(spec: FamilySpec, params) -> dict:
    """`params` typed, defaulted and range-checked against `spec`, every
    number finite; raises ModelError naming the family and the field."""
    def walk(fields, raw, prefix, outer):
        raw = typed(raw, dict, f"{spec.name}: {prefix[:-1] or 'params'}")
        unknown = [key for key in raw if key not in {p.name for p in fields}]
        if unknown:
            raise ModelError(
                f"{spec.name}: unknown field {prefix}{unknown[0]}")
        got = ChainMap({}, outer)     # resolved so far, outer levels too
        for p in fields:
            where = f"{spec.name}: {prefix}{p.name}"
            if p.fields:
                value = walk(p.fields, raw.get(p.name, {}),
                             f"{prefix}{p.name}.", got)
            elif p.name in raw:
                value = typed(raw[p.name], p.kind, where)
            elif p.default is None:
                raise ModelError(f"{where} is required")
            else:
                value = p.default(got) if callable(p.default) else p.default
            if not _finite(value):
                raise ModelError(f"{where} must be finite, got {value!r}")
            if p.ok is not None and not p.ok(value, got):
                raise ModelError(f"{where} must be {p.rule}, got {value!r}")
            got.maps[0][p.name] = value
        return got.maps[0]
    return walk(spec.params, params, "", {})


def _grid(lo: float, hi: float, G: int) -> list:
    return [lo] if G == 1 else list(np.linspace(lo, hi, G))


def _linear_weights(labels) -> tuple:
    """w = x + 1 and w' = (x + 1)(x + 2) of the 1-D labels (x,)."""
    x = label_rows(labels, 1)[:, 0]
    return x + 1.0, (x + 1.0) * (x + 2.0)


def _linear_lyapunov(lam, mu1, mu2, M):
    """Lyapunov data of a 1-D queue with arrivals lam and service in
    [mu1, mu2] per customer, on w = x + 1 and w' = (x + 1)(x + 2)."""
    def lyapunov(labels):
        w, wp = _linear_weights(labels)
        return LyapunovData(w=w, c=0.5 * (mu1 - lam) if mu1 > lam else 1e-12,
                            b=mu1 + lam, M=M, M_q=mu2 + lam, wprime=wp,
                            cprime=6.0 * lam, bprime=0.0, Mprime=mu2 + lam)
    return lyapunov


# -- controlled birth-death system -------------------------------------------

RC_KINDS = ("zero", "linear", "quadratic")


def _rc_fn(rc: dict, mu2: float):
    """Control cost r_c(x, a) of a named spec and its growth constant M~
    (r_c <= M~ (x + 1) for kappa >= 0 and actions a <= mu2)."""
    kappa = rc["kappa"]
    return {"zero": ((lambda x, a: 0.0), 0.0),
            "linear": ((lambda x, a: kappa * a * x), kappa * mu2),
            "quadratic": ((lambda x, a: kappa * a * a), kappa * mu2 * mu2),
            }[rc["kind"]]


def _slots(*columns) -> np.ndarray:
    """The per-pair columns (arrays or scalars) side by side, (P, K)."""
    return np.stack(np.broadcast_arrays(*columns), axis=1)


def _first_max(start, values: np.ndarray):
    """max(start, *values) as Python folds it: the largest element (a numpy
    scalar) if one exceeds start, else start; a NaN never wins. (No value
    passed here is -0.0, so the order of equal maxima does not matter.)"""
    above = values[values > start]
    return above.max() if len(above) else start


def _birth_death(s: dict) -> CountableFamily:
    """Controlled birth-death population: constant birth rate, chosen death
    rate a in [mu1, mu2], deaths of size one or two with split (p2, p1)."""
    lam, mu1, mu2, p1, p = (s[k] for k in ("lambda", "mu1", "mu2", "p1", "p"))
    p2 = 1.0 - p1
    rc, M_tilde = _rc_fn(s["rc"], mu2)
    acts = tuple((a,) for a in _grid(mu1, mu2, s["G"]))

    def entries(X, A):
        x, a = X[:, 0], A[:, 0]
        # a death (the whole rate a from state 1), a birth, a double death
        return (_slots(x - 1, x + 1, x - 2)[:, :, None],
                _slots(np.where(x == 1, a, p2 * a * x),
                       np.where(x == 0, lam, lam * x), p1 * a * x),
                _slots(x >= 1, True, (x >= 2) & (p1 > 0)))

    return CountableFamily(
        dim=1,
        actions=lambda lab: acts,
        entries=entries,
        reward=lambda X, A: p * X[:, 0] - rc(X[:, 0], A[:, 0]),
        lyapunov=_linear_lyapunov(lam, mu1, mu2, p + M_tilde + 1e-12),
    )


def _birth_death_conditions(s: dict) -> list:
    # E3: named control-cost specs are continuous in a; check the
    # linear-growth envelope of sup_a |r_c(x, a)| = r_c(x, mu2) on a
    # state sample
    rc, _ = _rc_fn(s["rc"], s["mu2"])
    xs = np.arange(0, 201)
    cstar = np.array([rc(x, s["mu2"]) for x in xs.tolist()], dtype=float)
    # strict inequality wanted; any larger M~ works
    m_tilde = float(np.max(cstar / (xs + 1.0))) + 1.0
    return [("E1", s["mu1"] - s["lambda"], {}),
            ("E2", s["mu1"] / (2.0 * s["mu2"]) - s["p1"], {}),
            ("E3", float(np.min(m_tilde * (xs + 1.0) - cstar)),
             {"M_tilde": m_tilde})]


# -- upwardly skip-free process (catastrophes of size one and two) -----------

def _skip_free(s: dict) -> CountableFamily:
    """Birth-death process with controlled immigration a1 in [0, b] and
    catastrophe intensity d(x, a2) = 2*a2*x, a2 in [b, beta]."""
    lam, mu, tau, p, q1, q2, kappa_c, gamma2 = (s[k] for k in (
        "lambda", "mu", "tau", "p", "q1", "q2", "kappa_c", "gamma2"))
    a1_grid = _grid(0.0, s["b"], s["G"])
    a2_grid = _grid(s["b"], s["beta"], s["G"])
    at_zero = tuple((a1, 0.0) for a1 in a1_grid)
    acts = tuple((a1, a2) for a1 in a1_grid for a2 in a2_grid)

    def split(X, A):
        """x, a1, the catastrophe intensity d and gamma2_x of each pair."""
        x, a1, a2 = X[:, 0], A[:, 0], A[:, 1]
        return (x, a1, np.where(x == 0, 0.0, 2.0 * a2 * x),
                np.where(x <= 1, 0.0, gamma2))

    def entries(X, A):
        x, a1, d, g2 = split(X, A)
        up = lam * x + a1
        dn1 = mu * x + d * (1.0 - g2)
        return (_slots(x + 1, x - 1, x - 2)[:, :, None],
                _slots(up, dn1, d * g2),
                _slots(up > 0, dn1 > 0, g2 > 0))    # dn1 = 0 at x = 0

    def reward(X, A):
        x, a1, d, g2 = split(X, A)
        cost = np.where(x == 0, 0.0, kappa_c * A[:, 1] * x)
        return tau * a1 - cost - p * d + q1 * (1.0 - g2) * d + q2 * g2 * d

    def lyapunov(labels):
        # constants fitted on the truncation: the defining inequalities are
        # then re-checked exhaustively by the drift module
        w, wp = _linear_weights(labels)
        c = 0.5 * (mu - lam) if mu > lam else 1e-12
        _, X, A = pairs(fam, labels)
        b_fit, M, M_q, cprime, Mprime = _fit_constants(
            X[:, 0], *entries(X, A), reward(X, A), c)
        return LyapunovData(w=w, c=c, b=max(b_fit, 0.0) + 1e-9, M=M + 1e-9,
                            M_q=M_q + 1e-9, wprime=wp, cprime=cprime + 1e-9,
                            bprime=0.0, Mprime=Mprime + 1e-9)

    fam = CountableFamily(dim=1, actions=lambda lab: acts if lab[0] else
                          at_zero, entries=entries, reward=reward,
                          lyapunov=lyapunov)
    return fam


def _fit_constants(x, targets, rates, present, r, c):
    """Smallest (b, M, M_q, c', M') satisfying the Lyapunov conditions on
    the raw (untruncated) 1-D rows of the pairs at states x, with w = x + 1
    and w' = (x+1)(x+2); each row's diagonal is implied by its sum. The
    sums add one slot at a time in entry order, from 0.0, and the maxima
    fold over the pairs in order, as a scan of the rows would."""
    w, wp = x + 1.0, (x + 1.0) * (x + 2.0)
    t = targets[:, :, 0]
    rates = np.where(present, rates, 0.0)    # an absent slot adds +-0.0
    step_w = rates * ((t + 1.0) - w[:, None])
    step_wp = rates * ((t + 1.0) * (t + 2.0) - wp[:, None])
    drift_w = drift_wp = q = 0.0
    for k in range(rates.shape[1]):
        drift_w = drift_w + step_w[:, k]
        drift_wp = drift_wp + step_wp[:, k]
        q = q + rates[:, k]
    return (_first_max(-np.inf, drift_w + c * w),
            _first_max(-np.inf, np.abs(r) / w), _first_max(0.0, q / w),
            _first_max(1e-12, drift_wp / wp), _first_max(1e-12, q * w / wp))


def _skip_free_conditions(s: dict) -> list:
    lam, mu, b, beta, gamma2 = (s[k] for k in (
        "lambda", "mu", "b", "beta", "gamma2"))
    # F1 ratio: gamma2_{x+1} <= inf_{a2} (d(x,a2) + mu x)/d(x+1,a2) with
    # the builtin d(x, a2) = 2 a2 x, for x >= 1 (so gamma2_{x+1} = gamma2)
    ratio = min((2.0 * a2 * x + mu * x) / (2.0 * a2 * (x + 1))
                for x in range(1, 201) for a2 in (b, beta))
    inf_term = min(2.0 * a2 * x * (1.0 + (0.0 if x <= 1 else gamma2))
                   for x in range(1, 201) for a2 in (b, beta))
    # F3: named forms are continuous; growth constants exist by
    # construction (sup_a2 d = 2 beta x <= 2 beta (x+1), same for cost)
    return [("F1_drift", mu - lam, {}), ("F1_ratio", ratio - gamma2, {}),
            ("F2", lam - mu + inf_term - b, {}),
            ("F3", 0.0, {"L1": 2.0 * beta})]


# -- two M/M/1 queues in tandem ----------------------------------------------

TANDEM_SIGMA1 = 1.06
TANDEM_SIGMA2 = 1.03
TANDEM_GAMMA = 0.4
TANDEM_BETA1 = 1.5
TANDEM_BETA2 = 0.3


def tandem_weight(x1, x2) -> np.ndarray:
    """s1^(x1-1) + s2^(x1+x2-1) + gamma s1^(-beta1 (x1-1))
    s2^(-beta2 (x1+x2-1)) at each (x1, x2), as an array of their shape.
    Each distinct power is taken once by Python's float `**` and looked
    up, and the rest is numpy's elementwise * and +, so every weight has
    the bits of the scalar expression."""
    def power(base, scale, e):
        values, at = np.unique(e, return_inverse=True)
        return np.array([base ** (scale * v) for v in values.tolist()]
                        )[at.reshape(e.shape)]

    e1 = np.asarray(x1, dtype=np.int64) - 1
    e2 = e1 + x2
    return (power(TANDEM_SIGMA1, 1, e1) + power(TANDEM_SIGMA2, 1, e2)
            + TANDEM_GAMMA * power(TANDEM_SIGMA1, -TANDEM_BETA1, e1)
            * power(TANDEM_SIGMA2, -TANDEM_BETA2, e2))


def _tandem(s: dict) -> CountableFamily:
    """Two exponential queues in series, unit arrival rate, controlled
    service rates (a1, a2); reward must come from a bounded named spec."""
    throughput = s["reward"]["kind"] == "throughput"
    c1, c2, cap = (s["reward"][k] for k in ("c1", "c2", "cap"))

    def reward(X, A):
        if throughput:
            return (A[:, 1] * np.where(X[:, 1] > 0, 1.0, 0.0)
                    - c1 * A[:, 0] - c2 * A[:, 1])
        held = (X[:, 0] + X[:, 1]).astype(np.float64)
        return -np.where(cap < held, cap, held)      # min(held, cap)

    g1 = _grid(s["mu1"], s["mu1star"], s["G"])
    g2 = _grid(s["mu2"], s["mu2star"], s["G"])
    acts = tuple((a1, a2) for a1 in g1 for a2 in g2)

    def entries(X, A):
        # an arrival, a service at queue 1, a service at queue 2
        return (np.stack([X + (1, 0), X + (-1, 1), X + (0, -1)], axis=1),
                _slots(1.0, A[:, 0], A[:, 1]),
                _slots(True, X[:, 0] > 0, X[:, 1] > 0))

    def lyapunov(labels):
        X = label_rows(labels, 2)
        w = tandem_weight(X[:, 0], X[:, 1])
        # |r| at the lowest and the highest action of each state, in turn
        r = np.abs(reward(np.repeat(X, 2, axis=0),
                          np.tile([acts[0], acts[-1]], (len(labels), 1))))
        sup_r = float(_first_max(r[0], r[1:]))
        # an arrival at the empty system raises w by ~0.0453, so a small
        # positive offset is required for the pointwise drift inequality
        return LyapunovData(w=w, c=0.002, b=0.0501,
                            M=max(sup_r, 1e-9) + 1e-9,
                            M_q=(1.0 + s["mu1star"] + s["mu2star"])
                            / float(np.min(w)) + 1e-9)

    return CountableFamily(dim=2, actions=lambda lab: acts, entries=entries,
                           reward=reward, lyapunov=lyapunov)


# -- M/M/N/0 loss system -----------------------------------------------------

def _mmn0(s: dict) -> CountableFamily:
    """Erlang loss queue with controlled service rate mu in [mu1, mu2];
    intrinsically finite on {0..N}, no truncation artifact."""
    lam, mu1, mu2, N = s["lambda"], s["mu1"], s["mu2"], s["N"]
    p, kappa = s["reward"]["p"], s["reward"]["kappa"]
    acts = tuple((m,) for m in _grid(mu1, mu2, s["G"]))

    def entries(X, A):
        x = X[:, 0]
        return (_slots(x + 1, x - 1)[:, :, None], _slots(lam, A[:, 0] * x),
                _slots(x < N, x > 0))

    return CountableFamily(
        dim=1, actions=lambda lab: acts if lab[0] else ((0.0,),),
        entries=entries,
        reward=lambda X, A: p * X[:, 0] - kappa * A[:, 0] * X[:, 0],
        lyapunov=_linear_lyapunov(lam, mu1, mu2, p + kappa * mu2 + 1e-12))


# -- continuous-state mass-redistribution (Potlach) process ------------------

def stochastic(m, d: int) -> bool:
    """Whether `m` (nested lists or an array) is d x d and row-stochastic."""
    if len(m) != d or any(len(row) != d for row in m):
        return False
    m = np.asarray(m, dtype=np.float64)
    return not np.any(m < 0) and np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12


@dataclass(frozen=True)
class PotlachPolicy:
    """Fixed redistribution matrix and per-component cost weights."""

    matrix: np.ndarray   # d x d stochastic
    q: np.ndarray        # component weights, in [0, q*]

    def __post_init__(self):
        for name in ("matrix", "q"):
            try:
                value = np.asarray(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError):
                raise ModelError(f"policy {name!r} must be a rectangular "
                                 f"array of numbers", field="policy") from None
            object.__setattr__(self, name, value)
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelError("policy 'matrix' must be square", field="policy")
        if not stochastic(m, len(m)):
            raise ModelError("policy 'matrix' must be row-stochastic",
                             field="policy")


@dataclass(frozen=True)
class PotlachProcess:
    """Simulation generator for the mass-redistribution jump process.

    Each of the d components fires at unit rate; on an event at component
    i, the mass x_i is rescaled by an Exponential(lam) draw and spread
    over the components by row i of the policy matrix.
    """

    d: int
    lam: float               # > 1, for a positive drift constant
    matrices: tuple          # admissible redistribution matrices
    qstar: np.ndarray        # nonnegative upper bounds for the cost weights

    @property
    def total_rate(self) -> float:
        # per-event jump-rate bound q(x) <= d, by construction
        return float(self.d)

    @property
    def drift_constant(self) -> float:
        return (self.lam - 1.0) / self.lam

    def check_policy(self, policy: PotlachPolicy) -> None:
        """ModelError unless `policy` is admissible (`matrices`, `qstar`)."""
        if not isinstance(policy, PotlachPolicy):
            raise ModelError("policy must be a PotlachPolicy", field="policy")
        if not any(np.array_equal(policy.matrix, m) for m in self.matrices):
            raise ModelError("policy 'matrix' must be one of the family's "
                             "admissible 'matrices'", field="policy")
        q = policy.q
        if q.shape != (self.d,) or not np.all((q >= 0) & (q <= self.qstar)):
            raise ModelError(f"policy 'q' must satisfy 0 <= q <= qstar = "
                             f"{self.qstar.tolist()}, got {q.tolist()}",
                             field="policy")

    def redistribute(self, x, policy: PotlachPolicy, i, y) -> np.ndarray:
        """The redistribution map on a batch of states x (R, d): in row r,
        component i[r] fires and its mass y[r] * x[r, i[r]] is spread by
        row i[r] of the policy matrix."""
        rows = np.arange(len(x))
        moved = y * x[rows, i]
        x = x.copy()
        x[rows, i] = 0.0
        x += moved[:, None] * policy.matrix[i]
        return x


BUILTINS = {spec.name: spec for spec in (
    FamilySpec(
        "birth_death",
        (Param("lambda", **_cmp(">", 0)), Param("mu1", **_cmp(">", 0)),
         Param("mu2", **_cmp(">", "mu1")), Param("p1", default=0.0, **_UNIT),
         Param("p", default=1.0),
         Param("rc", dict, fields=(
             Param("kind", str, "zero", **_one_of(*RC_KINDS)),
             Param("kappa", default=0.0))),
         *_grid_params(30, 3, DEFAULT_GRID)),
        _birth_death, _birth_death_conditions,
        ("E1: mu1 > lambda", "E2: p1 <= mu1/(2*mu2)",
         "E3: control cost bounded by Mtilde*(x+1)"),
        {"rc_specs": list(RC_KINDS)}),
    FamilySpec(
        "skip_free",
        (Param("lambda", **_cmp(">", 0)), Param("mu", **_cmp(">", 0)),
         Param("b", **_cmp(">", 0)), Param("beta", **_cmp(">", "b")),
         Param("tau", default=1.0), Param("p", default=1.0),
         Param("q1", default=0.5), Param("q2", default=0.5),
         Param("kappa_c", default=0.0),
         Param("gamma2", default=lambda s: min(
             1.0, 0.5 + s["mu"] / (4.0 * s["beta"])), **_UNIT),
         *_grid_params(30, 3, DEFAULT_GRID)),
        _skip_free, _skip_free_conditions,
        ("F1: mu > lambda and catastrophe-split ratio bound",
         "F2: b <= lambda - mu + inf{d + gamma2*d}",
         "F3: continuity and linear growth bounds")),
    FamilySpec(
        "tandem",
        (Param("mu1", default=3.0, **_cmp(">=", 3.0)),
         Param("mu1star", default=lambda s: s["mu1"] + 1.0,
               **_cmp(">", "mu1")),
         Param("mu2", default=2.0, **_cmp(">=", 2.0)),
         Param("mu2star", default=lambda s: s["mu2"] + 1.0,
               **_cmp(">", "mu2")),
         *_grid_params(10, 2, 2),
         Param("reward", dict, fields=(
             Param("kind", str, "throughput",
                   **_one_of("throughput", "holding_bounded")),
             Param("c1", default=0.0), Param("c2", default=0.0),
             Param("cap", default=lambda s: float(2 * s["N"]))))),
        _tandem,
        lambda s: [("service1_floor", s["mu1"] - 3.0, {}),
                   ("service2_floor", s["mu2"] - 2.0, {})],
        ("mu1 >= 3", "mu2 >= 2", "bounded reward")),
    FamilySpec(
        "mmn0",
        (Param("lambda", **_cmp(">", 0)), Param("mu1", **_cmp(">", 0)),
         Param("mu2", **_cmp(">", "mu1")), *_grid_params(2, 1, DEFAULT_GRID),
         Param("reward", dict, fields=(Param("p", default=1.0),
                                       Param("kappa", default=0.0)))),
        _mmn0, lambda s: [("stability", s["mu1"] - s["lambda"], {})],
        ("mu1 > lambda",)),
    FamilySpec(
        "potlach",
        (Param("d", int, 2, **_cmp(">=", 1)),
         Param("lambda", **_cmp(">", 1)),
         Param("matrices", [[[float]]],
               lambda s: [[[1.0 / s["d"]] * s["d"]] * s["d"]],
               lambda v, s: all(stochastic(m, s["d"]) for m in v),
               "a list of d x d row-stochastic matrices"),
         Param("qstar", [float], lambda s: [1.0] * s["d"],
               lambda v, s: len(v) == s["d"] and min(v) >= 0,
               "d nonnegative numbers")),
        lambda s: PotlachProcess(s["d"], s["lambda"], tuple(
            np.array(m) for m in s["matrices"]), np.array(s["qstar"])),
        lambda s: [("drift_positive", s["lambda"] - 1.0, {})],
        ("lambda > 1",),
        {"note": "simulation-only; no optimization over its policy class"}),
)}


def spec(name: str) -> FamilySpec:
    if name not in BUILTINS:
        raise ModelError(f"unknown builtin family {name!r}")
    return BUILTINS[name]


def build(name: str, params: dict):
    """Builtin `name`: its family truncated at N, or the process."""
    family = spec(name)
    s = resolve(family, params)
    built = family.build(s)
    if not isinstance(built, CountableFamily):
        return built
    # finite params can overflow a rate; validate_model reports it
    with np.errstate(over="ignore", invalid="ignore"):
        return truncate(built, s["N"])


def describe(name: str) -> dict:
    """Parameter schema and the lettered conditions checked per family."""
    family = spec(name)
    return {"params": [p.name for p in family.params],
            "conditions": list(family.condition_text), **family.notes}
