"""Builtin parametric model families.

Each builder returns a validated `CtmdpModel` on a truncated state space
(or, for the continuous-state redistribution process, a simulation
generator), with the Lyapunov data pre-populated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import (CountableFamily, CtmdpModel, LyapunovData, ModelError,
                    truncate)

DEFAULT_GRID = 11


def _grid(lo: float, hi: float, G: int) -> list:
    if G < 1:
        raise ModelError("action grid needs at least one point")
    if G == 1:
        return [lo]
    return list(np.linspace(lo, hi, G))


# -- controlled birth-death system -------------------------------------------

def _rc_fn(spec: dict, mu2: float):
    """Control cost r_c(x, a) of a named spec and its growth constant M~
    (r_c <= M~ (x + 1) for kappa >= 0 and actions a <= mu2)."""
    kind = spec.get("kind", "zero")
    kappa = float(spec.get("kappa", 0.0))
    if kind == "zero":
        return (lambda x, a: 0.0), 0.0
    if kind == "linear":
        return (lambda x, a: kappa * a * x), kappa * mu2
    if kind == "quadratic":
        return (lambda x, a: kappa * a * a), kappa * mu2 * mu2
    raise ModelError(f"unknown control-cost spec {kind!r}")


def build_birth_death(params: dict) -> CtmdpModel:
    """Controlled birth-death population: constant birth rate, chosen death
    rate a in [mu1, mu2], deaths of size one or two with split (p2, p1)."""
    lam = float(params["lambda"])
    mu1 = float(params["mu1"])
    mu2 = float(params["mu2"])
    p1 = float(params.get("p1", 0.0))
    p = float(params.get("p", 1.0))
    rc_spec = dict(params.get("rc", {"kind": "zero"}))
    N = int(params.get("N", 30))
    G = int(params.get("G", DEFAULT_GRID))
    if not (lam > 0 and mu2 > mu1 > 0):
        raise ModelError("need lambda > 0 and mu2 > mu1 > 0")
    if not (0 <= p1 <= 1):
        raise ModelError("p1 must lie in [0, 1]")
    if N < 3:
        raise ModelError("birth-death truncation needs N >= 3")
    p2 = 1.0 - p1
    rc, M_tilde = _rc_fn(rc_spec, mu2)
    grid = _grid(mu1, mu2, G)

    def entries(lab, act):
        (x,) = lab
        (a,) = act
        if x == 0:
            return [((1,), lam)]
        if x == 1:
            return [((0,), a), ((2,), lam)]
        out = [((x - 1,), p2 * a * x), ((x + 1,), lam * x)]
        if p1 > 0:
            out.append(((x - 2,), p1 * a * x))
        return out

    def lyapunov(labels):
        w = np.array([x + 1.0 for (x,) in labels])
        wp = np.array([(x + 1.0) * (x + 2.0) for (x,) in labels])
        return LyapunovData(w=w, c=0.5 * (mu1 - lam) if mu1 > lam else 1e-12,
                            b=mu1 + lam, M=p + M_tilde + 1e-12,
                            M_q=mu2 + lam, wprime=wp, cprime=6.0 * lam,
                            bprime=0.0, Mprime=mu2 + lam)

    fam = CountableFamily(
        dim=1,
        actions=lambda lab: [(a,) for a in grid],
        entries=entries,
        reward=lambda lab, act: p * lab[0] - rc(lab[0], act[0]),
        name="birth_death",
        params={"lambda": lam, "mu1": mu1, "mu2": mu2, "p1": p1, "p": p,
                "rc": rc_spec, "N": N, "G": G},
        lyapunov=lyapunov,
        grid_meta={"interval": [mu1, mu2], "G": G},
        min_level=3,
    )
    return truncate(fam, N)


# -- upwardly skip-free process (catastrophes of size one and two) -----------

def build_skip_free(params: dict) -> CtmdpModel:
    """Birth-death process with controlled immigration a1 in [0, b] and
    catastrophe intensity d(x, a2) = 2*a2*x, a2 in [b, beta]."""
    lam = float(params["lambda"])
    mu = float(params["mu"])
    b = float(params["b"])
    beta = float(params["beta"])
    tau = float(params.get("tau", 1.0))
    p = float(params.get("p", 1.0))
    q1 = float(params.get("q1", 0.5))
    q2 = float(params.get("q2", 0.5))
    kappa_c = float(params.get("kappa_c", 0.0))
    N = int(params.get("N", 30))
    G = int(params.get("G", DEFAULT_GRID))
    if not (lam > 0 and mu > 0 and b > 0 and beta > b):
        raise ModelError("need lambda, mu, b > 0 and beta > b")
    gamma2 = float(params.get("gamma2", min(1.0, 0.5 + mu / (4.0 * beta))))
    if not (0 <= gamma2 <= 1):
        raise ModelError("gamma2 must lie in [0, 1]")

    def gam2(x):
        return 0.0 if x <= 1 else gamma2

    def d(x, a2):
        return 0.0 if x == 0 else 2.0 * a2 * x

    a1_grid = _grid(0.0, b, G)
    a2_grid = _grid(b, beta, G)

    def actions(lab):
        (x,) = lab
        if x == 0:
            return [(a1, 0.0) for a1 in a1_grid]
        return [(a1, a2) for a1 in a1_grid for a2 in a2_grid]

    def entries(lab, act):
        (x,) = lab
        a1, a2 = act
        out = []
        up = lam * x + a1
        if up > 0:
            out.append(((x + 1,), up))
        if x >= 1:
            g2 = gam2(x)
            dn1 = mu * x + d(x, a2) * (1.0 - g2)
            if dn1 > 0:
                out.append(((x - 1,), dn1))
            if x >= 2 and g2 > 0:
                out.append(((x - 2,), d(x, a2) * g2))
        return out

    def reward(lab, act):
        (x,) = lab
        a1, a2 = act
        dv = d(x, a2)
        cost = 0.0 if x == 0 else kappa_c * a2 * x
        return tau * a1 - cost - p * dv \
            + q1 * (1.0 - gam2(x)) * dv + q2 * gam2(x) * dv

    def lyapunov(labels):
        # constants fitted on the truncation: the defining inequalities are
        # then re-checked exhaustively by the drift module
        w = np.array([x + 1.0 for (x,) in labels])
        wp = np.array([(x + 1.0) * (x + 2.0) for (x,) in labels])
        c = 0.5 * (mu - lam) if mu > lam else 1e-12
        b_fit, M, M_q, cprime, Mprime = _fit_constants(
            labels, actions, entries, reward, w, wp, c)
        return LyapunovData(w=w, c=c, b=max(b_fit, 0.0) + 1e-9, M=M + 1e-9,
                            M_q=M_q + 1e-9, wprime=wp, cprime=cprime + 1e-9,
                            bprime=0.0, Mprime=Mprime + 1e-9)

    fam = CountableFamily(
        dim=1, actions=actions, entries=entries, reward=reward,
        name="skip_free",
        params={"lambda": lam, "mu": mu, "b": b, "beta": beta, "tau": tau,
                "p": p, "q1": q1, "q2": q2, "kappa_c": kappa_c,
                "gamma2": gamma2, "N": N, "G": G},
        lyapunov=lyapunov,
        grid_meta={"intervals": [[0.0, b], [b, beta]], "G": G},
        min_level=3,
    )
    return truncate(fam, N)


def _fit_constants(labels, actions, entries, reward, w, wp, c):
    """Smallest (b, M, M_q, c', M') satisfying the Lyapunov conditions on
    the raw (untruncated) 1-D rows, with w = x + 1 and w' = (x+1)(x+2);
    each row's diagonal is implied by its sum."""
    b = M = -np.inf
    M_q, cprime, Mprime = 0.0, 1e-12, 1e-12
    for i, lab in enumerate(labels):
        (x,) = lab
        for act in actions(lab):
            row = entries(lab, act)
            drift_w = drift_wp = 0.0
            for (t,), rate in row:
                drift_w += rate * ((t + 1.0) - (x + 1.0))
                drift_wp += rate * ((t + 1.0) * (t + 2.0)
                                    - (x + 1.0) * (x + 2.0))
            q = sum(rate for _, rate in row)
            b = max(b, drift_w + c * w[i])
            M = max(M, abs(reward(lab, act)) / w[i])
            M_q = max(M_q, q / w[i])
            cprime = max(cprime, drift_wp / wp[i])
            Mprime = max(Mprime, q * w[i] / wp[i])
    return b, M, M_q, cprime, Mprime


# -- two M/M/1 queues in tandem ----------------------------------------------

TANDEM_SIGMA1 = 1.06
TANDEM_SIGMA2 = 1.03
TANDEM_GAMMA = 0.4
TANDEM_BETA1 = 1.5
TANDEM_BETA2 = 0.3


def tandem_weight(x1: int, x2: int) -> float:
    s1, s2 = TANDEM_SIGMA1, TANDEM_SIGMA2
    return (s1 ** (x1 - 1) + s2 ** (x1 + x2 - 1)
            + TANDEM_GAMMA * s1 ** (-TANDEM_BETA1 * (x1 - 1))
            * s2 ** (-TANDEM_BETA2 * (x1 + x2 - 1)))


def build_tandem(params: dict) -> CtmdpModel:
    """Two exponential queues in series, unit arrival rate, controlled
    service rates (a1, a2); reward must come from a bounded named spec."""
    mu1 = float(params.get("mu1", 3.0))
    mu1s = float(params.get("mu1star", mu1 + 1.0))
    mu2 = float(params.get("mu2", 2.0))
    mu2s = float(params.get("mu2star", mu2 + 1.0))
    N = int(params.get("N", 10))
    G = int(params.get("G", 2))
    spec = dict(params.get("reward", {"kind": "throughput"}))
    if not (mu1s > mu1 >= 3.0 and mu2s > mu2 >= 2.0):
        raise ModelError("need mu1* > mu1 >= 3 and mu2* > mu2 >= 2")
    if N < 2:
        raise ModelError("tandem truncation needs N >= 2")

    kind = spec.get("kind", "throughput")
    if kind == "throughput":
        c1 = float(spec.get("c1", 0.0))
        c2 = float(spec.get("c2", 0.0))

        def reward(lab, act):
            x1, x2 = lab
            a1, a2 = act
            return a2 * (1.0 if x2 > 0 else 0.0) - c1 * a1 - c2 * a2
    elif kind == "holding_bounded":
        cap = float(spec.get("cap", 2 * N))

        def reward(lab, act):
            x1, x2 = lab
            return -min(float(x1 + x2), cap)
    else:
        raise ModelError(f"unknown tandem reward spec {kind!r}")

    g1 = _grid(mu1, mu1s, G)
    g2 = _grid(mu2, mu2s, G)

    def entries(lab, act):
        x1, x2 = lab
        a1, a2 = act
        out = [((x1 + 1, x2), 1.0)]
        if x1 > 0:
            out.append(((x1 - 1, x2 + 1), a1))
        if x2 > 0:
            out.append(((x1, x2 - 1), a2))
        return out

    def lyapunov(labels):
        w = np.array([tandem_weight(x1, x2) for x1, x2 in labels])
        sup_r = max(abs(reward(lab, act)) for lab in labels
                    for act in [(g1[0], g2[0]), (g1[-1], g2[-1])])
        # an arrival at the empty system raises w by ~0.0453, so a small
        # positive offset is required for the pointwise drift inequality
        return LyapunovData(w=w, c=0.002, b=0.0501,
                            M=max(sup_r, 1e-9) + 1e-9,
                            M_q=(1.0 + mu1s + mu2s) / float(np.min(w)) + 1e-9)

    fam = CountableFamily(
        dim=2,
        actions=lambda lab: [(a1, a2) for a1 in g1 for a2 in g2],
        entries=entries, reward=reward,
        name="tandem",
        params={"mu1": mu1, "mu1star": mu1s, "mu2": mu2, "mu2star": mu2s,
                "N": N, "G": G, "reward": spec},
        lyapunov=lyapunov,
        grid_meta={"intervals": [[mu1, mu1s], [mu2, mu2s]], "G": G},
        min_level=2,
    )
    return truncate(fam, N)


# -- M/M/N/0 loss system -----------------------------------------------------

def build_mmn0(params: dict) -> CtmdpModel:
    """Erlang loss queue with controlled service rate mu in [mu1, mu2];
    intrinsically finite on {0..N}, no truncation artifact."""
    lam = float(params["lambda"])
    mu1 = float(params["mu1"])
    mu2 = float(params["mu2"])
    N = int(params.get("N", 2))
    G = int(params.get("G", DEFAULT_GRID))
    spec = dict(params.get("reward", {"p": 1.0, "kappa": 0.0}))
    p = float(spec.get("p", 1.0))
    kappa = float(spec.get("kappa", 0.0))
    if not (mu2 > mu1 > 0 and lam > 0):
        raise ModelError("need mu2 > mu1 > 0 and lambda > 0")
    if N < 1:
        raise ModelError("need N >= 1")
    grid = _grid(mu1, mu2, G)

    def actions(lab):
        (x,) = lab
        if x == 0:
            return [(0.0,)]
        return [(m,) for m in grid]

    def entries(lab, act):
        (x,) = lab
        (m,) = act
        out = []
        if x < N:
            out.append(((x + 1,), lam))
        if x > 0:
            out.append(((x - 1,), m * x))
        return out

    def lyapunov(labels):
        w = np.array([x + 1.0 for (x,) in labels])
        wp = np.array([(x + 1.0) * (x + 2.0) for (x,) in labels])
        return LyapunovData(w=w, c=0.5 * (mu1 - lam) if mu1 > lam else 1e-12,
                            b=mu1 + lam, M=p + kappa * mu2 + 1e-12,
                            M_q=mu2 + lam, wprime=wp, cprime=6.0 * lam,
                            bprime=0.0, Mprime=mu2 + lam)

    fam = CountableFamily(
        dim=1, actions=actions, entries=entries,
        reward=lambda lab, act: p * lab[0] - kappa * act[0] * lab[0],
        name="mmn0",
        params={"lambda": lam, "mu1": mu1, "mu2": mu2, "N": N, "G": G,
                "reward": spec},
        lyapunov=lyapunov,
        grid_meta={"interval": [mu1, mu2], "G": G},
        min_level=1,
    )
    return truncate(fam, N)


# -- continuous-state mass-redistribution (Potlach) process ------------------

@dataclass(frozen=True)
class PotlachPolicy:
    """Fixed redistribution matrix and per-component cost weights."""

    matrix: np.ndarray   # d x d stochastic
    q: np.ndarray        # component weights, in [0, q*]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "q", np.asarray(self.q, dtype=np.float64))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelError("redistribution matrix must be square")
        if np.any(m < 0) or np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-12:
            raise ModelError("redistribution matrix must be row-stochastic")


@dataclass(frozen=True)
class PotlachProcess:
    """Simulation generator for the mass-redistribution jump process.

    Each of the d components fires at unit rate; on an event at component
    i, the mass x_i is rescaled by an Exponential(lam) draw and spread
    over the components by row i of the policy matrix.
    """

    d: int
    lam: float
    matrices: tuple          # admissible redistribution matrices
    qstar: np.ndarray        # upper bounds for the cost weights

    def __post_init__(self):
        object.__setattr__(self, "qstar",
                           np.asarray(self.qstar, dtype=np.float64))
        if self.lam <= 1.0:
            raise ModelError("need lam > 1 for a positive drift constant")
        if np.any(self.qstar < 0):
            raise ModelError("cost-weight bounds must be nonnegative")

    @property
    def total_rate(self) -> float:
        # per-event jump-rate bound q(x) <= d, by construction
        return float(self.d)

    @property
    def drift_constant(self) -> float:
        return (self.lam - 1.0) / self.lam

    def weight(self, x) -> float:
        return float(np.sum(x))

    def reward(self, x, policy: PotlachPolicy) -> float:
        x = np.asarray(x, dtype=np.float64)
        # index pattern q_i p_ij x_j, as printed in the source display
        gain = float(policy.q @ (policy.matrix @ x))
        return gain - self.lam * float(np.sum(x))

    def jump(self, x, policy: PotlachPolicy, rng) -> np.ndarray:
        i = rng.integers(self.d)
        y = rng.exponential(1.0 / self.lam)
        return self.redistribute(np.asarray(x, dtype=np.float64)[None],
                                 policy, np.array([i]), np.array([y]))[0]

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


def build_potlach(params: dict) -> PotlachProcess:
    d = int(params.get("d", 2))
    lam = float(params["lambda"])
    mats = params.get("matrices")
    if mats is None:
        mats = [np.full((d, d), 1.0 / d)]
    mats = tuple(np.asarray(m, dtype=np.float64) for m in mats)
    qstar = np.asarray(params.get("qstar", np.ones(d)), dtype=np.float64)
    for m in mats:
        PotlachPolicy(matrix=m, q=np.zeros(d))   # shape/stochasticity check
    return PotlachProcess(d=d, lam=lam, matrices=mats, qstar=qstar)


BUILTINS = {
    "birth_death": build_birth_death,
    "skip_free": build_skip_free,
    "tandem": build_tandem,
    "mmn0": build_mmn0,
    "potlach": build_potlach,
}


def build(name: str, params: dict):
    if name not in BUILTINS:
        raise ModelError(f"unknown builtin family {name!r}")
    return BUILTINS[name](params)


def describe(name: str) -> dict:
    """Parameter schema and the lettered conditions checked per family."""
    schemas = {
        "birth_death": {
            "params": ["lambda", "mu1", "mu2", "p1", "p", "rc", "N", "G"],
            "rc_specs": ["zero", "linear", "quadratic"],
            "conditions": ["E1: mu1 > lambda", "E2: p1 <= mu1/(2*mu2)",
                           "E3: control cost bounded by Mtilde*(x+1)"],
        },
        "skip_free": {
            "params": ["lambda", "mu", "b", "beta", "tau", "p", "q1", "q2",
                       "kappa_c", "gamma2", "N", "G"],
            "conditions": ["F1: mu > lambda and catastrophe-split ratio bound",
                           "F2: b <= lambda - mu + inf{d + gamma2*d}",
                           "F3: continuity and linear growth bounds"],
        },
        "tandem": {
            "params": ["mu1", "mu1star", "mu2", "mu2star", "N", "G", "reward"],
            "conditions": ["mu1 >= 3", "mu2 >= 2", "bounded reward"],
        },
        "mmn0": {
            "params": ["lambda", "mu1", "mu2", "N", "G", "reward"],
            "conditions": ["mu1 > lambda"],
        },
        "potlach": {
            "params": ["d", "lambda", "matrices", "qstar"],
            "conditions": ["lambda > 1"],
            "note": "simulation-only; no optimization over its policy class",
        },
    }
    if name not in schemas:
        raise ModelError(f"unknown builtin family {name!r}")
    return schemas[name]
