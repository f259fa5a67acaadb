"""Post-hoc certification of a candidate (gain, relative values, policy).

The two verification inequalities bracket the optimal gain; the
semimartingale diagnostic checks the sign structure of the discrepancy
Delta and the drift of the compensated process M_t along simulated paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import CtmdpModel, StationaryPolicy, generator_apply
from .simulate import _run_tabulated, rng_info, stream

DEFAULT_CHECKPOINTS = tuple(np.geomspace(1.0, 1000.0, 8))
DEFAULT_REPS = 200


@dataclass
class CertificateReport:
    direction: str               # "upper" or "lower"
    g: float
    residuals: np.ndarray        # per-state
    max_violation: float
    passed: bool
    tol: float

    def to_dict(self) -> dict:
        return {"direction": self.direction, "g": self.g,
                "residuals": self.residuals.tolist(),
                "max_violation": self.max_violation,
                "passed": self.passed, "tol": self.tol}


def certify_upper(model: CtmdpModel, g: float, u, tol: float = 1e-6
                  ) -> CertificateReport:
    """Check max_a { r(x,a) + sum_y u(y) q(y|x,a) } - g <= tol at every x.

    A pass certifies g as an upper bound on every stationary policy's
    gain (up to a model-dependent multiple of tol); only the raw residual
    is reported.
    """
    flat = model.flat()
    u = np.asarray(u, dtype=np.float64)
    vals = flat.r + flat.Q @ u
    residuals = np.maximum.reduceat(vals, flat.starts) - g
    worst = float(np.max(residuals))
    return CertificateReport(direction="upper", g=float(g),
                             residuals=residuals, max_violation=worst,
                             passed=worst <= tol, tol=tol)


def certify_lower(model: CtmdpModel, g: float, u, f: StationaryPolicy,
                  tol: float = 1e-6) -> CertificateReport:
    """Check g - r(x,f(x)) - sum_y u(y) q(y|x,f(x)) <= tol at every x.

    A pass certifies that the concrete policy f achieves at least g up to
    tolerance.
    """
    model.check_policy(f)
    flat = model.flat()
    u = np.asarray(u, dtype=np.float64)
    vals = flat.r + flat.Q @ u
    residuals = g - vals[flat.starts + f.choice]
    worst = float(np.max(residuals))
    return CertificateReport(direction="lower", g=float(g),
                             residuals=residuals, max_violation=worst,
                             passed=worst <= tol, tol=tol)


def delta(model: CtmdpModel, x: int, f, u, g: float) -> float:
    """Discrepancy r(x,a) + sum_y u(y) q(y|x,a) - g with a = f(x) or a
    direct action index; its sign sets the sub/supermartingale direction."""
    a = f[x] if isinstance(f, StationaryPolicy) else int(f)
    return model.rewards.rate(x, a) + generator_apply(model, u, x, a) - g


@dataclass
class MartingaleReport:
    checkpoints: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    diff_ses: np.ndarray         # SE of consecutive checkpoint differences
    submartingale_consistent: bool
    supermartingale_consistent: bool
    delta_visited: dict          # state -> Delta(x; f, u, g) over visited states
    delta_min: float
    delta_max: float
    rng: dict
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"checkpoints": self.checkpoints.tolist(),
                "means": self.means.tolist(), "ses": self.ses.tolist(),
                "diff_ses": self.diff_ses.tolist(),
                "submartingale_consistent": self.submartingale_consistent,
                "supermartingale_consistent": self.supermartingale_consistent,
                "delta_visited": {str(k): v for k, v in
                                  self.delta_visited.items()},
                "delta_min": self.delta_min, "delta_max": self.delta_max,
                "rng": self.rng, "detail": self.detail}


def martingale_diagnostic(model: CtmdpModel, f: StationaryPolicy, u, g: float,
                          x0: int, checkpoints=DEFAULT_CHECKPOINTS,
                          reps: int = DEFAULT_REPS,
                          seed: int = 0) -> MartingaleReport:
    """Monte Carlo drift test of M_t = int_0^t r ds + u(x(t)) - t*g under f.

    Decision rules (recomputable from the report): the submartingale
    verdict holds iff every consecutive checkpoint mean satisfies
    mean(M_{t+1}) >= mean(M_t) - 3*SE(diff); the supermartingale verdict
    is the reversed inequality. The pointwise Delta values over visited
    states are the infinitesimal counterpart.
    """
    model.check_policy(f)
    u = np.asarray(u, dtype=np.float64)
    checkpoints = np.asarray(checkpoints, dtype=np.float64)
    horizon = float(checkpoints[-1]) * (1 + 1e-12)
    samples = np.empty((reps, len(checkpoints)))
    visited = set()
    for rep in range(reps):
        rng = stream(seed, rep)
        _, occ, _, vals = _run_tabulated(
            model, f, x0, horizon, rng, checkpoints=checkpoints,
            cp_fn=lambda s, ri: ri + u[s])
        samples[rep] = np.asarray(vals) - checkpoints * g
        visited.update(np.flatnonzero(occ > 0).tolist())

    means = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    diffs = np.diff(samples, axis=1)
    diff_ses = diffs.std(axis=0, ddof=1) / np.sqrt(reps)
    diff_means = diffs.mean(axis=0)
    sub = bool(np.all(diff_means >= -3.0 * diff_ses))
    sup = bool(np.all(diff_means <= 3.0 * diff_ses))

    flat = model.flat()     # delta() at every state, from one Q @ u
    all_delta = (flat.r + flat.Q @ u)[flat.starts + f.choice] - g
    delta_visited = {x: float(all_delta[x]) for x in sorted(visited)}
    return MartingaleReport(
        checkpoints=checkpoints, means=means, ses=ses, diff_ses=diff_ses,
        submartingale_consistent=sub, supermartingale_consistent=sup,
        delta_visited=delta_visited,
        delta_min=float(np.min(all_delta)), delta_max=float(np.max(all_delta)),
        rng=rng_info(seed),
        detail={"policy_coverage": "single policy; pointwise Delta over all "
                                   "states is the exhaustive finite-model "
                                   "substitute"})
