"""Post-hoc certification of a candidate (gain, relative values, policy).

The two verification inequalities bracket the optimal gain; the
semimartingale diagnostic checks the sign structure of the discrepancy
Delta and the drift of the compensated process M_t along simulated paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discounted import bellman
from .model import (CtmdpModel, ModelError, Report, StationaryPolicy,
                    is_integer)
from .simulate import (_checkpoint_run, _PolicyChain, check_replications,
                       rng_info)

DEFAULT_CHECKPOINTS = tuple(np.geomspace(1.0, 1000.0, 8))
DEFAULT_REPS = 200


@dataclass
class CertificateReport(Report):
    direction: str               # "upper" or "lower"
    g: float
    residuals: np.ndarray        # per-state
    max_violation: float
    passed: bool
    tol: float


def certify_upper(model: CtmdpModel, g: float, u, tol: float = 1e-6
                  ) -> CertificateReport:
    """Check max_a { r(x,a) + sum_y u(y) q(y|x,a) } - g <= tol at every x.

    A pass certifies g as an upper bound on every stationary policy's
    gain (up to a model-dependent multiple of tol); only the raw residual
    is reported.
    """
    residuals = bellman(model, model.check_values(u))[1] - g
    return _certificate("upper", g, residuals, tol)


def certify_lower(model: CtmdpModel, g: float, u, f: StationaryPolicy,
                  tol: float = 1e-6) -> CertificateReport:
    """Check g - r(x,f(x)) - sum_y u(y) q(y|x,f(x)) <= tol at every x.

    A pass certifies that the concrete policy f achieves at least g up to
    tolerance.
    """
    model.check_policy(f)
    vals = bellman(model, model.check_values(u))[0]
    residuals = g - vals[model.kernel.starts + f.choice]
    return _certificate("lower", g, residuals, tol)


def _certificate(direction: str, g: float, residuals: np.ndarray,
                 tol: float) -> CertificateReport:
    """The report of `residuals`, passed iff none exceeds `tol`; a tol that
    is not finite and >= 0 passes everything or nothing, and is refused."""
    if not 0 <= tol < np.inf:
        raise ModelError(f"tol must be finite and >= 0, got {tol}",
                         field="tol")
    worst = float(np.max(residuals))
    return CertificateReport(direction=direction, g=float(g),
                             residuals=residuals, max_violation=worst,
                             passed=worst <= tol, tol=tol)


@dataclass
class VerificationReport(Report):
    upper: CertificateReport
    lower: CertificateReport
    passed: bool                 # both certificates pass


def certify(model: CtmdpModel, g: float, h, f: StationaryPolicy,
            tol: float = 1e-6) -> VerificationReport:
    """Both certificates of a candidate solution (g, h, f): g bounds every
    stationary policy's gain from above, and f achieves it, up to tol."""
    upper = certify_upper(model, g, h, tol=tol)
    lower = certify_lower(model, g, h, f, tol=tol)
    return VerificationReport(upper=upper, lower=lower,
                              passed=upper.passed and lower.passed)


def delta(model: CtmdpModel, x: int, f, u, g: float) -> float:
    """Discrepancy (r + Q u)(x, a) - g, a = f(x) or an action index, read
    off one full `bellman` evaluation; its sign is the drift direction."""
    x, u = model.check_state(x, "x"), model.check_values(u)
    count = int(model.kernel.counts[x])
    if isinstance(f, StationaryPolicy):
        model.check_policy(f)
        f = f[x]
    elif not is_integer(f) or not 0 <= f < count:
        raise ModelError(f"f must be in 0..{count - 1} at state {x}, got {f}",
                         field="f")
    return bellman(model, u)[0][model.kernel.starts[x] + f] - g


@dataclass
class MartingaleReport(Report):
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
    jumps: np.ndarray            # per-replication jump counts
    detail: dict = field(default_factory=dict)


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
    check_replications(reps)
    chain = _PolicyChain(model, f)
    u = model.check_values(u)
    checkpoints = np.asarray(checkpoints, dtype=np.float64)
    if len(np.unique(checkpoints)) < 2:
        raise ModelError(f"checkpoints must list at least two distinct "
                         f"times, got {checkpoints.tolist()}",
                         field="checkpoints")
    runs = _checkpoint_run(chain, x0, checkpoints, reps, seed)
    samples = (runs.cp_rewards + u[runs.cp_states]) - checkpoints * g

    means = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    diffs = np.diff(samples, axis=1)
    diff_ses = diffs.std(axis=0, ddof=1) / np.sqrt(reps)
    diff_means = diffs.mean(axis=0)
    sub = bool(np.all(diff_means >= -3.0 * diff_ses))
    sup = bool(np.all(diff_means <= 3.0 * diff_ses))

    all_delta = bellman(model, u)[0][model.kernel.starts + f.choice] - g
    delta_visited = {x: float(all_delta[x])
                     for x in np.flatnonzero(runs.occupation > 0).tolist()}
    return MartingaleReport(
        checkpoints=checkpoints, means=means, ses=ses, diff_ses=diff_ses,
        submartingale_consistent=sub, supermartingale_consistent=sup,
        delta_visited=delta_visited,
        delta_min=float(np.min(all_delta)), delta_max=float(np.max(all_delta)),
        rng=rng_info(seed), jumps=runs.jumps,
        detail={"policy_coverage": "single policy; pointwise Delta over all "
                                   "states is the exhaustive finite-model "
                                   "substitute"})
