import numpy as np
import pytest

import ctmdp
from ctmdp import (StationaryPolicy, certify_lower, certify_upper, delta,
                   martingale_diagnostic, solve_average)


@pytest.fixture(scope="module")
def solved():
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "p1": 0.0, "p": 2.0, "N": 20, "G": 3})
    return m, solve_average(m)


def test_certificates_pass_at_solution(solved):
    m, sol = solved
    up = certify_upper(m, sol.gain, sol.h)
    lo = certify_lower(m, sol.gain, sol.h, sol.policy)
    assert up.passed and lo.passed
    assert up.max_violation <= 1e-6
    assert lo.max_violation <= 1e-6


def test_perturbed_gain_flips_one_certificate(solved):
    m, sol = solved
    up_hi = certify_upper(m, sol.gain + 0.1, sol.h)
    lo_hi = certify_lower(m, sol.gain + 0.1, sol.h, sol.policy)
    assert up_hi.passed and not lo_hi.passed
    up_lo = certify_upper(m, sol.gain - 0.1, sol.h)
    lo_lo = certify_lower(m, sol.gain - 0.1, sol.h, sol.policy)
    assert not up_lo.passed and lo_lo.passed


def test_certificate_residuals_shift_linearly(solved):
    m, sol = solved
    base = certify_upper(m, sol.gain, sol.h)
    shifted = certify_upper(m, sol.gain + 0.1, sol.h)
    assert np.allclose(shifted.residuals, base.residuals - 0.1, atol=1e-12)


def test_delta_sign_convention(solved):
    m, sol = solved
    # at the solution, Delta <= 0 everywhere and = 0 on the optimal actions
    worst = max(delta(m, x, sol.policy, sol.h, sol.gain)
                for x in range(m.n))
    assert worst <= 1e-6
    vals = [delta(m, x, sol.policy, sol.h, sol.gain) for x in range(m.n)]
    assert max(vals) >= -1e-6


def test_delta_accepts_action_index(solved):
    m, sol = solved
    x = 3
    a = sol.policy[x]
    assert delta(m, x, a, sol.h, sol.gain) == pytest.approx(
        delta(m, x, sol.policy, sol.h, sol.gain))


def test_martingale_flat_at_optimum(solved):
    m, sol = solved
    rep = martingale_diagnostic(m, sol.policy, sol.h, sol.gain, 0,
                                checkpoints=np.geomspace(1, 200, 6),
                                reps=100, seed=3)
    assert rep.submartingale_consistent
    assert rep.supermartingale_consistent
    assert abs(rep.delta_max) <= 1e-6
    assert rep.rng["family"] == "numpy.random.Philox"


def test_martingale_suboptimal_policy_drifts_down(solved):
    m, sol = solved
    bad = StationaryPolicy(choice=np.full(m.n, m.n_actions(1) - 1,
                                          dtype=np.int64))
    rep = martingale_diagnostic(m, bad, sol.h, sol.gain, 0,
                                checkpoints=np.geomspace(5, 500, 6),
                                reps=150, seed=4)
    assert rep.supermartingale_consistent
    assert not rep.submartingale_consistent
    assert rep.delta_min < -1e-3


def test_martingale_reports_visited_deltas(solved):
    m, sol = solved
    rep = martingale_diagnostic(m, sol.policy, sol.h, sol.gain, 0,
                                checkpoints=[1.0, 5.0], reps=20, seed=5)
    assert 0 in rep.delta_visited
    every = [delta(m, x, sol.policy, sol.h, sol.gain) for x in range(m.n)]
    for x, d in rep.delta_visited.items():
        assert d == every[x]                 # one Q @ u, same sums
    assert (rep.delta_min, rep.delta_max) == (min(every), max(every))
    assert "policy_coverage" in rep.detail
