import numpy as np
import pytest

import ctmdp
from ctmdp import (ModelError, StationaryPolicy, certify_lower, certify_upper,
                   delta, martingale_diagnostic, solve_average)

import oracles


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


@pytest.mark.parametrize("name, params", [
    ("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3, "p": 2.0,
                     "N": 40, "G": 5}),
    ("tandem", {"N": 6, "G": 2}),
    ("skip_free", {"lambda": 1, "mu": 2, "b": 1.0, "beta": 2.0, "N": 30,
                   "G": 4})])
def test_delta_matches_loop_bit_for_bit(name, params):
    # CSR matvec sums each row from 0.0 in target order, as the loop does
    m = ctmdp.build(name, params)
    u = np.random.default_rng(7).normal(scale=100.0, size=m.n)
    for x in range(m.n):
        for a in range(m.kernel.counts[x]):
            ref = (oracles.reward(m, x, a)
                   + oracles.generator_apply_loop(m, u, x, a) - 0.37)
            assert np.float64(delta(m, x, a, u, 0.37)).tobytes() == \
                np.float64(ref).tobytes()
        with pytest.raises(ModelError, match="^f must be in "):
            delta(m, x, m.kernel.counts[x], u, 0.37)


def test_delta_refuses_a_policy_of_another_length(solved):
    m, sol = solved
    with pytest.raises(ModelError, match="^policy length"):
        delta(m, 2, StationaryPolicy(choice=sol.policy.choice[:2]), sol.h,
              sol.gain)


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
    bad = StationaryPolicy(choice=np.full(m.n, m.kernel.counts[1] - 1,
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
