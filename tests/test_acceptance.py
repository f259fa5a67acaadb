"""Acceptance gate: one test (and one pass/fail line under -v) per criterion.

Criteria cover exact closed-form drift computations, solver-vs-oracle
agreement, certificate bracketing, simulation consistency, and the
equivariance properties of the optimal solution.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import ctmdp
from ctmdp import (StationaryPolicy, VanishingSchedule, brute_force_oracle,
                   certify_lower, certify_upper, check_assumption_A,
                   check_assumption_B, check_lyapunov_bound, delta,
                   estimate_average_reward, martingale_diagnostic,
                   solve_average, solve_discounted, weighted_norm)

import oracles

BD30 = {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.0, "p": 2.0,
        "N": 30, "G": 3}
MM20 = {"lambda": 1, "mu1": 2, "mu2": 2.5, "N": 2, "G": 1}


@pytest.fixture(scope="module")
def bd30():
    return ctmdp.build("birth_death", BD30)


@pytest.fixture(scope="module")
def bd30_solution(bd30):
    return solve_average(bd30)


@pytest.fixture(scope="module")
def mm20():
    return ctmdp.build("mmn0", MM20)


def test_criterion_01_drift_identities_exact():
    lam = 1.0
    for p1 in (0.0, 0.3):
        m = ctmdp.build("birth_death", {"lambda": lam, "mu1": 3, "mu2": 4,
                                        "p1": p1, "N": 12, "G": 5})
        Qw = m.kernel.Q @ m.lyapunov.w
        assert Qw[m.kernel.starts[0]] == pytest.approx(lam, abs=1e-12)
        for ai in range(m.kernel.counts[1]):
            (a,) = m.actions[m.kernel.starts[1] + ai]
            assert Qw[m.kernel.starts[1] + ai] == pytest.approx(
                -(a - lam), abs=1e-12)
        for x in range(2, m.n - 1):
            for ai in range(m.kernel.counts[x]):
                (a,) = m.actions[m.kernel.starts[x] + ai]
                assert Qw[m.kernel.starts[x] + ai] == pytest.approx(
                    -(a + a * p1 - lam) * x, abs=1e-12)
    print("criterion 01 drift identities: PASS")


def test_criterion_02_assumption_checks_match_proof_constants():
    for p1 in (0.0, 0.3):
        m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                        "p1": p1, "N": 15, "G": 3})
        lyap = m.lyapunov
        assert lyap.c == 1.0
        assert lyap.b == 4.0
        assert lyap.M_q == 5.0          # mu2 + lambda
        assert lyap.cprime == 6.0       # 6 * lambda
        assert lyap.bprime == 0.0
        assert lyap.Mprime == 5.0       # mu2 + lambda
        assert check_assumption_A(m).ok
        assert check_assumption_B(m).ok
    unstable = ctmdp.build("birth_death", {"lambda": 1, "mu1": 0.5,
                                           "mu2": 4, "N": 15, "G": 3})
    assert check_assumption_A(unstable).fitted["c_hat"] <= 0.0
    print("criterion 02 assumption checks: PASS")


def test_criterion_03_uniformization_rows_are_probabilities():
    rng = np.random.default_rng(2024)
    n_rows = 10 ** 4
    width = 8
    rows = []
    for i in range(n_rows):
        k = int(rng.integers(1, width))
        targets = rng.choice(np.delete(np.arange(n_rows), i), size=k,
                             replace=False)
        rates = rng.uniform(0.0, 100.0, size=k)
        entries = list(zip(targets.tolist(), rates.tolist()))
        entries.append((i, -float(rates.sum())))
        rows.append([entries])
    m = ctmdp.CtmdpModel(
        actions=np.zeros((n_rows, 1)),
        kernel=oracles.kernel_from_rows(rows),
        r=np.zeros(n_rows),
    )
    # rows P(.|x,a) = q(.|x,a) / m(x) + I with m(x) = q(x) + 1, the
    # embedding of the solver's per-state pass
    pairs = np.arange(m.n_pairs)
    P = (sp.diags(1.0 / (m.qmax + 1.0)[m.x_of_pair]) @ m.kernel.Q
         + sp.csr_matrix((np.ones(m.n_pairs), (pairs, m.x_of_pair)),
                         shape=m.kernel.Q.shape))
    assert P.min() >= 0.0
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12
    print("criterion 03 uniformization: PASS")


def test_criterion_04_discounted_vs_linear_oracle(bd30, mm20):
    for m in (mm20, bd30):
        f = StationaryPolicy(choice=np.zeros(m.n, dtype=np.int64))
        rows = [[list(zip(*[arr.tolist() for arr in m.kernel.row(x, f[x])]))]
                for x in range(m.n)]
        single = ctmdp.CtmdpModel(
            actions=m.actions[m.kernel.starts + f.choice],
            kernel=oracles.kernel_from_rows(rows),
            r=m.r[m.kernel.starts + f.choice],
            lyapunov=m.lyapunov,
        )
        for alpha in (1.0, 0.1, 0.001):
            sol = solve_discounted(single, alpha, tol=1e-12)
            ref = oracles.discounted_value(m, f, alpha)
            assert weighted_norm(sol.values - ref, m.weights()) <= 1e-8
    print("criterion 04 discounted solver vs linear oracle: PASS")


def test_criterion_05_gain_vs_brute_force_oracle():
    bd_cases = [
        {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.0, "p": 2.0},
        {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3, "p": 2.0},
        {"lambda": 1.5, "mu1": 3, "mu2": 5, "p1": 0.2, "p": 1.0},
        {"lambda": 0.5, "mu1": 2, "mu2": 3, "p1": 0.1, "p": 3.0,
         "rc": {"kind": "linear", "kappa": 0.2}},
        {"lambda": 2, "mu1": 4, "mu2": 6, "p1": 0.25, "p": 1.0,
         "rc": {"kind": "quadratic", "kappa": 0.05}},
    ]
    mm_cases = [
        {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3, "G": 3,
         "reward": {"p": 1.0, "kappa": 0.3}},
        {"lambda": 2, "mu1": 2.5, "mu2": 4, "N": 5, "G": 3,
         "reward": {"p": 1.0, "kappa": 0.1}},
        {"lambda": 0.8, "mu1": 1.2, "mu2": 2.0, "N": 4, "G": 3,
         "reward": {"p": 2.0, "kappa": 0.5}},
    ]
    for params in bd_cases:
        m = ctmdp.build("birth_death", dict(params, N=30, G=3))
        sol = solve_average(m)
        orc = brute_force_oracle(m)
        assert orc.method == "policy_iteration"
        assert abs(sol.gain - orc.gain) <= 1e-4
        assert sol.residual_upper <= 1e-6
        assert sol.residual_lower <= 1e-6
    for params in mm_cases:
        m = ctmdp.build("mmn0", params)
        sol = solve_average(m)
        orc = brute_force_oracle(m)
        assert orc.method == "enumeration"
        assert abs(sol.gain - orc.gain) <= 1e-4
        assert sol.residual_upper <= 1e-6
        assert sol.residual_lower <= 1e-6
    print("criterion 05 vanishing-discount gain vs oracle: PASS")


def test_criterion_06_closed_form_gain(mm20):
    sol = solve_average(mm20)
    assert abs(sol.gain - 6.0 / 13.0) <= 1e-6
    f = StationaryPolicy(choice=np.zeros(3, dtype=np.int64))
    pi = oracles.stationary_distribution(mm20, f)
    assert np.allclose(pi, [8 / 13, 4 / 13, 1 / 13], atol=1e-12)
    print("criterion 06 closed-form instance: PASS")


def test_criterion_07_certificate_bracket_flips(mm20):
    sol = solve_average(mm20, schedule=VanishingSchedule(steps=35))
    assert sol.residual_upper <= 1e-8
    assert sol.residual_lower <= 1e-8
    up_hi = certify_upper(mm20, sol.gain + 0.1, sol.h)
    lo_hi = certify_lower(mm20, sol.gain + 0.1, sol.h, sol.policy)
    assert up_hi.passed and not lo_hi.passed
    assert abs(lo_hi.max_violation - 0.1) <= 1e-8
    up_lo = certify_upper(mm20, sol.gain - 0.1, sol.h)
    lo_lo = certify_lower(mm20, sol.gain - 0.1, sol.h, sol.policy)
    assert not up_lo.passed and lo_lo.passed
    assert abs(up_lo.max_violation - 0.1) <= 1e-8
    print("criterion 07 certificate bracket: PASS")


def test_criterion_08_simulated_average_matches_gain(bd30, bd30_solution):
    sol = bd30_solution
    rep = estimate_average_reward(bd30, sol.policy, 0, 1e5, 20, seed=2026)
    assert abs(rep.mean - sol.gain) <= 3 * rep.se
    assert rep.se <= 0.01 * abs(sol.gain) + 0.01
    print("criterion 08 simulation consistency: PASS")


def test_criterion_09_moment_bound_at_checkpoints():
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "p1": 0.0, "N": 40, "G": 3})
    f = StationaryPolicy(choice=np.zeros(m.n, dtype=np.int64))
    checkpoints = np.geomspace(0.125, 16.0, 8)
    rep = check_lyapunov_bound(m, f, 20, checkpoints, 200, seed=2027)
    assert rep.passed
    assert len(rep.checkpoints) == 8
    print("criterion 09 moment bound: PASS")


def test_criterion_10_martingale_diagnostics(bd30, bd30_solution):
    sol = bd30_solution
    worst = max(abs(delta(bd30, x, sol.policy, sol.h, sol.gain))
                for x in range(bd30.n))
    assert worst <= 1e-6
    flat = martingale_diagnostic(bd30, sol.policy, sol.h, sol.gain, 0,
                                 checkpoints=np.geomspace(1, 200, 6),
                                 reps=120, seed=7)
    assert flat.submartingale_consistent
    assert flat.supermartingale_consistent
    bad = StationaryPolicy(choice=np.full(bd30.n, bd30.kernel.counts[1] - 1,
                                          dtype=np.int64))
    drift = martingale_diagnostic(bd30, bad, sol.h, sol.gain, 0,
                                  checkpoints=np.geomspace(5, 500, 6),
                                  reps=150, seed=8)
    assert drift.supermartingale_consistent
    assert not drift.submartingale_consistent
    print("criterion 10 martingale diagnostics: PASS")


def test_criterion_11_redistribution_drift_regression():
    proc = ctmdp.build("potlach", {"d": 2, "lambda": 2.0})
    assert proc.total_rate <= 2.0            # per-event jump-rate bound
    pol = ctmdp.PotlachPolicy(matrix=np.full((2, 2), 0.5), q=np.zeros(2))
    x0 = np.array([1.0, 1.0])
    ts = np.linspace(0.01, 0.05, 5)
    from ctmdp.simulate import _RedistributionChain, _checkpoint_run
    samples = _checkpoint_run(_RedistributionChain(proc, pol), x0, ts,
                              10 ** 4, 2028).cp_states.sum(axis=-1)
    means = samples.mean(axis=0)
    # E w(t) = w(0) * exp(-c t); near zero the slope is -c * w(0)
    slope = np.polyfit(ts, means, 1)[0]
    c_hat = -slope / float(x0.sum())
    c_true = (2.0 - 1.0) / 2.0
    assert abs(c_hat - c_true) <= 0.15 * c_true
    print("criterion 11 redistribution drift: PASS")


def test_criterion_12_equivariance(mm20):
    params = {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3, "G": 3,
              "reward": {"p": 1.0, "kappa": 0.3}}
    m = ctmdp.build("mmn0", params)
    base = solve_average(m)

    def with_rewards(r):
        return ctmdp.CtmdpModel(actions=m.actions, kernel=m.kernel, r=r,
                                lyapunov=m.lyapunov)

    for s in (0.5, 2.0):
        scaled = with_rewards(s * m.r)
        sol = solve_average(scaled)
        assert abs(sol.gain - s * base.gain) <= 1e-8
        assert np.max(np.abs(sol.h - s * base.h)) <= 1e-8
        assert np.array_equal(sol.policy.choice, base.policy.choice)
    for kappa in (-1.0, 3.0):
        shifted = with_rewards(m.r + kappa)
        sol = solve_average(shifted)
        assert abs(sol.gain - (base.gain + kappa)) <= 1e-8
        assert np.max(np.abs(sol.h - base.h)) <= 1e-8
        assert np.array_equal(sol.policy.choice, base.policy.choice)
    print("criterion 12 equivariance: PASS")
