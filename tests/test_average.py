import numpy as np
import pytest

import ctmdp
from ctmdp import (StationaryPolicy, VanishingSchedule, brute_force_oracle,
                   optimality_residuals, solve_average,
                   truncation_sensitivity)

import oracles


MM20_PARAMS = {"lambda": 1, "mu1": 2, "mu2": 2.5, "N": 2, "G": 1}


def test_schedule_is_geometric():
    s = VanishingSchedule(alpha0=0.2, ratio=0.5, steps=3)
    assert s.alphas() == pytest.approx([0.2, 0.1, 0.05, 0.025])


def test_bad_schedule_rejected():
    with pytest.raises(ctmdp.ModelError):
        VanishingSchedule(alpha0=0.1, ratio=1.5, steps=3)


def test_closed_form_gain_mm20():
    # uncontrolled M/M/2/0, lambda=1, mu=2, r(x)=x: pi = (8,4,1)/13
    m = ctmdp.build("mmn0", MM20_PARAMS)
    sol = solve_average(m)
    assert sol.gain == pytest.approx(6.0 / 13.0, abs=1e-6)
    assert sol.converged


def test_trace_and_envelope_shape():
    m = ctmdp.build("mmn0", MM20_PARAMS)
    sched = VanishingSchedule(steps=10)
    sol = solve_average(m, schedule=sched)
    assert len(sol.trace) == 11
    assert sol.trace[0]["alpha"] == 0.1
    assert sol.trace[0]["h_change"] is None
    assert np.all(sol.h_lower <= sol.h + 1e-12)
    assert np.all(sol.h + 1e-12 >= sol.h_lower)
    assert np.all(sol.h_upper >= sol.h - 1e-12)
    assert sol.h[sol.x0] == 0.0


def test_gain_matches_enumeration_oracle():
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3,
                             "G": 3, "reward": {"p": 1.0, "kappa": 0.3}})
    sol = solve_average(m)
    orc = brute_force_oracle(m)
    assert orc.method == "enumeration"
    assert sol.gain == pytest.approx(orc.gain, abs=1e-6)
    assert np.array_equal(sol.policy.choice, orc.policy.choice)


def test_policy_iteration_fallback_on_large_space():
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "N": 30, "G": 3})
    orc = brute_force_oracle(m)
    assert orc.method == "policy_iteration"
    sol = solve_average(m)
    assert sol.gain == pytest.approx(orc.gain, abs=1e-6)


def test_oracle_gain_dominates_every_policy():
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 2,
                             "G": 2, "reward": {"p": 1.0, "kappa": 0.2}})
    orc = brute_force_oracle(m)
    for a1 in range(m.n_actions(1)):
        for a2 in range(m.n_actions(2)):
            f = StationaryPolicy(choice=np.array([0, a1, a2]))
            assert oracles.policy_gain(m, f) <= orc.gain + 1e-10


def test_optimality_residuals_at_solution():
    m = ctmdp.build("mmn0", MM20_PARAMS)
    sol = solve_average(m)
    upper, lower = optimality_residuals(m, sol.gain, sol.h, sol.policy)
    assert upper <= 1e-6
    assert lower <= 1e-6
    assert upper == sol.residual_upper
    assert lower == sol.residual_lower


def test_reducible_policy_gain_uses_recurrent_class():
    # absorbing state 1: the chain restricted to its closed class
    m = ctmdp.CtmdpModel(
        states=ctmdp.StateSpace(size=2),
        actions=ctmdp.ActionSets(sets=(((0.0,),), ((0.0,),))),
        kernel=ctmdp.RateKernel([[[(0, -1.0), (1, 1.0)]],
                                 [[(1, 0.0)]]]),
        rewards=ctmdp.RewardTable(table=((5.0,), (2.0,))),
    )
    orc = brute_force_oracle(m)
    assert orc.gain == pytest.approx(2.0)
    assert orc.restricted


def test_truncation_sensitivity_stabilizes():
    params = {"lambda": 1, "mu1": 3, "mu2": 4, "G": 2}
    rep = truncation_sensitivity(
        lambda p: ctmdp.build("birth_death", p), params, [10, 20, 40],
        schedule=VanishingSchedule(steps=20))
    assert rep.levels == [10, 20, 40]
    assert rep.stable
    assert rep.gaps[-1] <= 1e-6


def test_truncation_sensitivity_aligns_2d_states_by_label():
    def build(p):
        return ctmdp.build("tandem", p)
    rep = truncation_sensitivity(build, {"G": 2}, [4, 6])
    small, large = build({"N": 4, "G": 2}), build({"N": 6, "G": 2})
    h_small, h_large = solve_average(small).h, solve_average(large).h
    index = {lab: i for i, lab in enumerate(large.states.labels)}
    # inner region: both queue lengths below half the 5-level grid
    inner = [i for i, (x1, x2) in enumerate(small.states.labels)
             if x1 < 2 and x2 < 2]
    assert len(inner) == 4
    expected = max(abs(h_small[i] - h_large[index[small.states.labels[i]]])
                   for i in inner)
    assert rep.h_inner_gaps == [expected]
    assert expected < 0.1      # flat-index alignment read 3.94 here
