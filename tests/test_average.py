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


@pytest.mark.parametrize("name, params", [
    ("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4, "N": 30, "G": 3}),
    ("tandem", {"N": 10, "G": 2})])
def test_sparse_policy_iteration_matches_dense_reference(name, params):
    m = ctmdp.build(name, params)
    orc = brute_force_oracle(m)
    ref = oracles.dense_brute_force_oracle(m)
    assert orc.method == ref.method == "policy_iteration"
    assert orc.gain == pytest.approx(ref.gain, abs=1e-11)
    assert oracles.policy_gain(m, orc.policy) == pytest.approx(ref.gain,
                                                               abs=1e-11)


@pytest.mark.parametrize("name, params", [
    ("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3, "p": 2.0,
                     "N": 2000, "G": 11}),
    ("tandem", {"N": 60, "G": 2})])
def test_oracle_agrees_with_solver_at_model_scale(name, params):
    m = ctmdp.build(name, params)
    orc = brute_force_oracle(m)
    assert orc.method == "policy_iteration"
    assert solve_average(m).gain == pytest.approx(orc.gain, abs=1e-8)


def test_oracle_error_carries_partial_state():
    # states 1 and 2 each have an absorbing action, and state 0's action 1
    # leads to both: policy [1, 1, 1] reaches two closed classes from 0
    m = ctmdp.CtmdpModel(
        states=ctmdp.StateSpace(size=3),
        actions=ctmdp.ActionSets(sets=(((0.0,), (1.0,)),) * 3),
        kernel=ctmdp.RateKernel([
            [[(0, -1.0), (1, 1.0)], [(0, -2.0), (1, 1.0), (2, 1.0)]],
            [[(0, 1.0), (1, -1.0)], [(1, 0.0)]],
            [[(0, 1.0), (2, -1.0)], [(2, 0.0)]]]),
        rewards=ctmdp.RewardTable(table=((0.0, 0.0), (0.0, 1.0),
                                         (0.0, 3.0))),
    )
    with pytest.raises(ctmdp.OracleError) as info:
        brute_force_oracle(m)
    assert info.value.detail() == {"method": "enumeration",
                                   "policy": [1, 1, 1], "evaluated": 7}
    # round 1 evaluates [0, 0, 0] (gain 0); its greedy improvement
    # [0, 1, 1] has two closed classes, so its Poisson system is singular
    with pytest.raises(ctmdp.OracleError) as info:
        brute_force_oracle(m, enumeration_limit=1)
    assert info.value.detail() == {"method": "policy_iteration",
                                   "policy": [0, 1, 1], "round": 2,
                                   "best_gain": 0.0}


def test_policy_iteration_refuses_a_multichain_policy():
    # under the all-zeros start policy state 0 is absorbing beside the
    # closed class {1, 2}; the bordered Poisson system is singular, but its
    # LU pivots are not exactly zero, so only the structural check sees it
    # (without it the oracle returns gain -3.3549 for [0, 0, 0], while
    # action 1 at state 0 leads into {1, 2}, gain about -1.30)
    m = ctmdp.CtmdpModel(
        states=ctmdp.StateSpace(size=3),
        actions=ctmdp.ActionSets(sets=(((0.0,), (1.0,)), ((0.0,),),
                                       ((0.0,),))),
        kernel=ctmdp.RateKernel([
            [[(0, 0.0)], [(0, -3.3335), (2, 3.3335)]],
            [[(1, -0.2977), (2, 0.2977)]], [[(1, 3.3107), (2, -3.3107)]]]),
        rewards=ctmdp.RewardTable(table=((-3.3549, -3.3549), (-1.2485,),
                                         (-1.8326,))),
    )
    with pytest.raises(ctmdp.OracleError, match="2 closed classes") as info:
        brute_force_oracle(m, enumeration_limit=0)
    assert info.value.detail() == {"method": "policy_iteration",
                                   "policy": [0, 0, 0], "round": 1,
                                   "best_gain": None}
    assert max(oracles.optimal_gains(m)) < -1.29


def test_enumeration_breaks_rounding_ties_by_product_order():
    # the action of the transient state 0 leaves the gain unchanged, but
    # the batched solves give the three policies gains that differ in the
    # last bits (the second one is largest on x86-64 with OpenBLAS)
    m = ctmdp.CtmdpModel(
        states=ctmdp.StateSpace(size=3),
        actions=ctmdp.ActionSets(sets=(((0.0,), (1.0,), (2.0,)), ((0.0,),),
                                       ((0.0,),))),
        kernel=ctmdp.RateKernel([
            [[(0, -q), (1, q)] for q in (2.9, 0.16, 3.06)],
            [[(1, -2.1), (2, 2.1)]], [[(1, 3.72), (2, -3.72)]]]),
        rewards=ctmdp.RewardTable(table=((0.0,) * 3, (-4.34,), (3.41,))),
    )
    orc = brute_force_oracle(m)
    assert orc.policy.choice.tolist() == [0, 0, 0]
    assert orc.restricted
    assert orc.gain == pytest.approx((-4.34 * 3.72 + 3.41 * 2.1) / 5.82,
                                     abs=1e-14)


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


def test_default_solve_reports_a_closed_bracket():
    m = ctmdp.build("mmn0", MM20_PARAMS)
    sol = solve_average(m, tol=1e-9)
    assert sol.converged
    assert sol.gain_lower <= sol.gain <= sol.gain_upper
    assert sol.gain_upper - sol.gain_lower <= 1e-9
    assert sol.trace == [] and sol.sweeps > 0
    assert sol.h_lower is None and "h_lower" not in sol.to_dict()
    # gain, h and policy come from one h: residuals are half the width
    assert max(sol.residual_upper, sol.residual_lower) <= 0.5e-9 + 1e-15


def test_schedule_warm_starts_the_bracket_stage():
    m = ctmdp.build("mmn0", MM20_PARAMS)
    cold = solve_average(m)
    warm = solve_average(m, schedule=VanishingSchedule(steps=10))
    assert [e["sweeps"] > 0 for e in warm.trace] == [True] * 11
    assert warm.sweeps < cold.sweeps
    assert warm.gain == pytest.approx(cold.gain, abs=1e-8)


def test_transient_reference_with_fast_exit_converges():
    # x0 = 0 leaves at rate 4 for the absorbing state 1: the per-state
    # uniformized iteration diverges here and the uniform pass takes over
    m = ctmdp.CtmdpModel(
        states=ctmdp.StateSpace(size=2),
        actions=ctmdp.ActionSets(sets=(((0.0,),), ((0.0,),))),
        kernel=ctmdp.RateKernel([[[(0, -4.0), (1, 4.0)]], [[(1, 0.0)]]]),
        rewards=ctmdp.RewardTable(table=((0.0,), (1.0,))),
    )
    sol = solve_average(m)
    assert sol.gain == pytest.approx(1.0, abs=1e-8)
    assert sol.gain_upper - sol.gain_lower <= 1e-8
    assert sol.h == pytest.approx([0.0, 0.25], abs=1e-8)


def test_multichain_model_raises_with_partial_trace():
    m = ctmdp.CtmdpModel(
        states=ctmdp.StateSpace(size=2),
        actions=ctmdp.ActionSets(sets=(((0.0,),), ((0.0,),))),
        kernel=ctmdp.RateKernel([[[(0, 0.0)]], [[(1, 0.0)]]]),
        rewards=ctmdp.RewardTable(table=((1.0,), (2.0,))),
    )
    with pytest.raises(ctmdp.ConvergenceError) as info:
        solve_average(m, schedule=VanishingSchedule(steps=2))
    exc = info.value
    assert exc.bracket == (1.0, 2.0)
    assert [e["alpha"] for e in exc.trace] == [0.1, 0.05, 0.025]
    assert exc.detail()["trace"] == exc.trace
