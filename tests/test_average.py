import json
from pathlib import Path

import numpy as np
import pytest

import ctmdp
from ctmdp import (StationaryPolicy, VanishingSchedule, brute_force_oracle,
                   certify_lower, certify_upper, discounted, solve_average,
                   truncation_sensitivity)

import oracles


MM20_PARAMS = {"lambda": 1, "mu1": 2, "mu2": 2.5, "N": 2, "G": 1}
BD = {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.0, "p": 2.0}
GOLDEN = Path(__file__).parent / "golden"
# the two largest instances of the benchmark's solve ladder
LADDER = [
    ("tandem", {"N": 40, "G": 2}),
    ("birth_death", dict(BD, N=500, G=11, p1=0.3))]


@pytest.fixture
def policy_sweep_calls(monkeypatch):
    """(m, sweeps, contracting) of every `_policy_sweeps` call."""
    calls = []
    inner = discounted._policy_sweeps

    def spy(Qf, rf, m, h, x0, tol, budget):
        out = inner(Qf, rf, m, h, x0, tol, budget)
        calls.append((m, out[1], out[2]))
        return out

    monkeypatch.setattr(discounted, "_policy_sweeps", spy)
    return calls


def test_schedule_is_geometric():
    s = VanishingSchedule(alpha0=0.2, ratio=0.5, steps=3)
    assert s.alphas() == pytest.approx([0.2, 0.1, 0.05, 0.025])


def test_bad_schedule_rejected():
    with pytest.raises(ctmdp.ModelError):
        VanishingSchedule(alpha0=0.1, ratio=1.5, steps=3)
    with pytest.raises(ctmdp.ModelError, match="finite alpha0"):
        VanishingSchedule(alpha0=np.inf, ratio=0.5, steps=3)


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_tolerance_never_met_rejected(tol):
    m = ctmdp.build("mmn0", MM20_PARAMS)
    with pytest.raises(ctmdp.ModelError, match="tol must be finite and > 0"):
        solve_average(m, tol=tol)
    # refused before the first level is built
    with pytest.raises(ctmdp.ModelError, match="tol must be finite and > 0"):
        truncation_sensitivity("mmn0", MM20_PARAMS, [2, 3], tol=tol)


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


def test_oracle_error_carries_partial_state(monkeypatch):
    # states 1 and 2 each have an absorbing action, and state 0's action 1
    # leads to both: policy [1, 1, 1] reaches two closed classes from 0
    m = ctmdp.CtmdpModel(
        actions=[[0.0], [1.0]] * 3,
        kernel=oracles.kernel_from_rows([
            [[(0, -1.0), (1, 1.0)], [(0, -2.0), (1, 1.0), (2, 1.0)]],
            [[(0, 1.0), (1, -1.0)], [(1, 0.0)]],
            [[(0, 1.0), (2, -1.0)], [(2, 0.0)]]]),
        r=[0.0, 0.0, 0.0, 1.0, 0.0, 3.0],
    )
    with pytest.raises(ctmdp.OracleError) as info:
        brute_force_oracle(m)
    assert info.value.to_dict() == {
        "message": "2 closed classes reachable from state 0",
        "method": "enumeration", "policy": [1, 1, 1], "evaluated": 7,
        "round": None, "best_gain": None}
    # round 1 evaluates [0, 0, 0] (gain 0); its greedy improvement
    # [0, 1, 1] has two closed classes, so its Poisson system is singular
    monkeypatch.setattr(ctmdp.average, "ENUMERATION_LIMIT", 1)
    with pytest.raises(ctmdp.OracleError) as info:
        brute_force_oracle(m)
    assert info.value.to_dict() == {
        "message": "2 closed classes for policy [0, 1, 1]",
        "method": "policy_iteration", "policy": [0, 1, 1], "evaluated": None,
        "round": 2, "best_gain": 0.0}


def test_enumeration_counts_the_closed_classes_state_0_reaches():
    # state 0 leads to the absorbing states 1 and 2 and to the cycle {3, 4}
    m = ctmdp.CtmdpModel(
        actions=np.zeros((5, 1)),
        kernel=oracles.kernel_from_rows([
            [[(0, -1.75), (1, 1.0), (2, 0.5), (3, 0.25)]], [[(1, 0.0)]],
            [[(2, 0.0)]], [[(3, -1.5), (4, 1.5)]], [[(3, 2.0), (4, -2.0)]]]),
        r=[0.0, 1.0, 2.0, 3.0, 4.0],
    )
    message = "3 closed classes reachable from state 0"
    with pytest.raises(ctmdp.OracleError, match=message) as info:
        brute_force_oracle(m)
    assert info.value.to_dict() == {
        "message": message, "method": "enumeration",
        "policy": [0, 0, 0, 0, 0], "evaluated": 0, "round": None,
        "best_gain": None}
    with pytest.raises(ctmdp.OracleError, match=message):
        oracles.dense_brute_force_oracle(m)


def test_policy_iteration_refuses_a_multichain_policy(monkeypatch):
    # under the all-zeros start policy state 0 is absorbing beside the
    # closed class {1, 2}; the bordered Poisson system is singular, but its
    # LU pivots are not exactly zero, so only the structural check sees it
    # (without it the oracle returns gain -3.3549 for [0, 0, 0], while
    # action 1 at state 0 leads into {1, 2}, gain about -1.30)
    m = ctmdp.CtmdpModel(
        actions=[[0.0], [1.0], [0.0], [0.0]],
        kernel=oracles.kernel_from_rows([
            [[(0, 0.0)], [(0, -3.3335), (2, 3.3335)]],
            [[(1, -0.2977), (2, 0.2977)]], [[(1, 3.3107), (2, -3.3107)]]]),
        r=[-3.3549, -3.3549, -1.2485, -1.8326],
    )
    monkeypatch.setattr(ctmdp.average, "ENUMERATION_LIMIT", 0)
    with pytest.raises(ctmdp.OracleError, match="2 closed classes") as info:
        brute_force_oracle(m)
    assert info.value.to_dict() == {
        "message": "2 closed classes for policy [0, 0, 0]",
        "method": "policy_iteration", "policy": [0, 0, 0], "evaluated": None,
        "round": 1, "best_gain": None}
    assert max(oracles.optimal_gains(m)) < -1.29


def test_enumeration_breaks_rounding_ties_by_product_order():
    # the action of the transient state 0 leaves the gain unchanged, but
    # the batched solves give the three policies gains that differ in the
    # last bits (the second one is largest on x86-64 with OpenBLAS)
    m = ctmdp.CtmdpModel(
        actions=[[0.0], [1.0], [2.0], [0.0], [0.0]],
        kernel=oracles.kernel_from_rows([
            [[(0, -q), (1, q)] for q in (2.9, 0.16, 3.06)],
            [[(1, -2.1), (2, 2.1)]], [[(1, 3.72), (2, -3.72)]]]),
        r=[0.0, 0.0, 0.0, -4.34, 3.41],
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
    for a1 in range(m.kernel.counts[1]):
        for a2 in range(m.kernel.counts[2]):
            f = StationaryPolicy(choice=np.array([0, a1, a2]))
            assert oracles.policy_gain(m, f) <= orc.gain + 1e-10


@pytest.mark.parametrize("name, params", [
    ("mmn0", MM20_PARAMS),
    ("birth_death", dict(BD, N=30, G=3)),
    ("skip_free", {"lambda": 1, "mu": 2, "b": 1.0, "beta": 2.0, "N": 30,
                   "G": 5}),
    ("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 7, "G": 3}),
    ("explicit", None)] + LADDER,
    ids=["mm20", "bd30", "skip30", "mmn7", "explicit", "tandem40", "bd500"])
def test_solve_average_residuals_are_the_certificates(name, params):
    # the report's residuals are the two inequalities as `verify` checks them
    explicit = (GOLDEN / "explicit_model.json").read_text()
    m = (ctmdp.model_from_dict(json.loads(explicit))
         if params is None else ctmdp.build(name, params))
    sol = solve_average(m)
    assert sol.residual_upper == certify_upper(m, sol.gain,
                                               sol.h).max_violation
    assert sol.residual_lower == certify_lower(m, sol.gain, sol.h,
                                               sol.policy).max_violation
    assert max(sol.residual_upper, sol.residual_lower) <= 1e-6
    # bracket and policy are the Bellman evaluation at the returned h
    assert np.array_equal(sol.policy.choice,
                          ctmdp.extract_policy(m, sol.h).choice)
    bell = discounted.bellman(m, sol.h)[1]
    assert (sol.gain_lower, sol.gain_upper) == (bell.min(), bell.max())


@pytest.mark.parametrize("solve", [
    lambda m: solve_average(m),
    lambda m: solve_average(m, schedule=VanishingSchedule(steps=3)),
    lambda m: ctmdp.solve_discounted(m, 0.05)],
    ids=["average", "average_scheduled", "discounted"])
def test_solvers_do_not_evaluate_their_returned_h_again(monkeypatch, solve):
    # after the iteration returns, neither solver evaluates r + Q h: both
    # read their reports off the last sweep's evaluation
    m = ctmdp.build("birth_death", dict(BD, N=30, G=3))
    log = []
    evaluate, iterate = discounted.bellman, discounted._vi_relative

    def bellman_spy(model, u):
        log.append(u)
        return evaluate(model, u)

    def vi_spy(*args, **kwargs):
        out = iterate(*args, **kwargs)
        log.clear()
        return out

    for module in (discounted, ctmdp.verify):
        monkeypatch.setattr(module, "bellman", bellman_spy)
    for module in (discounted, ctmdp.average):
        monkeypatch.setattr(module, "_vi_relative", vi_spy)
    solve(m)
    assert not log


def test_reducible_policy_gain_uses_recurrent_class():
    # absorbing state 1: the chain restricted to its closed class
    m = ctmdp.CtmdpModel(
        actions=np.zeros((2, 1)),
        kernel=oracles.kernel_from_rows([[[(0, -1.0), (1, 1.0)]],
                                         [[(1, 0.0)]]]),
        r=[5.0, 2.0],
    )
    orc = brute_force_oracle(m)
    assert orc.gain == pytest.approx(2.0)
    assert orc.restricted


def test_truncation_sensitivity_stabilizes():
    params = {"lambda": 1, "mu1": 3, "mu2": 4, "G": 2}
    rep = truncation_sensitivity("birth_death", params, [10, 20, 40],
                                 schedule=VanishingSchedule(steps=20))
    assert rep.levels == [10, 20, 40]
    assert rep.stable
    assert rep.gaps[-1] <= 1e-6


@pytest.mark.parametrize("levels", [[30], [], [15, 15]])
def test_truncation_sensitivity_needs_two_distinct_levels(levels):
    # each used to report "stable" from no gap, or from a gap of 0.0
    with pytest.raises(ctmdp.ModelError, match="two distinct"):
        truncation_sensitivity("birth_death",
                               {"lambda": 1, "mu1": 3, "mu2": 4, "G": 2},
                               levels)


@pytest.mark.parametrize("params, levels, field", [
    ({"lambda": 1, "mu1": 3, "mu2": 4, "G": 2}, [2, 4], "levels"),
    ({"lambda": 1, "mu1": 3, "mu2": 4, "G": 2, "N": 99}, [3, 4], "params")])
def test_truncation_sensitivity_refusals_name_what_sets_n(params, levels,
                                                           field):
    with pytest.raises(ctmdp.ModelError, match=f"^{field}") as err:
        truncation_sensitivity("birth_death", params, levels)
    assert err.value.field == field


def test_truncation_sensitivity_drops_repeated_levels():
    rep = truncation_sensitivity("birth_death",
                                 {"lambda": 1, "mu1": 3, "mu2": 4, "G": 2},
                                 [20, 10, 20])
    assert rep.levels == [10, 20]
    assert len(rep.gaps) == 1 and rep.gaps[0] > 0


@pytest.mark.parametrize("name, params, levels", [
    # lambda * x overflows at x = 2 on both levels
    ("birth_death", {"lambda": 1e308, "mu1": 3, "mu2": 4, "G": 2}, [3, 4]),
    # mu2 * x overflows at x = 2: level 1 validates, level 2 does not
    ("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 1e308, "G": 2}, [1, 2])])
def test_truncation_sensitivity_validates_every_level_before_solving(
        monkeypatch, name, params, levels):
    # these were solved with infinite rates
    solved = []
    monkeypatch.setattr(ctmdp.average, "solve_average",
                        lambda model, **kw: solved.append(model))
    with pytest.raises(ctmdp.ModelError, match="^model fails validation: "):
        truncation_sensitivity(name, params, levels)
    assert solved == []


def test_truncation_sensitivity_aligns_2d_states_by_label():
    rep = truncation_sensitivity("tandem", {"G": 2}, [4, 6])
    small, large = (ctmdp.build("tandem", {"N": N, "G": 2}) for N in (4, 6))
    h_small, h_large = solve_average(small).h, solve_average(large).h
    index = {lab: i for i, lab in enumerate(large.labels)}
    # inner region: both queue lengths below half the 5-level grid
    inner = [i for i, (x1, x2) in enumerate(small.labels)
             if x1 < 2 and x2 < 2]
    assert len(inner) == 4
    expected = max(abs(h_small[i] - h_large[index[small.labels[i]]])
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
    assert sol.h_lower is None and sol.to_dict()["h_lower"] is None
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
        actions=np.zeros((2, 1)),
        kernel=oracles.kernel_from_rows([[[(0, -4.0), (1, 4.0)]],
                                         [[(1, 0.0)]]]),
        r=[0.0, 1.0],
    )
    sol = solve_average(m)
    assert sol.gain == pytest.approx(1.0, abs=1e-8)
    assert sol.gain_upper - sol.gain_lower <= 1e-8
    assert sol.h == pytest.approx([0.0, 0.25], abs=1e-8)


def test_multichain_model_raises_with_partial_trace():
    m = ctmdp.CtmdpModel(
        actions=np.zeros((2, 1)),
        kernel=oracles.kernel_from_rows([[[(0, 0.0)]], [[(1, 0.0)]]]),
        r=[1.0, 2.0],
    )
    with pytest.raises(ctmdp.ConvergenceError) as info:
        solve_average(m, schedule=VanishingSchedule(steps=2))
    exc = info.value
    assert (exc.gain_lower, exc.gain_upper) == (1.0, 2.0)
    assert [e["alpha"] for e in exc.trace] == [0.1, 0.05, 0.025]
    assert exc.to_dict()["trace"] == exc.trace


def test_uniform_fallback_runs_no_policy_sweeps(policy_sweep_calls):
    # the fast-exit model: the per-state pass (m = [5, 1]) diverges and the
    # uniform pass (m = [5, 5]) is plain relative value iteration from h = 0
    m = ctmdp.CtmdpModel(
        actions=np.zeros((2, 1)),
        kernel=oracles.kernel_from_rows([[[(0, -4.0), (1, 4.0)]],
                                         [[(1, 0.0)]]]),
        r=[0.0, 1.0],
    )
    sol = solve_average(m)
    assert policy_sweep_calls
    assert all(call[0].tolist() == [5.0, 1.0] for call in policy_sweep_calls)
    h = np.zeros(2)
    while True:
        bell = discounted.bellman(m, h)[1]
        if bell.max() - bell.min() <= 1e-8:
            break
        delta = (bell + 5.0 * h - bell[0]) / 5.0
        h = delta - delta[0]
    assert sol.h.tolist() == h.tolist()
    assert sol.gain == pytest.approx(1.0, abs=1e-8)


def test_multichain_model_runs_policy_sweeps_in_one_pass_only(
        policy_sweep_calls):
    # both passes use m = [1, 1] here; the uniform pass makes its own array
    m = ctmdp.CtmdpModel(
        actions=np.zeros((2, 1)),
        kernel=oracles.kernel_from_rows([[[(0, 0.0)]], [[(1, 0.0)]]]),
        r=[1.0, 2.0],
    )
    with pytest.raises(ctmdp.ConvergenceError) as info:
        solve_average(m)
    assert (info.value.gain_lower, info.value.gain_upper) == (1.0, 2.0)
    assert policy_sweep_calls
    assert all(call[0] is policy_sweep_calls[0][0]
               for call in policy_sweep_calls)


@pytest.mark.parametrize("name, params", LADDER)
def test_policy_sweeps_close_the_ladder_brackets(name, params):
    m = ctmdp.build(name, params)
    sol = solve_average(m)
    assert sol.converged and sol.gain_upper - sol.gain_lower <= 1e-8
    assert sol.gain == pytest.approx(brute_force_oracle(m).gain, abs=1e-8)
    assert certify_upper(m, sol.gain, sol.h, tol=1e-8).passed
    assert certify_lower(m, sol.gain, sol.h, sol.policy, tol=1e-8).passed


@pytest.mark.parametrize("name, params", LADDER)
def test_sweeps_count_policy_sweeps(name, params, policy_sweep_calls):
    sol = solve_average(ctmdp.build(name, params))
    # each Bellman sweep that left the bracket open ran policy sweeps
    assert all(call[2] for call in policy_sweep_calls)
    policy = sum(call[1] for call in policy_sweep_calls)
    assert sol.sweeps == len(policy_sweep_calls) + policy
    assert policy > 5 * len(policy_sweep_calls)


def test_constant_gain_model_closes_its_bracket():
    # the optimal gain is 1.125 from every state: action 1 at state 0
    # reaches the absorbing state 3 (r 1.125), action 0 cycles with state 1
    # (gain 1.109375). In the uniform pass bell stays flat for over 1000
    # sweeps while h(3) rises, which only the shrinking gap of (0, 1) below
    # bell(0) shows; counting bell alone raised "stalled" after 2413 sweeps
    m = ctmdp.CtmdpModel(
        actions=[[0.0], [1.0], [2.0]] + [[0.0]] * 4,
        kernel=oracles.kernel_from_rows([
            [[(0, -1.0), (1, 1.0)],
             [(0, -4.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)],
             [(0, 0.0)]],
            [[(0, 1.0), (1, -1.0)]], [[(0, 0.5), (2, -0.5)]], [[(3, 0.0)]],
            [[(0, 1.0), (4, -1.0)]]]),
        r=[1.09375, 0.0, 0.0, 1.125, 0.0, 1.125, 0.0],
    )
    sol = solve_average(m)
    assert sol.converged
    assert sol.gain == pytest.approx(1.125, abs=1e-8)
    assert sol.policy.choice.tolist() == [1, 0, 0, 0, 0]
    assert certify_upper(m, sol.gain, sol.h, tol=1e-8).passed
    assert certify_lower(m, sol.gain, sol.h, sol.policy, tol=1e-8).passed
