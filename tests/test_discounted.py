import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctmdp
from ctmdp import (StationaryPolicy, bellman_operator, extract_policy,
                   solve_discounted, uniformize, weighted_norm)

import oracles


def fixed_policy_model(builtin_params, name="birth_death"):
    m = ctmdp.build(name, builtin_params)
    f = StationaryPolicy(choice=np.zeros(m.n, dtype=np.int64))
    return m, f


def restrict_to_policy(model, f):
    """Single-action copy of the model following f (for fixed-policy runs)."""
    rows = [[model.kernel.row(x, f[x])] for x in range(model.n)]
    rows = [[list(zip(ys.tolist(), rates.tolist())) for ys, rates in per]
            for per in rows]
    return ctmdp.CtmdpModel(
        states=model.states,
        actions=ctmdp.ActionSets(sets=tuple(
            (model.actions[x][f[x]],) for x in range(model.n))),
        kernel=ctmdp.RateKernel(rows),
        rewards=ctmdp.RewardTable(table=tuple(
            (model.rewards.rate(x, f[x]),) for x in range(model.n))),
        lyapunov=model.lyapunov,
    )


@pytest.mark.parametrize("alpha, tol, name", [
    (np.nan, 1e-10, "alpha"), (0.0, 1e-10, "alpha"), (-0.5, 1e-10, "alpha"),
    (np.inf, 1e-10, "alpha"), (1.0, 0.0, "tol"), (0.5, -1.0, "tol"),
    (0.5, np.nan, "tol"),
])
def test_unreachable_discount_or_tolerance_rejected(alpha, tol, name):
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 2, "mu2": 2.5, "N": 2,
                             "G": 1})
    with pytest.raises(ctmdp.ModelError, match=f"{name} must be finite"):
        solve_discounted(m, alpha, tol=tol)


def test_uniformized_rows_are_probabilities():
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "p1": 0.3, "N": 10, "G": 3})
    kern = uniformize(m)
    for x in range(m.n):
        assert kern.m[x] == pytest.approx(m.kernel.q_max(x) + 1.0)
        for a in range(m.n_actions(x)):
            ys, probs = kern.row(x, a)
            assert np.all(probs >= 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_uniformize_known_row():
    # rates {0: 3, 1: -4, 2: 1} with m = 5 -> probabilities {0.6, 0.2, 0.2}
    m = ctmdp.CtmdpModel(
        states=ctmdp.StateSpace(size=3),
        actions=ctmdp.ActionSets(sets=(((0.0,),),) * 3),
        kernel=ctmdp.RateKernel([
            [[(0, -1.0), (1, 1.0)]],
            [[(0, 3.0), (1, -4.0), (2, 1.0)]],
            [[(1, 4.0), (2, -4.0)]],
        ]),
        rewards=ctmdp.RewardTable(table=((0.0,),) * 3),
    )
    kern = uniformize(m)
    assert kern.m[1] == 5.0
    ys, probs = kern.row(1, 0)
    assert ys.tolist() == [0, 1, 2]
    assert probs.tolist() == pytest.approx([0.6, 0.2, 0.2], abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0),
                min_size=2, max_size=8),
       st.integers(min_value=0, max_value=7))
def test_uniformize_random_conservative_rows(offdiag, pos):
    n = len(offdiag) + 1
    pos = pos % n
    entries = []
    total = 0.0
    j = 0
    for y in range(n):
        if y == pos:
            continue
        entries.append((y, offdiag[j]))
        total += offdiag[j]
        j += 1
    entries.append((pos, -total))
    rows = []
    for x in range(n):
        if x == pos:
            rows.append([entries])
        else:
            rows.append([[(x, 0.0)]])
    m = ctmdp.CtmdpModel(
        states=ctmdp.StateSpace(size=n),
        actions=ctmdp.ActionSets(sets=(((0.0,),),) * n),
        kernel=ctmdp.RateKernel(rows),
        rewards=ctmdp.RewardTable(table=((0.0,),) * n),
    )
    ys, probs = uniformize(m).row(pos, 0)
    assert np.all(probs >= 0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 0.1, 0.001])
def test_value_matches_linear_solve(alpha):
    m, f = fixed_policy_model({"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.0,
                               "p": 2.0, "N": 30, "G": 3})
    single = restrict_to_policy(m, f)
    sol = solve_discounted(single, alpha)
    ref = oracles.discounted_value(m, f, alpha)
    assert weighted_norm(sol.values - ref, m.weights()) <= 1e-8


def test_solver_reports_contraction_modulus():
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 2, "mu2": 2.5, "N": 2,
                             "G": 1})
    sol = solve_discounted(m, 0.5)
    mvec = m.flat().qmax + 1.0
    assert sol.kappa == pytest.approx(np.max(mvec / (0.5 + mvec)))
    assert sol.residual <= 1e-10


def test_bellman_operator_is_monotone_contraction():
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3,
                             "G": 2})
    alpha = 0.3
    rng = np.random.default_rng(0)
    u = rng.normal(size=m.n)
    v = u + rng.uniform(0.0, 1.0, size=m.n)
    Tu, Tv = bellman_operator(m, alpha, u), bellman_operator(m, alpha, v)
    assert np.all(Tv >= Tu - 1e-12)
    mvec = m.flat().qmax + 1.0
    kappa = np.max(mvec / (alpha + mvec))
    assert np.max(np.abs(Tv - Tu)) <= kappa * np.max(np.abs(v - u)) + 1e-12


def test_policy_extraction_shift_invariant():
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "N": 10, "G": 3})
    sol = solve_discounted(m, 0.05)
    f1 = extract_policy(m, sol.values)
    f2 = extract_policy(m, sol.values + 123.456)
    assert np.array_equal(f1.choice, f2.choice)


def test_tie_breaking_prefers_lowest_index():
    # two identical actions everywhere: the argmax must pick index 0
    m = ctmdp.CtmdpModel(
        states=ctmdp.StateSpace(size=2),
        actions=ctmdp.ActionSets(sets=(((0.0,), (1.0,)),) * 2),
        kernel=ctmdp.RateKernel([
            [[(0, -1.0), (1, 1.0)], [(0, -1.0), (1, 1.0)]],
            [[(0, 2.0), (1, -2.0)], [(0, 2.0), (1, -2.0)]],
        ]),
        rewards=ctmdp.RewardTable(table=((1.0, 1.0), (0.0, 0.0))),
    )
    sol = solve_discounted(m, 0.2)
    assert sol.policy.choice.tolist() == [0, 0]


def test_invalid_discount_rejected():
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 2, "mu2": 2.5, "N": 2,
                             "G": 1})
    with pytest.raises(ctmdp.ModelError):
        solve_discounted(m, 0.0)


def test_vanishing_alpha_stays_well_scaled():
    # alpha*J stays O(1) and matches the gain reading at tiny alpha
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "N": 20, "G": 2})
    sol = solve_discounted(m, 1e-8)
    assert sol.residual <= 1e-10
    assert 0.0 < 1e-8 * sol.values[0] < 10.0
