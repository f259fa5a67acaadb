import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctmdp
from ctmdp import (ConvergenceError, StationaryPolicy, extract_policy,
                   model_from_dict, solve_discounted, weighted_norm)
from ctmdp import discounted
from ctmdp.discounted import DEFAULT_TOL, _vi_relative

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
        actions=model.actions[model.kernel.starts + f.choice],
        kernel=oracles.kernel_from_rows(rows),
        r=model.r[model.kernel.starts + f.choice],
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
    mvec = m.qmax + 1.0
    assert sol.kappa == pytest.approx(np.max(mvec / (0.5 + mvec)))
    assert sol.residual <= 1e-10


def test_policy_extraction_shift_invariant():
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "N": 10, "G": 3})
    sol = solve_discounted(m, 0.05)
    f1 = extract_policy(m, sol.values)
    f2 = extract_policy(m, sol.values + 123.456)
    assert np.array_equal(f1.choice, f2.choice)


@pytest.mark.parametrize("name, params, alpha", [
    ("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4, "N": 30, "G": 3}, 0.05),
    ("tandem", {"N": 10, "G": 2}, 0.5),
    ("skip_free", {"lambda": 1, "mu": 2, "b": 1.0, "beta": 2.0, "N": 20,
                   "G": 5}, 1e-3)])
def test_discounted_policy_is_greedy_at_the_returned_h(monkeypatch, name,
                                                        params, alpha):
    # the policy is read off the iteration's last evaluation, which is
    # the Bellman evaluation at the h it returns
    m = ctmdp.build(name, params)
    returned = []

    def spy(*args, **kwargs):
        returned.append(_vi_relative(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(discounted, "_vi_relative", spy)
    sol = solve_discounted(m, alpha)
    g, h, *_ = returned[0]
    assert np.array_equal(sol.policy.choice, extract_policy(m, h).choice)
    assert np.array_equal(sol.values, g / alpha + h)


def test_tie_breaking_prefers_lowest_index():
    # two identical actions everywhere: the argmax must pick index 0
    m = ctmdp.CtmdpModel(
        actions=[[0.0], [1.0]] * 2,
        kernel=oracles.kernel_from_rows([
            [[(0, -1.0), (1, 1.0)], [(0, -1.0), (1, 1.0)]],
            [[(0, 2.0), (1, -2.0)], [(0, 2.0), (1, -2.0)]],
        ]),
        r=[1.0, 1.0, 0.0, 0.0],
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


@st.composite
def stiff_documents(draw):
    """Explicit models with up to 6 states and 3 actions and rates from
    0.01 to 20. State 0, the reference state, is sometimes transient with
    exit rates of at least 10, and absorbing rows make some models' own
    chain multichain."""
    n = draw(st.integers(1, 6))
    transient = n > 1 and draw(st.booleans())
    actions, rates, rewards = [], [], []
    for x in range(n):
        k = draw(st.integers(1, 3))
        actions.append([[float(a)] for a in range(k)])
        fast = transient and x == 0
        others = [y for y in range(n) if y != x and not (transient and y == 0)]
        for a in range(k):
            absorbing = not others or (not fast
                                       and draw(st.integers(0, 3)) == 0)
            ys = [] if absorbing else sorted(draw(st.sets(
                st.sampled_from(others), min_size=1, max_size=len(others))))
            rates.append({"x": x, "a": a, "entries": [
                [y, draw(st.floats(10.0 if fast else 0.01, 20.0))]
                for y in ys]})
            rewards.append({"x": x, "a": a, "r": draw(st.floats(-5.0, 5.0))})
    return {"kind": "explicit", "states": n, "actions": actions,
            "rates": rates, "rewards": rewards}


def optimal_values(model, alpha):
    """J*: the elementwise maximum of every policy's discounted value."""
    return np.max([oracles.discounted_value(
        model, StationaryPolicy(choice=np.array(choice)), alpha)
        for choice in itertools.product(
            *[range(k) for k in model.kernel.counts.tolist()])], axis=0)


@pytest.mark.parametrize("alpha", [1.0, 0.05])
@settings(max_examples=50, deadline=None)
@given(doc=stiff_documents())
def test_discounted_value_within_residual_of_optimum(alpha, doc):
    # for w = 1, alpha * |J - J*| is at most the sup-norm residual of
    # alpha*J = max_a { r + Q J }, which solve_discounted reads off the
    # given model, not off the restart model it iterates
    model = model_from_dict(doc)
    sol = solve_discounted(model, alpha)
    assert sol.residual <= DEFAULT_TOL
    err = alpha * np.max(np.abs(sol.values - optimal_values(model, alpha)))
    assert err <= sol.residual + 1e-12


def test_discounted_convergence_error_brackets_the_gain(monkeypatch):
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3,
                             "G": 2})
    alpha = 0.05
    monkeypatch.setattr(discounted, "DEFAULT_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as info:
        _vi_relative(m, alpha, 0, DEFAULT_TOL)
    exc = info.value
    assert exc.alpha == alpha and exc.sweeps == 3
    lower, upper = exc.gain_lower, exc.gain_upper
    gain = alpha * optimal_values(m, alpha)[0]
    assert lower - 1e-12 <= gain <= upper + 1e-12
    assert (exc.to_dict()["gain_lower"], exc.to_dict()["gain_upper"]) \
        == (lower, upper)
