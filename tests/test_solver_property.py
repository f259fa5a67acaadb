"""Property test: the certified-bracket average solver against the
independent oracle on random small explicit CTMDPs, absorbing and
reducible ones included. On every model the solver either returns a
bracket no wider than tol whose midpoint is within tol of
`brute_force_oracle`, and whose (gain, h, policy) pass both certificates,
or raises ConvergenceError; it may raise only when the optimal gain
differs between start states by more than tol, so that no bracket can
close, and its running bracket must still hold every state's optimal gain.
One model breaks this at a spread of exactly tol (SPREAD_AT_TOL, a known
failure kept as a strict xfail).

On the same models the batched enumeration of `brute_force_oracle` is
checked against the per-policy dense reference in oracles.py.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ctmdp import (ConvergenceError, brute_force_oracle, certify_lower,
                   certify_upper, model_from_dict, model_to_dict,
                   solve_average)
from ctmdp.average import OracleError

import oracles

TOL = 1e-8


@st.composite
def explicit_documents(draw):
    n = draw(st.integers(1, 6))
    actions, rates, rewards = [], [], []
    for x in range(n):
        k = draw(st.integers(1, 3))
        actions.append([[float(a)] for a in range(k)])
        others = [y for y in range(n) if y != x]
        for a in range(k):
            absorbing = not others or draw(st.integers(0, 5)) == 0
            ys = [] if absorbing else sorted(draw(st.sets(
                st.sampled_from(others), min_size=1, max_size=len(others))))
            rates.append({"x": x, "a": a, "entries": [
                [y, draw(st.floats(0.1, 4.0))] for y in ys]})
            rewards.append({"x": x, "a": a, "r": draw(st.floats(-5.0, 5.0))})
    return {"kind": "explicit", "states": n, "actions": actions,
            "rates": rates, "rewards": rewards}


# optimal gain 1.125 from every state; the uniform pass used to stall with
# bell flat while h(3) still rose (test_average has the same model)
CONSTANT_GAIN = {
    "kind": "explicit", "states": 5,
    "actions": [[[0.0], [1.0], [2.0]], [[0.0]], [[0.0]], [[0.0]], [[0.0]]],
    "rates": [{"x": 0, "a": 0, "entries": [[1, 1.0]]},
              {"x": 0, "a": 1, "entries": [[1, 1.0], [2, 1.0], [3, 1.0],
                                           [4, 1.0]]},
              {"x": 0, "a": 2, "entries": []},
              {"x": 1, "a": 0, "entries": [[0, 1.0]]},
              {"x": 2, "a": 0, "entries": [[0, 0.5]]},
              {"x": 3, "a": 0, "entries": []},
              {"x": 4, "a": 0, "entries": [[0, 1.0]]}],
    "rewards": [{"x": 0, "a": 0, "r": 1.09375}, {"x": 0, "a": 1, "r": 0.0},
                {"x": 0, "a": 2, "r": 0.0}, {"x": 1, "a": 0, "r": 1.125},
                {"x": 2, "a": 0, "r": 0.0}, {"x": 3, "a": 0, "r": 1.125},
                {"x": 4, "a": 0, "r": 0.0}]}


@settings(max_examples=200, deadline=None)
@given(explicit_documents())
@example(CONSTANT_GAIN)
def test_solver_brackets_the_oracle_gain(doc):
    model = model_from_dict(doc)
    assert model_to_dict(model_from_dict(model_to_dict(model))) \
        == model_to_dict(model)
    try:
        oracle = brute_force_oracle(model)
    except OracleError:
        assume(False)
    try:
        sol = solve_average(model, tol=TOL)
    except ConvergenceError as exc:
        gains = oracles.optimal_gains(model)
        assert gains.max() - gains.min() > TOL
        lower, upper = exc.gain_lower, exc.gain_upper
        assert lower <= gains.min() + TOL and gains.max() <= upper + TOL
        return
    assert sol.converged
    assert sol.residual_upper == certify_upper(model, sol.gain,
                                               sol.h).max_violation
    assert sol.residual_lower == certify_lower(model, sol.gain, sol.h,
                                               sol.policy).max_violation
    assert sol.gain_lower <= sol.gain <= sol.gain_upper
    assert sol.gain_upper - sol.gain_lower <= TOL
    assert abs(sol.gain - oracle.gain) <= TOL
    assert sol.h[sol.x0] == 0.0
    assert certify_upper(model, sol.gain, sol.h, tol=TOL).passed
    assert certify_lower(model, sol.gain, sol.h, sol.policy,
                         tol=TOL).passed
    assert np.isfinite(sol.h).all()


# optimal gains 1e-8, 0 and 1e-8: a spread of exactly TOL. bell(2) = 0.5 -
# h(2) falls towards 1e-8 from above, the bracket stalls at
# [0, 1.0000000105758744e-08] and the solver raises, which the property's
# "raise only at a spread > TOL" does not allow. Whether the solver's stop
# test should allow for rounding or the property should read >= is open.
SPREAD_AT_TOL = {
    "kind": "explicit", "states": 3,
    "actions": [[[0.0]], [[0.0]], [[0.0]]],
    "rates": [{"x": 0, "a": 0, "entries": []},
              {"x": 1, "a": 0, "entries": []},
              {"x": 2, "a": 0, "entries": [[0, 1.0]]}],
    "rewards": [{"x": 0, "a": 0, "r": 1e-08}, {"x": 1, "a": 0, "r": 0.0},
                {"x": 2, "a": 0, "r": 0.5}]}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="solve_average raises at a gain spread of exactly "
                          "tol; the property allows a raise only above it")
def test_solver_at_a_gain_spread_of_exactly_tol():
    test_solver_brackets_the_oracle_gain.hypothesis.inner_test(SPREAD_AT_TOL)


def _oracle_or_error(oracle, model):
    try:
        return oracle(model)
    except OracleError as exc:
        return exc


@settings(max_examples=200, deadline=None)
@given(explicit_documents())
def test_batched_enumeration_matches_dense_reference(doc):
    model = model_from_dict(doc)
    new = _oracle_or_error(brute_force_oracle, model)
    ref = _oracle_or_error(oracles.dense_brute_force_oracle, model)
    assert isinstance(new, OracleError) == isinstance(ref, OracleError)
    if isinstance(ref, OracleError):
        return
    assert (new.method, new.restricted) == (ref.method, ref.restricted)
    assert abs(new.gain - ref.gain) <= 1e-11
    assert abs(oracles.closed_class_gain(model, new.policy)[0]
               - ref.gain) <= 1e-11
