"""Differential tests: the whole-array model checks against the pointwise
loop references in oracles.py, on random small models with NaN/inf rates,
negative off-diagonals, positive diagonals, rows without a diagonal entry,
slack ties and labelled 1-D/2-D state spaces with a truncation boundary.
The serialized reports must be byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmdp import (ActionSets, CtmdpModel, LyapunovData, RateKernel,
                   RewardTable, StateSpace, StationaryPolicy,
                   check_assumption_A, check_assumption_B, check_monotonicity,
                   dumps, lyapunov, validate_model)
from oracles import (check_assumption_A_loop, check_assumption_B_loop,
                     check_monotonicity_loop, validate_model_loop)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

NAN, INF = float("nan"), float("inf")
# small integers make slack ties common
RATES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, 2.0, 3.0, -1.0, NAN, INF,
                         -INF])
REWARDS = st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0, 3.0, NAN, INF, -INF])


@st.composite
def rate_row(draw, x, n):
    targets = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    row = {y: draw(RATES) for y in targets if y != x}
    diagonal = draw(st.sampled_from(["complete", "random", "absent"]))
    if diagonal == "complete":
        row[x] = -sum(row.values())
    elif diagonal == "random":
        row[x] = draw(RATES)
    return sorted(row.items())


@st.composite
def small_models(draw):
    shape = draw(st.sampled_from(["plain", "1d", "2d"]))
    if shape == "2d":
        side = draw(st.integers(1, 3))
        n = side * side
        labels = tuple((i, j) for i in range(side) for j in range(side))
        level = side - 1
    else:
        n = draw(st.integers(1, 8))
        labels = tuple((i,) for i in range(n)) if shape == "1d" else None
        level = n - 1 if shape == "1d" else None
    n_actions = [draw(st.integers(1, 3)) for _ in range(n)]
    rows = [[draw(rate_row(x, n)) for _ in range(k)]
            for x, k in enumerate(n_actions)]
    rewards = tuple(tuple(draw(REWARDS) for _ in range(k)) for k in n_actions)
    lyap = None
    if draw(st.booleans()):
        weights = st.sampled_from([1.0, 1.5, 2.0, 4.0])
        wprime = None
        if draw(st.booleans()):
            wprime = [draw(st.sampled_from([0.0, 1.0, 2.0]))
                      for _ in range(n)]
        lyap = LyapunovData(
            w=[draw(weights) for _ in range(n)],
            c=draw(st.sampled_from([0.5, 1.0])),
            b=draw(st.sampled_from([0.0, 1.0, 2.0])),
            M=draw(st.sampled_from([0.5, 1.0, 2.0])),
            M_q=draw(st.sampled_from([1.0, 3.0])),
            wprime=wprime,
            cprime=None if wprime is None else 1.0,
            bprime=None if wprime is None else draw(
                st.sampled_from([0.0, 0.5])),
            Mprime=None if wprime is None else draw(
                st.sampled_from([1.0, 2.0])))
    model = CtmdpModel(
        states=StateSpace(size=n, labels=labels, truncation_level=level),
        actions=ActionSets(sets=tuple(tuple((float(a),) for a in range(k))
                                      for k in n_actions)),
        kernel=RateKernel(rows),
        rewards=RewardTable(table=rewards),
        lyapunov=lyap)
    policy = StationaryPolicy(choice=[draw(st.integers(0, k - 1))
                                      for k in n_actions])
    return model, policy


def same(array_report, loop_report):
    assert dumps(array_report.to_dict()) == dumps(loop_report.to_dict())


@settings(max_examples=250, deadline=None)
@given(small_models())
def test_flat_kernel_and_validate_match_loops(case):
    model, _ = case
    flat = model.flat()
    p = 0
    for x in range(model.n):
        for a in range(model.n_actions(x)):
            ys, rates = model.kernel.row(x, a)
            lo, hi = flat.Q.indptr[p], flat.Q.indptr[p + 1]
            assert flat.Q.indices[lo:hi].tolist() == ys.tolist()
            assert flat.Q.data[lo:hi].tobytes() == rates.tobytes()
            assert (np.float64(flat.exit[p]).tobytes()
                    == np.float64(model.kernel.exit_rate(x, a)).tobytes())
            p += 1
    same(validate_model(model), validate_model_loop(model))


@settings(max_examples=250, deadline=None)
@given(small_models(), st.sampled_from([1, 2, 5, 16, 1 << 18]))
def test_drift_bounds_and_monotonicity_match_loops(case, block_cells):
    model, policy = case
    if model.lyapunov is not None:
        same(check_assumption_A(model), check_assumption_A_loop(model))
        same(check_assumption_B(model), check_assumption_B_loop(model))
    saved = lyapunov._TAIL_BLOCK_CELLS
    lyapunov._TAIL_BLOCK_CELLS = block_cells     # several row blocks too
    try:
        same(check_monotonicity(model, policy),
             check_monotonicity_loop(model, policy))
    finally:
        lyapunov._TAIL_BLOCK_CELLS = saved


@settings(max_examples=100, deadline=None)
@given(small_models(), st.data())
def test_nonfinite_exit_rate_on_any_action_flags_stable_rates(case, data):
    model, _ = case
    multi = [x for x in range(model.n) if model.n_actions(x) > 1]
    if not multi:
        return
    # a finite action 0 used to hide a NaN exit rate on a later action
    x = data.draw(st.sampled_from(multi))
    a = data.draw(st.integers(1, model.n_actions(x) - 1))
    bad = data.draw(st.sampled_from([NAN, INF, -INF]))
    rows = [[list(zip(*model.kernel.row(s, b))) for b in range(
        model.n_actions(s))] for s in range(model.n)]
    rows[x][0] = [(y, r) for y, r in rows[x][0] if y != x] + [(x, -1.0)]
    rows[x][a] = [(y, r) for y, r in rows[x][a] if y != x] + [(x, bad)]
    model = CtmdpModel(states=model.states, actions=model.actions,
                       kernel=RateKernel(rows), rewards=model.rewards,
                       lyapunov=model.lyapunov)
    report = validate_model(model)
    assert {"check": "stable_rates", "x": x, "a": None, "y": None,
            "slack": None} in report.violations
    same(report, validate_model_loop(model))
