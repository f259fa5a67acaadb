"""Differential tests: the whole-array model checks against the pointwise
loop references in oracles.py, on random small models with NaN/inf rates,
negative off-diagonals, positive diagonals, rows without a diagonal entry,
slack ties and labelled 1-D/2-D state spaces with a truncation boundary,
and the tail-sum check also on zero-heavy rows and builtins of a few
hundred states. The serialized reports must be byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmdp import (CtmdpModel, LyapunovData, StationaryPolicy, build,
                   check_assumption_A, check_assumption_B, check_monotonicity,
                   dumps, validate_model)
from oracles import (check_assumption_A_loop, check_assumption_B_loop,
                     check_monotonicity_loop, index_actions, kernel_from_rows,
                     validate_model_loop)

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
    rewards = [draw(REWARDS) for k in n_actions for _ in range(k)]
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
        actions=index_actions(n_actions),
        kernel=kernel_from_rows(rows), r=rewards,
        lyapunov=lyap, labels=labels, truncation_level=level)
    policy = StationaryPolicy(choice=[draw(st.integers(0, k - 1))
                                      for k in n_actions])
    return model, policy


def same(array_report, loop_report):
    assert dumps(array_report.to_dict()) == dumps(loop_report.to_dict())


@settings(max_examples=250, deadline=None)
@given(small_models())
def test_flat_kernel_and_validate_match_loops(case):
    model, _ = case
    Q = model.kernel.Q
    p = 0
    for x in range(model.n):
        for a in range(model.kernel.counts[x]):
            ys, rates = model.kernel.row(x, a)
            lo, hi = Q.indptr[p], Q.indptr[p + 1]
            assert Q.indices[lo:hi].tolist() == ys.tolist()
            assert Q.data[lo:hi].tobytes() == rates.tobytes()
            assert (np.float64(model.exit[p]).tobytes()
                    == np.float64(model.kernel.exit_rate(x, a)).tobytes())
            p += 1
    same(validate_model(model), validate_model_loop(model))


@settings(max_examples=250, deadline=None)
@given(small_models())
def test_drift_bounds_and_monotonicity_match_loops(case):
    model, policy = case
    if model.lyapunov is not None:
        same(check_assumption_A(model), check_assumption_A_loop(model))
        same(check_assumption_B(model), check_assumption_B_loop(model))
    same(check_monotonicity(model, policy),
         check_monotonicity_loop(model, policy))


def same_monotonicity(model, choice):
    policy = StationaryPolicy(choice=choice)
    same(check_monotonicity(model, policy),
         check_monotonicity_loop(model, policy))


def chain(rows):
    """1-D model of one action per state, rows[x] its (target, rate) pairs."""
    n = len(rows)
    return CtmdpModel(
        actions=np.zeros((n, 1)),
        kernel=kernel_from_rows([[row] for row in rows]), r=np.zeros(n),
        labels=tuple((x,) for x in range(n)), truncation_level=n - 1)


# zero-heavy rows: a tail sum is -0.0 only where every cell from k on holds
# a stored -0.0, so runs of -0.0 reaching the last state matter
ZERO_RATES = st.sampled_from([-0.0, -0.0, -0.0, 0.0, 1.0, 2.0, -1.0, NAN,
                              INF, -INF])


@st.composite
def zero_heavy_chains(draw):
    n = draw(st.integers(2, 9))
    return chain([[(y, draw(ZERO_RATES)) for y in sorted(draw(
        st.sets(st.integers(0, n - 1), max_size=n)))] for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(zero_heavy_chains())
def test_monotonicity_matches_loop_on_zero_heavy_rows(model):
    same_monotonicity(model, [0] * model.n)


@pytest.mark.parametrize("rows", [
    # n = 2
    [[(1, 1.0)], [(0, 2.0), (1, -2.0)]],
    [[], []],
    # a row without off-diagonal mass, and rows of nothing but a diagonal
    [[(0, 0.0)], [(1, 0.0)], [(0, 1.0), (2, 1.0), (1, -2.0)]],
    [[(0, -0.0)], [(1, -0.0)], [(2, -0.0)]],
    # -0.0 cells reaching the last state, with and without a gap
    [[(1, -0.0), (2, -0.0)], [(0, -0.0), (2, -0.0)], [(1, -0.0)]],
    [[(0, -0.0), (2, -0.0)], [(1, -0.0), (2, 0.0)], [(2, -0.0)]],
    # the worst slack tied over several k and several x
    [[(0, -1.0), (3, 1.0)], [(0, 0.0), (1, 0.0)], [(1, 0.0)], [(0, 0.0)]],
    [[(1, 2.0), (2, 2.0)], [(0, 1.0)], [(0, 1.0)], [(0, 1.0)]],
    # the worst slack at k = x+2, inside a segment from the skipped x+1
    [[(0, -1.0), (3, 1.0)], [(0, 1.0), (2, -1.0)], [(2, 0.0)], [(3, 0.0)]],
    # NaN and +-inf rates
    [[(1, NAN)], [(0, 1.0), (2, INF)], [(1, -INF)], [(0, 1.0)]],
    [[(2, INF)], [(2, INF)], [(0, NAN), (2, 1.0)]],
])
def test_monotonicity_matches_loop_on_edge_rows(rows):
    same_monotonicity(chain(rows), [0] * len(rows))


@pytest.mark.parametrize("name, params", [
    ("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3, "p": 2.0,
                     "N": 500, "G": 11}),
    ("skip_free", {"lambda": 1, "mu": 2, "b": 1.0, "beta": 2.0, "N": 400,
                   "G": 5}),
])
def test_monotonicity_matches_loop_at_model_scale(name, params):
    model = build(name, params)
    rng = np.random.default_rng(7)
    counts = model.kernel.counts
    for choice in (np.zeros(model.n, dtype=np.int64), counts - 1,
                   rng.integers(0, counts)):
        same_monotonicity(model, choice)


@settings(max_examples=100, deadline=None)
@given(small_models(), st.data())
def test_nonfinite_exit_rate_on_any_action_flags_stable_rates(case, data):
    model, _ = case
    multi = [x for x in range(model.n) if model.kernel.counts[x] > 1]
    if not multi:
        return
    # a finite action 0 used to hide a NaN exit rate on a later action
    x = data.draw(st.sampled_from(multi))
    a = data.draw(st.integers(1, int(model.kernel.counts[x]) - 1))
    bad = data.draw(st.sampled_from([NAN, INF, -INF]))
    rows = [[list(zip(*model.kernel.row(s, b))) for b in range(
        model.kernel.counts[s])] for s in range(model.n)]
    rows[x][0] = [(y, r) for y, r in rows[x][0] if y != x] + [(x, -1.0)]
    rows[x][a] = [(y, r) for y, r in rows[x][a] if y != x] + [(x, bad)]
    model = CtmdpModel(actions=model.actions, kernel=kernel_from_rows(rows),
                       r=model.r, lyapunov=model.lyapunov)
    report = validate_model(model)
    assert {"check": "stable_rates", "x": x, "a": None, "y": None,
            "slack": None} in report.violations
    same(report, validate_model_loop(model))
