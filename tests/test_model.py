import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctmdp
from ctmdp import (ActionSets, CtmdpModel, ModelError, StateSpace,
                   StationaryPolicy, validate_model, weighted_norm)

from oracles import kernel_from_rows


def two_state_model(rate01=1.0, rate10=2.0, r0=1.0, r1=0.0):
    return CtmdpModel(
        states=StateSpace(size=2),
        actions=ActionSets(sets=(((0.0,),), ((0.0,),))),
        kernel=kernel_from_rows([[[(0, -rate01), (1, rate01)]],
                                 [[(0, rate10), (1, -rate10)]]]),
        r=[r0, r1],
    )


def test_validate_accepts_conservative_rows():
    assert validate_model(two_state_model()).ok


def test_validate_rejects_negative_offdiagonal():
    m = CtmdpModel(
        states=StateSpace(size=2),
        actions=ActionSets(sets=(((0.0,),), ((0.0,),))),
        kernel=kernel_from_rows([[[(0, 1.0), (1, -1.0)]],
                                 [[(0, 2.0), (1, -2.0)]]]),
        r=[0.0, 0.0],
    )
    rep = validate_model(m)
    assert not rep.ok
    names = {v["check"] for v in rep.violations}
    assert "offdiagonal_nonnegative" in names
    assert "diagonal_nonpositive" in names


def test_validate_rejects_nonzero_row_sum():
    m = CtmdpModel(
        states=StateSpace(size=2),
        actions=ActionSets(sets=(((0.0,),), ((0.0,),))),
        kernel=kernel_from_rows([[[(0, -1.0), (1, 1.5)]],
                                 [[(0, 2.0), (1, -2.0)]]]),
        r=[0.0, 0.0],
    )
    rep = validate_model(m)
    assert not rep.ok
    assert any(v["check"] == "row_sum_zero" for v in rep.violations)


def test_validate_is_idempotent():
    m = two_state_model()
    first = validate_model(m).to_dict()
    second = validate_model(m).to_dict()
    assert first == second


def test_constant_function_is_harmonic():
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "N": 8, "G": 3})
    assert m.kernel.Q @ np.ones(m.n) == pytest.approx(0.0, abs=1e-12)


def test_generator_apply_birth_death_value():
    # x=2, a=3, p1=0, lambda=1, w(x)=x+1: 6*2 - 8*3 + 2*4 = -4
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "p1": 0.0, "N": 8, "G": 1})
    w = np.arange(1.0, m.n + 1)
    assert m.actions[2][0] == (3.0,)
    assert (m.kernel.Q @ w)[m.pair_index(2, 0)] == pytest.approx(-4.0,
                                                                abs=1e-12)


def test_weighted_norm_cases():
    assert weighted_norm([2.0, -6.0], [1.0, 3.0]) == 2.0
    w = np.array([1.0, 5.0, 2.0])
    assert weighted_norm(w, w) == 1.0
    assert weighted_norm(np.zeros(3), w) == 0.0
    with pytest.raises(ModelError):
        weighted_norm([1.0], [0.5])


def test_mismatched_tables_rejected():
    with pytest.raises(ModelError):
        CtmdpModel(
            states=StateSpace(size=2),
            actions=ActionSets(sets=(((0.0,),),)),
            kernel=kernel_from_rows([[[(0, 0.0)]]]),
            r=[0.0],
        )


def test_kernel_rows_are_views_of_the_pair_csr():
    m = ctmdp.build("tandem", {"N": 3, "G": 2})
    rows = m.kernel.rows
    for x in range(m.n):
        for a in range(m.n_actions(x)):
            ys, rates = m.kernel.row(x, a)
            assert np.shares_memory(rates, m.kernel.Q.data)
            assert np.shares_memory(ys, m.kernel.Q.indices)
            assert rows[x][a][0] is not ys
            assert np.array_equal(rows[x][a][0], ys)
            assert np.array_equal(rows[x][a][1], rates)
        with pytest.raises(IndexError):
            m.kernel.row(x, m.n_actions(x))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.dictionaries(
    st.integers(0, 5), st.floats(allow_nan=False, width=64), max_size=6),
    min_size=1, max_size=3), min_size=1, max_size=6), st.randoms())
def test_kernel_sorts_each_row_by_target(rows, rnd):
    given_rows = []
    for per_state in rows:
        given_rows.append([])
        for entries in per_state:
            items = list(entries.items())
            rnd.shuffle(items)
            given_rows[-1].append(items)
    kernel = kernel_from_rows(given_rows)
    for x, per_state in enumerate(rows):
        assert kernel.counts[x] == len(per_state)
        for a, entries in enumerate(per_state):
            ys, rates = kernel.row(x, a)
            assert list(zip(ys.tolist(), rates.tolist())) == sorted(
                entries.items())


def test_kernel_rejects_duplicate_target():
    with pytest.raises(ModelError, match=r"duplicate target in rate row \(1\)"):
        kernel_from_rows([[[(0, 0.0)]],
                          [[(0, 1.0), (1, -1.0)], [(1, 2.0), (1, 1.0)]],
                          [[(0, 1.0), (0, 1.0)]]])


@pytest.mark.parametrize("rows, rewards, message", [
    # state 1 has too few rate rows, state 2 an out-of-range target
    ([[[(0, 0.0)]], [[(1, 0.0)]], [[(2, -1.0), (9, 1.0)]]],
     [0.0] * 4, "action count mismatch at state 1"),
    # an out-of-range target comes before a mismatch at a later state ...
    ([[[(0, -1.0), (5, 1.0)]], [[(1, 0.0)]], [[(2, 0.0)]]],
     [0.0] * 4, r"rate target out of range at \(0,0\)"),
    # ... and before a reward count mismatch
    ([[[(0, 0.0)]], [[(1, 0.0)], [(-1, 1.0), (1, -1.0)]], [[(2, 0.0)]]],
     [0.0] * 5, r"rate target out of range at \(1,1\)"),
    # at one state the count mismatch is named first
    ([[[(0, 0.0)]], [[(1, 0.0)], [(3, 0.0)], [(1, 0.0)]], [[(2, 0.0)]]],
     [0.0] * 4, "action count mismatch at state 1"),
    ([[[(0, 0.0)]], [[(1, 0.0)], [(1, 0.0)]], [[(2, 0.0)]]],
     [0.0] * 5, r"reward count mismatch: r has shape \(5,\) for 4 \(state, "
                r"action\) pairs"),
])
def test_model_names_first_structural_offender(rows, rewards, message):
    with pytest.raises(ModelError, match=message):
        CtmdpModel(states=StateSpace(size=3),
                   actions=ActionSets(sets=(((0.0,),), ((0.0,), (1.0,)),
                                            ((0.0,),))),
                   kernel=kernel_from_rows(rows), r=rewards)


@pytest.mark.parametrize("r", [[0.0], [0.0, 1.0, 2.0], [[0.0], [1.0]], 0.0])
def test_rewards_are_one_array_over_the_pairs(r):
    with pytest.raises(ModelError, match=r"reward count mismatch: r has "
                       r"shape \(.*\) for 2 \(state, action\) pairs"):
        CtmdpModel(states=StateSpace(size=2),
                   actions=ActionSets(sets=(((0.0,),), ((0.0,),))),
                   kernel=two_state_model().kernel, r=r)
    m = two_state_model(r0=1, r1=-2)
    assert m.r.dtype == np.float64 and m.r.tolist() == [1.0, -2.0]


def test_policy_bounds_checked():
    m = two_state_model()
    with pytest.raises(ModelError):
        m.check_policy(StationaryPolicy(choice=np.array([0, 1])))


def test_truncation_boundary_row_conserved():
    # at the top state all up-mass folds into the diagonal
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "N": 5, "G": 2})
    assert validate_model(m).ok
    x = m.n - 1
    for a in range(m.n_actions(x)):
        ys, rates = m.kernel.row(x, a)
        assert abs(rates.sum()) <= 1e-12
        assert all(y <= x for y in ys)


@settings(max_examples=25, deadline=None)
@given(N=st.integers(min_value=3, max_value=12))
def test_truncation_always_validates(N):
    m = ctmdp.build("birth_death", {"lambda": 1.0, "mu1": 2.0, "mu2": 3.0,
                                    "p1": 0.2, "N": N, "G": 2})
    assert validate_model(m).ok


def test_tandem_grid_cardinality():
    m = ctmdp.build("tandem", {"N": 10, "G": 2})
    assert m.n == 121
    assert m.states.labels[0] == (0, 0)
    assert m.states.labels[-1] == (10, 10)


def test_pair_arrays_consistent_with_rows():
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3,
                             "N": 3, "G": 2})
    for x in range(m.n):
        for a in range(m.n_actions(x)):
            p = m.pair_index(x, a)
            assert (m.x_of_pair[p], m.a_of_pair[p]) == (x, a)
            assert m.exit[p] == pytest.approx(m.kernel.exit_rate(x, a))


def test_pairs_are_laid_out_once_per_model(monkeypatch):
    import ctmdp.model

    laid_out = []
    flatten = ctmdp.model._flatten

    def counting(model):
        laid_out.append(model)
        flatten(model)

    monkeypatch.setattr(ctmdp.model, "_flatten", counting)
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3,
                             "N": 3, "G": 2})
    assert validate_model(m).ok
    sol = ctmdp.solve_average(m)
    assert ctmdp.certify_upper(m, sol.gain, sol.h).passed
    assert ctmdp.certify_lower(m, sol.gain, sol.h, sol.policy).passed
    assert ctmdp.brute_force_oracle(m).gain == pytest.approx(sol.gain)
    assert len(laid_out) == 1 and laid_out[0] is m


ACTION_VALUES = [0.0, -0.0, 0, 1, 1.0, np.float64(1.0), np.float32(0.5), 0.5,
                 float("nan"), 2.5]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.lists(st.sampled_from(ACTION_VALUES),
                                  min_size=1, max_size=2),
                         max_size=3), min_size=1, max_size=6),
       st.lists(st.integers(0, 5), max_size=6))
@example([[[0.0]], [[-0.0]]], [0, 1])
@example([[[1, 0.0]], [[1.0, -0.0]]], [0, 1, 0])
def test_action_sets_convert_each_state_as_given(pool, picks):
    # states repeat lists from a small pool, so that converted lists are
    # shared; the result must be the plain per-state float conversion,
    # signed zeros included, and errors must name the same state
    sets = [pool[i % len(pool)] for i in picks] or pool
    ref = [tuple(tuple(float(v) for v in a) for a in acts) for acts in sets]
    bad = [x for x, acts in enumerate(ref) if len(set(acts)) != len(acts)
           or not acts]
    if bad:
        with pytest.raises(ModelError, match=f"state {bad[0]} has"):
            ActionSets(sets=sets)
        return
    assert repr(ActionSets(sets=sets).sets) == repr(tuple(ref))
