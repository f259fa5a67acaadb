import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctmdp
from ctmdp import (CtmdpModel, ModelError, RateKernel, StationaryPolicy,
                   model_from_dict, validate_model, weighted_norm)
from ctmdp.cli import run

from oracles import kernel_from_rows


def two_state_model(rate01=1.0, rate10=2.0, r0=1.0, r1=0.0):
    return CtmdpModel(
        actions=np.zeros((2, 1)),
        kernel=kernel_from_rows([[[(0, -rate01), (1, rate01)]],
                                 [[(0, rate10), (1, -rate10)]]]),
        r=[r0, r1],
    )


def test_validate_accepts_conservative_rows():
    assert validate_model(two_state_model()).ok


def test_validate_rejects_negative_offdiagonal():
    m = CtmdpModel(
        actions=np.zeros((2, 1)),
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
        actions=np.zeros((2, 1)),
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
    assert m.actions[m.kernel.starts[2]].tolist() == [3.0]
    assert (m.kernel.Q @ w)[m.kernel.starts[2]] == pytest.approx(-4.0,
                                                                abs=1e-12)


def test_weighted_norm_cases():
    assert weighted_norm([2.0, -6.0], [1.0, 3.0]) == 2.0
    w = np.array([1.0, 5.0, 2.0])
    assert weighted_norm(w, w) == 1.0
    assert weighted_norm(np.zeros(3), w) == 0.0
    with pytest.raises(ModelError):
        weighted_norm([1.0], [0.5])


@pytest.mark.parametrize("states, labels, message", [
    (0, None, "state space must contain at least one state"),
    (2, [[0], [1], [2]], "label count does not match state count"),
    (2, [0, [0]], "state labels must be pairwise distinct"),
], ids=["no_states", "label_count", "labels_repeat"])
def test_state_space_refusals(tmp_path, states, labels, message):
    # the kernel counts the states; labels are checked against its count
    with pytest.raises(ModelError, match=f"^{message}$"):
        CtmdpModel(actions=np.zeros((states, 1)),
                   kernel=kernel_from_rows([[[(x, 0.0)]] for x in
                                            range(states)]),
                   r=np.zeros(states), labels=labels)
    doc = {"kind": "explicit", "states": states,
           "actions": [[[0.0]]] * states, "labels": labels,
           "rates": [{"x": x, "a": 0, "entries": []} for x in range(states)],
           "rewards": [{"x": x, "a": 0, "r": 0.0} for x in range(states)]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = run(["validate", "--model", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == \
        (2, "", f"ctmdp: error: {message}\n")


def test_kernel_rows_are_views_of_the_pair_csr():
    m = ctmdp.build("tandem", {"N": 3, "G": 2})
    rows = m.kernel.rows
    for x in range(m.n):
        for a in range(m.kernel.counts[x]):
            ys, rates = m.kernel.row(x, a)
            assert np.shares_memory(rates, m.kernel.Q.data)
            assert np.shares_memory(ys, m.kernel.Q.indices)
            assert rows[x][a][0] is not ys
            assert np.array_equal(rows[x][a][0], ys)
            assert np.array_equal(rows[x][a][1], rates)
        with pytest.raises(IndexError):
            m.kernel.row(x, m.kernel.counts[x])


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
    # the action array comes first: state 1 has one rate row too few ...
    ([[[(0, 0.0)]], [[(1, 0.0)]], [[(2, -1.0), (9, 1.0)]]],
     [0.0] * 3, r"action count mismatch: actions has shape \(4, 1\) for 3 "
                r"\(state, action\) pairs"),
    # ... then an out-of-range target ...
    ([[[(0, -1.0), (5, 1.0)]], [[(1, 0.0)], [(1, 0.0)]], [[(2, 0.0)]]],
     [0.0] * 4, r"rate target out of range at \(0,0\)"),
    # ... before a reward count mismatch
    ([[[(0, 0.0)]], [[(1, 0.0)], [(-1, 1.0), (1, -1.0)]], [[(2, 0.0)]]],
     [0.0] * 5, r"rate target out of range at \(1,1\)"),
    # state 1 has one rate row too many
    ([[[(0, 0.0)]], [[(1, 0.0)], [(3, 0.0)], [(1, 0.0)]], [[(2, 0.0)]]],
     [0.0] * 5, r"action count mismatch: actions has shape \(4, 1\) for 5 "),
    ([[[(0, 0.0)]], [[(1, 0.0)], [(1, 0.0)]], [[(2, 0.0)]]],
     [0.0] * 5, r"reward count mismatch: r has shape \(5,\) for 4 \(state, "
                r"action\) pairs"),
])
def test_model_names_first_structural_offender(rows, rewards, message):
    with pytest.raises(ModelError, match=message):
        CtmdpModel(actions=[[0.0], [0.0], [1.0], [0.0]],
                   kernel=kernel_from_rows(rows), r=rewards)


@pytest.mark.parametrize("rows, actions, message", [
    ([[[(0, 0.0)]], [[(1, 0.0)], [(1, 0.0)]], [[(2, 0.0)]]], [0.0] * 4,
     r"action count mismatch: actions has shape \(4,\) for 4"),
    # empty and duplicate action sets, the first state named ...
    ([[[(0, 0.0)]], [], [[(2, 0.0)], [(2, 0.0)]]], [[0.0], [0.0], [-0.0]],
     "state 1 has an empty action set"),
    ([[[(0, 0.0)], [(0, 0.0)]], [[(1, 0.0)]], []], [[1.0], [1.0], [0.0]],
     "state 0 has duplicate actions"),
    # ... before an out-of-range target
    ([[[(0, -1.0), (5, 1.0)]], [[(1, 0.0)], [(1, 0.0)]], [[(2, 0.0)]]],
     [[0.0], [1.0], [1.0], [0.0]], "state 1 has duplicate actions"),
])
def test_model_names_first_bad_action_set(rows, actions, message):
    with pytest.raises(ModelError, match=message):
        CtmdpModel(actions=actions, kernel=kernel_from_rows(rows),
                   r=[0.0] * sum(map(len, rows)))


def test_model_refuses_actions_of_differing_lengths():
    # numpy's conversion used to fail with a ValueError
    with pytest.raises(ModelError, match="actions must all have one length"):
        CtmdpModel(actions=[[0.0], [0.0, 1.0]], kernel=two_state_model().kernel,
                   r=[0.0, 0.0])


@pytest.mark.parametrize("r", [[0.0], [0.0, 1.0, 2.0], [[0.0], [1.0]], 0.0])
def test_rewards_are_one_array_over_the_pairs(r):
    with pytest.raises(ModelError, match=r"reward count mismatch: r has "
                       r"shape \(.*\) for 2 \(state, action\) pairs"):
        CtmdpModel(actions=np.zeros((2, 1)),
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
    for a in range(m.kernel.counts[x]):
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
    assert m.labels[0] == (0, 0)
    assert m.labels[-1] == (10, 10)


def test_pair_arrays_consistent_with_rows():
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3,
                             "N": 3, "G": 2})
    for x in range(m.n):
        for a in range(m.kernel.counts[x]):
            p = m.kernel.starts[x] + a
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


NAN = float("nan")     # one object: JSON reads every NaN as this one
ACTION_VALUES = [0.0, -0.0, 0, 1, 1.0, 0.5, NAN, 2.5, 2 ** 53 + 1]


@st.composite
def action_lists(draw):
    """Per-state action lists of JSON numbers, mostly of one length."""
    k = draw(st.integers(0, 2))

    def action():
        width = draw(st.sampled_from([k] * 6 + [k + 1]))
        return draw(st.lists(st.sampled_from(ACTION_VALUES), min_size=width,
                             max_size=width))

    return [[action() for _ in range(draw(st.integers(0, 3)))]
            for _ in range(draw(st.integers(1, 6)))]


def read_actions(sets, k):
    """The model of an explicit document with these action lists of length
    k, every pair without rates and with reward 0, as read and as
    constructed."""
    pairs = [(x, a) for x, acts in enumerate(sets) for a in range(len(acts))]
    doc = {"kind": "explicit", "states": len(sets), "actions": sets,
           "rates": [{"x": x, "a": a, "entries": []} for x, a in pairs],
           "rewards": [{"x": x, "a": a, "r": 0.0} for x, a in pairs]}
    yield lambda: model_from_dict(doc)
    yield lambda: CtmdpModel(
        actions=np.array([v for acts in sets for v in acts],
                         dtype=np.float64).reshape(len(pairs), k),
        kernel=RateKernel(list(map(len, sets)), [1] * len(pairs),
                          [x for x, _ in pairs], [0.0] * len(pairs)),
        r=np.zeros(len(pairs)))


@settings(max_examples=200, deadline=None)
@given(action_lists())
@example([[[0.0]], [[-0.0]]])                      # signed zeros kept
@example([[[2.5], [0.0], [-0.0]]])                 # ... and equal
@example([[[1, 0.0]], [[1.0, -0.0], [1, 2.5]]])    # ints converted
@example([[[1, NAN], [1.0, NAN]], []])             # equal NaN actions
@example([[[0.0]], [], [[0.0], [-0.0]]])           # empty before duplicate
@example([[[0.0], [1.0]], [[0.0, 1.0]]])           # lengths differ
def test_actions_are_read_as_one_array_over_the_pairs(sets):
    # reference: float() of each number, the first action's length, and
    # equality of the float tuples (0.0 == -0.0; the one NaN is itself)
    where = [(x, a) for x, acts in enumerate(sets) for a in range(len(acts))]
    floats = [[tuple(map(float, a)) for a in acts] for acts in sets]
    flat = [a for acts in floats for a in acts]
    k = len(flat[0]) if flat else 0
    odd = [p for p, a in enumerate(flat) if len(a) != k]
    if odd:
        (x, a), p = where[odd[0]], odd[0]
        with pytest.raises(ModelError, match=(
                rf"^actions\[{x}\]\[{a}\] has {len(flat[p])} numbers where "
                rf"the first action has {k}: every action must have the same "
                rf"length$")):
            model_from_dict({"kind": "explicit", "states": len(sets),
                             "actions": sets, "rates": [], "rewards": []})
        return
    bad = [(x, "duplicate actions" if acts else "an empty action set")
           for x, acts in enumerate(floats)
           if not acts or len(set(acts)) < len(acts)]
    for build in read_actions(sets, k):
        if bad:
            with pytest.raises(ModelError,
                               match=rf"^state {bad[0][0]} has {bad[0][1]}$"):
                build()
            continue
        m = build()
        assert m.kernel.counts.tolist() == list(map(len, sets))
        assert m.actions.shape == (len(flat), k)
        assert m.actions.tobytes() == b"".join(
            struct.pack("=d", v) for a in flat for v in a)


# -- argument checks: ModelError.field names the argument ---------------------

MMN0 = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3,
                            "G": 2})
ZERO = StationaryPolicy(choice=np.zeros(MMN0.n, dtype=np.int64))
PROBE = np.arange(MMN0.n, dtype=float)
REDISTRIBUTION = ctmdp.build("potlach", {"d": 2, "lambda": 2.0})
HALF = [[0.5, 0.5], [0.5, 0.5]]


MMN0_AT = {"lambda": 1, "mu1": 1.5, "mu2": 3, "G": 2}   # any level N


# every start route, called with start x (the second start for x0b)
START_ROUTES = {
    "solve_average": lambda x: ctmdp.solve_average(MMN0, x0=x),
    "solve_discounted": lambda x: ctmdp.solve_discounted(MMN0, 0.5, x0=x),
    "truncation_sensitivity": lambda x: ctmdp.truncation_sensitivity(
        "mmn0", MMN0_AT, [3, 4], x0=x),
    "estimate_average_reward": lambda x: ctmdp.estimate_average_reward(
        MMN0, ZERO, x, 5.0, 2, seed=1),
    "check_lyapunov_bound": lambda x: ctmdp.check_lyapunov_bound(
        MMN0, ZERO, x, [0.5, 1.0], 2, seed=1),
    "martingale_diagnostic": lambda x: ctmdp.martingale_diagnostic(
        MMN0, ZERO, PROBE, 0.0, x, [0.5, 1.0], 2, seed=1),
    "estimate_ergodicity": lambda x: ctmdp.estimate_ergodicity(
        MMN0, ZERO, [PROBE], (x, 0), [0.5, 1.0], 2, seed=1),
    "estimate_ergodicity_x0b": lambda x: ctmdp.estimate_ergodicity(
        MMN0, ZERO, [PROBE], (0, x), [0.5, 1.0], 2, seed=1),
}


@pytest.mark.parametrize("route", sorted(START_ROUTES))
@pytest.mark.parametrize("x0", [1.7, 2.0, np.float64(1.0), True, "1", None,
                                4, -1])
def test_every_start_route_refuses_what_is_not_a_state_index(route, x0):
    # 1.7 simulated from state 1, and solve_average raised IndexError
    field = "x0b" if route.endswith("x0b") else "x0"
    with pytest.raises(ModelError, match=f"^{field} must be in 0..3, got ") \
            as info:
        START_ROUTES[route](x0)
    assert info.value.field == field


@pytest.mark.parametrize("route", sorted(START_ROUTES))
def test_every_start_route_takes_a_numpy_integer(route):
    START_ROUTES[route](np.int64(1))


@pytest.mark.parametrize("call, field", [
    (lambda: ctmdp.solve_average(MMN0, x0=99), "x0"),
    (lambda: ctmdp.truncation_sensitivity("mmn0", MMN0_AT, [3, 3]), "levels"),
    (lambda: ctmdp.martingale_diagnostic(MMN0, ZERO, PROBE, 0.0, 0, [5.0],
                                         4, seed=1), "checkpoints"),
    (lambda: ctmdp.check_lyapunov_bound(MMN0, ZERO, 0, [2.0, 1.0], 4,
                                        seed=1), "checkpoints"),
    (lambda: ctmdp.check_lyapunov_bound(MMN0, ZERO, 0, [1.0, 2.0], 1,
                                        seed=1), "reps"),
    (lambda: ctmdp.estimate_ergodicity(MMN0, ZERO, [PROBE], (0, 1), [0.0],
                                       4, seed=1), "checkpoints"),
    (lambda: ctmdp.estimate_ergodicity(MMN0, ZERO, [PROBE], (0, 99),
                                       [1.0], 4, seed=1), "x0b"),
    (lambda: ctmdp.estimate_average_reward(MMN0, ZERO, 0, 0.0, 2, seed=1),
     "horizon"),
    (lambda: ctmdp.estimate_average_reward(MMN0, ZERO, 0, 1.0, 2, seed=-1),
     "seed"),
    (lambda: ctmdp.PotlachPolicy(matrix=[[1, 0], [0]], q=[0, 0]), "policy"),
    (lambda: ctmdp.PotlachPolicy(matrix=HALF, q=[[1], 2]), "policy"),
    (lambda: ctmdp.PotlachPolicy(matrix=[[0.5, 0.5]], q=[0, 0]), "policy"),
    (lambda: REDISTRIBUTION.check_policy(
        ctmdp.PotlachPolicy(matrix=np.eye(2), q=[0, 0])), "policy"),
    (lambda: ctmdp.check_lyapunov_bound(
        REDISTRIBUTION, ctmdp.PotlachPolicy(matrix=HALF, q=[0, 0]),
        [1.0, 1.0, 1.0], [0.5, 1.0], 4, seed=1), "x0"),
    (lambda: ctmdp.check_lyapunov_bound(MMN0, ZERO, 0, [], 4, seed=1),
     "checkpoints"),
    (lambda: ctmdp.check_lyapunov_bound(
        REDISTRIBUTION, ctmdp.PotlachPolicy(matrix=HALF, q=[0, 0]),
        [-5.0, 1.0], [0.5, 1.0], 4, seed=1), "x0"),
    # each of these ran the simulation first, or ran with a truncated value
    (lambda: ctmdp.martingale_diagnostic(MMN0, ZERO, PROBE[:2], 0.0, 0,
                                         [0.5, 1.0], 4, seed=1), "u"),
    (lambda: ctmdp.estimate_average_reward(MMN0, ZERO, 0, 1.0, 2.5, seed=1),
     "reps"),
    (lambda: ctmdp.check_lyapunov_bound(MMN0, ZERO, 0, [0.5, 1.0], 2.5,
                                        seed=1), "reps"),
    (lambda: ctmdp.estimate_average_reward(MMN0, ZERO, 0, 1.0, 2, seed=1.5),
     "seed"),
    (lambda: ctmdp.truncation_sensitivity("mmn0", MMN0_AT, [3, 4.7]),
     "levels"),
    # a short u raised scipy's ValueError, a column u gave a residual
    # matrix, x = -1 read the last state and x = 99 raised IndexError
    (lambda: ctmdp.certify_lower(MMN0, 0.0, PROBE[:2], ZERO), "u"),
    (lambda: ctmdp.certify_upper(MMN0, 0.0, PROBE[:, None]), "u"),
    (lambda: ctmdp.delta(MMN0, -1, ZERO, PROBE, 0.0), "x"),
    (lambda: ctmdp.delta(MMN0, 99, 0, PROBE, 0.0), "x"),
    # the action raised IndexError, or a fraction or bool read action 1
    (lambda: ctmdp.delta(MMN0, 2, 5, PROBE, 0.0), "f"),
    (lambda: ctmdp.delta(MMN0, 2, -1, PROBE, 0.0), "f"),
    (lambda: ctmdp.delta(MMN0, 2, 1.5, PROBE, 0.0), "f"),
    (lambda: ctmdp.delta(MMN0, 2, True, PROBE, 0.0), "f"),
    # a certificate at tol inf passed every residual, at NaN or -1 none
    (lambda: ctmdp.certify_upper(MMN0, 0.0, PROBE, tol=np.inf), "tol"),
    (lambda: ctmdp.certify_lower(MMN0, 0.0, PROBE, ZERO, tol=np.nan), "tol"),
    (lambda: ctmdp.certify_upper(MMN0, 0.0, PROBE, tol=-1.0), "tol"),
], ids=["x0", "levels", "checkpoints_distinct", "checkpoints_order", "reps",
        "checkpoints_end", "x0b", "horizon", "seed", "ragged_matrix",
        "ragged_q", "matrix_not_square", "matrix_inadmissible",
        "masses", "checkpoints_empty", "masses_negative", "u_length",
        "reps_fraction_average", "reps_fraction_lyapunov", "seed_fraction",
        "levels_fraction", "u_short_certificate", "u_column_certificate",
        "delta_x_negative", "delta_x_beyond", "delta_action_beyond",
        "delta_action_negative", "delta_action_fraction", "delta_action_bool",
        "tol_inf", "tol_nan", "tol_negative"])
def test_argument_refusals_name_their_field(call, field):
    with pytest.raises(ModelError) as info:
        call()
    assert info.value.field == field
    assert str(info.value).startswith(f"{field} "), str(info.value)
