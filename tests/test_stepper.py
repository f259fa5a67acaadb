"""Differential tests: the replication-batched simulation stepper against
the scalar reference in oracles.py, which reads each replication's draws
in the documented block layout and takes one jump at a time. Visited
states and jump times must be identical, which the stepper's own
checkpoints show by pinning (see `pins`); reward integrals and checkpoint
values must agree to 1e-12 relative.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctmdp
from ctmdp import (CtmdpModel, PotlachPolicy, StationaryPolicy,
                   estimate_average_reward)
from ctmdp import simulate
from ctmdp.simulate import _checkpoint_run
from oracles import (index_actions, kernel_from_rows,
                     redistribution_weight, reference_policy_chain,
                     reference_policy_path, reference_redistribution_path)

REL = 1e-12
# awkward rates make the normalized running sums round below 1
RATES = st.sampled_from([0.0, 0.1, 1.0 / 3.0, 0.7, 1.0, 2.0, 2.9, 1e-3])


def key_search():
    """Force the key search: no jump table fits in 0 cells."""
    return mock.patch.object(simulate, "JUMP_TABLE_CELLS", 0)


def one_step_table(model, f):
    """Cap the tables at the one-step table's n * width cells: with B >= 2
    cuts, n * B**2 is more, so every lookup takes one jump."""
    cells = model.n * simulate._PolicyChain(model, f).width
    return mock.patch.object(simulate, "JUMP_TABLE_CELLS", cells)


# the three lookups of a tabulated chain, each set up for a (model,
# policy): the k-step table, the one-step table, then the key search
LOOKUPS = (lambda model, f: contextlib.nullcontext(), one_step_table,
           lambda model, f: key_search())


@st.composite
def explicit_models(draw):
    n = draw(st.integers(1, 11))
    rows, rewards = [], []
    for x in range(n):
        per_state = []
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(["absorbing", "sparse", "wide"]))
            others = [y for y in range(n) if y != x]
            if kind == "absorbing" or not others:
                ys = []
            elif kind == "wide":
                ys = others            # up to 10 targets
            else:
                ys = sorted(draw(st.sets(st.sampled_from(others), min_size=1,
                                         max_size=3)))
            entries = {y: draw(RATES) for y in ys}
            entries[x] = -sum(entries.values())
            per_state.append(sorted(entries.items()))
        rows.append(per_state)
        rewards.extend(draw(st.floats(-3.0, 3.0)) for _ in per_state)
    model = CtmdpModel(
        actions=index_actions(map(len, rows)),
        kernel=kernel_from_rows(rows), r=rewards)
    f = StationaryPolicy(choice=[draw(st.integers(0, len(per_state) - 1))
                                 for per_state in rows])
    return model, f


def pins(times) -> np.ndarray:
    """A checkpoint at each jump time t_j of a path, then one at the next
    float after it. A checkpoint reads the segment that ends at or after
    it, so the first reads the state before jump j and the second the
    state after it: both read what the path says only if the stepper
    jumps at t_j, to the bit."""
    t = np.asarray(times[1:], dtype=np.float64)
    return np.column_stack((t, np.nextafter(t, np.inf))).ravel()


def assert_matches(ref, runs, rep=0):
    """Replication `rep` of a stepper run against one reference path: the
    jump count, the reward integral and, at each checkpoint, the state
    and the reward up to it."""
    _, _, ref_reward, ref_cps, ref_jumps = ref
    assert runs.jumps[rep] == ref_jumps
    assert runs.reward[rep] == pytest.approx(ref_reward, rel=REL, abs=1e-300)
    assert len(ref_cps) == runs.cp_states.shape[1]
    for state, value, (ref_state, ref_value) in zip(
            runs.cp_states[rep], runs.cp_rewards[rep], ref_cps):
        assert np.array_equal(state, ref_state)
        assert value == pytest.approx(ref_value, rel=REL, abs=1e-300)


def assert_pinned(chain, x0, horizon, seed, reference, checkpoints=()):
    """Replication 0 of the stepper against `reference(cps)`, the
    reference path with checkpoints cps: its path pinned by `pins`, then
    its reads at `checkpoints`. Returns the pins."""
    times, states, *_ = reference(())
    at = pins(times)
    runs = simulate._run(chain, x0, horizon, 1, seed, at)
    # before and after each jump: S_0, S_1, S_1, S_2, ..., S_m
    assert np.array_equal(runs.cp_states[0],
                          np.repeat(np.array(states), 2, axis=0)[1:-1])
    assert_matches(reference(at), runs)
    if len(checkpoints):
        assert_matches(reference(checkpoints), simulate._run(
            chain, x0, horizon, 1, seed, checkpoints))
    return at


@settings(max_examples=100, deadline=None)
@given(explicit_models(), st.integers(0, 3), st.floats(0.5, 300.0),
       st.integers(1, 5), st.integers(0, 2 ** 40),
       st.lists(st.floats(0.0, 1.0), max_size=4))
def test_stepper_matches_scalar_reference(model_f, x0, horizon, reps, seed,
                                          fractions):
    model, f = model_f
    x0 = x0 % model.n
    cps = sorted(horizon * p for p in fractions)
    for lookup in LOOKUPS:
        with lookup(model, f):
            assert_stepper_matches(model, f, x0, horizon, reps, seed, cps)


def assert_stepper_matches(model, f, x0, horizon, reps, seed, cps):
    chain = simulate._PolicyChain(model, f)
    at = assert_pinned(chain, x0, horizon, seed, lambda checkpoints:
                       reference_policy_path(model, f, x0, horizon, seed, 0,
                                             checkpoints))
    # pinning's precondition: checkpoints take no draws, so the pins leave
    # every replication's path as it is
    runs = simulate._run(chain, x0, horizon, reps, seed, cps)
    pinned = simulate._run(chain, x0, horizon, reps, seed, at)
    for name in ("reward", "jumps", "occupation"):
        assert np.array_equal(getattr(pinned, name), getattr(runs, name))

    avg = estimate_average_reward(model, f, x0, horizon, reps, seed)
    for rep in range(reps):
        ref = reference_policy_path(model, f, x0, horizon, seed, rep, cps)
        assert avg.values[rep] * horizon == pytest.approx(ref[2], rel=REL,
                                                          abs=1e-300)
        assert avg.jumps[rep] == ref[4]
        assert_matches(ref, runs, rep)

    if cps:
        runs = _checkpoint_run(chain, x0, cps, reps, seed)
        for rep in range(reps):
            ref = reference_policy_path(model, f, x0, cps[-1] * (1 + 1e-12),
                                        seed, rep, cps)
            assert_matches(ref, runs, rep)


def assert_jumps_match_reference(model, f, states):
    """From each of `states`, draws u = 0, each cut and its neighbours
    below 1 select the reference target under every lookup: c < u must
    agree with rank(c) < p."""
    _, _, jump = reference_policy_chain(model, f)
    us = edge_draws(model, f)
    x = np.repeat(states, len(us))
    u = np.tile(us, len(states))
    expected = [jump(xi, ui) for xi, ui in zip(x.tolist(), u.tolist())]
    draws = np.stack([np.ones_like(u), u])[:, :, None]
    for lookup, tabled in zip(LOOKUPS, (True, True, False)):
        with lookup(model, f):
            chain = simulate._PolicyChain(model, f)
        assert (chain.next is not None) == tabled
        assert chain.walk(x, draws)[:, 1].tolist() == expected


def edge_draws(model, f) -> np.ndarray:
    """u = 0, and each cut of the chain and its neighbours, below 1."""
    cuts = simulate._PolicyChain(model, f).cuts
    us = np.unique(np.concatenate(([0.0], cuts, np.nextafter(cuts, 0.0),
                                   np.nextafter(cuts, 2.0))))
    return us[(us >= 0.0) & (us < 1.0)]


def assert_walk_matches_reference(model, f, L, seed):
    """A block of L jumps from every state, each draw on, beside or between
    the cuts, visits the reference states under every lookup."""
    _, _, jump = reference_policy_chain(model, f)
    rng = np.random.default_rng(seed)
    us = np.concatenate((edge_draws(model, f), rng.random(8)))
    u = rng.choice(us, size=(model.n, L))
    expected = []
    for x, row in enumerate(u.tolist()):
        expected.append([x])
        for ui in row:
            expected[-1].append(jump(expected[-1][-1], ui))
    draws = np.stack([np.ones_like(u), u])
    for lookup in LOOKUPS:
        with lookup(model, f):
            chain = simulate._PolicyChain(model, f)
        assert chain.walk(np.arange(model.n), draws).tolist() == expected


def explicit_model(rows):
    """One action per state, rows[x] = the (target, rate) entries of x."""
    return (CtmdpModel(actions=np.zeros((len(rows), 1)),
                       kernel=kernel_from_rows([[row] for row in rows]),
                       r=np.zeros(len(rows))),
            StationaryPolicy(choice=[0] * len(rows)))


# zero rates stored off the diagonal before, between and after positive
# ones, and states 2 and 5 whose only off-diagonal entries have rate 0
ZERO_RATES = explicit_model([
    [(0, -1.0), (1, 0.0), (2, 0.7), (3, -0.0), (4, 0.3), (5, 0.0)],
    [(0, 0.0), (1, -2.0), (3, 2.0), (4, 0.0)],
    [(0, 0.0), (1, -0.0), (2, -0.0)],
    [(0, -0.0), (2, 1.0 / 3.0), (3, -1.0 / 3.0)],
    [(4, 0.0)],
    [(0, 0.0), (4, 0.0)]])


@settings(max_examples=100, deadline=None)
@given(explicit_models())
@example(ZERO_RATES)
def test_jumps_on_and_beside_every_cut_match_reference(model_f):
    model, f = model_f
    assert_jumps_match_reference(model, f, np.arange(model.n))


@settings(max_examples=100, deadline=None)
@given(explicit_models(), st.sampled_from([1, 3, 12, 16, 24, 48]),
       st.integers(0, 2 ** 32))
@example(ZERO_RATES, 16, 0)
def test_walk_of_any_block_length_matches_reference(model_f, L, seed):
    # 3, 12 and 24 are not multiples of every k, 16 and 48 are
    model, f = model_f
    assert_walk_matches_reference(model, f, L, seed)


def test_walk_of_a_block_that_is_not_a_multiple_of_k():
    model, f = explicit_model([[(0, -1.0), (1, 0.25), (2, 0.75)],
                               [(0, 2.0), (1, -3.0), (2, 1.0)],
                               [(0, 0.5), (1, 0.5), (2, -1.0)]])
    chain = simulate._PolicyChain(model, f)
    assert (len(chain.cuts), chain.k) == (4, 8)   # 3 * 4**16 cells: too many
    for L in (1, 3, chain.k - 1, chain.k + 1, 5 * chain.k // 2):
        assert L % chain.k
        assert_walk_matches_reference(model, f, L, L)
    assert_walk_matches_reference(model, f, 3 * chain.k, 0)


def test_one_target_per_moving_row_reads_one_rank():
    # B = 1: a cycle 0 -> 1 -> 2 -> 0 at three rates, and state 3 absorbing
    model, f = explicit_model([[(0, -1.0), (1, 1.0)],
                               [(1, -2.0), (2, 2.0)],
                               [(0, 0.5), (2, -0.5)],
                               [(3, 0.0)]])
    chain = simulate._PolicyChain(model, f)
    assert chain.cuts.tolist() == [1.0]
    assert chain.k == simulate.FIRST_BLOCK
    assert chain.next_k.size == model.n
    for L in (1, 16, 48):
        assert_walk_matches_reference(model, f, L, L)
    reference = lambda cps: reference_policy_path(model, f, 0, 6000.0, 2, 0,
                                                  cps)
    assert reference(())[4] > 4 * simulate.LAST_BLOCK
    for lookup in LOOKUPS:
        with lookup(model, f):
            chain = simulate._PolicyChain(model, f)
        assert_pinned(chain, 0, 6000.0, 2, reference, [1.0, 999.0])


def test_wide_row_keeps_the_chain_linear_in_its_entries():
    # state 0 reaches every other state, where a padded (state, longest
    # row) layout holds n * (n - 1) cells
    n = 400
    wide = [(y, 1.0 + y % 7 / 10) for y in range(1, n)]
    rows = [[(0, -sum(rate for _, rate in wide))] + wide]
    rows += [[(x - 1, 2.0), (x, -3.0), (x + 1, 1.0)] for x in range(1, n - 1)]
    rows += [[(n - 2, 2.0), (n - 1, -2.0)]]
    model, f = explicit_model(rows)
    stored = sum(len(row) - 1 for row in rows)
    with key_search():
        chain = simulate._PolicyChain(model, f)
    size = sum(a.size for a in vars(chain).values()
               if isinstance(a, np.ndarray))
    assert size <= 5 * (stored + n)
    assert_jumps_match_reference(model, f, np.array([0, 1, n // 2, n - 1]))


def test_long_path_crosses_full_blocks():
    # about 5300 jumps: every block length up to the largest, repeated
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "N": 12, "G": 2})
    f = StationaryPolicy(choice=np.ones(m.n, dtype=np.int64))
    cps = [1.0, 100.0, 777.7, 2500.0]
    reference = lambda at: reference_policy_path(m, f, 3, 2500.0, 5, 0, at)
    assert reference(())[4] > 4 * simulate.LAST_BLOCK
    for lookup in LOOKUPS:
        with lookup(m, f):
            chain = simulate._PolicyChain(m, f)
        assert_pinned(chain, 3, 2500.0, 5, reference, cps)


def test_redistribution_matches_scalar_reference():
    matrix = [[0.2, 0.5, 0.3], [0.0, 0.4, 0.6], [0.7, 0.1, 0.2]]
    proc = ctmdp.build("potlach", {"d": 3, "lambda": 2.5,
                                   "matrices": [matrix]})
    pol = PotlachPolicy(matrix=np.array(matrix), q=np.array([0.3, 0.0, 0.8]))
    x0 = np.array([1.0, 2.0, 0.5])
    cps = [0.5, 3.0, 9.0]
    chain = simulate._RedistributionChain(proc, pol)
    reference = lambda at: reference_redistribution_path(proc, pol, x0, 40.0,
                                                         3, 0, at)
    assert reference(())[4] > simulate.FIRST_BLOCK * 3
    assert_pinned(chain, x0, 40.0, 3, reference, cps)

    samples = _checkpoint_run(chain, x0, cps, 4, 9).cp_states.sum(axis=-1)
    for rep in range(4):
        ref = reference_redistribution_path(proc, pol, x0, 9.0 * (1 + 1e-12),
                                            9, rep, cps)
        assert np.array_equal(samples[rep], [redistribution_weight(s)
                                             for s, _ in ref[3]])


def test_replication_depends_only_on_seed_and_index(monkeypatch):
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 2, "mu2": 2.5, "N": 2,
                             "G": 1})
    f = StationaryPolicy(choice=np.zeros(m.n, dtype=np.int64))
    three = estimate_average_reward(m, f, 0, 300.0, 3, seed=4)
    seven = estimate_average_reward(m, f, 0, 300.0, 7, seed=4)
    assert np.array_equal(three.values[:3], seven.values[:3])
    assert np.array_equal(three.jumps, seven.jumps[:3])
    # groups of 2 replications at the first block length instead of 2048
    monkeypatch.setattr(simulate, "GROUP_CELLS", 2 * simulate.FIRST_BLOCK)
    grouped = estimate_average_reward(m, f, 0, 300.0, 7, seed=4)
    assert np.array_equal(grouped.values, seven.values)
    assert np.array_equal(grouped.jumps, seven.jumps)


def test_guard_names_replication_time_and_state(monkeypatch):
    m = ctmdp.build("mmn0", {"lambda": 50, "mu1": 60, "mu2": 61, "N": 2,
                             "G": 1})
    f = StationaryPolicy(choice=np.zeros(m.n, dtype=np.int64))
    monkeypatch.setattr(simulate, "MAX_JUMPS", 100)
    for lookup in LOOKUPS:
        with lookup(m, f), pytest.raises(ctmdp.SimulationError) as err:
            simulate._run(simulate._PolicyChain(m, f), 0, 1e6, 3, 0)
        exc = err.value
        assert exc.replication == 0 and exc.jumps == 101
        times, states, *_ = reference_policy_path(m, f, 0, 2 * exc.time, 0, 0)
        assert exc.time == times[101]
        assert exc.last_state == states[101]


def test_top_uniform_draw_lands_on_last_positive_target():
    # normalized by the pairwise sum these rates end at 1 - 2**-53, so a
    # top draw would fall off the row; the running sum ends at exactly 1
    rates = [0.152, 1.532, 1.122, 0.726, 1.598, 0.676, 0.962, 0.355, 0.866]
    assert (np.cumsum(rates) / np.sum(rates))[-1] < 1.0
    row = list(enumerate(rates + [0.0], start=1))      # trailing zero rate
    model = CtmdpModel(
        actions=np.zeros((11, 1)),
        kernel=kernel_from_rows([[[(0, -sum(rates))] + row]]
                                + [[[(x, 0.0)]] for x in range(1, 11)]),
        r=np.zeros(11))
    f = StationaryPolicy(choice=[0] * 11)
    top = np.nextafter(1.0, 0.0)
    L = simulate.FIRST_BLOCK       # one jump, then a block of k jumps
    for lookup in LOOKUPS:
        with lookup(model, f):
            chain = simulate._PolicyChain(model, f)
        for draws in (np.array([[[1.0]], [[top]]]), np.full((2, 1, L), top)):
            assert chain.walk(np.array([0]), draws).tolist() == [
                [0] + [9] * draws.shape[2]]


def test_jump_table_is_capped_by_one_constant(monkeypatch):
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "N": 30, "G": 3})
    f = StationaryPolicy(choice=np.zeros(m.n, dtype=np.int64))
    cells = m.n * simulate._PolicyChain(m, f).width
    monkeypatch.setattr(simulate, "JUMP_TABLE_CELLS", cells)
    assert simulate._PolicyChain(m, f).next.size == cells
    monkeypatch.setattr(simulate, "JUMP_TABLE_CELLS", cells - 1)
    assert simulate._PolicyChain(m, f).next is None


def test_k_is_the_longest_run_whose_table_fits_the_cap(monkeypatch):
    # bd30 under the zero policy: 31 states and B = 2 cuts
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "p1": 0.0, "p": 2.0, "N": 30, "G": 3})
    f = StationaryPolicy(choice=np.zeros(m.n, dtype=np.int64))
    chain = simulate._PolicyChain(m, f)
    B = len(chain.cuts)
    assert (m.n, B, chain.k) == (31, 2, 8)      # 31 * 2**16 > 2**20
    assert chain.next_k.size == m.n * B ** 8 <= simulate.JUMP_TABLE_CELLS
    # k is at most the first block length, however small the chain
    small, g = explicit_model([[(0, -2.0), (1, 1.0), (2, 1.0)],
                               [(0, 1.0), (1, -1.0)], [(0, 1.0), (2, -1.0)]])
    chain = simulate._PolicyChain(small, g)
    assert (len(chain.cuts), chain.k) == (2, simulate.FIRST_BLOCK)
    for k in (8, 4, 2):
        monkeypatch.setattr(simulate, "JUMP_TABLE_CELLS", m.n * B ** k)
        chain = simulate._PolicyChain(m, f)
        assert (chain.k, chain.stride) == (k, B ** k)
        assert chain.next_k.size == m.n * B ** k
        monkeypatch.setattr(simulate, "JUMP_TABLE_CELLS", m.n * B ** k - 1)
        assert simulate._PolicyChain(m, f).k == k // 2
    # at k = 1 the walk reads the one-step table
    chain = simulate._PolicyChain(m, f)
    assert chain.k == 1 and chain.next_k is chain.next
    assert chain.next.size <= simulate.JUMP_TABLE_CELLS
