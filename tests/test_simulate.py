import numpy as np
import pytest
from scipy import stats

import ctmdp
from ctmdp import (PotlachPolicy, StationaryPolicy, check_lyapunov_bound,
                   estimate_average_reward, estimate_ergodicity)
from ctmdp import simulate
from ctmdp.simulate import MAX_JUMPS, _PolicyChain, _run, stream

import oracles


@pytest.fixture(scope="module")
def mm20():
    return ctmdp.build("mmn0", {"lambda": 1, "mu1": 2, "mu2": 2.5,
                                "N": 2, "G": 1})


def zero_policy(m):
    return StationaryPolicy(choice=np.zeros(m.n, dtype=np.int64))


def test_reproducible_paths(mm20):
    chain, cps = _PolicyChain(mm20, zero_policy(mm20)), np.linspace(0, 500, 41)
    a = _run(chain, 0, 500.0, 3, 11, cps)
    b = _run(chain, 0, 500.0, 3, 11, cps)
    for name in ("reward", "jumps", "cp_states", "cp_rewards", "occupation"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_different_seeds_differ(mm20):
    chain = _PolicyChain(mm20, zero_policy(mm20))
    a = _run(chain, 0, 500.0, 1, 11)
    b = _run(chain, 0, 500.0, 1, 12)
    assert a.reward[0] != b.reward[0]


def test_absorbing_state_single_segment():
    m = ctmdp.CtmdpModel(
        actions=np.zeros((1, 1)),
        kernel=oracles.kernel_from_rows([[[(0, 0.0)]]]),
        r=[3.0],
    )
    runs = _run(_PolicyChain(m, zero_policy(m)), 0, 10.0, 1, 0)
    assert runs.jumps.tolist() == [0]
    assert runs.reward[0] == pytest.approx(30.0)


# the path readers below read the reference path, which test_stepper.py
# pins to the stepper's, jump time for jump time and state for state

def test_reward_integral_matches_segments(mm20):
    f = zero_policy(mm20)
    times, states, *_ = oracles.reference_policy_path(mm20, f, 0, 200.0, 4)
    reward = _run(_PolicyChain(mm20, f), 0, 200.0, 1, 4).reward[0]
    r = np.array([oracles.reward(mm20, s, 0) for s in states])
    ends = np.append(times[1:], 200.0)
    assert reward == pytest.approx(float(r @ (ends - times)))


def test_holding_times_exponential(mm20):
    # holding times in state 0 against Exponential(lambda=1), KS at 1%
    times, states, *_ = oracles.reference_policy_path(
        mm20, zero_policy(mm20), 0, 30000.0, 21)
    hold = np.diff(times)                   # last segment is censored
    in0 = hold[np.array(states[:-1]) == 0]
    assert len(in0) >= 10 ** 4
    d, _ = stats.kstest(in0[:10 ** 4], "expon", args=(0, 1.0))
    assert d < 1.63 / np.sqrt(10 ** 4)      # 1% critical value


def test_jump_frequencies_match_rates():
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "p1": 0.4, "N": 10, "G": 1})
    f = zero_policy(m)
    _, states, *_ = oracles.reference_policy_path(m, f, 2, 20000.0, 13)
    st_, nxt = np.array(states[:-1]), np.array(states[1:])
    from2 = nxt[st_ == 2]
    counts = {y: int(np.sum(from2 == y)) for y in (0, 1, 3)}
    total = len(from2)
    # rates out of 2: down1 = 0.6*3*2, down2 = 0.4*3*2, up = 2
    probs = np.array([2.4, 3.6, 2.0]) / 8.0
    for y, p in zip((0, 1, 3), probs):
        se = np.sqrt(p * (1 - p) / total)
        assert abs(counts[y] / total - p) <= 3 * se


def test_average_reward_constant_is_exact(mm20):
    flat_r = ctmdp.CtmdpModel(
        actions=mm20.actions, kernel=mm20.kernel, r=np.full(mm20.n_pairs, 2.0),
    )
    rep = estimate_average_reward(flat_r, zero_policy(mm20), 0, 100.0, 5,
                                  seed=1)
    assert rep.mean == pytest.approx(2.0)
    assert rep.se == pytest.approx(0.0)


def test_occupation_matches_stationary_distribution(mm20):
    f = zero_policy(mm20)
    rep = estimate_average_reward(mm20, f, 0, 1e5, 4, seed=2)
    pi = oracles.stationary_distribution(mm20, f)
    assert np.max(np.abs(rep.occupation - pi)) <= 0.01
    assert abs(rep.mean - 6.0 / 13.0) <= 3 * rep.se + 1e-12


def test_report_names_rng_contract(mm20):
    rep = estimate_average_reward(mm20, zero_policy(mm20), 0, 10.0, 2, seed=5)
    assert rep.rng["family"] == "numpy.random.Philox"
    assert rep.rng["seed"] == 5
    g1 = stream(5, 0).random(3)
    g2 = stream(5, 0).random(3)
    assert np.array_equal(g1, g2)


def test_stream_seed_range():
    stream(0, 0)
    stream(2 ** 64 - 1, 3)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ctmdp.ModelError, match="seed must be in"):
            stream(seed, 0)


def test_explosion_guard_raises(monkeypatch):
    m = ctmdp.build("mmn0", {"lambda": 50, "mu1": 60, "mu2": 61, "N": 2,
                             "G": 1})
    assert MAX_JUMPS == 10 ** 8
    monkeypatch.setattr(simulate, "MAX_JUMPS", 100)
    with pytest.raises(ctmdp.SimulationError, match=r"guard \(100\)"):
        estimate_average_reward(m, zero_policy(m), 0, 1e6, 1, seed=0)


def test_lyapunov_bound_trivial_weight(mm20):
    lyap = ctmdp.LyapunovData(w=np.ones(mm20.n), c=1.0, b=1.0, M=3.0,
                              M_q=5.0)
    m = ctmdp.CtmdpModel(actions=mm20.actions, kernel=mm20.kernel, r=mm20.r,
                         lyapunov=lyap)
    rep = check_lyapunov_bound(m, zero_policy(m), 0, [0.5, 1.0, 2.0], 10,
                               seed=3)
    assert rep.passed


def test_checkpoint_estimates_refuse_a_single_replication(mm20):
    # one replication has no standard error: every ses entry was NaN
    f, probe = zero_policy(mm20), np.arange(mm20.n, dtype=float)
    lyap = ctmdp.LyapunovData(w=np.ones(mm20.n), c=1.0, b=1.0, M=3.0,
                              M_q=5.0)
    m = ctmdp.CtmdpModel(actions=mm20.actions, kernel=mm20.kernel, r=mm20.r,
                         lyapunov=lyap)
    for estimate in (
            lambda reps: check_lyapunov_bound(m, f, 0, [1.0], reps, seed=3),
            lambda reps: estimate_ergodicity(mm20, f, [probe], (0, 1),
                                             [1.0, 2.0], reps, seed=3),
            lambda reps: ctmdp.martingale_diagnostic(
                mm20, f, np.zeros(mm20.n), 0.0, 0, [1.0, 2.0], reps,
                seed=3)):
        for reps in (1, 0):
            with pytest.raises(ctmdp.ModelError,
                               match="reps must be at least 2"):
                estimate(reps)
        estimate(2)


@pytest.mark.parametrize("checkpoints, estimate", [
    ([5.0], "martingale"), ([0.0, 0.0], "martingale"),
    ([2.0, 2.0, 2.0], "martingale"),
    ([0.0], "ergodicity"), ([], "ergodicity")])
def test_checkpoint_estimates_refuse_checkpoints_comparing_nothing(
        mm20, checkpoints, estimate):
    # one martingale checkpoint compares no interval (both verdicts were
    # true); an ergodicity run ending at 0 divided an empty occupation
    f = zero_policy(mm20)
    with pytest.raises(ctmdp.ModelError, match="checkpoint"):
        if estimate == "martingale":
            ctmdp.martingale_diagnostic(mm20, f, np.zeros(mm20.n), 0.0, 0,
                                        checkpoints, 20, seed=3)
        else:
            estimate_ergodicity(mm20, f, [np.arange(mm20.n, dtype=float)],
                                (0, 1), checkpoints, 20, seed=3)


@pytest.mark.parametrize("checkpoints", [[2.0, 1.0], [1.0, float("nan")],
                                         [-1.0, 1.0]],
                         ids=["decreasing", "nan", "negative"])
def test_monte_carlo_runs_refuse_bad_checkpoint_times(checkpoints):
    # decreasing times raised a bare ValueError; a NaN time failed the
    # Lyapunov check and a negative one passed it
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "N": 10, "G": 1})
    f = zero_policy(m)
    probe = np.arange(m.n, dtype=float)
    for run in (
            lambda: check_lyapunov_bound(m, f, 0, checkpoints, 4, seed=1),
            lambda: ctmdp.martingale_diagnostic(m, f, probe, 0.0, 0,
                                                checkpoints, 4, seed=1),
            lambda: estimate_ergodicity(m, f, [probe], (0, 1), checkpoints,
                                        4, seed=1)):
        with pytest.raises(ctmdp.ModelError, match="checkpoint"):
            run()


@pytest.mark.parametrize("horizon, reps, message", [
    (0.0, 2, "horizon must be finite and > 0"),
    (float("nan"), 2, "horizon must be finite and > 0"),
    (1.0, 0, "reps must be finite and > 0")],
    ids=["horizon_0", "horizon_nan", "reps_0"])
def test_average_reward_estimate_refuses_empty_runs(mm20, horizon, reps,
                                                    message):
    # each returned a NaN mean with RuntimeWarnings
    with pytest.raises(ctmdp.ModelError, match=message):
        estimate_average_reward(mm20, zero_policy(mm20), 0, horizon, reps,
                                seed=1)


@pytest.mark.parametrize("matrix, q, x0, message", [
    (np.full((3, 3), 1 / 3), np.zeros(3), [1.0, 1.0],
     "'matrix' must be one of the family's admissible 'matrices'"),
    (np.eye(2), np.zeros(2), [1.0, 1.0],
     "'matrix' must be one of the family's admissible 'matrices'"),
    (np.full((2, 2), 0.5), [0.5, 1.5], [1.0, 1.0],
     r"'q' must satisfy 0 <= q <= qstar = \[1.0, 1.0\], got \[0.5, 1.5\]"),
    (np.full((2, 2), 0.5), np.zeros(3), [1.0, 1.0], "'q' must satisfy"),
    (np.full((2, 2), 0.5), np.zeros(2), [1.0, 1.0, 1.0],
     r"^x0 must list 2 masses, got \[1.0, 1.0, 1.0\]$"),
    (np.full((2, 2), 0.5), np.zeros(2), [-5.0, 1.0],
     r"^x0 masses must be finite and non-negative, got \[-5.0, 1.0\]$"),
    (np.full((2, 2), 0.5), np.zeros(2), [np.nan, 1.0],
     r"^x0 masses must be finite and non-negative, got \[nan, 1.0\]$")],
    ids=["matrix_3x3", "matrix_inadmissible", "q_above_qstar", "q_of_3",
         "x0_of_3", "x0_negative", "x0_nan"])
def test_redistribution_runs_refuse_inadmissible_input(matrix, q, x0,
                                                       message):
    # a policy of the wrong size or a start of 3 masses failed in numpy's
    # broadcasting; an inadmissible matrix or weight ran silently
    proc = ctmdp.build("potlach", {"d": 2, "lambda": 2.0})
    pol = PotlachPolicy(matrix=matrix, q=q)
    with pytest.raises(ctmdp.ModelError, match=message):
        check_lyapunov_bound(proc, pol, x0, [0.5, 1.0], 4, seed=1)


def test_checkpoint_means_ordered_in_start_state():
    m = ctmdp.build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "N": 25, "G": 1})
    f = zero_policy(m)
    cps = [0.25, 0.5, 1.0, 2.0]
    lo = check_lyapunov_bound(m, f, 5, cps, 120, seed=6)
    hi = check_lyapunov_bound(m, f, 15, cps, 120, seed=6)
    ses = np.sqrt(lo.ses ** 2 + hi.ses ** 2)
    assert np.all(lo.means <= hi.means + 3 * ses)


def test_ergodicity_decay_visible(mm20):
    f = zero_policy(mm20)
    probe = np.arange(mm20.n, dtype=float)
    rep = estimate_ergodicity(mm20, f, [probe], (2, 0),
                              [0.25, 0.5, 1.0, 2.0, 4.0], 400, seed=9)
    assert rep.empirical
    assert not rep.flagged
    assert rep.rho_hat > 0


def test_ergodicity_runs_once_per_start_for_every_probe(mm20, monkeypatch):
    # one occupation run and one checkpoint run per start, however many
    # probes; each probe's gaps are those of a one-probe call
    f = zero_policy(mm20)
    probes = [np.arange(mm20.n, dtype=float), np.array([1.0, 0.0, 2.0])]
    args = ((2, 0), [0.25, 0.5, 1.0, 2.0], 50)
    singles = [estimate_ergodicity(mm20, f, [u], *args, seed=9).diffs[0]
               for u in probes]
    calls = []
    run = simulate._run
    monkeypatch.setattr(simulate, "_run",
                        lambda *a, **k: calls.append(a) or run(*a, **k))
    rep = estimate_ergodicity(mm20, f, probes, *args, seed=9)
    assert len(calls) == 3
    assert all(np.array_equal(rep.diffs[i], singles[i]) for i in range(2))


def test_ergodicity_refuses_a_bad_second_start_before_any_run(mm20,
                                                              monkeypatch):
    # the second start used to be refused only after the first start's
    # whole checkpoint run, as "start state 99 out of range"
    calls = []
    monkeypatch.setattr(simulate, "_checkpoint_run",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(ctmdp.ModelError,
                       match=r"^x0b must be in 0\.\.2, got 99$") as info:
        estimate_ergodicity(mm20, zero_policy(mm20), [np.ones(mm20.n)],
                            (0, 99), [1.0, 2000.0], 2000, seed=1)
    assert info.value.field == "x0b"
    assert calls == []


def test_redistribution_process_refuses_tabulated_estimates():
    proc = ctmdp.build("potlach", {"d": 2, "lambda": 2.0})
    pol = PotlachPolicy(matrix=np.full((2, 2), 0.5), q=np.zeros(2))
    x0 = np.array([1.0, 1.0])
    calls = [lambda: estimate_average_reward(proc, pol, x0, 1.0, 2, seed=1),
             lambda: estimate_ergodicity(proc, pol, [np.ones(2)], (x0, x0),
                                         [0.5, 1.0], 2, seed=1),
             lambda: ctmdp.martingale_diagnostic(proc, pol, np.ones(2), 0.0,
                                                 x0, [0.5, 1.0], 2, seed=1)]
    for call in calls:
        with pytest.raises(ctmdp.ModelError,
                           match=r"^PotlachProcess is not a CtmdpModel; "
                                 r"the redistribution process supports "
                                 r"check_lyapunov_bound \(simulate --mode "
                                 r"lyapunov\) only$"):
            call()


def test_ergodicity_no_mixing_flagged():
    m = ctmdp.CtmdpModel(
        actions=np.zeros((2, 1)),
        kernel=oracles.kernel_from_rows([[[(0, 0.0)]], [[(1, 0.0)]]]),
        r=[1.0, 0.0],
    )
    rep = estimate_ergodicity(m, zero_policy(m), [np.array([0.0, 1.0])],
                              (0, 1), [0.5, 1.0, 2.0], 20, seed=10)
    assert rep.flagged


def test_transient_mean_matrix_exponential_crosscheck(mm20):
    # simulated E x(t) against the matrix-exponential oracle
    f = zero_policy(mm20)
    probe = np.arange(mm20.n, dtype=float)
    from ctmdp.simulate import _checkpoint_run
    samples = probe[_checkpoint_run(_PolicyChain(mm20, f), 2, [0.5], 600,
                                    17).cp_states]
    ref = oracles.transient_mean(mm20, f, 2, probe, 0.5)
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - ref) <= 3 * se + 1e-12


def test_potlach_path_and_drift():
    proc = ctmdp.build("potlach", {"d": 2, "lambda": 2.0})
    pol = PotlachPolicy(matrix=np.full((2, 2), 0.5), q=np.zeros(2))
    chain = simulate._RedistributionChain(proc, pol)
    rng = np.random.default_rng(14)
    draws = np.stack([rng.standard_exponential((50, 64)), rng.random((50, 64)),
                      rng.standard_exponential((50, 64))])
    states = chain.walk(chain.start([1.0, 1.0], 50), draws)
    assert states.shape == (50, 65, 2)
    assert np.all(states >= 0)
    assert proc.total_rate == 2.0
    assert proc.drift_constant == pytest.approx(0.5)
    rep = check_lyapunov_bound(proc, pol, np.array([5.0, 5.0]),
                               [0.5, 1.0, 2.0, 4.0], 300, seed=15)
    assert rep.passed
