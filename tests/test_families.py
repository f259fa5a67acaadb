import numpy as np
import pytest

import ctmdp
from ctmdp import PotlachPolicy, build, describe, validate_model
from ctmdp.families import BUILTINS, resolve, tandem_weight
from ctmdp.simulate import _RedistributionChain
from oracles import redistribution_reward


def test_unknown_family_rejected():
    with pytest.raises(ctmdp.ModelError):
        build("mystery", {})


def test_describe_lists_schema():
    d = describe("birth_death")
    assert "lambda" in d["params"]
    with pytest.raises(ctmdp.ModelError):
        describe("mystery")


def test_resolve_fills_defaults_from_earlier_params():
    s = resolve(BUILTINS["skip_free"],
                {"lambda": 1, "mu": 2, "b": 1.0, "beta": 2.0})
    assert s["gamma2"] == min(1.0, 0.5 + 2.0 / (4.0 * 2.0))
    assert (s["N"], s["G"], s["tau"]) == (30, 11, 1.0)
    t = resolve(BUILTINS["tandem"], {"mu1": 3.5, "N": 4})
    assert t["mu1star"] == 4.5
    assert t["reward"] == {"kind": "throughput", "c1": 0.0, "c2": 0.0,
                           "cap": 8.0}
    assert isinstance(t["N"], int) and isinstance(t["mu2"], float)


def test_birth_death_rates_as_specified():
    m = build("birth_death", {"lambda": 1.5, "mu1": 3, "mu2": 4, "p1": 0.25,
                              "N": 8, "G": 2})
    # x=0: only a birth at rate lambda
    ys, rates = m.kernel.row(0, 0)
    assert dict(zip(ys.tolist(), rates.tolist())) == {0: -1.5, 1: 1.5}
    # x=1: death of size one at rate a, birth at rate lambda
    (a,) = m.actions[m.kernel.starts[1] + 1]
    ys, rates = m.kernel.row(1, 1)
    got = dict(zip(ys.tolist(), rates.tolist()))
    assert got[0] == pytest.approx(a)
    assert got[2] == pytest.approx(1.5)
    # x>=2: split deaths (1-p1, p1) scaled by a*x, births lambda*x
    x = 4
    ys, rates = m.kernel.row(x, 1)
    got = dict(zip(ys.tolist(), rates.tolist()))
    assert got[x - 1] == pytest.approx(0.75 * a * x)
    assert got[x - 2] == pytest.approx(0.25 * a * x)
    assert got[x + 1] == pytest.approx(1.5 * x)


def test_birth_death_reward_shapes():
    m = build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4, "p": 2.0,
                              "rc": {"kind": "linear", "kappa": 0.1},
                              "N": 6, "G": 2})
    (a,) = m.actions[m.kernel.starts[3] + 1]
    assert m.r[m.kernel.starts[3] + 1] == pytest.approx(2.0 * 3 - 0.1 * a * 3)
    with pytest.raises(ctmdp.ModelError):
        build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4,
                              "rc": {"kind": "cubic"}, "N": 6})


def test_skip_free_rates_and_validation():
    m = build("skip_free", {"lambda": 1, "mu": 2, "b": 1.0, "beta": 2.0,
                            "N": 12, "G": 2})
    assert validate_model(m).ok
    # from x=1 no size-two catastrophe is possible
    for a in range(m.kernel.counts[1]):
        ys, _ = m.kernel.row(1, a)
        assert all(y >= 0 for y in ys)
    # interior row matches lambda*x + a1 up, mu*x + d*(1-g2) down,
    # d*g2 double-down
    x = 5
    a1, a2 = m.actions[m.kernel.starts[x] + m.kernel.counts[x] - 1]
    ys, rates = m.kernel.row(x, m.kernel.counts[x] - 1)
    got = dict(zip(ys.tolist(), rates.tolist()))
    d = 2.0 * a2 * x
    g2 = min(1.0, 0.5 + 2.0 / (4.0 * 2.0))
    assert got[x + 1] == pytest.approx(1.0 * x + a1)
    assert got[x - 1] == pytest.approx(2.0 * x + d * (1 - g2))
    assert got[x - 2] == pytest.approx(d * g2)


def test_skip_free_drift_checks_pass():
    m = build("skip_free", {"lambda": 1, "mu": 2, "b": 1.0, "beta": 2.0,
                            "N": 12, "G": 2})
    assert ctmdp.check_assumption_A(m).ok
    assert ctmdp.check_assumption_B(m).ok


def test_tandem_weight_value():
    # w(1,1) = 1 + sigma2 + gamma*sigma2^(-0.3)
    expected = 1.0 + 1.03 + 0.4 * 1.03 ** (-0.3)
    assert tandem_weight(1, 1) == pytest.approx(expected, abs=1e-15)


def test_tandem_transitions():
    m = build("tandem", {"N": 3, "G": 2})
    assert validate_model(m).ok
    idx = {lab: i for i, lab in enumerate(m.labels)}
    x = idx[(1, 1)]
    a1, a2 = m.actions[m.kernel.starts[x]]
    ys, rates = m.kernel.row(x, 0)
    got = {m.labels[y]: r for y, r in zip(ys.tolist(), rates.tolist())}
    assert got[(2, 1)] == pytest.approx(1.0)        # arrival
    assert got[(0, 2)] == pytest.approx(a1)         # stage-1 completion
    assert got[(1, 0)] == pytest.approx(a2)         # departure
    assert ctmdp.check_assumption_A(m).ok


def test_tandem_parameter_floors_enforced():
    with pytest.raises(ctmdp.ModelError):
        build("tandem", {"mu1": 2.0, "N": 3})


def test_mmn0_boundary_rows():
    m = build("mmn0", {"lambda": 1.2, "mu1": 2, "mu2": 3, "N": 3, "G": 2})
    # state 0 has the single idle action; top state has no arrival
    assert m.actions[:m.kernel.counts[0]].tolist() == [[0.0]]
    ys, rates = m.kernel.row(0, 0)
    assert dict(zip(ys.tolist(), rates.tolist())) == {0: -1.2, 1: 1.2}
    (mu,) = m.actions[m.kernel.starts[3] + 1]
    ys, rates = m.kernel.row(3, 1)
    got = dict(zip(ys.tolist(), rates.tolist()))
    assert got[3] == pytest.approx(-3 * mu)
    assert got[2] == pytest.approx(3 * mu)


def test_all_tabulated_builtins_validate():
    cases = [
        ("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3, "N": 9,
                         "G": 2}),
        ("skip_free", {"lambda": 1, "mu": 2, "b": 1.0, "beta": 2.0, "N": 9,
                       "G": 2}),
        ("tandem", {"N": 3, "G": 2}),
        ("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 4, "G": 3}),
    ]
    for name, params in cases:
        assert validate_model(build(name, params)).ok, name


def test_potlach_policy_validation():
    with pytest.raises(ctmdp.ModelError):
        PotlachPolicy(matrix=np.array([[0.5, 0.6], [0.5, 0.5]]),
                      q=np.zeros(2))
    with pytest.raises(ctmdp.ModelError):
        build("potlach", {"d": 2, "lambda": 0.5})


def test_potlach_reward_reduces_without_cost_weights():
    proc = build("potlach", {"d": 3, "lambda": 2.0})
    pol = PotlachPolicy(matrix=np.full((3, 3), 1.0 / 3.0), q=np.zeros(3))
    x = np.array([1.0, 2.0, 3.0])
    assert redistribution_reward(proc, x, pol) \
        == pytest.approx(-2.0 * x.sum())


def test_potlach_jump_preserves_nonnegativity():
    matrix = [[0.2, 0.8], [0.7, 0.3]]
    proc = build("potlach", {"d": 2, "lambda": 2.0, "matrices": [matrix]})
    pol = PotlachPolicy(matrix=np.array(matrix), q=np.zeros(2))
    chain = _RedistributionChain(proc, pol)
    rng = np.random.default_rng(0)
    draws = np.stack([rng.standard_exponential((4, 200)), rng.random((4, 200)),
                      rng.standard_exponential((4, 200))])
    states = chain.walk(chain.start([1.0, 1.0], 4), draws)
    assert states.shape == (4, 201, 2)
    assert np.all(states >= 0)


def test_monotone_condition_holds_on_truncation():
    m = build("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3,
                              "N": 10, "G": 2})
    for choice in range(m.kernel.counts[1]):
        f = ctmdp.StationaryPolicy(
            choice=np.full(m.n, choice, dtype=np.int64))
        assert ctmdp.check_monotonicity(m, f).ok


def test_drift_identity_matches_closed_form():
    lam, p1 = 1.0, 0.3
    m = build("birth_death", {"lambda": lam, "mu1": 3, "mu2": 4, "p1": p1,
                              "N": 10, "G": 3})
    Qw = m.kernel.Q @ m.lyapunov.w
    for x in range(2, m.n - 1):
        for ai in range(m.kernel.counts[x]):
            (a,) = m.actions[m.kernel.starts[x] + ai]
            assert Qw[m.kernel.starts[x] + ai] == pytest.approx(
                -(a + a * p1 - lam) * x, abs=1e-12)
