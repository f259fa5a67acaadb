import numpy as np
import pytest

import ctmdp
from ctmdp import (StationaryPolicy, check_assumption_A, check_assumption_B,
                   check_example_conditions, check_monotonicity)

import oracles


BD_PARAMS = {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.0, "p": 2.0,
             "N": 15, "G": 3}


@pytest.fixture(scope="module")
def bd_model():
    return ctmdp.build("birth_death", BD_PARAMS)


def test_drift_and_rate_bound_pass(bd_model):
    rep = check_assumption_A(bd_model)
    assert rep.ok
    assert rep.check("drift_w").passed
    assert rep.check("rate_bound").passed


def test_fitted_constants_feasible(bd_model):
    rep = check_assumption_A(bd_model)
    # the fitted offset can only be tighter than the shipped one
    assert rep.fitted["b_hat"] <= bd_model.lyapunov.b + 1e-9
    assert rep.fitted["c_hat"] >= bd_model.lyapunov.c - 1e-9


def test_unstable_rates_detected():
    params = dict(BD_PARAMS)
    params["mu1"], params["mu2"] = 0.5, 4.0   # death floor below birth rate
    m = ctmdp.build("birth_death", params)
    rep = check_assumption_A(m)
    assert rep.fitted["c_hat"] <= 0.0


def test_bound_conditions_pass(bd_model):
    rep = check_assumption_B(bd_model)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert names == ["reward_bound", "rate_weight_product", "growth_wprime"]


def test_reward_bound_violation_reported():
    m = ctmdp.build("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 3,
                             "G": 2})
    lyap = m.lyapunov
    shrunk = ctmdp.LyapunovData(w=lyap.w, c=lyap.c, b=lyap.b, M=1e-6,
                                M_q=lyap.M_q)
    m2 = ctmdp.CtmdpModel(actions=m.actions, kernel=m.kernel, r=m.r,
                          lyapunov=shrunk)
    rep = check_assumption_B(m2)
    assert not rep.check("reward_bound").passed


def test_monotonicity_birth_death(bd_model):
    for choice in (0, bd_model.kernel.counts[1] - 1):
        f = StationaryPolicy(choice=np.full(bd_model.n, choice,
                                            dtype=np.int64))
        f = StationaryPolicy(choice=np.minimum(f.choice,
                                               bd_model.kernel.counts - 1))
        rep = check_monotonicity(bd_model, f)
        assert rep.ok, rep.checks[0].to_dict()


def test_monotonicity_violation_detected():
    # two states whose jump targets are reversed: from 0 you jump up,
    # from 1 you jump down with a much larger tail mass
    m = ctmdp.CtmdpModel(
        actions=np.zeros((3, 1)),
        kernel=oracles.kernel_from_rows([
            [[(0, -5.0), (2, 5.0)]],
            [[(0, 1.0), (1, -1.0)]],
            [[(1, 1.0), (2, -1.0)]],
        ]),
        r=np.zeros(3),
    )
    f = StationaryPolicy(choice=np.zeros(3, dtype=np.int64))
    rep = check_monotonicity(m, f)
    assert not rep.ok


def test_monotonicity_multidim_unsupported():
    m = ctmdp.build("tandem", {"N": 3, "G": 2})
    f = StationaryPolicy(choice=np.zeros(m.n, dtype=np.int64))
    rep = check_monotonicity(m, f)
    assert rep.status == "unsupported"
    assert rep.ok          # no check failed; status says none could run


def test_birth_death_parameter_conditions():
    rep = check_example_conditions("birth_death",
                                   {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "p1": 0.3})
    assert rep.ok
    bad = check_example_conditions("birth_death",
                                   {"lambda": 1, "mu1": 3, "mu2": 4,
                                    "p1": 0.9})
    assert not bad.check("E2").passed


def test_skip_free_parameter_conditions():
    # the catastrophe-intensity floor must cover the net arrival drift
    rep = check_example_conditions("skip_free",
                                   {"lambda": 1, "mu": 2, "b": 1.0,
                                    "beta": 2.0})
    assert rep.ok
    bad = check_example_conditions("skip_free",
                                   {"lambda": 1, "mu": 2, "b": 0.5,
                                    "beta": 1.0})
    assert not bad.check("F2").passed


def test_boundary_slack_reported_separately(bd_model):
    rep = check_assumption_A(bd_model)
    detail = rep.check("drift_w").detail
    assert detail["boundary_states"] == [bd_model.n - 1]
    assert detail["boundary_worst_slack"] is not None
