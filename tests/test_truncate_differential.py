"""Differential tests: the array `truncate` against the per-entry loop
`oracles.truncate_loop`, on random countable families (dim 1-3, N 0-6,
duplicate targets, targets beyond N and clamped onto the source, rows
without off-diagonal mass, Python and numpy rates, negative targets) and on
the benchmark's builtin instances. The kernels must agree byte for byte,
signs of zero included, and so must rewards, actions, labels and Lyapunov
data; a negative target must raise the same error in both.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmdp import families
from ctmdp.model import CountableFamily, LyapunovData, ModelError, truncate
from oracles import truncate_loop

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

NAN, INF = float("nan"), float("inf")
RATES = [0.0, -0.0, 0.5, 1.0, 2.5, 3.0, 0.1, 1.0 / 3.0, 1e-17, -1.0, -0.5,
         NAN, INF, -INF]
RATE_TYPES = [float, np.float64, np.float32]
TARGET_TYPES = [tuple, list, lambda t: tuple(np.int64(c) for c in t)]
TARGET_KINDS = ["near", "beyond", "onto_source", "repeat", "anywhere"]


def random_family(seed: int, dim: int, N: int, max_entries: int,
                  negative: bool) -> CountableFamily:
    """A family whose callbacks are deterministic in (seed, label, action)."""
    def rng(*key):
        return random.Random(f"{seed}/{key}")

    def actions(lab):
        r = rng("actions", lab)
        kind = r.choice([float, np.float64])
        return [(kind(v), kind(v / 2)) for v in r.sample(range(5),
                                                          r.randint(1, 3))]

    def entries(lab, act):
        r = rng("entries", lab, act)
        out = []
        for _ in range(r.randint(0, max_entries)):
            kind = r.choice(TARGET_KINDS)
            if kind == "repeat" and out:
                t = list(r.choice(out)[0])
            elif kind == "near":
                t = [max(c + r.randint(-1, 1), 0) for c in lab]
            elif kind == "beyond":
                t = [c + r.randint(0, 3) for c in lab]
            elif kind == "onto_source":   # clamps back onto lab (or is lab)
                t = [c + r.randint(1, 2) if c == N else c for c in lab]
            else:
                t = [r.randint(0, N + 2) for _ in lab]
            out.append((r.choice(TARGET_TYPES)(t),
                        r.choice(RATE_TYPES)(r.choice(RATES))))
        if negative and r.random() < 0.05:
            t = list(lab)
            t[r.randrange(dim)] = -r.randint(1, 3)
            out.insert(r.randint(0, len(out)),
                       (r.choice(TARGET_TYPES)(t), 1.0))
        return out

    def reward(lab, act):
        return rng("reward", lab).choice([float, np.float64])(
            sum(lab) * act[0] - act[1])

    def lyapunov(labels):
        return LyapunovData(w=np.array([1.0 + sum(lab) for lab in labels]),
                            c=1.0, b=0.0, M=1.0, M_q=1.0)

    return CountableFamily(dim=dim, actions=actions, entries=entries,
                           reward=reward, lyapunov=lyapunov)


def canonical_bytes(a: np.ndarray) -> bytes:
    """Raw bytes with every NaN made the same: IEEE 754 leaves the sign and
    payload of a NaN result open, and CPython's float addition and numpy's
    add loops pick different operands' NaN (inf + -inf, then NaN + NaN)."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def assert_same_model(new, ref):
    for name in ("indptr", "indices"):
        a, b = getattr(new.kernel.Q, name), getattr(ref.kernel.Q, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert canonical_bytes(new.kernel.Q.data) == \
        canonical_bytes(ref.kernel.Q.data)
    assert new.kernel.counts.tobytes() == ref.kernel.counts.tobytes()
    assert repr(new.rewards.table) == repr(ref.rewards.table)
    assert new.actions.sets == ref.actions.sets
    assert new.states == ref.states
    assert (new.lyapunov is None) == (ref.lyapunov is None)
    if ref.lyapunov is not None:
        for name, value in vars(ref.lyapunov).items():
            other = getattr(new.lyapunov, name)
            if isinstance(value, np.ndarray):
                assert other.tobytes() == value.tobytes(), name
            else:
                assert repr(other) == repr(value), name


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), dim=st.integers(1, 3),
       N=st.integers(0, 6), max_entries=st.integers(0, 6),
       negative=st.booleans())
def test_truncate_matches_loop(seed, dim, N, max_entries, negative):
    family = random_family(seed, dim, N, max_entries, negative)
    try:
        ref = truncate_loop(family, N)
    except ModelError as exc:
        with pytest.raises(ModelError) as info:
            truncate(family, N)
        assert str(info.value) == str(exc)
        assert str(exc).startswith("negative target")
        return
    assert_same_model(truncate(family, N), ref)


def test_negative_target_names_the_first_offender():
    def entries(lab, act):
        (x,) = lab
        return [((x + 1,), 1.0), ([x - 2], 0.5)] if x >= 1 else [((1,), 1.0)]

    family = CountableFamily(dim=1, actions=lambda lab: [(0.0,), (1.0,)],
                             entries=entries, reward=lambda lab, act: 0.0)
    with pytest.raises(ModelError, match=r"^negative target \[-1\] from "
                                         r"\(1,\)$"):
        truncate(family, 4)


BENCHMARK_INSTANCES = [
    ("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3, "p": 2.0,
                     "N": 2000, "G": 11}),
    ("tandem", {"N": 60, "G": 2}),
    ("birth_death", {"lambda": 1, "mu1": 3, "mu2": 4, "p1": 0.3, "p": 2.0,
                     "N": 500, "G": 11}),
    ("tandem", {"N": 40, "G": 2}),
    ("skip_free", {"lambda": 1, "mu": 2, "b": 1.0, "beta": 2.0, "N": 30,
                   "G": 5}),
    ("mmn0", {"lambda": 1, "mu1": 1.5, "mu2": 3, "N": 7, "G": 3}),
]


@pytest.mark.parametrize("name, params", BENCHMARK_INSTANCES,
                         ids=["bd2000", "tandem60", "bd500", "tandem40",
                              "skip30", "mmn7"])
def test_builtin_instances_match_loop(monkeypatch, name, params):
    new = families.build(name, params)
    monkeypatch.setattr(families, "truncate", truncate_loop)
    assert_same_model(new, families.build(name, params))
