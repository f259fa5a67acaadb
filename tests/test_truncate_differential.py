"""Differential tests: the array `truncate` against the per-entry loop
`oracles.truncate_loop`, on random countable families (dim 1-3, N 0-6,
duplicate targets, targets beyond N and clamped onto the source, rows
without off-diagonal mass, absent slots holding negative targets and
non-finite rates, negative targets) and on the builtins, against their
scalar references in `oracles`. The kernels must agree byte for byte,
signs of zero included, and so must rewards, actions, labels and Lyapunov
data; a negative target must raise the same error in both.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctmdp import families
from ctmdp.model import CountableFamily, LyapunovData, ModelError, truncate
from oracles import ScalarFamily, build_loop, truncate_loop

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

NAN, INF = float("nan"), float("inf")
RATES = [0.0, -0.0, 0.5, 1.0, 2.5, 3.0, 0.1, 1.0 / 3.0, 1e-17, -1.0, -0.5,
         NAN, INF, -INF]
RATE_TYPES = [float, np.float64, np.float32]
TARGET_TYPES = [tuple, list, lambda t: tuple(np.int64(c) for c in t)]
TARGET_KINDS = ["near", "beyond", "onto_source", "repeat", "anywhere"]


def random_row(r: random.Random, lab: tuple, N: int, max_entries: int,
               negative: bool) -> list:
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
        t[r.randrange(len(lab))] = -r.randint(1, 3)
        out.insert(r.randint(0, len(out)), (r.choice(TARGET_TYPES)(t), 1.0))
    return out


def random_family(seed: int, dim: int, N: int, max_entries: int,
                  negative: bool) -> tuple:
    """One drawn table of actions, raw rows and rewards, as the array
    family `truncate` takes and as the scalar family `truncate_loop` takes.
    The array form spreads each row over more slots than it has entries
    and fills the absent slots with negative targets and non-finite
    rates."""
    r = random.Random(seed)
    acts_of, rows, rewards = {}, {}, {}
    for lab in itertools.product(range(N + 1), repeat=dim):
        kind = r.choice([float, np.float64])
        acts_of[lab] = [(kind(v), kind(v / 2))
                        for v in r.sample(range(5), r.randint(1, 3))]
        for act in acts_of[lab]:
            key = (lab, tuple(map(float, act)))
            rows[key] = random_row(r, lab, N, max_entries, negative)
            rewards[key] = r.choice([float, np.float64])(
                sum(lab) * act[0] - act[1])

    def keys(X, A):
        return list(zip(map(tuple, X.tolist()), map(tuple, A.tolist())))

    def entries(X, A):
        pad = random.Random(f"{seed}/{len(X)}")
        K = max(len(rows[key]) for key in keys(X, A)) + pad.randint(0, 2)
        targets = np.array([[[pad.randint(-3, N + 3) for _ in range(dim)]
                             for _ in range(K)] for _ in range(len(X))],
                           dtype=np.int64).reshape(len(X), K, dim)
        rates = np.array([[pad.choice(RATES) for _ in range(K)]
                          for _ in range(len(X))]).reshape(len(X), K)
        present = np.zeros((len(X), K), dtype=bool)
        for p, key in enumerate(keys(X, A)):
            slots = sorted(pad.sample(range(K), len(rows[key])))
            for k, (t, rate) in zip(slots, rows[key]):
                targets[p, k], rates[p, k], present[p, k] = t, rate, True
        return targets, rates, present

    def lyapunov(labels):
        return LyapunovData(w=np.array([1.0 + sum(lab) for lab in labels]),
                            c=1.0, b=0.0, M=1.0, M_q=1.0)

    return (CountableFamily(dim=dim, actions=acts_of.__getitem__,
                            entries=entries, lyapunov=lyapunov,
                            reward=lambda X, A: np.array(
                                [rewards[key] for key in keys(X, A)])),
            ScalarFamily(dim=dim, actions=acts_of.__getitem__,
                         entries=lambda lab, act: rows[
                             (lab, tuple(map(float, act)))],
                         reward=lambda lab, act: rewards[
                             (lab, tuple(map(float, act)))],
                         lyapunov=lyapunov))


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
    assert canonical_bytes(new.r) == canonical_bytes(ref.r)
    assert new.actions.shape == ref.actions.shape
    assert new.actions.tobytes() == ref.actions.tobytes()
    assert (new.labels, new.truncation_level) == \
        (ref.labels, ref.truncation_level)
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
    family, scalar = random_family(seed, dim, N, max_entries, negative)
    try:
        ref = truncate_loop(scalar, N)
    except ModelError as exc:
        with pytest.raises(ModelError) as info:
            truncate(family, N)
        assert str(info.value) == str(exc)
        assert str(exc).startswith("negative target")
        return
    assert_same_model(truncate(family, N), ref)


def test_negative_target_names_the_first_offender():
    def entries(X, A):
        x = X[:, 0]
        return (np.stack([x + 1, x - 2], axis=1)[:, :, None],
                np.tile([1.0, 0.5], (len(x), 1)),
                np.stack([x >= 0, x >= 1], axis=1))

    family = CountableFamily(dim=1, actions=lambda lab: [(0.0,), (1.0,)],
                             entries=entries,
                             reward=lambda X, A: np.zeros(len(X)))
    with pytest.raises(ModelError, match=r"^negative target \(-1,\) from "
                                         r"\(1,\)$"):
        truncate(family, 4)


@pytest.mark.parametrize("actions, message", [
    # a width that changes from one state to the next ...
    (lambda lab: [(0.0,)] if lab[0] < 2 else [(0.0, 1.0)],
     r"^state \(2,\): every action must have length 1, as the first$"),
    # ... or within one state
    (lambda lab: [(0.0,), (1.0, 0.0)] if lab[0] == 3 else [(0.0,)],
     r"^state \(3,\): every action must have length 1")],
    ids=["across_states", "within_a_state"])
def test_actions_of_differing_lengths_name_the_first_odd_state(actions,
                                                               message):
    # numpy's concatenation used to fail with a ValueError
    family = CountableFamily(
        dim=1, actions=actions,
        entries=lambda X, A: (np.zeros((len(X), 0, 1)), np.zeros((len(X), 0)),
                              np.zeros((len(X), 0), dtype=bool)),
        reward=lambda X, A: np.zeros(len(X)))
    with pytest.raises(ModelError, match=message):
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
def test_builtin_instances_match_loop(name, params):
    assert_same_model(families.build(name, params), build_loop(name, params))


HUGE = 1e308     # overflows to inf in the rates, and inf * 0 to NaN
POSITIVE = st.sampled_from([0.5, 1.0, 2.0, 3.5, HUGE]) | st.floats(0.01, 20)
SIGNED = st.sampled_from([0.0, -0.0, 1.0, -2.0]) | st.floats(-20, 20)
# the linear-Lyapunov families refuse a reward bound p + ... <= 0
REWARD = st.sampled_from([0.0, 2.0]) | st.floats(0, 20) | SIGNED


@st.composite
def builtin_params(draw):
    """(name, params) of a truncated builtin, in range, covering p1 = 0,
    G = 1, every rc kind, gamma2 at 0 and 1 (skip_free's x = 0, a1 = 0 row
    has no up-rate at every G), tandem holding costs capped below 2N, and
    rates that overflow."""
    name = draw(st.sampled_from(["birth_death", "skip_free", "tandem",
                                 "mmn0"]))
    s = {"N": draw(st.integers(3, 9)), "G": draw(st.integers(1, 4))}

    def above(lo):
        return float(max(lo + draw(POSITIVE), np.nextafter(lo, INF)))

    lo = draw(POSITIVE)
    hi = above(lo)
    if name == "birth_death":
        s.update({"lambda": draw(POSITIVE), "mu1": lo, "mu2": hi,
                  "p1": draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1)),
                  "p": draw(REWARD),
                  "rc": {"kind": draw(st.sampled_from(families.RC_KINDS)),
                         "kappa": draw(REWARD)}})
    elif name == "skip_free":
        s.update({"lambda": draw(POSITIVE), "mu": draw(POSITIVE), "b": lo,
                  "beta": hi, "tau": draw(SIGNED), "p": draw(SIGNED),
                  "q1": draw(SIGNED), "q2": draw(SIGNED),
                  "kappa_c": draw(SIGNED)})
        gamma2 = draw(st.sampled_from([0.0, 1.0, None]) | st.floats(0, 1))
        if gamma2 is not None:
            s["gamma2"] = gamma2
    elif name == "tandem":
        s.update({"mu1": 3.0 + lo, "mu1star": above(3.0 + lo),
                  "mu2": 2.0 + lo, "mu2star": above(2.0 + lo),
                  "N": s["N"] - 1, "G": min(s["G"], 3)})
        if draw(st.booleans()):
            s["reward"] = {"kind": "throughput", "c1": draw(SIGNED),
                           "c2": draw(SIGNED)}
        else:
            s["reward"] = {"kind": "holding_bounded", "cap": draw(
                st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(-3, 2 * s["N"]))}
    else:
        s.update({"lambda": draw(POSITIVE), "mu1": lo, "mu2": hi,
                  "reward": {"p": draw(REWARD), "kappa": draw(REWARD)}})
    return name, s


@settings(max_examples=150, deadline=None)
@given(builtin_params())
@example(("birth_death", {"lambda": 1.0, "mu1": 3.0, "mu2": 4.0, "p1": 0.0,
                          "rc": {"kind": "quadratic", "kappa": 0.5},
                          "N": 6, "G": 1}))
@example(("skip_free", {"lambda": 1.0, "mu": 2.0, "b": 1.0, "beta": 2.0,
                        "gamma2": 0.0, "N": 6, "G": 3}))
@example(("skip_free", {"lambda": 1.0, "mu": 2.0, "b": 1.0, "beta": HUGE,
                        "gamma2": 1.0, "kappa_c": 0.5, "N": 6, "G": 2}))
@example(("tandem", {"N": 5, "G": 2, "reward": {"kind": "holding_bounded",
                                                "cap": 3.5}}))
@example(("tandem", {"N": 5, "G": 1, "reward": {"kind": "holding_bounded",
                                                "cap": -0.0}}))
def test_builtin_array_builds_match_scalar_references(case):
    name, params = case
    try:
        ref = build_loop(name, params)
    except ModelError as exc:    # e.g. Lyapunov constants that overflowed
        with pytest.raises(ModelError) as info:
            families.build(name, params)
        assert str(info.value) == str(exc)
        return
    assert_same_model(families.build(name, params), ref)
