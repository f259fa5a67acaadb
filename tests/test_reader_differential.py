"""Differential tests: the explicit model reader against the field-by-field
reference `explicit_model_loop` in oracles.py. On valid documents (int
rates, integral-float x and a, omitted and explicit diagonals, shuffled
and repeated records, -0.0 rates) the two must build byte-identical
models; on malformed ones they must raise the same error. The writer
`model_to_dict` must serialize to the same bytes as the pair-by-pair
reference `model_to_dict_loop`."""

import copy
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmdp import build, dumps, model_from_dict, model_to_dict, modelio
from oracles import explicit_model_loop, model_to_dict_loop
from test_malformed_input import EXPLICIT, VALID, mutated_model

GOLDEN = Path(__file__).parent / "golden"

RATES = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 0.5, 1.5, 1e-3, 2.0,
                         1, 2, 0])
NUMBERS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.5, 1, 0, 3])


def integral(draw, value):
    """An int of the document as is, or as the equal float."""
    return float(value) if draw(st.booleans()) else value


@st.composite
def explicit_docs(draw):
    n = draw(st.integers(1, 6))
    actions = [[[draw(NUMBERS), float(a)] for a in range(draw(
        st.integers(1, 3)))] for _ in range(n)]
    rates, rewards = [], []
    for x, acts in enumerate(actions):
        for a in range(len(acts)):
            targets = draw(st.lists(st.integers(0, n - 1), unique=True,
                                    max_size=n))
            for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
                # an earlier record of the pair is replaced by the last
                entries = [[integral(draw, y), draw(RATES)] for y in targets]
                rates.append({"x": integral(draw, x), "a": integral(draw, a),
                              "entries": entries})
            rewards.append({"x": x, "a": integral(draw, a),
                            "r": draw(NUMBERS)})
    order = random.Random(draw(st.integers(0, 2**32 - 1)))
    order.shuffle(rates)
    order.shuffle(rewards)
    doc = {"kind": "explicit", "states": n, "actions": actions,
           "rates": rates, "rewards": rewards}
    if draw(st.booleans()):
        doc["labels"] = draw(st.sampled_from([
            list(range(n)), [[x, 2 * x] for x in range(n)]]))
    if draw(st.booleans()):
        wprime = draw(st.booleans())
        doc["lyapunov"] = {
            "w": [draw(st.sampled_from([1, 1.0, 2.5])) for _ in range(n)],
            "c": 1, "b": 0.5, "M": 2.0, "Mq": 3,
            "wprime": [0.0] * n if wprime else None,
            "cprime": 1.0 if wprime else None,
            "bprime": 0 if wprime else None,
            "Mprime": 2.0 if wprime else None}
    return doc


def contents(m):
    """Every stored value of a model, floats as bytes (so -0.0 counts)."""
    lyap = m.lyapunov
    return (m.kernel.indptr.tobytes(), m.kernel.indices.tobytes(),
            m.kernel.data.tobytes(), m.kernel.counts.tobytes(),
            m.r.tobytes(),
            m.actions.shape, m.actions.tobytes(),
            m.labels,
            None if lyap is None else (
                lyap.w.tobytes(),
                None if lyap.wprime is None else lyap.wprime.tobytes(),
                repr((lyap.c, lyap.b, lyap.M, lyap.M_q, lyap.cprime,
                      lyap.bprime, lyap.Mprime))))


def outcome(read, doc, fresh=True):
    """The model `read` builds from a copy of `doc` (from `doc` itself if
    not `fresh`: neither reader writes to its document), or its error."""
    try:
        return contents(read(copy.deepcopy(doc) if fresh else doc))
    except Exception as exc:       # compared as type and message
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(explicit_docs())
def test_reader_matches_loop_on_valid_documents(doc):
    expected = outcome(explicit_model_loop, doc)
    assert not isinstance(expected[0], type), expected
    assert outcome(model_from_dict, doc) == expected


@settings(max_examples=100, deadline=None)
@given(explicit_docs())
def test_writer_matches_loop_on_valid_documents(doc):
    m = model_from_dict(doc)
    assert dumps(model_to_dict(m)) == dumps(model_to_dict_loop(m))


@pytest.mark.parametrize("source", ["birth_death", "skip_free", "tandem",
                                    "mmn0", "explicit_model.json",
                                    "multichain_model.json"])
def test_writer_matches_loop(source):
    if source in VALID:
        m = build(source, VALID[source])
    else:
        m = model_from_dict(json.loads((GOLDEN / source).read_text()))
    assert dumps(model_to_dict(m)) == dumps(model_to_dict_loop(m))


@settings(max_examples=200, deadline=None)
@given(mutated_model())
def test_reader_matches_loop_on_malformed_documents(case):
    doc, _ = case
    expected = outcome(explicit_model_loop, doc)
    assert isinstance(expected[0], type), doc
    assert outcome(model_from_dict, doc) == expected


def test_out_of_range_target_does_not_collide_with_another_pair():
    # rate row (0, 0) of 4 states aiming at 9 sorts like (1, 0) aiming at 1
    # under a (pair, target) key pair * 4 + target
    doc = copy.deepcopy(EXPLICIT)
    doc["rates"][1]["entries"] = [[9, 1.0]]
    assert outcome(model_from_dict, doc) == outcome(explicit_model_loop, doc)
    with pytest.raises(ValueError, match="rate target out of range at"):
        model_from_dict(doc)


@pytest.mark.parametrize("entries, expect", [
    ([[1, 2.0], ["a", 1.0], [1, 3.0]], "rates[1].entries[1][0] must be"),
    ([[1, 2.0], [1, 3.0], ["a", 1.0]], "duplicate target 1 at rates[1]"),
    ([[1, 2.0], [2, 1]], None),
    ([[1.0, 2.0], [2, 1.5]], None),
])
def test_reader_errors_in_entry_order(entries, expect):
    doc = copy.deepcopy(EXPLICIT)
    doc["rates"][1]["entries"] = entries
    got = outcome(model_from_dict, doc)
    assert got == outcome(explicit_model_loop, doc)
    assert (expect is None) == (not isinstance(got[0], type))
    assert expect is None or expect in got[1]


# -- documents of the benchmark's size ----------------------------------------

def benchmark_document(seed: int, n: int = 3000) -> dict:
    """An explicit model of the shape the benchmark reads: 3 actions per
    state, 1-8 distinct random targets per row, rates in [0.1, 2),
    rewards in [-1, 1), Lyapunov data with w = 1."""
    rng = np.random.default_rng(seed)
    rates, rewards, max_exit = [], [], 0.0
    for x in range(n):
        for a in range(3):
            ys = rng.choice(n - 1, size=int(rng.integers(1, 9)),
                            replace=False)
            ys = np.where(ys >= x, ys + 1, ys)
            rs = rng.uniform(0.1, 2.0, size=len(ys))
            max_exit = max(max_exit, float(rs.sum()))
            rates.append({"x": x, "a": a, "entries": [
                [int(y), float(r)] for y, r in zip(ys, rs)]})
            rewards.append({"x": x, "a": a,
                            "r": float(rng.uniform(-1.0, 1.0))})
    return {"kind": "explicit", "states": n,
            "actions": [[[0.0], [1.0], [2.0]] for _ in range(n)],
            "rates": rates, "rewards": rewards,
            "lyapunov": {"w": [1.0] * n, "c": 1.0, "b": 1.0, "M": 1.0,
                         "Mq": max_exit + 1.0}}


@pytest.fixture(scope="module")
def large():
    return benchmark_document(2024)


def copy_of(doc: dict) -> dict:
    """A copy of `doc` whose tables are new lists of the same records, so
    that `record` can replace one without touching `doc`."""
    return {**doc, "rates": list(doc["rates"]),
            "rewards": list(doc["rewards"])}


def record(doc: dict, table: str, i: int) -> dict:
    """doc[table][i], made a copy of its own (see `copy_of`)."""
    rec = doc[table][i] = copy.deepcopy(doc[table][i])
    return rec


def convertible(doc: dict) -> dict:
    """A copy of `doc` with records that convert but are not exact: an int
    rate, an integral-float x and a, an int reward, and a repeated (x, a)
    record (the later one, whose rates differ, replaces the earlier)."""
    doc = copy_of(doc)
    record(doc, "rates", 10)["entries"][0][1] = 1
    rec = record(doc, "rates", 40)
    rec["x"] = float(rec["x"])
    rec = record(doc, "rates", 41)
    rec["a"] = float(rec["a"])
    record(doc, "rewards", 12)["r"] = -1
    again = copy.deepcopy(doc["rates"][300])
    for entry in again["entries"]:
        entry[1] = entry[1] / 3.0
    doc["rates"].insert(8000, again)
    return doc


def loosened(doc: dict) -> dict:
    """A copy of `doc` with every x a float and the first rate of every
    rate record rounded up to an int (1 or 2), so that no record is exact
    and each converts."""
    doc = copy.deepcopy(doc)
    for rec in doc["rates"] + doc["rewards"]:
        rec["x"] = float(rec["x"])
    for rec in doc["rates"]:
        rec["entries"][0][1] = math.ceil(rec["entries"][0][1])
    return doc


def same_outcome(doc: dict):
    """The loop's outcome on `doc`, after checking the reader's equals it."""
    expected = outcome(explicit_model_loop, doc, fresh=False)
    assert outcome(model_from_dict, doc, fresh=False) == expected
    return expected


def test_reader_matches_loop_on_a_benchmark_sized_document(large):
    exact = same_outcome(large)
    assert not isinstance(exact[0], type), exact
    converted = same_outcome(convertible(large))
    assert not isinstance(converted[0], type), converted
    assert converted != exact         # the repeated record took over
    loose = same_outcome(loosened(large))
    assert not isinstance(loose[0], type), loose
    assert loose != exact             # the rounded rates


@pytest.mark.parametrize("make", [lambda d: d, convertible, loosened],
                         ids=["exact", "convertible", "loosened"])
def test_reader_checks_no_record_on_its_own_when_all_convert(large, make,
                                                             monkeypatch):
    # the per-record checks run only on the way to a fault; a document
    # whose values all convert is read in bulk
    calls = []
    for name in ("_rate_record", "_reward_record"):
        monkeypatch.setattr(modelio, name, lambda *a: calls.append(a))
    model_from_dict(make(large))
    assert calls == []


def test_target_beyond_int64_in_a_replaced_record_is_read(large):
    # the record that names 2**70 is replaced by a later one of its pair,
    # so no kernel row holds it
    doc = copy_of(large)
    again = copy.deepcopy(doc["rates"][300])
    set_field(doc, "rates", 300, "entries", 0, 0, value=2 ** 70)
    doc["rates"].append(again)
    assert same_outcome(doc) == same_outcome(large)


def repeat_target(doc: dict, i: int) -> None:
    """Make the second entry of rates[i] repeat the target of its first."""
    entries = record(doc, "rates", i)["entries"]
    if len(entries) < 2:
        entries.append([0, 0.5])
    entries[1][0] = entries[0][0]


def repeat_two_targets(doc: dict, i: int) -> None:
    """Give rates[i] the targets y, z, z, y in this order: its first repeat
    is z, the target it repeats first, though y sorts first."""
    entries = record(doc, "rates", i)["entries"]
    y, z = sorted({entries[0][0], (entries[0][0] + 1) % 3000})[::-1]
    entries[:] = [[y, 0.5], [z, 0.25], [z, 1.5], [y, 2.0]]


def set_field(doc, table, i, *path, value):
    host = record(doc, table, i)
    for key in path[:-1]:
        host = host[key]
    host[path[-1]] = value


# faults placed late in the document, one or two, in this order
LATE_FAULTS = {
    "duplicate_target": [lambda d: repeat_target(d, 8990)],
    "target_type": [lambda d: set_field(d, "rates", 8990, "entries", 0, 0,
                                        value="7")],
    "rate_type": [lambda d: set_field(d, "rates", 8990, "entries", 0, 1,
                                      value=True)],
    "not_a_pair": [lambda d: set_field(d, "rates", 8990, "entries", 0,
                                       value=[1, 2.0, 3])],
    "x_out_of_range": [lambda d: set_field(d, "rates", 8990, "x",
                                           value=3000)],
    "x_beyond_int64": [lambda d: set_field(d, "rates", 8990, "x",
                                           value=2 ** 70)],
    "target_beyond_int64": [lambda d: set_field(d, "rates", 8990, "entries",
                                                0, 0, value=2 ** 70)],
    "target_1e300": [lambda d: set_field(d, "rates", 8990, "entries", 0, 0,
                                         value=1e300)],
    "target_beyond_int64_then_type": [
        lambda d: set_field(d, "rates", 8990, "entries", 0, 0,
                            value=-2 ** 70),
        lambda d: set_field(d, "rewards", 8995, "r", value="0.5")],
    "a_fraction": [lambda d: set_field(d, "rates", 8990, "a", value=1.5)],
    "a_negative": [lambda d: set_field(d, "rates", 8990, "a", value=-1)],
    "x_negative": [lambda d: set_field(d, "rewards", 8990, "x", value=-1)],
    "two_repeats_in_a_record": [lambda d: repeat_two_targets(d, 8990)],
    "repeats_in_two_records": [lambda d: repeat_target(d, 8995),
                               lambda d: repeat_target(d, 8990)],
    "missing_entries": [lambda d: record(d, "rates", 8990).pop("entries")],
    "missing_row": [lambda d: d["rates"].pop(8990)],
    "reward_type": [lambda d: set_field(d, "rewards", 8990, "r",
                                        value="0.5")],
    "missing_reward": [lambda d: d["rewards"].pop(8990)],
    "range_then_duplicate": [
        lambda d: set_field(d, "rates", 8990, "a", value=3),
        lambda d: repeat_target(d, 8995)],
    "duplicate_then_type": [
        lambda d: repeat_target(d, 8990),
        lambda d: set_field(d, "rates", 8995, "x", value="7")],
    "type_then_duplicate": [
        lambda d: set_field(d, "rates", 8990, "x", value="7"),
        lambda d: repeat_target(d, 8995)],
}


@pytest.mark.parametrize("fault", sorted(LATE_FAULTS))
def test_reader_matches_loop_on_late_faults(large, fault):
    # an earlier record converts (an int rate at rates[10]), so the reader
    # takes its per-record path before the fault is reached; then the same
    # faults with every earlier record exact
    for doc in (convertible(large), copy_of(large)):
        for make in LATE_FAULTS[fault]:
            make(doc)
        assert isinstance(same_outcome(doc)[0], type), fault
