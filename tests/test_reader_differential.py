"""Differential tests: the explicit model reader against the field-by-field
reference `explicit_model_loop` in oracles.py. On valid documents (int
rates, integral-float x and a, omitted and explicit diagonals, shuffled
and repeated records, -0.0 rates) the two must build byte-identical
models; on malformed ones they must raise the same error. The writer
`model_to_dict` must serialize to the same bytes as the pair-by-pair
reference `model_to_dict_loop`."""

import copy
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmdp import build, dumps, model_from_dict, model_to_dict
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


def outcome(read, doc):
    try:
        return contents(read(copy.deepcopy(doc)))
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
