"""The orbit stream is generated chunk by chunk, and its consumers fold it in batches.

:func:`repro.pipeline.family_stream` pulls a space's constructive orbits one
:data:`repro.pipeline.DEFAULT_BATCH_SIZE` chunk at a time, so a survey holds
O(batch) orbits.  This suite pins

* laziness: one ``next()`` generates at most one chunk;
* identity with the one-call front (``constructive_quotient(space)``) on
  spaces that span chunk boundaries — indices, values, patterns, sizes and
  hashes;
* the shape-cached vectors: a vector that fails the hoisted check raises
  the constructor's ``ValueError`` (generated vectors always have ``n``
  entries, so the negative-value check is the one a shape can fail);
* the batched multi-protocol consumers (``compare_protocols``,
  ``last_decider_compare``, ``collect``) against the ``Run`` oracles on a
  space larger than one batch.
"""

from __future__ import annotations

import pytest

from repro import oracles
from repro.adversaries import RestrictedSpace
from repro.adversaries.enumeration import checked_shape_vectors, constructive_quotient
from repro.analysis import ProtocolStatistics, collect
from repro.baselines import FloodMin
from repro.core import OptMin
from repro.model import Adversary, Context, FailurePattern, Run
from repro.pipeline import DEFAULT_BATCH_SIZE, family_stream
from repro.symmetry.constructive import CanonicalPatternNode
from repro.verification import (
    DominationReport,
    compare_protocols,
    last_decider_compare,
)
from repro.verification.domination import compare_last_decisions, compare_on_adversary

#: Spaces spanning chunk boundaries, with their orbit counts.
MULTI_CHUNK = [
    (RestrictedSpace(Context(n=5, t=2, k=2)), 18579),
    (RestrictedSpace(Context(n=5, t=3, k=2), max_crash_round=2), 45708),
]

#: The consumers' space: 10,659 orbits, two batches.
SPACE = RestrictedSpace(Context(n=5, t=2, k=2), max_crash_round=3)


def test_one_next_generates_at_most_one_chunk(monkeypatch):
    generated = []
    orbits = RestrictedSpace.orbits

    def counted(space):
        for orbit in orbits(space):
            generated.append(orbit)
            yield orbit

    monkeypatch.setattr(RestrictedSpace, "orbits", counted)
    space, total = MULTI_CHUNK[0]
    stream = family_stream(space)
    assert generated == []
    index, representative, weight = next(stream)
    assert index == 0
    assert len(generated) <= DEFAULT_BATCH_SIZE < total


@pytest.mark.parametrize("space, total", MULTI_CHUNK, ids=["n5t2", "n5t3mcr2"])
def test_stream_equals_the_one_call_front(space, total):
    representatives, weights, indices = constructive_quotient(space)
    assert len(representatives) == total > 2 * DEFAULT_BATCH_SIZE
    streamed = list(family_stream(space))
    assert [index for index, _adversary, _weight in streamed] == list(indices) == list(range(total))
    assert [weight for _index, _adversary, weight in streamed] == weights
    for (_index, adversary, _weight), expected in zip(streamed, representatives):
        assert adversary.values == expected.values
        assert adversary.pattern == expected.pattern
        assert hash(adversary) == hash(expected)
        assert adversary == Adversary(adversary.values, adversary.pattern)


# --------------------------------------------------------- the hoisted check
def test_negative_vector_raises_the_constructor_error():
    node = CanonicalPatternNode(2, (), ((0, 1),), ((0, 1),))
    with pytest.raises(ValueError) as expected:
        Adversary((-1, -1), FailurePattern(2))
    with pytest.raises(ValueError) as hoisted:
        checked_shape_vectors(node, (-1, 0))
    assert str(hoisted.value) == str(expected.value)


# ------------------------------------------------------- batched consumers
@pytest.fixture(scope="module")
def oracle_runs():
    """``(index, adversary, weight, OptMin run, FloodMin run)`` off the one-call front."""
    return [
        (index, adversary, weight, Run(OptMin(2), adversary, 2), Run(FloodMin(2), adversary, 2))
        for index, adversary, weight in oracles.symmetry_stream(SPACE, "constructive")
    ]


def test_space_spans_two_batches(oracle_runs):
    assert DEFAULT_BATCH_SIZE < len(oracle_runs) == SPACE.orbit_count() < 2 * DEFAULT_BATCH_SIZE


@pytest.mark.parametrize(
    "survey, compare, suffix",
    [
        (compare_protocols, compare_on_adversary, ""),
        (last_decider_compare, compare_last_decisions, " [last-decider]"),
    ],
    ids=["compare_protocols", "last_decider_compare"],
)
def test_domination_equals_the_run_oracle(oracle_runs, survey, compare, suffix):
    expected = DominationReport(candidate=OptMin(2).name + suffix, reference=FloodMin(2).name + suffix)
    for index, _adversary, weight, optmin_run, floodmin_run in oracle_runs:
        compare(optmin_run, floodmin_run, index, expected, weight)
    assert survey(OptMin(2), FloodMin(2), SPACE, 2) == expected
    assert expected.improvements


def test_collect_equals_the_run_oracle(oracle_runs):
    def bound_for(_protocol, adversary):
        return adversary.num_failures // 2 + 1

    stats = collect([OptMin(2), FloodMin(2)], SPACE, 2, bound_for=bound_for)
    assert list(stats) == [OptMin(2).name, FloodMin(2).name]
    for position, name in ((3, OptMin(2).name), (4, FloodMin(2).name)):
        expected = ProtocolStatistics(protocol=name)
        for item in oracle_runs:
            last = item[position].last_decision_time(correct_only=True)
            expected.record(last, bound_for(None, item[1]), weight=item[2])
        assert stats[name] == expected
        assert list(stats[name].histogram.items()) == list(expected.histogram.items())
