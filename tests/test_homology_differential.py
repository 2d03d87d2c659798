"""Differential harness for the sparse homology kernel.

The dimension-bounded bitset kernel of ``repro.topology.connectivity`` must
be *observationally identical* to the seed algorithm it replaced — the dense
full-face-lattice path kept as ``repro.oracles.dense_reduced_betti_numbers``
/ ``dense_connectivity_profile``.  This suite pins the two on the workload
Proposition 2 actually runs: the exhaustive n=4, t=2 restricted family
("at most k=2 crashes per round"), whole protocol complexes and the star
complex of **every** vertex, Betti numbers and connectivity profiles alike.

The batch-built knowledge ``System`` rides the same contract:
``System.from_family`` must answer every Definition 4
query exactly like the seed eager-``Run`` system.
"""

from __future__ import annotations

import pytest

from repro import oracles
from repro.oracles import dense_connectivity_profile, dense_reduced_betti_numbers
from repro.adversaries import enumerate_adversaries
from repro.core import OptMin
from repro.knowledge import (
    System,
    at_most_low_values_decided,
    exists_value,
    no_correct_process_decides,
    value_persists,
)
from repro.model import Adversary, Context
from repro.topology import (
    build_restricted_complex,
    connectivity_profile,
    reduced_betti_numbers,
)
from repro.topology.protocol_complex import per_round_crash_patterns

#: ``(reduced_betti_numbers, connectivity_profile)`` of the kernel and its oracles.
HOMOLOGY = {"packed": (reduced_betti_numbers, connectivity_profile), **oracles.HOMOLOGY_ORACLES}


CONTEXT = Context(n=4, t=2, k=2)


@pytest.fixture(scope="module", params=[1, 2])
def protocol_complex(request):
    return build_restricted_complex(CONTEXT, time=request.param)


class TestSparseKernelMatchesSeedHomology:
    """Sparse == dense on the exhaustive n=4, t=2 star family."""

    def test_whole_complex_betti_numbers(self, protocol_complex):
        complex_ = protocol_complex.complex
        assert reduced_betti_numbers(complex_) == dense_reduced_betti_numbers(complex_)

    def test_every_star_betti_and_profile(self, protocol_complex):
        complex_ = protocol_complex.complex
        checked = 0
        for vertex in complex_.vertices:
            star = complex_.star(vertex)
            assert reduced_betti_numbers(star) == dense_reduced_betti_numbers(star)
            assert connectivity_profile(star) == dense_connectivity_profile(star)
            # The Proposition 2 question itself: the (k-1)-connectivity probe.
            assert connectivity_profile(star, max_q=CONTEXT.k - 1) == (
                dense_connectivity_profile(star, max_q=CONTEXT.k - 1)
            )
            checked += 1
        assert checked == len(complex_.vertices)

    def test_truncated_betti_on_stars(self, protocol_complex):
        complex_ = protocol_complex.complex
        for vertex in sorted(complex_.vertices, key=repr)[:25]:
            star = complex_.star(vertex)
            for q in range(star.dimension + 1):
                assert reduced_betti_numbers(star, max_dimension=q) == (
                    dense_reduced_betti_numbers(star, max_dimension=q)
                )


class TestPackedBackendMatchesSeedHomology:
    """Packed == dense (and == bigint), explicitly, on the same star family.

    ``reduced_betti_numbers`` / ``connectivity_profile`` are the packed
    kernel, so the class above already exercises it; this class pins it and
    the shortcut-free ``bigint`` oracle to the dense one *by name*.
    """

    def test_every_star_packed_equals_oracles(self, protocol_complex):
        complex_ = protocol_complex.complex
        checked = 0
        for vertex in complex_.vertices:
            star = complex_.star(vertex)
            dense_betti = dense_reduced_betti_numbers(star)
            dense_profile = dense_connectivity_profile(star)
            for backend in ("packed", "bigint"):
                betti, profile = HOMOLOGY[backend]
                assert betti(star) == dense_betti
                assert profile(star) == dense_profile
                assert profile(star, max_q=CONTEXT.k - 1) == (
                    dense_connectivity_profile(star, max_q=CONTEXT.k - 1)
                )
            checked += 1
        assert checked == len(complex_.vertices)

    def test_whole_complex_packed_equals_dense(self, protocol_complex):
        complex_ = protocol_complex.complex
        assert reduced_betti_numbers(complex_) == (
            dense_reduced_betti_numbers(complex_)
        )

    def test_census_rows_identical_across_backends(self, protocol_complex):
        from repro.topology import capacity_connectivity_census

        rows = {
            backend: oracles.capacity_connectivity_census(
                protocol_complex, CONTEXT.k, homology=backend
            ).row
            for backend in ("bigint", "dense")
        }
        rows["packed"] = capacity_connectivity_census(protocol_complex, CONTEXT.k).row
        assert rows["packed"] == rows["bigint"] == rows["dense"]


class TestBatchSystemMatchesReference:
    """System.from_family == the seed eager-Run system (the oracle fixture)."""

    @pytest.fixture(scope="class")
    def systems(self):
        context = Context(n=3, t=1, k=1, max_value=1)
        adversaries = list(
            enumerate_adversaries(context, max_crash_round=2, receiver_policy="canonical")
        )
        from repro.core import Opt0

        reference = oracles.system_from_family(Opt0(), adversaries, context.t)
        batch = System.from_family(Opt0(), adversaries, context.t)
        return reference, batch, context

    def test_local_state_index_identical(self, systems):
        reference, batch, _ = systems
        assert reference._index == batch._index

    def test_runs_align(self, systems):
        reference, batch, _ = systems
        assert len(reference.runs) == len(batch.runs)
        for ref_run, batch_run in zip(reference.runs, batch.runs):
            assert ref_run.adversary == batch_run.adversary
            assert ref_run.decisions() == batch_run.decisions()
            for time in range(ref_run.horizon + 1):
                for process in range(ref_run.n):
                    assert ref_run.has_view(process, time) == batch_run.has_view(
                        process, time
                    )

    def test_knowledge_queries_agree(self, systems):
        reference, batch, _ = systems
        facts = [
            exists_value(0),
            exists_value(1),
            no_correct_process_decides(0),
            at_most_low_values_decided(1),
            value_persists(0),  # consumes views: exercises the lazy oracle
        ]
        compared = 0
        for ref_run, batch_run in zip(reference.runs, batch.runs):
            for time in (0, 1):
                for process in range(ref_run.n):
                    if not ref_run.has_view(process, time):
                        continue
                    for fact in facts:
                        assert reference.knows(fact, ref_run, process, time) == (
                            batch.knows(fact, batch_run, process, time)
                        )
                    compared += 1
        assert compared > 100

    def test_oracle_is_lazy_and_memoised(self, systems):
        _, batch, context = systems
        cache = batch.runs[0]._cache
        baseline = cache.misses
        run = batch.runs[0]
        run.view(0, 1)
        run.views_at(1)
        run.has_view(1, 0)
        # Three lookups against one adversary: at most one new simulation.
        assert cache.misses <= baseline + 1

    def test_batch_system_rejects_empty_family(self):
        with pytest.raises(ValueError):
            System.from_family(OptMin(2), [], 2)

    def test_batch_system_over_restricted_family(self):
        """The Definition 4 path over the Prop2 family: one sweep, no eager runs."""
        adversaries = [
            Adversary([CONTEXT.k] * CONTEXT.n, pattern)
            for pattern in per_round_crash_patterns(CONTEXT.n, 2, CONTEXT.k)
            if pattern.num_failures <= CONTEXT.t
        ]
        protocol = OptMin(CONTEXT.k)
        batch = System.from_family(protocol, adversaries, CONTEXT.t)
        reference = oracles.system_from_family(protocol, adversaries, CONTEXT.t)
        assert batch._index == reference._index
        fact = at_most_low_values_decided(CONTEXT.k)
        for index in (0, len(adversaries) // 2, len(adversaries) - 1):
            ref_run, batch_run = reference.runs[index], batch.runs[index]
            for decision in ref_run.decisions():
                assert reference.knows(fact, ref_run, decision.process, decision.time) == (
                    batch.knows(fact, batch_run, decision.process, decision.time)
                )
