"""Unit tests for protocol complexes, star complexes and Proposition 2."""

import pytest

from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run
from repro.topology import (
    build_protocol_complex,
    build_restricted_complex,
    is_homologically_q_connected,
    per_round_crash_patterns,
)


@pytest.fixture(scope="module")
def consensus_complex():
    """One-round protocol complex, n=4, at most one crash per round."""
    context = Context(n=4, t=2, k=1)
    return context, build_restricted_complex(context, time=1, max_crashes_per_round=1)


@pytest.fixture(scope="module")
def kset_complex():
    """One-round protocol complex, n=5, at most two crashes per round."""
    context = Context(n=5, t=4, k=2)
    return context, build_restricted_complex(context, time=1, max_crashes_per_round=2)


class TestPatternEnumeration:
    def test_per_round_crash_counts_respected(self):
        patterns = list(per_round_crash_patterns(4, rounds=2, max_crashes_per_round=1, receiver_policy="none"))
        for pattern in patterns:
            for round_ in (1, 2):
                assert len(pattern.crashes_in_round(round_)) <= 1

    def test_includes_failure_free_pattern(self):
        patterns = list(per_round_crash_patterns(3, rounds=1, max_crashes_per_round=1, receiver_policy="none"))
        assert any(p.num_failures == 0 for p in patterns)

    def test_crashed_process_does_not_crash_again(self):
        patterns = list(per_round_crash_patterns(3, rounds=2, max_crashes_per_round=1, receiver_policy="none"))
        for pattern in patterns:
            assert len({e.process for e in pattern.crashes}) == pattern.num_failures


class TestProtocolComplexStructure:
    def test_whole_complex_is_connected(self, consensus_complex):
        _, pc = consensus_complex
        assert is_homologically_q_connected(pc.complex, 0)

    def test_facets_correspond_to_executions(self, consensus_complex):
        context, pc = consensus_complex
        # A facet of full dimension n-1 exists (the failure-free execution).
        assert any(len(facet) == context.n for facet in pc.complex.facets)

    def test_vertices_are_process_view_pairs(self, consensus_complex):
        _, pc = consensus_complex
        processes = {vertex[0] for vertex in pc.complex.vertices}
        assert processes == {0, 1, 2, 3}

    def test_vertex_lookup_matches_run(self, consensus_complex):
        context, pc = consensus_complex
        adversary = Adversary([1] * context.n, FailurePattern.failure_free(context.n))
        vertex = pc.vertex_of(adversary, 0, context.t)
        assert vertex in pc.complex.vertices

    def test_build_from_explicit_adversaries(self):
        context = Context(n=3, t=1, k=1)
        adversaries = [
            Adversary([1, 1, 1], FailurePattern.failure_free(3)),
            Adversary([1, 1, 1], FailurePattern(3, [CrashEvent(0, 1, frozenset())])),
        ]
        pc = build_protocol_complex(adversaries, time=1, t=context.t)
        assert len(pc.complex.facets) == 2


class TestStarComplexes:
    def test_star_is_nonempty_and_connected(self, kset_complex):
        context, pc = kset_complex
        adversary = Adversary([2] * context.n, FailurePattern.failure_free(context.n))
        star = pc.star_of(adversary, 0, context.t)
        assert not star.is_empty()
        assert is_homologically_q_connected(star, 0)

    def test_star_contains_only_simplices_with_the_vertex(self, kset_complex):
        context, pc = kset_complex
        adversary = Adversary([2] * context.n, FailurePattern.failure_free(context.n))
        vertex = pc.vertex_of(adversary, 0, context.t)
        star = pc.star_of(adversary, 0, context.t)
        assert all(vertex in facet for facet in star.facets)


class TestProposition2:
    """Hidden capacity >= k in every round ⇒ (k-1)-connected star complex (homology proxy)."""

    def test_k2_capacity_implies_one_connected_star(self, kset_complex):
        context, pc = kset_complex
        # Two silent crashes in round 1 give the observer hidden capacity 2.
        adversary = Adversary(
            [2] * context.n,
            FailurePattern(context.n, [CrashEvent(1, 1, frozenset()), CrashEvent(2, 1, frozenset())]),
        )
        run = Run(None, adversary, context.t, horizon=1)
        assert run.view(0, 1).hidden_capacity() >= 2
        star = pc.star_of(adversary, 0, context.t)
        assert is_homologically_q_connected(star, 1)

    def test_k1_capacity_implies_connected_star(self, consensus_complex):
        context, pc = consensus_complex
        adversary = Adversary(
            [1] * context.n, FailurePattern(context.n, [CrashEvent(1, 1, frozenset())])
        )
        run = Run(None, adversary, context.t, horizon=1)
        assert run.view(0, 1).hidden_capacity() >= 1
        star = pc.star_of(adversary, 0, context.t)
        assert is_homologically_q_connected(star, 0)

    def test_all_high_capacity_vertices_have_connected_stars(self, kset_complex):
        """Sweep every execution of the restricted family and check the implication."""
        context, pc = kset_complex
        checked = 0
        for adversary, process in list(pc.vertex_views.values()):
            run = Run(None, adversary, context.t, horizon=1)
            if not run.has_view(process, 1):
                continue
            if run.view(process, 1).hidden_capacity() < 2:
                continue
            star = pc.star_of(adversary, process, context.t)
            assert is_homologically_q_connected(star, 1)
            checked += 1
        assert checked > 0
