"""Unit tests for exhaustive adversary enumeration."""

import pytest

from repro import oracles
from repro.adversaries import (
    enumerate_adversaries,
    enumerate_failure_patterns,
    enumerate_input_vectors,
)
from repro.adversaries.enumeration import estimate_adversary_count
from repro.model import Context
from repro.oracles import count_adversaries


class TestEstimate:
    @pytest.mark.parametrize("policy", ["none", "canonical", "all"])
    @pytest.mark.parametrize("max_crash_round", [None, 1, 2])
    def test_closed_form_matches_direct_count(self, policy, max_crash_round):
        context = Context(n=3, t=2, k=1, max_value=1)
        assert estimate_adversary_count(
            context, max_crash_round=max_crash_round, receiver_policy=policy
        ) == count_adversaries(
            context, max_crash_round=max_crash_round, receiver_policy=policy
        )

    def test_closed_form_matches_with_max_failures(self):
        context = Context(n=4, t=2, k=2)
        assert estimate_adversary_count(
            context, max_crash_round=2, max_failures=1
        ) == count_adversaries(context, max_crash_round=2, max_failures=1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="receiver policy"):
            estimate_adversary_count(Context(n=3, t=1, k=1), receiver_policy="bogus")

    def test_max_crash_round_zero_means_failure_free_only(self):
        # Regression: 0 used to be coerced to the context horizon (falsy-zero
        # `or`), silently enumerating the full crashing space.
        context = Context(n=3, t=2, k=1, max_value=1)
        adversaries = list(enumerate_adversaries(context, max_crash_round=0))
        assert adversaries and all(a.num_failures == 0 for a in adversaries)
        assert estimate_adversary_count(context, max_crash_round=0) == len(adversaries)

    def test_limit_zero_yields_nothing(self):
        # Regression: the post-yield limit check used to emit one adversary
        # for limit<=0, letting a `sweep --limit 0` succeed vacuously.
        context = Context(n=3, t=1, k=1)
        assert list(enumerate_adversaries(context, limit=0)) == []
        assert list(enumerate_adversaries(context, limit=-5)) == []
        assert len(list(enumerate_adversaries(context, limit=3))) == 3

    def test_estimate_handles_negative_max_crash_round(self):
        # Regression: negative rounds used to sum sign-garbled powers in the
        # closed form while enumeration (range(1, 0) empty) yielded only the
        # failure-free pattern.
        context = Context(n=3, t=2, k=1, max_value=1)
        assert estimate_adversary_count(
            context, max_crash_round=-1
        ) == count_adversaries(context, max_crash_round=-1) == 8


class TestInputVectors:
    def test_count(self):
        context = Context(n=3, t=1, k=1, max_value=1)
        assert sum(1 for _ in enumerate_input_vectors(context)) == 8

    def test_larger_domain(self):
        context = Context(n=2, t=1, k=1, max_value=2)
        vectors = set(enumerate_input_vectors(context))
        assert len(vectors) == 9
        assert (2, 0) in vectors


class TestFailurePatterns:
    def test_none_policy_counts(self):
        context = Context(n=3, t=1, k=1)
        patterns = list(
            enumerate_failure_patterns(context, max_crash_round=2, receiver_policy="none")
        )
        # Failure-free + (3 processes × 2 rounds) silent crashes.
        assert len(patterns) == 1 + 6

    def test_canonical_policy_counts(self):
        context = Context(n=3, t=1, k=1)
        patterns = list(
            enumerate_failure_patterns(context, max_crash_round=1, receiver_policy="canonical")
        )
        # Failure-free + 3 crashers × 4 receiver choices (∅, {a}, {b}, all).
        assert len(patterns) == 1 + 12

    def test_all_policy_counts(self):
        context = Context(n=3, t=1, k=1)
        patterns = list(
            enumerate_failure_patterns(context, max_crash_round=1, receiver_policy="all")
        )
        # Failure-free + 3 crashers × 2^2 receiver subsets.
        assert len(patterns) == 1 + 12

    def test_unknown_policy_rejected(self):
        context = Context(n=3, t=1, k=1)
        with pytest.raises(ValueError):
            list(enumerate_failure_patterns(context, receiver_policy="bogus"))

    def test_max_failures_restriction(self):
        context = Context(n=4, t=3, k=1)
        patterns = list(
            enumerate_failure_patterns(
                context, max_crash_round=1, receiver_policy="none", max_failures=1
            )
        )
        assert all(p.num_failures <= 1 for p in patterns)

    def test_respects_crash_bound(self):
        context = Context(n=3, t=2, k=1)
        for pattern in enumerate_failure_patterns(
            context, max_crash_round=1, receiver_policy="none"
        ):
            assert pattern.num_failures <= 2


class TestCountingProperties:
    """Property tests pinning the three counting surfaces to each other.

    ``estimate_adversary_count`` (closed form), ``count_adversaries`` (direct
    counting) and ``len(list(enumerate_adversaries(...)))`` (materialised
    stream) must agree exactly for every receiver policy and restriction —
    the closed form is what the CLI's tractability refusal trusts, and the
    orbit layer's ``sum(sizes)`` bookkeeping is checked against the same
    count in ``tests/test_symmetry.py``.
    """

    @pytest.mark.parametrize("policy", ["none", "canonical", "all"])
    @pytest.mark.parametrize("max_failures", [None, 0, 1])
    def test_count_equals_materialised_stream(self, policy, max_failures):
        context = Context(n=3, t=2, k=1, max_value=1)
        materialised = list(
            enumerate_adversaries(
                context, max_crash_round=2, receiver_policy=policy, max_failures=max_failures
            )
        )
        assert (
            count_adversaries(
                context, max_crash_round=2, receiver_policy=policy, max_failures=max_failures
            )
            == len(materialised)
        )
        assert (
            estimate_adversary_count(
                context, max_crash_round=2, receiver_policy=policy, max_failures=max_failures
            )
            == len(materialised)
        )
        assert len(set(materialised)) == len(materialised)

    @pytest.mark.parametrize("policy", ["none", "canonical", "all"])
    def test_exactness_on_wider_domain(self, policy):
        context = Context(n=3, t=1, k=2)
        assert estimate_adversary_count(
            context, max_crash_round=1, receiver_policy=policy
        ) == count_adversaries(context, max_crash_round=1, receiver_policy=policy)

    @pytest.mark.parametrize("policy", ["none", "canonical", "all"])
    def test_n2_space_has_no_duplicates(self, policy):
        # Regression: at n=2 the canonical policy used to yield the lone
        # singleton receiver set twice (once as singleton, once as the full
        # set), duplicating every crashing adversary of the "exhaustive"
        # space and breaking the orbit partition sum(sizes) == count.
        context = Context(n=2, t=1, k=1, max_value=1)
        adversaries = list(
            enumerate_adversaries(context, max_crash_round=1, receiver_policy=policy)
        )
        assert len(set(adversaries)) == len(adversaries)
        assert estimate_adversary_count(
            context, max_crash_round=1, receiver_policy=policy
        ) == len(adversaries)


class TestAdversaries:
    def test_product_structure(self):
        context = Context(n=3, t=1, k=1, max_value=1)
        total = count_adversaries(context, max_crash_round=1, receiver_policy="none")
        patterns = 1 + 3
        vectors = 8
        assert total == patterns * vectors

    def test_limit_truncates(self):
        context = Context(n=3, t=2, k=1, max_value=1)
        limited = list(
            enumerate_adversaries(context, max_crash_round=1, receiver_policy="canonical", limit=25)
        )
        assert len(limited) == 25

    def test_all_members_admitted_by_context(self):
        context = Context(n=3, t=2, k=1, max_value=1)
        for adversary in enumerate_adversaries(
            context, max_crash_round=2, receiver_policy="none", limit=200
        ):
            context.validate(adversary)

    def test_no_duplicates_in_small_space(self):
        context = Context(n=3, t=1, k=1, max_value=1)
        adversaries = list(
            enumerate_adversaries(context, max_crash_round=1, receiver_policy="canonical")
        )
        assert len(adversaries) == len(set(adversaries))


class TestBurnside:
    """Orbit counts against naive group averaging (Burnside's lemma).

    The number of process-renaming orbits of a restricted space equals the
    average number of members fixed by each renaming:
    ``(1/n!) * sum over sigma of |Fix(sigma)|``.  This is an independent
    oracle — it never canonicalises, never augments, it just applies the
    group — so it cross-checks both orbit-counting modes at once.
    """

    @staticmethod
    def _burnside_count(context, **restrictions):
        from itertools import permutations
        from math import factorial

        from repro.symmetry import apply_to_adversary

        members = set(enumerate_adversaries(context, **restrictions))
        fixed = 0
        for sigma in permutations(range(context.n)):
            fixed += sum(
                1 for member in members if apply_to_adversary(member, sigma) == member
            )
        assert fixed % factorial(context.n) == 0, "Burnside sum must divide evenly"
        return fixed // factorial(context.n)

    @pytest.mark.parametrize("policy", ["none", "canonical", "all"])
    @pytest.mark.parametrize("max_crash_round", [1, 2])
    def test_orbit_counts_match_burnside(self, policy, max_crash_round):
        from repro.adversaries import count_orbits

        context = Context(n=3, t=2, k=1, max_value=1)
        restrictions = dict(max_crash_round=max_crash_round, receiver_policy=policy)
        expected = self._burnside_count(context, **restrictions)
        assert count_orbits(context, **restrictions) == expected
        assert oracles.dedup_pattern_and_orbit_counts(context, **restrictions)[1] == expected

    @pytest.mark.parametrize("max_failures", [0, 1, 2])
    def test_orbit_counts_match_burnside_with_max_failures(self, max_failures):
        from repro.adversaries import count_orbits

        context = Context(n=4, t=2, k=2)
        restrictions = dict(
            max_crash_round=1, receiver_policy="canonical", max_failures=max_failures
        )
        expected = self._burnside_count(context, **restrictions)
        assert count_orbits(context, **restrictions) == expected
        assert oracles.dedup_pattern_and_orbit_counts(context, **restrictions)[1] == expected

    def test_burnside_on_the_full_unrestricted_space(self):
        from repro.adversaries import count_orbits

        context = Context(n=3, t=1, k=1, max_value=2)
        expected = self._burnside_count(context)
        assert count_orbits(context) == expected
        assert oracles.dedup_pattern_and_orbit_counts(context)[1] == expected
