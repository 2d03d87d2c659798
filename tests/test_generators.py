"""Unit tests for adversary generators (random, crash chains)."""

import pytest

from repro.adversaries import AdversaryGenerator, crash_chain_events, enumerate_adversaries
from repro.model import Adversary, Context, FailurePattern, Run

#: The Fig. 1 chain on 5 processes: 1 -> 2 -> 3 carries the only 0.
CHAIN_ADVERSARY = Adversary([1, 0, 1, 1, 1], FailurePattern(5, crash_chain_events([1, 2, 3])))


class TestAdversaryGenerator:
    def test_adversaries_respect_context(self, small_context):
        generator = AdversaryGenerator(small_context, seed=1)
        for adversary in generator.sample(100):
            small_context.validate(adversary)

    def test_determinism_given_seed(self, small_context):
        a = AdversaryGenerator(small_context, seed=42).sample(20)
        b = AdversaryGenerator(small_context, seed=42).sample(20)
        assert a == b

    def test_nonpositive_max_crash_round_rejected(self, small_context):
        # Regression: 0 used to be silently coerced to the context horizon
        # (falsy-zero `or`), sampling crashes the caller asked to exclude.
        for bad in (0, -2):
            with pytest.raises(ValueError, match="max_crash_round must be >= 1"):
                AdversaryGenerator(small_context, seed=1, max_crash_round=bad)

    def test_different_seeds_differ(self, small_context):
        a = AdversaryGenerator(small_context, seed=1).sample(20)
        b = AdversaryGenerator(small_context, seed=2).sample(20)
        assert a != b

    def test_fixed_failure_count(self, small_context):
        generator = AdversaryGenerator(small_context, seed=3)
        for adversary in generator.sample(30, num_failures=2):
            assert adversary.num_failures == 2

    def test_failure_count_out_of_range_rejected(self, small_context):
        generator = AdversaryGenerator(small_context, seed=3)
        with pytest.raises(ValueError):
            generator.random_pattern(num_failures=small_context.t + 1)

    def test_stream_is_infinite_enough(self, small_context):
        stream = AdversaryGenerator(small_context, seed=5).stream()
        batch = [next(stream) for _ in range(10)]
        assert len(batch) == 10

    def test_values_within_domain(self, small_context):
        generator = AdversaryGenerator(small_context, seed=9)
        for adversary in generator.sample(50):
            assert all(v in small_context.values_domain for v in adversary.values)


class TestCrashChains:
    def test_crash_chain_events_structure(self):
        events = crash_chain_events([1, 2, 3], first_round=1)
        assert len(events) == 2
        assert events[0].process == 1 and events[0].round == 1 and events[0].receivers == {2}
        assert events[1].process == 2 and events[1].round == 2 and events[1].receivers == {3}

    def test_crash_chain_adversary_hides_value(self):
        adversary = CHAIN_ADVERSARY
        run = Run(None, adversary, t=2, horizon=2)
        # Observer 0 never learns the 0 through time 2 ...
        assert not run.view(0, 2).knows_value(0)
        # ... while the chain tail does.
        assert run.view(3, 2).knows_value(0)

    def test_chain_creates_hidden_capacity_one(self):
        adversary = CHAIN_ADVERSARY
        run = Run(None, adversary, t=2, horizon=2)
        assert run.view(0, 2).hidden_capacity() == 1


class TestFailureFreeEnumeration:
    """``max_crash_round=0`` restricts the enumeration to the failure-free runs."""

    def test_count_matches_domain_size(self):
        context = Context(n=3, t=1, k=1, max_value=1)
        assert sum(1 for _ in enumerate_adversaries(context, max_crash_round=0)) == 8

    def test_all_are_failure_free(self):
        context = Context(n=3, t=1, k=2)
        adversaries = list(enumerate_adversaries(context, max_crash_round=0))
        assert len({adversary.values for adversary in adversaries}) == len(adversaries) == 27
        for adversary in adversaries:
            assert adversary.num_failures == 0
