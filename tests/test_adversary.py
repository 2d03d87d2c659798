"""Unit tests for adversaries and contexts."""

import pytest

from repro.model import Adversary, Context, CrashEvent, FailurePattern


class TestAdversary:
    def test_basic_fields(self):
        pattern = FailurePattern.failure_free(3)
        adversary = Adversary([0, 1, 2], pattern)
        assert adversary.n == 3
        assert adversary.values == (0, 1, 2)
        assert adversary.pattern is pattern
        assert adversary.num_failures == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Adversary([0, 1], FailurePattern.failure_free(3))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            Adversary([0, -1, 2], FailurePattern.failure_free(3))

    def test_rejection_messages(self):
        with pytest.raises(ValueError) as length:
            Adversary([0, 1], FailurePattern.failure_free(3))
        assert str(length.value) == "input vector has 2 entries but the failure pattern has n=3"
        with pytest.raises(ValueError) as negative:
            Adversary([0, -1, 2], FailurePattern.failure_free(3))
        assert str(negative.value) == "initial values must be non-negative, got (0, -1, 2)"

    def test_values_are_coerced_to_int_before_the_checks(self):
        pattern = FailurePattern.failure_free(3)
        adversary = Adversary([True, 1.9, False], pattern)
        assert adversary.values == (1, 1, 0)
        assert all(type(value) is int for value in adversary.values)
        assert adversary == Adversary((1, 1, 0), pattern)
        assert hash(adversary) == hash(Adversary((1, 1, 0), pattern))
        assert Adversary(iter([2, 0, 1]), pattern).values == (2, 0, 1)
        # Truncation toward zero happens first: -0.5 is 0, -1.5 is -1.
        assert Adversary([-0.5, 0, 0], pattern).values == (0, 0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            Adversary([0, -1.5, 0], pattern)
        with pytest.raises(ValueError, match="2 entries"):
            Adversary((v for v in [0.0, 1.0]), pattern)

    def test_initial_value_and_value_set(self):
        adversary = Adversary([2, 0, 2], FailurePattern.failure_free(3))
        assert adversary.initial_value(1) == 0
        assert adversary.value_set() == frozenset({0, 2})

    def test_with_values(self):
        adversary = Adversary([0, 0, 0], FailurePattern.failure_free(3))
        other = adversary.with_values([1, 1, 1])
        assert other.values == (1, 1, 1)
        assert other.pattern == adversary.pattern

    def test_equality_and_hash(self):
        a = Adversary([0, 1], FailurePattern.failure_free(2))
        b = Adversary([0, 1], FailurePattern.failure_free(2))
        assert a == b
        assert hash(a) == hash(b)

    def test_failure_free_factory(self):
        adversary = Adversary.failure_free([1, 2, 3])
        assert adversary.num_failures == 0
        assert adversary.values == (1, 2, 3)


class TestContext:
    def test_defaults(self):
        context = Context(n=5, t=3, k=2)
        assert context.max_value == 2
        assert list(context.values_domain) == [0, 1, 2]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Context(n=3, t=3, k=1)
        with pytest.raises(ValueError):
            Context(n=3, t=1, k=0)
        with pytest.raises(ValueError):
            Context(n=3, t=1, k=2, max_value=1)

    def test_validate_accepts_member(self):
        context = Context(n=4, t=2, k=2)
        adversary = Adversary([0, 1, 2, 2], FailurePattern(4, [CrashEvent(0, 1)]))
        context.validate(adversary)

    def test_validate_rejects_wrong_n(self):
        context = Context(n=4, t=2, k=2)
        with pytest.raises(ValueError):
            context.validate(Adversary([0, 1, 2], FailurePattern.failure_free(3)))

    def test_validate_rejects_too_many_failures(self):
        context = Context(n=4, t=1, k=2)
        pattern = FailurePattern(4, [CrashEvent(0, 1), CrashEvent(1, 1)])
        with pytest.raises(ValueError):
            context.validate(Adversary([0, 1, 2, 2], pattern))

    def test_validate_rejects_out_of_domain_values(self):
        context = Context(n=3, t=1, k=1)
        with pytest.raises(ValueError):
            context.validate(Adversary([0, 5, 1], FailurePattern.failure_free(3)))

    def test_horizon_is_at_least_two(self):
        assert Context(n=3, t=0, k=1).horizon() >= 2

