"""Unit tests for the fundamental model types."""

import pytest

from repro.model.types import (
    Decision,
    ProcessTimeNode,
    UNDECIDED,
    validate_crash_bound,
    validate_system_size,
    validate_value_domain,
)


class TestProcessTimeNode:
    def test_fields(self):
        node = ProcessTimeNode(3, 5)
        assert node.process == 3
        assert node.time == 5

    def test_negative_process_rejected(self):
        with pytest.raises(ValueError):
            ProcessTimeNode(-1, 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ProcessTimeNode(0, -2)

    def test_ordering_is_lexicographic(self):
        assert ProcessTimeNode(1, 5) < ProcessTimeNode(2, 0)
        assert ProcessTimeNode(1, 2) < ProcessTimeNode(1, 3)

    def test_hashable_and_equal(self):
        assert ProcessTimeNode(1, 1) == ProcessTimeNode(1, 1)
        assert len({ProcessTimeNode(1, 1), ProcessTimeNode(1, 1)}) == 1

    def test_str_rendering(self):
        assert str(ProcessTimeNode(7, 2)) == "<7,2>"


class TestDecision:
    def test_fields(self):
        d = Decision(process=1, value=3, time=2)
        assert (d.process, d.value, d.time) == (1, 3, 2)

    def test_equality_and_hash(self):
        assert Decision(1, 3, 2) == Decision(1, 3, 2)
        assert len({Decision(1, 3, 2), Decision(1, 3, 2)}) == 1

    def test_undecided_sentinel_is_none(self):
        assert UNDECIDED is None


class TestValidators:
    def test_system_size_minimum(self):
        validate_system_size(2)
        with pytest.raises(ValueError):
            validate_system_size(1)

    def test_crash_bound_range(self):
        validate_crash_bound(5, 0)
        validate_crash_bound(5, 4)
        with pytest.raises(ValueError):
            validate_crash_bound(5, 5)
        with pytest.raises(ValueError):
            validate_crash_bound(5, -1)

    def test_value_domain_defaults_to_k(self):
        assert validate_value_domain(3) == 3

    def test_value_domain_accepts_larger_domain(self):
        assert validate_value_domain(2, 5) == 5

    def test_value_domain_rejects_smaller_domain(self):
        with pytest.raises(ValueError):
            validate_value_domain(3, 2)

    def test_value_domain_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            validate_value_domain(0)
