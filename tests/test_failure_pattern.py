"""Unit tests for crash events and failure patterns."""

import pytest

from repro.model import CrashEvent, FailurePattern


class TestCrashEvent:
    def test_basic_fields(self):
        event = CrashEvent(2, 3, frozenset({0, 1}))
        assert event.process == 2
        assert event.round == 3
        assert event.receivers == frozenset({0, 1})

    def test_round_must_be_positive(self):
        with pytest.raises(ValueError):
            CrashEvent(0, 0)

    def test_self_delivery_rejected(self):
        with pytest.raises(ValueError):
            CrashEvent(1, 1, frozenset({1}))

    def test_delivers_to(self):
        event = CrashEvent(0, 1, frozenset({2}))
        assert event.delivers_to(2)
        assert not event.delivers_to(3)

    def test_receivers_default_empty(self):
        assert CrashEvent(0, 1).receivers == frozenset()


class TestFailurePatternConstruction:
    def test_failure_free(self):
        pattern = FailurePattern.failure_free(4)
        assert pattern.num_failures == 0
        assert pattern.faulty == frozenset()
        assert pattern.correct == frozenset(range(4))

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ValueError):
            FailurePattern(3, [CrashEvent(0, 1), CrashEvent(0, 2)])

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            FailurePattern(3, [CrashEvent(5, 1)])

    def test_unknown_receiver_rejected(self):
        with pytest.raises(ValueError):
            FailurePattern(3, [CrashEvent(0, 1, frozenset({7}))])

    def test_all_processes_crashing_rejected(self):
        with pytest.raises(ValueError):
            FailurePattern(2, [CrashEvent(0, 1), CrashEvent(1, 1)])

    def test_equality_and_hash(self):
        a = FailurePattern(3, [CrashEvent(0, 1, frozenset({1}))])
        b = FailurePattern(3, [CrashEvent(0, 1, frozenset({1}))])
        assert a == b
        assert hash(a) == hash(b)
        assert a != FailurePattern(3, [CrashEvent(0, 2, frozenset({1}))])


class TestFailurePatternQueries:
    @pytest.fixture
    def pattern(self):
        return FailurePattern(
            4,
            [
                CrashEvent(0, 1, frozenset({1})),
                CrashEvent(2, 2, frozenset()),
            ],
        )

    def test_is_faulty(self, pattern):
        assert pattern.is_faulty(0)
        assert pattern.is_faulty(2)
        assert not pattern.is_faulty(1)

    def test_is_active_before_crash(self, pattern):
        assert pattern.is_active(0, 0)
        assert not pattern.is_active(0, 1)
        assert pattern.is_active(2, 1)
        assert not pattern.is_active(2, 2)

    def test_active_processes(self, pattern):
        assert pattern.active_processes(0) == frozenset({0, 1, 2, 3})
        assert pattern.active_processes(1) == frozenset({1, 2, 3})
        assert pattern.active_processes(2) == frozenset({1, 3})

    def test_max_crash_round(self, pattern):
        assert pattern.max_crash_round() == 2
        assert FailurePattern.failure_free(3).max_crash_round() == 0

    def test_delivered_correct_rounds(self, pattern):
        # Process 0 crashes in round 1 delivering only to 1.
        assert pattern.delivered(0, 1, 1)
        assert not pattern.delivered(0, 2, 1)
        assert not pattern.delivered(0, 1, 2)
        # Process 2 is correct in round 1, crashes silently in round 2.
        assert pattern.delivered(2, 0, 1)
        assert not pattern.delivered(2, 1, 2)
        # Correct processes always deliver.
        assert pattern.delivered(1, 3, 5)

    def test_delivered_rejects_bad_round(self, pattern):
        with pytest.raises(ValueError):
            pattern.delivered(0, 1, 0)

    def test_senders_to(self, pattern):
        assert pattern.senders_to(1, 1) == frozenset({0, 2, 3})
        assert pattern.senders_to(3, 1) == frozenset({1, 2})
        assert pattern.senders_to(3, 2) == frozenset({1})

    def test_failures_by(self, pattern):
        rounds = [pattern.crash_round(j) for j in range(4)]
        for time, crashed in enumerate([0, 1, 2, 2]):
            assert sum(r is not None and r <= time for r in rounds) == crashed
            assert 4 - len(pattern.active_processes(time)) == crashed

    def test_crashes_in_round(self, pattern):
        rounds = {event.process: event.round for event in pattern.crashes}
        assert rounds == {0: 1, 2: 2}
        assert {j: pattern.crash_round(j) for j in range(4)} == {0: 1, 1: None, 2: 2, 3: None}

    def test_receivers_of(self, pattern):
        def receivers(sender, round_):
            return {j for j in range(4) if j != sender and pattern.delivered(sender, j, round_)}

        assert receivers(0, 1) == {1}
        assert receivers(2, 2) == set()
        assert receivers(1, 1) == {0, 2, 3}
        for event in pattern.crashes:
            assert receivers(event.process, event.round) == set(event.receivers)

    def test_edges(self, pattern):
        edges = {
            (sender, receiver)
            for receiver in range(4)
            for sender in pattern.senders_to(receiver, 2)
        }
        assert (1, 3) in edges
        assert (2, 3) not in edges
        # A process crashed in round 1 sends nothing in round 2.
        assert not any(sender == 0 for sender, _receiver in edges)

    def test_check_crash_bound(self, pattern):
        pattern.check_crash_bound(2)
        with pytest.raises(ValueError):
            pattern.check_crash_bound(1)
