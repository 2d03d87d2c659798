"""Unit tests for full-information views: seen / crashed / hidden, Vals, hidden capacity."""

import pytest

from repro.knowledge import witness_matrix
from repro.model import (
    Adversary,
    CrashEvent,
    FailurePattern,
    ProcessTimeNode,
    Run,
    view_key,
)


def make_run(values, events, t, horizon=None, n=None):
    n = n or len(values)
    return Run(None, Adversary(values, FailurePattern(n, events)), t, horizon=horizon)


class TestViewBasics:
    def test_time_zero_view_knows_only_own_value(self):
        run = make_run([0, 1, 2], [], t=1, horizon=1)
        view = run.view(1, 0)
        assert view.values() == frozenset({1})
        assert view.min_value() == 1
        assert view.latest_seen[1] == 0
        assert view.latest_seen[0] == -1

    def test_failure_free_round_spreads_all_values(self):
        run = make_run([0, 1, 2, 3], [], t=1, horizon=1)
        for p in range(4):
            assert run.view(p, 1).values() == frozenset({0, 1, 2, 3})
            assert run.view(p, 1).min_value() == 0

    def test_view_equality_captures_indistinguishability(self):
        run_a = make_run([0, 1, 1], [], t=1, horizon=1)
        run_b = make_run([0, 1, 1], [], t=1, horizon=1)
        assert run_a.view(0, 1) == run_b.view(0, 1)
        run_c = make_run([1, 1, 1], [], t=1, horizon=1)
        assert run_a.view(0, 1) != run_c.view(0, 1)

    def test_view_key_is_stable(self):
        run = make_run([0, 1, 1], [], t=1, horizon=1)
        assert view_key(run.view(2, 1)) == view_key(run.view(2, 1))

    def test_describe_mentions_capacity(self):
        run = make_run([0, 1, 1], [], t=1, horizon=1)
        assert "hidden capacity" in run.view(0, 1).describe()


class TestSeenCrashedHidden:
    @pytest.fixture
    def chain_run(self):
        # p1 crashes in round 1 delivering only to p2; p2 crashes in round 2
        # delivering only to p3.  Observer is p0.  (The Fig. 1 shape.)
        events = [
            CrashEvent(1, 1, frozenset({2})),
            CrashEvent(2, 2, frozenset({3})),
        ]
        return make_run([1, 0, 1, 1, 1], events, t=2, horizon=3)

    def test_chain_head_initial_node_is_hidden(self, chain_run):
        view = chain_run.view(0, 2)
        assert 1 in view.hidden_processes_at(0)
        assert not view.is_seen(ProcessTimeNode(1, 0))

    def test_chain_head_later_nodes_guaranteed_crashed(self, chain_run):
        view = chain_run.view(0, 2)
        assert view.is_guaranteed_crashed(ProcessTimeNode(1, 1))
        assert view.is_guaranteed_crashed(ProcessTimeNode(1, 2))

    def test_second_chain_member_is_hidden_at_layer_one(self, chain_run):
        view = chain_run.view(0, 2)
        assert view.is_seen(ProcessTimeNode(2, 0))
        assert 2 in view.hidden_processes_at(1)
        assert view.is_guaranteed_crashed(ProcessTimeNode(2, 2))

    def test_last_layer_nodes_of_others_are_hidden(self, chain_run):
        view = chain_run.view(0, 2)
        assert 3 in view.hidden_processes_at(2)
        assert 4 in view.hidden_processes_at(2)

    def test_own_nodes_are_seen(self, chain_run):
        view = chain_run.view(0, 2)
        for time in range(3):
            assert view.is_seen(ProcessTimeNode(0, time))

    def test_hidden_profile_counts_one_per_layer(self, chain_run):
        view = chain_run.view(0, 2)
        # Layer 0: p1 hidden; layer 1: p2 hidden; layer 2: p3, p4 hidden.
        assert view.hidden_count_at(0) == 1
        assert view.hidden_count_at(1) == 1
        assert view.hidden_count_at(2) == 2
        assert view.hidden_profile() == (1, 1, 2)

    def test_hidden_capacity_is_min_over_layers(self, chain_run):
        assert chain_run.view(0, 2).hidden_capacity() == 1

    def test_observer_does_not_know_chain_value(self, chain_run):
        assert not chain_run.view(0, 2).knows_value(0)
        assert chain_run.view(3, 2).knows_value(0)

    def test_observer_learns_value_once_chain_ends(self, chain_run):
        # At time 3 the chain is exhausted: p3 (correct) relays the 0.
        assert chain_run.view(0, 3).knows_value(0)
        assert chain_run.view(0, 3).hidden_capacity() == 0


class TestValuesAndLows:
    def test_lows_and_high_status(self):
        run = make_run([2, 2, 2, 0], [CrashEvent(3, 1, frozenset())], t=1, horizon=2)
        view = run.view(0, 1)
        assert {v for v in view.values() if v < 2} == set()
        assert not view.is_low(k=2)
        assert run.view(0, 0).values() == frozenset({2})

    def test_low_after_receiving_low_value(self):
        run = make_run([2, 2, 2, 0], [], t=1, horizon=1)
        view = run.view(0, 1)
        assert {v for v in view.values() if v < 2} == {0}
        assert view.is_low(k=2)
        assert view.min_value() == 0

    def test_value_of_unseen_process_is_none(self):
        run = make_run([2, 0, 2], [CrashEvent(1, 1, frozenset())], t=1, horizon=1)
        assert run.view(0, 1).value_of(1) is None
        assert run.view(0, 1).value_of(2) == 2


class TestFailureKnowledge:
    def test_known_failures_counts_evidence(self):
        run = make_run(
            [0, 0, 0, 0],
            [CrashEvent(1, 1, frozenset()), CrashEvent(2, 2, frozenset())],
            t=2,
            horizon=2,
        )
        assert run.view(0, 0).known_failure_count() == 0
        assert run.view(0, 1).known_failure_count() == 1
        assert run.view(0, 2).known_failure_count() == 2

    def test_partial_delivery_hides_failure_from_receiver(self):
        # p1 crashes in round 1 but delivers to p0: p0 has no evidence at time 1.
        run = make_run([0, 0, 0, 0], [CrashEvent(1, 1, frozenset({0}))], t=1, horizon=2)
        assert run.view(0, 1).known_failure_count() == 0
        assert run.view(2, 1).known_failure_count() == 1
        # One round later the evidence reaches p0 through p2/p3's views.
        assert run.view(0, 2).known_failure_count() == 1


class TestHiddenCapacityWitnesses:
    def test_witness_rows_have_capacity_entries(self):
        events = [
            CrashEvent(1, 1, frozenset({2})),
            CrashEvent(3, 1, frozenset({4})),
        ]
        run = make_run([2] * 6, events, t=2, horizon=1)
        view = run.view(0, 1)
        assert view.hidden_capacity() == 2
        witnesses = witness_matrix(view)
        assert len(witnesses) == 2  # one row per layer 0..1
        for row in witnesses:
            assert len(row) == 2
            assert len(set(row)) == 2

    def test_layer_out_of_range_rejected(self):
        run = make_run([0, 0], [], t=1, horizon=1)
        with pytest.raises(ValueError):
            run.view(0, 1).hidden_processes_at(-1)
