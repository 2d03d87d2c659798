"""Unit tests for the run engine: simulation, decisions, derived queries."""

import pytest

from repro import FloodMin, OptMin
from repro.model import Adversary, CrashEvent, FailurePattern, ProcessTimeNode, Run, execute


def adversary(values, events, n=None):
    n = n or len(values)
    return Adversary(values, FailurePattern(n, events))


class TestSimulationStructure:
    def test_crashed_process_has_no_view_at_crash_time(self):
        run = Run(None, adversary([0, 1, 1], [CrashEvent(0, 1)]), t=1, horizon=2)
        assert run.has_view(0, 0)
        assert not run.has_view(0, 1)
        assert run.has_view(1, 2)

    def test_views_at_returns_active_processes_only(self):
        run = Run(None, adversary([0, 1, 1], [CrashEvent(0, 1)]), t=1, horizon=2)
        assert set(run.views_at(0)) == {0, 1, 2}
        assert set(run.views_at(1)) == {1, 2}

    def test_view_raises_for_missing_state(self):
        run = Run(None, adversary([0, 1, 1], [CrashEvent(0, 1)]), t=1, horizon=2)
        with pytest.raises(KeyError):
            run.view(0, 1)

    def test_crash_bound_enforced(self):
        with pytest.raises(ValueError):
            Run(None, adversary([0, 1, 1], [CrashEvent(0, 1), CrashEvent(1, 1)]), t=1)

    def test_horizon_defaults_to_protocol_bound(self):
        run = Run(FloodMin(1), adversary([0, 1, 1], []), t=2)
        # FloodMin(1) decides at t+1 = 3; default horizon is that plus one.
        assert run.horizon >= 3

    def test_message_chain_defines_seen(self):
        # p0 -> p1 in round 1 only; p1 relays to p2 in round 2.
        events = [CrashEvent(0, 1, frozenset({1}))]
        run = Run(None, adversary([0, 1, 1], events), t=1, horizon=2)
        assert run.view(2, 1).value_of(0) is None
        assert run.view(2, 2).value_of(0) == 0

    def test_node_status_classification(self):
        events = [CrashEvent(1, 1, frozenset({2}))]
        run = Run(None, adversary([1, 0, 1], events), t=1, horizon=2)
        view = run.view(0, 1)
        assert 1 in view.hidden_processes_at(0)
        assert view.is_guaranteed_crashed(ProcessTimeNode(1, 1))
        assert view.is_seen(ProcessTimeNode(2, 0))


class TestDecisions:
    def test_decisions_recorded_once(self):
        run = Run(OptMin(1), adversary([0, 0, 0], []), t=1)
        decisions = run.decisions()
        assert len(decisions) == 3
        assert all(d.value == 0 and d.time == 0 for d in decisions)

    def test_decision_accessors(self):
        run = Run(OptMin(1), adversary([0, 1, 1], []), t=1)
        assert run.decision_value(0) == 0
        assert run.decision_time(0) == 0
        assert run.decision(1) is not None

    def test_decided_values_correct_only_filter(self):
        # p0 holds 0, decides at time 0, and crashes in round 1 silently.
        run = Run(OptMin(1), adversary([0, 1, 1], [CrashEvent(0, 1)]), t=1)
        assert 0 in run.decided_values(correct_only=False)
        assert 0 not in run.decided_values(correct_only=True)

    def test_last_decision_time(self):
        run = Run(FloodMin(2), adversary([0, 1, 2, 2, 2], []), t=4)
        assert run.last_decision_time() == 3  # ⌊4/2⌋ + 1

    def test_all_correct_decided(self):
        run = Run(OptMin(1), adversary([0, 1, 1], []), t=1)
        assert all(run.decision_time(p) is not None for p in run.correct_processes())

    def test_simulation_stops_once_everyone_decided(self):
        run = Run(OptMin(1), adversary([0, 0, 0, 0], []), t=3)
        # All decide at time 0; the engine should not simulate to the full horizon.
        assert run.last_decision_time() == 0


class TestDerivedQueries:
    def test_count_previous_layer_knowers(self):
        events = [CrashEvent(0, 1, frozenset({1}))]
        run = Run(None, adversary([0, 2, 2, 2], events), t=1, horizon=2)
        # At time 1, only p1 received the 0; p1's time-0 node did not know it.
        assert run.count_previous_layer_knowers(1, 1, 0) == 1  # <0,0> itself is seen by <1,1>
        # At time 2, p2 sees <1,1> (which knows 0) and <0,0> is unseen by it.
        assert run.count_previous_layer_knowers(2, 2, 0) == 1

    def test_count_previous_layer_knowers_at_time_zero(self):
        run = Run(None, adversary([0, 1], []), t=1, horizon=1)
        assert run.count_previous_layer_knowers(0, 0, 0) == 0

    def test_hidden_capacity_wrapper(self):
        events = [CrashEvent(1, 1, frozenset({2})), CrashEvent(3, 1, frozenset({4}))]
        run = Run(None, adversary([2] * 6, events), t=2, horizon=1)
        assert run.hidden_capacity(0, 1) == run.view(0, 1).hidden_capacity() == 2


class TestExecuteHelpers:
    def test_execute(self):
        run = execute(OptMin(1), adversary([0, 1, 1], []), t=1)
        assert isinstance(run, Run)
        assert all(run.decision_time(p) is not None for p in run.correct_processes())

