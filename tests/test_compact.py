"""Unit tests for the Appendix E compact (O(n log n)-bit) implementation."""

import pytest

from repro.adversaries import AdversaryGenerator, figure2_scenario, figure4_scenario
from repro.efficient import (
    CompactMessage,
    CompactSimulation,
    compare_compact_to_fip,
    nlogn_bound,
)
from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run


def compact_equals_fip(adversary, t):
    """Whether every decision-relevant quantity matched the fip at every node."""
    comparison = compare_compact_to_fip(adversary, t)
    return (
        comparison.values_match
        and comparison.failures_match
        and comparison.capacity_mismatches == 0
    )


class TestCompactMessage:
    def test_alive_message_is_tiny(self):
        assert CompactMessage("alive", None, None).size_bits(8, 5, 2) == 2

    def test_value_message_size(self):
        size = CompactMessage("value", 3, 1).size_bits(n=8, horizon=5, value_bits=2)
        assert size == 2 + 3 + 2

    def test_failed_at_message_size(self):
        size = CompactMessage("failed_at", 3, 2).size_bits(n=8, horizon=5, value_bits=2)
        assert size == 2 + 3 + 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CompactMessage("bogus", 1, 1).size_bits(4, 4, 1)


class TestReconstruction:
    def test_values_and_min_match_fip_exactly(self, small_context, random_adversaries):
        for adversary in random_adversaries[:60]:
            comparison = compare_compact_to_fip(adversary, small_context.t)
            assert comparison.values_match
            assert comparison.failures_match

    def test_capacity_never_below_fip(self, small_context, random_adversaries):
        for adversary in random_adversaries[:60]:
            assert compare_compact_to_fip(adversary, small_context.t).sound

    def test_exact_on_most_random_adversaries(self, small_context, random_adversaries):
        exact = sum(
            compact_equals_fip(adversary, small_context.t) for adversary in random_adversaries[:60]
        )
        assert exact >= 55

    def test_exact_on_paper_scenarios(self):
        fig2 = figure2_scenario(k=3, depth=2)
        assert compact_equals_fip(fig2.adversary, fig2.context.t)
        fig4 = figure4_scenario(k=3, rounds=3)
        assert compact_equals_fip(fig4.adversary, fig4.context.t)

    def test_hidden_capacity_accessible_per_node(self):
        scenario = figure2_scenario(k=2, depth=2)
        simulation = CompactSimulation(scenario.adversary, scenario.context.t)
        run = Run(None, scenario.adversary, scenario.context.t)
        assert simulation.hidden_capacity(scenario.observer, 2) == run.view(
            scenario.observer, 2
        ).hidden_capacity()

    def test_state_history_available_for_active_nodes(self):
        adversary = Adversary([0, 1, 1], FailurePattern(3, [CrashEvent(0, 1, frozenset())]))
        simulation = CompactSimulation(adversary, t=1, horizon=2)
        assert simulation.min_value(1, 2) == 1
        with pytest.raises(KeyError):
            simulation.state_at(0, 1)


class TestBitAccounting:
    def test_bits_are_counted_per_channel(self, single_silent_crash):
        bits = CompactSimulation(single_silent_crash, t=1).bits_sent
        assert bits
        assert all(isinstance(total, int) and total > 0 for total in bits.values())

    def test_crashed_channel_carries_fewer_bits(self, single_silent_crash):
        simulation = CompactSimulation(single_silent_crash, t=1)
        # Process 0 crashes silently in round 1, so channels out of 0 carry nothing.
        outgoing = [total for (s, _), total in simulation.bits_sent.items() if s == 0]
        incoming = [total for (s, r), total in simulation.bits_sent.items() if r == 1 and s != 0]
        assert not outgoing or max(outgoing) == 0 if outgoing else True
        assert incoming

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_per_channel_bits_within_nlogn_budget(self, n):
        context = Context(n=n, t=n // 2, k=2)
        generator = AdversaryGenerator(context, seed=n)
        for adversary in generator.sample(10):
            simulation = CompactSimulation(adversary, context.t)
            budget = nlogn_bound(n, simulation.horizon, max_value=2)
            assert simulation.max_bits_per_channel() <= budget

    def test_total_bits_scale_subquadratically_per_channel(self):
        """Doubling n should far less than double the worst per-channel bits."""
        def worst_channel(n):
            context = Context(n=n, t=2, k=2)
            adversary = AdversaryGenerator(context, seed=1).random_adversary(num_failures=2)
            return CompactSimulation(adversary, context.t).max_bits_per_channel()

        small, large = worst_channel(6), worst_channel(12)
        assert large <= 4 * small

    def test_message_counts_tracked(self, single_silent_crash):
        simulation = CompactSimulation(single_silent_crash, t=1)
        assert sum(simulation.messages_sent.values()) > 0
