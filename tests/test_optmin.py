"""Unit tests for Optmin[k] — decision rule, correctness, Proposition 1 bound."""

import pytest

from repro import OptMin
from repro.adversaries import AdversaryGenerator, figure2_scenario
from repro.core import OptMinWithExplanation
from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run
from repro.verification import check_nonuniform_run, proposition1_bound


class TestDecisionRule:
    def test_low_process_decides_immediately(self):
        run = Run(OptMin(2), Adversary([0, 2, 2, 2], FailurePattern.failure_free(4)), t=2)
        assert run.decision_time(0) == 0
        assert run.decision_value(0) == 0

    def test_high_process_decides_when_no_hidden_nodes(self):
        # Failure-free: at time 1 there are no hidden nodes at layer 0, so
        # hidden capacity is 0 < k and everyone decides.
        run = Run(OptMin(2), Adversary([2, 2, 2, 2], FailurePattern.failure_free(4)), t=2)
        for p in range(4):
            assert run.decision_time(p) == 1
            assert run.decision_value(p) == 2

    def test_high_process_waits_while_capacity_at_least_k(self):
        scenario = figure2_scenario(k=2, depth=2)
        run = Run(OptMin(2), scenario.adversary, scenario.context.t)
        observer = scenario.observer
        # Hidden capacity stays >= 2 through time 2, so no decision before time 3.
        assert run.decision_time(observer) == 3

    def test_decision_value_is_current_minimum(self):
        # Observer learns value 1 before it can decide.
        events = [CrashEvent(1, 1, frozenset({2}))]
        run = Run(OptMin(2), Adversary([2, 2, 1, 2], FailurePattern(4, events)), t=1)
        assert run.decision_value(0) == 1

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            OptMin(0)

    def test_k1_requires_seen_zero_or_no_hidden_node(self):
        # Binary consensus behaviour: with a hidden chain the observer waits.
        events = [CrashEvent(1, 1, frozenset({2}))]
        run = Run(OptMin(1), Adversary([1, 1, 1, 1], FailurePattern(4, events)), t=1)
        assert run.decision_time(0) == 2  # capacity 1 at time 1, 0 at time 2

    def test_max_decision_time_metadata(self):
        assert OptMin(2).max_decision_time(n=7, t=5) == 3
        assert OptMin(3).max_decision_time(n=7, t=5) == 2

    def test_decision_bound_helper(self):
        assert OptMin(2).decision_bound(f=5) == 3
        assert OptMin(2).decision_bound(f=0) == 1


class TestProposition1:
    """Optmin[k] solves nonuniform k-set consensus and decides by ⌊f/k⌋ + 1."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_adversaries_satisfy_spec_and_bound(self, k, seed):
        context = Context(n=3 * k + 1, t=2 * k, k=k)
        generator = AdversaryGenerator(context, seed=seed)
        protocol = OptMin(k)
        for adversary in generator.sample(60):
            run = Run(protocol, adversary, context.t)
            bound = proposition1_bound(k, adversary.num_failures)
            assert not check_nonuniform_run(run, k, bound)

    def test_worst_case_bound_tight_on_hidden_chains(self):
        """The Fig. 2 adversary forces Optmin[k] to use the full ⌊f/k⌋ + 1 rounds."""
        for k in (1, 2, 3):
            scenario = figure2_scenario(k=k, depth=2)
            run = Run(OptMin(k), scenario.adversary, scenario.context.t)
            f = scenario.adversary.num_failures
            assert run.last_decision_time() == f // k + 1 == 3

    def test_failure_free_decides_by_time_one(self):
        run = Run(OptMin(3), Adversary([3] * 5, FailurePattern.failure_free(5)), t=3)
        assert run.last_decision_time() == 1


class TestInstrumentedVariant:
    def test_reasons_are_recorded(self):
        protocol = OptMinWithExplanation(2)
        run = Run(protocol, Adversary([0, 2, 2, 2], FailurePattern.failure_free(4)), t=2)
        assert protocol.reasons[0] == "low"
        assert protocol.reasons[1] in {"low", "hidden-capacity"}
        assert all(run.decision_time(p) is not None for p in run.correct_processes())

    def test_same_decisions_as_plain_optmin(self):
        context = Context(n=6, t=3, k=2)
        generator = AdversaryGenerator(context, seed=5)
        for adversary in generator.sample(40):
            plain = Run(OptMin(2), adversary, context.t)
            instrumented = Run(OptMinWithExplanation(2), adversary, context.t)
            for p in range(context.n):
                assert plain.decision_time(p) == instrumented.decision_time(p)
                assert plain.decision_value(p) == instrumented.decision_value(p)
