"""Unit tests for the epistemic operators of Appendix A over finite systems of runs."""

import pytest

from repro import Opt0, OptMin
from repro import oracles
from repro.adversaries import enumerate_adversaries
from repro.knowledge import (
    System,
    at_most_low_values_decided,
    exists_value,
    knowledge_of_precondition_holds,
    no_correct_process_decides,
    value_persists,
)
from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run


@pytest.fixture(scope="module")
def tiny_system():
    """All runs of Opt0 over a tiny exhaustively-enumerated context."""
    context = Context(n=3, t=1, k=1, max_value=1)
    adversaries = list(
        enumerate_adversaries(context, max_crash_round=2, receiver_policy="canonical")
    )
    runs = [Run(Opt0(), adversary, context.t) for adversary in adversaries]
    return System(runs), context


class TestSystemMechanics:
    def test_system_requires_runs(self):
        with pytest.raises(ValueError):
            System([])

    def test_from_family_engines(self):
        context = Context(n=3, t=1, k=1, max_value=1)
        adversaries = list(
            enumerate_adversaries(context, max_crash_round=1, receiver_policy="none")
        )
        batch = System.from_family(Opt0(), adversaries, context.t)
        reference = oracles.system_from_family(Opt0(), adversaries, context.t)
        assert len(batch.runs) == len(reference.runs) == len(adversaries)

    def test_from_family_batch_answers_view_queries(self):
        context = Context(n=3, t=1, k=1, max_value=1)
        adversaries = list(
            enumerate_adversaries(context, max_crash_round=1, receiver_policy="none")
        )
        system = System.from_family(Opt0(), adversaries, context.t)
        run = system.runs[0]
        indist = system.indistinguishable_runs(run, 0, 0)
        assert run in indist
        for other in indist:
            assert other.view(0, 0).process == 0

    def test_indistinguishable_runs_contains_self(self, tiny_system):
        system, _ = tiny_system
        run = system.runs[0]
        indist = system.indistinguishable_runs(run, 0, 0)
        assert run in indist

    def test_indistinguishable_runs_share_local_state(self, tiny_system):
        system, _ = tiny_system
        run = system.runs[0]
        for other in system.indistinguishable_runs(run, 0, 1):
            assert other.view(0, 1) == run.view(0, 1)

    def test_unknown_point_rejected(self, tiny_system):
        system, context = tiny_system
        foreign = Run(Opt0(), Adversary([1, 1, 1, 1], FailurePattern.failure_free(4)), 2)
        with pytest.raises(ValueError):
            system.indistinguishable_runs(foreign, 0, 0)


class TestKnowledgeSemantics:
    def test_knowledge_is_truthful(self, tiny_system):
        """K_i A implies A (knowledge is veridical: the real run is indistinguishable from itself)."""
        system, _ = tiny_system
        fact = exists_value(0)
        for run in system.runs[:50]:
            if not run.has_view(0, 1):
                continue
            if system.knows(fact, run, 0, 1):
                assert fact(run, 1)

    def test_seeing_zero_implies_knowing_exists_zero(self, tiny_system):
        system, _ = tiny_system
        fact = exists_value(0)
        for run in system.runs[:80]:
            for time in (0, 1):
                if not run.has_view(0, time):
                    continue
                if run.view(0, time).knows_value(0):
                    assert system.knows(fact, run, 0, time)

    def test_not_seeing_zero_with_hidden_path_means_not_knowing(self, tiny_system):
        """With a hidden node at every layer, ∃0 cannot be known by a process that has not seen 0."""
        system, _ = tiny_system
        fact = exists_value(0)
        found_case = False
        for run in system.runs:
            if not run.has_view(0, 1):
                continue
            view = run.view(0, 1)
            if view.knows_value(0) or view.hidden_capacity() < 1:
                continue
            found_case = True
            assert not system.knows(fact, run, 0, 1)
        assert found_case, "the enumerated space should contain a hidden-path case"

    def test_knowledge_of_preconditions_for_validity(self, tiny_system):
        """Theorem 4 instantiated with Validity: deciding v requires knowing ∃v."""
        system, _ = tiny_system
        assert knowledge_of_precondition_holds(system, exists_value(0), decision_value=0)
        assert knowledge_of_precondition_holds(system, exists_value(1), decision_value=1)

    def test_deciding_one_requires_knowing_nobody_decides_zero(self, tiny_system):
        """The Agreement-side precondition behind Opt0's second decision rule."""
        system, _ = tiny_system
        fact = no_correct_process_decides(0)
        for run in system.runs:
            for decision in run.decisions():
                if decision.value != 1:
                    continue
                if run.adversary.pattern.is_faulty(decision.process):
                    continue
                assert system.knows(fact, run, decision.process, decision.time)


class TestFactBuilders:
    def test_at_most_low_values_decided(self):
        context = Context(n=4, t=2, k=2)
        one_low = Run(OptMin(2), Adversary([0, 2, 2, 2], FailurePattern.failure_free(4)), context.t)
        assert at_most_low_values_decided(2)(one_low, 1)
        two_low = Run(OptMin(2), Adversary([0, 1, 2, 2], FailurePattern.failure_free(4)), context.t)
        assert not at_most_low_values_decided(2)(two_low, 1)

    def test_value_persists_fact(self):
        adversary = Adversary([0, 1, 1], FailurePattern(3, [CrashEvent(0, 1, frozenset())]))
        run = Run(None, adversary, t=1, horizon=2)
        # The 0 dies with p0: at time 1 no active process knows it.
        assert not value_persists(0)(run, 0)
        assert value_persists(1)(run, 0)
