"""Unit tests for Opt0 / u-Opt0 and their equivalence with Optmin[1] / u-Pmin[1]."""

import pytest

from repro import Opt0, OptMin, UOpt0, UPMin
from repro.adversaries import (
    AdversaryGenerator,
    RestrictedSpace,
    estimate_adversary_count,
    figure1_scenario,
)
from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run
from repro.verification import (
    check_nonuniform_run,
    check_protocol,
    check_run_for_protocol,
    check_uniform_run,
)


class TestOpt0Rule:
    def test_decide_zero_upon_seeing_zero(self):
        run = Run(Opt0(), Adversary([0, 1, 1], FailurePattern.failure_free(3)), t=1)
        assert run.decision_time(0) == 0
        assert run.decision_value(0) == 0
        assert run.decision_time(1) == 1

    def test_decide_one_when_no_hidden_node(self):
        run = Run(Opt0(), Adversary([1, 1, 1], FailurePattern.failure_free(3)), t=1)
        for p in range(3):
            assert run.decision_value(p) == 1
            assert run.decision_time(p) == 1

    def test_hidden_path_blocks_deciding_one(self):
        scenario = figure1_scenario(chain_length=2)
        run = Run(Opt0(), scenario.adversary, scenario.context.t)
        observer = scenario.observer
        # The hidden path persists through time 2, so the observer cannot
        # decide 1 before time 3 — and by then it has learned the 0.
        assert run.decision_time(observer) == 3
        assert run.decision_value(observer) == 0

    def test_hidden_path_without_zero_still_blocks(self):
        scenario = figure1_scenario(chain_length=2, chain_value=1)
        run = Run(Opt0(), scenario.adversary, scenario.context.t)
        assert run.decision_time(scenario.observer) == 3
        assert run.decision_value(scenario.observer) == 1

    def test_k_is_fixed_to_one(self):
        assert Opt0().k == 1
        assert UOpt0().k == 1


class TestEquivalenceWithKOne:
    """Opt0 == Optmin[1] and u-Opt0 == u-Pmin[1], decision-for-decision."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_opt0_equals_optmin1(self, seed):
        context = Context(n=5, t=3, k=1, max_value=1)
        generator = AdversaryGenerator(context, seed=seed)
        for adversary in generator.sample(80):
            a = Run(Opt0(), adversary, context.t)
            b = Run(OptMin(1), adversary, context.t)
            for p in range(context.n):
                assert a.decision_time(p) == b.decision_time(p)
                assert a.decision_value(p) == b.decision_value(p)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uopt0_equals_upmin1(self, seed):
        context = Context(n=5, t=3, k=1, max_value=1)
        generator = AdversaryGenerator(context, seed=seed)
        for adversary in generator.sample(80):
            a = Run(UOpt0(), adversary, context.t)
            b = Run(UPMin(1), adversary, context.t)
            for p in range(context.n):
                assert a.decision_time(p) == b.decision_time(p)
                assert a.decision_value(p) == b.decision_value(p)


class TestCorrectness:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_opt0_solves_consensus(self, seed):
        context = Context(n=5, t=3, k=1, max_value=1)
        generator = AdversaryGenerator(context, seed=seed)
        for adversary in generator.sample(60):
            run = Run(Opt0(), adversary, context.t)
            assert not check_nonuniform_run(run, k=1, time_bound=adversary.num_failures + 1)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_uopt0_solves_uniform_consensus(self, seed):
        context = Context(n=5, t=3, k=1, max_value=1)
        generator = AdversaryGenerator(context, seed=seed)
        for adversary in generator.sample(60):
            run = Run(UOpt0(), adversary, context.t)
            bound = min(context.t + 1, adversary.num_failures + 2)
            assert not check_uniform_run(run, k=1, time_bound=bound)

    def test_opt0_can_decide_much_earlier_than_t_plus_one(self):
        """The headline of [CGM14]: deciding in a constant number of rounds when t is large."""
        n, t = 12, 8
        adversary = Adversary(
            [1] * n, FailurePattern(n, [CrashEvent(1, 1, frozenset({2}))])
        )
        run = Run(Opt0(), adversary, t)
        # One crash whose only hidden effect disappears by time 2.
        assert run.last_decision_time() <= 2
        assert run.last_decision_time() < t + 1


class LateOpt0(Opt0):
    """Opt0's decision one round late: every decision misses ``f + 1`` by one."""

    name = "Opt0-late"

    def decide(self, ctx):
        previous = ctx.previous_view
        if previous is None:
            return None
        if previous.knows_value(0):
            return 0
        if any(previous.hidden_count_at(layer) == 0 for layer in range(previous.time + 1)):
            return previous.min_value()
        return None

    def max_decision_time(self, n, t):
        return t + 2


class TestPaperBounds:
    """The paper's bounds with ``k = 1``, checked over whole constructive spaces."""

    def test_declared_bounds(self):
        assert [Opt0().decision_bound(f) for f in range(4)] == [1, 2, 3, 4]
        assert [UOpt0().decision_bound(3, f) for f in range(4)] == [2, 3, 4, 4]

    @pytest.mark.parametrize("n, t", [(4, 2), (5, 3)])
    @pytest.mark.parametrize("protocol", [Opt0(), UOpt0()], ids=["opt0", "uopt0"])
    def test_exhaustive_constructive(self, protocol, n, t):
        space = RestrictedSpace(Context(n=n, t=t, k=1))
        report = check_protocol(protocol, space, t)
        assert report.ok, report.summary()
        assert report.runs_checked == estimate_adversary_count(space.context)
        assert report.max_decision_time == t + 1

    def test_late_opt0_is_flagged(self):
        context = Context(n=4, t=2, k=1)
        report = check_protocol(
            LateOpt0(), RestrictedSpace(context), context.t
        )
        assert not report.ok
        assert {v.property_name for _index, v in report.violations} == {"decision-time"}
        # The worst-case bound t + 2 alone would not catch it.
        run = Run(LateOpt0(), Adversary([1] * 4, FailurePattern.failure_free(4)), context.t)
        assert run.last_decision_time() == 2
        assert check_run_for_protocol(run, enforce_paper_bound=False) == []
        assert [v.property_name for v in check_run_for_protocol(run)] == ["decision-time"] * 4
