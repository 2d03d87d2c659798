"""Edge-case and failure-injection tests across the library.

Covers the corners the paper's footnotes and model section allow but the
mainline tests do not exercise: larger value domains (Footnote 4), the
smallest legal systems, ``t = 0``, ``k >= number of values present``, faulty
observers, crashes delivering to everyone, and decisions by processes that
crash immediately afterwards.
"""

import pytest

from repro import (
    EarlyDecidingKSet,
    FloodMin,
    Opt0,
    OptMin,
    UPMin,
    UniformEarlyDecidingKSet,
)
from repro.adversaries import AdversaryGenerator
from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run
from repro.verification import check_run_for_protocol, check_uniform_run, check_nonuniform_run


class TestLargerValueDomains:
    """Footnote 4: everything holds verbatim for value domains {0..d} with d > k."""

    @pytest.mark.parametrize("protocol_factory", [OptMin, UPMin])
    def test_protocols_correct_with_wide_domain(self, protocol_factory):
        context = Context(n=6, t=3, k=2, max_value=5)
        generator = AdversaryGenerator(context, seed=1)
        for adversary in generator.sample(60):
            run = Run(protocol_factory(2), adversary, context.t)
            assert not check_run_for_protocol(run)

    def test_all_high_values_run(self):
        # Every process holds a (distinct) high value: only high values may be
        # decided, and at most k of them.
        context = Context(n=5, t=2, k=2, max_value=6)
        adversary = Adversary([2, 3, 4, 5, 6], FailurePattern.failure_free(5))
        run = Run(OptMin(2), adversary, context.t)
        assert run.decided_values(correct_only=True) == {2}

    def test_high_value_below_domain_max_is_decidable(self):
        context = Context(n=4, t=1, k=1, max_value=3)
        adversary = Adversary([3, 3, 2, 3], FailurePattern.failure_free(4))
        run = Run(OptMin(1), adversary, context.t)
        assert run.decided_values(correct_only=True) == {2}


class TestSmallestSystems:
    def test_two_processes_no_failures(self):
        run = Run(OptMin(1), Adversary([0, 1], FailurePattern.failure_free(2)), t=0)
        assert run.decision_value(0) == 0
        assert run.decision_value(1) in {0, 1}
        assert len(run.decided_values()) <= 1 or run.decision_time(1) == 0

    def test_two_processes_one_crash(self):
        adversary = Adversary([0, 1], FailurePattern(2, [CrashEvent(0, 1, frozenset())]))
        for protocol in (OptMin(1), UPMin(1), Opt0()):
            run = Run(protocol, adversary, t=1)
            assert run.decision_value(1) is not None
            assert not check_run_for_protocol(run)

    def test_t_zero_everyone_decides_fast(self):
        adversary = Adversary([0, 1, 2], FailurePattern.failure_free(3))
        run = Run(UPMin(2), adversary, t=0)
        assert run.last_decision_time() <= 1
        assert not check_uniform_run(run, 2, 1)

    def test_k_equals_n_minus_one(self):
        # With k = n - 1 nearly everything is decidable; the protocols still
        # satisfy the (loose) agreement requirement.
        adversary = Adversary([0, 1, 2, 3], FailurePattern.failure_free(4))
        run = Run(OptMin(3), adversary, t=3)
        assert len(run.decided_values(correct_only=True)) <= 3


class TestFaultyObservers:
    def test_decision_before_crash_counts_for_uniform(self):
        # p0 is low at time 0, decides 0 under Optmin, then crashes silently;
        # the survivors never learn the 0 and decide 1 — fine for nonuniform,
        # and exactly the situation u-Pmin[k] must (and does) avoid.
        adversary = Adversary([0, 1, 1, 1], FailurePattern(4, [CrashEvent(0, 1, frozenset())]))
        nonuniform = Run(OptMin(1), adversary, t=1)
        assert nonuniform.decision_value(0) == 0
        assert nonuniform.decided_values(correct_only=True) == {1}
        assert not check_nonuniform_run(nonuniform, 1)

        uniform = Run(UPMin(1), adversary, t=1)
        assert not check_uniform_run(uniform, 1)
        assert len(uniform.decided_values(correct_only=False)) <= 1

    def test_process_crashing_before_deciding_is_allowed(self):
        adversary = Adversary([2, 2, 2, 2], FailurePattern(4, [CrashEvent(0, 1, frozenset())]))
        run = Run(FloodMin(2), adversary, t=2)
        assert run.decision(0) is None
        assert not check_run_for_protocol(run)


class TestBenignCrashShapes:
    def test_crash_delivering_to_everyone_is_invisible_for_one_round(self):
        n = 5
        receivers = frozenset(q for q in range(n) if q != 0)
        adversary = Adversary([0] + [1] * (n - 1), FailurePattern(n, [CrashEvent(0, 1, receivers)]))
        run = Run(None, adversary, t=1, horizon=2)
        # Nobody perceives the crash at time 1 (all messages arrived) ...
        assert all(run.view(p, 1).known_failure_count() == 0 for p in range(1, n))
        # ... and everybody learns it transitively at time 2.
        assert all(run.view(p, 2).known_failure_count() == 1 for p in range(1, n))

    def test_simultaneous_crashes_in_one_round(self):
        events = [CrashEvent(p, 1, frozenset()) for p in range(3)]
        adversary = Adversary([0, 1, 2, 3, 3, 3], FailurePattern(6, events))
        for protocol in (OptMin(3), UPMin(3), EarlyDecidingKSet(3), UniformEarlyDecidingKSet(3)):
            run = Run(protocol, adversary, t=3)
            assert not check_run_for_protocol(run)

    def test_late_crash_beyond_decision_horizon_is_harmless(self):
        adversary = Adversary([0, 1, 1, 1], FailurePattern(4, [CrashEvent(3, 4, frozenset())]))
        run = Run(OptMin(1), adversary, t=3)
        assert all(run.decision_time(p) is not None for p in run.correct_processes())
        assert run.last_decision_time() <= 2

    def test_every_process_knows_own_value_even_if_isolated(self):
        # A process that receives nothing still sees its own value and decides
        # by the worst-case deadline.
        events = [CrashEvent(p, 1, frozenset()) for p in range(1, 4)]
        adversary = Adversary([2, 0, 1, 2, 2], FailurePattern(5, events))
        run = Run(UPMin(2), adversary, t=3)
        assert run.decision(0) is not None
        assert not check_run_for_protocol(run)


class TestHorizonAndRobustness:
    def test_run_with_explicit_tiny_horizon_keeps_views_consistent(self):
        # The engine clamps the horizon to at least one round.
        adversary = Adversary([0, 1, 1], FailurePattern.failure_free(3))
        run = Run(None, adversary, t=1, horizon=0)
        assert run.view(0, 0).values() == frozenset({0})
        assert run.view(0, 1).values() == frozenset({0, 1})
        assert not run.has_view(0, 2)

    def test_protocol_reuse_across_runs_is_safe(self):
        protocol = OptMin(2)
        context = Context(n=5, t=3, k=2)
        generator = AdversaryGenerator(context, seed=8)
        adversaries = generator.sample(10)
        first = [Run(protocol, a, context.t).decisions() for a in adversaries]
        second = [Run(protocol, a, context.t).decisions() for a in adversaries]
        assert first == second

    def test_runs_are_deterministic(self):
        context = Context(n=6, t=4, k=2)
        adversary = AdversaryGenerator(context, seed=4).random_adversary()
        a = Run(UPMin(2), adversary, context.t)
        b = Run(UPMin(2), adversary, context.t)
        assert a.decisions() == b.decisions()
        witness = min(adversary.pattern.correct)
        assert a.view(witness, 1) == b.view(witness, 1)
