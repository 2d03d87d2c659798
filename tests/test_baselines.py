"""Unit tests for the baseline protocols (FloodMin and the new-failure-counting rules)."""

import pytest

from repro import (
    EarlyDecidingKSet,
    EarlyStoppingConsensus,
    FloodMin,
    OptMin,
    UniformEarlyDecidingKSet,
    UniformEarlyStoppingConsensus,
)
from repro.adversaries import AdversaryGenerator, figure2_scenario
from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run
from repro.verification import check_nonuniform_run, check_uniform_run


def silent_block_crashes(n, k, rounds):
    """``k`` crashes in each of the first ``rounds`` rounds, each delivering to nobody.

    Processes ``0 .. k*rounds - 1`` crash in round-major order and everyone
    holds ``k``: every survivor perceives exactly ``k`` new failures per
    round, the worst case for the failure-counting baselines.
    """
    events = [CrashEvent(process, process // k + 1) for process in range(k * rounds)]
    return Adversary([k] * n, FailurePattern(n, events))


class TestSilentBlockCrashes:
    """The worst-case fixture above has the shape its docstring promises."""

    def test_failure_count_and_rounds(self):
        adversary = silent_block_crashes(n=10, k=3, rounds=2)
        assert adversary.num_failures == 6
        by_round = {}
        for event in adversary.pattern.crashes:
            by_round.setdefault(event.round, set()).add(event.process)
        assert by_round == {1: {0, 1, 2}, 2: {3, 4, 5}}

    def test_crashes_deliver_nothing(self):
        adversary = silent_block_crashes(n=8, k=2, rounds=2)
        for event in adversary.pattern.crashes:
            assert event.receivers == frozenset()
        assert adversary.values == (2,) * 8

    def test_survivors_see_k_new_failures_per_round(self):
        adversary = silent_block_crashes(n=10, k=2, rounds=3)
        run = Run(None, adversary, t=6, horizon=3)
        for time in range(4):
            for view in run.views_at(time).values():
                assert view.known_failure_count() == 2 * time


class TestFloodMin:
    def test_decides_exactly_at_deadline(self):
        context = Context(n=6, t=4, k=2)
        run = Run(FloodMin(2), Adversary([2] * 6, FailurePattern.failure_free(6)), context.t)
        for p in range(6):
            assert run.decision_time(p) == 3  # ⌊4/2⌋ + 1

    def test_never_decides_early_even_without_failures(self):
        context = Context(n=4, t=3, k=1)
        run = Run(FloodMin(1), Adversary([0, 0, 0, 0], FailurePattern.failure_free(4)), context.t)
        assert run.last_decision_time() == 4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solves_uniform_k_set_consensus(self, k):
        context = Context(n=3 * k + 1, t=2 * k, k=k)
        generator = AdversaryGenerator(context, seed=k)
        for adversary in generator.sample(50):
            run = Run(FloodMin(k), adversary, context.t)
            assert not check_uniform_run(run, k, context.t // k + 1)


class TestEarlyDecidingKSet:
    def test_new_failure_counting_matches_view(self, small_context, generator):
        for adversary in generator.sample(20):
            run = Run(EarlyDecidingKSet(2), adversary, small_context.t)
            # Re-derive perceived counts from consecutive views.
            for p in range(small_context.n):
                time = 1
                while run.has_view(p, time) and run.has_view(p, time - 1):
                    perceived = (
                        run.view(p, time).known_failure_count()
                        - run.view(p, time - 1).known_failure_count()
                    )
                    assert perceived >= 0
                    time += 1

    def test_decides_next_round_in_failure_free_run(self):
        context = Context(n=5, t=3, k=2)
        run = Run(EarlyDecidingKSet(2), Adversary([2] * 5, FailurePattern.failure_free(5)), context.t)
        assert run.last_decision_time() == 1

    def test_blocked_while_k_new_failures_per_round(self):
        # k silent crashes per round keep the protocol undecided until the
        # crashes stop.
        adversary = silent_block_crashes(n=10, k=2, rounds=3)
        run = Run(EarlyDecidingKSet(2), adversary, t=6)
        assert run.last_decision_time() == 4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solves_nonuniform_k_set_consensus(self, k):
        context = Context(n=3 * k + 1, t=2 * k, k=k)
        generator = AdversaryGenerator(context, seed=10 + k)
        for adversary in generator.sample(50):
            run = Run(EarlyDecidingKSet(k), adversary, context.t)
            bound = adversary.num_failures // k + 1
            assert not check_nonuniform_run(run, k, bound)

    def test_dominated_by_optmin(self, small_context, random_adversaries):
        """Optmin[k] decides no later than the new-failure rule, everywhere."""
        for adversary in random_adversaries:
            baseline = Run(EarlyDecidingKSet(2), adversary, small_context.t)
            optmin = Run(OptMin(2), adversary, small_context.t)
            for p in range(small_context.n):
                bt, ot = baseline.decision_time(p), optmin.decision_time(p)
                if bt is not None:
                    assert ot is not None and ot <= bt


class TestUniformEarlyDecidingKSet:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solves_uniform_k_set_consensus(self, k):
        context = Context(n=3 * k + 1, t=2 * k, k=k)
        generator = AdversaryGenerator(context, seed=20 + k)
        for adversary in generator.sample(50):
            run = Run(UniformEarlyDecidingKSet(k), adversary, context.t)
            bound = min(context.t // k + 1, adversary.num_failures // k + 2)
            assert not check_uniform_run(run, k, bound)

    def test_waits_one_round_after_semi_clean_round(self):
        context = Context(n=5, t=3, k=2)
        run = Run(
            UniformEarlyDecidingKSet(2),
            Adversary([2] * 5, FailurePattern.failure_free(5)),
            context.t,
        )
        assert run.last_decision_time() == 2

    def test_deadline_caps_decision_time(self):
        adversary = silent_block_crashes(n=12, k=2, rounds=4)
        run = Run(UniformEarlyDecidingKSet(2), adversary, t=8)
        assert run.last_decision_time() == 5  # ⌊8/2⌋ + 1


class TestConsensusInstances:
    def test_early_stopping_consensus_is_k1(self):
        assert EarlyStoppingConsensus().k == 1
        assert UniformEarlyStoppingConsensus().k == 1
        assert not EarlyStoppingConsensus().uniform
        assert UniformEarlyStoppingConsensus().uniform

    def test_early_stopping_consensus_solves_consensus(self):
        context = Context(n=5, t=3, k=1, max_value=1)
        generator = AdversaryGenerator(context, seed=31)
        for adversary in generator.sample(60):
            run = Run(EarlyStoppingConsensus(), adversary, context.t)
            assert not check_nonuniform_run(run, 1, adversary.num_failures + 1)

    def test_uniform_early_stopping_solves_uniform_consensus(self):
        context = Context(n=5, t=3, k=1, max_value=1)
        generator = AdversaryGenerator(context, seed=32)
        for adversary in generator.sample(60):
            run = Run(UniformEarlyStoppingConsensus(), adversary, context.t)
            bound = min(context.t + 1, adversary.num_failures + 2)
            assert not check_uniform_run(run, 1, bound)

    def test_fig2_forces_full_delay_on_baselines(self):
        """On the hidden-chain adversary the baseline is as slow as Optmin — both need depth+1."""
        scenario = figure2_scenario(k=2, depth=2)
        run = Run(EarlyDecidingKSet(2), scenario.adversary, scenario.context.t)
        assert run.last_decision_time() == 3
