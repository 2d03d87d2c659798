"""Differential harness: the batch engine against the reference ``Run`` oracle.

The batch engine (:mod:`repro.engine`) re-implements the full-information
simulation on shared copy-on-write arrays; the reference engine stays the
semantic oracle.  These tests pin the two together:

* seeded-random adversary ensembles across n ∈ {3..6}, every protocol family
  (paper protocols, k=1 anchors, baselines), comparing *decisions and
  decision times* run by run;
* structured corners random sampling tends to miss (late crashes, full /
  empty crashing-round deliveries, the paper's figure scenarios);
* the array-backed :class:`repro.engine.ArrayView` against the reference
  :class:`repro.model.view.View` on every node of shared runs (structural
  summaries: seen / evidence / hidden profiles / capacities);
* batch boundaries: a sweep split into batches equals the whole sweep;
* engine plumbing (ordering, horizon defaults, heterogeneous batches).
"""

from __future__ import annotations


import pytest

from repro.adversaries import AdversaryGenerator, figure1_scenario, figure2_scenario, figure4_scenario
from repro.baselines import (
    EarlyDecidingKSet,
    FloodMin,
    UniformEarlyDecidingKSet,
)
from repro.core import Opt0, OptMin, UOpt0, UPMin
from repro.engine import ArrayView, StructLayer, SweepRunner, sweep
from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run


def assert_engines_agree(protocol, adversaries, t):
    """Decisions *and* decision times must match run for run."""
    batch_runs = SweepRunner(protocol, t).sweep(adversaries)
    assert [run.index for run in batch_runs] == list(range(len(adversaries)))
    for adversary, batch_run in zip(adversaries, batch_runs):
        reference = Run(protocol, adversary, t)
        assert batch_run.decisions() == reference.decisions(), (
            f"{protocol.name} diverges on {adversary!r}"
        )
        assert batch_run.last_decision_time() == reference.last_decision_time()
        assert batch_run.decided_values() == reference.decided_values()


def protocols_for(k: int):
    pool = [OptMin(k), UPMin(k), EarlyDecidingKSet(k), UniformEarlyDecidingKSet(k), FloodMin(k)]
    if k == 1:
        pool += [Opt0(), UOpt0()]
    return pool


class TestRandomEnsembles:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_protocols_on_random_adversaries(self, n):
        t = min(n - 1, 3)
        k = 2 if n > 3 else 1
        context = Context(n=n, t=t, k=k)
        adversaries = AdversaryGenerator(context, seed=1000 + n).sample(60)
        for protocol in protocols_for(k):
            assert_engines_agree(protocol, adversaries, context.t)

    def test_binary_consensus_ensemble(self):
        context = Context(n=5, t=3, k=1, max_value=1)
        adversaries = AdversaryGenerator(context, seed=77).sample(80)
        for protocol in protocols_for(1):
            assert_engines_agree(protocol, adversaries, context.t)


class TestStructuredCorners:
    def test_figure_scenarios(self):
        for scenario in (
            figure1_scenario(chain_length=2),
            figure2_scenario(k=3, depth=2),
            figure4_scenario(k=3, rounds=4),
        ):
            context = scenario.context
            protocol = UPMin(context.k)
            assert_engines_agree(protocol, [scenario.adversary], context.t)

    def test_full_delivery_then_silence(self):
        # A crasher that delivers its entire crashing round and only then
        # falls silent: evidence appears one round late, which exercised a
        # real bug during engine development (inactive non-senders must still
        # generate fresh evidence).
        n = 4
        values = [2, 2, 2, 1]
        pattern = FailurePattern(n, [CrashEvent(3, 1, frozenset({0, 1, 2}))])
        adversaries = [Adversary(values, pattern)]
        for protocol in protocols_for(2):
            assert_engines_agree(protocol, adversaries, 2)

    def test_late_crashes_and_mixed_deliveries(self):
        n = 5
        patterns = [
            FailurePattern(n, [CrashEvent(0, 3, frozenset())]),
            FailurePattern(n, [CrashEvent(0, 1, frozenset({1})), CrashEvent(1, 2, frozenset({2}))]),
            FailurePattern(n, [CrashEvent(2, 2, frozenset({0, 1, 3, 4}))]),
            FailurePattern(n, [CrashEvent(4, 1, frozenset({0})), CrashEvent(0, 3, frozenset({1, 2}))]),
        ]
        adversaries = [Adversary([1, 0, 2, 2, 1], p) for p in patterns]
        for protocol in protocols_for(2):
            assert_engines_agree(protocol, adversaries, 3)


class TestArrayViewAgainstView:
    def test_structural_summaries_match_reference_views(self):
        context = Context(n=5, t=3, k=2)
        generator = AdversaryGenerator(context, seed=5)
        for adversary in generator.sample(10):
            reference = Run(None, adversary, context.t, horizon=3)
            layer = StructLayer.root(adversary.n)
            for time in range(0, 4):
                if time > 0:
                    events = tuple(
                        sorted(
                            (e for e in adversary.pattern.crashes if e.round == time),
                            key=lambda e: e.process,
                        )
                    )
                    layer = layer.child(events)
                for process in range(adversary.n):
                    if not reference.has_view(process, time):
                        assert layer.rows_seen[process] is None
                        continue
                    view = reference.view(process, time)
                    array_view = ArrayView(layer, process, adversary.values)
                    assert array_view.latest_seen == view.latest_seen
                    assert array_view.earliest_evidence == view.earliest_evidence
                    assert array_view.values() == view.values()
                    assert array_view.min_value() == view.min_value()
                    assert array_view.hidden_profile() == view.hidden_profile()
                    assert array_view.hidden_capacity() == view.hidden_capacity()
                    assert array_view.known_failure_count() == view.known_failure_count()
                    assert array_view.known_crashed_processes() == view.known_crashed_processes()

    def test_negative_layer_rejected_like_reference(self):
        adversary = Adversary([0, 1, 1], FailurePattern.failure_free(3))
        reference = Run(None, adversary, t=1, horizon=1)
        array_view = ArrayView(StructLayer.root(3).child(()), 0, adversary.values)
        for view in (reference.view(0, 1), array_view):
            with pytest.raises(ValueError, match="layer must be >= 0"):
                view.hidden_count_at(-1)
            with pytest.raises(ValueError, match="layer must be >= 0"):
                view.hidden_processes_at(-1)


class TestBatchBoundaries:
    @pytest.mark.parametrize("protocol", [UPMin(2), OptMin(2)], ids=["upmin", "optmin"])
    def test_batches_preserve_order_and_results(self, protocol):
        context = Context(n=4, t=2, k=2)
        adversaries = AdversaryGenerator(context, seed=4).sample(30)
        runner = SweepRunner(protocol, context.t)
        whole = runner.sweep(adversaries)
        batches = [runner.sweep(adversaries[start : start + 7]) for start in range(0, 30, 7)]
        assert [run.index for batch in batches for run in batch] == [i % 7 for i in range(30)]
        batched = [run for batch in batches for run in batch]
        assert [run.adversary for run in batched] == adversaries
        assert [run.decisions() for run in batched] == [run.decisions() for run in whole]
        assert [run.last_decision_time() for run in batched] == [
            run.last_decision_time() for run in whole
        ]


class TestPlumbing:
    def test_empty_batch(self):
        runner = SweepRunner(OptMin(2), 2)
        assert runner.sweep([]) == []
        assert runner.last_report.adversaries == 0

    def test_mixed_system_sizes_rejected(self):
        a3 = Adversary([0, 1, 1], FailurePattern.failure_free(3))
        a4 = Adversary([0, 1, 1, 1], FailurePattern.failure_free(4))
        with pytest.raises(ValueError, match="homogeneous"):
            sweep(OptMin(1), [a3, a4], t=1)

    def test_protocol_required(self):
        adversary = Adversary([0, 1, 1], FailurePattern.failure_free(3))
        with pytest.raises(ValueError, match="requires a protocol"):
            sweep(None, [adversary], t=1)

    def test_crash_bound_enforced(self):
        pattern = FailurePattern(3, [CrashEvent(0, 1), CrashEvent(1, 1)])
        adversary = Adversary([0, 1, 1], pattern)
        with pytest.raises(ValueError):
            sweep(OptMin(1), [adversary], t=1)

    def test_horizon_defaults_match_reference(self):
        adversary = Adversary([2, 2, 2, 2], FailurePattern.failure_free(4))
        protocol = FloodMin(2)
        batch_run = sweep(protocol, [adversary], t=2)[0]
        reference = Run(protocol, adversary, 2)
        assert batch_run.horizon == reference.horizon

    def test_sweep_report_accounts_for_sharing(self):
        context = Context(n=4, t=2, k=2)
        # Same pattern, many input vectors: structure is simulated once.
        pattern = FailurePattern(4, [CrashEvent(0, 1, frozenset({1}))])
        adversaries = [
            Adversary(values, pattern)
            for values in [(0, 1, 2, 0), (1, 1, 1, 1), (2, 2, 2, 2), (0, 0, 0, 0)]
        ]
        runner = SweepRunner(OptMin(2), context.t)
        runner.sweep(adversaries)
        report = runner.last_report
        assert report.adversaries == 4
        assert report.sharing_factor > 1.0
        assert "sharing" in report.summary()
