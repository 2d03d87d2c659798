"""Unit tests for the analysis / reporting helpers."""


from repro import EarlyDecidingKSet, FloodMin, OptMin, UPMin
from repro.analysis import (
    ProtocolStatistics,
    collect,
    format_table,
    render_run,
    speedup_table,
    statistics_report,
)
from repro.adversaries import figure4_scenario
from repro.model import Adversary, FailurePattern, Run


class TestProtocolStatistics:
    def test_record_and_mean(self):
        stats = ProtocolStatistics(protocol="demo")
        stats.record(1, bound=None)
        stats.record(3, bound=None)
        assert stats.runs == 2
        assert stats.mean_time == 2.0
        assert stats.worst_time == 3
        assert stats.histogram == {1: 1, 3: 1}

    def test_undecided_and_bound_violations(self):
        stats = ProtocolStatistics(protocol="demo")
        stats.record(None, bound=None)
        stats.record(5, bound=4)
        assert stats.undecided_runs == 1
        assert stats.bound_violations == 1

    def test_summary_text(self):
        stats = ProtocolStatistics(protocol="demo")
        stats.record(2, bound=None)
        assert "demo" in stats.summary()
        assert "t=2" in stats.summary()


class TestCollect:
    def test_collect_over_adversaries(self, small_context, random_adversaries):
        stats = collect([OptMin(2), FloodMin(2)], random_adversaries[:30], small_context.t)
        assert set(stats) == {"Optmin[k]", "FloodMin"}
        assert stats["FloodMin"].worst_time == small_context.t // 2 + 1
        assert stats["Optmin[k]"].mean_time <= stats["FloodMin"].mean_time

    def test_collect_accepts_one_shot_iterators(self, small_context, random_adversaries):
        # Regression: a generator input must not be exhausted by the engine
        # before the statistics zip over it (silently recording zero runs).
        stats = collect(
            [OptMin(2), FloodMin(2)],
            iter(random_adversaries[:20]),
            small_context.t,
        )
        assert stats["Optmin[k]"].runs == 20
        assert stats["FloodMin"].runs == 20

    def test_collect_with_bound_function(self, small_context, random_adversaries):
        stats = collect(
            [OptMin(2)],
            random_adversaries[:30],
            small_context.t,
            bound_for=lambda protocol, adversary: adversary.num_failures // 2 + 1,
        )
        assert stats["Optmin[k]"].bound_violations == 0

    def test_speedup_table_on_fig4(self):
        scenario = figure4_scenario(k=3, rounds=4)
        table = speedup_table(
            UPMin(3),
            [FloodMin(3), EarlyDecidingKSet(3)],
            [scenario.adversary],
            scenario.context.t,
        )
        for entry in table.values():
            assert entry["mean_rounds_saved"] == 3.0
            assert entry["fraction_strictly_faster"] == 1.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_run_marks_crashes_and_decisions(self):
        scenario = figure4_scenario(k=3, rounds=3)
        run = Run(UPMin(3), scenario.adversary, scenario.context.t)
        text = render_run(run, max_time=3)
        assert "†" in text
        assert "*3" in text
        assert "faulty" in text

    def test_render_run_failure_free(self):
        run = Run(OptMin(1), Adversary([0, 1, 1], FailurePattern.failure_free(3)), t=1)
        text = render_run(run)
        assert "p0" in text and "*0" in text

    def test_statistics_report(self, small_context, random_adversaries):
        stats = collect([OptMin(2)], random_adversaries[:10], small_context.t)
        text = statistics_report(stats)
        assert "Optmin[k]" in text
        assert "mean" in text
