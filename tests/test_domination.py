"""Unit tests for domination / strict domination / last-decider comparisons."""

import pytest

from repro import EarlyDecidingKSet, FloodMin, OptMin, UPMin, UniformEarlyDecidingKSet, oracles
from repro.adversaries import RestrictedSpace, figure4_scenario
from repro.model import Adversary, Context, FailurePattern, Run
from repro.verification import (
    DecisionProfile,
    compare_protocols,
    decision_time_table,
    last_decider_compare,
)


class TestDecisionProfile:
    def test_from_run(self):
        run = Run(OptMin(1), Adversary([0, 1, 1], FailurePattern.failure_free(3)), t=1)
        profile = DecisionProfile.from_run(run)
        assert profile.protocol_name == "Optmin[k]"
        assert profile.times == (0, 1, 1)
        assert profile.last_correct_decision == 1


class TestCompareProtocols:
    def test_protocol_dominates_itself(self, small_context, random_adversaries):
        report = compare_protocols(OptMin(2), OptMin(2), random_adversaries[:40], small_context.t)
        assert report.dominates
        assert not report.strictly_dominates
        assert report.rounds_saved == 0

    def test_optmin_strictly_dominates_floodmin(self, small_context, random_adversaries):
        report = compare_protocols(OptMin(2), FloodMin(2), random_adversaries[:60], small_context.t)
        assert report.strictly_dominates
        assert report.rounds_saved > 0

    def test_optmin_dominates_early_deciding_baseline(self, small_context, random_adversaries):
        report = compare_protocols(
            OptMin(2), EarlyDecidingKSet(2), random_adversaries[:60], small_context.t
        )
        assert report.dominates

    def test_floodmin_does_not_dominate_optmin(self, small_context, random_adversaries):
        report = compare_protocols(FloodMin(2), OptMin(2), random_adversaries[:40], small_context.t)
        assert not report.dominates
        assert report.counterexamples

    def test_upmin_dominates_uniform_baseline_on_fig4(self):
        scenario = figure4_scenario(k=3, rounds=4)
        report = compare_protocols(
            UPMin(3), UniformEarlyDecidingKSet(3), [scenario.adversary], scenario.context.t
        )
        assert report.strictly_dominates
        # Every correct process improves by (rounds + 1) - 2 = 3 rounds.
        assert report.rounds_saved >= 3 * len(scenario.roles["correct"])

    def test_summary_mentions_verdict(self, small_context, random_adversaries):
        report = compare_protocols(OptMin(2), FloodMin(2), random_adversaries[:20], small_context.t)
        assert "dominates" in report.summary()

    def test_adversary_count_recorded(self, small_context, random_adversaries):
        report = compare_protocols(OptMin(2), FloodMin(2), random_adversaries[:25], small_context.t)
        assert report.adversaries_checked == 25


class TestLastDecider:
    def test_last_decider_self_comparison(self, small_context, random_adversaries):
        report = last_decider_compare(UPMin(2), UPMin(2), random_adversaries[:30], small_context.t)
        assert report.dominates and not report.strictly_dominates

    def test_upmin_last_decider_beats_floodmin(self, small_context, random_adversaries):
        report = last_decider_compare(UPMin(2), FloodMin(2), random_adversaries[:60], small_context.t)
        assert report.dominates
        assert report.improvements

    def test_last_decider_table_uses_sentinel_process(self, small_context, random_adversaries):
        report = last_decider_compare(OptMin(2), FloodMin(2), random_adversaries[:10], small_context.t)
        for entry in report.improvements:
            assert entry[1] == -1


class TestDecisionTimeTable:
    def test_table_shape(self, small_context, random_adversaries):
        protocols = [OptMin(2), FloodMin(2)]
        table = decision_time_table(protocols, random_adversaries[:15], small_context.t)
        assert set(table) == {"Optmin[k]", "FloodMin"}
        assert all(len(column) == 15 for column in table.values())

    def test_floodmin_column_is_constant(self, small_context, random_adversaries):
        table = decision_time_table([FloodMin(2)], random_adversaries[:15], small_context.t)
        assert set(table["FloodMin"]) == {small_context.t // 2 + 1}


class TestAgainstReferenceOracle:
    """The batch comparisons equal the per-adversary ``Run`` loops of ``repro.oracles``."""

    @pytest.mark.parametrize("symmetry", ["none", "quotient", "constructive"])
    @pytest.mark.parametrize(
        "compare",
        ["compare_protocols", "last_decider_compare"],
    )
    def test_reports_identical(self, small_context, random_adversaries, compare, symmetry):
        """Production over members (a list) or orbits (a space) equals the oracle.

        The hash-dedup quotient has no production path: its oracle report
        must carry the member-by-member aggregates.
        """
        production = {
            "compare_protocols": compare_protocols,
            "last_decider_compare": last_decider_compare,
        }[compare]
        family, t = random_adversaries[:40], small_context.t
        if symmetry == "constructive":
            family, t = RestrictedSpace(Context(n=4, t=3, k=2), max_crash_round=2, limit=300), 3
        batch = production(UPMin(2), FloodMin(2), family, t)
        reference = getattr(oracles, compare)(UPMin(2), FloodMin(2), family, t, symmetry=symmetry)
        if symmetry == "quotient":
            for field in ("dominates", "strictly_dominates", "adversaries_checked", "rounds_saved"):
                assert getattr(reference, field) == getattr(batch, field)
        else:
            assert batch == reference
        assert batch.improvements

    def test_decision_time_table_identical(self, small_context, random_adversaries):
        protocols = [OptMin(2), UPMin(2), FloodMin(2)]
        family = random_adversaries[:30]
        assert decision_time_table(protocols, family, small_context.t) == (
            oracles.decision_time_table(protocols, family, small_context.t)
        )
