"""Unit tests for bulk checking (CheckReport, exhaustive space checks)."""

from repro import FloodMin, OptMin, UPMin, oracles
from repro.model import Adversary, Context, FailurePattern, Run, RoundContext
from repro.core.protocol import Protocol
from repro.adversaries import RestrictedSpace
from repro.verification import CheckReport, check_protocol


class AlwaysZero(Protocol):
    """Decides 0 immediately regardless of inputs (violates Validity on 1-only runs)."""

    name = "AlwaysZero"

    def decide(self, ctx: RoundContext):
        return 0

    def max_decision_time(self, n, t):
        return 1


class TestCheckReport:
    def test_record_and_summary(self):
        report = CheckReport(protocol="demo")
        run = Run(OptMin(1), Adversary([0, 1, 1], FailurePattern.failure_free(3)), t=1)
        report.record(0, run.last_decision_time(), [])
        assert report.runs_checked == 1
        assert report.ok
        assert report.decision_time_histogram == {1: 1}
        assert "demo" in report.summary()
        assert "OK" in report.summary()

    def test_violations_summary(self):
        report = CheckReport(protocol="demo")
        run = Run(AlwaysZero(1), Adversary([1, 1, 1], FailurePattern.failure_free(3)), t=1)
        from repro.verification import check_validity

        report.record(0, run.last_decision_time(), check_validity(run))
        assert not report.ok
        assert "VIOLATIONS" in report.summary()


class TestCheckProtocol:
    def test_clean_protocol_over_random_family(self, small_context, random_adversaries):
        report = check_protocol(OptMin(2), random_adversaries[:60], small_context.t)
        assert report.ok
        assert report.runs_checked == 60
        assert report.max_decision_time <= small_context.t // 2 + 1

    def test_broken_protocol_is_flagged(self, small_context, random_adversaries):
        report = check_protocol(AlwaysZero(2), random_adversaries[:30], small_context.t)
        assert not report.ok

    def test_engines_produce_identical_reports(self, small_context, random_adversaries):
        batch = check_protocol(OptMin(2), random_adversaries[:30], small_context.t)
        reference = oracles.check_protocol(OptMin(2), random_adversaries[:30], small_context.t)
        assert batch.decision_time_histogram == reference.decision_time_histogram
        assert batch.runs_checked == reference.runs_checked
        assert batch.ok == reference.ok


class TestExhaustiveContextCheck:
    """``check_protocol`` over every member of a restricted space (``iter(space)``)."""

    def test_tiny_consensus_context_is_clean_for_optmin(self):
        context = Context(n=3, t=2, k=1, max_value=1)
        space = RestrictedSpace(context, max_crash_round=2, receiver_policy="canonical")
        report = check_protocol(OptMin(1), iter(space), context.t)
        assert report.ok
        assert report.runs_checked > 500

    def test_tiny_context_is_clean_for_upmin(self):
        context = Context(n=3, t=2, k=1, max_value=1)
        space = RestrictedSpace(context, max_crash_round=2, receiver_policy="canonical")
        report = check_protocol(UPMin(1), iter(space), context.t)
        assert report.ok

    def test_limit_is_respected(self):
        context = Context(n=3, t=2, k=1, max_value=1)
        space = RestrictedSpace(
            context, max_crash_round=2, receiver_policy="canonical", limit=100
        )
        report = check_protocol(OptMin(1), iter(space), context.t)
        assert report.runs_checked == 100
