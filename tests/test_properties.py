"""Unit tests for the specification property checkers."""

import pytest

from repro import FloodMin, OptMin, UPMin
from repro.model import Adversary, CrashEvent, FailurePattern, Run, RoundContext
from repro.core.protocol import Protocol
from repro.verification import (
    check_agreement,
    check_decision,
    check_decision_times,
    check_nonuniform_run,
    check_run_for_protocol,
    check_uniform_agreement,
    check_uniform_run,
    check_validity,
    proposition1_bound,
    theorem3_bound,
)


class BrokenValidity(Protocol):
    """Decides a value nobody proposed — used to exercise the Validity checker."""

    name = "BrokenValidity"

    def decide(self, ctx: RoundContext):
        return 99

    def max_decision_time(self, n, t):
        return 1


class NeverDecides(Protocol):
    """Never decides — used to exercise the Decision checker."""

    name = "NeverDecides"

    def decide(self, ctx: RoundContext):
        return None

    def max_decision_time(self, n, t):
        return 1


class DecideOwnValue(Protocol):
    """Everybody decides its own initial value immediately (breaks agreement)."""

    name = "DecideOwnValue"

    def decide(self, ctx: RoundContext):
        return ctx.view.min_value()

    def max_decision_time(self, n, t):
        return 1


class SlowFloodMin(FloodMin):
    """FloodMin that waits one extra round — used to exercise the time-bound checker."""

    name = "SlowFloodMin"

    def decide(self, ctx: RoundContext):
        if ctx.time == ctx.t // self.k + 2:
            return ctx.view.min_value()
        return None

    def max_decision_time(self, n, t):
        return t // self.k + 2


def failure_free(values):
    return Adversary(values, FailurePattern.failure_free(len(values)))


class TestIndividualCheckers:
    def test_validity_violation_detected(self):
        run = Run(BrokenValidity(1), failure_free([0, 1, 1]), t=1)
        violations = check_validity(run)
        assert violations and violations[0].property_name == "validity"

    def test_validity_ok_for_optmin(self):
        run = Run(OptMin(1), failure_free([0, 1, 1]), t=1)
        assert check_validity(run) == []

    def test_decision_violation_detected(self):
        run = Run(NeverDecides(1), failure_free([0, 1, 1]), t=1)
        violations = check_decision(run)
        assert len(violations) == 3
        assert all(v.property_name == "decision" for v in violations)

    def test_agreement_violation_detected(self):
        run = Run(DecideOwnValue(1), failure_free([0, 1, 1]), t=1)
        assert check_agreement(run, k=1)
        assert not check_agreement(run, k=2)

    def test_uniform_agreement_counts_faulty_deciders(self):
        # p0 decides 0 then crashes; survivors decide 1 — uniform 1-agreement broken.
        adversary = Adversary([0, 1, 1], FailurePattern(3, [CrashEvent(0, 1, frozenset())]))
        run = Run(DecideOwnValue(1), adversary, t=1)
        assert check_uniform_agreement(run, k=1)
        assert not check_agreement(run, k=1)

    def test_decision_time_violation_detected(self):
        run = Run(SlowFloodMin(1), failure_free([0, 1, 1]), t=1)
        assert check_decision_times(run, bound=2)
        assert not check_decision_times(run, bound=3)

    def test_violation_string_rendering(self):
        run = Run(BrokenValidity(1), failure_free([0, 1, 1]), t=1)
        text = str(check_validity(run)[0])
        assert "validity" in text and "99" in text


class TestCompositeCheckers:
    def test_nonuniform_run_check_clean(self):
        run = Run(OptMin(2), failure_free([0, 1, 2, 2]), t=2)
        assert check_nonuniform_run(run, k=2, time_bound=1) == []

    def test_uniform_run_check_clean(self):
        run = Run(UPMin(2), failure_free([0, 1, 2, 2]), t=2)
        assert check_uniform_run(run, k=2, time_bound=2) == []

    def test_check_run_for_protocol_requires_protocol(self):
        run = Run(None, failure_free([0, 1]), t=1)
        with pytest.raises(ValueError):
            check_run_for_protocol(run)

    def test_check_run_for_protocol_uses_early_bound(self):
        # SlowFloodMin exceeds its own f-dependent bound? It has no
        # decision_bound attribute, so the worst-case bound is used and the
        # run is accepted.
        run = Run(SlowFloodMin(1), failure_free([0, 1, 1]), t=1)
        assert check_run_for_protocol(run) == []

    def test_check_run_for_protocol_flags_optmin_violating_bound(self):
        """A deliberately slowed protocol masquerading with a decision_bound is flagged."""

        class LateOptMin(OptMin):
            name = "LateOptMin"

            def decide(self, ctx):
                if ctx.time < 2:
                    return None
                return super().decide(ctx)

        run = Run(LateOptMin(2), failure_free([2, 2, 2, 2]), t=2)
        violations = check_run_for_protocol(run)
        assert any(v.property_name == "decision-time" for _, v in enumerate(violations) for v in [v])


class TestBounds:
    @pytest.mark.parametrize(
        "k,f,expected", [(1, 0, 1), (1, 3, 4), (2, 3, 2), (2, 4, 3), (3, 7, 3)]
    )
    def test_proposition1(self, k, f, expected):
        assert proposition1_bound(k, f) == expected

    @pytest.mark.parametrize(
        "k,t,f,expected", [(1, 3, 0, 2), (1, 3, 3, 4), (2, 4, 0, 2), (2, 4, 4, 3), (3, 9, 3, 3)]
    )
    def test_theorem3(self, k, t, f, expected):
        assert theorem3_bound(k, t, f) == expected
