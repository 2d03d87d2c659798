"""Differential battery: verdicts judged once per trie group equal per-run checks.

:func:`repro.verification.checker.fold_checks` judges each member from its
trie group's decision summary
(:func:`repro.verification.properties.summary_verdict`) and re-checks only
the members it flags.  Its verdicts must equal ``(last correct decision
time, check_run_for_protocol(run))`` of the per-adversary reference run,
member for member, and its report must equal the ``repro.oracles`` report
byte for byte — for correct protocols, for broken ones that violate each
property, over members, hash-dedup representatives and generated orbits
(:func:`repro.oracles.symmetry_stream`), with the paper bound on and off,
and with groups cut across batch boundaries.
"""

from __future__ import annotations

import functools

import pytest

from repro import oracles
from repro.adversaries import RestrictedSpace
from repro.baselines import EarlyDecidingKSet, FloodMin
from repro.core import Opt0, OptMin, UOpt0, UPMin
from repro.core.protocol import Protocol
from repro.engine import SweepRunner
from repro.model import Context
from repro.verification import check_run_for_protocol
from repro.verification.checker import CheckReport, fold_checks

#: k=2 space: up to two silent crashes in round 1.
SET_SPACE = RestrictedSpace(Context(n=4, t=2, k=2), max_crash_round=1, receiver_policy="none")
#: k=1 space: up to two crashes (one process left correct), all in round 1.
CONSENSUS_SPACE = RestrictedSpace(Context(n=3, t=2, k=1), max_crash_round=1)


class WrongValue(Protocol):
    """Decides one above its minimum at time 1: sometimes a value nobody holds."""

    name = "WrongValue"

    def decide(self, ctx):
        return ctx.view.min_value() + 1 if ctx.time >= 1 else None

    def max_decision_time(self, n, t):
        return 1


class Mute(Protocol):
    """Decides its minimum at time 1 unless it knows of a failure; then never."""

    name = "Mute"

    def decide(self, ctx):
        if ctx.time >= 1 and ctx.view.known_failure_count() == 0:
            return ctx.view.min_value()
        return None

    def max_decision_time(self, n, t):
        return 1


class EagerMin(Protocol):
    """Decides its minimum at time 1: correct processes disagree when a crash hides a value."""

    name = "EagerMin"

    def decide(self, ctx):
        return ctx.view.min_value() if ctx.time >= 1 else None

    def max_decision_time(self, n, t):
        return 1


class UniformOptMin(OptMin):
    """Optmin[k] claimed uniform: a faulty early decider can disagree with the rest."""

    name = "Optmin-as-uniform"
    uniform = True


class EagerBoundOpt0(Opt0):
    """Opt0 declaring the bound ``f``: one round tighter than it decides."""

    name = "Opt0-eager-bound"

    def decision_bound(self, f):
        return f


#: name -> (protocol, space, the property it must violate or None).
CASES = {
    "optmin": (OptMin(2), SET_SPACE, None),
    "upmin": (UPMin(2), SET_SPACE, None),
    "floodmin": (FloodMin(2), SET_SPACE, None),
    "early-deciding": (EarlyDecidingKSet(2), SET_SPACE, None),
    "opt0": (Opt0(), CONSENSUS_SPACE, None),
    "uopt0": (UOpt0(), CONSENSUS_SPACE, None),
    "validity": (WrongValue(1), CONSENSUS_SPACE, "validity"),
    "decision": (Mute(1), CONSENSUS_SPACE, "decision"),
    "k-agreement": (EagerMin(1), CONSENSUS_SPACE, "k-agreement"),
    "uniform-agreement": (UniformOptMin(1), CONSENSUS_SPACE, "uniform-k-agreement"),
    "time-bound": (EagerBoundOpt0(), CONSENSUS_SPACE, "decision-time"),
}


class RecordingReport(CheckReport):
    """A report that also keeps each folded verdict."""

    def __init__(self, protocol: str) -> None:
        super().__init__(protocol=protocol)
        self.verdicts = []

    def record(self, index, decision_time, run_violations, weight=1):
        self.verdicts.append((index, decision_time, run_violations))
        super().record(index, decision_time, run_violations, weight)


@functools.lru_cache(maxsize=None)
def reference(case: str, symmetry: str, enforce_paper_bound: bool):
    """The per-run verdicts and the oracle report payload of one case."""
    protocol, space, _property = CASES[case]
    t = space.context.t
    runner = oracles.ReferenceRunner(protocol, t)
    stream = list(oracles.symmetry_stream(space, symmetry))
    verdicts = [
        (index, run.last_decision_time(correct_only=True), check_run_for_protocol(run, enforce_paper_bound))
        for (index, _adversary, _weight), run in zip(
            stream, runner.sweep(adversary for _index, adversary, _weight in stream)
        )
    ]
    payload = oracles.check_protocol(protocol, space, t, enforce_paper_bound, symmetry).to_payload()
    return verdicts, payload


#: Each leg's paper-bound flag and ``fold_checks`` attachments: the paper
#: bound and the worst-case bound at the default batch size, and batches of
#: 7 adversaries, which cut trie groups across batch boundaries (the bound
#: and the batching are independent, so the batched leg takes one bound).
RUNNERS = {
    "paper-bound": (True, {}),
    "worst-case": (False, {}),
    "batched": (True, {"batch_size": 7}),
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
@pytest.mark.parametrize("symmetry", ["none", "quotient", "constructive"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_group_verdicts_equal_per_run_checks(case, symmetry, runner):
    protocol, space, _property = CASES[case]
    t = space.context.t
    enforce_paper_bound, attachments = RUNNERS[runner]
    report = RecordingReport(protocol.name)
    fold_checks(
        report,
        oracles.symmetry_stream(space, symmetry),
        SweepRunner(protocol, t),
        enforce_paper_bound,
        **attachments,
    )
    verdicts, payload = reference(case, symmetry, enforce_paper_bound)
    assert report.verdicts == verdicts
    assert report.to_payload() == payload


@pytest.mark.parametrize("case", sorted(name for name, spec in CASES.items() if spec[2]))
def test_broken_protocols_violate_their_property(case):
    """Each broken protocol trips the property it is built to break, and only
    on some members, so both the flagged and the clean verdict paths run."""
    _protocol, space, property_name = CASES[case]
    verdicts, _payload = reference(case, "none", True)
    flagged = [violations for _index, _time, violations in verdicts if violations]
    assert property_name in {v.property_name for violations in flagged for v in violations}
    assert 0 < len(flagged) < len(verdicts)


def test_clean_verdicts_are_judged_once_per_group(monkeypatch):
    """``batch_verdicts`` judges a clean ``(summary, correct mask, bound)``
    once, and gives every run its own violations list."""
    from repro.verification import properties

    calls = []
    judge = properties.summary_verdict

    def counting(run, summary, correct, bound, enforce_paper_bound=True):
        calls.append((id(summary), correct, bound))
        return judge(run, summary, correct, bound, enforce_paper_bound)

    monkeypatch.setattr(properties, "summary_verdict", counting)
    # Two-round spaces: members that differ only in a crash nobody acts on
    # share a summary and a correct set.
    for protocol, space in (
        (OptMin(2), RestrictedSpace(Context(n=4, t=1, k=2), max_crash_round=2)),
        (EagerMin(1), RestrictedSpace(Context(n=3, t=2, k=1), max_crash_round=2)),
    ):
        runs = SweepRunner(protocol, space.context.t).sweep(list(space))
        verdicts = list(properties.batch_verdicts(runs))
        expected = [
            (run.last_decision_time(correct_only=True), check_run_for_protocol(run))
            for run in runs
        ]
        assert verdicts == expected
        assert len({id(violations) for _time, violations in verdicts}) == len(verdicts)
        keys = {
            (id(run.decision_summary()), sum(1 << p for p in run.adversary.pattern.correct))
            for run in runs
        }
        assert len(keys) <= len(calls) < len(runs)
        calls.clear()
