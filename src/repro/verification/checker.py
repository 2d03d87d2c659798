"""Bulk correctness checking over adversary families (exhaustive or sampled).

The paper's theorems are of the form "for every adversary, ...".  This module
discharges those quantifiers over finite families: it runs a protocol against
every adversary of an enumerated or sampled family, applies the property
checks of :mod:`repro.verification.properties`, and aggregates the outcome
into a :class:`CheckReport` that the exhaustive tests and the PROP1/THM3
benchmarks consume.

Every entry point runs on the prefix-sharing batch engine of
:mod:`repro.engine`, which amortises simulation work across the family.  The
per-adversary :class:`repro.model.run.Run` path it is differentially tested
against is the :func:`repro.oracles.check_protocol` fixture.

A family's type picks its stream (:func:`repro.pipeline.family_stream`).
A :class:`repro.adversaries.RestrictedSpace` (or an
:func:`repro.adversaries.enumerate_orbits` stream) is swept one generated
representative per process-renaming orbit, its outcome folded into the
report with the orbit size as weight.  Every recorded quantity — violation
existence, the decision-time histogram, the maximum decision time — is
constant on renaming orbits (decision times transport along the renaming,
decision values are untouched), so the orbit report reproduces the
member-by-member census exactly; ``tests/test_constructive_enumeration.py``
and ``tests/test_quotient_differential.py`` pin the identity.  Violations
are reported once per orbit (the representative is the concrete
counterexample; the rest of the orbit is its renamings).  Any other
iterable — ``iter(space)``, a list, a sample — is checked member by member.

Every entry point only turns its family into an ``(index, adversary,
weight)`` stream (:func:`repro.pipeline.family_stream`, lazy and chunked)
and folds it through :func:`fold_checks` — :func:`check_protocols` through
one :func:`repro.pipeline.fold_stream` pass that sweeps every protocol on
each batch; :func:`repro.runtime.resilient_check` is the same pipeline with
checkpoint, result-store and budget attachments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..model.adversary import Adversary
from ..pipeline import family_stream, fold_stream
# ``check_run_for_protocol`` is re-exported: the repository benchmark's
# tracer (perfbench/layers.py) wraps it under this module too.
from .properties import Violation, batch_verdicts, check_run_for_protocol  # noqa: F401


@dataclass
class CheckReport:
    """Aggregated result of checking one protocol over many adversaries."""

    protocol: str
    runs_checked: int = 0
    violations: List[Tuple[int, Violation]] = field(default_factory=list)
    #: Histogram of last-correct-decision times over the family.
    decision_time_histogram: Dict[int, int] = field(default_factory=dict)
    #: The largest observed (last correct) decision time and the paper bound it
    #: was checked against, per run maximum.
    max_decision_time: int = 0

    @property
    def ok(self) -> bool:
        """Whether no violation was found."""
        return not self.violations

    def record(
        self,
        index: int,
        decision_time: Optional[int],
        run_violations: List[Violation],
        weight: int = 1,
    ) -> None:
        """Fold one adversary's verdict into the report.

        The verdict is the run's last correct decision time (``None`` when no
        correct process decided) and its violations, whether the run was just
        simulated or its verdict came from a result store.  ``weight`` is the
        orbit size of a quotient sweep's representative (the number of family
        members sharing this outcome); violations stay one entry per
        representative.
        """
        self.runs_checked += weight
        for violation in run_violations:
            self.violations.append((index, violation))
        if decision_time is not None:
            self.decision_time_histogram[decision_time] = (
                self.decision_time_histogram.get(decision_time, 0) + weight
            )
            self.max_decision_time = max(self.max_decision_time, decision_time)

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        histogram = ", ".join(
            f"t={time}: {count}" for time, count in sorted(self.decision_time_histogram.items())
        )
        return (
            f"{self.protocol}: {status} over {self.runs_checked} runs "
            f"(decision-time histogram: {histogram or 'n/a'})"
        )

    def to_payload(self) -> Dict[str, Any]:
        """The lossless JSON form (histogram in fold order) of checkpoints and job results."""
        return {
            "runs_checked": self.runs_checked,
            "max_decision_time": self.max_decision_time,
            "histogram": [[time, count] for time, count in self.decision_time_histogram.items()],
            "violations": [
                [index, violation.property_name, violation.message, violation.process]
                for index, violation in self.violations
            ],
        }

    @classmethod
    def from_payload(cls, protocol: str, payload: Dict[str, Any]) -> "CheckReport":
        """The report :meth:`to_payload` serialized."""
        return cls(
            protocol=protocol,
            runs_checked=payload["runs_checked"],
            violations=[
                (index, Violation(property_name, message, process))
                for index, property_name, message, process in payload["violations"]
            ],
            decision_time_histogram={time: count for time, count in payload["histogram"]},
            max_decision_time=payload["max_decision_time"],
        )


def fold_checks(
    report: CheckReport,
    stream: Iterable[Tuple[int, Adversary, int]],
    runner,
    enforce_paper_bound: bool = True,
    **attachments,
) -> None:
    """The checker's pipeline: fold ``stream`` into ``report``.

    ``runner`` simulates each batch: a :class:`repro.engine.SweepRunner`, or
    anything with its ``sweep(adversaries)`` surface whose runs offer
    ``decision_summary()``.  Verdicts come from
    :func:`repro.verification.properties.batch_verdicts`.  ``attachments``
    pass through to :func:`repro.pipeline.fold_stream`.
    """

    def evaluate(items):
        runs = runner.sweep([adversary for _index, adversary, _weight in items])
        return batch_verdicts(runs, enforce_paper_bound)

    def fold(item, verdict):
        report.record(item[0], verdict[0], verdict[1], item[2])

    fold_stream(stream, evaluate, fold, **attachments)


def check_protocol(
    protocol,
    adversaries: Iterable[Adversary],
    t: int,
    enforce_paper_bound: bool = True,
    symmetry: str = "constructive",
) -> CheckReport:
    """Run ``protocol`` against every adversary and check its specification.

    A :class:`repro.adversaries.RestrictedSpace` is checked one generated
    representative per process-renaming orbit, each outcome weighted by its
    orbit's member count; the report's census fields equal the member-by-member
    ones (see the module docstring).  Pass ``iter(space)`` to check every
    member.  ``symmetry`` accepts only ``"constructive"``, which changes
    nothing: the repository benchmark still passes it.
    """
    if symmetry != "constructive":
        raise ValueError(
            f"check_protocol takes no symmetry choice (the family's type picks the "
            f"stream); only the retained symmetry='constructive' is accepted, got {symmetry!r}"
        )
    from ..engine import SweepRunner

    report = CheckReport(protocol=getattr(protocol, "name", "protocol"))
    fold_checks(report, family_stream(adversaries), SweepRunner(protocol, t), enforce_paper_bound)
    return report


def check_protocols(
    protocols: Iterable,
    adversaries: Iterable[Adversary],
    t: int,
    enforce_paper_bound: bool = True,
) -> Dict[str, CheckReport]:
    """Check several protocols over the same adversary family.

    One :func:`repro.pipeline.fold_stream` pass: each batch of the family's
    stream is generated once and swept by every protocol (orbits do not
    depend on the protocol under check), so memory stays O(batch).  Each
    report equals the one :func:`check_protocol` gives.
    """
    from ..engine import SweepRunner

    protocols = list(protocols)
    if not protocols:
        return {}
    reports = [CheckReport(protocol=getattr(protocol, "name", "protocol")) for protocol in protocols]
    runners = [SweepRunner(protocol, t) for protocol in protocols]

    def evaluate(items):
        family = [adversary for _index, adversary, _weight in items]
        return zip(*[batch_verdicts(runner.sweep(family), enforce_paper_bound) for runner in runners])

    def fold(item, verdicts):
        for report, (decision_time, violations) in zip(reports, verdicts):
            report.record(item[0], decision_time, violations, item[2])

    fold_stream(family_stream(adversaries), evaluate, fold)
    return {
        getattr(protocol, "name", repr(protocol)): report
        for protocol, report in zip(protocols, reports)
    }
