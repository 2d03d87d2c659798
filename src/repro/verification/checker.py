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

``symmetry="quotient"`` quotients the family by process
renaming before the sweep (:func:`repro.symmetry.quotient_family`): one
representative per orbit is simulated and checked, and its outcome is folded
into the report with the orbit size as weight.  Every recorded quantity —
violation existence, the decision-time histogram, the maximum decision time —
is constant on renaming orbits (decision times transport along the renaming,
decision values are untouched), so the quotient report reproduces the
exhaustive census exactly; ``tests/test_quotient_differential.py`` pins the
identity.  Violations are reported once per orbit (the representative is the
concrete counterexample; the rest of the orbit is its renamings).

Every entry point only turns its family into an ``(index, adversary,
weight)`` stream (:func:`repro.pipeline.family_stream`) and folds it through
:func:`fold_checks`; :func:`repro.runtime.resilient_check` is the same
pipeline with checkpoint, result-store and budget attachments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..model.adversary import Adversary, Context
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


def _check(protocol, stream, t, enforce_paper_bound) -> CheckReport:
    from ..engine import SweepRunner

    report = CheckReport(protocol=getattr(protocol, "name", "protocol"))
    fold_checks(report, stream, SweepRunner(protocol, t), enforce_paper_bound)
    return report


def check_protocol(
    protocol,
    adversaries: Iterable[Adversary],
    t: int,
    enforce_paper_bound: bool = True,
    symmetry: str = "none",
) -> CheckReport:
    """Run ``protocol`` against every adversary and check its specification.

    ``symmetry="quotient"`` checks one representative per process-renaming
    orbit and weights its outcome by the orbit's member count; the report's
    census fields equal the exhaustive ones (see the module docstring).
    ``symmetry="constructive"`` does the same but *generates* the
    representatives from a space description instead of deduplicating the
    family — ``adversaries`` must then be a
    :class:`repro.adversaries.RestrictedSpace` (or a pre-built
    :func:`repro.adversaries.enumerate_orbits` stream), which is what makes
    spaces too large to enumerate checkable.
    """
    return _check(protocol, family_stream(adversaries, symmetry), t, enforce_paper_bound)


def check_protocols(
    protocols: Iterable,
    adversaries: List[Adversary],
    t: int,
    enforce_paper_bound: bool = True,
    symmetry: str = "none",
) -> Dict[str, CheckReport]:
    """Check several protocols over the same adversary family.

    The stream — and with it the quotient or the constructive orbit front —
    is built once and shared across protocols (orbits do not depend on the
    protocol under check).
    """
    stream = list(family_stream(adversaries, symmetry))
    return {
        getattr(protocol, "name", repr(protocol)): _check(protocol, stream, t, enforce_paper_bound)
        for protocol in protocols
    }


def exhaustive_context_check(
    protocol,
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
    limit: Optional[int] = None,
    symmetry: str = "none",
) -> CheckReport:
    """Check a protocol over the (restricted) exhaustive adversary space of a context.

    With ``symmetry="quotient"`` the enumerated space is quotiented by
    process renaming before the sweep; the restricted spaces are closed under
    renaming for every restriction flag, so the report still accounts for the
    full space (``runs_checked`` and the histogram are orbit-weighted).
    ``symmetry="constructive"`` skips the enumeration entirely and generates
    one representative per orbit from the restriction flags themselves
    (``limit`` then caps *orbits* rather than adversaries).
    """
    from ..adversaries.enumeration import RestrictedSpace

    space = RestrictedSpace(
        context,
        max_crash_round=max_crash_round,
        receiver_policy=receiver_policy,
        max_failures=max_failures,
        limit=limit,
    )
    return check_protocol(protocol, space, context.t, symmetry=symmetry)
