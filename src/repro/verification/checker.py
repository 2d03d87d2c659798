"""Bulk correctness checking over adversary families (exhaustive or sampled).

The paper's theorems are of the form "for every adversary, ...".  This module
discharges those quantifiers over finite families: it runs a protocol against
every adversary of an enumerated or sampled family, applies the property
checks of :mod:`repro.verification.properties`, and aggregates the outcome
into a :class:`CheckReport` that the exhaustive tests and the PROP1/THM3
benchmarks consume.

Two execution engines are available (``engine=`` on every entry point):

* ``"batch"`` (default) — the prefix-sharing batch engine of
  :mod:`repro.engine`, which amortises simulation work across the family and
  is the throughput path for exhaustive sweeps;
* ``"reference"`` — one :class:`repro.model.run.Run` per adversary; the
  semantic oracle the batch engine is differentially tested against.

Orthogonally, ``symmetry="quotient"`` quotients the family by process
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
weight)`` stream (:func:`check_stream`) and folds it through
:func:`fold_checks`; :func:`repro.runtime.resilient_check` is the same
pipeline with checkpoint, result-store and budget attachments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..model.adversary import Adversary, Context
from ..model.run import Run
from ..pipeline import fold_stream
from .properties import Violation, check_run_for_protocol


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


def check_stream(adversaries, symmetry: str = "none") -> Iterator[Tuple[int, Adversary, int]]:
    """The ``(index, adversary, weight)`` stream a check folds over a family.

    ``symmetry="none"`` streams every member with weight 1.
    ``symmetry="quotient"`` streams the first-seen member of each renaming
    class (:func:`repro.symmetry.quotient_family`) at its family position,
    weighted by the members in the class.  ``symmetry="constructive"``
    streams the generated canonical representatives
    (:func:`repro.adversaries.enumeration.constructive_quotient`), numbered
    in generation order and weighted by orbit size.
    """
    from ..symmetry import validate_symmetry_choice

    validate_symmetry_choice(symmetry)
    if symmetry == "none":
        return ((index, adversary, 1) for index, adversary in enumerate(adversaries))
    if symmetry == "constructive":
        from ..adversaries.enumeration import constructive_quotient

        representatives, weights, indices = constructive_quotient(adversaries)
    else:
        from ..symmetry import quotient_family

        representatives, weights, indices = quotient_family(adversaries)
    return zip(indices, representatives, weights)


def fold_checks(
    report: CheckReport,
    protocol,
    stream: Iterable[Tuple[int, Adversary, int]],
    t: int,
    runner=None,
    enforce_paper_bound: bool = True,
    **attachments,
) -> None:
    """The checker's pipeline: fold ``stream`` into ``report``.

    ``runner`` is the batch engine's :class:`repro.engine.SweepRunner`;
    ``None`` selects the reference engine, which simulates and folds one
    :class:`repro.model.run.Run` at a time.  ``attachments`` pass through
    to :func:`repro.pipeline.fold_stream`.
    """

    def evaluate(items):
        adversaries = [adversary for _index, adversary, _weight in items]
        if runner is not None:
            runs = runner.sweep(adversaries)
        else:
            runs = (Run(protocol, adversary, t) for adversary in adversaries)
        return (
            (
                run.last_decision_time(correct_only=True),
                check_run_for_protocol(run, enforce_paper_bound),
            )
            for run in runs
        )

    def fold(item, verdict):
        report.record(item[0], verdict[0], verdict[1], item[2])

    fold_stream(stream, evaluate, fold, **attachments)


def _check(protocol, stream, t, enforce_paper_bound, engine, processes) -> CheckReport:
    from ..engine import SweepRunner

    report = CheckReport(protocol=getattr(protocol, "name", "protocol"))
    runner = SweepRunner(protocol, t, processes=processes) if engine == "batch" else None
    fold_checks(report, protocol, stream, t, runner, enforce_paper_bound)
    return report


def check_protocol(
    protocol,
    adversaries: Iterable[Adversary],
    t: int,
    enforce_paper_bound: bool = True,
    engine: str = "batch",
    processes: Optional[int] = None,
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
    from ..engine import validate_engine_choice

    validate_engine_choice(engine, processes)
    return _check(
        protocol, check_stream(adversaries, symmetry), t, enforce_paper_bound, engine, processes
    )


def check_protocols(
    protocols: Iterable,
    adversaries: List[Adversary],
    t: int,
    enforce_paper_bound: bool = True,
    engine: str = "batch",
    processes: Optional[int] = None,
    symmetry: str = "none",
) -> Dict[str, CheckReport]:
    """Check several protocols over the same adversary family.

    The stream — and with it the quotient or the constructive orbit front —
    is built once and shared across protocols (orbits do not depend on the
    protocol under check).
    """
    from ..engine import validate_engine_choice

    validate_engine_choice(engine, processes)
    stream = list(check_stream(adversaries, symmetry))
    return {
        getattr(protocol, "name", repr(protocol)): _check(
            protocol, stream, t, enforce_paper_bound, engine, processes
        )
        for protocol in protocols
    }


def exhaustive_context_check(
    protocol,
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
    limit: Optional[int] = None,
    engine: str = "batch",
    processes: Optional[int] = None,
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
    return check_protocol(
        protocol, space, context.t, engine=engine, processes=processes, symmetry=symmetry
    )
