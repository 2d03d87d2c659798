"""Domination, strict domination and last-decider domination of protocols.

Definitions 1 and 6 of the paper, evaluated over finite adversary families:

* ``Q`` **dominates** ``P`` in a context if, for every adversary and every
  process, whenever the process decides at time ``m`` under ``P`` it decides
  at some time ``<= m`` under ``Q``;
* ``Q`` **strictly dominates** ``P`` if it dominates ``P`` and beats it on at
  least one (adversary, process) pair;
* a protocol is **unbeatable** if no protocol solving the problem strictly
  dominates it;
* the **last-decider** variants compare only the time of the last decision in
  each run.

Unbeatability quantifies over *all* protocols and therefore cannot be
established empirically; what this module provides is (i) the domination
comparisons between concrete protocols that the paper's claims reduce to
("u-Pmin strictly dominates all known protocols", "Opt0 beats early-stopping
consensus by up to t-2 rounds"), and (ii) the per-adversary decision-time data
that the DOM benchmark reports.  The complementary falsification-style
evidence for unbeatability lives in :mod:`repro.verification.beatability`.

Every comparison here is a family sweep on the batch engine
(:class:`repro.engine.SweepRunner`), pinned to the per-adversary ``Run``
loops of :mod:`repro.oracles`.  A
:class:`repro.adversaries.RestrictedSpace` is compared on its orbit
representatives only (:func:`repro.pipeline.family_stream`); any other
family member by member.  Because both protocols are symmetric, a per-process comparison on a renamed adversary is the renamed
comparison — so the domination verdict, ``adversaries_checked`` and
``rounds_saved`` are orbit-weighted back to exact full-family figures, while
the ``counterexamples`` / ``improvements`` lists carry one exemplar entry
per orbit (indexed by the representative's position in the input family).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..model.adversary import Adversary
from ..model.run import Run
from ..model.types import ProcessId, Time


@dataclass(frozen=True)
class DecisionProfile:
    """Decision times of one protocol on one adversary.

    ``times[p]`` is the decision time of process ``p`` or ``None`` if it never
    decides (processes that crash before deciding are recorded as ``None`` as
    well — domination only compares processes that decide under the dominated
    protocol, matching Definition 1).
    """

    protocol_name: str
    times: Tuple[Optional[Time], ...]
    last_correct_decision: Optional[Time]

    @staticmethod
    def from_run(run: Run) -> "DecisionProfile":
        times = tuple(run.decision_time(p) for p in range(run.n))
        return DecisionProfile(
            protocol_name=getattr(run.protocol, "name", "protocol"),
            times=times,
            last_correct_decision=run.last_decision_time(correct_only=True),
        )


@dataclass
class DominationReport:
    """The result of comparing candidate ``Q`` against reference ``P`` over adversaries.

    ``Q`` dominates ``P`` on the family iff ``counterexamples`` is empty;
    it strictly dominates iff additionally ``improvements`` is non-empty.
    """

    candidate: str
    reference: str
    adversaries_checked: int = 0
    #: (adversary index, process, time under Q, time under P) where Q was later.
    counterexamples: List[Tuple[int, ProcessId, Optional[Time], Time]] = field(default_factory=list)
    #: (adversary index, process, time under Q, time under P) where Q was strictly earlier.
    improvements: List[Tuple[int, ProcessId, Time, Time]] = field(default_factory=list)
    #: Total rounds saved by Q over all improving (adversary, process) pairs.
    rounds_saved: int = 0

    @property
    def dominates(self) -> bool:
        """Whether the candidate dominated the reference on every checked pair."""
        return not self.counterexamples

    @property
    def strictly_dominates(self) -> bool:
        """Whether the candidate dominated and improved on at least one pair."""
        return self.dominates and bool(self.improvements)

    def summary(self) -> str:
        """One-line human-readable summary."""
        verdict = (
            "strictly dominates"
            if self.strictly_dominates
            else "dominates" if self.dominates else "does NOT dominate"
        )
        return (
            f"{self.candidate} {verdict} {self.reference} over {self.adversaries_checked} adversaries "
            f"({len(self.improvements)} improvements, {len(self.counterexamples)} counterexamples, "
            f"{self.rounds_saved} rounds saved)"
        )


def compare_on_adversary(
    candidate_run: Run,
    reference_run: Run,
    adversary_index: int,
    report: DominationReport,
    weight: int = 1,
) -> None:
    """Fold one adversary's decision times into a :class:`DominationReport`.

    ``weight`` is the orbit size of a quotient comparison's representative:
    the aggregate counters scale by it (every orbit member reproduces the
    same per-process comparison up to renaming) while the exemplar lists gain
    one entry regardless.
    """
    report.adversaries_checked += weight
    for process in range(reference_run.n):
        reference_time = reference_run.decision_time(process)
        if reference_time is None:
            # Definition 1 only constrains processes that decide under the
            # reference protocol.
            continue
        candidate_time = candidate_run.decision_time(process)
        if candidate_time is None or candidate_time > reference_time:
            report.counterexamples.append(
                (adversary_index, process, candidate_time, reference_time)
            )
        elif candidate_time < reference_time:
            report.improvements.append(
                (adversary_index, process, candidate_time, reference_time)
            )
            report.rounds_saved += weight * (reference_time - candidate_time)


def compare_last_decisions(
    candidate_run: Run,
    reference_run: Run,
    adversary_index: int,
    report: DominationReport,
    weight: int = 1,
) -> None:
    """Fold one adversary's last correct decision times into a last-decider report."""
    report.adversaries_checked += weight
    reference_last = reference_run.last_decision_time(correct_only=True)
    candidate_last = candidate_run.last_decision_time(correct_only=True)
    if reference_last is None:
        return
    if candidate_last is None or candidate_last > reference_last:
        report.counterexamples.append((adversary_index, -1, candidate_last, reference_last))
    elif candidate_last < reference_last:
        report.improvements.append((adversary_index, -1, candidate_last, reference_last))
        report.rounds_saved += weight * (reference_last - candidate_last)


def _compare(candidate, reference, adversaries, t, compare, suffix=""):
    """Sweep both protocols over :func:`repro.pipeline.family_stream` and fold each pair.

    One :func:`repro.pipeline.fold_stream` pass: both protocols sweep each
    batch, so memory stays O(batch).
    """
    from ..engine import SweepRunner
    from ..pipeline import family_stream, fold_stream

    report = DominationReport(
        candidate=getattr(candidate, "name", "candidate") + suffix,
        reference=getattr(reference, "name", "reference") + suffix,
    )
    candidate_runner, reference_runner = SweepRunner(candidate, t), SweepRunner(reference, t)

    def evaluate(items):
        family = [adversary for _index, adversary, _weight in items]
        return zip(candidate_runner.sweep(family), reference_runner.sweep(family))

    def fold(item, runs):
        compare(runs[0], runs[1], item[0], report, item[2])

    fold_stream(family_stream(adversaries), evaluate, fold)
    return report


def compare_protocols(
    candidate,
    reference,
    adversaries: Iterable[Adversary],
    t: int,
) -> DominationReport:
    """Compare two protocols' decision times over a family of adversaries.

    Both protocols are executed against exactly the same adversaries (the
    definition of domination compares performance on the same behaviours of
    the adversary).  A space is compared one representative per renaming
    orbit, with orbit-weighted aggregate counters (see the module
    docstring).
    """
    return _compare(candidate, reference, adversaries, t, compare_on_adversary)


def last_decider_compare(
    candidate,
    reference,
    adversaries: Iterable[Adversary],
    t: int,
) -> DominationReport:
    """Definition 6: compare only the time of the last (correct) decision per run."""
    return _compare(
        candidate, reference, adversaries, t, compare_last_decisions, " [last-decider]"
    )


def decision_time_table(
    protocols: Sequence,
    adversaries: Sequence[Adversary],
    t: int,
) -> Dict[str, List[Optional[Time]]]:
    """Last-correct-decision times of several protocols on each adversary.

    Returns a mapping ``protocol name -> [time per adversary]``; the DOM
    benchmark prints this as the paper-style comparison table.
    """
    from ..engine import SweepRunner

    return {
        getattr(protocol, "name", repr(protocol)): SweepRunner(protocol, t).decision_times(
            adversaries
        )
        for protocol in protocols
    }
