"""Decision-time data collection over adversary ensembles.

The DOM / PROP1 / THM3 benchmarks all reduce to the same shape of experiment:
run a set of protocols against a family of adversaries and summarise when
processes decide.  This module provides the shared machinery:

* :class:`ProtocolStatistics` — per-protocol summary (mean / max / histogram
  of last-correct-decision times, rounds saved vs. a reference, bound
  compliance);
* :func:`collect` — run the experiment and return one
  :class:`ProtocolStatistics` per protocol;
* :func:`speedup_table` — pairwise rounds-saved summary between protocols.

Both experiment drivers run on the batch sweep engine (:mod:`repro.engine`),
which amortises simulation across the ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..engine import SweepRunner
from ..model.adversary import Adversary
from ..model.types import Time


@dataclass
class ProtocolStatistics:
    """Summary of one protocol's decision times over an adversary family."""

    protocol: str
    runs: int = 0
    #: Histogram of last-correct-decision times.
    histogram: Dict[int, int] = field(default_factory=dict)
    #: Sum of last-correct-decision times (for the mean).
    total_time: int = 0
    #: Largest observed last-correct-decision time.
    worst_time: int = 0
    #: Number of runs in which some correct process failed to decide.
    undecided_runs: int = 0
    #: Number of runs whose last decision exceeded the per-run bound supplied
    #: to :func:`collect` (0 when no bound function was supplied).
    bound_violations: int = 0

    @property
    def mean_time(self) -> float:
        """Mean last-correct-decision time over the family."""
        return self.total_time / self.runs if self.runs else 0.0

    def record(
        self, last_decision: Optional[Time], bound: Optional[int], weight: int = 1
    ) -> None:
        """Fold one run's outcome into the statistics.

        ``weight`` is the orbit size of a quotient sweep's representative —
        every aggregate scales by it, so quotient statistics equal the
        exhaustive ones (decision times are constant on renaming orbits).
        """
        self.runs += weight
        if last_decision is None:
            self.undecided_runs += weight
            return
        self.histogram[last_decision] = self.histogram.get(last_decision, 0) + weight
        self.total_time += weight * last_decision
        self.worst_time = max(self.worst_time, last_decision)
        if bound is not None and last_decision > bound:
            self.bound_violations += weight

    def summary(self) -> str:
        """One-line human-readable summary."""
        histogram = ", ".join(f"t={k}: {v}" for k, v in sorted(self.histogram.items()))
        return (
            f"{self.protocol}: mean={self.mean_time:.2f}, worst={self.worst_time}, "
            f"undecided={self.undecided_runs}, bound violations={self.bound_violations} "
            f"[{histogram}]"
        )


def collect(
    protocols: Sequence,
    adversaries: Sequence[Adversary],
    t: int,
    bound_for: Optional[Callable[[object, Adversary], int]] = None,
) -> Dict[str, ProtocolStatistics]:
    """Run every protocol against every adversary and summarise decision times.

    ``bound_for(protocol, adversary)`` may supply a per-run decision-time
    bound (e.g. Proposition 1's ``⌊f/k⌋ + 1``); violations are counted in the
    returned statistics.  A :class:`repro.adversaries.RestrictedSpace` is
    swept one representative per renaming orbit
    (:func:`repro.pipeline.family_stream`) with orbit-weighted statistics —
    histograms and means equal the member-by-member ones (paper bounds
    depend only on ``f``, constant on orbits).  One
    :func:`repro.pipeline.fold_stream` pass sweeps every protocol on each
    batch, so memory stays O(batch).
    """
    from ..pipeline import family_stream, fold_stream

    protocols = list(protocols)
    if not protocols:
        return {}
    entries = [
        ProtocolStatistics(protocol=getattr(protocol, "name", repr(protocol)))
        for protocol in protocols
    ]
    runners = [SweepRunner(protocol, t) for protocol in protocols]

    def evaluate(items):
        family = [adversary for _index, adversary, _weight in items]
        return zip(*[runner.decision_times(family) for runner in runners])

    def fold(item, times):
        _index, adversary, weight = item
        for protocol, entry, last in zip(protocols, entries, times):
            bound = bound_for(protocol, adversary) if bound_for is not None else None
            entry.record(last, bound, weight=weight)

    fold_stream(family_stream(adversaries), evaluate, fold)
    return {entry.protocol: entry for entry in entries}


def speedup_table(
    candidate,
    references: Sequence,
    adversaries: Sequence[Adversary],
    t: int,
) -> Dict[str, Dict[str, float]]:
    """How much earlier ``candidate`` finishes than each reference protocol.

    For every reference, reports the mean and maximum number of rounds by
    which the candidate's last correct decision precedes the reference's on
    the same adversary, and the fraction of adversaries on which the
    candidate is strictly faster.
    """
    adversaries = list(adversaries)
    table: Dict[str, Dict[str, float]] = {}
    candidate_times = SweepRunner(candidate, t).decision_times(adversaries)
    for reference in references:
        name = getattr(reference, "name", repr(reference))
        reference_times = SweepRunner(reference, t).decision_times(adversaries)
        saved: List[int] = []
        faster = 0
        for candidate_time, reference_time in zip(candidate_times, reference_times):
            if candidate_time is None or reference_time is None:
                continue
            saved.append(reference_time - candidate_time)
            if candidate_time < reference_time:
                faster += 1
        table[name] = {
            "mean_rounds_saved": sum(saved) / len(saved) if saved else 0.0,
            "max_rounds_saved": float(max(saved)) if saved else 0.0,
            "fraction_strictly_faster": faster / len(saved) if saved else 0.0,
        }
    return table
