"""Correctness properties of (uniform and nonuniform) k-set consensus runs.

The problem specification (paper, Section 2.3):

* **k-Agreement** — the set of values that *correct* processes decide on has
  cardinality at most ``k``;
* **Uniform k-Agreement** — the set of *all* decided values (including those
  decided by processes that later crash) has cardinality at most ``k``;
* **Decision** — every correct process decides;
* **Validity** — a value may be decided only if some process started with it.

This module checks these properties — plus the decision-time bounds of
Proposition 1 and Theorem 3 — on concrete :class:`repro.model.run.Run`
objects, reporting violations as structured :class:`Violation` records rather
than booleans, so that failing checks are immediately diagnosable in tests and
benchmark logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..model.run import DecisionSummary, Run
from ..model.types import ProcessId, Time


@dataclass(frozen=True)
class Violation:
    """A single property violation found in a run.

    Attributes
    ----------
    property_name:
        Which property was violated (``"validity"``, ``"decision"``, ...).
    message:
        A human-readable description of what went wrong.
    process:
        The offending process, when a single process can be blamed.
    """

    property_name: str
    message: str
    process: Optional[ProcessId] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f" (process {self.process})" if self.process is not None else ""
        return f"[{self.property_name}] {self.message}{suffix}"


def check_validity(run: Run) -> List[Violation]:
    """Validity: every decided value was some process's initial value."""
    violations = []
    initial_values = run.adversary.value_set()
    for decision in run.decisions():
        if decision.value not in initial_values:
            violations.append(
                Violation(
                    "validity",
                    f"value {decision.value} decided at time {decision.time} was nobody's input "
                    f"(inputs: {sorted(initial_values)})",
                    decision.process,
                )
            )
    return violations


def check_decision(run: Run) -> List[Violation]:
    """Decision: every correct process decides (within the simulated horizon)."""
    violations = []
    for process in sorted(run.correct_processes()):
        if run.decision(process) is None:
            violations.append(
                Violation(
                    "decision",
                    f"correct process {process} never decided within horizon {run.horizon}",
                    process,
                )
            )
    return violations


def check_agreement(run: Run, k: int) -> List[Violation]:
    """(Nonuniform) k-Agreement: correct processes decide on at most ``k`` values."""
    decided = run.decided_values(correct_only=True)
    if len(decided) > k:
        return [
            Violation(
                "k-agreement",
                f"correct processes decided {len(decided)} distinct values {sorted(decided)} > k={k}",
            )
        ]
    return []


def check_uniform_agreement(run: Run, k: int) -> List[Violation]:
    """Uniform k-Agreement: all decided values (faulty deciders included) number at most ``k``."""
    decided = run.decided_values(correct_only=False)
    if len(decided) > k:
        return [
            Violation(
                "uniform-k-agreement",
                f"all processes together decided {len(decided)} distinct values {sorted(decided)} > k={k}",
            )
        ]
    return []


def check_decision_times(run: Run, bound: int, correct_only: bool = True) -> List[Violation]:
    """Check every (correct) process decided no later than ``bound``."""
    violations = []
    pattern = run.adversary.pattern
    for decision in run.decisions():
        if correct_only and pattern.is_faulty(decision.process):
            continue
        if decision.time > bound:
            violations.append(
                Violation(
                    "decision-time",
                    f"process {decision.process} decided at time {decision.time}, "
                    f"exceeding the bound {bound}",
                    decision.process,
                )
            )
    return violations


def check_nonuniform_run(run: Run, k: int, time_bound: Optional[int] = None) -> List[Violation]:
    """All nonuniform k-set consensus properties on one run (plus optional time bound)."""
    violations = []
    violations += check_validity(run)
    violations += check_decision(run)
    violations += check_agreement(run, k)
    if time_bound is not None:
        violations += check_decision_times(run, time_bound)
    return violations


def check_uniform_run(run: Run, k: int, time_bound: Optional[int] = None) -> List[Violation]:
    """All uniform k-set consensus properties on one run (plus optional time bound)."""
    violations = []
    violations += check_validity(run)
    violations += check_decision(run)
    violations += check_uniform_agreement(run, k)
    if time_bound is not None:
        violations += check_decision_times(run, time_bound, correct_only=False)
    return violations


def proposition1_bound(k: int, f: int) -> int:
    """Proposition 1: Optmin[k] decision-time bound ``⌊f/k⌋ + 1``."""
    return f // k + 1


def theorem3_bound(k: int, t: int, f: int) -> int:
    """Theorem 3: u-Pmin[k] decision-time bound ``min(⌊t/k⌋ + 1, ⌊f/k⌋ + 2)``."""
    return min(t // k + 1, f // k + 2)


def time_bound(protocol, n: int, t: int, f: int, enforce_paper_bound: bool = True) -> int:
    """The decision-time bound a run with ``f`` failures is checked against.

    When ``enforce_paper_bound`` is set and the protocol declares an
    early-deciding bound via ``decision_bound`` (as Optmin[k], u-Pmin[k],
    Opt0, u-Opt0 and the early-deciding baselines do), that bound is used;
    otherwise the protocol's worst-case ``max_decision_time``.
    """
    if protocol is None:
        raise ValueError("the run was executed without a protocol; nothing to check")
    if enforce_paper_bound and hasattr(protocol, "decision_bound"):
        try:
            return protocol.decision_bound(f)
        except TypeError:
            return protocol.decision_bound(t, f)
    return protocol.max_decision_time(n, t)


def check_run_for_protocol(run: Run, enforce_paper_bound: bool = True) -> List[Violation]:
    """Check a run against the specification appropriate for its protocol.

    Uniform protocols are checked for Uniform k-Agreement, nonuniform ones
    for plain k-Agreement, and decision times against :func:`time_bound`
    (which depends on the run's actual failure count ``f``).
    """
    protocol = run.protocol
    bound = time_bound(protocol, run.n, run.t, run.adversary.num_failures, enforce_paper_bound)
    if protocol.uniform:
        return check_uniform_run(run, protocol.k, bound)
    return check_nonuniform_run(run, protocol.k, bound)


def summary_verdict(
    run: Run,
    summary: DecisionSummary,
    correct: int,
    bound: int,
    enforce_paper_bound: bool = True,
) -> Tuple[Optional[Time], List[Violation]]:
    """``(last correct decision time, violations)`` of a run, from its decision summary.

    ``correct`` is the bitmask of the run's correct processes and ``bound``
    its :func:`time_bound`.  Validity and the distinct-value count are facts
    of the decisions and inputs alone; decision, agreement, the time bound
    and the last correct decision time add only the correct set — so every
    member of a trie group is judged from the group's one summary.  A run
    any property flags is re-checked by :func:`check_run_for_protocol`, which
    words its violations.
    """
    protocol = run.protocol
    k = protocol.k
    last = None
    for decision in summary.latest_first:
        if correct >> decision.process & 1:
            last = decision.time
            break
    if protocol.uniform:
        disagree = summary.distinct > k
        latest = summary.latest_first[0].time if summary.latest_first else None
    else:
        disagree = summary.distinct > k and len(
            {d.value for d in summary.decisions if correct >> d.process & 1}
        ) > k
        latest = last
    if (
        summary.valid
        and not correct & ~summary.decided
        and not disagree
        and (latest is None or latest <= bound)
    ):
        return last, []
    return last, check_run_for_protocol(run, enforce_paper_bound)


def batch_verdicts(
    runs: Iterable[Run], enforce_paper_bound: bool = True
) -> Iterator[Tuple[Optional[Time], List[Violation]]]:
    """:func:`summary_verdict` of each run of one batch, in order.

    The runs come from one sweep, so they share a protocol, ``n`` and ``t``:
    the correct mask is computed once per run of consecutive members sharing
    a pattern object and the bound once per failure count.  A clean verdict
    is a function of ``(summary, correct mask, bound)`` alone, so it is
    computed once per such triple (trie group members share one summary
    object) and each member gets its own empty violations list; a flagged
    run is re-checked on its own by :func:`check_run_for_protocol`.
    """
    pattern = None
    bounds: Dict[int, int] = {}
    # (id(summary), correct, bound) -> (summary, last clean decision time);
    # the entry keeps its summary alive, so the id cannot be reused.
    clean: Dict[Tuple[int, int, int], Tuple[DecisionSummary, Optional[Time]]] = {}
    for run in runs:
        if run.adversary.pattern is not pattern:
            pattern = run.adversary.pattern
            correct = sum(1 << p for p in pattern.correct)
            f = pattern.num_failures
            bound = bounds.get(f)
            if bound is None:
                bound = bounds[f] = time_bound(
                    run.protocol, run.n, run.t, f, enforce_paper_bound
                )
        summary = run.decision_summary()
        key = (id(summary), correct, bound)
        hit = clean.get(key)
        if hit is not None:
            yield hit[1], []
            continue
        verdict = summary_verdict(run, summary, correct, bound, enforce_paper_bound)
        if not verdict[1]:
            clean[key] = (summary, verdict[0])
        yield verdict
