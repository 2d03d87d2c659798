"""Falsification-style evidence for the unbeatability of Optmin[k].

Unbeatability (Theorem 1) quantifies over all protocols and is established in
the paper by proof (combinatorial and topological).  A library cannot verify a
statement about all protocols by testing, but it can reproduce the *mechanism*
of the proof:

1. Lemma 1 / Lemma 3 show that a high process whose hidden capacity is at
   least ``k`` cannot decide without risking a violation of k-Agreement,
   because the hidden-capacity witnesses can (Lemma 2) be carrying all ``k``
   low values, and under any protocol that dominates Optmin[k] the carriers
   must have decided on them.

2. Consequently, any protocol that tries to *beat* Optmin[k] by making such a
   process decide earlier can be confronted with a concrete adversary on
   which it decides ``k + 1`` distinct values.

This module implements exactly that confrontation:

* :class:`EagerOptMin` — Optmin[k] modified to decide at a chosen time even
  when high with hidden capacity ``>= k`` (the canonical "beating attempt");
* :func:`beating_attempt_witness` — the Fig. 2-style adversary family on
  which every such attempt violates k-Agreement while Optmin[k] itself stays
  correct;
* :func:`find_agreement_violation` — a search utility that scans an adversary
  family for a k-Agreement violation of an arbitrary protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..adversaries.scenarios import figure2_scenario
from ..core.optmin import OptMin
from ..model.adversary import Adversary, Context
from ..model.run import RoundContext
from ..model.types import Time, Value
from .properties import check_agreement, check_uniform_agreement


class EagerOptMin(OptMin):
    """Optmin[k] plus an eager clause: decide at ``eager_time`` no matter what.

    This is the generic shape of an attempt to beat Optmin[k]: take its
    decision rule and additionally force a decision (on the process's current
    minimum) at some earlier point even though the process is high and its
    hidden capacity is still ``>= k``.  Lemma 3 says any such protocol must
    fail k-Agreement on some adversary; :func:`beating_attempt_witness`
    produces one.
    """

    name = "EagerOptmin[k]"

    def __init__(self, k: int, eager_time: Time) -> None:
        super().__init__(k)
        if eager_time < 0:
            raise ValueError("eager_time must be >= 0")
        self.eager_time = eager_time

    def decide(self, ctx: RoundContext) -> Optional[Value]:
        decision = super().decide(ctx)
        if decision is not None:
            return decision
        if ctx.time == self.eager_time:
            # The beating attempt: decide despite being high with HC >= k.
            return ctx.view.min_value()
        return None


@dataclass(frozen=True)
class BeatabilityWitness:
    """An adversary on which an eager variant of Optmin[k] violates k-Agreement.

    Attributes
    ----------
    adversary:
        The witnessing adversary (a Fig. 2 hidden-chain family member whose
        chains carry all ``k`` low values).
    context:
        The context it lives in.
    eager_time:
        The time at which the eager variant decides prematurely.
    observer:
        The high process whose premature decision causes the violation.
    """

    adversary: Adversary
    context: Context
    eager_time: Time
    observer: int


def beating_attempt_witness(k: int, depth: int = 2, extra_processes: int = 1) -> BeatabilityWitness:
    """Build the Fig. 2-based adversary on which deciding early is fatal.

    The adversary consists of ``k`` disjoint hidden chains of length
    ``depth`` whose heads carry the low values ``0 .. k-1`` while the observer
    and all other processes hold the high value ``k``.  Under Optmin[k]:

    * each chain's surviving tail becomes low at time ``depth`` and decides
      its unique low value — all ``k`` low values get decided by correct
      processes;
    * the observer stays high with hidden capacity ``k`` through time
      ``depth`` and therefore stays undecided; it decides only at
      ``depth + 1`` once the tails' values reach it.

    Any protocol that makes the observer decide at time ``depth`` (while the
    chains are still hidden) therefore decides ``k + 1`` distinct values among
    correct processes.  This is exactly the situation of Lemma 3.
    """
    scenario = figure2_scenario(k=k, depth=depth, extra_processes=extra_processes)
    values = list(scenario.adversary.values)
    for b in range(k):
        chain = scenario.roles[f"chain{b}"]
        values[chain[0]] = b
    adversary = scenario.adversary.with_values(values)
    context = Context(
        n=scenario.context.n,
        t=scenario.context.t,
        k=k,
        max_value=max(scenario.context.max_value, k),
    )
    context.validate(adversary)
    return BeatabilityWitness(
        adversary=adversary,
        context=context,
        eager_time=depth,
        observer=scenario.observer,
    )


#: Adversaries swept per chunk by :func:`find_agreement_violation`'s batch
#: path — large enough for healthy prefix sharing inside a chunk, small
#: enough that the scan still stops shortly after the first violation.
_VIOLATION_SCAN_CHUNK = 1024


def find_agreement_violation(
    protocol,
    adversaries: Iterable[Adversary],
    t: int,
    uniform: bool = False,
    symmetry: str = "none",
) -> Optional[Tuple[int, Adversary]]:
    """Scan an adversary family for a (uniform) k-Agreement violation of ``protocol``.

    Returns the index and adversary of the first violation found, or ``None``
    if the protocol survived the whole family.  The (possibly streaming)
    family is swept through :class:`repro.engine.SweepRunner` in bounded
    chunks, so the scan keeps the trie's sharing *and* the early exit.

    ``symmetry="quotient"`` deduplicates the stream to one first-seen member
    per process-renaming orbit before scanning
    (:func:`repro.symmetry.iter_orbit_representatives`, lazily — the early
    exit is preserved).  A violation is constant on orbits, so the scan
    verdict (found vs not found) is identical to the exhaustive one; the
    returned index is the representative's position in the *original* stream
    and the returned adversary is a true family member.

    ``symmetry="constructive"`` scans one *generated* representative per
    orbit — ``adversaries`` must be a
    :class:`repro.adversaries.RestrictedSpace` (or an
    :func:`repro.adversaries.enumerate_orbits` stream); the early exit is
    preserved and the returned index numbers orbits in generation order.
    """
    import itertools

    from ..engine import SweepRunner
    from ..symmetry import validate_symmetry_choice

    validate_symmetry_choice(symmetry)
    check = check_uniform_agreement if uniform else check_agreement
    if symmetry == "constructive":
        from ..adversaries.enumeration import constructive_orbit_stream

        indexed: Iterable[Tuple[int, Adversary]] = (
            (index, orbit.representative)
            for index, orbit in enumerate(constructive_orbit_stream(adversaries))
        )
    elif symmetry == "quotient":
        from ..symmetry import iter_orbit_representatives

        indexed = iter_orbit_representatives(adversaries)
    else:
        indexed = enumerate(adversaries)
    runner = SweepRunner(protocol, t)
    stream = iter(indexed)
    while True:
        chunk = list(itertools.islice(stream, _VIOLATION_SCAN_CHUNK))
        if not chunk:
            return None
        for (index, _adversary), run in zip(chunk, runner.sweep([a for _, a in chunk])):
            if check(run, protocol.k):
                return index, run.adversary



def demonstrate_unbeatability_mechanism(k: int, depth: int = 2) -> dict:
    """Run the whole Lemma 3 confrontation and return a structured summary.

    Executes Optmin[k] and its eager variant on the witness adversary and
    reports the decided value sets and decision times of both, so tests and
    the FIG3 benchmark can assert that (i) Optmin[k] is correct and (ii) the
    eager variant violates k-Agreement on the very same adversary.
    """
    from ..engine import sweep

    witness = beating_attempt_witness(k, depth)
    t = witness.context.t
    (baseline_run,) = sweep(OptMin(k), [witness.adversary], t)
    (eager_run,) = sweep(EagerOptMin(k, witness.eager_time), [witness.adversary], t)
    return {
        "witness": witness,
        "optmin_decided_values": sorted(baseline_run.decided_values(correct_only=True)),
        "optmin_observer_time": baseline_run.decision_time(witness.observer),
        "eager_decided_values": sorted(eager_run.decided_values(correct_only=True)),
        "eager_observer_time": eager_run.decision_time(witness.observer),
        "optmin_violations": check_agreement(baseline_run, k),
        "eager_violations": check_agreement(eager_run, k),
    }
