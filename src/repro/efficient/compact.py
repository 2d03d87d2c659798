"""The communication-efficient implementation of Appendix E.

The protocols are specified as full-information protocols for clarity, but
Lemma 6 shows they can be implemented so that every process sends every other
process only ``O(n log n)`` bits in total: decisions depend only on (i) which
initial values exist and who first reported them, and (ii) which processes
are known to have crashed and in which round — so it suffices for a process
to report each newly discovered ``value(j) = v`` and ``failed_at(j) = ℓ``
fact once, plus a constant-size ``I'm alive`` message in rounds where it has
nothing new to report.

This module simulates that compact message discipline explicitly:

* :class:`CompactMessage` — a tagged report (``value`` / ``failed_at`` /
  ``alive``) with its encoded size in bits;
* :class:`CompactSimulation` — a round-based simulation in which every
  process maintains exactly the state reconstructible from the compact
  messages (the value vector it has heard of, the earliest known crash round
  of every process, and which round messages it received from whom), from
  which ``Vals``, ``Min``, known failures and the hidden capacity can be
  recomputed;
* :attr:`CompactSimulation.bits_sent` and :func:`nlogn_bound` — the
  accounting the APPE benchmark uses to confirm the ``O(n log n)`` claim;
* :func:`compare_compact_to_fip` — the equivalence harness comparing the
  decision-relevant quantities (``Vals``, ``Min``, known failures, hidden
  capacity) between the full-information engine and the compact
  reconstruction.

Faithfulness note.  The hidden-node classification needs, for every process
``j``, (i) the earliest round for which a crash of ``j`` can be proven and
(ii) the latest time at which ``j``'s state is transitively known.  The
``failed_at`` reports reconstruct (i) exactly, and for *correct* senders (ii)
is implied by the direct receipt of their round messages; but for a crashed
``j`` whose late states were seen only through intermediaries, the compact
reports carry no "I heard from j in round ρ" facts, so the reconstruction may
under-estimate (ii).  The consequence is one-sided: the reconstructed hidden
capacity is always **at least** the full-information one, so a protocol run
on top of the compact state never decides *earlier* than its full-information
counterpart and remains correct with the same worst-case bounds; on rare
adversaries it may decide a round later.  The APPE benchmark measures both
the bit counts and the (empirically tiny) fraction of nodes on which the
capacities differ; see EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..model.adversary import Adversary
from ..model.run import Run
from ..model.types import ProcessId, Time, Value


def _id_bits(n: int) -> int:
    """Bits needed to encode a process id (``ceil(log2 n)``, at least 1)."""
    return max(1, math.ceil(math.log2(max(n, 2))))


def _round_bits(horizon: int) -> int:
    """Bits needed to encode a round number up to ``horizon``."""
    return max(1, math.ceil(math.log2(max(horizon + 1, 2))))


@dataclass(frozen=True)
class CompactMessage:
    """A single compact report sent by one process to another in one round."""

    kind: str  # "value", "failed_at" or "alive"
    subject: Optional[ProcessId]
    payload: Optional[int]

    def size_bits(self, n: int, horizon: int, value_bits: int) -> int:
        """Encoded size: a 2-bit tag plus the subject id and the payload."""
        tag = 2
        if self.kind == "alive":
            return tag
        if self.kind == "value":
            return tag + _id_bits(n) + value_bits
        if self.kind == "failed_at":
            return tag + _id_bits(n) + _round_bits(horizon)
        raise ValueError(f"unknown message kind {self.kind!r}")


@dataclass
class _CompactState:
    """The per-process state reconstructible from compact messages."""

    values: Dict[ProcessId, Value]
    #: Earliest round for which a crash of ``j`` is proven (∞ if none).
    failed_at: Dict[ProcessId, float]
    #: Latest time at which ``j``'s state is transitively known.
    latest_seen: Dict[ProcessId, int]
    #: Facts already reported to the other processes (so each is sent once).
    reported_values: Set[ProcessId]
    reported_failures: Dict[ProcessId, float]


class CompactSimulation:
    """Simulate the compact message discipline of Appendix E for one adversary.

    The simulation runs the same synchronous rounds as the full-information
    engine, but every process only sends its newly discovered ``value`` and
    ``failed_at`` facts (or ``alive``), and maintains the reconstruction
    described in the module docstring.  The per-channel bit counts are
    accumulated as messages are generated.
    """

    def __init__(self, adversary: Adversary, t: int, horizon: Optional[int] = None) -> None:
        adversary.pattern.check_crash_bound(t)
        self._adversary = adversary
        self._t = t
        self._n = adversary.n
        self._horizon = horizon if horizon is not None else t + 2
        max_value = max(adversary.values) if adversary.values else 1
        self._value_bits = max(1, math.ceil(math.log2(max(max_value + 1, 2))))
        #: bits_sent[(sender, receiver)] = total bits sent on that channel.
        self.bits_sent: Dict[Tuple[ProcessId, ProcessId], int] = {}
        #: messages_sent[(sender, receiver)] = number of compact messages.
        self.messages_sent: Dict[Tuple[ProcessId, ProcessId], int] = {}
        self._states: Dict[ProcessId, _CompactState] = {}
        self._history: Dict[Tuple[ProcessId, Time], _CompactState] = {}
        self._simulate()

    # ------------------------------------------------------------------ state
    def _initial_state(self, process: ProcessId) -> _CompactState:
        return _CompactState(
            values={process: self._adversary.initial_value(process)},
            failed_at={j: math.inf for j in range(self._n)},
            latest_seen={j: (0 if j == process else -1) for j in range(self._n)},
            reported_values=set(),
            reported_failures={j: math.inf for j in range(self._n)},
        )

    def _snapshot(self, state: _CompactState) -> _CompactState:
        return _CompactState(
            values=dict(state.values),
            failed_at=dict(state.failed_at),
            latest_seen=dict(state.latest_seen),
            reported_values=set(state.reported_values),
            reported_failures=dict(state.reported_failures),
        )

    # -------------------------------------------------------------- accessors
    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    @property
    def horizon(self) -> int:
        """Last simulated time."""
        return self._horizon

    def state_at(self, process: ProcessId, time: Time) -> _CompactState:
        """The reconstructed state of ``process`` at ``time`` (raises if crashed)."""
        return self._history[(process, time)]

    def min_value(self, process: ProcessId, time: Time) -> Value:
        """``Min<process, time>`` reconstructed from compact messages."""
        return min(self.state_at(process, time).values.values())

    def values_seen(self, process: ProcessId, time: Time) -> FrozenSet[Value]:
        """``Vals<process, time>`` reconstructed from compact messages."""
        return frozenset(self.state_at(process, time).values.values())

    def known_failures(self, process: ProcessId, time: Time) -> int:
        """Number of processes known (provably) crashed."""
        state = self.state_at(process, time)
        return sum(1 for v in state.failed_at.values() if math.isfinite(v))

    def hidden_count_at(self, process: ProcessId, time: Time, layer: Time) -> int:
        """Number of layer-``layer`` nodes hidden from ``<process, time>`` (reconstructed)."""
        state = self.state_at(process, time)
        count = 0
        for j in range(self._n):
            if state.latest_seen[j] < layer < state.failed_at[j]:
                count += 1
        return count

    def hidden_capacity(self, process: ProcessId, time: Time) -> int:
        """``HC<process, time>`` reconstructed from compact messages."""
        return min(self.hidden_count_at(process, time, layer) for layer in range(time + 1))

    def max_bits_per_channel(self) -> int:
        """The largest total over any single (sender, receiver) channel."""
        return max(self.bits_sent.values(), default=0)

    # ------------------------------------------------------------- simulation
    def _simulate(self) -> None:
        pattern = self._adversary.pattern
        for i in range(self._n):
            if pattern.is_active(i, 0):
                self._states[i] = self._initial_state(i)
                self._history[(i, 0)] = self._snapshot(self._states[i])

        for time in range(1, self._horizon + 1):
            round_ = time
            # 1. Every process active at the *start* of the round prepares its
            #    outgoing reports based on its time-(time-1) state.
            outgoing: Dict[ProcessId, List[CompactMessage]] = {}
            for i, state in self._states.items():
                reports: List[CompactMessage] = []
                for j, value in state.values.items():
                    if j not in state.reported_values:
                        reports.append(CompactMessage("value", j, value))
                for j, failure_round in state.failed_at.items():
                    if math.isfinite(failure_round) and failure_round < state.reported_failures[j]:
                        reports.append(CompactMessage("failed_at", j, int(failure_round)))
                if not reports:
                    reports.append(CompactMessage("alive", None, None))
                outgoing[i] = reports

            # 2. Deliver according to the failure pattern; account bits.
            inbox: Dict[ProcessId, List[Tuple[ProcessId, List[CompactMessage]]]] = {
                i: [] for i in range(self._n)
            }
            for sender, reports in outgoing.items():
                for receiver in range(self._n):
                    if receiver == sender:
                        continue
                    if not pattern.delivered(sender, receiver, round_):
                        continue
                    inbox[receiver].append((sender, reports))
                    key = (sender, receiver)
                    self.bits_sent[key] = self.bits_sent.get(key, 0) + sum(
                        m.size_bits(self._n, self._horizon, self._value_bits) for m in reports
                    )
                    self.messages_sent[key] = self.messages_sent.get(key, 0) + len(reports)

            # 3. Mark facts as reported (they were sent to everybody the
            #    pattern allowed; a correct process's reports reach everyone).
            for i, state in self._states.items():
                for message in outgoing[i]:
                    if message.kind == "value":
                        state.reported_values.add(message.subject)
                    elif message.kind == "failed_at":
                        state.reported_failures[message.subject] = min(
                            state.reported_failures[message.subject], message.payload
                        )

            # 4. Processes active at ``time`` absorb their inbox.
            next_states: Dict[ProcessId, _CompactState] = {}
            for i in range(self._n):
                if not pattern.is_active(i, time):
                    continue
                state = self._states[i]
                received_from = {sender for sender, _ in inbox[i]}
                for sender, reports in inbox[i]:
                    state.latest_seen[sender] = max(state.latest_seen[sender], time - 1)
                    for message in reports:
                        if message.kind == "value":
                            state.values.setdefault(message.subject, message.payload)
                            state.latest_seen[message.subject] = max(
                                state.latest_seen[message.subject], 0
                            )
                        elif message.kind == "failed_at":
                            state.failed_at[message.subject] = min(
                                state.failed_at[message.subject], message.payload
                            )
                for j in range(self._n):
                    if j != i and j not in received_from:
                        state.failed_at[j] = min(state.failed_at[j], round_)
                state.latest_seen[i] = time
                next_states[i] = state
                self._history[(i, time)] = self._snapshot(state)
            self._states = next_states


def nlogn_bound(n: int, horizon: int, max_value: int, constant: int = 8) -> int:
    """An explicit ``O(n log n)`` budget per channel used by the APPE benchmark.

    Each process sends at most one ``value`` and two ``failed_at`` reports per
    subject process plus fewer than ``horizon`` ``alive`` messages; with ids
    and rounds taking ``O(log n)`` bits, ``constant * n * log2(n)`` bits (plus
    a small additive term for the alive messages) is a generous concrete
    budget.
    """
    log_n = max(1, math.ceil(math.log2(max(n, 2))))
    value_bits = max(1, math.ceil(math.log2(max(max_value + 1, 2))))
    return constant * n * (log_n + value_bits) + 2 * horizon


@dataclass(frozen=True)
class CompactComparison:
    """Outcome of comparing the compact reconstruction against the fip on one adversary."""

    nodes_compared: int
    values_match: bool
    failures_match: bool
    #: The reconstructed capacity is never below the full-information one.
    capacity_never_lower: bool
    #: Number of nodes at which the two hidden capacities differ (the
    #: conservative over-estimation discussed in the module docstring).
    capacity_mismatches: int

    @property
    def sound(self) -> bool:
        """Whether the reconstruction is at least *safe* (never under-estimates capacity)."""
        return self.values_match and self.failures_match and self.capacity_never_lower


def compare_compact_to_fip(adversary: Adversary, t: int) -> CompactComparison:
    """Compare the decision-relevant quantities between the compact and fip engines.

    The paper's protocols consult ``Vals``/``Min``, the known-failure count
    and the hidden capacity.  ``Vals``/``Min`` and the failure count are
    reconstructed exactly; the hidden capacity may be over-estimated (see the
    module docstring), which this comparison quantifies per adversary.
    """
    fip_run = Run(None, adversary, t)
    compact = CompactSimulation(adversary, t, horizon=fip_run.horizon)
    nodes = 0
    values_match = True
    failures_match = True
    capacity_never_lower = True
    capacity_mismatches = 0
    for time in range(fip_run.horizon + 1):
        for process, view in fip_run.views_at(time).items():
            if (process, time) not in compact._history:
                values_match = False
                continue
            nodes += 1
            if (
                compact.min_value(process, time) != view.min_value()
                or compact.values_seen(process, time) != view.values()
            ):
                values_match = False
            if compact.known_failures(process, time) != view.known_failure_count():
                failures_match = False
            compact_capacity = compact.hidden_capacity(process, time)
            fip_capacity = view.hidden_capacity()
            if compact_capacity != fip_capacity:
                capacity_mismatches += 1
            if compact_capacity < fip_capacity:
                capacity_never_lower = False
    return CompactComparison(
        nodes_compared=nodes,
        values_match=values_match,
        failures_match=failures_match,
        capacity_never_lower=capacity_never_lower,
        capacity_mismatches=capacity_mismatches,
    )

