"""Failure patterns for the synchronous crash-failure model.

A *failure pattern* (paper, Section 2.1) is a layered graph ``F`` whose
vertices are all process-time nodes ``<i, m>`` and whose edges
``(<i, m-1>, <j, m>)`` denote that a message sent by ``i`` to ``j`` in round
``m`` would be delivered successfully.

In the benign crash model a faulty process ``i`` crashes in some round
``c >= 1``: it behaves correctly in rounds ``1 .. c-1`` (all of its messages
are delivered), may deliver its round-``c`` messages to an arbitrary subset of
the other processes, and sends nothing from round ``c+1`` on.  A failure
pattern in ``Crash(t)`` is therefore fully described by, for each faulty
process, its crash round and the set of receivers of its crashing-round
messages.  This module provides that compact description via
:class:`CrashEvent` and :class:`FailurePattern`.

The :class:`FailurePattern` exposes exactly the queries the rest of the
library needs:

* ``delivered(sender, receiver, round)`` — is the edge present in ``F``?
* ``is_active(process, time)`` / ``crash_round(process)`` — crash bookkeeping.
* ``senders_to(receiver, round)`` — the in-neighbourhood used by the run
  engine to build full-information views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from .types import ProcessId, Round, Time, validate_crash_bound, validate_system_size


@dataclass(frozen=True, order=True, slots=True)
class CrashEvent:
    """The crash of a single process.

    Attributes
    ----------
    process:
        The crashing process.
    round:
        The crashing round ``c >= 1``.  The process behaves correctly in
        rounds ``1 .. c-1`` and is silent from round ``c+1`` on.
    receivers:
        The processes that successfully receive the crashing process's
        round-``c`` message.  May be any subset of the other processes
        (including the empty set and the full set).

    The hash is the dataclass one, computed once at construction: the
    sweep engine's trie hashes tuples of events on every round.  It is not
    part of the pickled state, which is the ``{field: value}`` dict a
    plain dataclass pickles.
    """

    process: ProcessId
    round: Round
    receivers: FrozenSet[ProcessId] = field(default_factory=frozenset)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ValueError(f"crash round must be >= 1, got {self.round}")
        if self.process in self.receivers:
            # A self-"message" is not part of the model; a process always has
            # access to its own previous state regardless of crashing.
            raise ValueError("a crash event must not list the crashing process as receiver")
        object.__setattr__(self, "receivers", frozenset(self.receivers))
        object.__setattr__(self, "_hash", hash((self.process, self.round, self.receivers)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> Dict[str, object]:
        return {"process": self.process, "round": self.round, "receivers": self.receivers}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash((self.process, self.round, self.receivers)))

    def delivers_to(self, receiver: ProcessId) -> bool:
        """Whether the crashing-round message to ``receiver`` is delivered."""
        return receiver in self.receivers


class FailurePattern:
    """An element of ``Crash(t)``: at most ``t`` crash failures among ``n`` processes.

    The pattern is immutable and hashable; two patterns compare equal iff they
    describe the same crash events over the same system size.
    """

    __slots__ = ("_n", "_crashes", "_hash")

    def __init__(self, n: int, crashes: Iterable[CrashEvent] = ()) -> None:
        validate_system_size(n)
        crash_map: Dict[ProcessId, CrashEvent] = {}
        for event in crashes:
            if not 0 <= event.process < n:
                raise ValueError(f"crash of unknown process {event.process} (n={n})")
            if event.process in crash_map:
                raise ValueError(f"process {event.process} has more than one crash event")
            bad = [r for r in event.receivers if not 0 <= r < n]
            if bad:
                raise ValueError(f"crash of process {event.process} delivers to unknown processes {bad}")
            crash_map[event.process] = event
        if len(crash_map) > n - 1:
            raise ValueError(
                f"at most n-1={n - 1} processes may crash, got {len(crash_map)} crash events"
            )
        self._n = n
        self._crashes: Mapping[ProcessId, CrashEvent] = dict(sorted(crash_map.items()))
        self._hash = hash((n, tuple(self._crashes.values())))

    # ------------------------------------------------------------------ basic
    @property
    def n(self) -> int:
        """Number of processes in the system."""
        return self._n

    @property
    def crashes(self) -> Tuple[CrashEvent, ...]:
        """All crash events, ordered by process id."""
        return tuple(self._crashes.values())

    @property
    def faulty(self) -> FrozenSet[ProcessId]:
        """The set of faulty (eventually crashing) processes."""
        return frozenset(self._crashes)

    @property
    def correct(self) -> FrozenSet[ProcessId]:
        """The set of correct (never crashing) processes."""
        return frozenset(p for p in range(self._n) if p not in self._crashes)

    @property
    def num_failures(self) -> int:
        """``f``: the number of processes that crash in this pattern."""
        return len(self._crashes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailurePattern):
            return NotImplemented
        return self._n == other._n and self._crashes == other._crashes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        events = ", ".join(
            f"p{e.process}@r{e.round}->{sorted(e.receivers)}" for e in self.crashes
        )
        return f"FailurePattern(n={self._n}, [{events}])"

    # ------------------------------------------------------------ crash facts
    def crash_round(self, process: ProcessId) -> Round | None:
        """The crashing round of ``process``, or ``None`` if it is correct."""
        event = self._crashes.get(process)
        return None if event is None else event.round

    def is_faulty(self, process: ProcessId) -> bool:
        """Whether ``process`` eventually crashes under this pattern."""
        return process in self._crashes

    def is_active(self, process: ProcessId, time: Time) -> bool:
        """Whether ``process`` is still operating at time ``time``.

        A process crashing in round ``c`` operates correctly at times
        ``0 .. c-1`` and is considered crashed from time ``c`` on (its
        round-``c`` behaviour is computed at time ``c-1``).
        """
        event = self._crashes.get(process)
        return event is None or time < event.round

    def active_processes(self, time: Time) -> FrozenSet[ProcessId]:
        """All processes active at ``time``."""
        return frozenset(p for p in range(self._n) if self.is_active(p, time))

    def max_crash_round(self) -> Round:
        """The latest crashing round (0 if the pattern is failure-free)."""
        return max((e.round for e in self._crashes.values()), default=0)

    # ------------------------------------------------------------- deliveries
    def delivered(self, sender: ProcessId, receiver: ProcessId, round_: Round) -> bool:
        """Whether the round-``round_`` message ``sender -> receiver`` is delivered.

        This is exactly the presence of the edge
        ``(<sender, round_-1>, <receiver, round_>)`` in the layered graph
        ``F``.  Self-delivery is always reported as ``True`` for an active
        sender because a process has access to its own state (the run engine
        treats the self-edge separately, but exposing it here keeps the
        communication-graph view uniform).
        """
        if round_ < 1:
            raise ValueError(f"rounds are numbered from 1, got {round_}")
        if not (0 <= sender < self._n and 0 <= receiver < self._n):
            raise ValueError(f"unknown process in delivered({sender}, {receiver})")
        event = self._crashes.get(sender)
        if event is None or round_ < event.round:
            # Correct in this round: all messages delivered.
            return True
        if round_ == event.round:
            return sender == receiver or event.delivers_to(receiver)
        return False

    def senders_to(self, receiver: ProcessId, round_: Round) -> FrozenSet[ProcessId]:
        """All processes ``j != receiver`` whose round-``round_`` message reaches ``receiver``."""
        return frozenset(
            sender
            for sender in range(self._n)
            if sender != receiver and self.delivered(sender, receiver, round_)
        )

    # ------------------------------------------------------------ validation
    def check_crash_bound(self, t: int) -> None:
        """Raise if this pattern has more than ``t`` failures (membership in ``Crash(t)``)."""
        validate_crash_bound(self._n, t)
        if self.num_failures > t:
            raise ValueError(
                f"failure pattern has {self.num_failures} crashes, exceeding the bound t={t}"
            )

    # ------------------------------------------------------------- factories
    @staticmethod
    def failure_free(n: int) -> "FailurePattern":
        """The failure-free pattern on ``n`` processes."""
        return FailurePattern(n, ())
