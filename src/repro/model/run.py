"""The run engine: executing a full-information protocol against an adversary.

A protocol ``P`` and an adversary ``α`` uniquely determine a run ``r = P[α]``
(paper, Section 2.1).  Since only benign crash failures are considered and we
care about decision times and solvability, it suffices to consider
full-information protocols (Coan's reduction), which differ only in the
decision rules applied at the nodes.  The engine therefore:

1. simulates the synchronous rounds dictated by the failure pattern,
   maintaining for every active node ``<i, m>`` its full-information view
   (:class:`repro.model.view.View`), and
2. applies the protocol's decision rule at every node, in time order,
   recording the first decision of every process.

The engine also exposes the handful of cross-view queries the protocols need
(e.g. the persistence count of Definition 3) and convenience accessors used
throughout the tests, examples and benchmarks.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .adversary import Adversary
from .types import Decision, ProcessId, Time, Value
from .view import NEVER_SEEN, NO_EVIDENCE, View


def evaluate_knows_persist(ctx, value: Value) -> bool:
    """Definition 3 (*knows-persist*), shared by both engines' contexts.

    ``ctx`` is any decision context exposing ``time``, ``t``, ``view``,
    ``previous_view`` and ``count_previous_layer_knowers`` —
    :class:`RoundContext` here or :class:`repro.engine.BatchContext` on the
    batch path.  One body keeps the two engines' persistence semantics from
    ever drifting apart.

    Either (a) ``m > 0``, the process is active at ``m`` and has seen
    ``value`` by time ``m-1``; or (b) the process currently sees at least
    ``t - d`` distinct time-``(m-1)`` nodes that have seen ``value``, where
    ``d`` is the number of failures it knows of.
    """
    if ctx.time > 0 and ctx.previous_view is not None and ctx.previous_view.knows_value(value):
        return True
    d = ctx.view.known_failure_count()
    needed = ctx.t - d
    if needed <= 0:
        # The observer already knows of t failures: no further crash can
        # occur, so every value it has seen is held by a correct process.
        return ctx.view.knows_value(value)
    return ctx.count_previous_layer_knowers(value) >= needed


class RoundContext:
    """Everything a protocol's decision rule may look at when deciding at ``<i, m>``.

    A full-information protocol's decision at ``<i, m>`` is a deterministic
    function of ``i``'s local state (its view) — but several of the paper's
    protocols are parameterised by the system constants ``n`` and ``t`` and,
    in the uniform case, consult the *previous* local state of the same
    process and the persistence count of Definition 3 (both of which are
    functions of the current view; they are precomputed here for convenience
    and efficiency).
    """

    __slots__ = ("view", "previous_view", "n", "t", "_run")

    def __init__(
        self,
        view: View,
        previous_view: Optional[View],
        n: int,
        t: int,
        run: "Run",
    ) -> None:
        self.view = view
        self.previous_view = previous_view
        self.n = n
        self.t = t
        self._run = run

    @property
    def process(self) -> ProcessId:
        """The deciding process."""
        return self.view.process

    @property
    def time(self) -> Time:
        """The current time ``m``."""
        return self.view.time

    def count_previous_layer_knowers(self, value: Value) -> int:
        """How many distinct seen nodes ``<j, m-1>`` have seen ``value``.

        This is the quantity compared against ``t - d`` in Definition 3
        (knows-persist).  At time 0 the previous layer is empty and the count
        is 0.
        """
        return self._run.count_previous_layer_knowers(self.process, self.time, value)

    def own_view_at(self, time: Time) -> Optional[View]:
        """The deciding process's own view at an earlier time (``None`` before time 0).

        Full-information protocols may consult any part of the local history;
        in particular the uniform baselines compare failure counts across two
        consecutive earlier views.
        """
        if time < 0:
            return None
        return self._run.view(self.process, time)

    def knows_persist(self, value: Value) -> bool:
        """Definition 3: whether the process knows that ``value`` will persist."""
        return evaluate_knows_persist(self, value)


def default_horizon(protocol, n: int, t: int, horizon: Optional[int] = None) -> int:
    """Resolve the default simulation horizon for a run.

    The single source of the policy shared by :class:`Run` and the batch
    engine (:mod:`repro.engine`): the protocol's declared worst-case decision
    time plus one round of slack, or ``t + 2`` without a protocol, never
    below 1.  Keeping one helper guarantees both engines simulate identical
    horizons (part of the differential contract).
    """
    if horizon is None:
        if protocol is not None and hasattr(protocol, "max_decision_time"):
            horizon = int(protocol.max_decision_time(n, t)) + 1
        else:
            horizon = t + 2
    return max(horizon, 1)


class DecisionSummary(NamedTuple):
    """The faulty-set-independent facts of one run's decisions.

    Every member of a batch-engine trie group shares its decisions and its
    input vector, so the fused pass builds one summary per group; the
    property verdicts (:func:`repro.verification.properties.summary_verdict`)
    need only this plus the member's correct set and time bound.
    """

    #: The decision events, ordered by process id.
    decisions: Tuple[Decision, ...]
    #: Bitmask of the processes that decided.
    decided: int
    #: Whether every decided value is some process's input.
    valid: bool
    #: The number of distinct decided values (faulty deciders included).
    distinct: int
    #: The decision events ordered by time, latest first.
    latest_first: Tuple[Decision, ...]


def summarize_decisions(
    decisions: Tuple[Decision, ...], values: Sequence[Value]
) -> DecisionSummary:
    """The :class:`DecisionSummary` of ``decisions`` under input vector ``values``."""
    decided = 0
    for decision in decisions:
        decided |= 1 << decision.process
    decided_values = {decision.value for decision in decisions}
    return DecisionSummary(
        decisions,
        decided,
        decided_values.issubset(values),
        len(decided_values),
        tuple(sorted(decisions, key=lambda decision: decision.time, reverse=True)),
    )


class Run:
    """A run ``r = P[α]``: the execution of a protocol against an adversary.

    The constructor performs the whole simulation eagerly (runs in this model
    are short — ``O(t)`` rounds — and eager execution keeps the accessors
    trivially cheap and the object immutable afterwards).

    Parameters
    ----------
    protocol:
        Any object implementing the :class:`repro.core.protocol.Protocol`
        interface (``decide(ctx) -> Optional[Value]`` plus metadata).  ``None``
        may be passed to simulate the bare full-information exchange without
        any decisions (useful for building protocol complexes).
    adversary:
        The adversary ``α = (v⃗, F)``.
    t:
        The a-priori crash bound made available to the protocol.
    horizon:
        How many rounds to simulate.  Defaults to the protocol's declared
        worst-case decision time (plus one round of slack), or ``t + 2``.
    """

    def __init__(
        self,
        protocol,
        adversary: Adversary,
        t: int,
        horizon: Optional[int] = None,
    ) -> None:
        adversary.pattern.check_crash_bound(t)
        self._protocol = protocol
        self._adversary = adversary
        self._t = t
        self._n = adversary.n
        self._horizon = default_horizon(protocol, self._n, t, horizon)
        self._views: Dict[Tuple[ProcessId, Time], View] = {}
        self._decisions: Dict[ProcessId, Decision] = {}
        self._simulate()

    # -------------------------------------------------------------- accessors
    @property
    def adversary(self) -> Adversary:
        """The adversary this run was executed against."""
        return self._adversary

    @property
    def protocol(self):
        """The protocol that produced this run (``None`` for bare fip runs)."""
        return self._protocol

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    @property
    def t(self) -> int:
        """The a-priori crash bound."""
        return self._t

    @property
    def horizon(self) -> int:
        """The last simulated time."""
        return self._horizon

    def view(self, process: ProcessId, time: Time) -> View:
        """The full-information view of ``process`` at ``time``.

        Raises ``KeyError`` if the process had already crashed by ``time`` (it
        has no local state there) or if ``time`` exceeds the horizon.
        """
        return self._views[(process, time)]

    def has_view(self, process: ProcessId, time: Time) -> bool:
        """Whether ``process`` has a local state at ``time`` in this run."""
        return (process, time) in self._views

    def views_at(self, time: Time) -> Dict[ProcessId, View]:
        """All views of processes that are active at ``time``."""
        return {p: v for (p, m), v in self._views.items() if m == time}

    def decisions(self) -> Tuple[Decision, ...]:
        """All decision events, ordered by process id."""
        return tuple(self._decisions[p] for p in sorted(self._decisions))

    def decision_summary(self) -> DecisionSummary:
        """The :class:`DecisionSummary` of this run's decisions."""
        return summarize_decisions(self.decisions(), self._adversary.values)

    def decision(self, process: ProcessId) -> Optional[Decision]:
        """The decision event of ``process`` (``None`` if it never decides)."""
        return self._decisions.get(process)

    def decision_value(self, process: ProcessId) -> Optional[Value]:
        """The value ``process`` decided on, or ``None``."""
        d = self._decisions.get(process)
        return None if d is None else d.value

    def decision_time(self, process: ProcessId) -> Optional[Time]:
        """The time at which ``process`` decided, or ``None``."""
        d = self._decisions.get(process)
        return None if d is None else d.time

    def decided_values(self, correct_only: bool = False) -> FrozenSet[Value]:
        """The set of values decided on (optionally restricted to correct processes)."""
        pattern = self._adversary.pattern
        return frozenset(
            d.value
            for p, d in self._decisions.items()
            if not correct_only or not pattern.is_faulty(p)
        )

    def correct_processes(self) -> FrozenSet[ProcessId]:
        """The correct processes of this run."""
        return self._adversary.pattern.correct

    def last_decision_time(self, correct_only: bool = True) -> Optional[Time]:
        """The time of the last decision (by default, among correct processes)."""
        pattern = self._adversary.pattern
        times = [
            d.time
            for p, d in self._decisions.items()
            if not correct_only or not pattern.is_faulty(p)
        ]
        return max(times) if times else None

    # ------------------------------------------------------- derived queries
    def count_previous_layer_knowers(self, process: ProcessId, time: Time, value: Value) -> int:
        """Count seen nodes ``<j, time-1>`` that have seen ``value`` (Definition 3)."""
        if time == 0:
            return 0
        observer = self._views[(process, time)]
        count = 0
        for j in range(self._n):
            if observer.latest_seen[j] >= time - 1 and (j, time - 1) in self._views:
                if self._views[(j, time - 1)].knows_value(value):
                    count += 1
        return count

    def hidden_capacity(self, process: ProcessId, time: Time) -> int:
        """``HC<process, time>`` in this run (convenience wrapper over the view)."""
        return self._views[(process, time)].hidden_capacity()

    # -------------------------------------------------------------- simulation
    def _simulate(self) -> None:
        pattern = self._adversary.pattern
        values = self._adversary.values
        n = self._n

        # Time 0: every process knows exactly its own initial value.
        for i in range(n):
            if not pattern.is_active(i, 0):
                continue
            latest_seen = [NEVER_SEEN] * n
            latest_seen[i] = 0
            evidence = [NO_EVIDENCE] * n
            initial: List[Optional[Value]] = [None] * n
            initial[i] = values[i]
            self._views[(i, 0)] = View(i, 0, n, latest_seen, evidence, initial, ())
        self._apply_decisions(0)

        for time in range(1, self._horizon + 1):
            round_ = time  # round `time` spans times time-1 .. time
            for i in range(n):
                if not pattern.is_active(i, time):
                    continue
                previous = self._views[(i, time - 1)]
                senders = frozenset(
                    j for j in pattern.senders_to(i, round_) if (j, time - 1) in self._views
                )
                latest_seen = list(previous.latest_seen)
                evidence = list(previous.earliest_evidence)
                initial = [previous.value_of(j) for j in range(n)]
                latest_seen[i] = time
                for j in senders:
                    sender_view = self._views[(j, time - 1)]
                    for p in range(n):
                        if sender_view.latest_seen[p] > latest_seen[p]:
                            latest_seen[p] = sender_view.latest_seen[p]
                        if sender_view.earliest_evidence[p] < evidence[p]:
                            evidence[p] = sender_view.earliest_evidence[p]
                        if initial[p] is None and sender_view.value_of(p) is not None:
                            initial[p] = sender_view.value_of(p)
                    if latest_seen[j] < time - 1:
                        latest_seen[j] = time - 1
                # Direct evidence: any process whose round message failed to
                # arrive must have crashed in this round or earlier.
                for j in range(n):
                    if j != i and j not in senders and round_ < evidence[j]:
                        evidence[j] = round_
                # Fill in initial values of newly seen time-0 nodes.
                for j in range(n):
                    if latest_seen[j] >= 0 and initial[j] is None:
                        initial[j] = values[j]
                round_senders = previous.round_senders + (senders,)
                self._views[(i, time)] = View(
                    i, time, n, latest_seen, evidence, initial, round_senders
                )
            self._apply_decisions(time)
            if self._all_active_decided(time):
                break

    def _apply_decisions(self, time: Time) -> None:
        if self._protocol is None:
            return
        for i in range(self._n):
            if i in self._decisions or (i, time) not in self._views:
                continue
            view = self._views[(i, time)]
            previous = self._views.get((i, time - 1)) if time > 0 else None
            ctx = RoundContext(view, previous, self._n, self._t, self)
            value = self._protocol.decide(ctx)
            if value is not None:
                self._decisions[i] = Decision(i, value, time)

    def _all_active_decided(self, time: Time) -> bool:
        if self._protocol is None:
            return False
        active = self._adversary.pattern.active_processes(time)
        return all(p in self._decisions for p in active)


def execute(protocol, adversary: Adversary, t: int, horizon: Optional[int] = None) -> Run:
    """Convenience wrapper: simulate ``protocol`` against ``adversary`` and return the run."""
    return Run(protocol, adversary, t, horizon)

