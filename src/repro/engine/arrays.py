"""Array-backed view state for the batch execution engine.

The reference engine (:mod:`repro.model.run`) materialises one
:class:`repro.model.view.View` object — three tuples plus a senders record —
per process per time per adversary.  On the batch path that churn dominates
the cost of a sweep, so this module replaces it with *structure layers*:

* A :class:`StructLayer` holds, for one equivalence class of adversaries (all
  failure patterns agreeing on the crash events of rounds ``1 .. m``), the
  flat ``latest_seen`` / ``earliest_evidence`` integer rows of every process
  active at time ``m``.  Crucially the structure of a view — which nodes are
  seen, which are provably crashed, which are hidden — does not depend on the
  input vector at all, so one ``StructLayer`` is shared by *every* input
  vector crossed with the patterns of its class.  Expensive purely-structural
  summaries (hidden capacity, known-failure counts, seen-process lists) are
  computed once per layer and reused across the whole cross product.
* Layers are copy-on-write: a child layer copies a parent row only when the
  round's deliveries actually change it; untouched evidence rows are shared
  by reference with the parent.
* :class:`ArrayView` is a thin, lazily-evaluated adapter giving one process's
  slice of a layer the read API of :class:`repro.model.view.View`, and
  :class:`BatchContext` mirrors :class:`repro.model.run.RoundContext` so the
  unmodified protocol decision rules run unchanged on the batch path.

Evidence entries use the integer sentinel :data:`NO_EVIDENCE_INT` instead of
``math.inf`` so rows stay homogeneous int tuples; the :class:`ArrayView`
accessors translate back to the ``View`` conventions where needed.

The per-layer inner loops are written as C-level kernels over the flat rows
(ROADMAP vectorisation item, numpy-free): row merges run as single
``map(max, ...)`` / ``map(min, ...)`` passes across all sender rows at once,
copy-on-write sharing deduplicates evidence rows by identity before merging,
and the hidden-capacity scan uses an ``array('i')`` difference accumulator —
``O(n + m)`` per observer instead of the former ``O(n·m)`` layer-by-layer
count.
"""

from __future__ import annotations

import math
from array import array
from operator import itemgetter
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..model.failure_pattern import CrashEvent
from ..model.run import evaluate_knows_persist
from ..model.types import ProcessId, ProcessTimeNode, Time, Value

#: Integer stand-in for ``repro.model.view.NO_EVIDENCE`` (``math.inf``).
#: Any value larger than every reachable round works; it only ever enters
#: ``<`` / ``<=`` comparisons against round numbers.
NO_EVIDENCE_INT = 1 << 30


def evidence_view(row: Tuple[int, ...]) -> Tuple[float, ...]:
    """An ``earliest_evidence`` row in ``View`` conventions (``math.inf`` sentinel)."""
    return tuple(math.inf if e >= NO_EVIDENCE_INT else e for e in row)


class StructLayer:
    """The value-independent state of all active processes at one time.

    One layer is shared by every adversary whose failure pattern agrees on
    the crash events of rounds ``1 .. time`` — later crashes cannot have
    influenced any view yet — and by every input vector, since message
    delivery (and hence the seen / crashed / hidden classification) is blind
    to initial values.
    """

    __slots__ = (
        "time",
        "n",
        "parent",
        "rows_seen",
        "rows_evidence",
        "inactive",
        "events",
        "_crashing",
        "_hc",
        "_kf",
        "_seen0",
        "_prev_seen",
        "_senders",
        "_round_senders",
        "_ev_view",
        "_seen_getters",
    )

    def __init__(
        self,
        time: Time,
        n: int,
        parent: Optional["StructLayer"],
        rows_seen: List[Optional[Tuple[int, ...]]],
        rows_evidence: List[Optional[Tuple[int, ...]]],
        inactive: FrozenSet[ProcessId],
        events: Tuple[CrashEvent, ...] = (),
    ) -> None:
        self.time = time
        self.n = n
        self.parent = parent
        #: Per-process ``latest_seen`` row (``None`` for processes with no
        #: state at this time, i.e. crashed in some round ``<= time``).
        self.rows_seen = rows_seen
        #: Per-process ``earliest_evidence`` row (ints, :data:`NO_EVIDENCE_INT`).
        self.rows_evidence = rows_evidence
        #: Processes with no node at this time.
        self.inactive = inactive
        #: The crash events of the round that produced this layer (round
        #: ``time``; empty for the root).  Kept so per-round sender sets —
        #: hence canonical ``view_key``s — can be derived from the layer chain.
        self.events = events
        self._crashing: Optional[Dict[ProcessId, CrashEvent]] = None
        # Lazily computed per-process structural summaries.
        self._hc: List[Optional[int]] = [None] * n
        self._kf: List[Optional[int]] = [None] * n
        self._seen0: List[Optional[Tuple[int, ...]]] = [None] * n
        self._prev_seen: List[Optional[Tuple[int, ...]]] = [None] * n
        # The view-materialisation caches (sender sets, View-convention
        # evidence rows) are allocated on first use: plain decision sweeps
        # never touch them, and the scheduler builds thousands of layers.
        # So is the seen-inputs projection, which only decision passes use.
        self._senders: Optional[List[Optional[FrozenSet[ProcessId]]]] = None
        self._round_senders: Optional[List[Optional[Tuple[FrozenSet[ProcessId], ...]]]] = None
        self._ev_view: Optional[List[Optional[Tuple[float, ...]]]] = None
        self._seen_getters: Optional[List[Optional[Callable[[Tuple[Value, ...]], object]]]] = None

    # ------------------------------------------------------------- factories
    @staticmethod
    def root(n: int) -> "StructLayer":
        """The time-0 layer: every process knows exactly its own initial node."""
        rows_seen: List[Optional[Tuple[int, ...]]] = [
            tuple(0 if j == i else -1 for j in range(n)) for i in range(n)
        ]
        no_evidence = (NO_EVIDENCE_INT,) * n
        rows_evidence: List[Optional[Tuple[int, ...]]] = [no_evidence] * n
        return StructLayer(0, n, None, rows_seen, rows_evidence, frozenset())

    def child(self, events_at_round: Sequence[CrashEvent]) -> "StructLayer":
        """Advance one round: apply the crash events of round ``time + 1``.

        Semantically identical to ``Run._simulate``'s inner loop, but for a
        whole equivalence class of adversaries at once and without building
        ``View`` objects: each surviving observer's round-``m`` sender set is
        read off the events, and :meth:`observer_rows` merges its rows.
        """
        n = self.n
        crashing: Dict[ProcessId, CrashEvent] = {e.process: e for e in events_at_round}
        inactive = self.inactive.union(crashing)
        live = [j for j in range(n) if j not in self.inactive]
        rows_seen: List[Optional[Tuple[int, ...]]] = [None] * n
        rows_evidence: List[Optional[Tuple[int, ...]]] = [None] * n
        for i in range(n):
            if i in inactive:
                continue
            senders = {
                j
                for j in live
                if j != i and (j not in crashing or i in crashing[j].receivers)
            }
            rows_seen[i], rows_evidence[i] = self.observer_rows(i, senders)
        return StructLayer(
            self.time + 1, n, self, rows_seen, rows_evidence, inactive, tuple(events_at_round)
        )

    def observer_rows(
        self, process: ProcessId, senders: AbstractSet[ProcessId]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``process``'s ``(latest_seen, earliest_evidence)`` rows one round on.

        In the full-information protocol an observer's time-``m`` state is
        its own time-``m-1`` state plus those of its round-``m`` ``senders``
        (processes with a state at this layer), so the rows depend on this
        layer, the observer and the sender set alone.  Every other process
        is silent to it in round ``m`` — fresh crash evidence: it crashed
        earlier, or its round-``m`` message to the observer was lost.

        ``latest_seen`` is one C-level ``map(max, ...)`` pass over the sender
        rows (each already sees its sender at ``m-1``) and
        ``earliest_evidence`` one ``map(min, ...)`` pass over the *distinct*
        sender evidence rows: copy-on-write makes most of them the same
        object, so identity deduplication collapses the merge, and the
        observer's own row is shared when the round adds no evidence.
        """
        m = self.time + 1
        parent_seen = self.rows_seen
        parent_evidence = self.rows_evidence
        ev_row = parent_evidence[process]
        sender_seen: List[Tuple[int, ...]] = []
        evidence_rows: Dict[int, Tuple[int, ...]] = {}
        silent: List[ProcessId] = []
        for j in range(self.n):
            if j == process:
                continue
            if j in senders:
                sender_seen.append(parent_seen[j])
                sj_ev = parent_evidence[j]
                if sj_ev is not ev_row:
                    evidence_rows[id(sj_ev)] = sj_ev
            else:
                silent.append(j)

        ls = list(parent_seen[process])
        ls[process] = m
        if sender_seen:
            ls = list(map(max, ls, *sender_seen))

        ev: Optional[List[int]] = None
        if evidence_rows:
            ev = list(map(min, ev_row, *evidence_rows.values()))
        for j in silent:
            current = ev_row[j] if ev is None else ev[j]
            if m < current:
                if ev is None:
                    ev = list(ev_row)
                ev[j] = m
        if ev is None:
            return tuple(ls), ev_row
        new_ev = tuple(ev)
        return tuple(ls), ev_row if new_ev == ev_row else new_ev

    # ------------------------------------------------------------- summaries
    def hidden_capacity(self, process: ProcessId) -> int:
        """``HC<process, time>`` — shared across every adversary of the class.

        Process ``j`` is hidden at exactly the layers ``latest_seen[j]+1 ..
        earliest_evidence[j]-1``, a contiguous range, so the per-layer hidden
        counts are a difference-array prefix sum: ``O(n + time)`` instead of
        scanning every (layer, process) pair.
        """
        cached = self._hc[process]
        if cached is None:
            ls = self.rows_seen[process]
            ev = self.rows_evidence[process]
            top = self.time + 1  # exclusive upper bound on the layer index
            diff = array("i", (0,)) * (top + 1)
            for start, end in zip(ls, ev):
                start += 1
                if end > top:
                    end = top
                if start < end:
                    diff[start] += 1
                    diff[end] -= 1
            best = self.n
            count = 0
            for delta in diff[:top]:
                count += delta
                if count < best:
                    best = count
                    if not best:
                        break
            cached = self._hc[process] = best
        return cached

    def known_failure_count(self, process: ProcessId) -> int:
        """Number of processes the observer holds crash evidence for."""
        cached = self._kf[process]
        if cached is None:
            ev = self.rows_evidence[process]
            cached = self._kf[process] = sum(1 for e in ev if e < NO_EVIDENCE_INT)
        return cached

    def evidence_view_row(self, process: ProcessId) -> Tuple[float, ...]:
        """The evidence row in ``View`` conventions (``math.inf`` sentinel).

        Cached per (layer, process): canonical view keys need it once per
        equivalence class, not once per adversary.
        """
        cache = self._ev_view
        if cache is None:
            cache = self._ev_view = [None] * self.n
        cached = cache[process]
        if cached is None:
            cached = cache[process] = evidence_view(self.rows_evidence[process])
        return cached

    def seen_initial(self, process: ProcessId) -> Tuple[int, ...]:
        """Processes whose time-0 node (hence initial value) the observer has seen."""
        cached = self._seen0[process]
        if cached is None:
            ls = self.rows_seen[process]
            cached = self._seen0[process] = tuple(j for j in range(self.n) if ls[j] >= 0)
        return cached

    def seen_values_getters(self) -> List[Optional[Callable[[Tuple[Value, ...]], object]]]:
        """Per process, an ``itemgetter`` of the inputs it has seen
        (:meth:`seen_initial`; a bare value when that is only its own), or
        ``None`` without a state here.  Built for the whole layer on first use.
        """
        getters = self._seen_getters
        if getters is None:
            getters = self._seen_getters = [
                None if row is None else itemgetter(*self.seen_initial(i))
                for i, row in enumerate(self.rows_seen)
            ]
        return getters

    def previous_layer_seen(self, process: ProcessId) -> Tuple[int, ...]:
        """Seen nodes ``<j, time-1>`` with a state in the parent layer (Definition 3)."""
        cached = self._prev_seen[process]
        if cached is None:
            if self.parent is None:
                cached = ()
            else:
                ls = self.rows_seen[process]
                threshold = self.time - 1
                parent_seen = self.parent.rows_seen
                cached = tuple(
                    j
                    for j in range(self.n)
                    if ls[j] >= threshold and parent_seen[j] is not None
                )
            self._prev_seen[process] = cached
        return cached

    def ancestor(self, time: Time) -> "StructLayer":
        """The layer of this class at an earlier ``time`` (walks the parent chain)."""
        layer = self
        while layer.time > time:
            layer = layer.parent
        return layer

    # ------------------------------------------------------------ sender sets
    def senders_of(self, process: ProcessId) -> FrozenSet[ProcessId]:
        """The processes whose round-``time`` message reached ``process``.

        Only meaningful for processes active at this layer; matches the
        ``senders`` set the reference engine records on each ``View`` (other
        processes active at ``time - 1`` that did not crash this round
        without delivering to the receiver).  Empty at the root (no round has
        happened yet).
        """
        cache = self._senders
        if cache is None:
            cache = self._senders = [None] * self.n
        cached = cache[process]
        if cached is None:
            parent = self.parent
            if parent is None:
                cached = frozenset()
            else:
                crashing = self._crashing
                if crashing is None:
                    crashing = self._crashing = {e.process: e for e in self.events}
                parent_seen = parent.rows_seen
                cached = frozenset(
                    j
                    for j in range(self.n)
                    if j != process
                    and parent_seen[j] is not None
                    and (j not in crashing or process in crashing[j].receivers)
                )
            cache[process] = cached
        return cached

    def round_senders_of(self, process: ProcessId) -> Tuple[FrozenSet[ProcessId], ...]:
        """``View.round_senders`` for an active process: entry ``r-1`` is the
        sender set of round ``r``, accumulated along the parent chain (and
        cached per layer, so shared prefixes pay for it once).  The chain is
        walked in a loop, so a long horizon needs no Python frame per round."""
        pending: List[StructLayer] = []
        layer = self
        while True:
            cache = layer._round_senders
            if cache is None:
                cache = layer._round_senders = [None] * layer.n
            cached = cache[process]
            if cached is not None:
                break
            if layer.parent is None:
                cached = cache[process] = ()
                break
            pending.append(layer)
            layer = layer.parent
        for layer in reversed(pending):
            cached = layer._round_senders[process] = cached + (layer.senders_of(process),)
        return cached


class ArrayView:
    """One process's slice of a :class:`StructLayer` under one input vector.

    Implements the read API of :class:`repro.model.view.View` that protocol
    decision rules (and introspection helpers) use, backed by the shared
    layer arrays instead of per-adversary tuples.
    """

    __slots__ = ("_layer", "_process", "_values", "_min")

    def __init__(self, layer: StructLayer, process: ProcessId, values: Tuple[Value, ...]) -> None:
        self._layer = layer
        self._process = process
        self._values = values
        self._min: Optional[Value] = None

    # ------------------------------------------------------------------ basic
    @property
    def process(self) -> ProcessId:
        return self._process

    @property
    def time(self) -> Time:
        return self._layer.time

    @property
    def n(self) -> int:
        return self._layer.n

    @property
    def node(self) -> ProcessTimeNode:
        return ProcessTimeNode(self._process, self._layer.time)

    @property
    def latest_seen(self) -> Tuple[int, ...]:
        return self._layer.rows_seen[self._process]

    @property
    def earliest_evidence(self) -> Tuple[float, ...]:
        """Evidence row in ``View`` conventions (``math.inf`` for no evidence)."""
        return self._layer.evidence_view_row(self._process)

    @property
    def round_senders(self) -> Tuple[FrozenSet[ProcessId], ...]:
        """Per-round sender sets in ``View`` conventions (derived from the
        layer chain).  With this the canonical :func:`repro.model.view.view_key`
        applies to either engine's views unchanged."""
        return self._layer.round_senders_of(self._process)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayView(p{self._process}@t{self._layer.time}, "
            f"seen={list(self.latest_seen)}, vals={sorted(self.values())})"
        )

    # ----------------------------------------------------------- node status
    def is_seen(self, node: ProcessTimeNode) -> bool:
        return node.time <= self._layer.rows_seen[self._process][node.process]

    def is_guaranteed_crashed(self, node: ProcessTimeNode) -> bool:
        return self._layer.rows_evidence[self._process][node.process] <= node.time

    def is_hidden(self, node: ProcessTimeNode) -> bool:
        return not self.is_seen(node) and not self.is_guaranteed_crashed(node)

    def hidden_processes_at(self, layer: Time) -> FrozenSet[ProcessId]:
        if layer < 0:
            raise ValueError(f"layer must be >= 0, got {layer}")
        ls = self._layer.rows_seen[self._process]
        ev = self._layer.rows_evidence[self._process]
        return frozenset(j for j in range(self._layer.n) if ls[j] < layer < ev[j])

    def hidden_count_at(self, layer: Time) -> int:
        if layer < 0:
            raise ValueError(f"layer must be >= 0, got {layer}")
        ls = self._layer.rows_seen[self._process]
        ev = self._layer.rows_evidence[self._process]
        count = 0
        for j in range(self._layer.n):
            if ls[j] < layer < ev[j]:
                count += 1
        return count

    def hidden_profile(self) -> Tuple[int, ...]:
        return tuple(self.hidden_count_at(layer) for layer in range(self.time + 1))

    def seen_processes_at(self, layer: Time) -> FrozenSet[ProcessId]:
        ls = self._layer.rows_seen[self._process]
        return frozenset(j for j in range(self._layer.n) if ls[j] >= layer)

    def known_crashed_processes(self) -> FrozenSet[ProcessId]:
        ev = self._layer.rows_evidence[self._process]
        return frozenset(j for j in range(self._layer.n) if ev[j] < NO_EVIDENCE_INT)

    def known_failure_count(self) -> int:
        return self._layer.known_failure_count(self._process)

    # --------------------------------------------------------------- values
    def knows_value(self, value: Value) -> bool:
        values = self._values
        for j in self._layer.seen_initial(self._process):
            if values[j] == value:
                return True
        return False

    def values(self) -> FrozenSet[Value]:
        values = self._values
        return frozenset(values[j] for j in self._layer.seen_initial(self._process))

    def value_of(self, process: ProcessId) -> Optional[Value]:
        if self._layer.rows_seen[self._process][process] < 0:
            return None
        return self._values[process]

    def lows(self, k: int) -> FrozenSet[Value]:
        return frozenset(v for v in self.values() if v < k)

    def min_value(self) -> Value:
        if self._min is None:
            values = self._values
            self._min = min([values[j] for j in self._layer.seen_initial(self._process)])
        return self._min

    def is_low(self, k: int) -> bool:
        return self.min_value() < k

    def is_high(self, k: int) -> bool:
        return not self.is_low(k)

    # ------------------------------------------------------- hidden capacity
    def hidden_capacity(self) -> int:
        return self._layer.hidden_capacity(self._process)

    def has_hidden_path(self) -> bool:
        return self.hidden_capacity() >= 1


class BatchContext:
    """Drop-in replacement for :class:`repro.model.run.RoundContext`.

    Provides the exact decision-rule surface — ``view``, ``previous_view``,
    ``n``, ``t``, ``process``, ``time``, ``count_previous_layer_knowers``,
    ``own_view_at``, ``knows_persist`` — backed by the shared layer chain, so
    protocol implementations cannot tell which engine is driving them.
    """

    __slots__ = ("view", "previous_view", "n", "t", "_layer", "_values")

    def __init__(
        self,
        layer: StructLayer,
        process: ProcessId,
        values: Tuple[Value, ...],
        n: int,
        t: int,
    ) -> None:
        self._layer = layer
        self._values = values
        self.n = n
        self.t = t
        self.view = ArrayView(layer, process, values)
        parent = layer.parent
        self.previous_view = (
            ArrayView(parent, process, values)
            if parent is not None and parent.rows_seen[process] is not None
            else None
        )

    @property
    def process(self) -> ProcessId:
        return self.view.process

    @property
    def time(self) -> Time:
        return self._layer.time

    def count_previous_layer_knowers(self, value: Value) -> int:
        """How many distinct seen nodes ``<j, m-1>`` have seen ``value``."""
        layer = self._layer
        parent = layer.parent
        if parent is None:
            return 0
        values = self._values
        count = 0
        for j in layer.previous_layer_seen(self.view.process):
            for p in parent.seen_initial(j):
                if values[p] == value:
                    count += 1
                    break
        return count

    def own_view_at(self, time: Time) -> Optional[ArrayView]:
        """The deciding process's own view at an earlier time (``None`` before 0)."""
        if time < 0:
            return None
        return ArrayView(self._layer.ancestor(time), self.view.process, self._values)

    def knows_persist(self, value: Value) -> bool:
        """Definition 3 — the one implementation shared with ``RoundContext``."""
        return evaluate_knows_persist(self, value)
