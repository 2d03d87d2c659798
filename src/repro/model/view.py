"""Full-information views ``Gα(i, m)`` and the seen / crashed / hidden classification.

In a full-information protocol (fip), process ``i``'s local state at time ``m``
is its *view* ``Gα(i, m)`` — the subgraph of the communication graph ``Gα``
from which a (Lamport) message chain reaches ``<i, m>``, together with the
initial values of its time-0 nodes (paper, Section 2.1).

The paper classifies every process-time node ``<j, ℓ>`` with respect to an
observer ``<i, m>`` (Section 3):

* **seen** — ``i`` has received a message chain carrying ``j``'s state at ``ℓ``;
* **guaranteed crashed** — ``i`` has proof that ``j`` crashed before time ``ℓ``
  (``i`` heard from someone who did not hear from ``j`` in some round ``<= ℓ``);
* **hidden** — neither of the above.

Because views in the crash model are closed under "earlier states of the same
process", a view is fully captured by two per-process quantities:

* ``latest_seen[j]`` — the largest ``ℓ`` with ``<j, ℓ>`` seen (or ``None``);
* ``earliest_evidence[j]`` — the smallest round ``c`` such that some *seen*
  node ``<h, c>`` did not receive ``j``'s round-``c`` message (or ``None`` if
  the observer has no proof that ``j`` ever crashed).

``<j, ℓ>`` is then *hidden* from the observer iff
``latest_seen[j] < ℓ < earliest_evidence[j]`` (with the conventions
``latest_seen = -1`` when nothing is seen and ``earliest_evidence = +∞`` when
there is no evidence).

This module implements :class:`View` with exactly these summaries plus the
paper's derived notions: ``Vals``, ``Lows``, ``Min``, low/high status, hidden
layers, hidden capacity witnesses, and the number of known failures used by
the *knows-persist* predicate (Definition 3).
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .types import ProcessId, ProcessTimeNode, Time, Value

#: Sentinel meaning "the observer has no proof this process ever crashed".
NO_EVIDENCE = math.inf

#: Sentinel meaning "the observer has not seen any state of this process".
NEVER_SEEN = -1


class View:
    """The full-information view of a single process at a single time.

    Views are produced by the run engine (:mod:`repro.model.run`); user code
    normally obtains them via :meth:`repro.model.run.Run.view`.

    The class is deliberately rich: every notion the paper defines on views
    (``Vals``, ``Lows``, ``Min``, hidden nodes, hidden capacity, known
    failures, persistence witnesses) is exposed as a method here so that the
    protocol implementations in :mod:`repro.core` read like the paper's
    pseudo-code.
    """

    __slots__ = (
        "_process",
        "_time",
        "_n",
        "_latest_seen",
        "_earliest_evidence",
        "_initial_values",
        "_round_senders",
    )

    def __init__(
        self,
        process: ProcessId,
        time: Time,
        n: int,
        latest_seen: Sequence[int],
        earliest_evidence: Sequence[float],
        initial_values: Sequence[Optional[Value]],
        round_senders: Tuple[FrozenSet[ProcessId], ...],
    ) -> None:
        if len(latest_seen) != n or len(earliest_evidence) != n or len(initial_values) != n:
            raise ValueError("view summaries must have one entry per process")
        self._process = process
        self._time = time
        self._n = n
        self._latest_seen = tuple(latest_seen)
        self._earliest_evidence = tuple(earliest_evidence)
        self._initial_values = tuple(initial_values)
        # round_senders[r-1] = processes (other than self) whose round-r message
        # reached this process; used for introspection and the compact encoding.
        self._round_senders = round_senders

    # ------------------------------------------------------------------ basic
    @property
    def process(self) -> ProcessId:
        """The observing process ``i``."""
        return self._process

    @property
    def time(self) -> Time:
        """The observation time ``m``."""
        return self._time

    @property
    def n(self) -> int:
        """Number of processes in the system."""
        return self._n

    @property
    def node(self) -> ProcessTimeNode:
        """The observer node ``<i, m>``."""
        return ProcessTimeNode(self._process, self._time)

    @property
    def latest_seen(self) -> Tuple[int, ...]:
        """Per-process latest seen time (``-1`` when never seen)."""
        return self._latest_seen

    @property
    def earliest_evidence(self) -> Tuple[float, ...]:
        """Per-process earliest crash-evidence round (``inf`` when no evidence)."""
        return self._earliest_evidence

    @property
    def round_senders(self) -> Tuple[FrozenSet[ProcessId], ...]:
        """For each past round ``r`` (1-indexed; entry ``r-1``), the senders heard by the observer."""
        return self._round_senders

    def __eq__(self, other: object) -> bool:
        """State equality: two views are equal iff they are indistinguishable.

        Indistinguishability of local states is what the paper's domination
        and unbeatability arguments rely on ("``r_i(m) = r'_i(m)``"); it is
        determined by the observer identity, the time, and the full seen
        subgraph with its initial values — which the two summary arrays plus
        the received-senders record capture exactly.
        """
        if not isinstance(other, View):
            return NotImplemented
        return (
            self._process == other._process
            and self._time == other._time
            and self._n == other._n
            and self._latest_seen == other._latest_seen
            and self._earliest_evidence == other._earliest_evidence
            and self._initial_values == other._initial_values
            and self._round_senders == other._round_senders
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._process,
                self._time,
                self._n,
                self._latest_seen,
                self._earliest_evidence,
                self._initial_values,
                self._round_senders,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"View(p{self._process}@t{self._time}, seen={list(self._latest_seen)}, "
            f"vals={sorted(self.values())})"
        )

    # ----------------------------------------------------------- node status
    def is_seen(self, node: ProcessTimeNode) -> bool:
        """Whether ``node`` is seen by this view (a message chain reaches the observer)."""
        return node.time <= self._latest_seen[node.process]

    def is_guaranteed_crashed(self, node: ProcessTimeNode) -> bool:
        """Whether the observer has proof that ``node.process`` crashed before ``node.time``."""
        return self._earliest_evidence[node.process] <= node.time

    def is_hidden(self, node: ProcessTimeNode) -> bool:
        """Whether ``node`` is hidden from the observer (neither seen nor guaranteed crashed)."""
        return not self.is_seen(node) and not self.is_guaranteed_crashed(node)

    def hidden_processes_at(self, layer: Time) -> FrozenSet[ProcessId]:
        """The processes ``j`` whose node ``<j, layer>`` is hidden from the observer."""
        if layer < 0:
            raise ValueError(f"layer must be >= 0, got {layer}")
        return frozenset(
            j
            for j in range(self._n)
            if self._latest_seen[j] < layer < self._earliest_evidence[j]
        )

    def hidden_count_at(self, layer: Time) -> int:
        """Number of hidden nodes at time ``layer``."""
        return len(self.hidden_processes_at(layer))

    def hidden_profile(self) -> Tuple[int, ...]:
        """The vector ``(#hidden at layer 0, .., #hidden at layer m)``."""
        return tuple(self.hidden_count_at(layer) for layer in range(self._time + 1))

    def seen_processes_at(self, layer: Time) -> FrozenSet[ProcessId]:
        """The processes whose node at ``layer`` is seen by the observer."""
        return frozenset(j for j in range(self._n) if self._latest_seen[j] >= layer)

    def known_crashed_processes(self) -> FrozenSet[ProcessId]:
        """Processes the observer knows to have crashed (it holds some crash evidence)."""
        return frozenset(
            j for j in range(self._n) if math.isfinite(self._earliest_evidence[j])
        )

    def known_failure_count(self) -> int:
        """``d``: the number of failures the observer knows of (used by Definition 3)."""
        return len(self.known_crashed_processes())

    # --------------------------------------------------------------- values
    def knows_value(self, value: Value) -> bool:
        """Whether ``K_i ∃value`` holds at this view (the observer has seen ``value``)."""
        return value in self.values()

    def values(self) -> FrozenSet[Value]:
        """``Vals<i,m>``: the set of initial values the observer has seen (Definition 5)."""
        return frozenset(
            v for j, v in enumerate(self._initial_values) if v is not None and self._latest_seen[j] >= 0
        )

    def value_of(self, process: ProcessId) -> Optional[Value]:
        """The initial value of ``process`` if its time-0 node is seen, else ``None``."""
        if self._latest_seen[process] < 0:
            return None
        return self._initial_values[process]

    def lows(self, k: int) -> FrozenSet[Value]:
        """``Lows<i,m>``: the seen values that are low, i.e. ``< k`` (Definition 5)."""
        return frozenset(v for v in self.values() if v < k)

    def min_value(self) -> Value:
        """``Min<i,m>``: the minimal value the observer has seen.

        The observer always sees its own initial value, so this is well
        defined for every view produced by the run engine.
        """
        vals = self.values()
        if not vals:
            raise ValueError(f"view of p{self._process}@t{self._time} has seen no values")
        return min(vals)

    def is_low(self, k: int) -> bool:
        """Whether the observer is *low* at this time: ``Min<i,m> < k``."""
        return self.min_value() < k

    def is_high(self, k: int) -> bool:
        """Whether the observer is *high* at this time (not low)."""
        return not self.is_low(k)

    # ------------------------------------------------------- hidden capacity
    def hidden_capacity(self) -> int:
        """``HC<i,m>``: the hidden capacity of the observer (Definition 2).

        The maximum ``c`` such that *every* layer ``ℓ <= m`` contains at least
        ``c`` nodes hidden from the observer; equivalently the minimum over
        layers of the hidden-node count.
        """
        return min(self.hidden_count_at(layer) for layer in range(self._time + 1))

    def hidden_capacity_witnesses(self) -> List[Tuple[ProcessId, ...]]:
        """Witness processes for the hidden capacity, one tuple per layer.

        Returns, for each layer ``ℓ in 0..m``, a tuple of exactly
        ``HC<i,m>`` distinct processes whose layer-``ℓ`` nodes are hidden from
        the observer (Definition 2 calls these nodes the *witnesses*).  The
        choice is deterministic (smallest process ids first).
        """
        capacity = self.hidden_capacity()
        witnesses: List[Tuple[ProcessId, ...]] = []
        for layer in range(self._time + 1):
            hidden = sorted(self.hidden_processes_at(layer))
            witnesses.append(tuple(hidden[:capacity]))
        return witnesses

    def has_hidden_path(self) -> bool:
        """Whether a hidden path w.r.t. the observer exists (hidden capacity >= 1)."""
        return self.hidden_capacity() >= 1

    # ------------------------------------------------------------ persistence
    def sees_value_at_previous_layer(self, value: Value) -> int:
        """How many distinct seen nodes ``<j, m-1>`` have seen ``value``.

        This is the quantity compared against ``t - d`` in the second clause
        of Definition 3.  It needs the values known to *other* processes at
        time ``m-1``; since in an fip seeing ``<j, m-1>`` means knowing
        ``Gα(j, m-1)``, the count can be computed from this view alone: a seen
        ``<j, m-1>`` has seen ``value`` iff some time-0 node carrying
        ``value`` lies in ``Gα(j, m-1)``.  The run engine precomputes this via
        :meth:`repro.model.run.Run.count_previous_layer_knowers` which is the
        method protocols should call; this method is kept for introspection
        and testing and requires the full run for exactness, so it is
        implemented in the run engine.  See ``Run.count_previous_layer_knowers``.
        """
        raise NotImplementedError(
            "use Run.count_previous_layer_knowers(process, time, value); "
            "the count depends on other processes' views"
        )

    # ------------------------------------------------------------- rendering
    def describe(self) -> str:
        """A human-readable multi-line description of the view (used by examples)."""
        lines = [f"view of process {self._process} at time {self._time}:"]
        lines.append(f"  values seen      : {sorted(self.values())}")
        lines.append(f"  min value        : {self.min_value()}")
        lines.append(f"  known failures   : {self.known_failure_count()}")
        lines.append(f"  hidden per layer : {list(self.hidden_profile())}")
        lines.append(f"  hidden capacity  : {self.hidden_capacity()}")
        return "\n".join(lines)


def view_key(view: View) -> Tuple:
    """A canonical hashable key identifying the local state of a view.

    Used by the protocol-complex construction, where vertices are
    ``(process, local state)`` pairs and two executions share a vertex iff the
    process cannot distinguish them.
    """
    return (
        view.process,
        view.time,
        view.latest_seen,
        view.earliest_evidence,
        tuple(view.value_of(j) for j in range(view.n)),
        view.round_senders,
    )
