"""Prefix-sharing scheduler: a trie over the adversary space of a sweep.

The observation that makes batching profitable: the global state of a run at
time ``m`` is fully determined by (a) the input vector and (b) the crash
events of rounds ``1 .. m`` — crashes scheduled for later rounds have not
influenced a single message yet.  The state factors further: everything
*structural* (who saw whom, crash evidence, hidden capacity) depends only on
(b), while the input vector only enters through the values seen.  A sweep
over ``patterns × input vectors`` therefore collapses onto a trie:

* trie **levels** are times ``0, 1, 2, ..``;
* a **structure node** at level ``m`` is an equivalence class of failure
  patterns keyed by their round-prefix (the sorted tuple of crash events with
  round ``<= m``), carrying one shared :class:`repro.engine.arrays.StructLayer`;
* a **group** is a (structure node, input vector) pair, carrying the decision
  state shared by every adversary of the group.

Each level the scheduler partitions every group's members by their round-
``m+1`` crash events, computes each distinct child layer exactly once, and
hands the new groups back to the sweep driver — which applies the protocol's
decision rule once per group instead of once per adversary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..model.adversary import Adversary
from ..model.failure_pattern import CrashEvent, FailurePattern
from ..model.types import Decision, ProcessId, Value
from .arrays import StructLayer

#: A round-prefix key: all crash events with round ``<= m``, sorted by
#: (round, process) so equal event sets produce equal keys.
PrefixKey = Tuple[CrashEvent, ...]


def events_by_round(pattern: FailurePattern) -> Dict[int, Tuple[CrashEvent, ...]]:
    """A pattern's crash events by crashing round, each bucket sorted by process."""
    by_round: Dict[int, List[CrashEvent]] = {}
    # ``pattern.crashes`` is ordered by process id, so every bucket is too.
    for event in pattern.crashes:
        by_round.setdefault(event.round, []).append(event)
    return {round_: tuple(events) for round_, events in by_round.items()}


class PreparedAdversary:
    """An adversary preprocessed for trie scheduling.

    ``pos`` is the adversary's position in the sweep input (results are
    reported in this order); ``events_by_round`` is :func:`events_by_round`
    of its pattern, shared read-only by the members of one pattern.
    """

    __slots__ = ("pos", "adversary", "values", "events_by_round")

    def __init__(
        self, pos: int, adversary: Adversary, events: Dict[int, Tuple[CrashEvent, ...]]
    ) -> None:
        self.pos = pos
        self.adversary = adversary
        self.values: Tuple[Value, ...] = adversary.values
        self.events_by_round = events


def batch_system_size(adversaries: Sequence[Adversary]) -> int:
    """The common system size ``n`` of a batch (0 when empty).

    All adversaries of one sweep must share ``n`` — they are simulated
    against one protocol parameterisation and one horizon.  This is the
    single owner of that check; callers that already hold a validated batch
    pass the result to :func:`prepare_adversaries` to skip a second scan.
    """
    n = 0
    for adversary in adversaries:
        if n == 0:
            n = adversary.n
        elif adversary.n != n:
            raise ValueError(
                f"sweep batches must be homogeneous in n: got n={adversary.n} "
                f"after n={n}"
            )
    return n


def prepare_adversaries(
    adversaries: Sequence[Adversary], t: int, n: Optional[int] = None
) -> Tuple[int, List[PreparedAdversary]]:
    """Validate a batch and preprocess it for scheduling.

    Checks every failure pattern against the crash bound ``t`` exactly as
    the reference ``Run`` constructor does.  ``n`` may be supplied by a
    caller that already ran :func:`batch_system_size`; otherwise it is
    established (and homogeneity enforced) here.

    Orbit streams emit the vectors of one pattern consecutively, so a run of
    members sharing a pattern object is checked and bucketed once; only the
    previous pattern is remembered, never a table of them.
    """
    if n is None:
        n = batch_system_size(adversaries)
    prepared: List[PreparedAdversary] = []
    previous = events = None
    for pos, adversary in enumerate(adversaries):
        pattern = adversary.pattern
        if pattern is not previous:
            pattern.check_crash_bound(t)
            previous, events = pattern, events_by_round(pattern)
        prepared.append(PreparedAdversary(pos, adversary, events))
    return n, prepared


class Group:
    """All sweep members currently indistinguishable: one structure node × one input vector.

    ``decisions`` maps process id to its (first) :class:`Decision`; the dict
    is shared along the trie path and copied only when a round actually adds
    decisions (copy-on-write, managed by the sweep driver).
    """

    __slots__ = ("prefix", "layer", "values", "decisions", "members")

    def __init__(
        self,
        prefix: PrefixKey,
        layer: StructLayer,
        values: Tuple[Value, ...],
        decisions: Dict[ProcessId, Decision],
        members: List[PreparedAdversary],
    ) -> None:
        self.prefix = prefix
        self.layer = layer
        self.values = values
        self.decisions = decisions
        self.members = members


class PrefixScheduler:
    """Level-synchronous driver of the prefix trie for one sweep batch."""

    #: Process-wide count of trie traversals started (one per scheduler
    #: construction).  Diagnostics only — it lets tests and benchmarks assert
    #: that a consumer really performs a *single* pass over a family (the
    #: fused ``System.from_family`` acceptance criterion) instead of
    #: re-walking the trie per product.
    passes_started = 0

    def __init__(self, n: int, prepared: Sequence[PreparedAdversary]) -> None:
        PrefixScheduler.passes_started += 1
        self.n = n
        self.time = 0
        root = StructLayer.root(n)
        self.groups: Dict[Tuple[PrefixKey, Tuple[Value, ...]], Group] = {}
        for item in prepared:
            key = ((), item.values)
            group = self.groups.get(key)
            if group is None:
                group = Group((), root, item.values, {}, [])
                self.groups[key] = group
            group.members.append(item)
        #: How many StructLayer simulations the trie actually performed —
        #: the denominator of the sharing factor reported by SweepReport.
        self.layers_computed = 1 if prepared else 0

    def advance(self) -> None:
        """Advance every live group one round, sharing child layers by prefix."""
        m = self.time + 1
        next_groups: Dict[Tuple[PrefixKey, Tuple[Value, ...]], Group] = {}
        layer_cache: Dict[PrefixKey, StructLayer] = {}
        for group in self.groups.values():
            buckets: Dict[Tuple[CrashEvent, ...], List[PreparedAdversary]] = {}
            for item in group.members:
                buckets.setdefault(item.events_by_round.get(m, ()), []).append(item)
            for events, members in buckets.items():
                child_prefix = group.prefix + events
                layer = layer_cache.get(child_prefix)
                if layer is None:
                    layer = group.layer.child(events)
                    layer_cache[child_prefix] = layer
                    self.layers_computed += 1
                next_groups[(child_prefix, group.values)] = Group(
                    child_prefix, layer, group.values, group.decisions, members
                )
        self.groups = next_groups
        self.time = m

    def drop(self, key: Tuple[PrefixKey, Tuple[Value, ...]]) -> None:
        """Remove a finalised group from the live set."""
        del self.groups[key]
