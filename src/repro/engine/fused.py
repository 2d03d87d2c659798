"""Fused single-pass trie scheduling: decisions and canonical views in one traversal.

Before this module, family-shaped consumers paid for two disjoint
:class:`repro.engine.trie.PrefixScheduler` traversals when they needed both
products of a sweep: :class:`repro.engine.sweep.SweepRunner` walked the trie
once for *decisions*, and a layer-retaining view pass (now the
:class:`repro.oracles.ViewSource` fixture) walked it again — with no early
stopping — for the *canonical views* of every layer.  ``System.from_family``
composed exactly those two passes, recomputing every protocol-independent
layer twice.

This module is the single traversal both products come from:

* :func:`run_fused_pass` drives one scheduler over the family and, per trie
  group and per time, applies the protocol's decision rule (evaluated once
  per distinct local state, :func:`_apply_group_decisions`) *and* snapshots
  the canonical view keys of the active processes — the Definition 4
  local-state index materialises while the sweep advances, and branches are
  dropped the moment they stop contributing points (the same early stop the
  decision sweep already had, extended by the one-round floor the reference
  engine's view surface carries).
* :func:`struct_view_key` assembles the canonical
  :func:`repro.model.view.view_key` tuple **directly from the layer rows**
  (no intermediate ``ArrayView``), so snapshotting costs one tuple build per
  (class, process) — the structural components come from per-layer caches
  shared across input classes.
* :func:`run_facets_pass` is the view-only specialisation the protocol
  complex builders consume: one traversal to a fixed time, one
  ``(representative position, keyed actives)`` facet per *distinct* facet,
  at the smallest position realising it.  The trie only advances to
  ``time - 1``; the last round is resolved observer by observer
  (:class:`_LastRound`), because in the full-information protocol a
  time-``m`` local state is the observer's time-``m-1`` state plus those of
  its round-``m`` senders.  A new local state is named by the ids of the
  rows it merges, so rows are merged once per distinct merged state and a
  view key is built once per distinct vertex, not once per (parent layer,
  observer, sender set).
* A :class:`repro.adversaries.PerRoundCrashFamily` — the "at most ``k``
  crashes per round" family of the Proposition 2 complexes — is not
  scheduled member by member at all.  Its members are the leaves of a
  crash-option tree whose nodes *are* the trie's groups, so
  :func:`run_facets_pass` walks that tree depth first
  (:func:`_walk_family`): one :meth:`StructLayer.child` per node of rounds
  ``1 .. time - 1``, then one memo lookup per surviving observer of each
  undominated last-round option (a dominated one only realises a
  non-maximal facet).  No :class:`Adversary`, failure pattern or
  :class:`PreparedAdversary` is built per member, and the facets come out
  in member order.

Every pass runs in this process.  The decision-only mode of
:func:`run_fused_pass` *is* the sweep engine's core —
:mod:`repro.engine.sweep` delegates here — so every consumer
(checker sweeps, domination/beatability, ``System.from_family``, the complex
builders) now sits on one scheduler pass implementation.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..model.adversary import Adversary
from ..model.failure_pattern import CrashEvent
from ..model.run import DecisionSummary, summarize_decisions
from ..model.types import Decision, ProcessId, Time, Value
from .arrays import BatchContext, StructLayer, evidence_view
from .trie import Group, PrefixScheduler, PreparedAdversary, prepare_adversaries

#: A finalised (position, decision summary, stop_time) triple — the decision
#: half of a fused payload.  Members of one group share one summary object.
RawOutcome = Tuple[int, DecisionSummary, int]

#: A canonical view key (:func:`repro.model.view.view_key` layout).
ViewKey = Tuple

#: The view half of a fused payload: canonical key -> sweep positions whose
#: run realises that local state (the Definition 4 index, positions unsorted).
ViewIndex = Dict[ViewKey, List[int]]

#: A complex-builder vertex: (process, canonical view key).
FacetVertex = Tuple[ProcessId, ViewKey]

#: The compact facet payload of a view-only pass: a deduplicated vertex table
#: plus one ``(smallest member position, vertex-table indices)`` pair per
#: distinct facet, in position order.  Vertices repeat across thousands of
#: facets and facets across many classes (the n=6 Proposition 2 family has
#: 260,275 classes, 5,316 distinct local states and 32,298 distinct maximal
#: facets, the only ones its walk emits), so holding each distinct key and
#: facet once, as small int tuples, keeps the builder's memory per distinct
#: object rather than per member.
FacetPayload = Tuple[List[FacetVertex], List[Tuple[int, Tuple[int, ...]]]]


def struct_view_key(layer: StructLayer, process: ProcessId, values: Tuple[Value, ...]) -> ViewKey:
    """The canonical view key of ``process`` at ``layer``, straight from the rows.

    Produces exactly the tuple :func:`repro.model.view.view_key` builds from a
    view object — observer, time, ``latest_seen`` row, ``earliest_evidence``
    row in ``View`` conventions, seen initial values, per-round sender sets —
    without materialising an :class:`repro.engine.arrays.ArrayView` first.
    The structural components are cached per layer, so only the seen-values
    tuple is built per input class.  Raises ``KeyError`` for processes with no
    local state at the layer (the shared lookup contract).
    """
    rows = layer.rows_seen[process]
    if rows is None:
        raise KeyError((process, layer.time))
    return _view_key(
        process,
        layer.time,
        rows,
        layer.evidence_view_row(process),
        values,
        layer.round_senders_of(process),
    )


def _view_key(
    process: ProcessId,
    time: Time,
    rows: Tuple[int, ...],
    evidence: Tuple[float, ...],
    values: Tuple[Value, ...],
    round_senders: Tuple[FrozenSet[ProcessId], ...],
) -> ViewKey:
    """Assemble the :func:`repro.model.view.view_key` tuple from its parts."""
    # Observers that have seen everyone (the bulk of later layers on mostly
    # failure-free branches) share the input tuple itself instead of copying.
    seen_values = (
        values
        if min(rows) >= 0
        else tuple(v if seen >= 0 else None for seen, v in zip(rows, values))
    )
    return (process, time, rows, evidence, seen_values, round_senders)


class FusedOutcome:
    """Everything one fused traversal produced.

    ``raw`` holds one :data:`RawOutcome` per adversary in sweep-input order;
    ``view_index`` is the canonical-key → positions index (``None`` for
    decision-only passes); ``layers_computed`` counts the
    :class:`StructLayer` simulations actually performed (the sharing-factor
    denominator).
    """

    __slots__ = ("raw", "layers_computed", "view_index")

    def __init__(
        self,
        raw: List[RawOutcome],
        layers_computed: int,
        view_index: Optional[ViewIndex],
    ) -> None:
        self.raw = raw
        self.layers_computed = layers_computed
        self.view_index = view_index


#: A pass's decision memo: ``(layer, process, seen inputs)`` -> the
#: :class:`Decision` the rule made at that local state, or ``None``.
DecisionMemo = Dict[Tuple[StructLayer, ProcessId, object], Optional[Decision]]

_MISS = object()


def _apply_group_decisions(protocol, group: Group, n: int, t: int, memo: DecisionMemo) -> bool:
    """Run the decision rule at every undecided active node of one trie group.

    Returns whether every process still operating here has decided (the
    early stop).  The rule is evaluated once per distinct local state of
    the pass: ``memo`` maps ``(layer, process, seen inputs)`` — the inputs
    at ``layer.seen_initial(process)`` — to the shared, immutable
    :class:`Decision` (or ``None``), and ``decide`` and its
    :class:`BatchContext` run only on a miss.  The key is the local state:

    * the layer object fixes the process's rows and its whole parent chain;
    * every :class:`BatchContext` / :class:`ArrayView` accessor reads inputs
      only at seen positions (``min_value``, ``values``, ``knows_value``,
      ``value_of``, ``count_previous_layer_knowers``), and so do the earlier
      views it reaches (``previous_view``, ``own_view_at``,
      ``knows_persist``): an earlier view of the process, or a seen
      ``<j, m-1>``, has seen a subset of what the process has seen now;
    * ``n``, ``t`` and the protocol are constant within a pass.

    A group fixes the *whole* input vector, so groups differing only in
    inputs a process has not seen share its entry — at time 0 a batch has
    only ``n × |domain|`` local states.

    Decisions are recorded copy-on-write: the group's dict is replaced, never
    mutated, because sibling groups may still share it.
    """
    layer = group.layer
    values = group.values
    decisions = group.decisions
    added: Optional[Dict[ProcessId, Decision]] = None
    all_decided = True
    for i, seen in enumerate(layer.seen_values_getters()):
        if seen is None or i in decisions:
            continue
        key = (layer, i, seen(values))
        decision = memo.get(key, _MISS)
        if decision is _MISS:
            value = protocol.decide(BatchContext(layer, i, values, n, t))
            decision = memo[key] = None if value is None else Decision(i, value, layer.time)
        if decision is None:
            all_decided = False
        else:
            if added is None:
                added = {}
            added[i] = decision
    if added:
        decisions = dict(decisions)
        decisions.update(added)
        group.decisions = decisions
    return all_decided


def _snapshot_group(group: Group, index: ViewIndex) -> None:
    """Fold one group's active local states into the view index.

    Every member of the group realises every keyed state, so the whole member
    position list is appended per key — once per equivalence class, not once
    per adversary.
    """
    layer = group.layer
    rows_seen = layer.rows_seen
    values = group.values
    positions = [item.pos for item in group.members]
    setdefault = index.setdefault
    for i in range(layer.n):
        if rows_seen[i] is None:
            continue
        setdefault(struct_view_key(layer, i, values), []).extend(positions)


def run_fused_pass(
    protocol,
    adversaries: Sequence[Adversary],
    t: int,
    horizon: int,
    n: Optional[int] = None,
    collect_views: bool = True,
) -> FusedOutcome:
    """One fused pass over a family: one trie, level-synchronous, both products.

    With ``collect_views=False`` this is exactly the decision sweep
    (:mod:`repro.engine.sweep` delegates here): early-stopping per branch,
    raw outcomes in input order.  With ``collect_views=True`` the canonical
    view keys of every *live* point are folded into the returned index as the
    traversal advances: a branch finalised at time ``s`` contributes views
    through ``max(s, 1)`` — the reference engine checks the all-decided early
    stop only from time 1 on, so even a time-0 finaliser carries views through
    time 1 — and is dropped right after, never simulated to the horizon the
    way the two-pass oracle's ``ViewSource`` leg is.
    """
    n, prepared = prepare_adversaries(adversaries, t, n)
    results: List[Optional[RawOutcome]] = [None] * len(prepared)
    index: Optional[ViewIndex] = {} if collect_views else None
    if not prepared:
        return FusedOutcome([], 0, index)
    scheduler = PrefixScheduler(n, prepared)
    # One decision per distinct local state of this pass (see
    # _apply_group_decisions); it dies with the pass, so memory stays
    # O(batch) and nothing crosses batches.
    memo: DecisionMemo = {}

    def finalize(key, group: Group) -> None:
        summary = summarize_decisions(
            tuple(group.decisions[p] for p in sorted(group.decisions)), group.values
        )
        stop_time = group.layer.time
        for item in group.members:
            results[item.pos] = (item.pos, summary, stop_time)
        # View-collecting passes keep a time-0 finaliser scheduled one more
        # round (its time-1 views are points of the system); its children are
        # recognised below by their already-recorded outcomes and dropped
        # right after their snapshot.
        if not (collect_views and stop_time == 0):
            scheduler.drop(key)

    for key, group in list(scheduler.groups.items()):
        all_decided = _apply_group_decisions(protocol, group, n, t, memo)
        if collect_views:
            _snapshot_group(group, index)
        if all_decided:
            finalize(key, group)

    for time in range(1, horizon + 1):
        if not scheduler.groups:
            break
        scheduler.advance()
        for key, group in list(scheduler.groups.items()):
            if results[group.members[0].pos] is not None:
                # The grace round of a time-0 finaliser: snapshot, then drop.
                _snapshot_group(group, index)
                scheduler.drop(key)
                continue
            all_decided = _apply_group_decisions(protocol, group, n, t, memo)
            if collect_views:
                _snapshot_group(group, index)
            if all_decided or time == horizon:
                finalize(key, group)

    # Completeness is an engine invariant: every branch must have finalized
    # (at early stop or at the horizon).  A scheduler regression that drops a
    # group must fail loudly here, not silently shrink an "exhaustive" sweep.
    missing = [pos for pos, outcome in enumerate(results) if outcome is None]
    if missing:
        raise RuntimeError(
            f"fused scheduler failed to finalize {len(missing)} of {len(results)} "
            f"adversaries (first missing position: {missing[0]})"
        )
    return FusedOutcome(results, scheduler.layers_computed, index)


# ------------------------------------------------------------- view-only pass
def _interner(table: List[FacetVertex]) -> Callable[[FacetVertex], int]:
    """``intern(vertex)`` -> its index in ``table``, appending it on first sight."""
    index: Dict[FacetVertex, int] = {}

    def intern(vertex: FacetVertex) -> int:
        vid = index.get(vertex)
        if vid is None:
            vid = index[vertex] = len(table)
            table.append(vertex)
        return vid

    return intern


#: ``(latest_seen, earliest_evidence)`` row pair -> its id, pass-wide.
RowIds = Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]


class _LastRound(dict):
    """``(observer, last-round sender bitmask)`` -> vertex id, one round below ``layer``.

    In the full-information protocol an observer ``i``'s local state one
    round on is its own state at ``layer`` merged with those of its
    round-``m`` senders ``S``: :meth:`StructLayer.observer_rows` reads only
    their rows and ``S``, and the view key adds ``i``'s earlier sender sets
    and the inputs.  So the vertex id of every class below ``layer`` is
    memoised on ``(i, S)``, and a class costs one lookup per surviving
    observer (:meth:`facet`).

    Other nodes reach the same vertices by other paths, so a new ``(i, S)``
    is resolved pass-wide, per input vector, in two steps:

    * ``states`` maps the merged state — ``(i, S)``, the ids of the rows it
      merges (:data:`RowIds`) and ``i``'s earlier sender sets
      (:meth:`merged`) — to its vertex id; only a merged state seen for the
      first time merges rows;
    * ``merges`` maps the merged rows to the vertex id, since distinct
      merged states can merge to the same rows (a sender's news is absorbed
      when another sender or the observer already has it); only merged rows
      seen for the first time build a view key and intern it.
    """

    __slots__ = ("layer", "values", "ids", "states", "merges", "intern", "live", "live_mask")

    def __init__(
        self,
        layer: StructLayer,
        values: Tuple[Value, ...],
        row_ids: RowIds,
        states: Dict[Tuple, int],
        merges: Dict[Tuple, int],
        intern: Callable[[FacetVertex], int],
    ) -> None:
        super().__init__()
        self.layer = layer
        self.values = values
        self.states = states
        self.merges = merges
        self.intern = intern
        self.live = [j for j in range(layer.n) if layer.rows_seen[j] is not None]
        self.live_mask = sum(1 << j for j in self.live)
        self.ids = [
            None if pair[0] is None else row_ids.setdefault(pair, len(row_ids))
            for pair in zip(layer.rows_seen, layer.rows_evidence)
        ]

    def slots(self, events: Sequence[CrashEvent]) -> Tuple[Tuple[ProcessId, int], ...]:
        """The ``(i, S)`` of each observer surviving a last round that crashes ``events``."""
        crashed = {event.process for event in events}
        out = []
        for i in self.live:
            if i in crashed:
                continue
            senders = self.live_mask & ~(1 << i)
            for event in events:
                if i not in event.receivers:
                    senders &= ~(1 << event.process)
            out.append((i, senders))
        return tuple(out)

    def merged(self, slot: Tuple[ProcessId, int]) -> Tuple:
        """The merged state of ``slot``: ``(i, S)``, the row ids of ``i`` and of its
        senders in process order, and ``i``'s earlier sender sets."""
        i, senders = slot
        ids = self.ids
        return (
            slot,
            ids[i],
            tuple(ids[j] for j in self.live if senders >> j & 1),
            self.layer.round_senders_of(i),
        )

    def facet(self, slots: Tuple[Tuple[ProcessId, int], ...]) -> Tuple[int, ...]:
        """The vertex ids of one class, interning new vertices in observer order."""
        return tuple(map(self.__getitem__, slots))

    def __missing__(self, slot: Tuple[ProcessId, int]) -> int:
        state = self.merged(slot)
        vid = self.states.get(state)
        if vid is None:
            i, senders = slot
            layer = self.layer
            sender_set = frozenset(j for j in self.live if senders >> j & 1)
            rows, evidence = layer.observer_rows(i, sender_set)
            round_senders = layer.round_senders_of(i) + (sender_set,)
            merge = (i, rows, evidence, round_senders)
            vid = self.merges.get(merge)
            if vid is None:
                key = _view_key(
                    i, layer.time + 1, rows, evidence_view(evidence), self.values, round_senders
                )
                vid = self.merges[merge] = self.intern((i, key))
            self.states[state] = vid
        self[slot] = vid
        return vid


def run_facets_pass(adversaries: Sequence[Adversary], t: int, time: Time) -> FacetPayload:
    """One view-only traversal to ``time`` → the compact facet payload.

    The protocol-complex specialisation of the fused pass: no protocol, no
    early stopping (the builders need the equivalence classes *at* ``time``),
    keyed active processes deduplicated into the vertex table.  Each distinct
    facet appears once, at the smallest position of a member realising it,
    and facets are sorted by that position, which makes the builder's
    representative bookkeeping deterministic.

    The trie advances to ``time - 1`` only.  Each group's members are then
    split by their round-``time`` events — the classes a last
    :meth:`PrefixScheduler.advance` would build layers for — and each class
    is resolved observer by observer (:class:`_LastRound`, with its merged
    states resolved pass-wide per input vector).  The payload is identical,
    order included, to advancing all ``time`` levels, keying every class
    and keeping each distinct facet at its first position
    (``tests/test_fused_scheduler.py``).

    A :class:`repro.adversaries.PerRoundCrashFamily` simulated to its own
    round count is not scheduled member by member: :func:`_walk_family`
    walks its crash-option tree instead, with the same payload minus the
    non-maximal facets (:func:`_dominated`).
    """
    from ..adversaries.per_round import PerRoundCrashFamily

    if isinstance(adversaries, PerRoundCrashFamily) and adversaries.rounds == time:
        return _walk_family(adversaries, t, time)
    n, prepared = prepare_adversaries(adversaries, t)
    table: List[FacetVertex] = []
    if not prepared:
        return table, []
    intern = _interner(table)
    scheduler = PrefixScheduler(n, prepared)
    # Distinct facet -> the smallest member position realising it.
    first: Dict[Tuple[int, ...], int] = {}

    def emit(position: int, facet: Tuple[int, ...]) -> None:
        if facet and first.setdefault(facet, position) > position:
            first[facet] = position

    if time == 0:
        # No round has run: every process is active at the root.
        for group in scheduler.groups.values():
            keys = [struct_view_key(group.layer, i, group.values) for i in range(n)]
            emit(group.members[0].pos, tuple(intern(v) for v in enumerate(keys)))
        return table, sorted((pos, vids) for vids, pos in first.items())
    for _ in range(time - 1):
        scheduler.advance()
    row_ids: RowIds = {}
    # Input vector -> its (states, merges) maps (see _LastRound).
    resolved: Dict[Tuple[Value, ...], Tuple[Dict[Tuple, int], Dict[Tuple, int]]] = {}
    for group in scheduler.groups.values():
        values = group.values
        states, merges = resolved.setdefault(values, ({}, {}))
        last = _LastRound(group.layer, values, row_ids, states, merges, intern)
        # Each bucket is one time-``time`` class of the group (the split
        # PrefixScheduler.advance makes).
        buckets: Dict[Tuple, List[PreparedAdversary]] = {}
        for item in group.members:
            buckets.setdefault(item.events_by_round.get(time, ()), []).append(item)
        for events, members in buckets.items():
            # Members arrive in sweep-input order, so the first is the smallest.
            emit(members[0].pos, last.facet(last.slots(events)))
    return table, sorted((pos, vids) for vids, pos in first.items())


def _walk_family(family, t: int, time: Time) -> FacetPayload:
    """:func:`run_facets_pass` of a per-round crash family, by walking its option tree.

    Every node of the tree is one trie group: its crash events of rounds
    ``1 .. r`` are the path to it, and the family has one input vector.  The
    walk goes depth first, so :meth:`StructLayer.child` runs once per node of
    rounds ``1 .. time - 1``, and each node of round ``time - 1`` resolves
    its options — one class, one member each — with :class:`_LastRound`,
    whose merged states are resolved across the whole walk.  Members are
    visited in order, so a facet is emitted the first time a member
    realises it, at that member's position.  Dominated
    options (:func:`_dominated`) are skipped: their facets are exactly the
    non-maximal ones, so the payload is the trie's minus those facets, and
    the vertex table of a whole family comes out in the order the trie
    interns it (each vertex first appears at an undominated member).  The
    family stays closed when one last-round crash is dropped, which an
    explicit list need not.  The crash bound is checked once for the family.
    """
    family.check_crash_bound(t)
    table: List[FacetVertex] = []
    facets: List[Tuple[int, Tuple[int, ...]]] = []
    intern = _interner(table)
    n, values = family.n, family.values
    root = StructLayer.root(n)
    if time == 0:
        facets.append((0, tuple(intern((i, struct_view_key(root, i, values))) for i in range(n))))
        return table, facets

    # Processes up -> the (i, S) slots of each last-round option, in option
    # order, or None for a dominated option (see _dominated).  Every
    # last-round option is one member, so an option's index in this list is
    # its position minus the node's first position.
    slot_rows: Dict[Tuple[ProcessId, ...], List[Optional[Tuple[Tuple[ProcessId, int], ...]]]] = {}
    row_ids: RowIds = {}
    states: Dict[Tuple, int] = {}
    merges: Dict[Tuple, int] = {}
    seen = set()

    # The nodes that branch rounds 1 .. time - 1, each with the branches it
    # has left: a loop, not one Python frame per round of the horizon.
    stack = []

    def visit(layer: StructLayer, up: Tuple[ProcessId, ...], first: int) -> None:
        round_ = layer.time + 1
        if round_ < time:
            stack.append((layer, family.branches(up, round_, first)))
            return
        last = _LastRound(layer, values, row_ids, states, merges, intern)
        rows = slot_rows.get(up)
        if rows is None:
            rows = slot_rows[up] = [
                None if _dominated(events, rest) else last.slots(events)
                for _size, block in family.options(up, round_)
                for events, rest in block
            ]
        for position, slots in enumerate(rows, first):
            if slots is not None:
                facet = last.facet(slots)
                if facet not in seen:
                    seen.add(facet)
                    facets.append((position, facet))

    visit(root, tuple(range(n)), 0)
    while stack:
        layer, branches = stack[-1]
        branch = next(branches, None)
        if branch is None:
            stack.pop()
        else:
            position, events, rest = branch
            visit(layer.child(events), rest, position)
    return table, facets


def _dominated(events: Sequence[CrashEvent], rest: Tuple[ProcessId, ...]) -> bool:
    """Whether a last-round option's facet is a strict face of another member's.

    It is when some crasher's last message reached every process still up
    after the option (``rest``): dropping that crash leaves every survivor's
    view unchanged and adds the crasher's vertex, and that member comes
    earlier in the family, one crash fewer in the last round.  Conversely a
    facet strictly inside another is always of this form, so the walk
    emits exactly the maximal facets (``docs/topology.md``, "Dominated
    last-round options").
    """
    return any(event.receivers.issuperset(rest) for event in events)
