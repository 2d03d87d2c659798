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
  group and per time, evaluates the protocol's decision rule *and* snapshots
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
  ``(representative position, keyed actives)`` facet payload per equivalence
  class.  The trie only advances to ``time - 1``; the last round is resolved
  observer by observer (:func:`facet_groups`), because in the
  full-information protocol a time-``m`` local state is the observer's
  time-``m-1`` state plus those of its round-``m`` senders.  The cost is one
  row merge per distinct (parent layer, input vector, observer, sender set),
  not one layer per class: at n=6, m=2 no two of the ~260k adversaries share
  a class, but their ~568k (class, observer) slots need only ~23k last-round
  merges.

Both passes shard across worker processes: contiguous chunks of the family
are scheduled on per-worker tries and return pickled payloads — raw
``(position, decisions, stop_time)`` outcomes plus the chunk's keyed layer
snapshot (the view index, or the facet payloads) — which the parent merges
by offsetting positions.  Chunk-local equivalence classes are subsets of the
global ones and canonical keys are intrinsic to (prefix, inputs, process,
time), so the merged products are identical to the serial pass
(``tests/test_fused_scheduler.py`` pins both the chunk-boundary identity and
payload pickling on spawn contexts).

The decision-only mode of :func:`run_fused_pass` *is* the sweep engine's
serial core — :mod:`repro.engine.sweep` delegates here — so every consumer
(checker sweeps, domination/beatability, ``System.from_family``, the complex
builders) now sits on one scheduler pass implementation.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..model.adversary import Adversary
from ..model.types import Decision, ProcessId, Time, Value
from .arrays import BatchContext, StructLayer, evidence_view
from .trie import Group, PrefixScheduler, PreparedAdversary, prepare_adversaries

#: A finalised (position, decisions, stop_time) triple — the decision half of
#: a fused payload, cheap to pickle back from worker processes.
RawOutcome = Tuple[int, Tuple[Decision, ...], int]

#: A canonical view key (:func:`repro.model.view.view_key` layout).
ViewKey = Tuple

#: The view half of a fused payload: canonical key -> sweep positions whose
#: run realises that local state (the Definition 4 index, positions unsorted).
ViewIndex = Dict[ViewKey, List[int]]

#: A complex-builder vertex: (process, canonical view key).
FacetVertex = Tuple[ProcessId, ViewKey]

#: The compact facet payload of a view-only pass: a deduplicated vertex table
#: plus one ``(smallest member position, vertex-table indices)`` facet per
#: equivalence class.  Vertices repeat across thousands of facets (the n=6
#: Proposition 2 family has ~260k classes over ~6k distinct local states), so
#: shipping each distinct key once and the facets as small int tuples is what
#: keeps the sharded pass's pickling cost below its simulation savings.
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


def _apply_group_decisions(protocol, group: Group, n: int, t: int) -> None:
    """Run the decision rule at every undecided active node of one trie group.

    Decisions are recorded copy-on-write: the group's dict is replaced, never
    mutated, because sibling groups may still share it.
    """
    layer = group.layer
    added: Optional[Dict[ProcessId, Decision]] = None
    time = layer.time
    values = group.values
    for i in group.undecided_active():
        ctx = BatchContext(layer, i, values, n, t)
        value = protocol.decide(ctx)
        if value is not None:
            if added is None:
                added = {}
            added[i] = Decision(i, value, time)
    if added:
        decisions = dict(group.decisions)
        decisions.update(added)
        group.decisions = decisions


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


def fused_serial(
    protocol,
    adversaries: Sequence[Adversary],
    t: int,
    horizon: int,
    n: Optional[int] = None,
    collect_views: bool = True,
) -> FusedOutcome:
    """The serial fused core: one trie, level-synchronous, both products.

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

    def finalize(key, group: Group) -> None:
        decisions = tuple(group.decisions[p] for p in sorted(group.decisions))
        stop_time = group.layer.time
        for item in group.members:
            results[item.pos] = (item.pos, decisions, stop_time)
        # View-collecting passes keep a time-0 finaliser scheduled one more
        # round (its time-1 views are points of the system); its children are
        # recognised below by their already-recorded outcomes and dropped
        # right after their snapshot.
        if not (collect_views and stop_time == 0):
            scheduler.drop(key)

    for key, group in list(scheduler.groups.items()):
        _apply_group_decisions(protocol, group, n, t)
        if collect_views:
            _snapshot_group(group, index)
        if group.all_active_decided():
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
            _apply_group_decisions(protocol, group, n, t)
            if collect_views:
                _snapshot_group(group, index)
            if time == horizon or group.all_active_decided():
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


#: The smallest auto-tuned worker chunk.  Spawning a pool, pickling payloads
#: and merging results costs on the order of tens of milliseconds; a chunk of
#: fewer adversaries than this simulates faster than it ships, so the planner
#: refuses to slice below it and falls back to the serial core when the
#: family cannot fill even two such chunks (the 1–2-core-runner regime where
#: the sharded executor used to lose to serial).
MIN_CHUNK_INPUTS = 512


def _plan_chunks(
    total: int, processes: int, chunk_size: Optional[int]
) -> Optional[List[Tuple[int, int]]]:
    """Contiguous ``(start, end)`` chunks, or ``None`` when serial wins.

    Auto-tuned sizing (``chunk_size=None``) aims for two chunks per worker —
    enumeration order keeps prefix sharing high inside each contiguous chunk
    — but never slices below :data:`MIN_CHUNK_INPUTS`; a family that fits in
    one such chunk is returned as ``None``, meaning "skip the pool entirely".
    An explicit ``chunk_size`` opts out of both the floor and the serial
    fallback (the chunk-boundary identity tests rely on exact slicing).
    """
    auto = chunk_size is None
    if auto:
        chunk_size = max(MIN_CHUNK_INPUTS, math.ceil(total / (2 * processes)))
        if total <= chunk_size:
            return None
    ranges = [
        (start, min(start + chunk_size, total)) for start in range(0, total, chunk_size)
    ]
    if auto and len(ranges) >= 2 and ranges[-1][1] - ranges[-1][0] < MIN_CHUNK_INPUTS:
        # Fold a sub-floor remainder into its neighbour: a tail chunk below
        # the floor ships (pool task + pickled payload) more than it saves.
        ranges[-2] = (ranges[-2][0], ranges[-1][1])
        ranges.pop()
    if auto and len(ranges) == 1:
        # One chunk left after folding = the whole family on one worker;
        # the serial core does the same work without a pool.
        return None
    return ranges


def resolve_mp_context(mp_context: Optional[str] = None):
    """Resolve the multiprocessing start method explicitly.

    An explicit ``mp_context`` always wins (``ValueError`` if the platform
    lacks it — better than silently running a different method than the
    caller's tests pinned).  The ``None`` default is resolved here, once,
    instead of leaning on :func:`multiprocessing.get_context`'s
    platform-dependent default: ``fork`` is chosen only when the platform
    offers it **and** the parent is single-threaded.  Forking a
    multi-threaded process copies other threads' locks in an undefined
    state — CPython 3.12 deprecated it (``DeprecationWarning``) and 3.14
    switches the Linux default to ``forkserver`` for exactly that reason —
    so threaded parents (e.g. a future HTTP service layer driving sweeps)
    get ``spawn``, which the engine already supports end to end: worker
    inputs ship through the pool initializer and every payload survives
    real pickling (``tests/test_fused_scheduler.py``).  Single-threaded
    CLI/batch parents keep fork's cheap copy-on-write input inheritance.
    """
    import multiprocessing
    import threading

    if mp_context:
        return multiprocessing.get_context(mp_context)
    if (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    ):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


#: This worker process's pass inputs, installed by the pool initializer.
#: Pool tasks carry only ``(start, end)`` index ranges: under the default
#: fork start method the initializer argument is inherited, not pickled —
#: shipping a survey-scale adversary family per task costs more than the
#: simulation it shards — and under spawn it is pickled exactly once per
#: worker (the path the payload-pickling tests exercise).  Each pool carries
#: its own inputs, so overlapping sharded passes cannot trample each other.
_WORKER_INPUTS = None


def _init_worker_inputs(inputs) -> None:
    """Pool initializer: install the pass inputs in this worker process."""
    global _WORKER_INPUTS
    _WORKER_INPUTS = inputs


def _run_sharded(worker, inputs, ranges, processes, mp_context, supervision=None, report=None):
    """Map contiguous index ranges over a pool that owns ``inputs``.

    The one executor both sharded passes use; returns the per-chunk results
    zipped with their ``(start, end)`` ranges so callers can offset
    chunk-local positions while merging.  Never spawns more workers than
    there are chunks — an idle worker still pays interpreter startup and (on
    spawn contexts) a full pickled copy of the inputs.

    With ``supervision`` set (a :class:`repro.runtime.SupervisionPolicy`)
    the chunks run on the supervised executor instead of a bare ``Pool``:
    per-chunk timeouts, bounded retry with backoff, dead-worker detection
    and respawn, quarantine and serial degradation — recovery events land
    on ``report``.  Either way the per-chunk payloads come back in range
    order, so the merge identity is executor-independent.
    """
    context = resolve_mp_context(mp_context)
    workers = min(processes, len(ranges))
    if supervision is not None:
        from ..runtime.supervisor import run_supervised

        payloads = run_supervised(
            worker,
            ranges,
            context=context,
            processes=workers,
            initializer=_init_worker_inputs,
            initargs=(inputs,),
            policy=supervision,
            report=report,
        )
        return list(zip(ranges, payloads))
    pool = context.Pool(
        processes=workers, initializer=_init_worker_inputs, initargs=(inputs,)
    )
    try:
        return list(zip(ranges, pool.map(worker, ranges)))
    finally:
        # terminate() (not close()) so an exception mid-map — including
        # KeyboardInterrupt — tears the workers down instead of leaking
        # them; join() so they are reaped before the parent moves on.
        pool.terminate()
        pool.join()


def _fused_chunk(bounds) -> Tuple[List[RawOutcome], int, Optional[ViewIndex]]:
    """Worker entry point for the sharded fused pass."""
    start, end = bounds
    protocol, batch, t, horizon, collect_views = _WORKER_INPUTS
    outcome = fused_serial(protocol, batch[start:end], t, horizon, collect_views=collect_views)
    return outcome.raw, outcome.layers_computed, outcome.view_index


def run_fused_pass(
    protocol,
    adversaries: Sequence[Adversary],
    t: int,
    horizon: int,
    n: Optional[int] = None,
    processes: Optional[int] = None,
    chunk_size: Optional[int] = None,
    mp_context: Optional[str] = None,
    collect_views: bool = True,
    supervision=None,
    report=None,
) -> FusedOutcome:
    """One fused pass over a family, serial or sharded across workers.

    The parallel executor fans contiguous chunks out to a ``multiprocessing``
    pool; each worker returns its pickled ``(decisions, layer snapshot)``
    payload and the parent merges them by offsetting chunk-local positions.
    ``mp_context`` selects the start method (see :func:`resolve_mp_context`
    for the explicit default; the spawn path is exercised by the pickling
    tests).  Chunk sizing is auto-tuned by :func:`_plan_chunks`: families
    too small to amortise the pool run on the serial core even when
    ``processes >= 2`` is requested.  ``supervision`` / ``report`` select
    the supervised executor (see :func:`_run_sharded`).
    """
    if processes is None or processes <= 1 or len(adversaries) <= 1:
        return fused_serial(protocol, adversaries, t, horizon, n, collect_views)
    ranges = _plan_chunks(len(adversaries), processes, chunk_size)
    if ranges is None:
        return fused_serial(protocol, adversaries, t, horizon, n, collect_views)
    chunk_results = _run_sharded(
        _fused_chunk,
        (protocol, adversaries, t, horizon, collect_views),
        ranges,
        processes,
        mp_context,
        supervision=supervision,
        report=report,
    )
    raw: List[RawOutcome] = []
    layers = 0
    index: Optional[ViewIndex] = {} if collect_views else None
    for (offset, _end), (chunk_raw, chunk_layers, chunk_index) in chunk_results:
        raw.extend((offset + pos, decisions, stop) for pos, decisions, stop in chunk_raw)
        layers += chunk_layers
        if collect_views:
            setdefault = index.setdefault
            for key, positions in chunk_index.items():
                setdefault(key, []).extend(offset + pos for pos in positions)
    # Same completeness invariant the serial core enforces: a chunking or
    # reassembly bug must fail loudly, never shrink an "exhaustive" sweep.
    if len(raw) != len(adversaries):
        raise RuntimeError(
            f"parallel fused pass reassembled {len(raw)} of {len(adversaries)} adversaries"
        )
    return FusedOutcome(raw, layers, index)


# ------------------------------------------------------------- view-only pass
def facet_groups(
    adversaries: Sequence[Adversary], t: int, time: Time, n: Optional[int] = None
) -> FacetPayload:
    """One view-only traversal to ``time`` → the compact facet payload.

    The protocol-complex specialisation of the fused pass: no protocol, no
    early stopping (the builders need the equivalence classes *at* ``time``),
    one facet per (prefix-class, input-class) with its keyed active processes
    deduplicated into the vertex table.  Facets are sorted by smallest member
    position, which makes the builder's representative bookkeeping
    deterministic and chunk-independent.

    The trie advances to ``time - 1`` only.  Each group's members are then
    split by their round-``time`` events — the classes a last
    :meth:`PrefixScheduler.advance` would build layers for — and every
    surviving observer ``i`` of a class is resolved by its round-``time``
    sender set ``S``: its local state is a function of the parent layer, the
    inputs, ``i`` and ``S`` alone (:meth:`StructLayer.observer_rows`), so the
    vertex id is memoised per group on ``(i, S)``.  A class costs one memo
    lookup per observer; only a new ``(i, S)`` merges rows and builds a key.
    The payload is identical, order included, to advancing all ``time``
    levels and keying every class (``tests/test_fused_scheduler.py``).
    """
    n, prepared = prepare_adversaries(adversaries, t, n)
    table: List[FacetVertex] = []
    facets: List[Tuple[int, Tuple[int, ...]]] = []
    if not prepared:
        return table, facets
    table_index: Dict[FacetVertex, int] = {}

    def intern(vertex: FacetVertex) -> int:
        vid = table_index.get(vertex)
        if vid is None:
            vid = table_index[vertex] = len(table)
            table.append(vertex)
        return vid

    scheduler = PrefixScheduler(n, prepared)
    if time == 0:
        # No round has run: every process is active at the root.
        for group in scheduler.groups.values():
            keys = [struct_view_key(group.layer, i, group.values) for i in range(n)]
            facets.append((group.members[0].pos, tuple(intern(v) for v in enumerate(keys))))
        return table, facets
    for _ in range(time - 1):
        scheduler.advance()
    for group in scheduler.groups.values():
        layer = group.layer
        live = [j for j in range(n) if layer.rows_seen[j] is not None]
        live_mask = sum(1 << j for j in live)
        # (observer, round-``time`` sender bitmask) -> vertex id.
        vid_of: Dict[Tuple[ProcessId, int], int] = {}
        # Each bucket is one time-``time`` class of the group (the split
        # PrefixScheduler.advance makes).
        buckets: Dict[Tuple, List[PreparedAdversary]] = {}
        for item in group.members:
            buckets.setdefault(item.events_by_round.get(time, ()), []).append(item)
        for events, members in buckets.items():
            crashed = {event.process for event in events}
            vids: List[int] = []
            for i in live:
                if i in crashed:
                    continue
                senders = live_mask & ~(1 << i)
                for event in events:
                    if i not in event.receivers:
                        senders &= ~(1 << event.process)
                vid = vid_of.get((i, senders))
                if vid is None:
                    sender_set = frozenset(j for j in live if senders >> j & 1)
                    rows, evidence = layer.observer_rows(i, sender_set)
                    key = _view_key(
                        i,
                        time,
                        rows,
                        evidence_view(evidence),
                        group.values,
                        layer.round_senders_of(i) + (sender_set,),
                    )
                    vid = vid_of[(i, senders)] = intern((i, key))
                vids.append(vid)
            if vids:
                # Members arrive in sweep-input order, so the first is the smallest.
                facets.append((members[0].pos, tuple(vids)))
    facets.sort(key=lambda facet: facet[0])
    return table, facets


def _facets_chunk(bounds) -> FacetPayload:
    """Worker entry point for the sharded view-only pass."""
    start, end = bounds
    batch, t, time = _WORKER_INPUTS
    return facet_groups(batch[start:end], t, time)


def run_facets_pass(
    adversaries: Sequence[Adversary],
    t: int,
    time: Time,
    processes: Optional[int] = None,
    chunk_size: Optional[int] = None,
    mp_context: Optional[str] = None,
    supervision=None,
    report=None,
) -> FacetPayload:
    """The facet payload of a family, serial or sharded across workers.

    Chunk-local equivalence classes are subsets of the global ones, so the
    merged facet list may mention one class several times — with identical
    vertex sets, which the complex constructor's dedup/maximality filter
    collapses; chunk-local vertex tables are re-deduplicated into one global
    table, and representatives resolve to the globally smallest position
    because facets are re-sorted after the merge.
    """
    if processes is None or processes <= 1 or len(adversaries) <= 1:
        return facet_groups(adversaries, t, time)
    ranges = _plan_chunks(len(adversaries), processes, chunk_size)
    if ranges is None:
        return facet_groups(adversaries, t, time)
    chunk_results = _run_sharded(
        _facets_chunk,
        (adversaries, t, time),
        ranges,
        processes,
        mp_context,
        supervision=supervision,
        report=report,
    )
    table: List[FacetVertex] = []
    table_index: Dict[FacetVertex, int] = {}
    facets: List[Tuple[int, Tuple[int, ...]]] = []
    for (offset, _end), (chunk_table, chunk_facets) in chunk_results:
        remap: List[int] = []
        for vertex in chunk_table:
            vid = table_index.get(vertex)
            if vid is None:
                vid = table_index[vertex] = len(table)
                table.append(vertex)
            remap.append(vid)
        facets.extend(
            (offset + pos, tuple(remap[vid] for vid in vids)) for pos, vids in chunk_facets
        )
    facets.sort(key=lambda facet: facet[0])
    return table, facets
