"""Hidden nodes, hidden paths and hidden capacity (paper, Sections 3 and 4.1).

The notion of a *hidden path* w.r.t. a node ``<i, m>`` — a sequence of nodes,
one per layer ``0 .. m``, each hidden from ``<i, m>`` — was introduced in
Castañeda–Gonczarowski–Moses 2014 and shown to be the exact obstruction to
deciding in (1-set) consensus.  This paper generalises it to the *hidden
capacity* ``HC<i, m>`` (Definition 2): the maximum ``c`` such that every layer
``ℓ <= m`` contains at least ``c`` nodes hidden from ``<i, m>``.

:class:`repro.model.view.View` already computes the per-layer hidden sets and
the capacity itself; this module adds the *structural* notions built on top of
them that the protocols, the Lemma 2 run surgery and the topological analysis
need:

* explicit hidden paths (sequences of process ids, one per layer);
* disjoint systems of hidden paths witnessing a capacity of ``c`` — the
  object Lemma 2 turns into an adversary in which ``c`` arbitrary values are
  each carried by its own crash chain;
* hidden-capacity profiles over time for whole runs.

Everything here operates on the *view read API* — the :class:`ViewLike`
protocol below — not on the concrete :class:`repro.model.view.View` class,
so the same helpers serve the reference engine's ``View`` objects and the
batch engine's :class:`repro.engine.ArrayView` slices (as materialised by
:class:`repro.engine.LayerViews`) interchangeably.  Likewise the run-profile helpers only need the
``has_view`` / ``view`` lookup surface, which both ``Run`` and
``LayerViews`` provide.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Protocol, Tuple

from ..model.types import ProcessId, ProcessTimeNode, Time


class ViewLike(Protocol):
    """The read surface the hidden-structure helpers consume.

    Satisfied by :class:`repro.model.view.View` and
    :class:`repro.engine.ArrayView` alike — the helpers never touch engine
    internals, only this API.
    """

    @property
    def time(self) -> Time: ...

    @property
    def n(self) -> int: ...

    def hidden_processes_at(self, layer: Time) -> FrozenSet[ProcessId]: ...

    def hidden_capacity(self) -> int: ...

    def is_seen(self, node: ProcessTimeNode) -> bool: ...

    def is_guaranteed_crashed(self, node: ProcessTimeNode) -> bool: ...


class RunViewsLike(Protocol):
    """The view-lookup surface of a run — ``Run`` or ``LayerViews``."""

    def has_view(self, process: ProcessId, time: Time) -> bool: ...

    def view(self, process: ProcessId, time: Time) -> ViewLike: ...


def hidden_nodes_by_layer(view: ViewLike) -> List[Tuple[ProcessId, ...]]:
    """The hidden processes of every layer ``0 .. m`` w.r.t. the view's node.

    Returns a list indexed by layer; entry ``ℓ`` is the (sorted) tuple of
    processes ``j`` such that ``<j, ℓ>`` is hidden from the observer.
    """
    return [tuple(sorted(view.hidden_processes_at(layer))) for layer in range(view.time + 1)]


def hidden_capacity(view: ViewLike) -> int:
    """``HC<i, m>`` — re-exported for symmetry with the paper's notation."""
    return view.hidden_capacity()


def has_hidden_path(view: ViewLike) -> bool:
    """Whether a hidden path w.r.t. the observer exists (``HC >= 1``)."""
    return view.hidden_capacity() >= 1


def witness_matrix(view: ViewLike, capacity: Optional[int] = None) -> List[Tuple[ProcessId, ...]]:
    """A matrix of witnesses to a hidden capacity of ``capacity``.

    Row ``ℓ`` contains ``capacity`` distinct processes whose layer-``ℓ`` nodes
    are hidden from the observer (Definition 2's witnesses ``i^ℓ_b``).  When
    ``capacity`` is ``None``, the view's actual hidden capacity is used.

    The selection is made deterministic *and* chain-friendly: within each
    layer, processes that were already chosen in the previous layer are
    preferred (ties broken by process id).  This produces witness columns
    that, whenever possible, follow the same process across consecutive
    layers, which makes the disjoint hidden chains constructed by
    :func:`disjoint_hidden_chains` shorter and easier to read.  Any choice of
    witnesses is equally valid for the paper's arguments.
    """
    if capacity is None:
        capacity = view.hidden_capacity()
    if capacity > view.hidden_capacity():
        raise ValueError(
            f"requested {capacity} witnesses per layer but the hidden capacity is only "
            f"{view.hidden_capacity()}"
        )
    rows: List[Tuple[ProcessId, ...]] = []
    previous: Tuple[ProcessId, ...] = ()
    for layer in range(view.time + 1):
        hidden = view.hidden_processes_at(layer)
        carried = [p for p in previous if p in hidden]
        fresh = sorted(hidden - set(carried))
        chosen = (carried + fresh)[:capacity]
        chosen_sorted = tuple(sorted(chosen))
        rows.append(chosen_sorted)
        previous = chosen_sorted
    return rows


def disjoint_hidden_chains(view: ViewLike, capacity: Optional[int] = None) -> List[List[ProcessId]]:
    """``capacity`` disjoint "hidden chains", one process per layer per chain.

    A *hidden chain* here is a sequence ``(i^0_b, i^1_b, .., i^m_b)`` of
    processes, one per layer, all of whose layer nodes are hidden from the
    observer, such that chains are pairwise disjoint within each layer.  These
    are exactly the ``i^ℓ_b`` of Definition 2, arranged into the ``c`` columns
    that Lemma 2 turns into ``c`` crash chains each carrying its own value.

    Returns a list of ``capacity`` chains; chain ``b`` is a list of length
    ``m+1`` giving the process at each layer.
    """
    rows = witness_matrix(view, capacity)
    if not rows:
        return []
    c = len(rows[0])
    # Column b of the witness matrix is chain b.  Within each layer the
    # witnesses are distinct, which is all Lemma 2 requires; to keep chains as
    # "straight" as possible we greedily match each layer's witnesses to the
    # previous layer's chains by process identity.
    chains: List[List[ProcessId]] = [[rows[0][b]] for b in range(c)]
    for layer in range(1, len(rows)):
        available = list(rows[layer])
        assignment: Dict[int, ProcessId] = {}
        # First pass: keep the same process when it is still a witness.
        for b in range(c):
            last = chains[b][-1]
            if last in available:
                assignment[b] = last
                available.remove(last)
        # Second pass: hand out the remaining witnesses in order.
        for b in range(c):
            if b not in assignment:
                assignment[b] = available.pop(0)
        for b in range(c):
            chains[b].append(assignment[b])
    return chains


def hidden_path(view: ViewLike) -> Optional[List[ProcessId]]:
    """A single hidden path w.r.t. the observer, or ``None`` if none exists.

    This is the ``k = 1`` specialisation used by the Opt0 analysis (Section 3,
    Fig. 1): a sequence of processes, one per layer ``0 .. m``, whose layer
    nodes are all hidden from ``<i, m>``.
    """
    if view.hidden_capacity() < 1:
        return None
    return disjoint_hidden_chains(view, 1)[0]


def capacity_profile(run: RunViewsLike, process: ProcessId) -> List[int]:
    """The hidden capacity of ``process`` at every time it is active in ``run``.

    Remark 1 of the paper notes that the hidden capacity of a process is
    weakly decreasing over time; the property tests assert this on the
    profiles returned here.
    """
    profile: List[int] = []
    time = 0
    while run.has_view(process, time):
        profile.append(run.view(process, time).hidden_capacity())
        time += 1
    return profile


def first_time_capacity_below(run: RunViewsLike, process: ProcessId, k: int) -> Optional[Time]:
    """The first time at which ``process``'s hidden capacity drops below ``k``.

    Returns ``None`` if that never happens within the simulated horizon (in
    particular for processes that crash while still maintaining capacity
    ``>= k``).
    """
    time = 0
    while run.has_view(process, time):
        if run.view(process, time).hidden_capacity() < k:
            return time
        time += 1
    return None


def classify_layer(view: ViewLike, layer: Time) -> Dict[str, Tuple[ProcessId, ...]]:
    """Partition the processes of a layer into seen / guaranteed-crashed / hidden.

    Useful for rendering figures and for tests that cross-check the three
    categories are a partition (every node is in exactly one of them).
    """
    seen: List[ProcessId] = []
    crashed: List[ProcessId] = []
    hidden: List[ProcessId] = []
    for j in range(view.n):
        node = ProcessTimeNode(j, layer)
        if view.is_seen(node):
            seen.append(j)
        elif view.is_guaranteed_crashed(node):
            crashed.append(j)
        else:
            hidden.append(j)
    return {
        "seen": tuple(seen),
        "crashed": tuple(crashed),
        "hidden": tuple(hidden),
    }
