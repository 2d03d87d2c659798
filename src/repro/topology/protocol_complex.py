"""Protocol complexes and star complexes for the synchronous crash model.

The ``m``-round *protocol complex* ``P_m`` of the full-information protocol
contains one vertex per reachable local state ``(process, view at time m)``
and one facet per execution: the set of final local states of the processes
that are still active at time ``m`` in that execution.  Two executions share
a vertex exactly when some process cannot distinguish them — which is what
makes connectivity of (sub)complexes of ``P_m`` the right vehicle for
indistinguishability arguments.

The paper's novel observation (Section 4.3, Proposition 2) is that for
*local* optimality questions the right object is not the whole complex but
the **star complex** ``St(<i, m>, P_m)`` of the deciding node — the part of
``P_m`` consisting of the executions that ``<i, m>`` cannot distinguish from
the actual one.  Proposition 2: if ``<i, m>`` has hidden capacity at least
``k`` in every round, then its star complex is ``(k-1)``-connected.

Exhaustive protocol complexes are only tractable for small systems, which is
all Proposition 2's illustration needs.  The builders below take either an
explicit adversary family or the standard restricted family "at most ``k``
crashes per round" used by the lower-bound literature ([15, 22]).  They
materialise the whole family's canonical views in one view-only scheduler
pass (:func:`repro.engine.fused.run_facets_pass`) — one facet computation
per (prefix-class, input-class) instead of one reference ``Run`` per
adversary, each distinct facet kept once.  The restricted family is a
lazy, sized sequence (:class:`repro.adversaries.PerRoundCrashFamily`) over
its crash-option tree: the pass walks that tree depth first instead of scheduling members,
and the builder fetches a member only when one of its facets brings in a
new vertex (2,598 of 260,275 at n=6, m=2).  The per-adversary builders are the
:func:`repro.oracles.build_protocol_complex` fixtures; the two produce
vertex-for-vertex, facet-for-facet identical complexes
(``tests/test_complex_differential.py``, ``tests/test_fused_scheduler.py``).

The Proposition 2 census (:func:`capacity_connectivity_census`) has one
stream: canonical view-key classes, one star probed per class and each
verdict weighted by the class size.  The per-vertex census it is pinned to
is the :func:`repro.oracles.capacity_connectivity_census` fixture.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..engine.fused import run_facets_pass
from ..engine.views import RunCache
from ..model.adversary import Adversary, Context
from ..model.failure_pattern import FailurePattern
from ..model.types import ProcessId, Time, Value
from ..model.view import view_key
from ..pipeline import collector_paused, fold_stream
from .complexes import SimplicialComplex, VertexPool

#: A protocol-complex vertex: (process, canonical view key).
ComplexVertex = Tuple[ProcessId, tuple]


@dataclass(frozen=True)
class ProtocolComplex:
    """The ``m``-round protocol complex over an adversary family.

    Attributes
    ----------
    complex:
        The underlying simplicial complex (vertices are ``(process, view key)``).
    time:
        The round count ``m``.
    vertex_views:
        For every vertex, one representative ``(adversary, process)`` pair
        realising that local state (useful for mapping topological findings
        back to executions).
    run_cache:
        Memoised bare reference runs backing ``star_of`` / ``vertex_of``
        lookups — one simulation per distinct adversary, however many
        vertices are looked up against it.
    """

    complex: SimplicialComplex
    time: Time
    vertex_views: Dict[ComplexVertex, Tuple[Adversary, ProcessId]]
    run_cache: RunCache = field(default_factory=RunCache, compare=False, repr=False)

    def star_of(self, adversary: Adversary, process: ProcessId, t: int) -> SimplicialComplex:
        """The star complex of the vertex realised by ``process`` in ``adversary``'s run."""
        return self.complex.star(self.vertex_of(adversary, process, t))

    def vertex_of(self, adversary: Adversary, process: ProcessId, t: int) -> ComplexVertex:
        """The complex vertex corresponding to ``process``'s state at time ``m`` in the run."""
        run = self.run_cache.get(adversary, t, horizon=self.time)
        return (process, view_key(run.view(process, self.time)))


def vertex_capacity(vertex: ComplexVertex) -> int:
    """``HC<i, m>`` of a complex vertex, recovered from its canonical key alone.

    The key carries the ``latest_seen`` / ``earliest_evidence`` rows, and
    ``<j, l>`` is hidden iff ``latest_seen[j] < l < earliest_evidence[j]``
    (Definition 2), so the capacity needs no engine and no re-simulation —
    survey-style consumers (the PROP2 cross-tabulation) read it off the
    vertices the fused builder pass already produced.
    """
    _process, observed_time, latest_seen, evidence, _values, _senders = vertex[1]
    return min(
        sum(1 for seen, ev in zip(latest_seen, evidence) if seen < layer < ev)
        for layer in range(observed_time + 1)
    )


@dataclass
class CapacityCensus:
    """One Proposition 2 census row: capacity vs star connectivity over a complex.

    ``vertices`` counts every vertex of the complex; ``high_capacity`` those
    with ``HC >= k``; ``consistent`` the high-capacity vertices whose star
    passes the ``(k-1)``-connectivity proxy (Proposition 2 predicts
    ``consistent == high_capacity``); ``connected_stars`` /
    ``connected_high`` tabulate the converse direction.  ``classes`` is the
    number of canonical vertex classes the survey actually eliminated
    homology for (``vertices`` on the per-vertex oracle path), and
    ``homology_runs`` the number of connectivity profiles computed from
    scratch (cache misses).
    """

    vertices: int = 0
    high_capacity: int = 0
    consistent: int = 0
    connected_stars: int = 0
    connected_high: int = 0
    classes: int = 0
    homology_runs: int = 0

    @property
    def row(self) -> Tuple[int, int, int, int, int]:
        """The five census counts (the cross-path identity the tests pin)."""
        return (
            self.vertices,
            self.high_capacity,
            self.consistent,
            self.connected_stars,
            self.connected_high,
        )

    def record(self, k: int, capacity: int, level: int, weight: int = 1) -> None:
        """Fold one class verdict: ``weight`` vertices of this capacity and star level."""
        self.vertices += weight
        if capacity >= k:
            self.high_capacity += weight
            if level >= k - 1:
                self.consistent += weight
        if level >= k - 1:
            self.connected_stars += weight
            if capacity >= k:
                self.connected_high += weight


def census_classes(pc: ProtocolComplex, k: int, result_store=None):
    """The deterministic class stream a Proposition 2 census folds over.

    Returns ``(groups, profile, cache)``: ``groups`` is the materialised
    list of ``(representative_vertex, weight)`` pairs in the census's fold
    order — one canonical view-key class representative per class, with the
    class size — ``profile`` maps a star to its connectivity level
    ``max_q = k - 1``, and ``cache`` is the backing
    :class:`repro.topology.connectivity.ConnectivityCache`.

    Exposed separately from :func:`fold_census` so the resilient runtime
    (:func:`repro.runtime.resilient_census`) can fingerprint the stream
    before folding it in checkpointed batches: a checkpoint cursor is an
    index into ``groups``, which is why the list order must be
    deterministic — it is the first-seen order of the canonical classes in
    ``pc.vertex_views`` generation order.

    ``result_store`` threads a :class:`repro.store.ResultStore` into the
    :class:`ConnectivityCache` as its persistent tier.  The per-vertex
    stream (every vertex at weight 1) is the
    :func:`repro.oracles.capacity_connectivity_census` fixture.
    """
    from ..symmetry import canonical_view_key, renaming_star_signature
    from .connectivity import ConnectivityCache

    grouped: Dict[Tuple, List[ComplexVertex]] = {}
    for vertex in pc.vertex_views:
        grouped.setdefault(canonical_view_key(vertex[1]), []).append(vertex)
    for members in grouped.values():
        facet_counts = {pc.complex.star_facet_count(member) for member in members}
        if len(facet_counts) > 1:
            raise ValueError(
                "the Proposition 2 census requires a family closed under process "
                "renaming: vertices of one canonical class have stars of different "
                f"sizes ({sorted(facet_counts)} facets) in this complex"
            )
    groups = [(members[0], len(members)) for members in grouped.values()]
    cache = ConnectivityCache(signature=renaming_star_signature, store=result_store)
    profile = lambda star: cache.profile(star, max_q=k - 1)  # noqa: E731
    return groups, profile, cache


def capacity_connectivity_census(
    pc: ProtocolComplex, k: int, symmetry: str = "quotient"
) -> CapacityCensus:
    """Cross-tabulate hidden capacity against star ``(k-1)``-connectivity.

    The Proposition 2 survey over a protocol complex.  The vertices are
    grouped by their canonical view-key class
    (:func:`repro.symmetry.canonical_view_key` — exact orbit ids, valid
    because renaming a renaming-closed family's execution is an automorphism
    of its complex, so same-class vertices have isomorphic stars and equal
    capacities), one representative star per class is probed through a
    :class:`repro.topology.connectivity.ConnectivityCache` keyed by
    :func:`repro.symmetry.renaming_star_signature`, and each verdict is
    weighted by the class size.  The returned counts equal the per-vertex
    census of the :func:`repro.oracles.capacity_connectivity_census`
    fixture (pinned by ``tests/test_quotient_differential.py`` and gated at
    survey scale by ``benchmarks/bench_symmetry_quotient.py``), and its
    homology oracles' rows (``benchmarks/bench_prop2_connectivity.py``).
    ``symmetry`` accepts only ``"quotient"``, which changes nothing: the
    repository benchmark still passes it.

    Soundness requires the complex's family to be closed under process
    renaming, which holds for :func:`build_restricted_complex`
    (renaming-invariant pattern restrictions, constant input vector).  The
    census guards the precondition with a cheap necessary condition —
    every class member's star must have the representative's facet count (a
    renaming maps stars facet-for-facet) — so a census over a non-closed
    family raises instead of silently weighting a wrong profile; the guard
    cannot catch every violation (equal counts, different homology), which
    is why closure remains a documented requirement.
    """
    if symmetry != "quotient":
        raise ValueError(
            "capacity_connectivity_census takes no symmetry choice (it always folds "
            "canonical vertex classes); only the retained symmetry='quotient' is "
            f"accepted, got {symmetry!r}"
        )
    groups, profile, cache = census_classes(pc, k)
    census = CapacityCensus(classes=len(groups))
    fold_census(pc, k, groups, profile, cache, census)
    return census


def fold_census(pc: ProtocolComplex, k: int, groups, profile, cache, census, **attachments) -> None:
    """The census's pipeline: fold the class stream of :func:`census_classes` into ``census``.

    Class verdicts are ``(capacity, star level)``; ``census.homology_runs``
    counts the profiles computed so far (cache misses, or every evaluated
    class when ``cache`` is ``None``, as on the per-vertex oracle path).
    ``attachments`` pass through to :func:`repro.pipeline.fold_stream`.
    """
    resumed_runs = census.homology_runs
    evaluated = 0

    def evaluate(items):
        nonlocal evaluated
        evaluated += len(items)
        return (
            (vertex_capacity(vertex), profile(pc.complex.star(vertex))) for vertex, _weight in items
        )

    def fold(item, verdict):
        census.record(k, verdict[0], verdict[1], item[1])
        census.homology_runs = resumed_runs + (evaluated if cache is None else cache.misses)

    fold_stream(groups, evaluate, fold, **attachments)


def build_protocol_complex(
    adversaries: Iterable[Adversary],
    time: Time,
    t: int,
) -> ProtocolComplex:
    """Build the ``time``-round protocol complex over an explicit adversary family.

    Every adversary contributes the facet of the local states at ``time`` of
    its processes still active at ``time``.  One view-only scheduler pass
    (:func:`repro.engine.fused.run_facets_pass`) yields each (prefix-class,
    input-class) class's keyed active processes once; facets are assembled
    as bitsets over one shared :class:`VertexPool`, so each ``(process, view
    key)`` vertex is interned once and every star complex derived later
    reuses the same pool and ids.  The payload holds each distinct facet
    once, at the smallest position of a member realising it and in position
    order, so every vertex's representative is the first adversary (in
    family order) realising it, and each facet becomes one mask.  Nothing is
    kept per member: a sequence is not copied, a member is fetched only for
    a facet that brings in a new vertex — so a lazy family
    (:func:`restricted_adversaries`) builds a few thousand adversaries, not
    one per member — and the payload is freed before the maximality filter
    runs over the masks.  A :class:`repro.adversaries.PerRoundCrashFamily`'s
    walk emits only maximal facets, so there the filter removes nothing.
    The cyclic collector is paused for the build
    (:func:`repro.pipeline.collector_paused`).
    """
    with collector_paused():
        family = adversaries if isinstance(adversaries, abc.Sequence) else list(adversaries)
        table, facets = run_facets_pass(family, t, time)
        pool = VertexPool()
        # The table is already deduplicated, so each distinct vertex is hashed
        # into the pool exactly once; facet masks assemble from plain int lookups.
        bit_of = [1 << pool.intern(vertex) for vertex in table]
        unseen = set(range(len(table)))
        vertex_views: Dict[ComplexVertex, Tuple[Adversary, ProcessId]] = {}
        masks = []
        for position, vids in facets:
            masks.append(sum(bit_of[vid] for vid in vids))
            if unseen.isdisjoint(vids):
                continue
            representative = family[position]
            for vid in vids:
                if vid in unseen:
                    unseen.discard(vid)
                    vertex = table[vid]
                    vertex_views[vertex] = (representative, vertex[0])
        del table, facets, bit_of
        return ProtocolComplex(SimplicialComplex.from_masks(pool, masks), time, vertex_views)


def per_round_crash_patterns(
    n: int,
    rounds: int,
    max_crashes_per_round: int,
    receiver_policy: str = "canonical",
) -> Iterator[FailurePattern]:
    """Failure patterns with at most ``max_crashes_per_round`` crashes in each round.

    This is the adversary family used by the topological lower-bound
    literature for k-set consensus ([15, 22]) and the family over which
    Proposition 2's illustration builds its protocol complexes: the patterns
    of :class:`repro.adversaries.PerRoundCrashFamily` with at most ``n - 1``
    crashes in all.  The receiver policy has the same meaning as in
    :func:`repro.adversaries.enumeration.enumerate_failure_patterns`.
    """
    from ..adversaries.per_round import PerRoundCrashFamily

    # The input vector plays no part in the patterns.
    return PerRoundCrashFamily(n, rounds, max_crashes_per_round, (0,) * n, receiver_policy).patterns()


def build_restricted_complex(
    context: Context,
    time: Time,
    values: Optional[Sequence[Value]] = None,
    max_crashes_per_round: Optional[int] = None,
    receiver_policy: str = "canonical",
) -> ProtocolComplex:
    """The ``time``-round protocol complex over "at most ``k`` crashes per round" adversaries.

    The family is :func:`restricted_adversaries`, built by
    :func:`build_protocol_complex`.
    """
    adversaries = restricted_adversaries(
        context, time, values, max_crashes_per_round, receiver_policy
    )
    return build_protocol_complex(adversaries, time, context.t)


def restricted_adversaries(
    context: Context,
    time: Time,
    values: Optional[Sequence[Value]] = None,
    max_crashes_per_round: Optional[int] = None,
    receiver_policy: str = "canonical",
) -> Sequence[Adversary]:
    """The "at most ``k`` crashes per round" family over ``time`` rounds, lazily.

    ``k`` is ``max_crashes_per_round`` (default ``context.k``); patterns with
    more than ``context.t`` crashes are left out.  ``values`` fixes the input
    vector (the complex factorises over inputs, and for connectivity
    questions the inputs are irrelevant); it defaults to everyone starting
    with ``k``.  The result is a :class:`repro.adversaries.PerRoundCrashFamily`:
    a sized sequence that builds members only on access, and whose option
    tree :func:`repro.engine.fused.run_facets_pass` walks directly.  A negative
    ``time`` or cap, or an unknown policy, raises ``ValueError``.
    """
    from ..adversaries.per_round import PerRoundCrashFamily

    k = context.k if max_crashes_per_round is None else max_crashes_per_round
    if values is None:
        values = [context.k] * context.n
    return PerRoundCrashFamily(
        context.n, time, k, values, receiver_policy, max_failures=context.t
    )
