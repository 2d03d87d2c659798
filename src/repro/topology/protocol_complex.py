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
crashes per round" used by the lower-bound literature ([15, 22]), plus a
worker count.  They materialise the whole family's canonical views in one
view-only scheduler pass (:func:`repro.engine.fused.run_facets_pass`) — one
facet computation per (prefix-class, input-class) instead of one reference
``Run`` per adversary, sharded across worker processes when
``processes >= 2``.  The per-adversary builders are the
:func:`repro.oracles.build_protocol_complex` fixtures; the two produce
vertex-for-vertex, facet-for-facet identical complexes
(``tests/test_complex_differential.py``, ``tests/test_fused_scheduler.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..engine.fused import run_facets_pass
from ..engine.views import RunCache
from ..model.adversary import Adversary, Context
from ..model.failure_pattern import CrashEvent, FailurePattern
from ..model.types import ProcessId, Time, Value
from ..model.view import view_key
from ..pipeline import fold_stream
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
    homology for (equals ``vertices`` on the exhaustive path), and
    ``homology_runs`` the number of connectivity profiles computed from
    scratch (cache misses on the quotient path).
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


def census_classes(
    pc: ProtocolComplex,
    k: int,
    symmetry: str = "none",
    result_store=None,
):
    """The deterministic class stream a Proposition 2 census folds over.

    Returns ``(groups, profile, cache)``: ``groups`` is the materialised
    list of ``(representative_vertex, weight)`` pairs in the census's fold
    order (every vertex with weight 1 for ``symmetry="none"``; one canonical
    view-key class representative with the class size for the quotient /
    constructive paths), ``profile`` maps a star to its connectivity level
    ``max_q = k - 1``, and ``cache`` is the backing
    :class:`repro.topology.connectivity.ConnectivityCache` (``None`` on the
    exhaustive path).

    Exposed separately from :func:`fold_census` so the resilient runtime
    (:func:`repro.runtime.resilient_census`) can fingerprint the stream
    before folding it in checkpointed batches: a checkpoint cursor is an
    index into ``groups``, which is why the list order must be deterministic — it
    follows ``pc.vertex_views`` generation order (first-seen order of the
    canonical classes on the symmetry paths).

    ``result_store`` threads a :class:`repro.store.ResultStore` into the
    :class:`ConnectivityCache` as its persistent tier (symmetry paths only —
    the exhaustive path computes profiles directly; its durable memo lives
    one level up, in the per-class rows of :func:`resilient_census`).
    """
    from ..symmetry import canonical_view_key, validate_symmetry_choice

    validate_symmetry_choice(symmetry)
    cache = None
    if symmetry == "none":
        from .connectivity import connectivity_profile

        groups: List[Tuple[ComplexVertex, int]] = [
            (vertex, 1) for vertex in pc.vertex_views
        ]
        profile = lambda star: connectivity_profile(star, max_q=k - 1)  # noqa: E731
    else:
        from ..symmetry import renaming_star_signature
        from .connectivity import ConnectivityCache

        grouped: Dict[Tuple, List[ComplexVertex]] = {}
        for vertex in pc.vertex_views:
            grouped.setdefault(canonical_view_key(vertex[1]), []).append(vertex)
        for members in grouped.values():
            facet_counts = {pc.complex.star_facet_count(member) for member in members}
            if len(facet_counts) > 1:
                raise ValueError(
                    f"capacity_connectivity_census(symmetry={symmetry!r}) requires "
                    "a family closed under process renaming: vertices of one "
                    "canonical class have stars of different sizes "
                    f"({sorted(facet_counts)} facets) in this complex"
                )
        groups = [(members[0], len(members)) for members in grouped.values()]
        cache = ConnectivityCache(signature=renaming_star_signature, store=result_store)
        profile = lambda star: cache.profile(star, max_q=k - 1)  # noqa: E731
    return groups, profile, cache


def capacity_connectivity_census(
    pc: ProtocolComplex, k: int, symmetry: str = "none"
) -> CapacityCensus:
    """Cross-tabulate hidden capacity against star ``(k-1)``-connectivity.

    The Proposition 2 survey over a protocol complex.  Every star profile
    comes from :func:`repro.topology.connectivity_profile`; the census rows
    equal those of the :func:`repro.oracles.capacity_connectivity_census`
    homology oracles (``benchmarks/bench_prop2_connectivity.py`` pins the
    big-int oracle's row byte-for-byte at survey scale).  ``symmetry="none"``
    probes every vertex's star (the exhaustive path).  ``symmetry="quotient"``
    groups the vertices by their canonical view-key class
    (:func:`repro.symmetry.canonical_view_key` — exact orbit ids, valid
    because renaming a renaming-closed family's execution is an automorphism
    of its complex, so same-class vertices have isomorphic stars and equal
    capacities), probes one representative star per class through a
    :class:`repro.topology.connectivity.ConnectivityCache` keyed by
    :func:`repro.symmetry.renaming_star_signature`, and weights each verdict
    by the class size — the returned counts are identical to the exhaustive
    ones (pinned by ``tests/test_quotient_differential.py`` and gated at
    survey scale by ``benchmarks/bench_symmetry_quotient.py``).
    ``symmetry="constructive"`` is accepted as an alias of the quotient
    survey: the census operates on an already-built complex, where the
    canonical view-key grouping *is* the constructive front (exact orbit ids,
    one homology probe per class) — constructive generation matters upstream,
    in the family the complex is built from
    (:func:`repro.adversaries.enumerate_orbits`).

    Quotient soundness requires the complex's family to be closed under
    process renaming, which holds for :func:`build_restricted_complex`
    (renaming-invariant pattern restrictions, constant input vector).  The
    quotient path guards the precondition with a cheap necessary condition —
    every class member's star must have the representative's facet count (a
    renaming maps stars facet-for-facet) — so a census over a non-closed
    family raises instead of silently weighting a wrong profile; the guard
    cannot catch every violation (equal counts, different homology), which
    is why closure remains a documented requirement.
    """
    groups, profile, cache = census_classes(pc, k, symmetry=symmetry)
    census = CapacityCensus(classes=len(groups))
    fold_census(pc, k, groups, profile, cache, census)
    return census


def fold_census(pc: ProtocolComplex, k: int, groups, profile, cache, census, **attachments) -> None:
    """The census's pipeline: fold the class stream of :func:`census_classes` into ``census``.

    Class verdicts are ``(capacity, star level)``; ``census.homology_runs``
    counts the profiles computed so far (cache misses, or every evaluated
    class on the exhaustive path).
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
    processes: Optional[int] = None,
) -> ProtocolComplex:
    """Build the ``time``-round protocol complex over an explicit adversary family.

    Every adversary contributes the facet of the local states at ``time`` of
    its processes still active at ``time``.  One view-only scheduler pass
    (:func:`repro.engine.fused.run_facets_pass`, sharded across workers when
    ``processes >= 2``) yields each (prefix-class, input-class) class's keyed
    active processes once; facets are assembled as bitsets over one shared
    :class:`VertexPool`, so each ``(process, view key)`` vertex is interned
    once and every star complex derived later reuses the same pool and ids.
    Payloads arrive sorted by smallest member position, so every vertex's
    representative is the first adversary (in family order) realising it,
    independent of chunking.
    """
    batch = adversaries if isinstance(adversaries, (list, tuple)) else list(adversaries)
    table, facets = run_facets_pass(batch, t, time, processes=processes)
    pool = VertexPool()
    # The table is already deduplicated, so each distinct vertex is hashed
    # into the pool exactly once; facet masks assemble from plain int lookups.
    bit_of = [1 << pool.intern(vertex) for vertex in table]
    masks: List[int] = []
    vertex_views: Dict[ComplexVertex, Tuple[Adversary, ProcessId]] = {}
    for position, vids in facets:
        representative = batch[position]
        mask = 0
        for vid in vids:
            vertex = table[vid]
            if vertex not in vertex_views:
                vertex_views[vertex] = (representative, vertex[0])
            mask |= bit_of[vid]
        masks.append(mask)
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
    Proposition 2's illustration builds its protocol complexes.  The receiver
    policy has the same meaning as in
    :func:`repro.adversaries.enumeration.enumerate_failure_patterns`.
    """
    from ..adversaries.enumeration import _receiver_subsets

    #: (available, round) -> [(that round's events, processes still available
    #: after it)], built once: every prefix with the same survivors shares
    #: the (immutable) event tuples instead of rebuilding them.
    RoundOption = Tuple[Tuple[CrashEvent, ...], Tuple[ProcessId, ...]]
    options: Dict[Tuple[Tuple[ProcessId, ...], int], List[RoundOption]] = {}

    def round_options(available: Tuple[ProcessId, ...], round_: int) -> List[RoundOption]:
        cached = options.get((available, round_))
        if cached is None:
            cached = options[(available, round_)] = []
            for count in range(min(max_crashes_per_round, len(available)) + 1):
                for crashers in itertools.combinations(available, count):
                    rest = tuple(p for p in available if p not in crashers)
                    receiver_choices = [
                        list(_receiver_subsets(n, p, receiver_policy)) for p in crashers
                    ]
                    for receivers in itertools.product(*receiver_choices):
                        events = tuple(
                            CrashEvent(p, round_, r) for p, r in zip(crashers, receivers)
                        )
                        cached.append((events, rest))
        return cached

    def rec(round_: int, available: Tuple[ProcessId, ...], acc: Tuple[CrashEvent, ...]) -> Iterator[FailurePattern]:
        if round_ > rounds:
            if len(acc) <= n - 1:
                yield FailurePattern(n, acc)
            return
        for events, rest in round_options(available, round_):
            if len(acc) + len(events) > n - 1:
                continue
            yield from rec(round_ + 1, rest, acc + events)

    yield from rec(1, tuple(range(n)), ())


def build_restricted_complex(
    context: Context,
    time: Time,
    values: Optional[Sequence[Value]] = None,
    max_crashes_per_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    processes: Optional[int] = None,
) -> ProtocolComplex:
    """The ``time``-round protocol complex over "at most ``k`` crashes per round" adversaries.

    The family is :func:`restricted_adversaries`; ``processes`` shards the
    build (see :func:`build_protocol_complex`).
    """
    adversaries = restricted_adversaries(
        context, time, values, max_crashes_per_round, receiver_policy
    )
    return build_protocol_complex(adversaries, time, context.t, processes=processes)


def restricted_adversaries(
    context: Context,
    time: Time,
    values: Optional[Sequence[Value]] = None,
    max_crashes_per_round: Optional[int] = None,
    receiver_policy: str = "canonical",
) -> Iterator[Adversary]:
    """The "at most ``k`` crashes per round" family over ``time`` rounds, lazily.

    ``k`` is ``max_crashes_per_round`` (default ``context.k``); patterns with
    more than ``context.t`` crashes are dropped.  ``values`` fixes the input
    vector (the complex factorises over inputs, and for connectivity
    questions the inputs are irrelevant); it defaults to everyone starting
    with ``k``.
    """
    k = context.k if max_crashes_per_round is None else max_crashes_per_round
    if values is None:
        values = [context.k] * context.n
    return (
        Adversary(values, pattern)
        for pattern in per_round_crash_patterns(context.n, time, k, receiver_policy)
        if pattern.num_failures <= context.t
    )
