"""Connectivity of simplicial complexes via GF(2) simplicial homology.

Proposition 2 of the paper relates the hidden capacity of a node to the
``(k-1)``-connectivity of its star complex inside the protocol complex.
Topological ``q``-connectivity (vanishing homotopy groups up to dimension
``q``) is not decidable in general, but the standard computable proxy used
throughout the distributed-computing lower-bound literature is the vanishing
of *reduced homology* in dimensions ``0 .. q`` — a necessary condition for
``q``-connectivity, and the condition that the Sperner/index arguments
actually consume.

This module computes reduced Betti numbers over GF(2) on the bitset kernel
of :mod:`repro.topology.complexes`:

* chain groups are *streamed one dimension at a time* as bit combinations of
  the facet masks, deduplicated across facets as plain integers, and never
  materialised beyond dimension ``q + 1`` when only ``b̃_0 .. b̃_q`` are
  requested — so :func:`connectivity_profile` with ``max_q = k - 1`` does
  work proportional to the low-dimensional skeleton, not to the full
  (exponential) face lattice;
* chain-group bases are indexed and ordered by the simplex's bitset value
  over the pool's interned vertex ids — a canonical order that is immune to
  ``repr`` collisions between distinct vertices (the former sort key);
* boundary matrices are eliminated incrementally, one column (= one
  higher-dimensional simplex) at a time, and the profile scan exits at the
  first non-vanishing Betti number; the rank of ``∂_{q+1}`` is reused as the
  down-rank of dimension ``q + 1`` instead of being recomputed.

One production kernel answers every question.  Two structural shortcuts
bypass elimination where the survey workload lives: a **cone test** (a
vertex common to every facet makes the complex a cone, hence contractible —
*every* star complex is such a cone with its own apex, so the Proposition 2
surveys answer in O(facets) per star), and a **union-find pass** over the
facet masks that yields ``b̃_0 = c - 1`` and ``rank ∂_1 = |V| - c`` without
enumerating a single edge row.  Higher boundary matrices are assembled
straight from the facet bitmasks into integer rows and eliminated by
:func:`rank_of_int_rows`.

Its differential oracles — the shortcut-free big-int stream and the seed's
dense face-lattice algorithm — live in :mod:`repro.oracles`; they are pinned
equal to this kernel on golden spaces and the randomized differential
battery (``tests/test_homology_fuzz.py``), on the exhaustive n=4, t=2 star
family (``tests/test_homology_differential.py``) and byte-identically on
census rows (``benchmarks/bench_prop2_connectivity``).

Homology is additionally invariant under vertex relabelling, and survey
consumers probe families of pairwise-isomorphic stars;
:class:`ConnectivityCache` memoises profiles under the exact canonical
signature of :func:`repro.symmetry.star_signature`, so each isomorphism
class is eliminated once (``bench_symmetry_quotient`` gates the collapse,
``tests/test_quotient_differential.py`` pins cached == dense-oracle
profiles on the exhaustive n=4, t=2 star family).

The complexes this module is pointed at arrive from the fused builder pass
(:func:`repro.topology.build_restricted_complex`, one view-only scheduler
traversal), and the
Proposition 2 surveys recover each vertex's hidden capacity from its
canonical key (:func:`repro.topology.protocol_complex.vertex_capacity`) —
so a capacity-vs-connectivity census simulates nothing beyond that single
pass.

The substitution (homology proxy instead of true connectivity) is recorded in
DESIGN.md §2 and EXPERIMENTS.md (PROP2).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .complexes import SimplicialComplex, Simplex, iter_bits


def rank_of_int_rows(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a matrix whose rows are Python integers (bitsets).

    Incremental Gaussian elimination: pivots live in a dict keyed by their
    leading-bit index (``int.bit_length() - 1``), so reducing a new row costs
    one dict lookup per XOR instead of a scan over the accepted pivots; the
    row either becomes a new pivot (raising the rank) or vanishes (linearly
    dependent).  CPython integers are themselves packed word arrays with
    C-speed XOR, so the rows need no other packing.
    """
    pivots: Dict[int, int] = {}
    rank = 0
    for row in rows:
        current = row
        while current:
            lead = current.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = current
                rank += 1
                break
            current ^= pivot
    return rank


# --------------------------------------------------------------- sparse kernel
def _local_facets(complex_: SimplicialComplex) -> Tuple[List[int], List]:
    """The facet bitsets re-based onto a dense ``0 .. |V|-1`` bit range.

    Subcomplexes share their parent's :class:`VertexPool`, so a star cut out
    of a 5000-vertex protocol complex carries facet masks thousands of bits
    wide even though it touches twenty vertices.  Homology only needs ids
    that are *consistent*, not global: compressing onto the complex's own
    vertices keeps every chain-group mask word-sized.  The compression is
    monotone in the global ids, so orderings by mask value are preserved.

    Returns the local facet masks plus the vertex of each local bit (for
    consumers that materialise simplexes back out).
    """
    pool = complex_.pool
    position_of: Dict[int, int] = {}
    vertices: List = []
    for vid in iter_bits(complex_.vertex_mask):
        position_of[vid] = len(vertices)
        vertices.append(pool.vertex_at(vid))
    locals_: List[int] = []
    for mask in complex_.facet_masks:
        local = 0
        for vid in iter_bits(mask):
            local |= 1 << position_of[vid]
        locals_.append(local)
    return locals_, vertices


def _masks_at_dimension(facet_masks: Sequence[int], dimension: int) -> List[int]:
    """All dimension-``dimension`` simplex masks of the complex, ascending.

    Streams ``(dimension+1)``-subsets of each facet's bit positions and
    deduplicates across facets as integers; the ascending sort both fixes the
    chain-group order (by interned vertex ids, not ``repr``) and makes the
    boundary matrices reproducible.
    """
    size = dimension + 1
    out = set()
    for mask in facet_masks:
        bits = [1 << vid for vid in iter_bits(mask)]
        if len(bits) >= size:
            for combo in itertools.combinations(bits, size):
                out.add(sum(combo))
    return sorted(out)


def boundary_rank(
    lower: Sequence[int],
    upper: Sequence[int],
    position_of: Optional[Dict[int, int]] = None,
) -> int:
    """Rank over GF(2) of the simplicial boundary map ``upper -> lower``.

    Bases are bitset masks (one bit per vertex).  Each upper simplex
    contributes one matrix row: its codimension-1 faces are the masks with
    one bit cleared, looked up by value in ``position_of`` (the lower
    basis's mask -> position index, built here when not supplied — the
    Betti stream supplies it to reuse the index across adjacent dimensions).
    The rows are eliminated incrementally by :func:`rank_of_int_rows`, so
    the matrix is never materialised densely.
    """
    if not upper or not lower:
        return 0
    if position_of is None:
        position_of = {mask: position for position, mask in enumerate(lower)}
    rows: List[int] = []
    for mask in upper:
        row = 0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            row |= 1 << position_of[mask ^ low]
            remaining ^= low
        rows.append(row)
    return rank_of_int_rows(rows)


# ------------------------------------------------------------ shortcuts
def _facet_component_count(facet_masks: Sequence[int]) -> int:
    """Number of connected components, by union-find over the facet bit lists.

    Every facet is itself connected, so unioning each facet's vertices
    (first bit with the rest) computes the components of the whole complex
    without enumerating a single edge — the Betti stream reads
    ``b̃_0 = c - 1`` and ``rank ∂_1 = |V| - c`` straight off the count.
    """
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    components = 0
    for mask in facet_masks:
        anchor = -1
        for vid in iter_bits(mask):
            if vid not in parent:
                parent[vid] = vid
                components += 1
            root = find(vid)
            if anchor < 0:
                anchor = root
            elif root != anchor:
                parent[root] = anchor
                components -= 1
    return components


def _common_apex(facet_masks: Sequence[int]) -> int:
    """The bitset of vertices shared by *every* facet (0 when there is none).

    Non-zero means the complex is a cone: for any apex ``v`` in the
    intersection, each simplex ``s`` lies in a facet containing ``v``, so
    ``s ∪ {v}`` is a simplex too.  Cones are contractible — all reduced
    homology vanishes — which settles every Betti and profile question in
    O(facets) bit-ANDs.  Star complexes are always cones (their own vertex
    is in every facet), so this is the path the Proposition 2 surveys take.
    """
    if not facet_masks:
        return 0
    apex = -1
    for mask in facet_masks:
        apex &= mask
        if not apex:
            return 0
    return apex


def _betti_stream(complex_: SimplicialComplex, top: int) -> Iterator[int]:
    """Yield ``b̃_0, b̃_1, ..`` up to dimension ``top``, lazily.

    Structural shortcuts first — the cone test answers contractible
    complexes outright, and union-find over the facet masks settles
    dimension 0 (``b̃_0 = c - 1``) while seeding ``rank ∂_1 = |V| - c`` as
    the first reused down-rank.  Dimension ``q + 1`` is enumerated only when
    ``b̃_q`` is actually pulled, so an early-exiting consumer
    (:func:`connectivity_profile`) touches nothing above the first
    non-vanishing dimension plus one.  The rank of ``∂_{q+1}`` flows forward
    as the down-rank of dimension ``q + 1``, and each basis's position index
    is built once and shared between its upper and lower roles.
    """
    # The cone test runs on the *global* facet masks: re-basing is monotone,
    # so a common apex exists locally iff it exists globally — and a star
    # complex (every facet contains the star's vertex) answers here without
    # paying the local re-basing pass at all.
    if _common_apex(complex_.facet_masks):
        for _ in range(top + 1):
            yield 0
        return
    facet_masks, _ = _local_facets(complex_)
    components = _facet_component_count(facet_masks)
    yield components - 1
    if top == 0:
        return
    dimension = complex_.dimension
    rank_down = complex_.vertex_count - components  # rank ∂_1, by union-find
    current = _masks_at_dimension(facet_masks, 1)
    index = {mask: position for position, mask in enumerate(current)}
    for q in range(1, top + 1):
        above = _masks_at_dimension(facet_masks, q + 1) if q < dimension else []
        rank_up = boundary_rank(current, above, position_of=index)
        yield len(current) - rank_down - rank_up
        current = above
        index = {mask: position for position, mask in enumerate(above)}
        rank_down = rank_up


def simplices_by_dimension(complex_: SimplicialComplex) -> Dict[int, List[Simplex]]:
    """All simplexes of the complex grouped (and deterministically ordered) by dimension.

    The order within a dimension is by the simplex's bitset over interned
    vertex ids — canonical even when distinct vertices share a ``repr``
    (which used to collapse the former ``repr``-keyed sort ordering).
    """
    grouped: Dict[int, List[Simplex]] = {}
    facet_masks, vertices = _local_facets(complex_)
    for dim in range(complex_.dimension + 1):
        masks = _masks_at_dimension(facet_masks, dim)
        if masks:
            grouped[dim] = [
                frozenset(vertices[position] for position in iter_bits(mask))
                for mask in masks
            ]
    return grouped


def reduced_betti_numbers(
    complex_: SimplicialComplex,
    max_dimension: int | None = None,
) -> List[int]:
    """Reduced GF(2) Betti numbers ``b̃_0 .. b̃_D`` of the complex.

    ``D`` defaults to the complex's dimension.  The empty complex has no
    Betti numbers (an empty list is returned).  With ``max_dimension = q``
    only the skeleton up to dimension ``q + 1`` is ever enumerated.
    """
    if complex_.is_empty():
        return []
    top = complex_.dimension if max_dimension is None else min(max_dimension, complex_.dimension)
    if top < 0:
        return []
    return list(_betti_stream(complex_, top))


def is_homologically_q_connected(complex_: SimplicialComplex, q: int) -> bool:
    """The homological proxy for ``q``-connectivity.

    ``True`` iff the complex is non-empty and its reduced GF(2) homology
    vanishes in every dimension ``0 .. q``.  For ``q = -1`` this is just
    non-emptiness (the usual convention); for ``q = 0`` it coincides with
    path-connectedness.
    """
    if complex_.is_empty():
        return False
    if q < 0:
        return True
    return connectivity_profile(complex_, max_q=q) >= q


def connectivity_profile(complex_: SimplicialComplex, max_q: int | None = None) -> int:
    """The largest ``q`` (up to ``max_q``) for which the homological proxy holds.

    Returns ``-2`` for the empty complex, ``-1`` for a non-empty but
    disconnected complex, and otherwise the largest ``q`` with vanishing
    reduced homology through dimension ``q``.  The Betti stream is consumed
    incrementally and abandoned at the first non-vanishing dimension, so a
    ``max_q = k - 1`` star survey pays for the ``k``-skeleton only — and a
    star complex (always a cone) pays only the O(facets) cone test.
    """
    if complex_.is_empty():
        return -2
    limit = complex_.dimension if max_q is None else max_q
    if limit < 0:
        return -1
    top = min(limit, complex_.dimension)
    for q, betti in enumerate(_betti_stream(complex_, top)):
        if betti != 0:
            return q - 1
    # Dimensions above the complex's own dimension contribute nothing, so a
    # complex clean through its top dimension is connected through ``limit``.
    return limit


class ConnectivityCache:
    """Isomorphism-keyed memoisation of :func:`connectivity_profile`.

    Reduced homology is invariant under any relabelling of a complex's
    vertices, and the Proposition 2 surveys probe thousands of star complexes
    that differ *only* by such a relabelling (renaming the processes of the
    underlying executions).  The cache keys each profile by the **exact**
    canonical form of the facet structure
    (:func:`repro.symmetry.star_signature` — equal signatures guarantee an
    isomorphism, never merely a matching hash), so homology runs once per
    star-isomorphism class instead of once per vertex, with no possibility of
    a collision serving a wrong profile.

    ``signature`` selects the canonical form: the default
    :func:`repro.symmetry.star_signature` keys by the full
    vertex-relabelling isomorphism class (maximal hits; exponential worst
    case on highly symmetric stars), while
    :func:`repro.symmetry.renaming_star_signature` keys protocol-complex
    stars by their process-renaming class — the survey configuration, whose
    search space is the ``n!`` renamings rather than the ``|V|!``
    relabellings.  Both are exact canonical forms, so either way a hit can
    only ever serve a profile of an isomorphic complex.

    ``max_q`` is part of the key: a profile truncated at ``k - 1`` says
    nothing about higher dimensions.  ``hits`` / ``misses`` expose the
    collapse factor for benchmarks.

    ``store`` adds a persistent tier (:class:`repro.store.ResultStore`):
    an in-memory miss consults the store before running homology, and a
    computed profile is written back (committed at the caller's next batch
    boundary).  Profiles are a pure function of the star's isomorphism
    class, so the store namespace is universal — every survey that ever
    probes an isomorphic star shares the row, whatever its context.  A
    store hit counts as ``store_hits``, **not** as a miss: like an
    in-memory hit, it ran no homology (``homology_runs`` accounting).
    """

    __slots__ = (
        "_profiles",
        "_signature",
        "_signature_name",
        "hits",
        "misses",
        "store",
        "store_hits",
    )

    def __init__(self, signature=None, store=None) -> None:
        self._profiles: Dict[Tuple, int] = {}
        self._signature = signature
        self._signature_name = None
        self.hits = 0
        self.misses = 0
        self.store = store
        self.store_hits = 0

    def __len__(self) -> int:
        return len(self._profiles)

    def profile(self, complex_: SimplicialComplex, max_q: int | None = None) -> int:
        """``connectivity_profile(complex_, max_q)`` through the signature cache."""
        signature = self._signature
        if signature is None:
            from ..symmetry import star_signature  # deferred: symmetry imports this package

            signature = self._signature = star_signature
        key = (signature(complex_), max_q)
        cached = self._profiles.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        if self.store is not None and self.store.available:
            from ..store import PROFILE_SPEC_HASH, profile_key

            if self._signature_name is None:
                self._signature_name = getattr(
                    signature, "__name__", type(signature).__name__
                )
            row_key = profile_key(self._signature_name, key[0], max_q)
            stored = self.store.get("profile", PROFILE_SPEC_HASH, row_key)
            if stored is not None:
                self.store_hits += 1
                self._profiles[key] = stored
                return stored
            self.misses += 1
            level = connectivity_profile(complex_, max_q=max_q)
            self._profiles[key] = level
            self.store.put("profile", PROFILE_SPEC_HASH, row_key, level)
            return level
        self.misses += 1
        level = connectivity_profile(complex_, max_q=max_q)
        self._profiles[key] = level
        return level


def euler_characteristic(complex_: SimplicialComplex) -> int:
    """The Euler characteristic (a cheap cross-check for the homology code)."""
    facet_masks, _ = _local_facets(complex_)
    return sum(
        ((-1) ** dim) * len(_masks_at_dimension(facet_masks, dim))
        for dim in range(complex_.dimension + 1)
    )
