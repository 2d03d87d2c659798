"""Abstract simplicial complexes (paper, Appendix B.1.1) on a sparse bitset kernel.

A *complex* is a finite vertex set together with a collection of subsets
(simplexes) closed under containment.  The paper's topological proof of
Lemma 1 and Proposition 2 reason about:

* the **star** ``St(v, K)`` of a vertex — every simplex containing ``v``,
  together with all faces of such simplexes;
* the **join** ``K * L`` of two disjoint complexes;
* **subdivisions** of a simplex and **Sperner colorings** of them
  (see :mod:`repro.topology.subdivision` and :mod:`repro.topology.sperner`);
* connectivity of subcomplexes of the protocol complex
  (see :mod:`repro.topology.connectivity`).

Vertices may be arbitrary hashable objects — protocol-complex vertices are
``(process, view key)`` pairs — but internally every vertex is *interned*
into a :class:`VertexPool` (vertex → small consecutive integer) and every
simplex is a Python-int **bitset** over those ids.  Containment, star
extraction, joins and boundaries are then single-word-ish mask operations,
and the maximality filter applied at construction only compares a candidate against already-accepted, larger facets that share one
of its vertices (near-linear in practice, instead of the quadratic all-pairs
scan of the dense set-of-frozensets representation this replaces).

Pools are shared downward: a star or join reuses its parent's pool, so a
survey that extracts thousands of stars from one protocol complex interns each ``(process, view)`` vertex exactly once.
The public API is unchanged — ``facets`` / ``vertices`` still materialise
frozensets of the original vertex objects (lazily, on first access).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

Vertex = Hashable
Simplex = FrozenSet[Vertex]


def iter_bits(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask``, ascending (the kernel's id iterator)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexPool:
    """Interns vertices to consecutive small integer ids.

    One pool is shared by a complex and everything derived from it (stars,
    joins, boundaries), so a vertex is hashed into the pool once however
    many subcomplexes mention it.  Ids are assigned in
    interning order and never reused, which also gives the connectivity
    kernel a canonical, ``repr``-free ordering of simplexes (two distinct
    vertices always have distinct ids, however their ``repr`` collides).
    """

    __slots__ = ("_ids", "_vertices")

    def __init__(self) -> None:
        self._ids: Dict[Vertex, int] = {}
        self._vertices: List[Vertex] = []

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._ids

    def intern(self, vertex: Vertex) -> int:
        """The id of ``vertex``, assigning the next free id on first sight."""
        vid = self._ids.get(vertex)
        if vid is None:
            vid = self._ids[vertex] = len(self._vertices)
            self._vertices.append(vertex)
        return vid

    def id_of(self, vertex: Vertex) -> Optional[int]:
        """The id of an already-interned vertex, or ``None``."""
        return self._ids.get(vertex)

    def vertex_at(self, vid: int) -> Vertex:
        """The vertex with id ``vid``."""
        return self._vertices[vid]

    def mask(self, vertices: Iterable[Vertex]) -> int:
        """The bitset of a vertex collection, interning as needed."""
        bits = 0
        intern = self.intern
        for vertex in vertices:
            bits |= 1 << intern(vertex)
        return bits

    def try_mask(self, vertices: Iterable[Vertex]) -> Optional[int]:
        """The bitset of a vertex collection, or ``None`` if any vertex is unknown."""
        bits = 0
        ids = self._ids
        for vertex in vertices:
            vid = ids.get(vertex)
            if vid is None:
                return None
            bits |= 1 << vid
        return bits

    def unmask(self, mask: int) -> Simplex:
        """The frozenset of vertices of a bitset."""
        vertices = self._vertices
        return frozenset(vertices[vid] for vid in iter_bits(mask))


def _maximal_masks(masks: Iterable[int]) -> List[int]:
    """The maximal elements of a family of (distinct) bitsets.

    Candidates are scanned by descending popcount so every potential superset
    of a candidate is already accepted when the candidate is tested, and each
    test only scans the accepted facets sharing the candidate's least-starred
    vertex — the star-indexed filter that replaces the all-pairs scan.
    Distinct masks of equal popcount are never strict supersets of each
    other, so the star index only holds facets of strictly larger popcount:
    a size class's facets join it when the popcount drops.  Ties are broken
    by mask value, making the facet order deterministic.
    """
    ordered = sorted(masks, key=lambda m: (-m.bit_count(), m))
    star: Dict[int, List[int]] = {}
    facets: List[int] = []
    # facets[indexed:] are the accepted facets of the current popcount.
    indexed, size = 0, None
    for mask in ordered:
        if mask.bit_count() != size:
            size = mask.bit_count()
            # The popcount dropped: index the larger facets accepted so far.
            for facet in facets[indexed:]:
                for vid in iter_bits(facet):
                    star.setdefault(vid, []).append(facet)
            indexed = len(facets)
        carriers: Optional[List[int]] = None
        for vid in iter_bits(mask):
            bucket = star.get(vid)
            if not bucket:
                carriers = None
                break
            if carriers is None or len(bucket) < len(carriers):
                carriers = bucket
        if carriers is not None and any(mask & facet == mask for facet in carriers):
            continue  # a strict subset of an accepted facet (masks are distinct)
        facets.append(mask)
    return facets


class SimplicialComplex:
    """A finite abstract simplicial complex.

    The complex is defined by a set of generating simplexes; all of their
    faces (including the empty simplex, which is kept implicit) belong to the
    complex.  Construction normalises the generators to the facets (maximal
    simplexes).  ``pool`` lets callers share one :class:`VertexPool` across a
    family of complexes (the protocol-complex builders do); omitted, the
    complex gets a private pool.
    """

    __slots__ = (
        "_pool",
        "_facet_bits",
        "_vertex_bits",
        "_facets",
        "_vertices",
        "_star_bits",
        "_hash",
    )

    def __init__(
        self,
        simplexes: Iterable[Iterable[Vertex]] = (),
        pool: Optional[VertexPool] = None,
    ) -> None:
        self._pool = pool if pool is not None else VertexPool()
        seen: Set[Simplex] = set()
        masks: List[int] = []
        for candidate in simplexes:
            s = frozenset(candidate)
            if s and s not in seen:
                seen.add(s)
                masks.append(self._pool.mask(s))
        self._init_from_masks(_maximal_masks(masks))

    def _init_from_masks(self, facet_bits: List[int]) -> None:
        self._facet_bits: Tuple[int, ...] = tuple(facet_bits)
        bits = 0
        for mask in facet_bits:
            bits |= mask
        self._vertex_bits: int = bits
        self._facets: Optional[Tuple[Simplex, ...]] = None
        self._vertices: Optional[FrozenSet[Vertex]] = None
        self._star_bits: Optional[Dict[int, List[int]]] = None
        self._hash: Optional[int] = None

    @classmethod
    def from_masks(
        cls, pool: VertexPool, masks: Iterable[int], maximal: bool = False
    ) -> "SimplicialComplex":
        """Internal constructor from bitsets over an existing pool.

        ``maximal=True`` is the fast path for masks known to be pairwise
        incomparable (e.g. a subset of an existing complex's facets); the
        general path deduplicates and runs the maximality filter.
        """
        complex_ = cls.__new__(cls)
        complex_._pool = pool
        if maximal:
            complex_._init_from_masks([m for m in masks if m])
        else:
            complex_._init_from_masks(_maximal_masks({m for m in masks if m}))
        return complex_

    def _star_index(self) -> Dict[int, List[int]]:
        """vertex id -> facet masks containing it; built lazily on the first
        star/contains (the hot operations of the Proposition 2 surveys)
        and shared by all subsequent extractions."""
        index = self._star_bits
        if index is None:
            index = {}
            for mask in self._facet_bits:
                for vid in iter_bits(mask):
                    index.setdefault(vid, []).append(mask)
            self._star_bits = index
        return index

    def _facets_with_bit(self, vid: int) -> List[int]:
        return self._star_index().get(vid, [])

    # ------------------------------------------------------------------ basic
    @property
    def pool(self) -> VertexPool:
        """The vertex pool the complex (and all its subcomplexes) interns into."""
        return self._pool

    @property
    def facet_masks(self) -> Tuple[int, ...]:
        """The facets as bitsets over the pool's ids (the kernel representation)."""
        return self._facet_bits

    @property
    def vertex_mask(self) -> int:
        """The union of the facet bitsets (the vertex set as a bitset)."""
        return self._vertex_bits

    @property
    def facets(self) -> Tuple[Simplex, ...]:
        """The maximal simplexes of the complex."""
        facets = self._facets
        if facets is None:
            unmask = self._pool.unmask
            facets = self._facets = tuple(unmask(mask) for mask in self._facet_bits)
        return facets

    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set."""
        vertices = self._vertices
        if vertices is None:
            vertices = self._vertices = self._pool.unmask(self._vertex_bits)
        return vertices

    @property
    def vertex_count(self) -> int:
        """``|V|`` straight off the vertex bitset (no frozenset materialisation)."""
        return self._vertex_bits.bit_count()

    def is_empty(self) -> bool:
        """Whether the complex has no simplexes at all."""
        return not self._facet_bits

    @property
    def dimension(self) -> int:
        """``dim K``: the maximal dimension of any simplex (-1 for the empty complex)."""
        return max((mask.bit_count() - 1 for mask in self._facet_bits), default=-1)

    def contains(self, candidate: Iterable[Vertex]) -> bool:
        """Whether the given vertex set is a simplex of the complex."""
        mask = self._pool.try_mask(candidate)
        if mask == 0:
            return True
        if mask is None or mask & self._vertex_bits != mask:
            return False
        low = mask & -mask
        return any(
            mask & facet == mask for facet in self._facets_with_bit(low.bit_length() - 1)
        )

    def __contains__(self, candidate: Iterable[Vertex]) -> bool:
        return self.contains(candidate)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        if self._pool is other._pool:
            # Shared pool: identical ids, so facet bitsets compare directly.
            return set(self._facet_bits) == set(other._facet_bits)
        return set(self.facets) == set(other.facets)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            # Hash the vertex-level facets, not the masks: two equal complexes
            # interned into different pools must hash identically.
            cached = self._hash = hash(frozenset(self.facets))
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimplicialComplex(|V|={self._vertex_bits.bit_count()}, "
            f"facets={len(self._facet_bits)}, dim={self.dimension})"
        )

    # ------------------------------------------------------------ operations
    def star_facet_count(self, vertex: Vertex) -> int:
        """``|facets(St(v, K))|`` without materialising the star subcomplex.

        The star's facets are exactly this complex's facets containing the
        vertex, so the count is one star-index lookup — what survey guards
        probe per vertex before extracting any representative stars.
        """
        vid = self._pool.id_of(vertex)
        return len(self._facets_with_bit(vid)) if vid is not None else 0

    def star(self, vertex: Vertex) -> "SimplicialComplex":
        """``St(v, K)``: all simplexes containing ``v`` and their faces.

        The facets of the star are exactly this complex's facets containing
        ``v`` — pairwise incomparable already, so no re-normalisation is
        needed (this is the hot operation of the Proposition 2 surveys).  The
        star shares this complex's pool.
        """
        vid = self._pool.id_of(vertex)
        masks = self._facets_with_bit(vid) if vid is not None else ()
        return SimplicialComplex.from_masks(self._pool, masks, maximal=True)

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """``K * L``: the join of two vertex-disjoint complexes."""
        if self.is_empty():
            return SimplicialComplex.from_masks(other._pool, other._facet_bits, maximal=True)
        if other.is_empty():
            return SimplicialComplex.from_masks(self._pool, self._facet_bits, maximal=True)
        if self._pool is other._pool:
            if self._vertex_bits & other._vertex_bits:
                raise ValueError("join requires vertex-disjoint complexes")
            other_bits: Iterable[int] = other._facet_bits
        else:
            if self.vertices & other.vertices:
                raise ValueError("join requires vertex-disjoint complexes")
            # Translate the other complex's facets into this pool.
            other_bits = [self._pool.mask(facet) for facet in other.facets]
        return SimplicialComplex.from_masks(
            self._pool,
            (a | b for a in self._facet_bits for b in other_bits),
            # Joins of facet pairs of vertex-disjoint complexes are pairwise
            # incomparable: a1|b1 ⊆ a2|b2 would force a1 ⊆ a2 and b1 ⊆ b2.
            maximal=True,
        )

    def boundary_complex(self) -> "SimplicialComplex":
        """``Bd σ`` generalised: the complex of all proper faces of the facets.

        Every maximal proper face is a codimension-1 face of some facet, so
        only those are generated (the maximality filter prunes the ones
        swallowed by another facet) — not the full face lattice.
        """
        out: Set[int] = set()
        for mask in self._facet_bits:
            for vid in iter_bits(mask):
                face = mask & ~(1 << vid)
                if face:
                    out.add(face)
        return SimplicialComplex.from_masks(self._pool, out)


def full_simplex(vertices: Iterable[Vertex], pool: Optional[VertexPool] = None) -> SimplicialComplex:
    """The full simplex on the given vertices (all subsets are simplexes)."""
    return SimplicialComplex([frozenset(vertices)], pool=pool)


def boundary_of_simplex(vertices: Iterable[Vertex]) -> SimplicialComplex:
    """``Bd σ``: all proper faces of the simplex on the given vertices."""
    return full_simplex(vertices).boundary_complex()


def sphere_complex(dimension: int) -> SimplicialComplex:
    """The boundary of a ``(dimension+1)``-simplex: a combinatorial ``dimension``-sphere.

    Handy as a known non-contractible test space for the homology code
    (its reduced homology is trivial except in degree ``dimension``).
    """
    return boundary_of_simplex(range(dimension + 2))

