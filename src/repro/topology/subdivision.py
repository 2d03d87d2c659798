"""Subdivisions of a simplex: the paper's ``Div σ``.

Appendix B.1.1 defines subdivisions combinatorially.  The barycentric
subdivision ``Bary σ`` introduces one new vertex per face and cones it over
the subdivided boundary of that face.  The paper's topological proof of
Lemma 1 uses a *variant* ``Div σ`` (Fig. 5) that only subdivides the faces
containing the distinguished vertex ``k`` (and is the identity elsewhere),
so that the subdivision's vertices can be mapped to the process states
arising when subsets of the processes ``i_0 .. i_{k-1}`` crash in the last
round.

The subdivision is represented with vertices that are frozensets of
original vertices: the original vertex ``x`` appears as ``frozenset({x})``
and the new vertex introduced for a face ``σ'`` appears as ``frozenset(σ')``.
The *carrier* of a subdivision vertex is therefore simply the face it is a
subset of — which makes the Sperner-coloring condition (each vertex coloured
by an element of its carrier) immediate to check.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Hashable, List, Sequence, Set, Tuple

from .complexes import SimplicialComplex, Simplex

#: A vertex of a subdivision: the set of original vertices it "averages".
SubdivisionVertex = FrozenSet[Hashable]


class SubdividedSimplex:
    """A subdivision of the simplex on ``base_vertices``.

    Attributes
    ----------
    base_vertices:
        The original vertices of ``σ``.
    complex:
        The subdivision as a :class:`SimplicialComplex` whose vertices are
        frozensets of original vertices.
    """

    def __init__(self, base_vertices: Sequence[Hashable], complex_: SimplicialComplex) -> None:
        self.base_vertices: Tuple[Hashable, ...] = tuple(base_vertices)
        self.complex = complex_

    @property
    def dimension(self) -> int:
        """The dimension of the subdivided simplex."""
        return len(self.base_vertices) - 1

    def carrier(self, vertex: SubdivisionVertex) -> FrozenSet[Hashable]:
        """``Car v``: the smallest face of ``σ`` containing the subdivision vertex."""
        if not vertex <= frozenset(self.base_vertices):
            raise ValueError(f"{set(vertex)} is not contained in the base simplex")
        return frozenset(vertex)

    def vertices(self) -> Set[SubdivisionVertex]:
        """All subdivision vertices."""
        return set(self.complex.vertices)

    def top_simplices(self) -> List[Simplex]:
        """The top-dimensional simplexes of the subdivision."""
        size = self.dimension + 1
        return [
            facet
            for facet, mask in zip(self.complex.facets, self.complex.facet_masks)
            if mask.bit_count() == size
        ]

    def top_simplex_count(self) -> int:
        """``len(top_simplices())`` straight off the facet bitsets."""
        size = self.dimension + 1
        return sum(1 for mask in self.complex.facet_masks if mask.bit_count() == size)


def paper_subdivision(k: int) -> SubdividedSimplex:
    """The paper's ``Div σ`` for ``σ = {0, 1, .., k}`` (Appendix B.1.2, Fig. 5).

    Construction (a variant of the barycentric subdivision, built inductively
    by dimension):

    * every original vertex is kept;
    * a face ``σ'`` is subdivided only if it contains the distinguished vertex
      ``k`` and has dimension ``>= 1``, with the exception of the edge
      ``{0, k}`` which is also left alone; subdividing introduces the new
      vertex ``v = σ'`` and forms the cone ``v * Div(Bd σ')``;
    * faces not containing ``k`` are left undivided.

    The resulting vertices are exactly the original vertices plus one vertex
    per subdivided face, and the carrier of the new vertex ``σ'`` is ``σ'``
    itself — which is what lets the proof map it to the state of a process
    ``j_y`` (``y = dim σ'``) that received messages from exactly the crashers
    indexed by ``σ'``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sigma = tuple(range(k + 1))

    def needs_division(face: FrozenSet[int]) -> bool:
        if len(face) < 2 or k not in face:
            return False
        if face == frozenset({0, k}):
            return False
        return True

    # div[face] = list of facets (each a frozenset of subdivision vertices)
    # of the subdivision of that face; subdivision vertices are frozensets.
    div: Dict[FrozenSet[int], List[Simplex]] = {}

    faces_by_dim: List[List[FrozenSet[int]]] = []
    for size in range(1, k + 2):
        faces_by_dim.append(
            [frozenset(c) for c in itertools.combinations(sigma, size)]
        )

    # Dimension 0.
    for face in faces_by_dim[0]:
        (v,) = tuple(face)
        div[face] = [frozenset({frozenset({v})})]

    # Higher dimensions.
    for dim in range(1, k + 1):
        for face in faces_by_dim[dim]:
            if not needs_division(face):
                div[face] = [frozenset(frozenset({v}) for v in face)]
                continue
            apex = frozenset(face)
            facets: List[Simplex] = []
            for boundary_face in (face - {v} for v in face):
                for boundary_facet in div[frozenset(boundary_face)]:
                    facets.append(frozenset(boundary_facet | {apex}))
            div[face] = facets

    return SubdividedSimplex(sigma, SimplicialComplex(div[frozenset(sigma)]))

