"""Combinatorial-topology substrate: complexes, subdivisions, Sperner, protocol complexes.

The machinery behind the paper's topological unbeatability proof (Appendix
B.1) and Proposition 2's connectivity statement: bitset simplicial complexes
and their stars and joins (:mod:`.complexes`), the star homology kernel and
its cache (:mod:`.connectivity`), the paper's ``Div σ`` subdivision and
Sperner colorings of it (:mod:`.subdivision`, :mod:`.sperner`), and the
protocol complexes of Proposition 2 with their capacity census
(:mod:`.protocol_complex`).

The known-answer and dense references the homology kernel is pinned to
(the Euler characteristic, the full face lattice, the big-int and dense
Betti streams) are test fixtures in :mod:`repro.oracles`.
"""

from .complexes import (
    SimplicialComplex,
    VertexPool,
    boundary_of_simplex,
    full_simplex,
    sphere_complex,
)
from .connectivity import (
    ConnectivityCache,
    connectivity_profile,
    reduced_betti_numbers,
)
from .protocol_complex import (
    CapacityCensus,
    ProtocolComplex,
    build_protocol_complex,
    build_restricted_complex,
    capacity_connectivity_census,
    census_classes,
    per_round_crash_patterns,
    vertex_capacity,
)
from .sperner import (
    census,
    first_vertex_coloring,
    fully_colored_simplices,
    is_sperner_coloring,
    random_sperner_coloring,
    sperner_lemma_holds,
)
from .subdivision import (
    SubdividedSimplex,
    paper_subdivision,
)

__all__ = [
    "CapacityCensus",
    "ConnectivityCache",
    "ProtocolComplex",
    "SimplicialComplex",
    "SubdividedSimplex",
    "VertexPool",
    "boundary_of_simplex",
    "build_protocol_complex",
    "build_restricted_complex",
    "capacity_connectivity_census",
    "census_classes",
    "census",
    "connectivity_profile",
    "first_vertex_coloring",
    "full_simplex",
    "fully_colored_simplices",
    "is_sperner_coloring",
    "paper_subdivision",
    "per_round_crash_patterns",
    "random_sperner_coloring",
    "reduced_betti_numbers",
    "sperner_lemma_holds",
    "vertex_capacity",
    "sphere_complex",
]
