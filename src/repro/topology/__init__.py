"""Combinatorial-topology substrate: complexes, subdivisions, Sperner, protocol complexes.

The machinery behind the paper's topological unbeatability proof (Appendix
B.1) and Proposition 2's connectivity statement.
"""

from .complexes import (
    SimplicialComplex,
    VertexPool,
    boundary_of_simplex,
    full_simplex,
    klein_bottle_complex,
    projective_plane_complex,
    simplex,
    sphere_complex,
)
from .connectivity import (
    ConnectivityCache,
    connectivity_profile,
    euler_characteristic,
    is_homologically_q_connected,
    reduced_betti_numbers,
    simplices_by_dimension,
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
    coloring_from_decisions,
    first_vertex_coloring,
    fully_colored_simplices,
    is_sperner_coloring,
    random_sperner_coloring,
    sperner_lemma_holds,
)
from .subdivision import (
    SubdividedSimplex,
    barycentric_subdivision,
    count_top_simplices,
    paper_subdivision,
)

__all__ = [
    "CapacityCensus",
    "ConnectivityCache",
    "ProtocolComplex",
    "SimplicialComplex",
    "SubdividedSimplex",
    "VertexPool",
    "barycentric_subdivision",
    "boundary_of_simplex",
    "build_protocol_complex",
    "build_restricted_complex",
    "capacity_connectivity_census",
    "census_classes",
    "census",
    "coloring_from_decisions",
    "connectivity_profile",
    "count_top_simplices",
    "euler_characteristic",
    "first_vertex_coloring",
    "full_simplex",
    "fully_colored_simplices",
    "is_homologically_q_connected",
    "is_sperner_coloring",
    "klein_bottle_complex",
    "paper_subdivision",
    "per_round_crash_patterns",
    "projective_plane_complex",
    "random_sperner_coloring",
    "reduced_betti_numbers",
    "simplex",
    "simplices_by_dimension",
    "sperner_lemma_holds",
    "vertex_capacity",
    "sphere_complex",
]
