"""Known-answer complexes for the homology tests: GF(2)-sensitive closed surfaces."""

from repro.topology import SimplicialComplex


def projective_plane_complex() -> SimplicialComplex:
    """The minimal 6-vertex triangulation of the real projective plane RP².

    The antipodal quotient of the icosahedron boundary: 6 vertices, 15 edges
    (the complete graph K₆), 10 triangles, every edge in exactly two
    triangles, χ = 1.  Its GF(2) reduced Betti numbers are ``[0, 1, 1]`` —
    over the rationals ``b̃₁ = b̃₂ = 0``, so this is the canonical space that
    catches a homology kernel silently computing over the wrong field.
    """
    return SimplicialComplex(
        [
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
        ]
    )


def klein_bottle_complex() -> SimplicialComplex:
    """A 16-vertex triangulation of the Klein bottle.

    A 4×4 triangulated grid glued as a torus in one direction and with a
    flip in the other: 16 vertices, 48 edges, 32 triangles, χ = 0.  GF(2)
    reduced Betti numbers ``[0, 2, 1]`` (integrally ``H₁ = Z ⊕ Z/2``, so the
    2-torsion doubles ``b̃₁`` and creates ``b̃₂ = 1`` over GF(2)) — the
    second standard field-sensitivity probe next to RP².
    """
    return SimplicialComplex(
        [
            (0, 1, 5), (0, 1, 15), (0, 3, 4), (0, 3, 12), (0, 4, 5), (0, 12, 15),
            (1, 2, 6), (1, 2, 14), (1, 5, 6), (1, 14, 15), (2, 3, 7), (2, 3, 13),
            (2, 6, 7), (2, 13, 14), (3, 4, 7), (3, 12, 13), (4, 5, 9), (4, 7, 8),
            (4, 8, 9), (5, 6, 10), (5, 9, 10), (6, 7, 11), (6, 10, 11), (7, 8, 11),
            (8, 9, 13), (8, 11, 12), (8, 12, 13), (9, 10, 14), (9, 13, 14),
            (10, 11, 15), (10, 14, 15), (11, 12, 15),
        ]
    )
