"""Unit tests for the paper's ``Div σ`` subdivision."""

import pytest

from repro.topology import paper_subdivision


def top_simplex_count(subdivision):
    return len(subdivision.top_simplices())


class TestCarrier:
    def test_carrier_is_the_face_itself(self):
        subdivision = paper_subdivision(2)
        vertex = frozenset({0, 1})
        assert subdivision.carrier(vertex) == frozenset({0, 1})

    def test_carrier_rejects_foreign_vertex(self):
        subdivision = paper_subdivision(2)
        with pytest.raises(ValueError):
            subdivision.carrier(frozenset({9}))

    def test_dimension(self):
        assert paper_subdivision(3).dimension == 3


class TestPaperSubdivision:
    def test_k1_is_the_plain_edge(self):
        subdivision = paper_subdivision(1)
        assert top_simplex_count(subdivision) == 1
        assert len(subdivision.vertices()) == 2

    def test_k2_matches_figure5(self):
        """Fig. 5 (center): 5 vertices, 4 triangles for σ = {0, 1, 2}."""
        subdivision = paper_subdivision(2)
        assert len(subdivision.vertices()) == 5
        assert top_simplex_count(subdivision) == 4

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_validity(self, k):
        """Pure of dimension ``k``, every vertex inside the base simplex."""
        subdivision = paper_subdivision(k)
        assert subdivision.complex.dimension == k
        assert top_simplex_count(subdivision) > 0
        assert all(len(facet) == k + 1 for facet in subdivision.complex.facets)
        base = frozenset(subdivision.base_vertices)
        assert all(vertex <= base for vertex in subdivision.vertices())

    @pytest.mark.parametrize("k", [2, 3])
    def test_only_faces_containing_k_get_new_vertices(self, k):
        subdivision = paper_subdivision(k)
        for vertex in subdivision.vertices():
            if len(vertex) >= 2:
                # New vertices correspond to subdivided faces, which always
                # contain the distinguished vertex k and are not {0, k}.
                assert k in vertex
                assert vertex != frozenset({0, k})

    def test_original_vertices_are_kept(self):
        subdivision = paper_subdivision(3)
        for v in range(4):
            assert frozenset({v}) in subdivision.vertices()

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            paper_subdivision(0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_growth_with_k(self, k):
        assert top_simplex_count(paper_subdivision(k)) > top_simplex_count(paper_subdivision(k - 1))
