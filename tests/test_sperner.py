"""Unit tests for Sperner colorings and Sperner's lemma."""

import pytest

from repro.topology import (
    census,
    first_vertex_coloring,
    fully_colored_simplices,
    is_sperner_coloring,
    paper_subdivision,
    random_sperner_coloring,
    sperner_lemma_holds,
)


class TestColoringValidity:
    def test_first_vertex_coloring_is_sperner(self):
        for k in (1, 2, 3):
            subdivision = paper_subdivision(k)
            assert is_sperner_coloring(subdivision, first_vertex_coloring(subdivision))

    def test_random_colorings_are_sperner(self):
        subdivision = paper_subdivision(3)
        for seed in range(5):
            assert is_sperner_coloring(subdivision, random_sperner_coloring(subdivision, seed))

    def test_non_sperner_coloring_detected(self):
        subdivision = paper_subdivision(2)
        coloring = first_vertex_coloring(subdivision)
        coloring[frozenset({0})] = 2  # color outside the carrier {0}
        assert not is_sperner_coloring(subdivision, coloring)

    def test_partial_coloring_detected(self):
        subdivision = paper_subdivision(2)
        coloring = first_vertex_coloring(subdivision)
        coloring.pop(frozenset({0}))
        assert not is_sperner_coloring(subdivision, coloring)


class TestSpernersLemma:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_parity_on_paper_subdivision(self, k):
        subdivision = paper_subdivision(k)
        for seed in range(4):
            coloring = random_sperner_coloring(subdivision, seed)
            assert sperner_lemma_holds(subdivision, coloring)

    def test_at_least_one_fully_colored_simplex(self):
        subdivision = paper_subdivision(3)
        coloring = random_sperner_coloring(subdivision, seed=7)
        assert len(fully_colored_simplices(subdivision, coloring)) >= 1

    def test_lemma_check_requires_sperner_coloring(self):
        subdivision = paper_subdivision(2)
        coloring = first_vertex_coloring(subdivision)
        coloring[frozenset({1})] = 0
        with pytest.raises(ValueError):
            sperner_lemma_holds(subdivision, coloring)


class TestDecisionColoring:
    def test_coloring_from_decisions_uses_oracle(self):
        subdivision = paper_subdivision(2)
        coloring = {vertex: min(vertex) for vertex in subdivision.vertices()}
        assert is_sperner_coloring(subdivision, coloring)
        assert sperner_lemma_holds(subdivision, coloring)

    def test_census_fields(self):
        subdivision = paper_subdivision(3)
        summary = census(subdivision, first_vertex_coloring(subdivision))
        assert summary["vertices"] == len(subdivision.vertices())
        assert summary["top_simplices"] == len(subdivision.top_simplices())
        assert summary["parity_odd"] == 1
        assert summary["fully_colored"] >= 1
