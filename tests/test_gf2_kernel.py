"""Property tests for the GF(2) rank kernel of `repro.topology.connectivity`.

:func:`~repro.topology.connectivity.rank_of_int_rows` sits under every Betti
number the homology kernel produces, so it is pinned two ways:
*algebraically* (rank is invariant under row permutation and row XOR,
bounded by min(rows, cols), additive on block-diagonal sums) and
*observationally* (it returns the ranks of :func:`repro.oracles.gf2_rank`,
an independent textbook row reduction, on the same random matrices).  Every
algebraic property runs on both.  All randomness is seeded.
"""

from __future__ import annotations

import random

import pytest

from repro import oracles
from repro.topology.connectivity import boundary_rank, rank_of_int_rows

#: The rank implementations under test: the production kernel and its oracle.
RANKS = {"kernel": rank_of_int_rows, "oracle": oracles.gf2_rank}


def random_int_rows(rng: random.Random, nrows: int, ncols: int) -> list:
    """Random rows with planted dependencies (so ranks are non-trivial)."""
    rows = [rng.getrandbits(ncols) for _ in range(nrows)]
    for _ in range(nrows // 2):
        target, source = rng.randrange(nrows), rng.randrange(nrows)
        if target != source:
            rows[target] ^= rows[source]
    if nrows >= 2 and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = 0
    return rows


class TestRankAlgebra:
    """The defining algebraic properties of matrix rank over GF(2)."""

    @pytest.mark.parametrize("rank", sorted(RANKS))
    def test_rank_bounded_by_shape(self, rank):
        rng = random.Random(101)
        for _ in range(50):
            nrows, ncols = rng.randint(0, 24), rng.randint(0, 90)
            rows = random_int_rows(rng, nrows, ncols) if nrows else []
            assert 0 <= RANKS[rank](rows) <= min(nrows, ncols)

    @pytest.mark.parametrize("rank", sorted(RANKS))
    def test_rank_invariant_under_row_permutation(self, rank):
        rng = random.Random(202)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 20), rng.randint(1, 90)
            rows = random_int_rows(rng, nrows, ncols)
            reference = RANKS[rank](rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert RANKS[rank](shuffled) == reference

    @pytest.mark.parametrize("rank", sorted(RANKS))
    def test_rank_invariant_under_row_xor(self, rank):
        """Adding one row into another is an elementary operation: rank-preserving."""
        rng = random.Random(303)
        for _ in range(40):
            nrows, ncols = rng.randint(2, 20), rng.randint(1, 90)
            rows = random_int_rows(rng, nrows, ncols)
            reference = RANKS[rank](rows)
            mutated = rows[:]
            for _ in range(5):
                target, source = rng.sample(range(nrows), 2)
                mutated[target] ^= mutated[source]
            assert RANKS[rank](mutated) == reference

    @pytest.mark.parametrize("rank", sorted(RANKS))
    def test_block_diagonal_rank_additivity(self, rank):
        """rank(A ⊕ B) = rank A + rank B for the block-diagonal sum."""
        rng = random.Random(404)
        for _ in range(30):
            ncols_a, ncols_b = rng.randint(1, 70), rng.randint(1, 70)
            rows_a = random_int_rows(rng, rng.randint(1, 12), ncols_a)
            rows_b = random_int_rows(rng, rng.randint(1, 12), ncols_b)
            combined = rows_a + [row << ncols_a for row in rows_b]
            assert RANKS[rank](combined) == RANKS[rank](rows_a) + RANKS[rank](rows_b)

    @pytest.mark.parametrize("rank", sorted(RANKS))
    def test_known_ranks(self, rank):
        rank_of = RANKS[rank]
        assert rank_of([1 << i for i in range(8)]) == 8
        assert rank_of([0] * 5) == 0
        assert rank_of([]) == 0
        assert rank_of([0b11, 0b10, 0b01]) == 2  # third row dependent
        # A word-boundary-straddling pivot (column 64 lives in the second word).
        assert rank_of([1 << 63 | 1 << 64, 1 << 64]) == 2

    def test_kernel_equals_oracle_on_random_matrices(self):
        rng = random.Random(707)
        for _ in range(60):
            nrows, ncols = rng.randint(0, 120), rng.randint(0, 260)
            rows = random_int_rows(rng, nrows, ncols) if nrows else []
            assert rank_of_int_rows(rows) == oracles.gf2_rank(rows)


class TestBoundaryHelpers:
    """The boundary assembler against hand-built boundary matrices."""

    def test_triangle_boundary(self):
        # Bd of the full triangle {0,1,2}: vertices {1,2,4}, edges {3,5,6}.
        vertices = [1, 2, 4]
        edges = [3, 5, 6]
        assert boundary_rank(vertices, edges) == 2
        # The same ∂₁ by hand: each edge's row marks its two vertex positions.
        assert oracles.gf2_rank([0b011, 0b101, 0b110]) == 2
        # The solid triangle's ∂₂: one face row, independent.
        assert boundary_rank(edges, [7]) == oracles.gf2_rank([0b111]) == 1

    def test_empty_bases(self):
        assert boundary_rank([], [7]) == 0
        assert boundary_rank([1, 2], []) == 0

    def test_shared_position_index(self):
        vertices = [1, 2, 4]
        edges = [3, 5, 6]
        index = {mask: position for position, mask in enumerate(vertices)}
        assert boundary_rank(vertices, edges, position_of=index) == (
            boundary_rank(vertices, edges)
        )
