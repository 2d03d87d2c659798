"""Unit tests for abstract simplicial complexes."""

import random

import pytest

from repro.topology import (
    SimplicialComplex,
    VertexPool,
    boundary_of_simplex,
    full_simplex,
    simplex,
    sphere_complex,
)
from repro.topology.complexes import _maximal_masks


class TestConstruction:
    def test_facets_are_maximal(self):
        complex_ = SimplicialComplex([{1, 2, 3}, {1, 2}, {4}])
        assert set(complex_.facets) == {frozenset({1, 2, 3}), frozenset({4})}

    def test_vertices(self):
        complex_ = SimplicialComplex([{1, 2}, {3}])
        assert complex_.vertices == frozenset({1, 2, 3})

    def test_empty_complex(self):
        complex_ = SimplicialComplex()
        assert complex_.is_empty()
        assert complex_.dimension == -1

    def test_dimension_and_purity(self):
        assert full_simplex(range(4)).dimension == 3
        assert full_simplex(range(4)).is_pure()
        assert not SimplicialComplex([{1, 2, 3}, {4, 5}]).is_pure()

    def test_equality_and_hash(self):
        a = SimplicialComplex([{1, 2}, {2, 3}])
        b = SimplicialComplex([{2, 3}, {1, 2}])
        assert a == b
        assert hash(a) == hash(b)

    def test_simplex_helper(self):
        assert simplex(1, 2, 3) == frozenset({1, 2, 3})


class TestQueries:
    def test_contains(self):
        complex_ = SimplicialComplex([{1, 2, 3}])
        assert {1, 2} in complex_
        assert {1, 2, 3} in complex_
        assert {1, 4} not in complex_
        assert complex_.contains([])

    def test_simplices_by_dimension(self):
        complex_ = full_simplex(range(3))
        assert len(complex_.simplices(0)) == 3
        assert len(complex_.simplices(1)) == 3
        assert len(complex_.simplices(2)) == 1
        assert len(complex_.simplices()) == 7

    def test_facet_count_by_dimension(self):
        complex_ = SimplicialComplex([{1, 2, 3}, {4, 5}])
        assert complex_.facet_count_by_dimension() == {2: 1, 1: 1}


class TestOperations:
    def test_star_contains_all_facets_with_vertex(self):
        complex_ = SimplicialComplex([{1, 2, 3}, {3, 4}, {5, 6}])
        star = complex_.star(3)
        assert set(star.facets) == {frozenset({1, 2, 3}), frozenset({3, 4})}

    def test_star_of_missing_vertex_is_empty(self):
        complex_ = SimplicialComplex([{1, 2}])
        assert complex_.star(9).is_empty()

    def test_link(self):
        complex_ = SimplicialComplex([{1, 2, 3}, {3, 4}])
        link = complex_.link(3)
        assert set(link.facets) == {frozenset({1, 2}), frozenset({4})}

    def test_induced_subcomplex(self):
        complex_ = SimplicialComplex([{1, 2, 3}, {3, 4}])
        induced = complex_.induced({1, 2, 4})
        assert set(induced.facets) == {frozenset({1, 2}), frozenset({4})}

    def test_skeleton(self):
        skeleton = full_simplex(range(4)).skeleton(1)
        assert skeleton.dimension == 1
        assert len(skeleton.simplices(1)) == 6

    def test_skeleton_negative_dimension_is_empty(self):
        assert full_simplex(range(3)).skeleton(-1).is_empty()

    def test_join_of_disjoint_complexes(self):
        left = SimplicialComplex([{1}, {2}])
        right = SimplicialComplex([{"a"}])
        joined = left.join(right)
        assert frozenset({1, "a"}) in joined.facets
        assert frozenset({2, "a"}) in joined.facets

    def test_join_rejects_overlapping_vertices(self):
        with pytest.raises(ValueError):
            SimplicialComplex([{1}]).join(SimplicialComplex([{1, 2}]))

    def test_join_with_empty_complex(self):
        left = SimplicialComplex([{1, 2}])
        assert left.join(SimplicialComplex()) == left

    def test_boundary_complex(self):
        boundary = full_simplex(range(3)).boundary_complex()
        assert boundary.dimension == 1
        assert len(boundary.facets) == 3

    def test_boundary_of_simplex_helper(self):
        assert boundary_of_simplex(range(3)) == full_simplex(range(3)).boundary_complex()

    def test_sphere_complex_shape(self):
        sphere = sphere_complex(2)
        assert sphere.dimension == 2
        assert len(sphere.facets) == 4
        assert sphere.is_pure()


class TestBitsetKernel:
    def test_pool_interns_each_vertex_once(self):
        pool = VertexPool()
        assert pool.intern("x") == pool.intern("x") == 0
        assert pool.intern("y") == 1
        assert len(pool) == 2
        assert pool.id_of("z") is None
        assert pool.vertex_at(1) == "y"

    def test_complex_shares_explicit_pool(self):
        pool = VertexPool()
        a = SimplicialComplex([{1, 2}, {2, 3}], pool=pool)
        b = SimplicialComplex([{2, 3}, {3, 4}], pool=pool)
        assert a.pool is b.pool
        # The shared id space makes equal facets equal masks.
        assert set(a.facet_masks) & set(b.facet_masks)

    def test_subcomplexes_share_the_parent_pool(self):
        complex_ = SimplicialComplex([{1, 2, 3}, {3, 4}, {5}])
        for derived in (
            complex_.star(3),
            complex_.link(3),
            complex_.induced({1, 2}),
            complex_.skeleton(1),
            complex_.boundary_complex(),
        ):
            assert derived.pool is complex_.pool

    def test_facet_masks_match_facets(self):
        complex_ = SimplicialComplex([{1, 2, 3}, {3, 4}])
        unmasked = {complex_.pool.unmask(mask) for mask in complex_.facet_masks}
        assert unmasked == set(complex_.facets)
        assert complex_.vertex_count == 4
        assert complex_.pool.unmask(complex_.vertex_mask) == complex_.vertices

    def test_equality_across_pools(self):
        a = SimplicialComplex([{1, 2}, {2, 3}])
        b = SimplicialComplex([{2, 3}, {1, 2}], pool=VertexPool())
        assert a.pool is not b.pool
        assert a == b
        assert hash(a) == hash(b)

    def test_contains_vertex_known_to_pool_but_not_complex(self):
        pool = VertexPool()
        pool.intern("foreign")
        complex_ = SimplicialComplex([{1, 2}], pool=pool)
        assert {"foreign"} not in complex_
        assert {1, "foreign"} not in complex_
        assert {1, 2} in complex_

    def test_maximality_filter_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(30):
            candidates = [
                frozenset(rng.sample(range(8), rng.randint(1, 5))) for _ in range(12)
            ]
            expected = {
                s
                for s in candidates
                if not any(s < other for other in candidates)
            }
            assert set(SimplicialComplex(candidates).facets) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_maximal_masks_is_the_all_pairs_filter_in_order(self, seed):
        """The star-indexed filter, which indexes a popcount's facets only once
        the popcount drops, keeps exactly the masks no other mask strictly
        contains, in (descending popcount, mask value) order.  The families
        mix equal-popcount masks with chains nested several levels deep."""
        rng = random.Random(seed)
        width = rng.randint(3, 12)
        masks = set()
        for _ in range(rng.randint(1, 40)):
            mask = rng.getrandbits(width) or 1
            masks.add(mask)
            # A chain below it: drop one set bit at a time.
            for _ in range(rng.randint(0, 3)):
                bits = [1 << b for b in range(width) if mask >> b & 1]
                if len(bits) < 2:
                    break
                mask &= ~rng.choice(bits)
                masks.add(mask)
            # Same-popcount siblings: move one bit.
            for _ in range(rng.randint(0, 2)):
                ones = [b for b in range(width) if mask >> b & 1]
                zeros = [b for b in range(width) if not mask >> b & 1]
                if ones and zeros:
                    masks.add(mask & ~(1 << rng.choice(ones)) | 1 << rng.choice(zeros))
        expected = sorted(
            (m for m in masks if not any(m != o and m & o == m for o in masks)),
            key=lambda m: (-m.bit_count(), m),
        )
        assert _maximal_masks(list(masks)) == expected
        assert _maximal_masks(sorted(masks, reverse=True)) == expected

    def test_nested_chain_collapses_to_top(self):
        chain = [frozenset(range(size)) for size in range(1, 7)]
        complex_ = SimplicialComplex(chain)
        assert complex_.facets == (frozenset(range(6)),)

    def test_from_masks_general_path_filters(self):
        pool = VertexPool()
        masks = [pool.mask(s) for s in ({1, 2, 3}, {1, 2}, {4}, {4})]
        complex_ = SimplicialComplex.from_masks(pool, masks)
        assert set(complex_.facets) == {frozenset({1, 2, 3}), frozenset({4})}

    def test_join_across_pools(self):
        left = SimplicialComplex([{1}, {2}])
        right = SimplicialComplex([{"a"}], pool=VertexPool())
        joined = left.join(right)
        assert set(joined.facets) == {frozenset({1, "a"}), frozenset({2, "a"})}

    def test_operations_agree_with_definitions_on_random_complexes(self):
        """star/link/induced/skeleton cross-checked against their set-level
        definitions (computed by brute force over the simplices)."""
        rng = random.Random(13)
        for _ in range(10):
            complex_ = SimplicialComplex(
                frozenset(rng.sample(range(7), rng.randint(1, 4))) for _ in range(8)
            )
            simplices = complex_.simplices()
            vertex = rng.randrange(7)
            assert complex_.star(vertex).simplices() == {
                s
                for s in simplices
                if any(vertex in other and s <= other for other in simplices)
            }
            assert complex_.link(vertex).simplices() == {
                s - {vertex}
                for s in simplices
                if vertex in s and s != {vertex}
            }
            keep = set(rng.sample(range(7), 4))
            assert complex_.induced(keep).simplices() == {
                s for s in simplices if s <= keep
            }
            assert complex_.skeleton(1).simplices() == {
                s for s in simplices if len(s) <= 2
            }
