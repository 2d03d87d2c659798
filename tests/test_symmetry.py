"""Unit tests for the symmetry subsystem: canonical forms, orbits, signatures.

The canonical-form contracts are pinned against brute force — every claim
(`orbit invariance`, certificate correctness, orbit sizes) is checked by
explicitly enumerating all ``n!`` renamings on small systems, so the
individualisation–refinement machinery cannot silently drift from the group
action it is supposed to quotient by.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.adversaries import (
    count_adversaries,
    enumerate_adversaries,
    enumerate_orbits,
)
from repro.model import Adversary, Context, CrashEvent, FailurePattern
from repro.oracles import adversary_orbit_size, automorphism_count, view_key_orbit_size
from repro.symmetry import (
    apply_to_adversary,
    apply_to_view_key,
    canonical_adversary,
    canonical_view_key,
    quotient_family,
    star_signature,
    validate_symmetry_choice,
)
from repro.topology import SimplicialComplex, build_restricted_complex, sphere_complex

CONTEXT = Context(n=4, t=2, k=1, max_value=1)
PERMS = list(itertools.permutations(range(4)))


@pytest.fixture(scope="module")
def family():
    return list(enumerate_adversaries(CONTEXT, max_crash_round=2, receiver_policy="canonical"))


@pytest.fixture(scope="module")
def sample(family):
    rng = random.Random(20160523)
    return rng.sample(family, 80)


class TestGroupAction:
    def test_identity_and_composition(self, sample):
        for adversary in sample[:10]:
            assert apply_to_adversary(adversary, (0, 1, 2, 3)) == adversary
        sigma, tau = (1, 2, 3, 0), (2, 0, 3, 1)
        composed = tuple(tau[sigma[i]] for i in range(4))
        for adversary in sample[:10]:
            assert apply_to_adversary(
                apply_to_adversary(adversary, sigma), tau
            ) == apply_to_adversary(adversary, composed)

    def test_action_preserves_context_membership(self, sample):
        for adversary in sample:
            for sigma in PERMS[:6]:
                assert CONTEXT.admits(apply_to_adversary(adversary, sigma))


class TestCanonicalAdversary:
    def test_constant_on_orbits(self, sample):
        for adversary in sample:
            canonical = canonical_adversary(adversary)
            for sigma in PERMS:
                renamed = canonical_adversary(apply_to_adversary(adversary, sigma))
                assert renamed.key == canonical.key
                assert renamed.representative == canonical.representative

    def test_certificate_maps_input_to_representative(self, sample):
        for adversary in sample:
            canonical = canonical_adversary(adversary)
            assert apply_to_adversary(adversary, canonical.permutation) == canonical.representative

    def test_representative_is_orbit_member(self, sample):
        for adversary in sample:
            representative = canonical_adversary(adversary).representative
            assert representative in {apply_to_adversary(adversary, s) for s in PERMS}

    def test_distinct_orbits_get_distinct_keys(self, family):
        rng = random.Random(7)
        for left, right in zip(rng.sample(family, 60), rng.sample(family, 60)):
            in_same_orbit = any(apply_to_adversary(left, s) == right for s in PERMS)
            keys_equal = canonical_adversary(left).key == canonical_adversary(right).key
            assert keys_equal == in_same_orbit

    def test_full_group_quotients_value_permutations(self, sample):
        for adversary in sample:
            canonical = canonical_adversary(adversary, group="full")
            swapped = adversary.with_values(tuple(1 - v for v in adversary.values))
            assert canonical_adversary(swapped, group="full").key == canonical.key
            for sigma in PERMS[:6]:
                renamed = apply_to_adversary(adversary, sigma)
                assert canonical_adversary(renamed, group="full").key == canonical.key

    def test_unknown_group_rejected(self, sample):
        with pytest.raises(ValueError, match="group"):
            canonical_adversary(sample[0], group="bogus")

    def test_validate_symmetry_choice(self):
        validate_symmetry_choice("none")
        validate_symmetry_choice("quotient")
        with pytest.raises(ValueError, match="symmetry"):
            validate_symmetry_choice("orbits")


class TestOrbitSizes:
    def test_orbit_size_matches_brute_force(self, sample):
        for adversary in sample:
            images = {apply_to_adversary(adversary, sigma) for sigma in PERMS}
            assert adversary_orbit_size(adversary) == len(images)

    def test_automorphism_count_matches_brute_force(self, sample):
        for adversary in sample:
            fixing = sum(1 for sigma in PERMS if apply_to_adversary(adversary, sigma) == adversary)
            assert automorphism_count(adversary) == fixing

    def test_entangled_receivers(self):
        # Two same-round crashers delivering to each other: the renaming must
        # co-permute both pairs (the backtracking kernel, not the twin fast
        # path).
        pattern = FailurePattern(
            4,
            [CrashEvent(0, 1, frozenset({1})), CrashEvent(1, 1, frozenset({0}))],
        )
        adversary = Adversary((0, 0, 0, 0), pattern)
        fixing = sum(1 for sigma in PERMS if apply_to_adversary(adversary, sigma) == adversary)
        assert automorphism_count(adversary) == fixing
        assert adversary_orbit_size(adversary) == math.factorial(4) // fixing


class TestQuotientFamily:
    def test_weights_partition_any_family(self, family):
        rng = random.Random(11)
        subset = rng.sample(family, 500)  # not closed under renaming
        representatives, weights, first_indices = quotient_family(subset)
        assert sum(weights) == len(subset)
        assert [subset[i] for i in first_indices] == representatives
        keys = [canonical_adversary(r).key for r in representatives]
        assert len(keys) == len(set(keys))

    def test_enumerate_orbits_partitions_the_space(self):
        for policy in ("none", "canonical", "all"):
            orbits = list(
                enumerate_orbits(CONTEXT, max_crash_round=2, receiver_policy=policy)
            )
            total = count_adversaries(CONTEXT, max_crash_round=2, receiver_policy=policy)
            assert sum(orbit.size for orbit in orbits) == total
            keys = [canonical_adversary(orbit.representative).key for orbit in orbits]
            assert len(keys) == len(set(keys))

    def test_enumerate_orbits_limit(self):
        assert len(list(enumerate_orbits(CONTEXT, max_crash_round=1, limit=5))) == 5
        assert list(enumerate_orbits(CONTEXT, max_crash_round=1, limit=0)) == []


class TestViewKeys:
    @pytest.fixture(scope="class")
    def vertices(self):
        pc = build_restricted_complex(Context(n=4, t=2, k=2), time=2, max_crashes_per_round=2)
        return list(pc.vertex_views)

    def test_canonical_view_key_constant_on_orbits(self, vertices):
        rng = random.Random(5)
        for vertex in rng.sample(vertices, 40):
            key = vertex[1]
            canonical = canonical_view_key(key)
            for sigma in PERMS:
                assert canonical_view_key(apply_to_view_key(key, sigma)) == canonical

    def test_canonical_view_key_separates_orbits(self, vertices):
        rng = random.Random(6)
        for left, right in zip(rng.sample(vertices, 40), rng.sample(vertices, 40)):
            same_orbit = any(apply_to_view_key(left[1], s) == right[1] for s in PERMS)
            assert (canonical_view_key(left[1]) == canonical_view_key(right[1])) == same_orbit

    def test_view_key_orbit_size_matches_brute_force(self, vertices):
        rng = random.Random(8)
        for vertex in rng.sample(vertices, 40):
            images = {apply_to_view_key(vertex[1], sigma) for sigma in PERMS}
            assert view_key_orbit_size(vertex[1]) == len(images)


class TestStarSignature:
    def test_invariant_under_relabelling(self):
        complex_ = SimplicialComplex([{0, 1, 2}, {1, 2, 3}, {3, 4}])
        relabelled = SimplicialComplex(
            [{"a", "b", "c"}, {"b", "c", "d"}, {"d", "e"}]
        )
        assert star_signature(complex_) == star_signature(relabelled)

    def test_separates_non_isomorphic_complexes(self):
        path = SimplicialComplex([{0, 1}, {1, 2}, {2, 3}])
        triangle_plus_edge = SimplicialComplex([{0, 1}, {1, 2}, {2, 0}, {2, 3}])
        assert star_signature(path) != star_signature(triangle_plus_edge)
        assert star_signature(sphere_complex(1)) != star_signature(sphere_complex(2))

    def test_regular_symmetric_complexes(self):
        # Spheres are vertex-transitive: refinement alone cannot discretise,
        # so this exercises the individualisation branch end to end.
        for dimension in (1, 2, 3):
            sphere = sphere_complex(dimension)
            shifted = SimplicialComplex(
                [{v + 10 for v in facet} for facet in sphere.facets]
            )
            assert star_signature(sphere) == star_signature(shifted)

    def test_vertex_colors_restrict_matches(self):
        complex_ = SimplicialComplex([{0, 1}, {1, 2}])
        same_shape = SimplicialComplex([{10, 11}, {11, 12}])
        assert star_signature(complex_) == star_signature(same_shape)
        # Colouring by vertex identity breaks the match.
        assert star_signature(complex_, vertex_color=lambda v: v) != star_signature(
            same_shape, vertex_color=lambda v: v
        )

    def test_empty_complex(self):
        assert star_signature(SimplicialComplex()) == ((), ())
