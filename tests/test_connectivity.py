"""Unit tests for GF(2) homology and the connectivity proxy."""

import random

import pytest
from known_complexes import klein_bottle_complex, projective_plane_complex

from repro import oracles
from repro.oracles import (
    dense_connectivity_profile,
    dense_reduced_betti_numbers,
    euler_characteristic,
)
from repro.topology import (
    SimplicialComplex,
    boundary_of_simplex,
    connectivity_profile,
    full_simplex,
    reduced_betti_numbers,
    sphere_complex,
)

#: ``(reduced_betti_numbers, connectivity_profile)`` of the kernel and its oracles.
HOMOLOGY = {"packed": (reduced_betti_numbers, connectivity_profile), **oracles.HOMOLOGY_ORACLES}


def random_complex(rng: random.Random, vertices: int = 7, facets: int = 8) -> SimplicialComplex:
    """A random small complex (shared by the property tests below)."""
    pool = range(vertices)
    return SimplicialComplex(
        rng.sample(pool, rng.randint(1, min(4, vertices))) for _ in range(facets)
    )


class TestBettiNumbers:
    def test_point_is_contractible(self):
        point = SimplicialComplex([{0}])
        assert reduced_betti_numbers(point) == [0]

    def test_full_simplex_is_contractible(self):
        assert reduced_betti_numbers(full_simplex(range(5))) == [0] * 5

    def test_two_points_have_betti0_one(self):
        two = SimplicialComplex([{0}, {1}])
        assert reduced_betti_numbers(two) == [1]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_spheres(self, dim):
        """Golden: the d-sphere has b̃ = (0, .., 0, 1) for every d up to 4."""
        betti = reduced_betti_numbers(sphere_complex(dim))
        assert betti == [0] * dim + [1]

    @pytest.mark.parametrize("size", [3, 4, 5, 6])
    def test_boundary_complexes(self, size):
        """Golden: Bd σ of a (size-1)-simplex is a (size-2)-sphere."""
        boundary = boundary_of_simplex(range(size))
        assert reduced_betti_numbers(boundary) == [0] * (size - 2) + [1]

    def test_disjoint_unions(self):
        """Golden: a disjoint union adds one to b̃_0 per extra component and
        sums the higher Betti numbers componentwise."""
        two_spheres = SimplicialComplex(
            list(sphere_complex(1).facets) + [{"a", "b"}, {"b", "c"}, {"c", "a"}]
        )
        assert reduced_betti_numbers(two_spheres) == [1, 2]
        sphere_and_simplex = SimplicialComplex(
            list(sphere_complex(2).facets) + [frozenset({"x", "y", "z"})]
        )
        assert reduced_betti_numbers(sphere_and_simplex) == [1, 0, 1]
        point_cloud = SimplicialComplex([{i} for i in range(5)])
        assert reduced_betti_numbers(point_cloud) == [4]

    def test_circle(self):
        circle = SimplicialComplex([{0, 1}, {1, 2}, {2, 0}])
        assert reduced_betti_numbers(circle) == [0, 1]

    def test_wedge_of_two_circles(self):
        wedge = SimplicialComplex([{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}])
        assert reduced_betti_numbers(wedge) == [0, 2]

    def test_empty_complex_has_no_betti_numbers(self):
        assert reduced_betti_numbers(SimplicialComplex()) == []

    def test_max_dimension_truncates(self):
        sphere = sphere_complex(3)
        assert reduced_betti_numbers(sphere, max_dimension=1) == [0, 0]


class TestGF2SensitiveSpaces:
    """Golden spaces whose GF(2) Betti numbers differ from the rational ones.

    RP² and the Klein bottle have 2-torsion in integral homology, so over
    GF(2) they grow Betti numbers a kernel silently computing over Q (or Z)
    would miss — run on the kernel and both oracles, together with the
    degenerate edge cases, to pin field and convention at once.
    """

    @pytest.mark.parametrize("backend", list(HOMOLOGY))
    def test_projective_plane(self, backend):
        betti, profile = HOMOLOGY[backend]
        rp2 = projective_plane_complex()
        # Minimal triangulation: K₆ 1-skeleton, 10 triangles, χ = 1.
        assert rp2.vertex_count == 6
        assert len(rp2.facet_masks) == 10
        assert euler_characteristic(rp2) == 1
        assert betti(rp2) == [0, 1, 1]
        assert profile(rp2) == 0

    @pytest.mark.parametrize("backend", list(HOMOLOGY))
    def test_klein_bottle(self, backend):
        betti, profile = HOMOLOGY[backend]
        klein = klein_bottle_complex()
        assert klein.vertex_count == 16
        assert len(klein.facet_masks) == 32
        assert euler_characteristic(klein) == 0
        assert betti(klein) == [0, 2, 1]
        assert profile(klein) == 0

    @pytest.mark.parametrize("backend", list(HOMOLOGY))
    def test_degenerate_edge_cases(self, backend):
        betti, profile = HOMOLOGY[backend]
        empty = SimplicialComplex()
        assert betti(empty) == []
        assert profile(empty) == -2
        point = SimplicialComplex([{0}])
        assert betti(point) == [0]
        assert profile(point) == 0
        assert profile(point, max_q=3) == 3
        single_facet = SimplicialComplex([{0, 1, 2}])
        assert betti(single_facet) == [0, 0, 0]
        assert profile(single_facet) == 2
        two_points = SimplicialComplex([{0}, {1}])
        assert betti(two_points) == [1]
        assert profile(two_points) == -1

    def test_unknown_backend_rejected(self):
        """One kernel: the retired ``backend`` keyword is not accepted at all."""
        with pytest.raises(TypeError):
            reduced_betti_numbers(sphere_complex(1), backend="sparse")
        with pytest.raises(TypeError):
            connectivity_profile(sphere_complex(1), backend="")


class TestEulerCharacteristic:
    def test_sphere_euler(self):
        assert euler_characteristic(sphere_complex(2)) == 2
        assert euler_characteristic(sphere_complex(1)) == 0

    def test_contractible_euler(self):
        assert euler_characteristic(full_simplex(range(4))) == 1

    def test_euler_matches_betti_alternating_sum(self):
        # χ = 1 + Σ (-1)^q b̃_q for a non-empty complex (reduced homology).
        for complex_ in (sphere_complex(2), full_simplex(range(4)),
                         SimplicialComplex([{0, 1}, {1, 2}, {2, 0}])):
            betti = reduced_betti_numbers(complex_)
            alternating = sum(((-1) ** q) * b for q, b in enumerate(betti))
            assert euler_characteristic(complex_) == 1 + alternating

    def test_euler_matches_betti_on_random_complexes(self):
        """Property: χ = 1 + Σ (-1)^q b̃_q on a seeded ensemble of random complexes."""
        rng = random.Random(20160725)
        for _ in range(40):
            complex_ = random_complex(rng)
            betti = reduced_betti_numbers(complex_)
            alternating = sum(((-1) ** q) * b for q, b in enumerate(betti))
            assert euler_characteristic(complex_) == 1 + alternating


class TestConnectivityProxy:
    def test_empty_complex_is_not_connected(self):
        assert not connectivity_profile(SimplicialComplex(), max_q=0) >= 0
        assert connectivity_profile(SimplicialComplex()) == -2

    def test_disconnected_complex(self):
        two = SimplicialComplex([{0}, {1}])
        assert not connectivity_profile(two, max_q=0) >= 0
        assert connectivity_profile(two) == -1

    def test_nonempty_complex_is_minus1_connected(self):
        assert connectivity_profile(SimplicialComplex([{0}]), max_q=-1) >= -1

    def test_sphere_connectivity(self):
        # The d-sphere is (d-1)-connected but not d-connected.
        for d in (1, 2, 3):
            sphere = sphere_complex(d)
            assert connectivity_profile(sphere, max_q=d - 1) >= d - 1
            assert not connectivity_profile(sphere, max_q=d) >= d
            assert connectivity_profile(sphere) == d - 1

    def test_full_simplex_connectivity_profile(self):
        simplex = full_simplex(range(4))
        assert connectivity_profile(simplex) == simplex.dimension

    def test_star_is_always_connected(self):
        complex_ = SimplicialComplex([{0, 1, 2}, {2, 3}, {3, 4}])
        star = complex_.star(2)
        assert connectivity_profile(star, max_q=0) >= 0



class TestDenseOracle:
    """The seed algorithm (:mod:`repro.oracles`) agrees with the kernel everywhere."""

    def assert_agree(self, complex_):
        assert dense_reduced_betti_numbers(complex_) == reduced_betti_numbers(complex_)
        assert dense_connectivity_profile(complex_) == connectivity_profile(complex_)
        for q in range(-1, complex_.dimension + 2):
            assert dense_connectivity_profile(complex_, max_q=q) == connectivity_profile(
                complex_, max_q=q
            )

    def test_agreement_on_named_complexes(self):
        for complex_ in (
            SimplicialComplex(),
            SimplicialComplex([{0}]),
            SimplicialComplex([{0}, {1}]),
            sphere_complex(1),
            sphere_complex(2),
            sphere_complex(3),
            full_simplex(range(5)),
            SimplicialComplex([{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}]),
        ):
            self.assert_agree(complex_)

    def test_agreement_on_random_complexes(self):
        rng = random.Random(42)
        for _ in range(25):
            self.assert_agree(random_complex(rng))

    def test_ordering_survives_repr_collisions(self):
        """Two distinct vertices with an identical repr used to collide in the
        repr-keyed sort ordering; the kernel orders by interned vertex id."""

        class Opaque:
            __slots__ = ("tag",)

            def __init__(self, tag):
                self.tag = tag

            def __repr__(self):
                return "<opaque>"

        a, b, c = Opaque("a"), Opaque("b"), Opaque("c")
        path = SimplicialComplex([{a, b}, {b, c}])
        cycle = SimplicialComplex([{a, b}, {b, c}, {c, a}])
        assert len(oracles.simplices(path, 0)) == 3 and len(oracles.simplices(path, 1)) == 2
        assert reduced_betti_numbers(path) == [0, 0]
        assert reduced_betti_numbers(cycle) == [0, 1]
        for complex_ in (path, cycle):
            self.assert_agree(complex_)

    def test_agreement_with_truncation(self):
        sphere = sphere_complex(3)
        for q in range(4):
            assert dense_reduced_betti_numbers(sphere, max_dimension=q) == (
                reduced_betti_numbers(sphere, max_dimension=q)
            )
