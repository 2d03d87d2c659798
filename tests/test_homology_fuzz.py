"""Randomized differential battery for the homology kernel and its oracles.

The production kernel (``packed``: cone and union-find shortcuts, then
dict-pivot elimination of integer rows) and the :mod:`repro.oracles`
homology — the shortcut-free ``bigint`` stream and the ``dense`` seed
algorithm — must be *observationally identical*: same
reduced Betti numbers, same connectivity profiles at every truncation, and
an Euler characteristic consistent with the alternating Betti sum — on
every complex we can throw at them.  The corpus mixes three seeded
generators:

* random facet sets over small vertex ranges;
* constructed spaces — joins, cones and disjoint unions of spheres and
  simplex boundaries (including the GF(2)-sensitive RP² and Klein bottle);
* star complexes of random vertices of real ``n <= 5`` protocol complexes
  (the Proposition 2 workload: always cones, exercising the kernel's apex
  shortcut against the oracles).

A fast slice runs in tier-1; the extended slice (more trials, bigger
complexes, deeper protocol complexes) is marked ``slow`` and runs with
``-m slow``.
"""

from __future__ import annotations

import random

import pytest

from repro import oracles
from repro.model import Context
from repro.topology import (
    SimplicialComplex,
    boundary_of_simplex,
    build_restricted_complex,
    connectivity_profile,
    euler_characteristic,
    klein_bottle_complex,
    projective_plane_complex,
    reduced_betti_numbers,
    sphere_complex,
)

#: ``(reduced_betti_numbers, connectivity_profile)`` of the kernel and its oracles.
HOMOLOGY = {"packed": (reduced_betti_numbers, connectivity_profile), **oracles.HOMOLOGY_ORACLES}


def assert_backends_agree(complex_: SimplicialComplex, label: str = "") -> None:
    """The battery's core oracle: kernel and oracles, all truncations, plus Euler."""
    betti_by_backend = {backend: betti(complex_) for backend, (betti, _) in HOMOLOGY.items()}
    reference = betti_by_backend["dense"]
    for backend, betti in betti_by_backend.items():
        assert betti == reference, (label, backend, betti, reference)
    probes = [None] + sorted({0, 1, complex_.dimension, complex_.dimension + 2})
    for max_q in probes:
        profiles = {
            backend: profile(complex_, max_q=max_q) for backend, (_, profile) in HOMOLOGY.items()
        }
        assert len(set(profiles.values())) == 1, (label, max_q, profiles)
    # Euler consistency: χ = 1 + Σ (-1)^q b̃_q (reduced homology) for any
    # non-empty complex; the empty complex has χ = 0 and no Betti numbers.
    chi = euler_characteristic(complex_)
    if complex_.is_empty():
        assert reference == [] and chi == 0, (label, reference, chi)
    else:
        alternating = sum(((-1) ** q) * b for q, b in enumerate(reference))
        assert chi == 1 + alternating, (label, chi, reference)
    for max_dimension in (0, 1, complex_.dimension):
        truncated = {
            backend: betti(complex_, max_dimension=max_dimension)
            for backend, (betti, _) in HOMOLOGY.items()
        }
        assert len({tuple(b) for b in truncated.values()}) == 1, (
            label,
            max_dimension,
            truncated,
        )


def random_facet_complex(rng: random.Random, vertices: int, facets: int) -> SimplicialComplex:
    pool = range(vertices)
    return SimplicialComplex(
        rng.sample(pool, rng.randint(1, min(5, vertices)))
        for _ in range(rng.randint(1, facets))
    )


def relabel(complex_: SimplicialComplex, tag: str) -> SimplicialComplex:
    """A vertex-disjoint copy (labels wrapped with ``tag``) for joins/unions."""
    return SimplicialComplex(
        [{(tag, vertex) for vertex in facet} for facet in complex_.facets]
    )


def constructed_spaces(rng: random.Random, trials: int):
    """Joins, cones and disjoint unions over a pool of known building blocks."""
    blocks = [
        sphere_complex(1),
        sphere_complex(2),
        boundary_of_simplex(range(3)),
        boundary_of_simplex(range(5)),
        SimplicialComplex([{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}]),
        projective_plane_complex(),
        klein_bottle_complex(),
    ]
    point = SimplicialComplex([{"apex"}])
    for trial in range(trials):
        left = relabel(rng.choice(blocks), "L")
        kind = rng.randrange(3)
        if kind == 0:  # join (of low-dimensional blocks, to bound the blow-up)
            small = [b for b in blocks if b.dimension <= 1]
            right = relabel(rng.choice(small), "R")
            yield f"join[{trial}]", relabel(rng.choice(small), "L").join(right)
        elif kind == 1:  # cone: contractible whatever the base
            yield f"cone[{trial}]", left.join(point)
        else:  # disjoint union
            right = relabel(rng.choice(blocks), "R")
            yield f"union[{trial}]", SimplicialComplex(
                list(left.facets) + list(right.facets)
            )


def protocol_star_corpus(rng: random.Random, configs, stars_per_complex: int):
    """Star complexes of random vertices of real small protocol complexes."""
    for n, t, k, time in configs:
        pc = build_restricted_complex(Context(n=n, t=t, k=k), time=time)
        vertices = sorted(pc.vertex_views, key=repr)
        chosen = rng.sample(vertices, min(stars_per_complex, len(vertices)))
        for index, vertex in enumerate(chosen):
            yield f"star[n={n},t={t},m={time}][{index}]", pc.complex.star(vertex)


class TestFuzzFastSlice:
    """The tier-1 slice: small corpus, kernel and every oracle, every probe."""

    def test_degenerate_complexes(self):
        assert_backends_agree(SimplicialComplex(), "empty")
        assert_backends_agree(SimplicialComplex([{0}]), "point")
        assert_backends_agree(SimplicialComplex([{i} for i in range(4)]), "points")
        assert_backends_agree(SimplicialComplex([{0, 1, 2}]), "single-facet")

    def test_random_facet_complexes(self):
        rng = random.Random(160725)
        for trial in range(30):
            complex_ = random_facet_complex(rng, vertices=7, facets=8)
            assert_backends_agree(complex_, f"random[{trial}]")

    def test_constructed_spaces(self):
        rng = random.Random(411)
        for label, complex_ in constructed_spaces(rng, trials=12):
            assert_backends_agree(complex_, label)

    def test_protocol_complex_stars(self):
        rng = random.Random(1995)
        corpus = protocol_star_corpus(
            rng, configs=[(3, 1, 1, 2), (4, 2, 2, 1)], stars_per_complex=6
        )
        count = 0
        for label, star in corpus:
            assert_backends_agree(star, label)
            count += 1
        assert count == 12


@pytest.mark.slow
class TestFuzzExtendedSlice:
    """The -m slow slice: larger corpus, bigger complexes, deeper protocols."""

    def test_random_facet_complexes_extended(self):
        rng = random.Random(20160726)
        for trial in range(150):
            complex_ = random_facet_complex(rng, vertices=9, facets=12)
            assert_backends_agree(complex_, f"random-slow[{trial}]")

    def test_constructed_spaces_extended(self):
        rng = random.Random(52)
        for label, complex_ in constructed_spaces(rng, trials=60):
            assert_backends_agree(complex_, label)

    def test_protocol_complex_stars_extended(self):
        rng = random.Random(63)
        corpus = protocol_star_corpus(
            rng,
            configs=[(4, 2, 2, 2), (5, 2, 2, 1), (5, 4, 2, 1)],
            stars_per_complex=8,
        )
        count = 0
        for label, star in corpus:
            assert_backends_agree(star, label)
            count += 1
        assert count == 24

    def test_skeleta_and_links(self):
        """Derived subcomplexes (skeleta, links) through the same oracle."""
        rng = random.Random(74)
        for trial in range(25):
            complex_ = random_facet_complex(rng, vertices=8, facets=10)
            for dim in range(complex_.dimension + 1):
                assert_backends_agree(
                    complex_.skeleton(dim), f"skeleton[{trial},{dim}]"
                )
            some_vertex = next(iter(complex_.vertices))
            assert_backends_agree(complex_.link(some_vertex), f"link[{trial}]")
