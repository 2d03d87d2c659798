"""STARCONN — engineering benchmark: per-star connectivity, kernel vs oracles.

The Proposition 2 surveys probe ``connectivity_profile(star, max_q=k-1)`` on
the star complex of **every** vertex of a protocol complex.  The production
kernel and two :mod:`repro.oracles` homology paths answer the same question:

* ``packed`` — the kernel of :mod:`repro.topology.connectivity` with its
  structural shortcuts.  Star complexes are cones (the star's vertex is in
  every facet), so the survey's hot path is the O(facets) cone test on the
  global facet masks — no re-basing, no chain groups, no elimination;
* ``bigint`` — the shortcut-free oracle: big-int chain-group masks,
  dict-pivot elimination, rank reuse (the kernel's predecessor);
* ``dense`` — the seed algorithm: full face-lattice enumeration over
  frozensets, one complete Betti recomputation per probed ``q``.

The benchmark sweeps every star of two families on all three paths,
asserts the profiles identical, and gates **packed >= 3x over bigint** (the
acceptance criterion of the packed-kernel port; the old bigint-vs-dense
ratio is reported alongside).  Wall-clock ratios are noisy on shared
runners, so CI lowers the gate via ``STAR_CONNECTIVITY_MIN_SPEEDUP`` while
local/acceptance runs keep the 3x target.

A second, ungated section reports kernel and ``bigint`` oracle on
*non-cone* spaces (whole protocol complexes and spheres), where the kernel
has no cone shortcut and must run its elimination — the honest "no
structural gift" number.  Its last row is the kernel alone on the whole
n=6, k=2, m=2 complex (5316 vertices, 32298 facets): ``b̃_0, b̃_1`` =
``[21, 25633]``, with ∂₂ eliminated in full.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import oracles
from repro.model import Context
from repro.topology import (
    build_restricted_complex,
    connectivity_profile,
    reduced_betti_numbers,
    sphere_complex,
)

from conftest import print_table, record_benchmark


CASES = [
    # (n, t, k, time); the first case is exactly the differential-test family
    # of tests/test_homology_differential.py, the second the n=6 one-round
    # family with the usual t = n - 1.  Both gate packed >= 3x over bigint.
    (4, 2, 2, 2),
    (6, 5, 2, 1),
]
MIN_SPEEDUP = float(os.environ.get("STAR_CONNECTIVITY_MIN_SPEEDUP", "3.0"))

#: ``(reduced_betti_numbers, connectivity_profile)`` of the kernel and its oracles.
HOMOLOGY = {"packed": (reduced_betti_numbers, connectivity_profile), **oracles.HOMOLOGY_ORACLES}


def run_sweeps():
    """Per case: star count plus the per-backend sweep seconds."""
    rows = []
    for n, t, k, m in CASES:
        context = Context(n=n, t=t, k=k)
        pc = build_restricted_complex(context, time=m, max_crashes_per_round=k)
        stars = [pc.complex.star(vertex) for vertex in pc.complex.vertices]

        profiles = {}
        seconds = {}
        for backend, (_, profile) in HOMOLOGY.items():
            start = time.perf_counter()
            profiles[backend] = [profile(star, max_q=k - 1) for star in stars]
            seconds[backend] = time.perf_counter() - start

        # The differential contract, embedded in the benchmark: kernel and
        # oracles must agree on every star of the sweep.
        assert profiles["packed"] == profiles["bigint"] == profiles["dense"]
        rows.append((n, k, m, len(stars), seconds))
    return rows


def run_noncone_section():
    """Whole complexes and spheres: no cone apex, real elimination."""
    spaces = [
        ("P(n=4,m=2)", build_restricted_complex(Context(n=4, t=2, k=2), time=2).complex),
        ("S^3", sphere_complex(3)),
        ("S^4", sphere_complex(4)),
    ]
    rows = []
    for label, complex_ in spaces:
        betti = {}
        seconds = {}
        for backend in ("packed", "bigint"):
            start = time.perf_counter()
            betti[backend] = HOMOLOGY[backend][0](complex_)
            seconds[backend] = time.perf_counter() - start
        assert betti["packed"] == betti["bigint"]
        rows.append((label, complex_.vertex_count, seconds))
    return rows


def run_full_complex_row():
    """The kernel alone on the whole n=6, k=2, m=2 complex, through dimension 1."""
    context = Context(n=6, t=5, k=2)
    complex_ = build_restricted_complex(context, time=2, max_crashes_per_round=2).complex
    start = time.perf_counter()
    betti = reduced_betti_numbers(complex_, max_dimension=1)
    seconds = time.perf_counter() - start
    assert betti == [21, 25633], betti
    return {
        "space": "P(n=6,m=2)",
        "vertices": complex_.vertex_count,
        "facets": len(complex_.facet_masks),
        "max_dimension": 1,
        "betti": betti,
        "packed_seconds": seconds,
    }


@pytest.mark.benchmark(group="star-connectivity")
def test_packed_star_connectivity_speedup(benchmark):
    rows, noncone, full = benchmark.pedantic(
        lambda: (run_sweeps(), run_noncone_section(), run_full_complex_row()),
        rounds=1,
        iterations=1,
    )
    print_table(
        "STARCONN — per-star connectivity_profile sweep: packed vs bigint vs dense",
        ["n", "k", "m", "stars", "packed s", "bigint s", "dense s", "vs bigint", "vs dense"],
        [
            (
                n,
                k,
                m,
                stars,
                f"{s['packed']:.4f}",
                f"{s['bigint']:.4f}",
                f"{s['dense']:.4f}",
                f"{s['bigint'] / s['packed']:.1f}x",
                f"{s['dense'] / s['packed']:.1f}x",
            )
            for n, k, m, stars, s in rows
        ],
    )
    print_table(
        "STARCONN — non-cone spaces (full Betti, no shortcut): packed vs bigint",
        ["space", "|V|", "packed s", "bigint s", "ratio"],
        [
            (
                label,
                vertices,
                f"{s['packed']:.4f}",
                f"{s['bigint']:.4f}",
                f"{s['bigint'] / s['packed']:.2f}x",
            )
            for label, vertices, s in noncone
        ]
        + [("P(n=6,m=2) b0..b1", full["vertices"], f"{full['packed_seconds']:.4f}", "-", "-")],
    )
    record_benchmark(
        "star_connectivity",
        {
            "min_speedup_gate": MIN_SPEEDUP,
            "results": [
                {
                    "n": n,
                    "k": k,
                    "m": m,
                    "stars": stars,
                    "packed_seconds": s["packed"],
                    "bigint_seconds": s["bigint"],
                    "dense_seconds": s["dense"],
                    "speedup": s["bigint"] / s["packed"],
                    "speedup_vs_dense": s["dense"] / s["packed"],
                }
                for n, k, m, stars, s in rows
            ],
            "noncone": [
                {
                    "space": label,
                    "vertices": vertices,
                    "packed_seconds": s["packed"],
                    "bigint_seconds": s["bigint"],
                }
                for label, vertices, s in noncone
            ],
            "noncone_full_complex": full,
        },
    )
    for n, k, m, _stars, s in rows:
        assert s["bigint"] >= MIN_SPEEDUP * s["packed"], (
            f"n={n}, k={k}, m={m}: packed star sweep fell below {MIN_SPEEDUP}x over "
            f"bigint (bigint {s['bigint']:.4f}s vs packed {s['packed']:.4f}s)"
        )
