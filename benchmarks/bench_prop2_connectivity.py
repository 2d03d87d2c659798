"""PROP2 — Proposition 2: hidden capacity >= k implies a (k-1)-connected star complex.

The benchmark builds exhaustive one- and two-round protocol complexes for
small systems (the "at most k crashes per round" family of the lower-bound
literature), sweeps every vertex, and cross-tabulates the vertex's hidden
capacity against the homological connectivity of its star complex.
Proposition 2 predicts that no vertex with capacity >= k has a star that
fails the (k-1)-connectivity proxy; the converse direction (which the paper
leaves open) is reported as data.

The complexes are built by the fused view-only scheduler pass (one
traversal per family), every vertex's hidden
capacity is recovered from its canonical key
(:func:`repro.topology.vertex_capacity`), and the survey itself runs on the
**symmetry quotient** (:func:`repro.topology.capacity_connectivity_census`,
which always folds canonical classes): vertices are grouped by their canonical
view-key class and homology runs once per star-isomorphism class through the
signature-keyed :class:`repro.topology.ConnectivityCache` — ~35 homology
computations instead of 5316 on the n=6, k=2, m=2 case.  The
quotient-vs-exhaustive identity is gated by
``benchmarks/bench_symmetry_quotient.py`` and pinned by
``tests/test_quotient_differential.py``; wall times per case are recorded to
``BENCH_prop2_connectivity.json``.

Homology runs on the production kernel; on the flagship n=6, k=2, m=2 case
the benchmark re-runs the census on the ``bigint`` homology oracle
(:func:`repro.oracles.capacity_connectivity_census`) and asserts the two
rows byte-identical (the packed-kernel acceptance identity).
"""

from __future__ import annotations

import time as wall

import pytest

from repro import oracles
from repro.model import Context
from repro.topology import build_restricted_complex, capacity_connectivity_census

from conftest import print_table, record_benchmark


CASES = [
    # (n, k, time)
    (4, 1, 1),
    (5, 2, 1),
    (6, 2, 1),
    # The n >= 6, m >= 2 regime the sparse bitset kernel opened: ~260k
    # adversaries, a 5316-vertex / 32298-facet complex.  The seed paid a
    # quadratic maximality filter on construction and a full face-lattice
    # enumeration per star here; the kernel's star-indexed filter,
    # dimension-bounded homology and the symmetry-quotient survey keep the
    # whole census tractable.
    (6, 2, 2),
    # The first two-round case where Proposition 2 is not vacuous: n=6 and
    # n=5 have no vertex with HC >= 2 after two rounds.  973,169 members;
    # the build walks their crash-option tree instead of building them.
    (7, 2, 2),
]

#: Census rows pinned for the two-round cases.
EXPECTED_ROWS = {
    (6, 2, 2): (5316, 0, 0, 5316, 0),
    (7, 2, 2): (14070, 630, 630, 14070, 630),
}

#: (vertices, facets) of the two-round complexes, pinned next to their rows.
EXPECTED_SHAPES = {
    (6, 2, 2): (5316, 32298),
    (7, 2, 2): (14070, 166713),
}

def run_survey():
    rows = []
    timings = []
    for n, k, time in CASES:
        context = Context(n=n, t=n - 1, k=k)
        start = wall.perf_counter()
        pc = build_restricted_complex(context, time=time, max_crashes_per_round=k)
        build_seconds = wall.perf_counter() - start
        start = wall.perf_counter()
        census = capacity_connectivity_census(pc, k)
        survey_seconds = wall.perf_counter() - start
        if (n, k, time) == (6, 2, 2):
            # The packed-kernel acceptance identity: the kernel must
            # reproduce the bigint oracle's census row byte-for-byte on the
            # flagship n=6, k=2, m=2 survey.
            oracle = oracles.capacity_connectivity_census(
                pc, k, symmetry="quotient", homology="bigint"
            )
            assert census.row == oracle.row, (census.row, oracle.row)
            assert census.classes == oracle.classes
        if (n, k, time) in EXPECTED_ROWS:
            assert census.row == EXPECTED_ROWS[(n, k, time)], census.row
            shape = (pc.complex.vertex_count, len(pc.complex.facet_masks))
            assert shape == EXPECTED_SHAPES[(n, k, time)], shape
        rows.append((n, k, time) + census.row)
        timings.append(
            (n, k, time, census.vertices, census.classes, build_seconds, survey_seconds)
        )
    return rows, timings


@pytest.mark.benchmark(group="prop2")
def test_prop2_capacity_implies_connectivity(benchmark):
    # One round, one iteration: the m=2 cases cover a quarter-million and a
    # million adversaries; calibrated re-runs would multiply minutes, not
    # precision.
    rows, timings = benchmark.pedantic(run_survey, rounds=1, iterations=1)
    print_table(
        "PROP2 — hidden capacity vs (k-1)-connectivity of the star complex",
        [
            "n",
            "k",
            "m",
            "vertices",
            "HC >= k",
            "of which (k-1)-connected",
            "(k-1)-connected stars",
            "of which HC >= k",
        ],
        rows,
    )
    record_benchmark(
        "prop2_connectivity",
        {
            "symmetry": "quotient",
            "backend": "packed",
            "results": [
                {
                    "n": n,
                    "k": k,
                    "m": m,
                    "vertices": vertices,
                    "classes": classes,
                    "build_seconds": build,
                    "survey_seconds": survey,
                }
                for n, k, m, vertices, classes, build, survey in timings
            ],
        },
    )
    for _n, _k, _m, total, high, consistent, _conn, _conv in rows:
        assert total > 0
        # Proposition 2: every high-capacity vertex has a (k-1)-connected star.
        assert consistent == high
