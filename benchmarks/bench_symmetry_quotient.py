"""SYMQ — symmetry-quotient Proposition 2 survey vs the exhaustive path.

The n=6, k=2, m=2 restricted protocol complex has 5316 vertices but only ~35
canonical vertex classes under process renaming: the exhaustive Proposition 2
census extracts and homology-probes one star per *vertex*, while the quotient
census (:func:`repro.topology.capacity_connectivity_census`, the one
production census) groups vertices by
:func:`repro.symmetry.canonical_view_key`, probes one representative star per
class through the signature-keyed
:class:`repro.topology.ConnectivityCache`, and weights each verdict by the
class size.

This benchmark runs both paths over the shared complex (built once per case
— the build is identical either way and is reported separately), asserts the
orbit-weighted census rows are **identical** to the exhaustive rows, and
gates the quotient survey at ``>= 3x`` over the exhaustive survey on the
n=6, k=2, m=2 case (``SYMMETRY_QUOTIENT_MIN_SPEEDUP`` lowers the gate on
noisy shared runners; the measured number is recorded to
``BENCH_symmetry_quotient.json``).  Both paths run the census on the
``bigint`` homology oracle (:func:`repro.oracles.capacity_connectivity_census`):
the gate isolates the survey-engine collapse, and the kernel's cone shortcut
(gated separately in ``bench_star_connectivity``) would otherwise make even
the exhaustive sweep near-free and the ratio meaningless.

A second, ungated section records the verification-layer quotient for
context: the exhaustive checker sweep vs the batch checker folding the
hash-dedup stream of :func:`repro.oracles.symmetry_stream` on a small
restricted space — identical reports (pinned by the differential tests),
modest batch-engine speedup that grows with ``n``.
"""

from __future__ import annotations

import os
import time as wall

import pytest

from repro import oracles
from repro.adversaries import enumerate_adversaries
from repro.core import OptMin
from repro.engine import SweepRunner
from repro.model import Context
from repro.topology import build_restricted_complex
from repro.verification import CheckReport, check_protocol
from repro.verification.checker import fold_checks

from conftest import print_table, record_benchmark


CASES = [
    # (n, k, time, gated)
    (4, 2, 2, False),
    (6, 2, 1, False),
    # The acceptance case: 5316 vertices, ~35 canonical classes.
    (6, 2, 2, True),
]

MIN_SPEEDUP = float(os.environ.get("SYMMETRY_QUOTIENT_MIN_SPEEDUP", "3.0"))

#: The checker-context section (informational, not gated).
CHECKER_CONTEXT = Context(n=5, t=3, k=2)


def run_surveys():
    """Per case: census rows of both paths plus wall times and class counts."""
    results = []
    for n, k, m, gated in CASES:
        context = Context(n=n, t=n - 1, k=k)
        start = wall.perf_counter()
        pc = build_restricted_complex(context, time=m, max_crashes_per_round=k)
        build_seconds = wall.perf_counter() - start

        # Both paths run on the bigint homology oracle: this benchmark gates
        # the *survey engine* (quotient grouping vs per-vertex sweeps), so it
        # measures against real per-star homology cost.  On the kernel the
        # cone shortcut makes even the exhaustive sweep O(facets)
        # per star and the engines nearly tie — that regime is covered by
        # bench_star_connectivity / bench_prop2_connectivity instead.
        start = wall.perf_counter()
        exhaustive = oracles.capacity_connectivity_census(
            pc, k, symmetry="none", homology="bigint"
        )
        exhaustive_seconds = wall.perf_counter() - start

        start = wall.perf_counter()
        quotient = oracles.capacity_connectivity_census(
            pc, k, symmetry="quotient", homology="bigint"
        )
        quotient_seconds = wall.perf_counter() - start

        # The acceptance identity: orbit-weighted census rows must reproduce
        # the exhaustive census exactly, case by case.
        assert quotient.row == exhaustive.row, (n, k, m, quotient.row, exhaustive.row)
        results.append(
            {
                "n": n,
                "k": k,
                "m": m,
                "gated": gated,
                "vertices": exhaustive.vertices,
                "classes": quotient.classes,
                "homology_runs_exhaustive": exhaustive.homology_runs,
                "homology_runs_quotient": quotient.homology_runs,
                "build_seconds": build_seconds,
                "exhaustive_survey_seconds": exhaustive_seconds,
                "quotient_survey_seconds": quotient_seconds,
                "speedup": exhaustive_seconds / quotient_seconds,
                "census": exhaustive.row,
            }
        )
    return results


def run_checker_section():
    """The verification-layer quotient on a small restricted space (ungated)."""
    adversaries = list(
        enumerate_adversaries(
            CHECKER_CONTEXT, max_crash_round=2, receiver_policy="canonical", max_failures=2
        )
    )
    start = wall.perf_counter()
    exhaustive = check_protocol(OptMin(CHECKER_CONTEXT.k), adversaries, CHECKER_CONTEXT.t)
    exhaustive_seconds = wall.perf_counter() - start
    start = wall.perf_counter()
    quotient = CheckReport(protocol=OptMin(CHECKER_CONTEXT.k).name)
    fold_checks(
        quotient,
        oracles.symmetry_stream(adversaries, "quotient"),
        SweepRunner(OptMin(CHECKER_CONTEXT.k), CHECKER_CONTEXT.t),
    )
    quotient_seconds = wall.perf_counter() - start
    assert quotient.ok == exhaustive.ok
    assert quotient.runs_checked == exhaustive.runs_checked
    assert quotient.decision_time_histogram == exhaustive.decision_time_histogram
    return {
        "n": CHECKER_CONTEXT.n,
        "t": CHECKER_CONTEXT.t,
        "k": CHECKER_CONTEXT.k,
        "adversaries": len(adversaries),
        "exhaustive_seconds": exhaustive_seconds,
        "quotient_seconds": quotient_seconds,
        "speedup": exhaustive_seconds / quotient_seconds,
    }


@pytest.mark.benchmark(group="symmetry-quotient")
def test_symmetry_quotient_survey_speedup(benchmark):
    results, checker = benchmark.pedantic(
        lambda: (run_surveys(), run_checker_section()), rounds=1, iterations=1
    )
    print_table(
        "SYMQ — Proposition 2 survey: exhaustive per-vertex vs symmetry quotient",
        ["n", "k", "m", "vertices", "classes", "exhaustive s", "quotient s", "speedup"],
        [
            (
                r["n"],
                r["k"],
                r["m"],
                r["vertices"],
                r["classes"],
                f"{r['exhaustive_survey_seconds']:.3f}",
                f"{r['quotient_survey_seconds']:.3f}",
                f"{r['speedup']:.1f}x",
            )
            for r in results
        ],
    )
    print(
        f"\nchecker quotient (n={checker['n']}, {checker['adversaries']} adversaries): "
        f"exhaustive {checker['exhaustive_seconds']:.2f}s, "
        f"quotient {checker['quotient_seconds']:.2f}s "
        f"({checker['speedup']:.2f}x, identical report)"
    )
    record_benchmark(
        "symmetry_quotient",
        {
            "min_speedup_gate": MIN_SPEEDUP,
            "results": results,
            "checker_section": checker,
        },
    )
    for r in results:
        # The quotient must eliminate homology work, not merely tie: fewer
        # from-scratch profile computations than vertices on every case.
        assert r["homology_runs_quotient"] <= r["classes"] < r["vertices"]
        if r["gated"]:
            assert r["speedup"] >= MIN_SPEEDUP, (
                f"n={r['n']}, k={r['k']}, m={r['m']}: quotient survey fell below "
                f"{MIN_SPEEDUP}x (exhaustive {r['exhaustive_survey_seconds']:.3f}s vs "
                f"quotient {r['quotient_survey_seconds']:.3f}s)"
            )
