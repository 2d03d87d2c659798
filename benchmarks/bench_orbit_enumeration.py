"""ORBITGEN — constructive orbit generation vs the hash-dedup oracle.

The n=6, t=2, k=2, max_crash_round=2 canonical space has 2,205,225 members
but only 8,011 process-renaming orbits.  The oracle
(:func:`repro.oracles.dedup_orbits`) reaches them by streaming every member
through canonical-form hashing — cost and memory proportional to the
*space*.  The production path (:func:`repro.adversaries.enumerate_orbits`)
*generates* one object per orbit:
canonical failure patterns by canonical augmentation (McKay orderly
generation) and, per pattern, input vectors up to the pattern's factored
stabiliser — cost proportional to the number of *orbits*, memory bounded by
the augmentation depth, and orbit sizes in closed form.

This benchmark runs both paths on the shared cases, asserts the
representative→orbit-size maps are **identical** and that each path's sizes
partition the space (``sum(sizes) == estimate_adversary_count(...)``), and
gates the constructive path at ``>= 3x`` over dedup on the n=6 case
(``ORBIT_ENUMERATION_MIN_SPEEDUP`` lowers the gate on noisy shared runners;
the measured number is recorded to ``BENCH_orbit_enumeration.json``).

A second, ungated section is the frontier smoke: the n=7, t=2, k=2,
max_crash_round=2 space (12,004,443 members, 11,856 orbits) is generated
constructively in well under a second — the dedup oracle extrapolates to
minutes on the same space and is not run (that is the point: the frontier
case exists *because* per-member work is no longer paid).
"""

from __future__ import annotations

import os
import time as wall

import pytest

from repro import oracles
from repro.adversaries import (
    enumerate_orbits,
    estimate_adversary_count,
    pattern_and_orbit_counts,
)
from repro.model import Context

from conftest import print_table, record_benchmark


CASES = [
    # (n, t, max_crash_round, gated)
    (4, 2, 2, False),
    (5, 2, 2, False),
    # The acceptance case: 2,205,225 members, 8,011 orbits.
    (6, 2, 2, True),
]

MIN_SPEEDUP = float(os.environ.get("ORBIT_ENUMERATION_MIN_SPEEDUP", "3.0"))

#: The frontier smoke case (constructive only — dedup cannot finish in a
#: benchmark budget; its cost is extrapolated from the member count).
FRONTIER = (7, 2, 2)

RESTRICTIONS = dict(receiver_policy="canonical", max_failures=None)


def run_cases():
    """Per case: both orbit streams, identity checks, wall times."""
    results = []
    for n, t, max_crash_round, gated in CASES:
        context = Context(n=n, t=t, k=2)
        members = estimate_adversary_count(
            context, max_crash_round=max_crash_round, **RESTRICTIONS
        )

        start = wall.perf_counter()
        constructive = {
            orbit.representative: orbit.size
            for orbit in enumerate_orbits(
                context,
                max_crash_round=max_crash_round,
                **RESTRICTIONS,
            )
        }
        constructive_seconds = wall.perf_counter() - start

        start = wall.perf_counter()
        dedup = {
            orbit.representative: orbit.size
            for orbit in oracles.dedup_orbits(
                context,
                max_crash_round=max_crash_round,
                **RESTRICTIONS,
            )
        }
        dedup_seconds = wall.perf_counter() - start

        # The acceptance identities: same representatives with the same orbit
        # sizes, and the sizes partition the space exactly.
        assert constructive == dedup, (n, t, max_crash_round)
        assert sum(constructive.values()) == members, (n, t, max_crash_round)
        results.append(
            {
                "n": n,
                "t": t,
                "max_crash_round": max_crash_round,
                "gated": gated,
                "members": members,
                "orbits": len(constructive),
                "constructive_seconds": constructive_seconds,
                "dedup_seconds": dedup_seconds,
                "speedup": dedup_seconds / constructive_seconds,
            }
        )
    return results


def run_frontier():
    """The n=7 smoke row: constructive only, partition-sum verified."""
    n, t, max_crash_round = FRONTIER
    context = Context(n=n, t=t, k=2)
    members = estimate_adversary_count(
        context, max_crash_round=max_crash_round, **RESTRICTIONS
    )

    start = wall.perf_counter()
    patterns, orbits = pattern_and_orbit_counts(
        context, max_crash_round=max_crash_round, **RESTRICTIONS
    )
    count_seconds = wall.perf_counter() - start

    start = wall.perf_counter()
    total = 0
    generated = 0
    for orbit in enumerate_orbits(
        context, max_crash_round=max_crash_round, **RESTRICTIONS
    ):
        total += orbit.size
        generated += 1
    stream_seconds = wall.perf_counter() - start

    assert generated == orbits
    assert total == members, "orbit sizes must partition the n=7 space"
    # Dedup pays one canonicalisation per member; its per-member rate is
    # taken from the gated n=6 case at assembly time (see the test body).
    return {
        "n": n,
        "t": t,
        "max_crash_round": max_crash_round,
        "members": members,
        "pattern_orbits": patterns,
        "orbits": orbits,
        "count_seconds": count_seconds,
        "stream_seconds": stream_seconds,
    }


@pytest.mark.benchmark(group="orbit-enumeration")
def test_orbit_enumeration_speedup(benchmark):
    results, frontier = benchmark.pedantic(
        lambda: (run_cases(), run_frontier()), rounds=1, iterations=1
    )
    gated = next(r for r in results if r["gated"])
    # Extrapolate the oracle's cost on the frontier from its measured
    # per-member rate on the gated case (dedup work is linear in members).
    rate = gated["dedup_seconds"] / gated["members"]
    frontier["dedup_extrapolated_seconds"] = rate * frontier["members"]
    print_table(
        "ORBITGEN — orbit enumeration: hash-dedup oracle vs constructive generation",
        ["n", "t", "mcr", "members", "orbits", "dedup s", "constructive s", "speedup"],
        [
            (
                r["n"],
                r["t"],
                r["max_crash_round"],
                f"{r['members']:,}",
                f"{r['orbits']:,}",
                f"{r['dedup_seconds']:.3f}",
                f"{r['constructive_seconds']:.3f}",
                f"{r['speedup']:.1f}x",
            )
            for r in results
        ],
    )
    print(
        f"\nfrontier smoke (n={frontier['n']}, t={frontier['t']}, "
        f"mcr={frontier['max_crash_round']}): {frontier['members']:,} members, "
        f"{frontier['pattern_orbits']} pattern orbits, {frontier['orbits']:,} orbits — "
        f"counted in {frontier['count_seconds']:.2f}s, "
        f"generated in {frontier['stream_seconds']:.2f}s "
        f"(dedup extrapolates to ~{frontier['dedup_extrapolated_seconds']:.0f}s)"
    )
    record_benchmark(
        "orbit_enumeration",
        {
            "min_speedup_gate": MIN_SPEEDUP,
            "results": results,
            "frontier": frontier,
        },
    )
    for r in results:
        # Generation must beat per-member hashing wherever orbits << members.
        if r["gated"]:
            assert r["speedup"] >= MIN_SPEEDUP, (
                f"n={r['n']}, t={r['t']}, mcr={r['max_crash_round']}: constructive "
                f"enumeration fell below {MIN_SPEEDUP}x (dedup "
                f"{r['dedup_seconds']:.3f}s vs constructive "
                f"{r['constructive_seconds']:.3f}s)"
            )
    # The frontier must stay a smoke: orbits generated in interactive time
    # on a space whose oracle cost is minutes.
    assert frontier["stream_seconds"] < frontier["dedup_extrapolated_seconds"]
