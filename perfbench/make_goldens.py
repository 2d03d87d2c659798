"""Regenerate ``goldens.json`` from direct library calls.

Run from the repository root: ``python3 perfbench/make_goldens.py``.  The
goldens are facts about the paper's protocols over fixed spaces, so they
change only when a result changes; the benchmark counts any run that
disagrees with them as failed.  Job goldens come from a direct
``check_protocol`` sweep of each spec, never through the job service the
benchmark then checks against them.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import canonical_digest, report_payload  # noqa: E402

JOB_SPECS = {
    "cold-optmin-n5t2": ("cold", {"kind": "sweep", "n": 5, "t": 2, "k": 2, "protocol": "optmin"}),
    "cold-upmin-n5t2": ("cold", {"kind": "sweep", "n": 5, "t": 2, "k": 2, "protocol": "upmin"}),
    "cold-optmin-n5t3-mcr2": (
        "cold",
        {"kind": "sweep", "n": 5, "t": 3, "k": 2, "protocol": "optmin", "max_crash_round": 2},
    ),
    "warm-optmin-n5t2-mcr2": (
        "warm",
        {"kind": "sweep", "n": 5, "t": 2, "k": 2, "protocol": "optmin", "max_crash_round": 2},
    ),
    "warm-upmin-n5t2-mcr2": (
        "warm",
        {"kind": "sweep", "n": 5, "t": 2, "k": 2, "protocol": "upmin", "max_crash_round": 2},
    ),
}


def sweep_golden():
    from repro.adversaries.enumeration import RestrictedSpace
    from repro.core import OptMin
    from repro.model import Context
    from repro.verification import check_protocol

    space = RestrictedSpace(Context(n=6, t=3, k=2), max_crash_round=2, max_failures=3)
    report = check_protocol(OptMin(2), space, 3, symmetry="constructive")
    assert report.ok, report.summary()
    return {
        "orbits": space.orbit_count(),
        "runs_checked": report.runs_checked,
        "histogram": {str(key): value for key, value in report.decision_time_histogram.items()},
    }


def census_golden():
    from repro.model import Context
    from repro.topology import build_restricted_complex, capacity_connectivity_census
    from repro.topology.protocol_complex import per_round_crash_patterns

    context = Context(n=6, t=5, k=2)
    pc = build_restricted_complex(context, time=2, max_crashes_per_round=2)
    census = capacity_connectivity_census(pc, 2, symmetry="quotient")
    adversaries = sum(
        1 for pattern in per_round_crash_patterns(6, 2, 2) if pattern.num_failures <= context.t
    )
    return {
        "adversaries": adversaries,
        "vertices": pc.complex.vertex_count,
        "facets": len(pc.complex.facet_masks),
        "row": list(census.row),
        "classes": census.classes,
        "homology_misses": census.homology_runs,
    }


def jobs_golden():
    from repro.service import normalize_spec
    from repro.service.specs import build_protocol, build_space
    from repro.verification import check_protocol

    jobs = {}
    for name, (phase, raw) in JOB_SPECS.items():
        spec = normalize_spec(raw)
        space = build_space(spec)
        report = check_protocol(
            build_protocol(spec), space, spec["t"], symmetry=spec["symmetry"]
        )
        jobs[name] = {
            "phase": phase,
            "spec": raw,
            "orbits": space.orbit_count(),
            "runs_checked": report.runs_checked,
            "digest": canonical_digest(report_payload(report)),
        }
    return {"jobs": jobs}


def main() -> None:
    goldens = {
        "sweep-n6": sweep_golden(),
        "census-n6m2": census_golden(),
        "jobs-mixed": jobs_golden(),
    }
    with open(os.path.join(HERE, "goldens.json"), "w") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
