"""COMPLEX — engineering benchmark: trie-shared vs per-adversary star complexes.

Before the view-materialisation port, every star-complex lookup re-simulated
a reference ``Run`` (the seed ``ProtocolComplex.star_of``), so the exhaustive
Proposition 2 survey — build the ``m``-round protocol complex of the n=4,
t=2 restricted family ("at most k=2 crashes per round"), then construct the
star complex of *every* vertex — paid one fresh simulation per adversary
during the build and another per vertex afterwards.  This benchmark times
both phases on both paths:

* **reference** — the seed pipeline: the :func:`repro.oracles.build_protocol_complex`
  build (one ``Run`` per adversary), then per-vertex star construction via
  a fresh ``Run`` + ``view_key`` per lookup (exactly the seed ``star_of``);
* **batch** — the shipped builder (one view-only
  :func:`repro.engine.run_facets_pass` materialising canonical keys and
  facets once per (prefix-class, input-class)), after which star
  construction is pure facet extraction and the capacities fall out of the
  canonical keys — no re-simulation at all.

The surveys must produce identical complexes and identical
(capacity, star size) censuses — asserted unconditionally — and batch star
construction must be at least 3x faster on the exhaustive families (the
acceptance criterion of the port).  The build alone is floored at parity:
the batch build, which resolves each class's last round per observer, must
not be slower than the per-adversary reference build.  So is the end-to-end
pipeline (build + stars): sharing must never lose.  Wall-clock ratios are
noisy on shared runners, so CI lowers the star gate via
``COMPLEX_BUILD_MIN_SPEEDUP`` while local/acceptance runs keep the 3x target.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import oracles
from repro.model import Adversary, Context, Run
from repro.model.view import view_key
from repro.topology import build_protocol_complex
from repro.topology.protocol_complex import per_round_crash_patterns

from conftest import print_table, record_benchmark


CONTEXT = Context(n=4, t=2, k=2)
CASES = (1, 2)
MIN_SPEEDUP = float(os.environ.get("COMPLEX_BUILD_MIN_SPEEDUP", "3.0"))


def _family(rounds):
    return [
        Adversary([CONTEXT.k] * CONTEXT.n, pattern)
        for pattern in per_round_crash_patterns(CONTEXT.n, rounds, CONTEXT.k)
        if pattern.num_failures <= CONTEXT.t
    ]


def reference_pipeline(adversaries, m):
    """The seed path: per-adversary build, then one fresh Run per star lookup."""
    start = time.perf_counter()
    pc = oracles.build_protocol_complex(adversaries, m, CONTEXT.t)
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    census = []
    for adversary, process in pc.vertex_views.values():
        run = Run(None, adversary, CONTEXT.t, horizon=m)  # the seed star_of path
        view = run.view(process, m)
        star = pc.complex.star((process, view_key(view)))
        census.append((view.hidden_capacity(), len(star.facets)))
    star_seconds = time.perf_counter() - start
    return pc.complex, sorted(census), build_seconds, star_seconds


def _capacity_from_key(key):
    """``HC<i, m>`` recovered from a canonical view key alone (no engine).

    The key carries the ``latest_seen`` / ``earliest_evidence`` rows, and
    ``<j, l>`` is hidden iff ``latest_seen[j] < l < earliest_evidence[j]``.
    """
    _process, observed_time, latest_seen, evidence, _values, _senders = key
    return min(
        sum(1 for seen, ev in zip(latest_seen, evidence) if seen < layer < ev)
        for layer in range(observed_time + 1)
    )


def batch_pipeline(adversaries, m):
    """The shared path: the shipped batch builder, then simulation-free stars."""
    start = time.perf_counter()
    pc = build_protocol_complex(adversaries, m, CONTEXT.t)
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    census = []
    for vertex in pc.vertex_views:
        _process, key = vertex
        census.append((_capacity_from_key(key), len(pc.complex.star(vertex).facets)))
    star_seconds = time.perf_counter() - start
    return pc.complex, sorted(census), build_seconds, star_seconds


def run_comparison():
    """(m, adversaries, vertices, ref build, ref stars, batch build, batch stars) rows."""
    rows = []
    for m in CASES:
        adversaries = _family(m)
        batch_complex, batch_census, batch_build, batch_stars = batch_pipeline(adversaries, m)
        ref_complex, ref_census, ref_build, ref_stars = reference_pipeline(adversaries, m)
        # The differential contract, embedded in the benchmark: identical
        # complexes and identical (capacity, star size) censuses.
        assert batch_complex == ref_complex
        assert batch_census == ref_census
        rows.append(
            (m, len(adversaries), len(batch_complex.vertices), ref_build, ref_stars, batch_build, batch_stars)
        )
    return rows


@pytest.mark.benchmark(group="complex-build")
def test_batch_star_construction_speedup(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        f"COMPLEX — exhaustive star-complex survey, n={CONTEXT.n}, t={CONTEXT.t}, "
        f"at most {CONTEXT.k} crashes/round",
        ["m", "adversaries", "vertices", "ref build s", "ref stars s", "batch build s", "batch stars s", "stars speedup", "pipeline speedup"],
        [
            (
                m,
                count,
                vertices,
                f"{rb:.3f}",
                f"{rs:.3f}",
                f"{bb:.3f}",
                f"{bs:.3f}",
                f"{rs / bs:.1f}x",
                f"{(rb + rs) / (bb + bs):.1f}x",
            )
            for m, count, vertices, rb, rs, bb, bs in rows
        ],
    )
    record_benchmark(
        "complex_build",
        {
            "context": {"n": CONTEXT.n, "t": CONTEXT.t, "k": CONTEXT.k},
            "min_speedup_gate": MIN_SPEEDUP,
            "results": [
                {
                    "m": m,
                    "adversaries": count,
                    "vertices": vertices,
                    "reference_build_seconds": rb,
                    "reference_stars_seconds": rs,
                    "batch_build_seconds": bb,
                    "batch_stars_seconds": bs,
                    "stars_speedup": rs / bs,
                    "pipeline_speedup": (rb + rs) / (bb + bs),
                }
                for m, count, vertices, rb, rs, bb, bs in rows
            ],
        },
    )
    for m, _count, _vertices, ref_build, ref_stars, batch_build, batch_stars in rows:
        # The acceptance gate: star construction without re-simulation.
        assert ref_stars >= MIN_SPEEDUP * batch_stars, (
            f"m={m}: batch star construction fell below {MIN_SPEEDUP}x "
            f"(reference {ref_stars:.3f}s vs batch {batch_stars:.3f}s)"
        )
        # Build-only parity floor: the trie build must not lose to one
        # reference Run per adversary.
        assert batch_build <= ref_build, (
            f"m={m}: batch build {batch_build:.4f}s slower than reference {ref_build:.4f}s"
        )
        # Whole-pipeline floor: materialising the family on the trie must not
        # lose to the per-adversary rebuild it replaced.  The 0.7 factor
        # absorbs scheduler jitter on the few-millisecond m=1 totals; a real
        # regression (batch slower than reference) still trips it.
        assert ref_build + ref_stars >= 0.7 * (batch_build + batch_stars)
