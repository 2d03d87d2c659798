"""SYSTEM — engineering benchmark: fused vs two-pass knowledge-system construction.

``System.from_family`` used to compose two disjoint trie traversals — a
``SweepRunner`` pass for decisions and a layer-retaining ``ViewSource`` pass
(no early stopping) for the Definition 4 local-state index; that
construction is kept as :func:`repro.oracles.system_from_family_two_pass`.
The fused scheduler pass (:mod:`repro.engine.fused`) produces both
products from **one** traversal, snapshotting canonical view keys directly
from the layer rows while the decision sweep advances and dropping branches
the moment they stop contributing points.

This benchmark times both constructions on an enumerated n=6 family, asserts

* the fused system is *identical* to the two-pass one (same local-state
  index, same decisions, run for run),
* the fused construction performs exactly **one** trie traversal (the
  ``PrefixScheduler.passes_started`` counter) where the two-pass baseline
  performs two,
* the fused path is at least 1.8x faster on the acceptance configuration
  (Optmin; 2.1-2.6x is typical locally — ``SYSTEM_BUILD_MIN_SPEEDUP`` scales
  the gates on noisy shared runners, the identity assertions always hold).
  The uniform protocol rides along at a secondary ≥1.3x floor: u-Pmin decides
  a round before the horizon on most branches, so nearly every point of every
  run stays live and the Definition 4 keying — work both constructions share —
  dominates; the measured 1.6-1.9x is recorded as data rather than gated,

and records the measured trajectory as ``BENCH_system_build.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import oracles
from repro.adversaries.enumeration import enumerate_adversaries
from repro.core import OptMin, UPMin
from repro.engine import PrefixScheduler
from repro.knowledge import System
from repro.model import Context

from conftest import print_table, record_benchmark


CONTEXT = Context(n=6, t=4, k=2)
#: Exhaustive within the canonical-delivery, crash-round <= 2 restriction,
#: truncated so the (deliberately slower) two-pass baseline stays benchmarkable.
FAMILY_LIMIT = 20_000
#: The fusion acceptance gate, asserted on the Optmin configuration; the
#: late-deciding u-Pmin shares most of its (keying-dominated) work between
#: the two constructions and is floored at GATES["u-Pmin[k]"] instead.
MIN_SPEEDUP = float(os.environ.get("SYSTEM_BUILD_MIN_SPEEDUP", "1.8"))
GATES = {"Optmin[k]": MIN_SPEEDUP, "u-Pmin[k]": MIN_SPEEDUP * 13 / 18}


def _family():
    return list(
        enumerate_adversaries(
            CONTEXT, max_crash_round=2, receiver_policy="canonical", limit=FAMILY_LIMIT
        )
    )


def run_comparison():
    """(protocol, runs, index keys, two-pass s, fused s, fused passes) rows."""
    adversaries = _family()
    rows = []
    for protocol in (OptMin(CONTEXT.k), UPMin(CONTEXT.k)):
        start = time.perf_counter()
        two_pass = oracles.system_from_family_two_pass(protocol, adversaries, CONTEXT.t)
        two_pass_seconds = time.perf_counter() - start

        passes_before = PrefixScheduler.passes_started
        start = time.perf_counter()
        fused = System.from_family(protocol, adversaries, CONTEXT.t)
        fused_seconds = time.perf_counter() - start
        fused_passes = PrefixScheduler.passes_started - passes_before

        # The identity contract, embedded in the benchmark: one traversal
        # must produce byte-identical decisions and the identical
        # Definition 4 local-state index.
        assert fused._index == two_pass._index
        assert len(fused.runs) == len(two_pass.runs)
        assert all(
            f.decisions() == t.decisions() and f.stop_time == t.stop_time
            for f, t in zip(fused.runs, two_pass.runs)
        )
        rows.append(
            (
                protocol.name,
                len(fused.runs),
                len(fused._index),
                two_pass_seconds,
                fused_seconds,
                fused_passes,
            )
        )
    return rows


@pytest.mark.benchmark(group="system-build")
def test_fused_system_construction_speedup(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        f"SYSTEM — fused vs two-pass System.from_family on n={CONTEXT.n}, "
        f"t={CONTEXT.t} families ({FAMILY_LIMIT} adversaries)",
        ["protocol", "runs", "index keys", "two-pass s", "fused s", "speedup", "trie passes"],
        [
            (name, runs, keys, f"{two:.3f}", f"{fused:.3f}", f"{two / fused:.2f}x", passes)
            for name, runs, keys, two, fused, passes in rows
        ],
    )
    record_benchmark(
        "system_build",
        {
            "context": {"n": CONTEXT.n, "t": CONTEXT.t, "k": CONTEXT.k},
            "family_limit": FAMILY_LIMIT,
            "min_speedup_gate": MIN_SPEEDUP,
            "results": [
                {
                    "protocol": name,
                    "runs": runs,
                    "index_keys": keys,
                    "two_pass_seconds": two,
                    "fused_seconds": fused,
                    "speedup": two / fused,
                    "trie_passes": passes,
                }
                for name, runs, keys, two, fused, passes in rows
            ],
        },
    )
    for name, _runs, _keys, two_pass_seconds, fused_seconds, fused_passes in rows:
        # The acceptance criteria of the fusion: a single traversal, and the
        # per-protocol speedup gate (>= 1.8x on the Optmin configuration).
        assert fused_passes == 1, (
            f"{name}: fused construction started {fused_passes} trie passes (expected 1)"
        )
        gate = GATES[name]
        assert two_pass_seconds >= gate * fused_seconds, (
            f"{name}: fused construction fell below {gate:.2f}x "
            f"(two-pass {two_pass_seconds:.3f}s vs fused {fused_seconds:.3f}s)"
        )
