"""RESIL — checkpointed survey overhead vs the plain constructive sweep.

The resilient runtime (``repro.runtime``) buys crash-safety by batching the
constructive orbit stream and flushing an atomic, checksummed checkpoint
after every batch.  That safety must be near-free, or nobody runs with it:
this benchmark sweeps the n=6, t=3, k=2 restricted space (90k+ orbit
representatives, 42M weighted runs, ~11 checkpoint flushes at the default
batch size) through both paths and gates the checkpointed path at ``<= 5%``
overhead over the plain :func:`repro.verification.check_protocol` sweep
(``RESILIENCE_MAX_OVERHEAD`` relaxes the gate on noisy shared runners; the
measured numbers are recorded to ``BENCH_resilience.json``).

The gate is on **CPU time** (min of three interleaved rounds): the batching
cost being gated — lost trie prefix sharing across batch boundaries, the
per-batch sweep setup, the serialization and double-``fsync`` of every
checkpoint — is all CPU/syscall work, and wall clock on shared runners
carries scheduler noise far larger than the 5%% being resolved.  Wall times
are recorded alongside for the perf history.

Identity is asserted, not assumed: the checkpointed run's serialized
``CheckReport`` must equal the plain run's byte for byte — resilience that
changed the answer would be a bug, not an overhead.
"""

from __future__ import annotations

import os
import time as wall

import pytest

from repro.adversaries.enumeration import RestrictedSpace
from repro.core import OptMin
from repro.model import Context
from repro.runtime import CheckpointStore, RunReport, canonical_json, resilient_check
from repro.verification import check_protocol

from conftest import print_table, record_benchmark

MAX_OVERHEAD = float(os.environ.get("RESILIENCE_MAX_OVERHEAD", "0.05"))

#: The n=6 survey case: 90933 orbit representatives, 42M weighted runs.
CONTEXT = Context(n=6, t=3, k=2)
RESTRICTIONS = dict(max_crash_round=2, max_failures=3, receiver_policy="canonical")
ROUNDS = 3


def space() -> RestrictedSpace:
    return RestrictedSpace(CONTEXT, **RESTRICTIONS)


def run_legs(tmp_path):
    """Interleaved plain/checkpointed rounds; per-leg (cpu, wall) samples."""
    plain_times = []
    checkpointed_times = []
    plain_report = None
    outcome = None
    saves = 0
    for round_index in range(ROUNDS):
        cpu0, wall0 = wall.process_time(), wall.perf_counter()
        plain_report = check_protocol(
            OptMin(CONTEXT.k), space(), CONTEXT.t, symmetry="constructive"
        )
        plain_times.append((wall.process_time() - cpu0, wall.perf_counter() - wall0))

        directory = os.path.join(str(tmp_path), f"ck-{round_index}")
        events = RunReport()
        cpu0, wall0 = wall.process_time(), wall.perf_counter()
        outcome = resilient_check(
            OptMin(CONTEXT.k),
            space(),
            CONTEXT.t,
            symmetry="constructive",
            store=CheckpointStore(directory),
            report=events,
        )
        checkpointed_times.append((wall.process_time() - cpu0, wall.perf_counter() - wall0))
        saves = events.count("checkpoint_saved")
        assert outcome.completed

        # Crash-safety must be invisible in the product: byte-identical
        # serialized reports, every round.
        assert canonical_json(outcome.value.to_payload()) == canonical_json(
            plain_report.to_payload()
        )
    return plain_times, checkpointed_times, plain_report, outcome, saves


@pytest.mark.benchmark(group="resilience")
def test_checkpoint_overhead_is_negligible(benchmark, tmp_path):
    plain_times, checkpointed_times, plain_report, outcome, saves = benchmark.pedantic(
        lambda: run_legs(tmp_path), rounds=1, iterations=1
    )
    plain_cpu = min(cpu for cpu, _ in plain_times)
    checkpointed_cpu = min(cpu for cpu, _ in checkpointed_times)
    plain_wall = min(seconds for _, seconds in plain_times)
    checkpointed_wall = min(seconds for _, seconds in checkpointed_times)
    overhead = checkpointed_cpu / plain_cpu - 1.0
    print_table(
        f"RESIL — constructive n={CONTEXT.n} survey: plain vs checkpointed "
        f"(best of {ROUNDS})",
        ["path", "cpu (s)", "wall (s)", "orbits", "weighted runs", "checkpoints"],
        [
            (
                "plain",
                f"{plain_cpu:.3f}",
                f"{plain_wall:.3f}",
                outcome.cursor,
                plain_report.runs_checked,
                0,
            ),
            (
                "checkpointed",
                f"{checkpointed_cpu:.3f}",
                f"{checkpointed_wall:.3f}",
                outcome.cursor,
                outcome.value.runs_checked,
                saves,
            ),
        ],
    )
    print(
        f"\ncheckpoint overhead (cpu): {overhead * 100:+.1f}% "
        f"(gate: <= {MAX_OVERHEAD * 100:.0f}%)"
    )
    record_benchmark(
        "resilience",
        {
            "max_overhead_gate": MAX_OVERHEAD,
            "n": CONTEXT.n,
            "t": CONTEXT.t,
            "k": CONTEXT.k,
            "restrictions": {key: value for key, value in RESTRICTIONS.items()},
            "orbits": outcome.cursor,
            "weighted_runs": outcome.value.runs_checked,
            "checkpoint_saves": saves,
            "plain_cpu_seconds": plain_cpu,
            "checkpointed_cpu_seconds": checkpointed_cpu,
            "plain_seconds": plain_wall,
            "checkpointed_seconds": checkpointed_wall,
            "overhead_fraction": overhead,
            # compare_bench convention: the trajectory leaf is a speedup-like
            # ratio (plain over checkpointed; ~1.0 when resilience is free).
            "speedup": plain_cpu / checkpointed_cpu,
        },
    )
    assert saves >= 3, f"expected several checkpoint flushes, got {saves}"
    assert overhead <= MAX_OVERHEAD, (
        f"checkpointed sweep is {overhead * 100:.1f}% slower than plain "
        f"({checkpointed_cpu:.3f}s vs {plain_cpu:.3f}s cpu); gate is "
        f"{MAX_OVERHEAD * 100:.0f}%"
    )
