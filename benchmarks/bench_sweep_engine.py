"""SWEEP — engineering benchmark: batch engine vs reference engine throughput.

Measures the prefix-sharing batch engine (:mod:`repro.engine`) against the
per-adversary reference ``Run`` on the workload the engine was built for:
exhaustive adversary sweeps of a small context (here n=5, t=2, k=2 — the
acceptance configuration of the engine).  Asserts both that the two engines
produce identical decisions and that the batch path is at least 3x faster;
the trie typically delivers well above that on enumeration-ordered streams,
so the assertion has a wide safety margin against timer noise.

It also records one ungated row: the constructive Optmin[2] sweep over
n=6, t=3, crash rounds <= 2 (the repository benchmark's sweep-n6), with
its wall time and the cyclic garbage collector's work during it — full
(generation-2) collections and collector seconds, read through
``gc.callbacks``.  The survey loop collects only the young generation at
batch boundaries, so full collections per sweep stay near zero.  The row
also records ``decide_calls``: how often the decision rule ran, counted in a
separate sweep of a counting subclass so the timed sweep stays
uninstrumented.  The engine evaluates it once per distinct local state of a
pass, not once per trie group.

Two more ungated rows record the peak memory of Optmin[2] sweeps too large
for a front held whole: the uncapped n=6 t=3 space (1,297,098 orbits) and
n=7 t=4 with crash rounds <= 2 (1,606,284 orbits).  Each runs in a fresh
interpreter, whose own peak RSS (``VmHWM``, as in ``bench_cold_start.py``)
is the row's ``peak_rss_mb``; the orbit stream is generated one batch at a
time, so it stays near the sweep-n6 figure.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time

import pytest

from repro import OptMin, Run, SweepRunner, UPMin
from repro.adversaries.enumeration import RestrictedSpace, enumerate_adversaries
from repro.model import Context
from repro.verification import check_protocol

from conftest import print_table, record_benchmark


CONTEXT = Context(n=5, t=2, k=2)
#: Exhaustive within the canonical-delivery, crash-round <= 2 restriction,
#: truncated so the (deliberately slow) reference pass stays benchmarkable.
SWEEP_LIMIT = 6000
#: Wall-clock ratios are noisy on shared runners (CPU steal, throttling);
#: CI lowers the gate via this env var while local/acceptance runs keep the
#: full 3x target.  Decision equality is always asserted regardless.
MIN_SPEEDUP = float(os.environ.get("SWEEP_ENGINE_MIN_SPEEDUP", "3.0"))

#: The ungated collector row's sweep: sweep-n6's space.
SWEEP_N6 = RestrictedSpace(
    Context(n=6, t=3, k=2), max_crash_round=2, max_failures=3, receiver_policy="canonical"
)


#: The ungated peak-memory rows: ``(name, n, t, max crash round)``.
MEMORY_SWEEPS = (
    ("n=6 t=3 uncapped", 6, 3, None),
    ("n=7 t=4 crash rounds <= 2", 7, 4, 2),
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_MEMORY_PROBE = """
import json, resource, sys, time
from repro.adversaries.enumeration import RestrictedSpace
from repro.core import OptMin
from repro.model import Context
from repro.verification import check_protocol
space = RestrictedSpace(Context(n={n}, t={t}, k=2), max_crash_round={max_crash_round!r})
start = time.perf_counter()
report = check_protocol(OptMin(2), space, {t})
wall = time.perf_counter() - start
try:
    with open("/proc/self/status") as status:
        rss = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss //= 1024 if sys.platform == "darwin" else 1
print(json.dumps({{"ok": report.ok, "runs_checked": report.runs_checked,
                  "wall_seconds": wall, "peak_rss_mb": rss / 1024}}))
"""


def _adversaries():
    return list(
        enumerate_adversaries(
            CONTEXT, max_crash_round=2, receiver_policy="canonical", limit=SWEEP_LIMIT
        )
    )


def _time_reference(protocol, adversaries, t):
    start = time.perf_counter()
    decisions = [Run(protocol, adversary, t).decisions() for adversary in adversaries]
    return decisions, time.perf_counter() - start


def _time_batch(runner, adversaries):
    start = time.perf_counter()
    decisions = [run.decisions() for run in runner.sweep(adversaries)]
    return decisions, time.perf_counter() - start


def run_comparison():
    """Returns (protocol name, adversary count, reference s, batch s, sharing) rows.

    Timings stay raw floats so the speedup gate never depends on display
    rounding; the table formats them at print time only.
    """
    adversaries = _adversaries()
    rows = []
    for protocol in (OptMin(CONTEXT.k), UPMin(CONTEXT.k)):
        runner = SweepRunner(protocol, CONTEXT.t)
        batch_decisions, batch_seconds = _time_batch(runner, adversaries)
        reference_decisions, reference_seconds = _time_reference(
            protocol, adversaries, CONTEXT.t
        )
        assert batch_decisions == reference_decisions
        rows.append(
            (
                protocol.name,
                len(adversaries),
                reference_seconds,
                batch_seconds,
                runner.last_report.sharing_factor,
            )
        )
    return rows


class CountingOptMin(OptMin):
    """Optmin[k] that counts its ``decide`` calls."""

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self.calls = 0

    def decide(self, ctx):
        self.calls += 1
        return super().decide(ctx)


def count_decide_calls() -> int:
    """``decide`` calls of one Optmin[2] sweep over sweep-n6's space."""
    protocol = CountingOptMin(2)
    report = check_protocol(protocol, SWEEP_N6, SWEEP_N6.context.t)
    assert report.ok
    return protocol.calls


def run_constructive_sweep():
    """The sweep-n6 constructive sweep's wall time and the collector's work during it."""
    collections = [0, 0, 0]
    collector_seconds = 0.0
    started = 0.0

    def count(phase, info):
        nonlocal collector_seconds, started
        if phase == "start":
            started = time.perf_counter()
        else:
            collector_seconds += time.perf_counter() - started
            collections[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        start = time.perf_counter()
        report = check_protocol(OptMin(2), SWEEP_N6, SWEEP_N6.context.t)
        wall_seconds = time.perf_counter() - start
    finally:
        gc.callbacks.remove(count)
    assert report.ok
    return {
        "orbits": SWEEP_N6.orbit_count(),
        "runs_checked": report.runs_checked,
        "wall_seconds": wall_seconds,
        "collector_seconds": collector_seconds,
        "collections": collections,
        "full_collections": collections[2],
        "decide_calls": count_decide_calls(),
    }


def run_memory_sweep(name, n, t, max_crash_round):
    """One Optmin[2] sweep in a fresh interpreter: its wall time and peak RSS."""
    code = _MEMORY_PROBE.format(n=n, t=t, max_crash_round=max_crash_round)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    row = json.loads(result.stdout.splitlines()[-1])
    assert row.pop("ok"), f"{name}: Optmin[2] sweep reported violations"
    space = RestrictedSpace(Context(n=n, t=t, k=2), max_crash_round=max_crash_round)
    return {"name": name, "orbits": space.orbit_count(), **row}


@pytest.mark.benchmark(group="sweep-engine")
def test_batch_engine_speedup(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    collector = run_constructive_sweep()
    memory = [run_memory_sweep(*sweep) for sweep in MEMORY_SWEEPS]
    print_table(
        f"SWEEP — batch vs reference engine on exhaustive n={CONTEXT.n}, t={CONTEXT.t} sweeps",
        ["protocol", "adversaries", "reference s", "batch s", "speedup", "layer sharing"],
        [
            (name, count, f"{ref:.2f}", f"{batch:.2f}", f"{ref / batch:.1f}x", f"{share:.0f}x")
            for name, count, ref, batch, share in rows
        ],
    )
    print_table(
        "SWEEP — constructive Optmin[2] sweep, n=6 t=3 crash rounds <= 2 (ungated)",
        ["orbits", "runs", "wall s", "collector s", "collections (gen 0/1/2)", "decide calls"],
        [
            (
                collector["orbits"],
                collector["runs_checked"],
                f"{collector['wall_seconds']:.2f}",
                f"{collector['collector_seconds']:.3f}",
                "/".join(map(str, collector["collections"])),
                collector["decide_calls"],
            )
        ],
    )
    print_table(
        "SWEEP — Optmin[2] sweep peak memory, fresh interpreter (ungated)",
        ["space", "orbits", "runs", "wall s", "peak RSS MB"],
        [
            (
                row["name"],
                row["orbits"],
                row["runs_checked"],
                f"{row['wall_seconds']:.1f}",
                f"{row['peak_rss_mb']:.1f}",
            )
            for row in memory
        ],
    )
    record_benchmark(
        "sweep_engine",
        {
            "context": {"n": CONTEXT.n, "t": CONTEXT.t, "k": CONTEXT.k},
            "constructive_sweep": collector,
            "memory_sweeps": memory,
            "min_speedup_gate": MIN_SPEEDUP,
            "results": [
                {
                    "protocol": name,
                    "adversaries": count,
                    "reference_seconds": ref,
                    "batch_seconds": batch,
                    "speedup": ref / batch,
                    "layer_sharing": share,
                }
                for name, count, ref, batch, share in rows
            ],
        },
    )
    for name, _count, reference_seconds, batch_seconds, _sharing in rows:
        assert reference_seconds >= MIN_SPEEDUP * batch_seconds, (
            f"{name}: batch engine speedup fell below {MIN_SPEEDUP}x "
            f"(reference {reference_seconds:.3f}s vs batch {batch_seconds:.3f}s)"
        )
