"""STORE — durable result store: warm-census speedup and cold write overhead.

The result store (``repro.store``, ``docs/store.md``) memoises a survey's
verdicts across runs; this benchmark gates its two contract numbers on the
flagship n=6, k=2, m=2 census (the 5316-vertex / 32298-facet complex of
``bench_prop2_connectivity.py``):

- **warm census speedup >= 3x** (``STORE_MIN_SPEEDUP`` relaxes): a repeat
  census against a populated store must beat the storeless census by at
  least 3x CPU.  The warm path answers from the whole-row memo tier without
  grouping a single vertex — the measured number is hundreds-of-x, the gate
  guards the *tier* (a regression to per-class reads alone caps below 2x,
  because class grouping dominates the storeless census at this scale);
- **cold write overhead < 5% CPU** (``STORE_MAX_OVERHEAD`` relaxes): the
  store-populating first run must cost under 5% extra CPU over the
  storeless *survey* — build plus census, which is what a cold run pays
  end to end.  The complex build dominates a cold survey and touches the
  store not at all, so the gate bounds the real user-facing cost of
  leaving ``--store`` always on.

An ungated **cold-sweep row** records what the store costs a checker sweep
(the n=5 t=3 mcr=2 Optmin[2] job, 45,708 orbits): the storeless and the
cold-store sweep, and the microseconds per orbit spent building item keys,
in ``ResultStore.put`` and in ``ResultStore.flush`` (each call timed by a
wrapping subclass, so the ``put`` figure includes ~0.1 µs of wrapper).

The gates are on CPU time (min of three interleaved rounds), mirroring
``bench_resilience.py``: the costs being resolved — key serialisation,
SHA-256 digests, SQLite commits — are CPU/syscall work, and wall clock on
shared runners is noisier than the margins.  Identity is asserted, not
assumed: every round's cold and warm census rows must equal the storeless
round's exactly — a store that changed the answer would be a bug, not a
speedup.
"""

from __future__ import annotations

import os
import time as wall

import pytest

from repro.adversaries import RestrictedSpace
from repro.core import OptMin
from repro.model import Context
from repro.pipeline import DEFAULT_BATCH_SIZE
from repro.runtime import resilient_census, resilient_check
from repro.store import ResultStore, adversary_keys
from repro.topology import build_restricted_complex

from conftest import print_table, record_benchmark

MIN_SPEEDUP = float(os.environ.get("STORE_MIN_SPEEDUP", "3"))
MAX_OVERHEAD = float(os.environ.get("STORE_MAX_OVERHEAD", "0.05"))

#: The flagship PROP2 case: n=6, k=2, m=2 — ~260k adversaries, 5316
#: vertices, 32298 facets, 35 star-isomorphism classes.
CONTEXT = Context(n=6, t=5, k=2)
TIME = 2
ROUNDS = 3


def run_legs(tmp_path):
    """Build once, then interleaved storeless/cold/warm census rounds."""
    cpu0, wall0 = wall.process_time(), wall.perf_counter()
    pc = build_restricted_complex(
        CONTEXT, time=TIME, max_crashes_per_round=CONTEXT.k
    )
    build_cpu, build_wall = wall.process_time() - cpu0, wall.perf_counter() - wall0

    base_times, cold_times, warm_times = [], [], []
    base = cold = warm = None
    populated = {}
    for round_index in range(ROUNDS):
        cpu0, wall0 = wall.process_time(), wall.perf_counter()
        base = resilient_census(pc, CONTEXT.k)
        base_times.append((wall.process_time() - cpu0, wall.perf_counter() - wall0))

        path = os.path.join(str(tmp_path), f"store-{round_index}.sqlite")
        cold_store = ResultStore(path)
        cpu0, wall0 = wall.process_time(), wall.perf_counter()
        cold = resilient_census(
            pc, CONTEXT.k, result_store=cold_store
        )
        cold_times.append((wall.process_time() - cpu0, wall.perf_counter() - wall0))
        populated = cold_store.counts()["kinds"]
        cold_store.close()

        warm_store = ResultStore(path)
        cpu0, wall0 = wall.process_time(), wall.perf_counter()
        warm = resilient_census(
            pc, CONTEXT.k, result_store=warm_store
        )
        warm_times.append((wall.process_time() - cpu0, wall.perf_counter() - wall0))

        # The store must change when work happens, never what is computed:
        # byte-identical census rows, every round.
        assert cold.value.row == base.value.row == warm.value.row
        assert cold.value.classes == base.value.classes == warm.value.classes
        # The warm run was served by the whole-row tier: one read, no
        # grouping, no homology.
        assert warm_store.hits == 1 and warm_store.misses == 0
        assert warm.value.homology_runs == 0
        warm_store.close()

    # The cold run actually populated every tier.
    assert populated["census_class"] == base.value.classes
    assert populated["profile"] == base.value.homology_runs
    assert populated["census_row"] == 1
    return (build_cpu, build_wall), base_times, cold_times, warm_times, base.value


#: The cold-sweep row: the largest cold job of the repository benchmark.
SWEEP_SPACE = RestrictedSpace(Context(n=5, t=3, k=2), max_crash_round=2)


class TimedStore(ResultStore):
    """A result store that sums the wall time of its ``put`` and ``flush`` calls."""

    def __init__(self, path):
        super().__init__(path)
        self.put_seconds = self.flush_seconds = 0.0

    def put(self, *args):
        start = wall.perf_counter()
        super().put(*args)
        self.put_seconds += wall.perf_counter() - start

    def flush(self):
        start = wall.perf_counter()
        rows = super().flush()
        self.flush_seconds += wall.perf_counter() - start
        return rows


def run_sweep_legs(tmp_path):
    """Interleaved storeless / cold-store sweeps, plus the per-orbit split."""
    t = SWEEP_SPACE.context.t
    base_times, cold_times, splits = [], [], []
    for round_index in range(ROUNDS):
        start = wall.perf_counter()
        base = resilient_check(OptMin(2), SWEEP_SPACE, t)
        base_times.append(wall.perf_counter() - start)

        store = TimedStore(os.path.join(str(tmp_path), f"sweep-{round_index}.sqlite"))
        start = wall.perf_counter()
        cold = resilient_check(OptMin(2), SWEEP_SPACE, t, result_store=store)
        cold_times.append(wall.perf_counter() - start)
        store.close()
        assert cold.value.to_payload() == base.value.to_payload()
        assert store.row_writes == cold.cursor
        splits.append((store.put_seconds, store.flush_seconds))

    orbits = [orbit.representative for orbit in SWEEP_SPACE.orbits()]
    start = wall.perf_counter()
    for begin in range(0, len(orbits), DEFAULT_BATCH_SIZE):
        adversary_keys(orbits[begin : begin + DEFAULT_BATCH_SIZE])
    keys_seconds = wall.perf_counter() - start
    per_orbit = 1e6 / len(orbits)
    return {
        "orbits": len(orbits),
        "storeless_seconds": min(base_times),
        "cold_store_seconds": min(cold_times),
        "keys_us_per_orbit": keys_seconds * per_orbit,
        "put_us_per_orbit": min(put for put, _ in splits) * per_orbit,
        "flush_us_per_orbit": min(flush for _, flush in splits) * per_orbit,
    }


@pytest.mark.benchmark(group="store")
def test_store_speedup_and_overhead(benchmark, tmp_path):
    build, base_times, cold_times, warm_times, census = benchmark.pedantic(
        lambda: run_legs(tmp_path), rounds=1, iterations=1
    )
    sweep = run_sweep_legs(tmp_path)
    build_cpu, build_wall = build
    base_cpu = min(cpu for cpu, _ in base_times)
    cold_cpu = min(cpu for cpu, _ in cold_times)
    warm_cpu = min(cpu for cpu, _ in warm_times)
    speedup = base_cpu / warm_cpu
    overhead = (cold_cpu - base_cpu) / (build_cpu + base_cpu)
    print_table(
        f"STORE — n={CONTEXT.n}, k={CONTEXT.k}, m={TIME} census: storeless vs "
        f"cold vs warm store (best of {ROUNDS})",
        ["leg", "cpu (s)", "wall (s)", "classes", "homology runs"],
        [
            ("build (shared)", f"{build_cpu:.3f}", f"{build_wall:.3f}", "-", "-"),
            (
                "storeless",
                f"{base_cpu:.4f}",
                f"{min(s for _, s in base_times):.4f}",
                census.classes,
                census.homology_runs,
            ),
            (
                "cold store",
                f"{cold_cpu:.4f}",
                f"{min(s for _, s in cold_times):.4f}",
                census.classes,
                census.homology_runs,
            ),
            (
                "warm store",
                f"{warm_cpu:.5f}",
                f"{min(s for _, s in warm_times):.5f}",
                census.classes,
                0,
            ),
        ],
    )
    print(
        f"\nwarm census speedup (cpu): {speedup:.0f}x (gate: >= {MIN_SPEEDUP:.0f}x)"
        f"\ncold survey overhead (cpu): {overhead * 100:+.2f}% "
        f"(gate: <= {MAX_OVERHEAD * 100:.0f}%)"
    )
    print_table(
        f"STORE — cold sweep, Optmin[2] n=5 t=3 mcr=2 ({sweep['orbits']} orbits, "
        f"best of {ROUNDS} wall, ungated)",
        ["storeless (s)", "cold store (s)", "keys (µs/orbit)", "put (µs/orbit)",
         "flush (µs/orbit)"],
        [(
            f"{sweep['storeless_seconds']:.3f}",
            f"{sweep['cold_store_seconds']:.3f}",
            f"{sweep['keys_us_per_orbit']:.2f}",
            f"{sweep['put_us_per_orbit']:.2f}",
            f"{sweep['flush_us_per_orbit']:.2f}",
        )],
    )
    record_benchmark(
        "store",
        {
            "min_speedup_gate": MIN_SPEEDUP,
            "max_overhead_gate": MAX_OVERHEAD,
            "n": CONTEXT.n,
            "k": CONTEXT.k,
            "m": TIME,
            "classes": census.classes,
            "homology_runs": census.homology_runs,
            "build_cpu_seconds": build_cpu,
            "base_cpu_seconds": base_cpu,
            "cold_cpu_seconds": cold_cpu,
            "warm_cpu_seconds": warm_cpu,
            "overhead_fraction": overhead,
            "speedup": speedup,
            "cold_sweep": sweep,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm census is only {speedup:.2f}x faster than storeless "
        f"({warm_cpu:.5f}s vs {base_cpu:.4f}s cpu); gate is {MIN_SPEEDUP:.0f}x"
    )
    assert overhead <= MAX_OVERHEAD, (
        f"cold store run adds {overhead * 100:.2f}% CPU over the storeless "
        f"survey ({cold_cpu:.4f}s vs {base_cpu:.4f}s census on a "
        f"{build_cpu:.1f}s build); gate is {MAX_OVERHEAD * 100:.0f}%"
    )
