"""Multi-process store access: concurrent surveys sharing one store file.

The store's WAL + ``BEGIN IMMEDIATE`` + ``INSERT OR IGNORE`` discipline
claims that any number of surveys may share one store file: writers race
benignly (the values are deterministic, first writer wins), no committed
row is ever lost, and every survey's *output* is byte-identical to a
store-disabled run.  This battery proves it with real processes — two
supervised sweeps folding the same space into one store concurrently —
rather than two connections in one process.

Workers are module-level functions (spawn-context picklability) and use
small batches so the writers genuinely interleave at commit time.
"""

from __future__ import annotations

import multiprocessing

from repro.adversaries.enumeration import RestrictedSpace
from repro.core import OptMin
from repro.model import Context
from repro.runtime import canonical_json, resilient_check
from repro.store import ResultStore

CONTEXT = Context(n=4, t=2, k=2)


def _space() -> RestrictedSpace:
    return RestrictedSpace(
        CONTEXT, max_crash_round=1, receiver_policy="canonical"
    )


def _sweep_worker(store_path: str, queue) -> None:
    """One survey process: sweep the space through the shared store."""
    store = ResultStore(store_path, busy_timeout_ms=20000)
    try:
        outcome = resilient_check(
            OptMin(2),
            _space(),
            CONTEXT.t,
            batch_size=8,  # small batches: many commits, real interleaving
            result_store=store,
        )
        queue.put(
            {
                "signature": canonical_json(outcome.value.to_payload()),
                "completed": outcome.completed,
                "hits": store.hits,
                "misses": store.misses,
                "dropped": store.dropped_writes,
                "degraded": store.disabled_reason,
            }
        )
    finally:
        store.close()


class TestConcurrentStoreAccess:
    def test_two_surveys_share_one_store_file(self, tmp_path):
        store_path = str(tmp_path / "shared.sqlite")
        space = _space()
        plain = resilient_check(
            OptMin(2), space, CONTEXT.t, batch_size=8
        )
        plain_signature = canonical_json(plain.value.to_payload())
        orbits = space.orbit_count()

        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        workers = [
            context.Process(target=_sweep_worker, args=(store_path, queue))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        results = [queue.get(timeout=300) for _ in workers]
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0

        for result in results:
            # Byte-identical output vs the store-disabled run, both workers.
            assert result["completed"]
            assert result["signature"] == plain_signature
            # Neither worker degraded or lost a write to lock contention.
            assert result["degraded"] is None
            assert result["dropped"] == 0
            # Each worker accounted for the whole stream, one way or another.
            assert result["hits"] + result["misses"] == orbits

        # No lost rows: every orbit's verdict is durably present exactly once
        # (INSERT OR IGNORE collapses the racing duplicates).
        audit = ResultStore(store_path)
        counts = audit.counts()
        assert counts["kinds"] == {"check": orbits}
        assert audit.verify() == {"checked": orbits, "corrupt": 0}
        audit.close()

        # No double-compute beyond races: the two workers' combined misses
        # cover the space at least once (someone computed each verdict) and
        # at most twice (a worker never recomputes a row it already sees).
        total_misses = sum(result["misses"] for result in results)
        assert orbits <= total_misses <= 2 * orbits

    def test_warm_store_after_concurrent_writes_is_fully_hit(self, tmp_path):
        store_path = str(tmp_path / "shared.sqlite")
        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        workers = [
            context.Process(target=_sweep_worker, args=(store_path, queue))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for _ in workers:
            queue.get(timeout=300)
        for worker in workers:
            worker.join(timeout=60)

        store = ResultStore(store_path)
        outcome = resilient_check(
            OptMin(2),
            _space(),
            CONTEXT.t,
            batch_size=8,
            result_store=store,
        )
        plain = resilient_check(OptMin(2), _space(), CONTEXT.t, batch_size=8)
        assert canonical_json(outcome.value.to_payload()) == canonical_json(
            plain.value.to_payload()
        )
        assert store.misses == 0 and store.hits == _space().orbit_count()
        store.close()
