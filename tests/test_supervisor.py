"""Supervised executor: recovery invisibility under every injected fault.

The contract of ``repro.runtime.supervisor``: whatever the fault plan does
to the workers — SIGKILLs, raised exceptions, stuck chunks — the results of
a supervised pass equal the serial results, in task order, and every
recovery action lands on the run report.  Also pins the explicit
``resolve_mp_context`` start-method resolution (the 3.12/3.14 fork
deprecation fix).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.engine import SweepRunner, resolve_mp_context
from repro.model import Context
from repro.core import OptMin
from repro.adversaries.enumeration import RestrictedSpace
from repro.runtime import (
    DeadlineExceeded,
    FaultPlan,
    RunReport,
    SupervisionError,
    SupervisionPolicy,
    run_supervised,
)


def square_chunk(payload):
    """Toy chunk worker (module-level: picklable under spawn)."""
    return [value * value for value in payload]


def failing_chunk(payload):
    raise RuntimeError("genuinely poisoned")


TASKS = [list(range(i, i + 4)) for i in range(0, 40, 4)]
EXPECTED = [square_chunk(task) for task in TASKS]


def _ensure_child_import_path(monkeypatch):
    """Make ``repro`` and this test module importable in spawn children."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    existing = os.environ.get("PYTHONPATH", "")
    parts = [p for p in (src, tests) if p not in existing.split(os.pathsep)]
    if parts:
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join(parts) + (os.pathsep + existing if existing else "")
        )


def supervised(policy=None, report=None, tasks=TASKS, worker=square_chunk, processes=2):
    return run_supervised(
        worker,
        tasks,
        context=resolve_mp_context(),
        processes=processes,
        policy=policy,
        report=report,
    )


class TestCleanPass:
    def test_results_in_task_order(self):
        assert supervised() == EXPECTED

    def test_empty_task_list(self):
        assert supervised(tasks=[]) == []

    def test_more_workers_than_tasks(self):
        assert supervised(tasks=TASKS[:1], processes=8) == EXPECTED[:1]

    def test_spawn_context_round_trip(self, monkeypatch):
        _ensure_child_import_path(monkeypatch)
        results = run_supervised(
            square_chunk,
            TASKS,
            context=resolve_mp_context("spawn"),
            processes=2,
        )
        assert results == EXPECTED


class TestFaultRecovery:
    def test_sigkilled_worker_is_detected_and_chunk_retried(self):
        report = RunReport()
        policy = SupervisionPolicy(faults=FaultPlan(kill_chunks={3: 1}), backoff_base=0.01)
        assert supervised(policy, report) == EXPECTED
        assert report.count("worker_death") == 1
        assert report.count("retry") == 1
        assert report.count("worker_respawn") == 1
        (death,) = report.of_kind("worker_death")
        assert death.detail["chunk"] == 3

    def test_raised_chunk_error_is_retried(self):
        report = RunReport()
        policy = SupervisionPolicy(faults=FaultPlan(fail_chunks={5: 1}), backoff_base=0.01)
        assert supervised(policy, report) == EXPECTED
        assert report.count("chunk_error") == 1
        assert report.count("retry") == 1
        # An in-worker exception is not a worker death: no respawn needed.
        assert report.count("worker_respawn") == 0

    def test_poison_chunk_is_quarantined_to_parent(self):
        report = RunReport()
        # Budget 99 failures on chunk 1: the injected fault outlives every
        # retry, so the chunk must be quarantined — and the parent-side
        # serial re-execution runs without fault injection, so it succeeds.
        policy = SupervisionPolicy(
            max_retries=1, faults=FaultPlan(fail_chunks={1: 99}), backoff_base=0.01
        )
        assert supervised(policy, report) == EXPECTED
        assert report.count("quarantine") == 1
        assert report.count("retry") == 1

    def test_stuck_chunk_times_out_and_retries(self):
        report = RunReport()
        policy = SupervisionPolicy(
            chunk_timeout=0.4,
            faults=FaultPlan(delay_chunks={0: (30.0, 1)}),
            backoff_base=0.01,
        )
        start = time.monotonic()
        assert supervised(policy, report) == EXPECTED
        assert time.monotonic() - start < 20.0  # the 30s sleep was cut short
        assert report.count("chunk_timeout") == 1
        assert report.count("retry") == 1

    def test_respawn_budget_exhaustion_degrades_to_serial(self):
        report = RunReport()
        policy = SupervisionPolicy(
            max_worker_respawns=0,
            faults=FaultPlan(kill_chunks={0: 99}),
            backoff_base=0.01,
        )
        assert supervised(policy, report) == EXPECTED
        assert report.count("degrade_serial") == 1

    def test_genuine_poison_raises_supervision_error(self):
        policy = SupervisionPolicy(max_retries=0)
        with pytest.raises(SupervisionError, match="serial re-execution"):
            supervised(policy, tasks=TASKS[:2], worker=failing_chunk)

    def test_deadline_aborts_the_pass(self):
        policy = SupervisionPolicy(
            deadline=time.monotonic() - 1.0, faults=FaultPlan(delay_chunks={0: (30.0, 1)})
        )
        with pytest.raises(DeadlineExceeded):
            supervised(policy)


class TestSupervisedSweep:
    """The engine-level hook: SweepRunner(..., supervision=...) == bare runs."""

    def family(self):
        context = Context(n=4, t=2, k=2)
        space = RestrictedSpace(
            context, max_crash_round=1, max_failures=1, receiver_policy="canonical"
        )
        return [orbit.representative for orbit in space.orbits()]

    @staticmethod
    def signature(runs):
        return [(run.decisions(), run.stop_time) for run in runs]

    def test_supervised_sweep_equals_serial_under_faults(self):
        family = self.family()
        serial = SweepRunner(OptMin(2), 2).sweep(family)
        report = RunReport()
        policy = SupervisionPolicy(
            faults=FaultPlan(kill_chunks={1: 1}, fail_chunks={2: 1}), backoff_base=0.01
        )
        runner = SweepRunner(
            OptMin(2), 2, processes=2, chunk_size=16, supervision=policy, runtime_report=report
        )
        assert self.signature(runner.sweep(family)) == self.signature(serial)
        assert report.count("worker_death") == 1
        assert report.count("chunk_error") == 1

    def test_supervision_off_is_the_bare_pool(self):
        family = self.family()
        serial = SweepRunner(OptMin(2), 2).sweep(family)
        pooled = SweepRunner(OptMin(2), 2, processes=2, chunk_size=16).sweep(family)
        assert self.signature(pooled) == self.signature(serial)


class TestResolveMpContext:
    def test_explicit_choice_is_honored(self):
        assert resolve_mp_context("spawn").get_start_method() == "spawn"

    def test_threaded_parent_falls_back_to_spawn(self):
        # Forking a multi-threaded parent is deprecated (3.12) and stops
        # being the Linux default in 3.14; the resolver must notice the
        # extra thread and pick spawn.
        release = threading.Event()
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
        try:
            assert resolve_mp_context().get_start_method() == "spawn"
        finally:
            release.set()
            thread.join(timeout=5.0)

    def test_single_threaded_parent_prefers_fork_where_available(self):
        import multiprocessing

        if threading.active_count() != 1:
            pytest.skip("test harness itself is multi-threaded")
        expected = (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        assert resolve_mp_context().get_start_method() == expected
