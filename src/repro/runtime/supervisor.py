"""A supervised worker pool: chunk execution that survives its executors.

``multiprocessing.Pool.map`` has exactly one failure story: if a worker is
OOM-killed, wedges, or dies mid-task, the map blocks forever (the pool
respawns the process but the task it was holding is gone).  For hour-scale
surveys that is "a crash at hour three loses everything".  This module is
the replacement executor the engine's sharded passes run on when a
:class:`SupervisionPolicy` is configured:

* workers are plain ``multiprocessing.Process``es, one duplex pipe each, so
  the supervisor always knows *which* chunk a worker was holding;
* a worker that dies (``is_alive()`` false / pipe EOF) is detected within a
  poll interval, its chunk is requeued, and a replacement is spawned;
* chunk attempts are bounded by a per-chunk timeout (the stuck-worker
  model: the worker is terminated and the chunk requeued);
* failed chunks retry with exponential backoff up to ``max_retries``, then
  are **quarantined**: re-executed serially in the parent, where a genuine
  poison chunk produces a real traceback instead of an endless kill loop;
* a pool that keeps losing workers (more than ``max_worker_respawns``
  replacements) is declared unrecoverable and the pass **degrades to
  serial** execution of the remaining chunks — slower, never dead;
* an absolute ``deadline`` aborts the pass with :class:`DeadlineExceeded`
  so the caller can checkpoint-and-stop instead of dying mid-flight.

Results are returned in task order regardless of retry/completion order, so
supervision is invisible in the products — the chunk-merge identity the
fused pass relies on is untouched (``tests/test_supervisor.py`` pins
supervised == serial under every injected fault).

Every recovery action lands on the :class:`repro.runtime.report.RunReport`
threaded in, and a :class:`repro.runtime.faults.FaultPlan` on the policy is
shipped to workers for deterministic chaos testing.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .faults import FaultPlan
from .report import RunReport


class DeadlineExceeded(RuntimeError):
    """The supervised pass hit its wall-clock deadline before completing."""


class SupervisionError(RuntimeError):
    """The supervised pass could not complete (quarantined chunk failed serially)."""


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the supervised executor (all times in seconds).

    ``chunk_timeout`` bounds one chunk *attempt* (``None`` disables);
    ``max_retries`` bounds re-executions per chunk before quarantine;
    backoff before retry ``i`` is ``min(backoff_cap, backoff_base·2^(i-1))``;
    ``max_worker_respawns`` bounds pool repair before serial degradation;
    ``deadline`` is an *absolute* ``time.monotonic()`` instant (the resilient
    runner derives it from its wall-clock budget).  ``faults`` attaches a
    deterministic chaos plan, shipped to every worker.
    """

    chunk_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_worker_respawns: int = 4
    poll_interval: float = 0.02
    deadline: Optional[float] = None
    faults: Optional[FaultPlan] = None

    def backoff(self, attempt: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2 ** max(attempt - 1, 0)))


def _worker_main(conn, worker_fn, initializer, initargs, faults) -> None:
    """Worker process body: install inputs, then serve chunk tasks until EOF.

    Module-level (not a closure) so spawn contexts can pickle it; everything
    it needs arrives as arguments, pickled once at process start.
    """
    if initializer is not None:
        initializer(*initargs)
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            chunk_id, attempt, payload = task
            try:
                if faults is not None:
                    faults.apply_chunk_faults(chunk_id, attempt)
                result = worker_fn(payload)
            except Exception as error:  # noqa: BLE001 - reported to the parent
                conn.send((chunk_id, False, f"{type(error).__name__}: {error}"))
            else:
                conn.send((chunk_id, True, result))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):  # parent gone / shutdown
        pass


@dataclass
class _Worker:
    """Supervisor-side handle of one worker process."""

    process: Any
    conn: Any
    #: Chunk id the worker is currently holding (``None`` = idle).
    task: Optional[int] = None
    started: float = 0.0

    def close(self, terminate: bool) -> None:
        try:
            if terminate and self.process.is_alive():
                self.process.terminate()
            else:
                try:
                    self.conn.send(None)  # graceful: drain and exit
                except (BrokenPipeError, OSError):
                    pass
        finally:
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.kill()
                self.process.join(timeout=2.0)
            self.conn.close()


@dataclass
class _PassState:
    """Bookkeeping of one supervised pass."""

    tasks: Sequence[Any]
    results: Dict[int, Any] = field(default_factory=dict)
    attempts: List[int] = field(default_factory=list)
    ready_at: List[float] = field(default_factory=list)
    pending: Deque[int] = field(default_factory=deque)

    def __post_init__(self) -> None:
        total = len(self.tasks)
        self.attempts = [0] * total
        self.ready_at = [0.0] * total
        self.pending = deque(range(total))

    @property
    def done(self) -> bool:
        return len(self.results) == len(self.tasks)

    def next_ready(self, now: float) -> Optional[int]:
        """Pop the first pending chunk whose backoff has elapsed (FIFO fair)."""
        for _ in range(len(self.pending)):
            chunk_id = self.pending.popleft()
            if self.ready_at[chunk_id] <= now:
                return chunk_id
            self.pending.append(chunk_id)
        return None

    def unfinished(self) -> List[int]:
        return [i for i in range(len(self.tasks)) if i not in self.results]


def run_supervised(
    worker_fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    context,
    processes: int,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    policy: Optional[SupervisionPolicy] = None,
    report: Optional[RunReport] = None,
) -> List[Any]:
    """Execute ``worker_fn`` over ``tasks`` on a supervised pool.

    Returns one result per task, in task order.  Raises
    :class:`DeadlineExceeded` when ``policy.deadline`` passes first (workers
    are torn down before raising), and propagates real exceptions from
    quarantined chunks' serial re-execution.  ``context`` is a resolved
    ``multiprocessing`` context (see
    :func:`repro.engine.fused.resolve_mp_context`).
    """
    policy = policy or SupervisionPolicy()
    report = report if report is not None else RunReport()
    if policy.faults is not None:
        report.record("fault_installed", plan=policy.faults.to_json())
    state = _PassState(tasks)
    if not tasks:
        return []
    supervisor = _Supervisor(
        worker_fn, state, context, min(processes, len(tasks)), initializer, initargs, policy, report
    )
    return supervisor.run()


class _Supervisor:
    """The event loop driving one supervised pass (see :func:`run_supervised`)."""

    def __init__(
        self, worker_fn, state, context, processes, initializer, initargs, policy, report
    ) -> None:
        self.worker_fn = worker_fn
        self.state = state
        self.context = context
        self.processes = processes
        self.initializer = initializer
        self.initargs = initargs
        self.policy = policy
        self.report = report
        self.workers: List[_Worker] = []
        self.respawns = 0
        self.degraded = False
        self._parent_initialized = False

    # ------------------------------------------------------------ lifecycle
    def run(self) -> List[Any]:
        try:
            try:
                self.workers = [self._spawn() for _ in range(self.processes)]
            except OSError as error:  # pragma: no cover - fork/spawn failure
                self._degrade(f"worker spawn failed: {error}")
            while not self.state.done:
                self._check_deadline()
                if self.degraded:
                    self._run_remaining_serially()
                    break
                self._dispatch()
                self._collect()
                self._police()
        finally:
            self._shutdown(terminate=True)
        return [self.state.results[i] for i in range(len(self.state.tasks))]

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        process = self.context.Process(
            target=_worker_main,
            args=(child_conn, self.worker_fn, self.initializer, self.initargs, self.policy.faults),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _shutdown(self, terminate: bool) -> None:
        for worker in self.workers:
            try:
                worker.close(terminate=terminate)
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self.workers = []

    def _check_deadline(self) -> None:
        if self.policy.deadline is not None and time.monotonic() > self.policy.deadline:
            raise DeadlineExceeded(
                f"supervised pass exceeded its deadline with "
                f"{len(self.state.unfinished())} of {len(self.state.tasks)} chunks unfinished"
            )

    # ------------------------------------------------------------- the loop
    def _dispatch(self) -> None:
        now = time.monotonic()
        for index, worker in enumerate(self.workers):
            if worker.task is not None or not self.state.pending:
                continue
            if not worker.process.is_alive():
                # An idle worker that died (e.g. killed while draining) is
                # replaced before it can be handed a chunk.
                self._replace(index, reason="idle worker died")
                worker = self.workers[index] if index < len(self.workers) else None
                if worker is None or self.degraded:
                    return
            chunk_id = self.state.next_ready(now)
            if chunk_id is None:
                return
            try:
                worker.conn.send((chunk_id, self.state.attempts[chunk_id], self.state.tasks[chunk_id]))
            except (BrokenPipeError, OSError):
                # Death raced the liveness check: requeue without burning an
                # attempt (the chunk never reached a worker) and repair.
                self.state.pending.appendleft(chunk_id)
                self._replace(index, reason="dispatch to dead worker")
                return
            worker.task = chunk_id
            worker.started = now

    def _collect(self) -> None:
        busy = {id(w.conn): w for w in self.workers if w.task is not None}
        if not busy:
            if self.state.pending:
                # Everything is backing off; sleep one poll tick.
                time.sleep(self.policy.poll_interval)
            return
        ready = connection.wait(
            [w.conn for w in busy.values()], timeout=self.policy.poll_interval
        )
        for conn in ready:
            worker = busy[id(conn)]
            try:
                chunk_id, ok, value = conn.recv()
            except (EOFError, OSError):
                continue  # dead worker: _police handles it via is_alive()
            worker.task = None
            if ok:
                self.state.results[chunk_id] = value
            else:
                self.report.record("chunk_error", chunk=chunk_id, error=value)
                self._failure(chunk_id, reason=f"error: {value}")

    def _police(self) -> None:
        now = time.monotonic()
        for index, worker in enumerate(list(self.workers)):
            if self.degraded:
                return
            if worker.task is None:
                continue
            chunk_id = worker.task
            if not worker.process.is_alive():
                exitcode = worker.process.exitcode
                self.report.record("worker_death", chunk=chunk_id, exitcode=exitcode)
                worker.task = None
                self._failure(chunk_id, reason=f"worker died (exitcode {exitcode})")
                self._replace(index, reason=f"worker death on chunk {chunk_id}")
            elif (
                self.policy.chunk_timeout is not None
                and now - worker.started > self.policy.chunk_timeout
            ):
                self.report.record(
                    "chunk_timeout",
                    chunk=chunk_id,
                    seconds=round(now - worker.started, 3),
                )
                worker.process.terminate()
                worker.task = None
                self._failure(chunk_id, reason="chunk timeout")
                self._replace(index, reason=f"timeout on chunk {chunk_id}")

    # ------------------------------------------------------------- recovery
    def _failure(self, chunk_id: int, reason: str) -> None:
        self.state.attempts[chunk_id] += 1
        attempt = self.state.attempts[chunk_id]
        if attempt > self.policy.max_retries:
            self.report.record(
                "quarantine", chunk=chunk_id, after_attempts=attempt, reason=reason
            )
            self.state.results[chunk_id] = self._run_in_parent(chunk_id)
            return
        delay = self.policy.backoff(attempt)
        self.report.record(
            "retry", chunk=chunk_id, attempt=attempt, backoff_seconds=delay, reason=reason
        )
        self.state.ready_at[chunk_id] = time.monotonic() + delay
        self.state.pending.append(chunk_id)

    def _replace(self, index: int, reason: str) -> None:
        dead = self.workers[index]
        try:
            dead.close(terminate=True)
        except Exception:  # pragma: no cover - teardown best effort
            pass
        self.respawns += 1
        if self.respawns > self.policy.max_worker_respawns:
            self.workers.pop(index)
            self._degrade(
                f"{self.respawns} worker replacements exceeded the budget "
                f"({self.policy.max_worker_respawns}); last: {reason}"
            )
            return
        try:
            self.workers[index] = self._spawn()
            self.report.record("worker_respawn", respawns=self.respawns, reason=reason)
        except OSError as error:  # pragma: no cover - spawn failure
            self.workers.pop(index)
            self._degrade(f"worker respawn failed: {error}")

    def _degrade(self, reason: str) -> None:
        self.degraded = True
        self.report.record("degrade_serial", reason=reason)
        # Requeue whatever in-flight workers were holding; the serial sweep
        # below picks every unfinished chunk up in task order.
        self._shutdown(terminate=True)

    def _run_in_parent(self, chunk_id: int):
        """Serial re-execution in the parent: the quarantine/degradation path.

        Runs without fault injection (faults model *worker* failures; a
        chunk that also fails here raises a real traceback to the caller —
        wrapped so the run report context is attached).
        """
        if not self._parent_initialized and self.initializer is not None:
            self.initializer(*self.initargs)
            self._parent_initialized = True
        try:
            return self.worker_fn(self.state.tasks[chunk_id])
        except Exception as error:
            raise SupervisionError(
                f"chunk {chunk_id} failed its serial re-execution after "
                f"{self.state.attempts[chunk_id]} supervised attempts: {error}"
            ) from error

    def _run_remaining_serially(self) -> None:
        for chunk_id in self.state.unfinished():
            self._check_deadline()
            self.state.results[chunk_id] = self._run_in_parent(chunk_id)
