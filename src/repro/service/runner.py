"""The job runner: leases jobs, drives resilient surveys, drains.

One :class:`JobRunner` is the execution half of the service: it claims
jobs off the :class:`repro.service.jobs.JobQueue`, rebuilds the survey
each spec describes and drives it through the resilient runners —
checkpointed batches, every recovery event forwarded into the job's
durable event log — with the result store attached so concurrent and
repeated jobs share verdicts.

The robustness contract, layer by layer:

* **crash of the runner** (``kill -9``, OOM): the lease lapses, another
  runner reclaims, and because all progress lives in the job's checkpoint
  directory (keyed by the job id, which *is* the spec identity) the
  reclaim resumes from the last batch boundary.  The chaos battery drives
  this with ``FaultPlan.kill_job_owner`` — a SIGKILL after a chosen number
  of checkpoint saves — and pins the reclaimed result byte-identical to an
  uninterrupted run;
* **liveness while working**: a daemon heartbeat thread extends the lease
  on its own queue cadence; a lost heartbeat (reclaim or cancellation)
  sets a flag the runner observes at the next batch boundary, abandoning
  work that is no longer its to finish;
* **drain on request** (SIGTERM/SIGINT/service deadline): a shared stop
  event is checked at every checkpoint boundary via a hook on the
  checkpoint store; tripping it raises :class:`DrainRequested` *after* the
  boundary checkpoint is flushed, so the lease is released with zero lost
  progress and the job returns to ``queued`` for the next runner;
* **budgets**: per-job wall-clock/RSS budgets ride the resilient runners'
  checkpoint-and-stop; a budget-stopped job is *released*, not failed —
  it resumes from its own boundary on the next claim.

Completion is conditional on still owning the lease (see
:meth:`JobQueue.complete`); a superseded runner's result is simply
discarded, which is safe because job execution is deterministic.
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
from typing import Any, Dict, Optional

from ..runtime import (
    DEFAULT_BATCH_SIZE,
    CheckpointStore,
    RunReport,
    resilient_census,
    resilient_check,
)
from .jobs import JobQueue, JobQueueError, default_owner
from . import specs as _specs


class DrainRequested(KeyboardInterrupt):
    """Raised at a checkpoint boundary to unwind a survey for drain/reclaim.

    Subclasses :class:`KeyboardInterrupt` deliberately: the resilient
    runners' interrupt handling (flush the boundary, record the event,
    re-raise) is exactly drain semantics, and the boundary checkpoint has
    already been written when the hook fires.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _HookedCheckpointStore(CheckpointStore):
    """A checkpoint store whose ``save`` doubles as the batch-boundary hook.

    Checkpoint saves are the one place the resilient runners touch after
    *every* batch, which makes them the natural drain/kill point: the save
    completes first (the boundary is durable), then the hook runs.
    """

    def __init__(self, directory: str, boundary_hook, **kwargs) -> None:
        super().__init__(directory, **kwargs)
        self._boundary_hook = boundary_hook

    def save(self, checkpoint) -> str:
        path = super().save(checkpoint)
        self._boundary_hook()
        return path


class _ForwardingReport(RunReport):
    """A RunReport that mirrors every event into the job's durable log.

    Forwarding is best-effort — a queue hiccup must not fail the survey —
    but the in-memory report is always complete, so nothing is lost to the
    returned outcome.
    """

    def __init__(self, queue: JobQueue, job_id: str) -> None:
        super().__init__()
        self._queue = queue
        self._job_id = job_id

    def record(self, kind: str, **detail: Any):
        event = super().record(kind, **detail)
        try:
            self._queue.append_event(self._job_id, kind, **detail)
        except (JobQueueError, TypeError, ValueError):
            pass
        return event


class JobRunner:
    """Claims and executes survey jobs against one queue + result store.

    ``workdir`` holds the runner's durable state: ``checkpoints/<job id>/``
    per job and (by default) the shared ``results.sqlite`` result store.
    Every knob mirrors the CLI's resilient flags; ``faults`` attaches the
    deterministic chaos plan.
    """

    def __init__(
        self,
        queue: JobQueue,
        workdir: str,
        *,
        owner: Optional[str] = None,
        store_path: Optional[str] = "auto",
        batch_size: int = DEFAULT_BATCH_SIZE,
        job_deadline_seconds: Optional[float] = None,
        max_rss_kb: Optional[int] = None,
        heartbeat_interval: Optional[float] = None,
        faults=None,
        report: Optional[RunReport] = None,
    ) -> None:
        self.queue = queue
        self.workdir = os.path.abspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        self.owner = owner if owner is not None else default_owner()
        if store_path == "auto":
            store_path = os.path.join(self.workdir, "results.sqlite")
        self.store_path = store_path
        self.batch_size = batch_size
        self.job_deadline_seconds = job_deadline_seconds
        self.max_rss_kb = max_rss_kb
        self.heartbeat_interval = heartbeat_interval
        self.faults = faults
        self.report = report if report is not None else RunReport()
        self.executed = 0
        self.released = 0
        self.failed = 0

    # ------------------------------------------------------------------ claims
    def checkpoint_dir(self, job_id: str) -> str:
        return os.path.join(self.workdir, "checkpoints", job_id[:24])

    def run_once(
        self, stop_event: Optional[threading.Event] = None
    ) -> Optional[Dict[str, Any]]:
        """Claim and execute one job; ``None`` when the queue is idle.

        Returns ``{"job": id, "outcome": "done" | "released" | "failed" |
        "superseded" | "drained"}`` for the executed job.
        """
        job = self.queue.claim(self.owner, lease_seconds=self.queue.lease_seconds)
        if job is None:
            return None
        outcome = self._execute(job, stop_event or threading.Event())
        return {"job": job["id"], "outcome": outcome}

    def run_forever(
        self, stop_event: threading.Event, poll_interval: float = 0.5
    ) -> Dict[str, int]:
        """Work the queue until ``stop_event`` is set (the serve loop)."""
        while not stop_event.is_set():
            try:
                result = self.run_once(stop_event)
            except JobQueueError as error:
                self.report.record("store_retry", operation="claim", error=str(error))
                stop_event.wait(poll_interval)
                continue
            if result is None:
                stop_event.wait(poll_interval)
        return {"executed": self.executed, "released": self.released, "failed": self.failed}

    # --------------------------------------------------------------- execution
    def _execute(self, job: Dict[str, Any], stop_event: threading.Event) -> str:
        job_id = job["id"]
        events = _ForwardingReport(self.queue, job_id)
        lease_lost = threading.Event()
        hb_stop = threading.Event()
        lease = self.queue.lease_seconds
        interval = (
            self.heartbeat_interval if self.heartbeat_interval is not None else lease / 3.0
        )

        def heartbeat_loop() -> None:
            while not hb_stop.wait(interval):
                try:
                    if not self.queue.heartbeat(job_id, self.owner, lease_seconds=lease):
                        lease_lost.set()
                        return
                except JobQueueError:
                    continue  # transient; the lease may still be extended next beat

        kill_after = (
            self.faults.job_owner_kill(job.get("claim_ordinal", -1))
            if self.faults is not None
            else None
        )
        boundary = {"saves": 0, "tripped": False}

        def boundary_hook() -> None:
            boundary["saves"] += 1
            if kill_after is not None and boundary["saves"] >= kill_after:
                # The dead-driver model: no unwinding, no lease release —
                # recovery is the next claimer's reclaim-and-resume.
                os.kill(os.getpid(), signal.SIGKILL)
            if boundary["tripped"]:
                return
            if lease_lost.is_set():
                boundary["tripped"] = True
                raise DrainRequested("lease_lost")
            if stop_event.is_set():
                boundary["tripped"] = True
                raise DrainRequested("drain")

        heartbeat = threading.Thread(target=heartbeat_loop, daemon=True)
        heartbeat.start()
        result_store = None
        try:
            if self.store_path is not None:
                from ..store import ResultStore

                result_store = ResultStore(
                    self.store_path, faults=self.faults, report=events
                )
            outcome = self._run_survey(job, events, result_store, boundary_hook)
        except DrainRequested as drain:
            # The boundary checkpoint is flushed; give the lease back so the
            # next runner (or this one, post-restart) resumes seamlessly.
            self.released += 1
            if drain.reason != "lease_lost":
                self.queue.release(job_id, self.owner, reason=drain.reason)
            return "drained"
        except JobQueueError:
            raise
        except Exception as error:  # deterministic failure: do not retry
            self.failed += 1
            detail = "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
            self.queue.fail(job_id, self.owner, detail, retry=False)
            return "failed"
        finally:
            hb_stop.set()
            heartbeat.join(timeout=5.0)
            if result_store is not None:
                result_store.close()
        if not outcome.completed:
            # Budget stop: checkpointed, resumable — back to the queue.
            self.released += 1
            self.queue.release(job_id, self.owner, reason=outcome.stop_reason or "budget")
            return "released"
        payload = self._result_payload(job["spec"], outcome)
        self.executed += 1
        if self.queue.complete(job_id, self.owner, payload):
            return "done"
        # A reclaimer beat us to it (or the job was cancelled): identical
        # deterministic result either way — drop ours.
        return "superseded"

    def _run_survey(self, job, events, result_store, boundary_hook):
        spec = job["spec"]
        store = _HookedCheckpointStore(
            self.checkpoint_dir(job["id"]),
            boundary_hook,
            faults=self.faults,
            report=events,
        )
        if spec["kind"] == "sweep":
            protocol = _specs.build_protocol(spec)
            space = _specs.build_space(spec)
            return resilient_check(
                protocol,
                space,
                spec["t"],
                symmetry=spec["symmetry"],
                batch_size=self.batch_size,
                store=store,
                resume=True,
                result_store=result_store,
                deadline_seconds=self.job_deadline_seconds,
                max_rss_kb=self.max_rss_kb,
                enforce_paper_bound=spec["enforce_paper_bound"],
                report=events,
            )
        from ..model import Context
        from ..topology import build_restricted_complex

        context = Context(n=spec["n"], t=spec["t"], k=spec["k"])
        pc = build_restricted_complex(context, time=spec["time"])
        return resilient_census(
            pc,
            spec["k"],
            # Census "constructive" normalizes to "quotient"; this fold keeps
            # jobs queued before that normalization on their checkpoint spec.
            symmetry="none" if spec["symmetry"] == "none" else "quotient",
            # The fixed engine field keeps the CLI's census checkpoint spec.
            spec_extra={"n": spec["n"], "t": spec["t"], "engine": "batch"},
            store=store,
            resume=True,
            result_store=result_store,
            deadline_seconds=self.job_deadline_seconds,
            max_rss_kb=self.max_rss_kb,
            report=events,
        )

    @staticmethod
    def _result_payload(spec: Dict[str, Any], outcome) -> Dict[str, Any]:
        """The durable, deterministic result row of a completed job.

        Byte-identical across interrupted/resumed and uninterrupted
        executions of the same spec — which is why the census's
        ``homology_runs`` bookkeeping (legitimately execution-dependent) is
        excluded.
        """
        if spec["kind"] == "sweep":
            report = outcome.value
            return {"kind": "sweep", "ok": report.ok, "report": report.to_payload()}
        census = outcome.value
        return {
            "kind": "census",
            "vertices": census.vertices,
            "high_capacity": census.high_capacity,
            "consistent": census.consistent,
            "connected_stars": census.connected_stars,
            "connected_high": census.connected_high,
            "classes": census.classes,
            "holds": census.consistent == census.high_capacity,
        }
