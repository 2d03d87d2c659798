"""Structured run reports: what the resilient runtime did to keep a run alive.

Every recovery action the runtime layer takes — a checkpoint write or
rejection, a resume, a budget stop, a store retry or quarantine — is
recorded as one :class:`RuntimeEvent` on the :class:`RunReport` threaded
through the layer.  The report is the *observability* half of fault
tolerance: a sweep that silently survived a torn checkpoint is
indistinguishable from a healthy one in its results (that is the point),
so the report is where the damage surfaces — in tests (the chaos battery
asserts the events it provoked), in the CLI (printed after a resilient
``sweep`` / ``census``), and in the structured ``to_dict`` form the
service layer ships.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: The event kinds the runtime emits (open set — consumers must tolerate new
#: kinds — but these are the ones the chaos battery and docs enumerate).
EVENT_KINDS = (
    "checkpoint_saved",  # a checkpoint was flushed (detail: cursor, path)
    "checkpoint_rejected",  # a stored checkpoint failed validation (detail: path, error)
    "resume",  # a run resumed from a checkpoint (detail: cursor)
    "deadline_stop",  # the wall-clock budget triggered checkpoint-and-stop
    "rss_stop",  # the peak-RSS budget triggered checkpoint-and-stop
    "interrupt",  # KeyboardInterrupt: final checkpoint flushed before unwinding
    "fault_installed",  # a deterministic fault plan is active (chaos runs only)
    "store_degraded",  # the result store is unusable; run degrades to pure compute
    "store_retry",  # a store operation hit SQLITE_BUSY and backed off
    "store_quarantined",  # a corrupt/mismatched store row was quarantined for recompute
    "store_write_failed",  # a store write batch was dropped (read-only, disk-full, lock)
    # Service-layer kinds (repro.service): emitted into the per-job event
    # log as well as onto the RunReport threaded through the job runner.
    "job_submitted",  # a job entered the queue (detail: job, kind)
    "job_claimed",  # a runner leased a queued job (detail: job, owner, attempt)
    "job_reclaimed",  # a runner leased a job whose previous lease expired
    "job_heartbeat_lost",  # an owner's heartbeat found its lease gone (reclaim or cancel)
    "job_released",  # an owner released its lease at a batch boundary (drain/budget)
    "job_completed",  # a job finished and its result row was committed
    "job_failed",  # a job exhausted its attempts (detail: job, error)
    "job_cancelled",  # a client cancelled the job
    "job_requeued",  # a failed/cancelled job was resubmitted
    "service_drain",  # the service began draining (SIGTERM/SIGINT or budget)
)


@dataclass(frozen=True)
class RuntimeEvent:
    """One recovery/bookkeeping action, with a monotonic timestamp."""

    kind: str
    detail: Dict[str, Any]
    at: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        fields = ", ".join(f"{key}={value}" for key, value in sorted(self.detail.items()))
        return f"{self.kind}({fields})"


@dataclass
class RunReport:
    """The ordered event log of one resilient run (checker sweep or census).

    Shared mutably down the stack: the runner, the checkpoint store and the
    result store all append to the same report, so the final log
    interleaves their actions in the order they happened.
    """

    events: List[RuntimeEvent] = field(default_factory=list)

    def record(self, kind: str, **detail: Any) -> RuntimeEvent:
        event = RuntimeEvent(kind, detail, time.monotonic())
        self.events.append(event)
        return event

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)

    def kinds(self) -> Dict[str, int]:
        """Event-kind histogram, in first-occurrence order."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        """The machine-readable form (event list + histogram)."""
        return {
            "counts": self.kinds(),
            "events": [
                {"kind": event.kind, **event.detail} for event in self.events
            ],
        }

    def summary(self) -> str:
        """One line: the event histogram, or a clean-run marker."""
        counts = self.kinds()
        if not counts:
            return "runtime: clean run (no recovery events)"
        rendered = ", ".join(f"{kind}={count}" for kind, count in counts.items())
        return f"runtime: {rendered}"
