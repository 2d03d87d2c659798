"""Crash-safe job queue: leases, heartbeats, at-least-once survey jobs.

The scheduling half of survey-as-a-service, on the same SQLite discipline
as the PR 9 result store (WAL, ``BEGIN IMMEDIATE`` transactions, bounded
busy retry, schema-versioned tables — a queue file can even share the
store's database, the tables are disjoint).  The design is built around
three facts about this repo's workloads:

* **job identity is the spec hash** — a job *is* its normalized spec
  (:func:`repro.service.specs.normalize_spec`), and its primary key is the
  spec's identity hash, so submitting the same survey twice — from two
  processes, before or after a crash — lands on ONE row.  The second
  submitter attaches as a watcher (``submit`` returns the existing job);
* **execution is idempotent** — job progress lives in PR 8 checkpoints and
  PR 9 store rows keyed off the same spec identity, so a job executed 1.5
  times (the at-least-once case) folds the same deterministic stream to
  the same result; duplicated work costs time, never correctness;
* **owners die** — a runner that crashes mid-job takes nothing with it but
  its lease.  Claims write ``owner`` + ``lease_expires_at``; a live owner
  extends the lease by heartbeat; a claim finding a ``running`` job whose
  lease has lapsed *reclaims* it (``job_reclaimed`` event) and resumes
  from the last checkpoint boundary.  Completion is conditional on still
  holding the lease, so a zombie owner racing its reclaimer cannot
  clobber state transitions — whoever commits first wins, the results are
  byte-identical either way.

Every mutation appends a typed event to the per-job ``job_events`` log
(the service's observability surface, served by the ``/events`` endpoint).
Queue operations that cannot commit raise :class:`JobQueueError` — the
queue is the service's source of truth and must fail loudly, unlike the
result store, whose degradation contract is pure-compute fallback.

A :class:`repro.runtime.faults.FaultPlan` sabotages the queue
deterministically: ``drop_job_commit`` fails chosen commits non-
transiently, ``expire_lease`` writes chosen claims' leases already
expired, ``delay_heartbeat`` silently drops chosen heartbeats — which is
how the chaos battery proves reclaim, conditional completion and clean
commit failure actually engage.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

from ..store.keys import stable_key

#: Version of the jobs-table layout; a database recording another version
#: is refused (the queue is authoritative state — no silent degradation).
JOBS_SCHEMA = 1

#: Job lifecycle states.  queued -> running -> done|failed, with
#: cancelled reachable from queued/running and requeue reachable from
#: failed/cancelled (resubmit) and running (lease reclaim counts attempts).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    spec TEXT NOT NULL,
    state TEXT NOT NULL,
    owner TEXT,
    lease_expires_at REAL,
    heartbeat_at REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    submitted_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL,
    result TEXT,
    error TEXT
);
CREATE TABLE IF NOT EXISTS job_events (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id TEXT NOT NULL,
    kind TEXT NOT NULL,
    detail TEXT NOT NULL,
    at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS job_events_by_job ON job_events (job_id, seq);
"""

_JOB_COLUMNS = (
    "id, spec, state, owner, lease_expires_at, heartbeat_at, attempts, "
    "submitted_at, started_at, finished_at, result, error"
)


class JobQueueError(RuntimeError):
    """A queue operation could not commit (locked past retries, injected
    disk-full, foreign schema).  Callers surface it — 503 at the API,
    exit 1 at the CLI — rather than guessing at queue state."""


def default_owner() -> str:
    """A lease-owner identity unique across hosts, processes and restarts."""
    return f"{os.uname().nodename}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


class JobQueue:
    """One durable job queue file (see module docstring).

    Thread-safe: one connection serialized by an internal lock, so the
    async API's executor threads, the runner and its heartbeat thread can
    share an instance (or open their own — cross-process safety is the
    SQLite discipline's job).  ``lease_seconds`` is the default lease
    length claims and heartbeats extend by.
    """

    def __init__(
        self,
        path: str,
        *,
        lease_seconds: float = 30.0,
        busy_timeout_ms: int = 5000,
        max_retries: int = 4,
        backoff_base: float = 0.05,
        faults=None,
        report=None,
    ) -> None:
        self.path = os.path.abspath(path)
        self.lease_seconds = lease_seconds
        self.busy_timeout_ms = busy_timeout_ms
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.faults = faults
        self.report = report
        #: Fault-plan ordinals: committed write transactions, claims served,
        #: heartbeats attempted.
        self.commits = 0
        self.claims = 0
        self.heartbeats = 0
        self._lock = threading.RLock()
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        try:
            self._conn = sqlite3.connect(
                self.path, timeout=busy_timeout_ms / 1000.0, check_same_thread=False
            )
            self._conn.isolation_level = None  # explicit transactions only
            self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_TABLES)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('jobs_schema_version', ?)",
                (str(JOBS_SCHEMA),),
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'jobs_schema_version'"
            ).fetchone()
            version = int(row[0]) if row and str(row[0]).isdigit() else None
            if version != JOBS_SCHEMA:
                raise JobQueueError(
                    f"job queue {self.path} records schema version {version!r}; "
                    f"this runtime speaks version {JOBS_SCHEMA}"
                )
        except sqlite3.Error as error:
            raise JobQueueError(f"cannot open job queue {self.path}: {error}") from error

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- transactions
    def _record(self, kind: str, **detail: Any) -> None:
        if self.report is not None:
            self.report.record(kind, **detail)

    def _transaction(self, description: str, operation):
        """Run ``operation`` inside one ``BEGIN IMMEDIATE`` transaction.

        Bounded retry/backoff on SQLITE_BUSY; a ``drop_job_commit`` fault
        ordinal, or any non-transient error, raises :class:`JobQueueError`
        after rolling back — the queue never half-commits.
        """
        with self._lock:
            if self._conn is None:
                raise JobQueueError(f"job queue {self.path} is closed")
            attempt = 0
            while True:
                ordinal = self.commits
                try:
                    self._conn.execute("BEGIN IMMEDIATE")
                    try:
                        if self.faults is not None and self.faults.job_commit_dropped(ordinal):
                            raise sqlite3.OperationalError(
                                "database or disk is full (injected fault)"
                            )
                        value = operation(self._conn)
                        self._conn.execute("COMMIT")
                    except BaseException:
                        try:
                            self._conn.execute("ROLLBACK")
                        except sqlite3.Error:  # pragma: no cover - best-effort
                            pass
                        raise
                    self.commits += 1
                    return value
                except sqlite3.OperationalError as error:
                    self.commits += 1  # the attempt consumed a commit ordinal
                    message = str(error).lower()
                    transient = "locked" in message or "busy" in message
                    if not transient or attempt >= self.max_retries:
                        raise JobQueueError(f"{description} failed: {error}") from error
                    delay = self.backoff_base * (2 ** attempt)
                    self._record(
                        "store_retry",
                        operation=description,
                        attempt=attempt,
                        backoff_seconds=delay,
                        error=str(error),
                    )
                    time.sleep(delay)
                    attempt += 1
                except sqlite3.Error as error:
                    raise JobQueueError(f"{description} failed: {error}") from error

    def _query(self, sql: str, params=()):
        with self._lock:
            if self._conn is None:
                raise JobQueueError(f"job queue {self.path} is closed")
            try:
                return self._conn.execute(sql, params).fetchall()
            except sqlite3.Error as error:
                raise JobQueueError(f"query failed: {error}") from error

    @staticmethod
    def _job_dict(row) -> Dict[str, Any]:
        (
            job_id, spec, state, owner, lease_expires_at, heartbeat_at, attempts,
            submitted_at, started_at, finished_at, result, error,
        ) = row
        return {
            "id": job_id,
            "spec": json.loads(spec),
            "state": state,
            "owner": owner,
            "lease_expires_at": lease_expires_at,
            "heartbeat_at": heartbeat_at,
            "attempts": attempts,
            "submitted_at": submitted_at,
            "started_at": started_at,
            "finished_at": finished_at,
            "result": json.loads(result) if result is not None else None,
            "error": error,
        }

    def _append_event(self, conn, job_id: str, kind: str, **detail: Any) -> None:
        conn.execute(
            "INSERT INTO job_events (job_id, kind, detail, at) VALUES (?, ?, ?, ?)",
            (job_id, kind, json.dumps(detail, sort_keys=True), time.time()),
        )
        self._record(kind, job=job_id, **detail)

    # ------------------------------------------------------------------ submit
    def submit(self, job_id: str, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Enqueue (or attach to) the job with this identity.

        Idempotent by construction: ``job_id`` must be the spec's identity
        hash, so a concurrent or repeated submit of the same survey finds
        the existing row and returns it with ``created=False`` — the
        watcher contract.  A ``failed`` or ``cancelled`` job is requeued
        (``requeued=True``); queued/running/done jobs are returned as they
        are.  The returned dict is the job row plus the ``created`` /
        ``requeued`` flags.
        """
        spec_text = stable_key(spec)
        now = time.time()

        def operation(conn) -> Dict[str, Any]:
            created = requeued = False
            cursor = conn.execute(
                "INSERT OR IGNORE INTO jobs (id, spec, state, attempts, submitted_at) "
                "VALUES (?, ?, 'queued', 0, ?)",
                (job_id, spec_text, now),
            )
            if cursor.rowcount == 1:
                created = True
                self._append_event(conn, job_id, "job_submitted", job_kind=spec.get("kind"))
            else:
                row = conn.execute(
                    "SELECT state FROM jobs WHERE id = ?", (job_id,)
                ).fetchone()
                if row is not None and row[0] in ("failed", "cancelled"):
                    conn.execute(
                        "UPDATE jobs SET state = 'queued', owner = NULL, "
                        "lease_expires_at = NULL, error = NULL, finished_at = NULL "
                        "WHERE id = ?",
                        (job_id,),
                    )
                    requeued = True
                    self._append_event(conn, job_id, "job_requeued", previous=row[0])
            row = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            job = self._job_dict(row)
            job["created"] = created
            job["requeued"] = requeued
            return job

        return self._transaction("submit", operation)

    # ------------------------------------------------------------------- claim
    def claim(
        self, owner: str, lease_seconds: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """Lease the oldest runnable job to ``owner`` (``None`` when idle).

        Runnable means ``queued``, or ``running`` with a lapsed lease — the
        reclaim path: the previous owner is presumed dead (or too slow; the
        conditional completion keeps that race benign) and the job resumes
        from its checkpoints.  The claim, the lease write and the event
        append are one transaction, so two claimers cannot lease one job.
        """
        lease = self.lease_seconds if lease_seconds is None else lease_seconds
        now = time.time()

        def operation(conn) -> Optional[Dict[str, Any]]:
            row = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs "
                "WHERE state = 'queued' OR (state = 'running' AND lease_expires_at < ?) "
                "ORDER BY submitted_at, id LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            job = self._job_dict(row)
            ordinal = self.claims
            expires = now + lease
            if self.faults is not None and self.faults.lease_preexpired(ordinal):
                expires = now  # injected: the lease is born lapsed
            conn.execute(
                "UPDATE jobs SET state = 'running', owner = ?, lease_expires_at = ?, "
                "heartbeat_at = ?, attempts = attempts + 1, "
                "started_at = COALESCE(started_at, ?) WHERE id = ?",
                (owner, expires, now, now, job["id"]),
            )
            reclaimed = job["state"] == "running"
            self._append_event(
                conn,
                job["id"],
                "job_reclaimed" if reclaimed else "job_claimed",
                owner=owner,
                attempt=job["attempts"] + 1,
                **({"previous_owner": job["owner"]} if reclaimed else {}),
            )
            job.update(
                state="running",
                owner=owner,
                lease_expires_at=expires,
                heartbeat_at=now,
                attempts=job["attempts"] + 1,
                claim_ordinal=ordinal,
                reclaimed=reclaimed,
            )
            return job

        job = self._transaction("claim", operation)
        if job is not None:
            self.claims += 1
        return job

    def heartbeat(
        self, job_id: str, owner: str, lease_seconds: Optional[float] = None
    ) -> bool:
        """Extend ``owner``'s lease; False means the lease is gone.

        A False return is the owner's signal to stop working the job: it
        was reclaimed (slow heartbeat) or cancelled.  A ``delay_heartbeat``
        fault ordinal drops the beat without touching the database — the
        stuck-heartbeat model, after which the lease lapses under a live
        owner and the reclaim/conditional-completion pair is exercised.
        """
        ordinal = self.heartbeats
        self.heartbeats += 1
        if self.faults is not None and self.faults.heartbeat_dropped(ordinal):
            return True  # the owner believes the beat landed; the lease lapses
        lease = self.lease_seconds if lease_seconds is None else lease_seconds
        now = time.time()

        def operation(conn) -> bool:
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires_at = ?, heartbeat_at = ? "
                "WHERE id = ? AND owner = ? AND state = 'running'",
                (now + lease, now, job_id, owner),
            )
            if cursor.rowcount != 1:
                self._append_event(conn, job_id, "job_heartbeat_lost", owner=owner)
                return False
            return True

        return self._transaction("heartbeat", operation)

    # ------------------------------------------------------------- transitions
    def _conditional_transition(
        self, description: str, job_id: str, owner: str, event: str, updates: str,
        params, **detail: Any,
    ) -> bool:
        def operation(conn) -> bool:
            cursor = conn.execute(
                f"UPDATE jobs SET {updates} "
                "WHERE id = ? AND owner = ? AND state = 'running'",
                (*params, job_id, owner),
            )
            if cursor.rowcount != 1:
                return False
            self._append_event(conn, job_id, event, owner=owner, **detail)
            return True

        return self._transaction(description, operation)

    def complete(self, job_id: str, owner: str, result: Dict[str, Any]) -> bool:
        """Commit the result — iff ``owner`` still holds the lease.

        A False return means the job was reclaimed or cancelled underneath
        this owner; with deterministic jobs the reclaimer's result is
        byte-identical, so the loser simply discards its copy.
        """
        result_text = stable_key(result)
        return self._conditional_transition(
            "complete", job_id, owner, "job_completed",
            "state = 'done', result = ?, finished_at = ?, owner = NULL, "
            "lease_expires_at = NULL",
            (result_text, time.time()),
        )

    def fail(self, job_id: str, owner: str, error: str, *, retry: bool = False) -> bool:
        """Record a failed execution: requeue when ``retry`` else fail hard."""
        if retry:
            return self._conditional_transition(
                "fail", job_id, owner, "job_released",
                "state = 'queued', owner = NULL, lease_expires_at = NULL, error = ?",
                (error,), reason="retry", error=error,
            )
        return self._conditional_transition(
            "fail", job_id, owner, "job_failed",
            "state = 'failed', error = ?, finished_at = ?, owner = NULL, "
            "lease_expires_at = NULL",
            (error, time.time()), error=error,
        )

    def release(self, job_id: str, owner: str, reason: str = "drain") -> bool:
        """Give the lease back (drain/budget): the job returns to the queue.

        Progress is not lost — it lives in the job's checkpoints — so the
        next claimer resumes from the released boundary.
        """
        return self._conditional_transition(
            "release", job_id, owner, "job_released",
            "state = 'queued', owner = NULL, lease_expires_at = NULL",
            (), reason=reason,
        )

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a queued/running job; returns its prior state, or ``None``.

        A running job's owner learns of the cancellation at its next
        heartbeat or completion attempt (both conditional on the row still
        being ``running`` under its ownership) and abandons the work at the
        following batch boundary.  Done/failed/cancelled jobs are left
        untouched (``None`` is also returned for unknown ids — callers
        disambiguate with :meth:`job`).
        """

        def operation(conn) -> Optional[str]:
            row = conn.execute("SELECT state FROM jobs WHERE id = ?", (job_id,)).fetchone()
            if row is None or row[0] not in ("queued", "running"):
                return None
            conn.execute(
                "UPDATE jobs SET state = 'cancelled', owner = NULL, "
                "lease_expires_at = NULL, finished_at = ? WHERE id = ?",
                (time.time(), job_id),
            )
            self._append_event(conn, job_id, "job_cancelled", previous=row[0])
            return row[0]

        return self._transaction("cancel", operation)

    # ------------------------------------------------------------------ queries
    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        rows = self._query(f"SELECT {_JOB_COLUMNS} FROM jobs WHERE id = ?", (job_id,))
        return self._job_dict(rows[0]) if rows else None

    def jobs(self, state: Optional[str] = None, limit: int = 100) -> List[Dict[str, Any]]:
        """Jobs newest-first, optionally filtered by state."""
        if state is not None and state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}; choose from {JOB_STATES}")
        if state is None:
            rows = self._query(
                f"SELECT {_JOB_COLUMNS} FROM jobs ORDER BY submitted_at DESC, id LIMIT ?",
                (limit,),
            )
        else:
            rows = self._query(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE state = ? "
                "ORDER BY submitted_at DESC, id LIMIT ?",
                (state, limit),
            )
        return [self._job_dict(row) for row in rows]

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        """The job's event log, oldest first."""
        rows = self._query(
            "SELECT seq, kind, detail, at FROM job_events WHERE job_id = ? ORDER BY seq",
            (job_id,),
        )
        return [
            {"seq": seq, "kind": kind, "at": at, **json.loads(detail)}
            for seq, kind, detail, at in rows
        ]

    def append_event(self, job_id: str, kind: str, **detail: Any) -> None:
        """Append one event outside a state transition (runner telemetry)."""
        self._transaction(
            "event", lambda conn: self._append_event(conn, job_id, kind, **detail)
        )

    def depth(self) -> int:
        """Outstanding work: queued + running jobs (the backpressure gauge)."""
        rows = self._query(
            "SELECT COUNT(*) FROM jobs WHERE state IN ('queued', 'running')"
        )
        return rows[0][0]

    def counts(self) -> Dict[str, int]:
        """Job counts per state (zero-filled), for health and admin output."""
        counts = {state: 0 for state in JOB_STATES}
        for state, count in self._query(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ):
            counts[state] = count
        return counts
