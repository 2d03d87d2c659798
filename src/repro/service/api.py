"""The survey service: a stdlib-only async HTTP front end over the job queue.

Hand-rolled HTTP/1.1 on :func:`asyncio.start_server` — no web framework,
because the repo's dependency contract is "stdlib only" and a
survey API needs exactly six endpoints:

====== ============================ ==========================================
method path                         behaviour
====== ============================ ==========================================
POST   ``/jobs``                    submit a spec (validated, admitted, deduped)
GET    ``/jobs``                    list jobs (``?state=``, ``?limit=``)
GET    ``/jobs/<id>``               job status row
GET    ``/jobs/<id>/result``        terminal result (409 + Retry-After until then)
GET    ``/jobs/<id>/events``        the job's durable event log
POST   ``/jobs/<id>/cancel``        cancel a queued/running job
GET    ``/healthz``                 liveness (200 while the process runs)
GET    ``/readyz``                  readiness (503 draining; degraded is honest)
====== ============================ ==========================================

Three admission gates run *before* a submit touches the queue, in order of
increasing cost:

1. **validation** — :func:`repro.service.specs.normalize_spec`; malformed
   specs are a 400 with the exact field complaint;
2. **tractability** — :func:`repro.service.specs.admission`; a spec whose
   closed-form workload exceeds the ceiling (an n=8 exhaustive sweep) is a
   422 with the counts that condemn it, without enumerating anything;
3. **backpressure** — a bounded queue depth; past it the service answers
   429 with ``Retry-After`` instead of accepting work it cannot start.

Duplicate submits are free: the job id is the spec hash, so a second
client submitting the same survey gets the same id back (``created:
false``) and simply watches the existing job — the queue-side
``INSERT OR IGNORE`` makes this race-proof across processes too.

Degradation is reported honestly: ``/readyz`` stays 200 when the result
store is degraded or carries quarantined rows (the service still serves —
surveys recompute instead of memoizing) but labels the state ``degraded``
with the reason, and goes 503 only when the queue itself is unusable or
the service is draining.

Blocking queue/sqlite calls are pushed onto the default executor so the
event loop never stalls on a lease transaction.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from ..runtime import RunReport
from ..runtime.faults import FaultPlan
from .jobs import JobQueue, JobQueueError
from .runner import JobRunner
from . import specs as _specs

#: Request size guards (headers / body) — a survey spec is a few hundred bytes.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: Default bound on admitted-but-unfinished jobs before 429.
DEFAULT_MAX_DEPTH = 32

_REASON = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(Exception):
    """An error response: status + JSON payload (+ optional extra headers)."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: Optional[Dict[str, str]] = None,
        **extra: Any,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}
        self.headers = headers or {}


def _render(status: int, payload: Any, headers: Optional[Dict[str, str]] = None) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    lines = [
        f"HTTP/1.1 {status} {_REASON.get(status, 'Response')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for key, value in (headers or {}).items():
        lines.append(f"{key}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], Dict[str, str], bytes]:
    """Parse one request: (method, path, query params, headers, body)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request headers too large")
    except (asyncio.IncompleteReadError, ConnectionError):
        raise HttpError(400, "incomplete request")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request headers too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    parsed = urllib.parse.urlsplit(target)
    query = {
        key: values[-1]
        for key, values in urllib.parse.parse_qs(parsed.query).items()
    }
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"malformed Content-Length: {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            raise HttpError(400, "request body shorter than Content-Length")
    return method, parsed.path, query, headers, body


class SurveyService:
    """The queue, its runners, and the HTTP server, under one drain contract.

    ``start()`` opens the queue, spawns ``runners`` worker threads driving
    :class:`JobRunner.run_forever`, and binds the listener (``port=0``
    picks a free port, re-read from :attr:`port`).  ``drain()`` flips
    readiness to 503, stops the runners at their next batch boundary
    (leases released, checkpoints flushed), and unblocks
    :meth:`serve_until_drained`.
    """

    def __init__(
        self,
        queue_path: str,
        workdir: str,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
        lease_seconds: float = 30.0,
        ceiling: int = _specs.DEFAULT_ADMISSION_CEILING,
        max_depth: int = DEFAULT_MAX_DEPTH,
        runners: int = 1,
        processes: Optional[int] = None,
        batch_size: Optional[int] = None,
        max_retries: int = 2,
        job_deadline_seconds: Optional[float] = None,
        max_rss_kb: Optional[int] = None,
        store_path: Optional[str] = "auto",
        faults: Optional[FaultPlan] = None,
        report: Optional[RunReport] = None,
    ) -> None:
        self.queue_path = queue_path
        self.workdir = workdir
        self.host = host
        self.port = port
        self.lease_seconds = lease_seconds
        self.ceiling = ceiling
        self.max_depth = max_depth
        self.runner_count = max(0, runners)
        self.processes = processes
        self.batch_size = batch_size
        self.max_retries = max_retries
        self.job_deadline_seconds = job_deadline_seconds
        self.max_rss_kb = max_rss_kb
        self.store_path = store_path
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.report = report if report is not None else RunReport()
        self.queue: Optional[JobQueue] = None
        self.runners: List[JobRunner] = []
        self._threads: List[threading.Thread] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop = threading.Event()  # shared with runner batch-boundary hooks
        self._drained = asyncio.Event()
        self.draining = False
        self.drain_reason: Optional[str] = None
        if self.store_path == "auto":
            self.store_path = os.path.join(os.path.abspath(workdir), "results.sqlite")

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        if self.faults is not None:
            self.report.record("fault_installed", plan=self.faults.to_json())
        self.queue = JobQueue(
            self.queue_path,
            lease_seconds=self.lease_seconds,
            faults=self.faults,
            report=self.report,
        )
        runner_kwargs: Dict[str, Any] = dict(
            store_path=self.store_path,
            processes=self.processes,
            max_retries=self.max_retries,
            job_deadline_seconds=self.job_deadline_seconds,
            max_rss_kb=self.max_rss_kb,
            faults=self.faults,
            report=self.report,
        )
        if self.batch_size is not None:
            runner_kwargs["batch_size"] = self.batch_size
        for index in range(self.runner_count):
            # Each runner thread opens its own queue connection: sqlite
            # serialization happens in the database, not in shared Python
            # state, which is the same isolation two processes would have.
            runner_queue = JobQueue(
                self.queue_path,
                lease_seconds=self.lease_seconds,
                faults=self.faults,
                report=self.report,
            )
            runner = JobRunner(runner_queue, self.workdir, **runner_kwargs)
            thread = threading.Thread(
                target=runner.run_forever,
                args=(self._stop,),
                name=f"survey-runner-{index}",
                daemon=True,
            )
            self.runners.append(runner)
            self._threads.append(thread)
            thread.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_HEADER_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def drain(self, reason: str = "drain") -> None:
        """Begin graceful shutdown; idempotent, callable from any thread."""
        if self.draining:
            return
        self.draining = True
        self.drain_reason = reason
        self.report.record("service_drain", reason=reason)
        self._stop.set()

    async def serve_until_drained(self) -> None:
        """Serve requests until a drain completes (runners joined, leases back)."""
        assert self._server is not None
        loop = asyncio.get_running_loop()
        async with self._server:
            while not self.draining:
                await asyncio.sleep(0.05)
            # Runners observe the stop event at their next batch boundary,
            # flush that boundary's checkpoint, and release their leases;
            # the HTTP side keeps answering (healthz, status reads) so
            # clients watching jobs see the drain, not a dropped socket.
            for thread in self._threads:
                await loop.run_in_executor(None, thread.join)
        self._drained.set()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.queue is not None:
            self.queue.close()
        for runner in self.runners:
            runner.queue.close()

    # -------------------------------------------------------------- dispatching
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, _headers, body = await _read_request(reader)
                status, payload, headers = await self._route(method, path, query, body)
            except HttpError as error:
                status, payload, headers = error.status, error.payload, error.headers
            except JobQueueError as error:
                status, payload, headers = 503, {"error": f"job queue unavailable: {error}"}, {}
            except Exception as error:  # pragma: no cover - defensive surface
                status, payload, headers = 500, {"error": f"{type(error).__name__}: {error}"}, {}
            writer.write(_render(status, payload, headers))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _route(
        self, method: str, path: str, query: Dict[str, str], body: bytes
    ) -> Tuple[int, Any, Dict[str, str]]:
        segments = [segment for segment in path.split("/") if segment]
        if path == "/healthz":
            self._expect(method, "GET", path)
            return 200, {"status": "draining" if self.draining else "ok"}, {}
        if path == "/readyz":
            self._expect(method, "GET", path)
            return await self._readyz()
        if segments[:1] == ["jobs"]:
            if len(segments) == 1:
                if method == "POST":
                    return await self._submit(body)
                self._expect(method, "GET", path)
                return await self._list(query)
            job_id = segments[1]
            if len(segments) == 2:
                self._expect(method, "GET", path)
                return 200, await self._job(job_id), {}
            if len(segments) == 3 and segments[2] == "result":
                self._expect(method, "GET", path)
                return await self._result(job_id)
            if len(segments) == 3 and segments[2] == "events":
                self._expect(method, "GET", path)
                return await self._events(job_id)
            if len(segments) == 3 and segments[2] == "cancel":
                self._expect(method, "POST", path)
                return await self._cancel(job_id)
        raise HttpError(404, f"no such endpoint: {method} {path}")

    @staticmethod
    def _expect(method: str, allowed: str, path: str) -> None:
        if method != allowed:
            raise HttpError(
                405, f"{method} not allowed on {path}", headers={"Allow": allowed}
            )

    async def _call(self, operation):
        """Run a blocking queue operation off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(None, operation)

    # ----------------------------------------------------------------- handlers
    async def _readyz(self) -> Tuple[int, Any, Dict[str, str]]:
        if self.draining:
            return 503, {"status": "draining", "reason": self.drain_reason}, {}
        assert self.queue is not None
        try:
            counts = await self._call(self.queue.counts)
        except JobQueueError as error:
            return 503, {"status": "unready", "reason": f"job queue unusable: {error}"}, {}
        status: Dict[str, Any] = {"status": "ready", "jobs": counts}
        store_state = await self._call(self._store_health)
        if store_state is not None:
            # Honest degradation: still ready (surveys recompute instead of
            # memoizing), but say so rather than pretending full health.
            status["status"] = "degraded"
            status["store"] = store_state
        return 200, status, {}

    def _store_health(self) -> Optional[Dict[str, Any]]:
        if self.store_path is None or not os.path.exists(self.store_path):
            return None
        from ..store import ResultStore

        try:
            probe = ResultStore(self.store_path, read_only=True)
        except Exception as error:  # pragma: no cover - open degrades, not raises
            return {"state": "degraded", "reason": str(error)}
        try:
            counts = probe.counts()
            if not counts.get("available", False):
                return {"state": "degraded", "reason": counts.get("reason")}
            if counts.get("quarantined"):
                return {"state": "quarantined", "quarantined": counts["quarantined"]}
        except Exception as error:  # pragma: no cover - probe must not 500 readyz
            return {"state": "degraded", "reason": str(error)}
        finally:
            probe.close()
        return None

    async def _submit(self, body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        assert self.queue is not None
        if self.draining:
            raise HttpError(503, "service is draining; not accepting jobs")
        try:
            raw = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError) as error:
            raise HttpError(400, f"request body is not valid JSON: {error}")
        try:
            spec = _specs.normalize_spec(raw)
        except _specs.SpecError as error:
            raise HttpError(400, str(error))
        verdict = _specs.admission(spec, ceiling=self.ceiling)
        if not verdict["admit"]:
            raise HttpError(422, verdict["reason"], admission=verdict)
        job_id = _specs.job_id(spec)
        existing = await self._call(lambda: self.queue.job(job_id))
        if existing is None or existing["state"] in ("failed", "cancelled"):
            # Only genuinely new work counts against the backpressure bound;
            # duplicate submits attach to the existing job for free.
            depth = await self._call(self.queue.depth)
            if depth >= self.max_depth:
                retry_after = max(1, int(round(self.lease_seconds)))
                raise HttpError(
                    429,
                    f"queue depth {depth} at capacity ({self.max_depth}); retry later",
                    headers={"Retry-After": str(retry_after)},
                    depth=depth,
                    max_depth=self.max_depth,
                )
        job = await self._call(lambda: self.queue.submit(job_id, spec))
        return (
            202 if (job["created"] or job["requeued"]) else 200,
            {
                "job": job_id,
                "created": job["created"],
                "requeued": job["requeued"],
                "state": job["state"],
                "admission": verdict,
                "location": f"/jobs/{job_id}",
            },
            {"Location": f"/jobs/{job_id}"},
        )

    async def _list(self, query: Dict[str, str]) -> Tuple[int, Any, Dict[str, str]]:
        assert self.queue is not None
        state = query.get("state")
        if state is not None and state not in ("queued", "running", "done", "failed", "cancelled"):
            raise HttpError(400, f"unknown state filter: {state!r}")
        try:
            limit = int(query.get("limit", "50"))
        except ValueError:
            raise HttpError(400, f"malformed limit: {query['limit']!r}")
        jobs = await self._call(lambda: self.queue.jobs(state=state, limit=limit))
        counts = await self._call(self.queue.counts)
        return 200, {"jobs": jobs, "counts": counts}, {}

    async def _job(self, job_id: str) -> Dict[str, Any]:
        assert self.queue is not None
        job = await self._call(lambda: self.queue.job(job_id))
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        return job

    async def _result(self, job_id: str) -> Tuple[int, Any, Dict[str, str]]:
        job = await self._job(job_id)
        if job["state"] == "done":
            return 200, {"job": job_id, "state": "done", "result": job["result"]}, {}
        if job["state"] in ("failed", "cancelled"):
            return 200, {"job": job_id, "state": job["state"], "error": job["error"]}, {}
        raise HttpError(
            409,
            f"job {job_id} is {job['state']}, not finished",
            headers={"Retry-After": "1"},
            state=job["state"],
        )

    async def _events(self, job_id: str) -> Tuple[int, Any, Dict[str, str]]:
        await self._job(job_id)  # 404 on unknown ids
        assert self.queue is not None
        events = await self._call(lambda: self.queue.events(job_id))
        return 200, {"job": job_id, "events": events}, {}

    async def _cancel(self, job_id: str) -> Tuple[int, Any, Dict[str, str]]:
        job = await self._job(job_id)
        assert self.queue is not None
        prior = await self._call(lambda: self.queue.cancel(job_id))
        if prior is None:
            raise HttpError(
                409, f"job {job_id} is {job['state']}; terminal jobs cannot be cancelled",
                state=job["state"],
            )
        return 200, {"job": job_id, "state": "cancelled", "was": prior}, {}


# ------------------------------------------------------------------ entrypoint
def serve(
    queue_path: str,
    workdir: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    deadline_seconds: Optional[float] = None,
    announce=None,
    **service_kwargs: Any,
) -> int:
    """Run the service until SIGTERM/SIGINT or the service deadline; drain; exit.

    Exit codes mirror the CLI's interrupted-run semantics: 130 for a signal
    drain, 3 for a deadline drain, 0 for a clean programmatic stop.  Either
    way the drain is graceful — runners stop at a batch boundary with their
    checkpoints flushed and leases released.
    """
    import signal as _signal

    async def main() -> int:
        service = SurveyService(queue_path, workdir, host=host, port=port, **service_kwargs)
        await service.start()
        if announce is not None:
            announce(service)
        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, service.drain, f"signal:{_signal.Signals(signum).name}"
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
                pass
        if deadline_seconds is not None:
            loop.call_later(deadline_seconds, service.drain, "deadline")
        try:
            await service.serve_until_drained()
        finally:
            await service.aclose()
        reason = service.drain_reason or ""
        if reason.startswith("signal"):
            return 130
        if reason == "deadline":
            return 3
        return 0

    return asyncio.run(main())


# ---------------------------------------------------------------- HTTP client
def request_json(
    base_url: str,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    timeout: float = 30.0,
) -> Tuple[int, Any]:
    """Minimal urllib client for the service API (the ``jobs --url`` CLI path).

    Returns ``(status, decoded JSON payload)``; error statuses are returned,
    not raised, because 4xx payloads carry the diagnosis the caller wants.
    """
    url = base_url.rstrip("/") + path
    data = None
    headers = {"Accept": "application/json"}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        raw = error.read().decode("utf-8", "replace")
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {"error": raw}
        return error.code, payload
