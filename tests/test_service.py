"""Service-layer battery: job specs, the lease queue, the runner, the API.

The contracts under test (see ``docs/service.md``):

* spec normalization is an identity function in the mathematical sense —
  equivalent submissions collapse onto one canonical dict, hence one job;
* admission is closed-form — intractable specs are rejected at submit
  without enumerating anything;
* the queue's lease/heartbeat state machine: claims are exclusive,
  reclaims require a lapsed lease, completion is conditional on ownership,
  every transition leaves a typed event;
* the runner drives real surveys to the same results the library
  produces, drains at batch boundaries with zero progress loss, and turns
  deterministic errors into ``failed`` rows instead of crashes;
* the HTTP API speaks honest status codes: 400/422/429/404/405/409/503,
  with ``Retry-After`` where a retry is the right move.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runtime.faults import FaultPlan
from repro.service import (
    JobQueue,
    JobQueueError,
    JobRunner,
    SpecError,
    SurveyService,
    admission,
    job_id,
    normalize_spec,
    request_json,
)


def sweep_spec(**overrides):
    raw = {"kind": "sweep", "n": 3, "t": 1, "k": 1}
    raw.update(overrides)
    return normalize_spec(raw)


class TestSpecs:
    def test_equivalent_submissions_share_one_identity(self):
        explicit = normalize_spec(
            {"kind": "sweep", "n": 3, "t": 1, "k": 1, "protocol": "optmin",
             "symmetry": "constructive", "engine": "batch"}
        )
        defaulted = normalize_spec({"kind": "sweep", "k": 1, "t": 1, "n": 3})
        assert explicit == defaulted
        assert job_id(explicit) == job_id(defaulted)

    def test_different_surveys_get_different_identities(self):
        assert job_id(sweep_spec()) != job_id(sweep_spec(protocol="floodmin"))
        assert job_id(sweep_spec()) != job_id(
            normalize_spec({"kind": "census", "n": 3, "t": 1, "k": 1})
        )

    @pytest.mark.parametrize(
        "raw, complaint",
        [
            ({"kind": "nope"}, "kind"),
            ({"kind": "sweep", "n": 3, "t": 1, "k": 1, "bogus": 1}, "unknown spec fields"),
            ({"kind": "sweep", "n": 3, "t": 5, "k": 1}, "invalid context"),
            ({"kind": "sweep", "n": 3, "t": 1, "k": 1, "protocol": "zzz"}, "protocol"),
            ({"kind": "sweep", "n": 3, "t": 1, "k": 1, "limit": 0}, "limit"),
            ({"kind": "census", "n": 3, "t": 1, "k": 1, "time": 0}, "time"),
            ({"kind": "sweep", "n": "3", "t": 1, "k": 1}, "must be an integer"),
            ({"kind": "sweep", "n": 3, "t": 1, "k": 1, "enforce_paper_bound": "false"},
             "enforce_paper_bound"),
            ({"kind": "sweep", "n": 3, "t": 1, "k": 1, "enforce_paper_bound": 0},
             "enforce_paper_bound"),
            ({"kind": "sweep", "n": 3, "t": 1, "k": 1, "enforce_paper_bound": "yes"},
             "enforce_paper_bound"),
            ({"kind": "sweep", "n": 3, "t": 1, "k": 1, "engine": "reference"}, "engine"),
            ({"kind": "census", "n": 3, "t": 1, "k": 1, "engine": "reference"}, "engine"),
            ({"kind": "census", "n": 3, "t": 1, "k": 1, "backend": "bigint"}, "backend"),
            ({"kind": "census", "n": 3, "t": 1, "k": 1, "backend": "dense"}, "backend"),
            ({"kind": "census", "n": 3, "t": 1, "k": 1, "backend": "array"}, "backend"),
            ({"kind": "sweep", "n": 3, "t": 1, "k": 1, "backend": "packed"}, "unknown spec fields"),
            ([1, 2], "JSON object"),
        ],
    )
    def test_malformed_specs_are_rejected(self, raw, complaint):
        with pytest.raises(SpecError, match=complaint):
            normalize_spec(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            {"kind": "sweep", "n": "5", "t": 2, "k": 2},
            {"kind": "sweep", "n": 5, "t": "2", "k": 2},
            {"kind": "sweep", "n": 5, "t": 2, "k": 2, "max_crash_round": "2"},
            {"kind": "census", "n": 3, "t": 1, "k": 1, "time": "1"},
        ],
    )
    def test_int_ish_strings_are_rejected_not_converted(self, raw):
        """Normalization fills defaults and sorts keys; it never parses strings."""
        with pytest.raises(SpecError, match="must be an integer"):
            normalize_spec(raw)

    def test_census_backend_is_kept_as_given(self):
        """``null`` and ``"packed"`` both normalize to themselves, as before."""
        census = {"kind": "census", "n": 3, "t": 1, "k": 1}
        assert normalize_spec(census)["backend"] is None
        assert normalize_spec(dict(census, backend=None))["backend"] is None
        assert normalize_spec(dict(census, backend="packed"))["backend"] == "packed"

    def test_enforce_paper_bound_keeps_the_requested_boolean(self):
        assert sweep_spec(enforce_paper_bound=False)["enforce_paper_bound"] is False
        assert sweep_spec()["enforce_paper_bound"] is True

    def test_constructive_census_is_the_quotient_census(self, tmp_path):
        """The census runs "constructive" as "quotient": one survey, one job row."""
        census = {"kind": "census", "n": 3, "t": 1, "k": 1}
        constructive = normalize_spec(dict(census, symmetry="constructive"))
        quotient = normalize_spec(dict(census, symmetry="quotient"))
        assert constructive == quotient == normalize_spec(census)
        with JobQueue(tmp_path / "q.sqlite") as queue:
            first = queue.submit(job_id(constructive), constructive)
            second = queue.submit(job_id(quotient), quotient)
            assert first["created"] and not second["created"]
            assert first["id"] == second["id"]
            assert queue.counts()["queued"] == 1

    def test_admission_admits_tractable_and_rejects_intractable(self):
        small = admission(sweep_spec())
        assert small["admit"] and small["workload"] <= small["ceiling"]
        # An n=8 exhaustive sweep: astronomically intractable, and the
        # verdict must arrive from the closed form, not an enumeration —
        # seconds would already mean something is being materialized.
        start = time.perf_counter()
        huge = admission(
            normalize_spec({"kind": "sweep", "n": 8, "t": 7, "k": 1, "symmetry": "none"})
        )
        assert time.perf_counter() - start < 5.0
        assert not huge["admit"]
        assert huge["workload"] > huge["ceiling"]
        assert "intractable" in huge["reason"]

    def test_census_admission_counts_the_complex_family(self):
        """A census is sized by the family its complex is built over — one
        input vector, at most k crashes per round — not the whole space."""
        from repro.model import Context
        from repro.topology.protocol_complex import restricted_adversaries

        for n in (2, 3, 4):
            for t in range(n):
                for k in (1, 2):
                    for m in (1, 2, 3):
                        verdict = admission(
                            normalize_spec({"kind": "census", "n": n, "t": t, "k": k, "time": m})
                        )
                        family = restricted_adversaries(Context(n=n, t=t, k=k), m)
                        assert verdict["workload"] == len(family), (n, t, k, m)

    @pytest.mark.parametrize("n, t, k, m, members", [(4, 3, 2, 2, 3641), (6, 5, 2, 1, 778)])
    def test_tractable_censuses_are_admitted(self, n, t, k, m, members):
        verdict = admission(normalize_spec({"kind": "census", "n": n, "t": t, "k": k, "time": m}))
        assert verdict["admit"] and verdict["workload"] == members

    def test_intractable_census_is_refused_with_census_advice(self):
        start = time.perf_counter()
        verdict = admission(normalize_spec({"kind": "census", "n": 7, "t": 6, "k": 2, "time": 2}))
        assert time.perf_counter() - start < 5.0
        assert not verdict["admit"] and verdict["workload"] == 973169
        assert "973,169 complex-building members" in verdict["reason"]
        for sweep_only in ("max_crash_round", "limit", "constructive"):
            assert sweep_only not in verdict["reason"]

    @pytest.mark.parametrize("n, t, m", [(10**5, 3, 1), (3, 2, 5000), (2, 1, 10**30)])
    def test_census_admission_is_cheap_at_any_size(self, n, t, m):
        """A huge n is refused on its first round's options alone; a huge
        time is sized in closed form, without one step per round."""
        start = time.perf_counter()
        verdict = admission(normalize_spec({"kind": "census", "n": n, "t": t, "k": 1, "time": m}))
        assert time.perf_counter() - start < 5.0
        assert not verdict["admit"] and verdict["workload"] > verdict["ceiling"]

    def test_admission_always_admits_capped_streams(self):
        capped = admission(
            normalize_spec(
                {"kind": "sweep", "n": 8, "t": 7, "k": 1, "symmetry": "none", "limit": 10}
            )
        )
        assert capped["admit"] and capped["workload"] == 10


class TestJobQueue:
    def test_submit_is_idempotent(self, tmp_path):
        spec = sweep_spec()
        with JobQueue(tmp_path / "q.sqlite") as queue:
            first = queue.submit(job_id(spec), spec)
            second = queue.submit(job_id(spec), spec)
        assert first["created"] and not second["created"]
        assert first["id"] == second["id"]
        assert second["state"] == "queued"

    def test_failed_and_cancelled_jobs_are_requeued_on_submit(self, tmp_path):
        spec = sweep_spec()
        jid = job_id(spec)
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.submit(jid, spec)
            job = queue.claim("owner-a")
            queue.fail(jid, "owner-a", "boom")
            resubmitted = queue.submit(jid, spec)
            assert resubmitted["requeued"] and resubmitted["state"] == "queued"
            assert resubmitted["error"] is None
            queue.cancel(jid)
            resubmitted = queue.submit(jid, spec)
            assert resubmitted["requeued"]
            assert job["claim_ordinal"] == 0

    def test_claim_is_exclusive_and_oldest_first(self, tmp_path):
        a, b = sweep_spec(), sweep_spec(protocol="floodmin")
        with JobQueue(tmp_path / "q.sqlite", lease_seconds=30.0) as queue:
            queue.submit(job_id(a), a)
            time.sleep(0.01)  # distinct submitted_at
            queue.submit(job_id(b), b)
            first = queue.claim("owner-a")
            second = queue.claim("owner-b")
            third = queue.claim("owner-c")
        assert first["id"] == job_id(a)
        assert second["id"] == job_id(b)
        assert third is None  # both leased, neither lapsed

    def test_lapsed_lease_is_reclaimed_with_attempt_count(self, tmp_path):
        spec = sweep_spec()
        jid = job_id(spec)
        with JobQueue(tmp_path / "q.sqlite", lease_seconds=0.05) as queue:
            queue.submit(jid, spec)
            first = queue.claim("owner-a")
            assert not first["reclaimed"] and first["attempts"] == 1
            time.sleep(0.1)
            second = queue.claim("owner-b")
            assert second["id"] == jid
            assert second["reclaimed"] and second["attempts"] == 2
            kinds = [event["kind"] for event in queue.events(jid)]
        assert kinds == ["job_submitted", "job_claimed", "job_reclaimed"]

    def test_heartbeat_extends_only_the_owner_lease(self, tmp_path):
        spec = sweep_spec()
        jid = job_id(spec)
        with JobQueue(tmp_path / "q.sqlite", lease_seconds=5.0) as queue:
            queue.submit(jid, spec)
            job = queue.claim("owner-a")
            assert queue.heartbeat(jid, "owner-a")
            extended = queue.job(jid)
            assert extended["lease_expires_at"] >= job["lease_expires_at"]
            assert not queue.heartbeat(jid, "impostor")
            assert any(e["kind"] == "job_heartbeat_lost" for e in queue.events(jid))

    def test_completion_is_conditional_on_ownership(self, tmp_path):
        spec = sweep_spec()
        jid = job_id(spec)
        with JobQueue(tmp_path / "q.sqlite", lease_seconds=0.05) as queue:
            queue.submit(jid, spec)
            queue.claim("owner-a")
            time.sleep(0.1)
            queue.claim("owner-b")  # reclaim: owner-a is presumed dead
            # The zombie's completion must be discarded...
            assert not queue.complete(jid, "owner-a", {"who": "a"})
            # ...and the live owner's must land.
            assert queue.complete(jid, "owner-b", {"who": "b"})
            job = queue.job(jid)
        assert job["state"] == "done" and job["result"] == {"who": "b"}

    def test_release_returns_the_job_to_the_queue(self, tmp_path):
        spec = sweep_spec()
        jid = job_id(spec)
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.submit(jid, spec)
            queue.claim("owner-a")
            assert queue.release(jid, "owner-a", reason="drain")
            job = queue.job(jid)
            assert job["state"] == "queued" and job["owner"] is None
            assert queue.claim("owner-b")["id"] == jid

    def test_cancel_hits_queued_and_running_but_not_terminal(self, tmp_path):
        spec = sweep_spec()
        jid = job_id(spec)
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.submit(jid, spec)
            assert queue.cancel(jid) == "queued"
            assert queue.cancel(jid) is None  # already terminal
            assert queue.cancel("no-such-job") is None

    def test_depth_and_counts(self, tmp_path):
        a, b = sweep_spec(), sweep_spec(protocol="floodmin")
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.submit(job_id(a), a)
            queue.submit(job_id(b), b)
            queue.claim("owner-a")
            assert queue.depth() == 2  # queued + running both count
            counts = queue.counts()
        assert counts["queued"] == 1 and counts["running"] == 1

    def test_foreign_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with JobQueue(path) as queue:
            queue._conn.execute("UPDATE meta SET value = '99' WHERE key = 'jobs_schema_version'")
        with pytest.raises(JobQueueError, match="schema version"):
            JobQueue(path)

    def test_closed_queue_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        queue.close()
        with pytest.raises(JobQueueError, match="closed"):
            queue.depth()


class TestQueueFaults:
    def test_dropped_commit_raises_cleanly_and_leaves_state_intact(self, tmp_path):
        spec = sweep_spec()
        plan = FaultPlan(drop_job_commit=(0,))
        with JobQueue(tmp_path / "q.sqlite", faults=plan) as queue:
            with pytest.raises(JobQueueError, match="disk is full"):
                queue.submit(job_id(spec), spec)
            # The fault consumed ordinal 0; the retry commits and the
            # failed attempt left no partial row behind.
            job = queue.submit(job_id(spec), spec)
            assert job["created"] and queue.counts()["queued"] == 1

    def test_preexpired_lease_is_immediately_reclaimable(self, tmp_path):
        spec = sweep_spec()
        plan = FaultPlan(expire_lease=(0,))
        with JobQueue(tmp_path / "q.sqlite", lease_seconds=60.0, faults=plan) as queue:
            queue.submit(job_id(spec), spec)
            queue.claim("owner-a")  # claim 0: lease written born-lapsed
            second = queue.claim("owner-b")
            assert second is not None and second["reclaimed"]

    def test_dropped_heartbeat_lets_the_lease_lapse(self, tmp_path):
        spec = sweep_spec()
        jid = job_id(spec)
        plan = FaultPlan(delay_heartbeat=(0,))
        with JobQueue(tmp_path / "q.sqlite", lease_seconds=0.05, faults=plan) as queue:
            queue.submit(jid, spec)
            before = queue.claim("owner-a")["lease_expires_at"]
            assert queue.heartbeat(jid, "owner-a")  # dropped: owner believes it landed
            assert queue.job(jid)["lease_expires_at"] == before
            time.sleep(0.1)
            assert queue.claim("owner-b")["reclaimed"]

    def test_fault_plan_round_trips_service_fields(self):
        plan = FaultPlan(
            kill_job_owner={1: 2},
            expire_lease=(0,),
            delay_heartbeat=(3, 4),
            drop_job_commit=(7,),
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.job_owner_kill(1) == 2
        assert restored.lease_preexpired(0)
        assert restored.heartbeat_dropped(4)
        assert restored.job_commit_dropped(7)


class TestJobRunner:
    def test_sweep_job_matches_the_direct_library_sweep(self, tmp_path):
        from repro.adversaries.enumeration import RestrictedSpace
        from repro.core import OptMin
        from repro.model import Context
        from repro.verification import check_protocol

        spec = sweep_spec()
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.submit(job_id(spec), spec)
            runner = JobRunner(queue, tmp_path / "work", batch_size=16)
            outcome = runner.run_once()
            job = queue.job(job_id(spec))
        assert outcome == {"job": job_id(spec), "outcome": "done"}
        assert job["state"] == "done"
        direct = check_protocol(
            OptMin(1), RestrictedSpace(Context(n=3, t=1, k=1)), 1, symmetry="constructive"
        )
        assert job["result"]["ok"] == direct.ok
        assert job["result"]["report"]["runs_checked"] == direct.runs_checked

    def test_census_job_result_row(self, tmp_path):
        spec = normalize_spec({"kind": "census", "n": 3, "t": 1, "k": 1})
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.submit(job_id(spec), spec)
            runner = JobRunner(queue, tmp_path / "work")
            assert runner.run_once()["outcome"] == "done"
            result = queue.job(job_id(spec))["result"]
        assert result["kind"] == "census"
        assert result["holds"] and result["consistent"] == result["high_capacity"]
        assert "homology_runs" not in result  # execution-dependent: excluded

    def test_idle_queue_returns_none(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as queue:
            assert JobRunner(queue, tmp_path / "work").run_once() is None

    def test_deterministic_error_fails_the_job_loudly(self, tmp_path):
        # submit() does not validate (the API/CLI do); a poisoned spec that
        # slipped in must become a failed row with the error recorded, not a
        # crashed runner or an infinite retry loop.
        spec = dict(sweep_spec())
        spec["protocol"] = "no-such-protocol"
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.submit("poisoned", spec)
            runner = JobRunner(queue, tmp_path / "work")
            assert runner.run_once()["outcome"] == "failed"
            job = queue.job("poisoned")
        assert job["state"] == "failed"
        assert "no-such-protocol" in job["error"]

    def test_drain_releases_at_a_batch_boundary_and_resume_is_identical(self, tmp_path):
        spec = sweep_spec(n=4, t=2, k=2)
        jid = job_id(spec)
        stop = threading.Event()
        stop.set()  # drain already requested: first boundary must release
        with JobQueue(tmp_path / "q.sqlite", lease_seconds=30.0) as queue:
            queue.submit(jid, spec)
            runner = JobRunner(queue, tmp_path / "work", batch_size=8)
            outcome = runner.run_once(stop)
            assert outcome == {"job": jid, "outcome": "drained"}
            drained = queue.job(jid)
            assert drained["state"] == "queued" and drained["owner"] is None
            kinds = [e["kind"] for e in queue.events(jid)]
            assert "checkpoint_saved" in kinds and "job_released" in kinds
            # Second leg, no drain: resumes from the boundary and completes.
            assert runner.run_once()["outcome"] == "done"
            resumed = queue.job(jid)
            resumed_kinds = [e["kind"] for e in queue.events(jid)]
        assert resumed["state"] == "done"
        assert "resume" in resumed_kinds
        # The acceptance bar: byte-identical to an uninterrupted run.
        with JobQueue(tmp_path / "q2.sqlite") as clean_queue:
            clean_queue.submit(jid, spec)
            JobRunner(clean_queue, tmp_path / "work2", batch_size=8).run_once()
            clean = clean_queue.job(jid)
        assert json.dumps(resumed["result"], sort_keys=True) == json.dumps(
            clean["result"], sort_keys=True
        )

    def test_budget_stop_requeues_with_progress(self, tmp_path):
        spec = sweep_spec(n=4, t=2, k=2)
        jid = job_id(spec)
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.submit(jid, spec)
            strict = JobRunner(
                queue, tmp_path / "work", batch_size=8, job_deadline_seconds=0.0
            )
            assert strict.run_once()["outcome"] == "released"
            assert queue.job(jid)["state"] == "queued"
            relaxed = JobRunner(queue, tmp_path / "work", batch_size=8)
            assert relaxed.run_once()["outcome"] == "done"


class _ServiceHarness:
    """Run a SurveyService (own asyncio loop) in a background thread."""

    def __init__(self, tmp_path, **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("lease_seconds", 5.0)
        kwargs.setdefault("batch_size", 16)
        self.service = SurveyService(
            str(tmp_path / "queue.sqlite"), str(tmp_path / "work"), **kwargs
        )
        self.ready = threading.Event()
        self.error = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced by stop()
            self.error = error
            self.ready.set()

    async def _main(self):
        await self.service.start()
        self.ready.set()
        try:
            await self.service.serve_until_drained()
        finally:
            await self.service.aclose()

    def __enter__(self):
        self.thread.start()
        assert self.ready.wait(timeout=30), "service did not start"
        if self.error is not None:
            raise self.error
        self.url = f"http://127.0.0.1:{self.service.port}"
        return self

    def __exit__(self, *exc_info):
        self.service.drain("test")
        self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "service did not drain"

    def request(self, method, path, body=None):
        return request_json(self.url, method, path, body, timeout=30.0)


class TestServiceApi:
    def test_submit_poll_result_end_to_end(self, tmp_path):
        with _ServiceHarness(tmp_path, runners=1) as harness:
            status, health = harness.request("GET", "/healthz")
            assert (status, health["status"]) == (200, "ok")
            status, ready = harness.request("GET", "/readyz")
            assert status == 200 and ready["status"] == "ready"

            status, submitted = harness.request(
                "POST", "/jobs", {"kind": "sweep", "n": 3, "t": 1, "k": 1}
            )
            assert status == 202 and submitted["created"]
            jid = submitted["job"]

            status, duplicate = harness.request(
                "POST", "/jobs", {"kind": "sweep", "n": 3, "t": 1, "k": 1}
            )
            assert status == 200 and not duplicate["created"]
            assert duplicate["job"] == jid

            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status, result = harness.request("GET", f"/jobs/{jid}/result")
                if status == 200:
                    break
                assert status == 409
                time.sleep(0.2)
            assert status == 200
            assert result["state"] == "done" and result["result"]["ok"]

            status, events = harness.request("GET", f"/jobs/{jid}/events")
            kinds = [event["kind"] for event in events["events"]]
            assert kinds[0] == "job_submitted" and "job_completed" in kinds

    def test_validation_admission_and_backpressure_statuses(self, tmp_path):
        with _ServiceHarness(tmp_path, runners=0, max_depth=1) as harness:
            status, payload = harness.request("POST", "/jobs", {"kind": "bogus"})
            assert status == 400 and "kind" in payload["error"]

            status, payload = harness.request(
                "POST", "/jobs",
                {"kind": "sweep", "n": 3, "t": 1, "k": 1, "enforce_paper_bound": "false"},
            )
            assert status == 400 and "enforce_paper_bound" in payload["error"]

            status, payload = harness.request(
                "POST", "/jobs", {"kind": "sweep", "n": "5", "t": 2, "k": 2},
            )
            assert status == 400 and "must be an integer" in payload["error"]

            status, payload = harness.request(
                "POST", "/jobs", {"kind": "census", "n": 3, "t": 1, "k": 1, "backend": "bigint"},
            )
            assert status == 400 and "backend" in payload["error"]

            status, payload = harness.request(
                "POST", "/jobs",
                {"kind": "sweep", "n": 8, "t": 7, "k": 1, "symmetry": "none"},
            )
            assert status == 422
            assert "intractable" in payload["error"]
            assert payload["admission"]["workload"] > payload["admission"]["ceiling"]

            status, first = harness.request(
                "POST", "/jobs", {"kind": "sweep", "n": 3, "t": 1, "k": 1}
            )
            assert status == 202

            # Depth 1 of 1: a NEW spec is refused with Retry-After...
            request = urllib.request.Request(
                harness.url + "/jobs",
                data=json.dumps(
                    {"kind": "sweep", "n": 3, "t": 1, "k": 1, "protocol": "floodmin"}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1

            # ...but re-submitting the EXISTING spec attaches for free.
            status, duplicate = harness.request(
                "POST", "/jobs", {"kind": "sweep", "n": 3, "t": 1, "k": 1}
            )
            assert status == 200 and duplicate["job"] == first["job"]

    def test_census_admission_at_the_ceiling(self, tmp_path):
        """The n=4 t=3 k=2 two-round census has 3,641 members: admitted at a
        ceiling of 3,641, and its three-round census refused with a 422."""
        census = {"kind": "census", "n": 4, "t": 3, "k": 2, "time": 2}
        with _ServiceHarness(tmp_path, runners=0, ceiling=3641) as harness:
            status, payload = harness.request("POST", "/jobs", census)
            assert status == 202 and payload["created"]
            status, payload = harness.request("POST", "/jobs", dict(census, time=3))
            assert status == 422
            assert payload["admission"]["workload"] > payload["admission"]["ceiling"] == 3641

    def test_result_409_cancel_and_error_routes(self, tmp_path):
        with _ServiceHarness(tmp_path, runners=0) as harness:
            status, submitted = harness.request(
                "POST", "/jobs", {"kind": "sweep", "n": 3, "t": 1, "k": 1}
            )
            jid = submitted["job"]

            status, pending = harness.request("GET", f"/jobs/{jid}/result")
            assert status == 409 and pending["state"] == "queued"

            status, cancelled = harness.request("POST", f"/jobs/{jid}/cancel")
            assert status == 200 and cancelled["was"] == "queued"
            status, again = harness.request("POST", f"/jobs/{jid}/cancel")
            assert status == 409  # terminal jobs are not cancellable

            status, terminal = harness.request("GET", f"/jobs/{jid}/result")
            assert status == 200 and terminal["state"] == "cancelled"

            assert harness.request("GET", "/jobs/no-such-job")[0] == 404
            assert harness.request("GET", "/nowhere")[0] == 404
            assert harness.request("PUT", "/jobs")[0] == 405
            status, listing = harness.request("GET", "/jobs?state=cancelled")
            assert status == 200 and listing["counts"]["cancelled"] == 1
            assert harness.request("GET", "/jobs?state=zzz")[0] == 400

    def test_readyz_degrades_honestly_on_an_unusable_store(self, tmp_path):
        (tmp_path / "work").mkdir()
        (tmp_path / "work" / "results.sqlite").write_bytes(b"this is not sqlite")
        with _ServiceHarness(tmp_path, runners=0) as harness:
            status, ready = harness.request("GET", "/readyz")
            # Still serving (surveys degrade to pure compute) — but honest.
            assert status == 200
            assert ready["status"] == "degraded"
            assert ready["store"]["state"] == "degraded"

    def test_draining_service_rejects_submits_and_reports_503(self, tmp_path):
        harness = _ServiceHarness(tmp_path, runners=0)
        with harness:
            harness.service.drain("test-drain")
            status, ready = harness.request("GET", "/readyz")
            assert status == 503 and ready["status"] == "draining"
            status, health = harness.request("GET", "/healthz")
            assert status == 200 and health["status"] == "draining"
            status, refused = harness.request(
                "POST", "/jobs", {"kind": "sweep", "n": 3, "t": 1, "k": 1}
            )
            assert status == 503


class TestServiceCli:
    def test_jobs_lifecycle_against_the_queue_database(self, tmp_path, capsys):
        from repro.cli import main

        queue_path = str(tmp_path / "q.sqlite")
        assert main(["jobs", "submit", "--queue", queue_path, "-n", "3", "-t", "1", "-k", "1"]) == 0
        jid = json.loads(capsys.readouterr().out)["job"]

        assert main(["jobs", "status", jid, "--queue", queue_path]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "queued"

        assert main(["jobs", "result", jid, "--queue", queue_path]) == 3  # not finished
        capsys.readouterr()

        assert main(["jobs", "cancel", jid, "--queue", queue_path]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "cancelled"

        assert main(["jobs", "result", jid, "--queue", queue_path]) == 1  # terminal, not done
        capsys.readouterr()

        assert main(["jobs", "list", "--queue", queue_path]) == 0
        assert json.loads(capsys.readouterr().out)["counts"]["cancelled"] == 1

        assert main(["jobs", "events", jid, "--queue", queue_path]) == 0
        kinds = [e["kind"] for e in json.loads(capsys.readouterr().out)["events"]]
        assert kinds == ["job_submitted", "job_cancelled"]

    def test_jobs_submit_rejects_intractable_and_malformed(self, tmp_path, capsys):
        from repro.cli import main

        queue_path = str(tmp_path / "q.sqlite")
        assert main(
            ["jobs", "submit", "--queue", queue_path,
             "-n", "8", "-t", "7", "-k", "1", "--symmetry", "none"]
        ) == 2
        assert "intractable" in capsys.readouterr().err
        assert main(["jobs", "submit", "--queue", queue_path, "--spec", "{not json"]) == 2
        capsys.readouterr()
        assert main(["jobs", "status", "--queue", queue_path]) == 2  # missing job id
        capsys.readouterr()

    def test_census_resume_requires_checkpoint_at_parse_time(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["census", "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err
