"""The three benchmark workloads and the goldens their outputs must match.

Each workload's inputs are exhaustive and deterministic; the seed only
orders the duplicate resubmits of ``jobs-mixed``.  ``run`` does the timed
work of one iteration and returns an :class:`Iteration`; anything a
workload needs that is not part of what a user waits for (a fresh queue
and store directory, the checks of the results) happens outside the timed
regions.  Every mismatch with a golden counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))


def load_goldens() -> Dict:
    with open(os.path.join(HERE, "goldens.json")) as handle:
        return json.load(handle)


@dataclass
class Iteration:
    """One iteration's timed work and its correctness tally."""

    wall_s: float
    members: int
    #: Checked operations (one per ``expect``) and how many failed.
    attempted: int = 0
    failed: int = 0
    #: Untraced per-phase figures (``jobs-mixed`` only).
    phases: Dict[str, float] = field(default_factory=dict)
    #: Counts read back from the program (event logs) and, when traced,
    #: the tracer's per-layer counts.
    counts: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def expect(self, condition: bool, problem: str) -> None:
        self.attempted += 1
        if not condition:
            self.failed += 1
            self.problems.append(problem)


def canonical_digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_payload(report) -> Dict:
    """A ``CheckReport`` as the job service serializes it (histogram in fold order)."""
    return {
        "runs_checked": report.runs_checked,
        "max_decision_time": report.max_decision_time,
        "histogram": [[time_, count] for time_, count in report.decision_time_histogram.items()],
        "violations": [
            [index, violation.property_name, violation.message, violation.process]
            for index, violation in report.violations
        ],
    }


@contextlib.contextmanager
def _phase(tracer, name: str):
    """A benchmark-level span around one phase (its self time is glue, not a layer)."""
    if tracer is None:
        yield
        return
    frame = tracer.enter()
    try:
        yield
    finally:
        tracer.leave(frame, name)


# ------------------------------------------------------------------- sweep-n6
class SweepN6:
    """The Optmin[2] checker sweep over n=6, t=3, crash rounds <= 2."""

    name = "sweep-n6"
    imports = ("repro.core", "repro.verification.checker")

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.adversaries.enumeration import RestrictedSpace
        from repro.model import Context

        self.golden = load_goldens()[self.name]
        context = Context(n=6, t=3, k=2)
        self.t = context.t
        self.space = RestrictedSpace(
            context, max_crash_round=2, max_failures=3, receiver_policy="canonical"
        )

    def invariants(self) -> List[str]:
        orbits = self.space.orbit_count()
        if orbits != self.golden["orbits"]:
            return [f"closed-form orbit count {orbits} != {self.golden['orbits']}"]
        return []

    def fresh(self):
        return None

    def close(self, _state) -> None:
        pass

    def run(self, _state, tracer) -> Iteration:
        from repro.core import OptMin
        from repro.verification import checker

        start = time.perf_counter()
        report = checker.check_protocol(OptMin(2), self.space, self.t, symmetry="constructive")
        wall = time.perf_counter() - start
        it = Iteration(wall, report.runs_checked)
        histogram = {str(key): value for key, value in report.decision_time_histogram.items()}
        it.expect(
            report.ok
            and report.runs_checked == self.golden["runs_checked"]
            and histogram == self.golden["histogram"],
            f"sweep report differs from the golden: {report.summary()}",
        )
        return it

    def traced_invariants(self, counts) -> List[str]:
        orbits = counts.get("adversaries.constructive_quotient.orbits")
        if orbits != self.golden["orbits"]:
            return [f"sweep enumerated {orbits} orbits, expected {self.golden['orbits']}"]
        return []


# ---------------------------------------------------------------- census-n6m2
class CensusN6M2:
    """Build the n=6, two-round, <=2 crashes-per-round complex; run the Prop 2 census."""

    name = "census-n6m2"
    imports = ("repro.topology.protocol_complex",)

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.model import Context

        self.golden = load_goldens()[self.name]
        self.context = Context(n=6, t=5, k=2)

    def invariants(self) -> List[str]:
        return []

    def fresh(self):
        return None

    def close(self, _state) -> None:
        pass

    def run(self, _state, tracer) -> Iteration:
        from repro.topology import protocol_complex

        start = time.perf_counter()
        pc = protocol_complex.build_restricted_complex(
            self.context, time=2, max_crashes_per_round=2
        )
        census = protocol_complex.capacity_connectivity_census(pc, 2, symmetry="quotient")
        wall = time.perf_counter() - start
        golden = self.golden
        it = Iteration(wall, golden["adversaries"])
        observed = {
            "row": list(census.row),
            "classes": census.classes,
            "homology_misses": census.homology_runs,
            "vertices": pc.complex.vertex_count,
            "facets": len(pc.complex.facet_masks),
        }
        expected = {key: golden[key] for key in observed}
        it.expect(observed == expected, f"census {observed} != golden {expected}")
        return it

    def traced_invariants(self, counts) -> List[str]:
        golden = self.golden
        observed = {
            "adversaries": counts.get("engine.run_facets_pass.adversaries"),
            "vertices": counts.get("engine.run_facets_pass.vertices"),
            "facets": counts.get("topology.from_masks.facets_out"),
            "classes": counts.get("topology.census_classes.classes"),
            "homology_misses": counts.get("topology.profile.misses"),
        }
        expected = {key: golden[key] for key in observed}
        return [] if observed == expected else [f"census counts {observed} != {expected}"]


# ----------------------------------------------------------------- jobs-mixed
RESUBMITS = 1000


class JobsMixed:
    """One closed-loop client against a fresh queue, one in-process runner.

    Phase ``cold`` computes three sweeps and writes their verdicts to the
    shared result store; phase ``warm`` submits narrowed specs (new job ids)
    whose verdicts are all store reads; phase ``resubmit`` opens a fresh
    queue session and resubmits finished specs in a seed-chosen order,
    each answered from its job row.
    """

    name = "jobs-mixed"
    imports = ("repro.service", "repro.store")

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.service import job_id, normalize_spec

        self.golden = load_goldens()[self.name]
        self.workdir = workdir
        self.specs = {
            name: normalize_spec(entry["spec"]) for name, entry in self.golden["jobs"].items()
        }
        self.ids = {name: job_id(spec) for name, spec in self.specs.items()}
        self.cold = [name for name, entry in self.golden["jobs"].items() if entry["phase"] == "cold"]
        self.warm = [name for name, entry in self.golden["jobs"].items() if entry["phase"] == "warm"]
        rng = random.Random(seed)
        self.order = [rng.choice(self.cold + self.warm) for _ in range(RESUBMITS)]

    def invariants(self) -> List[str]:
        return []

    def fresh(self):
        from repro.service import JobQueue, JobRunner
        from repro.store import ResultStore

        directory = tempfile.mkdtemp(prefix="jobs-", dir=self.workdir)
        queue_path = os.path.join(directory, "queue.sqlite")
        queue = JobQueue(queue_path)
        runner = JobRunner(queue, os.path.join(directory, "work"))
        ResultStore(runner.store_path).close()
        return directory, queue_path, queue, runner

    def close(self, state) -> None:
        directory, _path, queue, _runner = state
        queue.close()
        shutil.rmtree(directory, ignore_errors=True)

    def _store_rows(self, runner) -> int:
        from repro.store import ResultStore

        with ResultStore(runner.store_path, read_only=True) as store:
            return store.counts().get("rows", 0)

    def _jobs(self, names, queue, runner, it: Iteration) -> float:
        """Submit → run → read each job in turn (a closed loop of one client)."""
        elapsed = 0.0
        for name in names:
            spec, jid = self.specs[name], self.ids[name]
            start = time.perf_counter()
            queue.submit(jid, spec)
            outcome = runner.run_once()
            job = queue.job(jid)
            elapsed += time.perf_counter() - start
            ok = (
                outcome == {"job": jid, "outcome": "done"}
                and job["state"] == "done"
                and canonical_digest(job["result"]["report"]) == self.golden["jobs"][name]["digest"]
            )
            it.expect(ok, f"job {name} ended {outcome}, state {job['state']}")
            if ok:
                it.members += job["result"]["report"]["runs_checked"]
        return elapsed

    def run(self, state, tracer) -> Iteration:
        from repro.service import JobQueue

        _directory, queue_path, queue, runner = state
        it = Iteration(0.0, 0)

        with _phase(tracer, "bench.cold"):
            cold_s = self._jobs(self.cold, queue, runner, it)
        if tracer is not None:
            before_warm = tracer.snapshot()

        with _phase(tracer, "bench.warm"):
            warm_s = self._jobs(self.warm, queue, runner, it)
        if tracer is not None:
            warm = tracer.snapshot()
            keys = warm.get("store.get_many.keys", 0) - before_warm.get("store.get_many.keys", 0)
            hits = warm.get("store.get_many.hits", 0) - before_warm.get("store.get_many.hits", 0)
            it.expect(keys > 0 and hits == keys, f"warm phase hit {hits} of {keys} store keys")

        latencies = []
        answers = []
        with _phase(tracer, "bench.resubmit"):
            start = time.perf_counter()
            with JobQueue(queue_path) as session:
                for name in self.order:
                    begin = time.perf_counter()
                    job = session.submit(self.ids[name], self.specs[name])
                    latencies.append(time.perf_counter() - begin)
                    answers.append((name, job))
            resubmit_s = time.perf_counter() - start
        for name, job in answers:
            it.expect(
                job["state"] == "done"
                and not job["created"]
                and canonical_digest(job["result"]["report"]) == self.golden["jobs"][name]["digest"],
                f"resubmit of {name} returned state {job['state']}, created {job['created']}",
            )

        # Every cold verdict is written once and the warm phase writes none,
        # so the store ends holding exactly the cold phase's orbits.
        if tracer is not None:
            tracer.paused = True
        rows = self._store_rows(runner)
        if tracer is not None:
            tracer.paused = False
        cold_orbits = sum(self.golden["jobs"][name]["orbits"] for name in self.cold)
        it.expect(rows == cold_orbits, f"store holds {rows} verdicts, expected {cold_orbits}")
        events = [event["kind"] for jid in self.ids.values() for event in queue.events(jid)]
        it.counts["store.retries"] = events.count("store_retry")
        it.counts["store.quarantined"] = events.count("store_quarantined")
        latencies.sort()
        it.wall_s = cold_s + warm_s + resubmit_s
        it.phases = {
            "jobs.cold_jobs_s": cold_s,
            "jobs.warm_jobs_s": warm_s,
            "jobs.resubmit_p50_ms": 1e3 * latencies[len(latencies) // 2],
            # The highest percentile with ten samples beyond it (p99 of 1000).
            "jobs.resubmit_tail_ms": 1e3 * latencies[len(latencies) - 11],
        }
        return it

    def traced_invariants(self, counts) -> List[str]:
        cold_orbits = sum(self.golden["jobs"][name]["orbits"] for name in self.cold)
        puts = counts.get("store.put.calls")
        if puts != cold_orbits:
            return [f"store.put.calls {puts} != cold orbit total {cold_orbits}"]
        return []


WORKLOADS = {workload.name: workload for workload in (SweepN6, CensusN6M2, JobsMixed)}
