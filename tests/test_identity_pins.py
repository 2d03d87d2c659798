"""Identity pins: job ids, checkpoint spec hashes and store rows that must not drift.

A job id is the hash of a normalized job spec, a checkpoint resumes only
into a run whose stream spec hashes the same, and a result-store row is
found only under the item key (and verified only against the row digest)
it was written with.  Queue rows, checkpoint directories and store rows
written by earlier versions therefore keep working only while these
strings stay put.  Every value below was recorded once and is compared
verbatim; a change here is an identity migration and must be called out
in CHANGES.md.

The checkpoint specs are read back from real checkpoint files written by
the public entry points (``resilient_check``, ``cli census``, the job
runner), so the pins hold whatever the internal helpers' signatures are.
The store rows are also written the way the runners write them (their
memos, then ``ResultStore.put`` and ``flush``) and read back from SQLite.
"""

from __future__ import annotations

import math
import sqlite3
from contextlib import closing

import pytest

from repro.adversaries import RestrictedSpace
from repro.cli import main
from repro.core import OptMin
from repro.model import Adversary, Context, CrashEvent, FailurePattern
from repro.runtime import CheckpointStore, resilient_check
from repro.runtime.runner import _census_class_memo, _check_memo
from repro.service import JobQueue, JobRunner, job_id, normalize_spec
from repro.store import (
    PROFILE_SPEC_HASH,
    ResultStore,
    adversary_key,
    census_class_store_spec,
    census_row_key,
    check_store_spec,
    profile_key,
    row_digest,
    spec_hash,
    stable_key,
    vertex_key,
)
from repro.symmetry import renaming_star_signature
from repro.topology import build_restricted_complex
from repro.verification.properties import Violation

#: The queue's ``spec`` and ``result`` column texts of a completed
#: n=3 t=1 k=1 sweep job.
QUEUE_SWEEP_ROW = (
    '{"enforce_paper_bound":true,"engine":"batch","k":1,"kind":"sweep","limit":null,'
    '"max_crash_round":null,"max_failures":null,"n":3,"protocol":"optmin",'
    '"receiver_policy":"canonical","symmetry":"constructive","t":1}',
    '{"kind":"sweep","ok":true,"report":{"histogram":[[0,73],[1,205],[2,18]],'
    '"max_decision_time":2,"runs_checked":296,"violations":[]}}',
)

#: Normalized job ids of the default sweep and census specs.
DEFAULT_JOB_IDS = {
    "sweep": "1d9d39d4395d4a25ca7a98e0cb5301685972e0bb2a40c33dc5892b419c1de951",
    "census": "038c1cf6d1f74090bb32c247c10fabe712d727f57248d5b820ee07c9539441b7",
}

#: A census spec naming the homology kernel explicitly, and its job id.
PACKED_CENSUS_SPEC = {"kind": "census", "n": 3, "t": 1, "k": 1, "backend": "packed"}
PACKED_CENSUS_JOB_ID = "36d2305b0039d4af922039b06a87ad17cae0373fb3547fa870cc8e0fe5505745"

#: The job-mix specs of the end-to-end benchmark, and their job ids.
BENCHMARK_JOB_SPECS = {
    "cold-optmin-n5t2": {"kind": "sweep", "n": 5, "t": 2, "k": 2, "protocol": "optmin"},
    "cold-optmin-n5t3-mcr2": {
        "kind": "sweep", "n": 5, "t": 3, "k": 2, "protocol": "optmin", "max_crash_round": 2,
    },
    "cold-upmin-n5t2": {"kind": "sweep", "n": 5, "t": 2, "k": 2, "protocol": "upmin"},
    "warm-optmin-n5t2-mcr2": {
        "kind": "sweep", "n": 5, "t": 2, "k": 2, "protocol": "optmin", "max_crash_round": 2,
    },
    "warm-upmin-n5t2-mcr2": {
        "kind": "sweep", "n": 5, "t": 2, "k": 2, "protocol": "upmin", "max_crash_round": 2,
    },
}
BENCHMARK_JOB_IDS = {
    "cold-optmin-n5t2": "3d41ccaf34fa1a461cbbab8d05b882359be064ce08a3c1efcc6953a46c7af425",
    "cold-optmin-n5t3-mcr2": "b12d9d28bcfd9fcacb64d21a4ba92fb57c04a310a9e133bddbe8ce583f8c20c1",
    "cold-upmin-n5t2": "4f54645b9db4039798618ef2818122e50c4d50da446cf653b9b59aaca5ff990a",
    "warm-optmin-n5t2-mcr2": "4198327c2e86c829d71396db6d1c9ccc74f41aa00a41618bf94a73e0452e9db8",
    "warm-upmin-n5t2-mcr2": "77076335fb888c40922d90418ab29db494b852dd56e911b7e5bc2fe14e4035a4",
}

#: Spec hashes of the checker checkpoint (n=3 t=1 k=1, every adversary).
CHECKER_SPEC_HASHES = {
    "none": "c100c7b18e2458e2eeb3e78e3f12262097817eb4a4afaaed0d18aa4b8bf1d4d2",
    "quotient": "413e79fc47c0a445e8ddec4957b520963de3a89f7f168cb169218fa0d5e93a06",
    "constructive": "e4c62c7c6762694ef3eefabd5f730741da2b862de15d0a87e344984cc2f94f28",
}

#: Spec hashes of the census checkpoint at n=3 t=1 k=1 m=1, symmetry quotient.
CENSUS_SPEC_HASHES = {
    "cli": "ac971dbba01e5241ea8d45a218c8778efb1f809f78156396e7338d227eab46d5",
    "service": "ac971dbba01e5241ea8d45a218c8778efb1f809f78156396e7338d227eab46d5",
}


#: Result-store rows: ``(kind, spec hash, item key, payload text, row digest)``.
#: The check spec is Optmin[2] at t=2 k=2 with the paper bound enforced; the
#: census class spec fingerprints the n=3 t=1 one-round complex at k=1.
CHECK_SPEC_HASH = "3650193497931479c1abc6c2bf9601b7269f490c689f008cdd38b86ae606cb9b"
CENSUS_CLASS_SPEC_HASH = "c629ed93f5aa844c9a2878e2682307d8375365fae5dde559c43a2b54bef00348"
CRASH_FREE = Adversary((0, 1, 2, 1), FailurePattern(4))
MULTI_CRASH = Adversary(
    (2, 0, 1, 0),
    FailurePattern(4, [CrashEvent(0, 1, frozenset({2, 1})), CrashEvent(3, 2, frozenset())]),
)
#: A vertex of that complex: process 0 after one round, evidence row with
#: ``inf`` entries and a frozenset sender row.
CENSUS_VERTEX = (0, (0, 1, (1, -1, 0), (math.inf, 1, math.inf), (1, None, 1), (frozenset({2}),)))
CHECK_VIOLATIONS = {
    "decision_time": 3,
    "violations": [
        ["k-agreement", "correct processes decided 3 distinct values [0, 1, 2] > k=2", None],
        ["decision-time", "process 1 decided at time 3, exceeding the bound 2 \u2264 ok", 1],
    ],
}
STORE_ROWS = {
    "crash-free": (
        "check",
        CHECK_SPEC_HASH,
        "[[0,1,2,1],[]]",
        '{"decision_time":2,"violations":[]}',
        "ead8b8ba292117d31532d30754eb780ed8cc447e0f01c8f01d4e21ea49611ffe",
    ),
    "multi-crash": (
        "check",
        CHECK_SPEC_HASH,
        "[[2,0,1,0],[[0,1,[1,2]],[3,2,[]]]]",
        '{"decision_time":2,"violations":[]}',
        "6555d273c231c3a939db3e458395383b84f8f90518beb38ad290ceb3c9fbad96",
    ),
    "check-violations": (
        "check",
        CHECK_SPEC_HASH,
        "[[2,0,1,0],[[0,1,[1,2]],[3,2,[]]]]",
        '{"decision_time":3,"violations":[["k-agreement","correct processes decided 3 '
        'distinct values [0, 1, 2] > k=2",null],["decision-time","process 1 decided at '
        'time 3, exceeding the bound 2 \\u2264 ok",1]]}',
        "96e2784099127afe6d18f6d3415da8bde6c7ff45c0921707b69828c5648570ca",
    ),
    "profile": (
        "profile",
        PROFILE_SPEC_HASH,
        '["renaming_star_signature",[[[1,1,[0,2,1]],[2,1,[0,1,2]],[2,1,[1,1,2]]],'
        "[[0,1],[0,2]]],0]",
        "1",
        "c3c2358fc244021ae16d47f38d3268f99a03a46cb825af8bfa428812c6e58be2",
    ),
    "census-class": (
        "census_class",
        CENSUS_CLASS_SPEC_HASH,
        "[0,[0,1,[1,-1,0],[Infinity,1,Infinity],[1,null,1],[[2]]]]",
        '{"capacity":1,"level":-1}',
        "83a59c9bccf87e23eae414fa13206e1ce8880978035d3d2d4c2313ce1ea24e0f",
    ),
    "census-row": (
        "census_row",
        CENSUS_CLASS_SPEC_HASH,
        '["census_row","quotient"]',
        '{"classes":4,"counters":[12,6,6,9,6]}',
        "5c15c18b474f1770064bd8c607b6582704576ffad93c5371322ea60d7fb2f029",
    ),
}


def latest_spec_hash(directory) -> str:
    checkpoint = CheckpointStore(str(directory)).latest(strict=True)
    assert checkpoint is not None, f"no checkpoint written under {directory}"
    return spec_hash(checkpoint.spec)


class TestJobIds:
    @pytest.mark.parametrize("kind", sorted(DEFAULT_JOB_IDS))
    def test_default_spec(self, kind):
        spec = normalize_spec({"kind": kind, "n": 4, "t": 2, "k": 2})
        assert job_id(spec) == DEFAULT_JOB_IDS[kind]

    def test_packed_census_spec(self):
        assert job_id(normalize_spec(PACKED_CENSUS_SPEC)) == PACKED_CENSUS_JOB_ID

    @pytest.mark.parametrize("name", sorted(BENCHMARK_JOB_SPECS))
    def test_benchmark_job_spec(self, name):
        assert job_id(normalize_spec(BENCHMARK_JOB_SPECS[name])) == BENCHMARK_JOB_IDS[name]


class TestQueueRows:
    def test_completed_sweep_job(self, tmp_path):
        spec = normalize_spec({"kind": "sweep", "n": 3, "t": 1, "k": 1})
        path = str(tmp_path / "queue.sqlite")
        with JobQueue(path) as queue:
            runner = JobRunner(queue, str(tmp_path / "work"), store_path=None)
            queue.submit(job_id(spec), spec)
            assert runner.run_once() == {"job": job_id(spec), "outcome": "done"}
        with closing(sqlite3.connect(path)) as conn:
            row = conn.execute(
                "SELECT spec, result FROM jobs WHERE id = ?", (job_id(spec),)
            ).fetchone()
        assert row == QUEUE_SWEEP_ROW


class TestCheckpointSpecs:
    @pytest.mark.parametrize("symmetry", sorted(CHECKER_SPEC_HASHES))
    def test_checker_spec(self, tmp_path, symmetry):
        space = RestrictedSpace(Context(n=3, t=1, k=1))
        outcome = resilient_check(
            OptMin(1), space, 1, symmetry=symmetry, store=CheckpointStore(str(tmp_path))
        )
        assert outcome.completed
        assert latest_spec_hash(tmp_path) == CHECKER_SPEC_HASHES[symmetry]

    def test_cli_census_spec(self, tmp_path, capsys):
        argv = ["census", "-n", "3", "-t", "1", "-k", "1", "--symmetry", "quotient"]
        assert main(argv + ["--checkpoint", str(tmp_path)]) == 0
        capsys.readouterr()
        assert latest_spec_hash(tmp_path) == CENSUS_SPEC_HASHES["cli"]

    def test_service_census_spec(self, tmp_path):
        spec = normalize_spec({"kind": "census", "n": 3, "t": 1, "k": 1})
        with JobQueue(str(tmp_path / "queue.sqlite")) as queue:
            runner = JobRunner(queue, str(tmp_path / "work"), store_path=None)
            queue.submit(job_id(spec), spec)
            assert runner.run_once() == {"job": job_id(spec), "outcome": "done"}
            assert latest_spec_hash(runner.checkpoint_dir(job_id(spec))) == (
                CENSUS_SPEC_HASHES["service"]
            )


class TestStoreRows:
    @pytest.fixture(scope="class")
    def complex_(self):
        return build_restricted_complex(Context(n=3, t=1, k=1), 1)

    def rows(self, complex_):
        """Every pinned row, rebuilt from live objects through the public key API."""
        assert CENSUS_VERTEX in complex_.complex.vertices
        star = complex_.complex.star(CENSUS_VERTEX)
        return {
            "crash-free": (adversary_key(CRASH_FREE), {"decision_time": 2, "violations": []}),
            "multi-crash": (adversary_key(MULTI_CRASH), {"decision_time": 2, "violations": []}),
            "check-violations": (adversary_key(MULTI_CRASH), CHECK_VIOLATIONS),
            "profile": (
                profile_key("renaming_star_signature", renaming_star_signature(star), 0),
                1,
            ),
            "census-class": (vertex_key(CENSUS_VERTEX), {"capacity": 1, "level": -1}),
            "census-row": (
                census_row_key("quotient"),
                {"counters": [12, 6, 6, 9, 6], "classes": 4},
            ),
        }

    def test_spec_hashes(self, complex_):
        assert spec_hash(check_store_spec("Optmin[2]", 2, 2, True)) == CHECK_SPEC_HASH
        assert spec_hash(census_class_store_spec(complex_, 1)) == CENSUS_CLASS_SPEC_HASH

    @pytest.mark.parametrize("name", sorted(STORE_ROWS))
    def test_row(self, complex_, name):
        kind, spec_h, item_key, payload_text, digest = STORE_ROWS[name]
        key, payload = self.rows(complex_)[name]
        assert key == item_key
        assert stable_key(payload) == payload_text
        assert row_digest(kind, spec_h, key, payload_text) == digest

    def write(self, store, complex_, name):
        """Write one pinned row the way its production writer does.

        Checker verdicts and census classes go through the runners' memos
        (keys from the stream item, payload text from the verdict);
        profiles and census rows are single ``put`` calls.
        """
        kind, spec_h, _key, _text, _digest = STORE_ROWS[name]
        if kind == "check":
            adversary = CRASH_FREE if name == "crash-free" else MULTI_CRASH
            payload = CHECK_VIOLATIONS if name == "check-violations" else {
                "decision_time": 2, "violations": [],
            }
            verdict = (
                payload["decision_time"],
                [Violation(*violation) for violation in payload["violations"]],
            )
            memo = _check_memo(store, spec_h)
            assert memo.lookup([(0, adversary, 1)]) == {}
            memo.save(0, verdict)
        elif kind == "census_class":
            memo = _census_class_memo(store, spec_h)
            assert memo.lookup([(CENSUS_VERTEX, 1)]) == {}
            memo.save(0, (1, -1))
        else:
            key, payload = self.rows(complex_)[name]
            store.put(kind, spec_h, key, payload)
        assert store.flush() == 1

    @pytest.mark.parametrize("name", sorted(STORE_ROWS))
    def test_committed_row(self, complex_, tmp_path, name):
        """The row SQLite commits through the production write path is the pin."""
        kind, spec_h, item_key, payload_text, digest = STORE_ROWS[name]
        path = str(tmp_path / "store.sqlite")
        with ResultStore(path) as store:
            self.write(store, complex_, name)
        with closing(sqlite3.connect(path)) as conn:
            rows = conn.execute(
                "SELECT kind, spec_hash, item_key, payload, sha256 FROM results"
            ).fetchall()
        assert rows == [(kind, spec_h, item_key, payload_text, digest)]
        with ResultStore(path) as store:
            assert store.verify() == {"checked": 1, "corrupt": 0}
