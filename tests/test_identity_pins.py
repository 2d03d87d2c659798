"""Identity pins: job ids and checkpoint spec hashes that must not drift.

A job id is the hash of a normalized job spec, and a checkpoint resumes
only into a run whose stream spec hashes the same.  Queue rows, checkpoint
directories and store rows written by earlier versions therefore keep
working only while these hashes stay put.  Every hash below was recorded
once and is compared verbatim; a change here is an identity migration and
must be called out in CHANGES.md.

The checkpoint specs are read back from real checkpoint files written by
the public entry points (``resilient_check``, ``cli census``, the job
runner), so the pins hold whatever the internal helpers' signatures are.
"""

from __future__ import annotations

import pytest

from repro.adversaries import RestrictedSpace
from repro.cli import main
from repro.core import OptMin
from repro.model import Context
from repro.runtime import CheckpointStore, resilient_check
from repro.service import JobQueue, JobRunner, job_id, normalize_spec
from repro.store import spec_hash

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
