"""Checkpoint layer: atomic writes, checksum rejection, rotation, fallback.

The durability contract of ``repro.runtime.checkpoint``: a checkpoint that
loads is trustworthy (schema, SHA-256, spec identity all verified), a
checkpoint that was torn or tampered with is *rejected with a clear error*
rather than resumed from, and damaging the newest checkpoint falls back to
its rotated predecessor.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.runtime import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    FaultPlan,
    RunReport,
    load_checkpoint,
    write_checkpoint,
)

SPEC = {"kind": "test", "n": 4, "t": 2, "symmetry": "constructive"}


def make_checkpoint(cursor: int = 7) -> Checkpoint:
    return Checkpoint(spec=SPEC, cursor=cursor, payload={"counters": [1, 2, 3]})


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        path = str(tmp_path / "ckpt-000000000007.json")
        write_checkpoint(path, make_checkpoint())
        loaded = load_checkpoint(path, spec=SPEC)
        assert loaded == make_checkpoint()

    def test_no_tmp_litter_after_write(self, tmp_path):
        path = str(tmp_path / "ckpt-000000000007.json")
        write_checkpoint(path, make_checkpoint())
        assert sorted(os.listdir(tmp_path)) == ["ckpt-000000000007.json"]

    def test_digest_is_stable_across_key_order(self):
        a = Checkpoint(spec={"x": 1, "y": 2}, cursor=0, payload={})
        b = Checkpoint(spec={"y": 2, "x": 1}, cursor=0, payload={})
        assert a.digest() == b.digest()


class TestRejection:
    """Every damage mode is rejected with a distinct, actionable error."""

    def write(self, tmp_path) -> str:
        path = str(tmp_path / "ckpt-000000000007.json")
        write_checkpoint(path, make_checkpoint())
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_truncated_file(self, tmp_path):
        path = self.write(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    def test_bitflipped_file(self, tmp_path):
        path = self.write(tmp_path)
        # Flip one payload byte while keeping the document valid JSON: the
        # checksum, not the parser, must catch it.
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["cursor"] = 8
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(path)

    def test_wrong_schema_version(self, tmp_path):
        path = str(tmp_path / "ckpt-000000000007.json")
        write_checkpoint(
            path, Checkpoint(spec=SPEC, cursor=7, payload={}, schema=CHECKPOINT_SCHEMA + 1)
        )
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(path)

    def test_spec_mismatch(self, tmp_path):
        path = self.write(tmp_path)
        with pytest.raises(CheckpointError, match="different run spec"):
            load_checkpoint(path, spec=dict(SPEC, t=3))

    def test_non_object_envelope(self, tmp_path):
        path = str(tmp_path / "ckpt-000000000001.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]\n")
        with pytest.raises(CheckpointError, match="envelope"):
            load_checkpoint(path)


class TestStore:
    def test_rotation_keeps_newest(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=2)
        for cursor in (10, 20, 30):
            store.save(make_checkpoint(cursor))
        names = [os.path.basename(path) for path in store.paths()]
        assert names == ["ckpt-000000000020.json", "ckpt-000000000030.json"]

    def test_latest_returns_newest_valid(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(make_checkpoint(10))
        store.save(make_checkpoint(20))
        assert store.latest(spec=SPEC).cursor == 20

    def test_latest_falls_back_past_damaged_newest(self, tmp_path):
        report = RunReport()
        store = CheckpointStore(str(tmp_path), report=report)
        store.save(make_checkpoint(10))
        newest = store.save(make_checkpoint(20))
        with open(newest, "r+b") as handle:
            handle.truncate(os.path.getsize(newest) // 2)
        checkpoint = store.latest(spec=SPEC)
        assert checkpoint.cursor == 10
        assert report.count("checkpoint_rejected") == 1

    def test_latest_strict_reraises(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        newest = store.save(make_checkpoint(20))
        with open(newest, "r+b") as handle:
            handle.truncate(1)
        with pytest.raises(CheckpointError):
            store.latest(spec=SPEC, strict=True)

    def test_latest_empty_directory(self, tmp_path):
        assert CheckpointStore(str(tmp_path / "missing")).latest() is None

    def test_save_records_event(self, tmp_path):
        report = RunReport()
        store = CheckpointStore(str(tmp_path), report=report)
        store.save(make_checkpoint(10))
        (event,) = [event for event in report.events if event.kind == "checkpoint_saved"]
        assert event.detail["cursor"] == 10

    def test_fault_plan_sabotages_chosen_save(self, tmp_path):
        faults = FaultPlan(truncate_checkpoints=(1,))
        store = CheckpointStore(str(tmp_path), faults=faults)
        store.save(make_checkpoint(10))  # ordinal 0: clean
        store.save(make_checkpoint(20))  # ordinal 1: truncated after the write
        assert store.latest(spec=SPEC).cursor == 10

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(str(tmp_path), keep=0)

    def test_open_sweeps_orphaned_tmp_files(self, tmp_path):
        """A crash between mkstemp and os.replace strands a .ckpt-*.tmp file;
        the next store open removes it instead of leaking it forever."""
        store = CheckpointStore(str(tmp_path))
        store.save(make_checkpoint(10))
        for name in (".ckpt-dead1.tmp", ".ckpt-dead2.tmp"):
            with open(tmp_path / name, "w", encoding="utf-8") as handle:
                handle.write("{ torn mid-write")
        reopened = CheckpointStore(str(tmp_path))
        leftovers = [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
        assert leftovers == []
        # Completed checkpoints are untouched by the sweep.
        assert reopened.latest(spec=SPEC).cursor == 10

    def test_sweep_ignores_non_checkpoint_files(self, tmp_path):
        with open(tmp_path / "notes.tmp", "w", encoding="utf-8") as handle:
            handle.write("keep me")
        CheckpointStore(str(tmp_path))
        assert (tmp_path / "notes.tmp").exists()


class TestFaultPlanSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=3,
            truncate_checkpoints=(0,),
            corrupt_checkpoints=(3,),
            corrupt_store_rows=(2,),
            kill_job_owner={1: 4},
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize(
        "retired",
        [
            '"no_numpy": true',
            '"kill_chunks": {"1": 1}',
            '"fail_chunks": {"2": 1}',
            '"delay_chunks": {"1": [0.25, 1]}',
        ],
        ids=["no_numpy", "kill_chunks", "fail_chunks", "delay_chunks"],
    )
    def test_retired_no_numpy_key_still_parses(self, monkeypatch, retired):
        """Older fault strings may still carry retired keys: ``no_numpy`` and
        the worker-chunk faults are ignored."""
        from repro.runtime import FAULTS_ENV

        monkeypatch.setenv(FAULTS_ENV, '{"truncate_checkpoints": [1], %s}' % retired)
        assert FaultPlan.from_env() == FaultPlan(truncate_checkpoints=(1,))

    def test_from_env(self, monkeypatch):
        from repro.runtime import FAULTS_ENV

        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULTS_ENV, FaultPlan(truncate_checkpoints=(1,)).to_json())
        assert FaultPlan.from_env().truncate_checkpoints == (1,)
