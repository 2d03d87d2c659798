"""Durable result store: keying, integrity, self-healing, degradation, CLI.

The store's headline contract mirrors the resilience one: a store-enabled
survey produces results *byte-identical* to a store-disabled run — on a
cold store (every row computed and written), on a warm store (every row
served from disk, no recompute), and through a seeded chaos leg that
corrupts committed rows mid-run (quarantined on read, transparently
recomputed).  An unusable store never fails the survey: it degrades to
pure compute with a typed ``store_degraded`` event.
"""

from __future__ import annotations

import io
import json
import os
import sqlite3
from contextlib import closing

import pytest

from repro.adversaries.enumeration import RestrictedSpace
from repro.core import OptMin
from repro.model import Context
from repro.runtime import FaultPlan, RunReport, canonical_json, resilient_census, resilient_check
from repro.store import (
    ResultStore,
    adversary_key,
    check_store_spec,
    row_digest,
    spec_hash,
    stable_key,
)
from repro.topology import build_restricted_complex, capacity_connectivity_census

CONTEXT = Context(n=4, t=2, k=2)


def small_space():
    return RestrictedSpace(
        CONTEXT, max_crash_round=1, max_failures=1, receiver_policy="canonical"
    )


def check_signature(report):
    return canonical_json(report.to_payload())


# ------------------------------------------------------------------ unit layer
class TestKeys:
    def test_stable_key_is_canonical(self):
        assert stable_key((1, 2)) == stable_key([1, 2]) == "[1,2]"
        assert stable_key(frozenset({3, 1, 2})) == "[1,2,3]"
        assert stable_key({"b": 1, "a": (2,)}) == '{"a":[2],"b":1}'
        with pytest.raises(TypeError):
            stable_key(object())

    def test_spec_hash_is_order_insensitive(self):
        assert spec_hash({"a": 1, "b": 2}) == spec_hash({"b": 2, "a": 1})
        assert spec_hash({"a": 1}) != spec_hash({"a": 2})

    def test_adversary_key_separates_distinct_orbits(self):
        space = small_space()
        keys = {adversary_key(orbit.representative) for orbit in space.orbits()}
        assert len(keys) == space.orbit_count()

    def test_check_spec_separates_k_and_bound(self):
        base = check_store_spec("Optmin[k]", 2, 2, True)
        assert spec_hash(base) != spec_hash(check_store_spec("Optmin[k]", 2, 3, True))
        assert spec_hash(base) != spec_hash(check_store_spec("Optmin[k]", 2, 2, False))
        assert spec_hash(base) != spec_hash(check_store_spec("u-Pmin[k]", 2, 2, True))


class TestStoreEngine:
    SPEC = {"kind": "check", "x": 1}

    def open(self, tmp_path, **kwargs):
        return ResultStore(str(tmp_path / "store.sqlite"), **kwargs)

    def test_round_trip_and_counters(self, tmp_path):
        store = self.open(tmp_path)
        store.put("check", self.SPEC, "a", {"v": 1})
        store.put("check", self.SPEC, "b", [1, 2])
        assert store.flush() == 2
        found = store.get_many("check", self.SPEC, ["a", "b", "missing"])
        assert found == {"a": {"v": 1}, "b": [1, 2]}
        assert (store.hits, store.misses) == (2, 1)
        counts = store.counts()
        assert counts["rows"] == 2 and counts["kinds"] == {"check": 2}
        store.close()
        # Rows survive the process boundary (the whole point).
        reopened = self.open(tmp_path)
        assert reopened.get("check", self.SPEC, "a") == {"v": 1}
        reopened.close()

    def test_specs_do_not_bleed(self, tmp_path):
        store = self.open(tmp_path)
        store.put("check", {"k": 2}, "a", 1)
        store.flush()
        assert store.get("check", {"k": 3}, "a") is None
        assert store.get("profile", {"k": 2}, "a") is None
        store.close()

    def test_corrupt_row_quarantined_and_healed(self, tmp_path):
        report = RunReport()
        store = self.open(tmp_path, faults=FaultPlan(corrupt_store_rows=(0,)), report=report)
        store.put("check", self.SPEC, "a", {"v": 1})
        store.flush()
        # Verify-on-access: the damaged row is a miss, not a wrong answer.
        assert store.get_many("check", self.SPEC, ["a"]) == {}
        assert store.quarantined == 1
        assert report.count("store_quarantined") == 1
        # Self-healing: the recompute re-inserts cleanly.
        store.put("check", self.SPEC, "a", {"v": 1})
        store.flush()
        assert store.get("check", self.SPEC, "a") == {"v": 1}
        assert store.verify() == {"checked": 1, "corrupt": 0}
        assert store.counts()["quarantined"] == 1
        assert store.gc()["purged"] == 1
        store.close()

    def test_torn_row_quarantined(self, tmp_path):
        store = self.open(tmp_path, faults=FaultPlan(torn_store_rows=(0,)))
        store.put("check", self.SPEC, "a", {"value": "long enough to tear"})
        store.flush()
        assert store.get("check", self.SPEC, "a") is None
        assert store.quarantined == 1
        store.close()

    def test_misfiled_row_fails_digest(self, tmp_path):
        """A payload transplanted under another key is caught like a bit flip.

        The digest covers the addressing triple, so copying row b's payload
        *and* digest under row a's key still fails verification — protection
        SQLite itself cannot provide.
        """
        store = self.open(tmp_path)
        store.put("check", self.SPEC, "a", 1)
        store.put("check", self.SPEC, "b", 2)
        store.flush()
        store._conn.execute(
            "UPDATE results SET "
            "payload = (SELECT payload FROM results WHERE item_key = 'b'), "
            "sha256 = (SELECT sha256 FROM results WHERE item_key = 'b') "
            "WHERE item_key = 'a'"
        )
        assert store.get("check", self.SPEC, "a") is None
        assert store.quarantined == 1
        assert store.get("check", self.SPEC, "b") == 2
        store.close()

    def test_schema_mismatch_degrades(self, tmp_path):
        store = self.open(tmp_path)
        store.put("check", self.SPEC, "a", 1)
        store.flush()
        store.close()
        path = str(tmp_path / "store.sqlite")
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '99' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        report = RunReport()
        stale = ResultStore(path, report=report)
        assert not stale.available
        assert report.count("store_degraded") == 1
        # Degraded store is a no-op, never an error.
        stale.put("check", self.SPEC, "b", 2)
        assert stale.flush() == 0
        assert stale.get_many("check", self.SPEC, ["a"]) == {}
        assert "degraded" in stale.summary()

    def test_mismatched_row_schema_is_quarantined(self, tmp_path):
        store = self.open(tmp_path)
        store.put("check", self.SPEC, "a", 1)
        store.flush()
        # Forge a future-schema row with a *valid* digest for that schema:
        # the row-schema check must reject it without trusting the digest.
        spec_h = spec_hash(self.SPEC)
        payload = stable_key(2)
        store._conn.execute(
            "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?, ?, 0)",
            ("check", spec_h, "b", payload, row_digest("check", spec_h, "b", payload, 99), 99),
        )
        assert store.get("check", self.SPEC, "b") is None
        assert store.quarantined == 1
        store.close()

    def test_unopenable_path_degrades_gracefully(self, tmp_path):
        report = RunReport()
        store = ResultStore(str(tmp_path / "no\0dir" / "x.sqlite"), report=report)
        assert not store.available
        assert report.count("store_degraded") == 1
        store.put("check", self.SPEC, "a", 1)
        assert store.flush() == 0

    def test_read_only_serves_reads_drops_writes(self, tmp_path):
        store = self.open(tmp_path)
        store.put("check", self.SPEC, "a", 1)
        store.flush()
        store.close()
        report = RunReport()
        ro = self.open(tmp_path, read_only=True, report=report)
        assert ro.available
        assert ro.get("check", self.SPEC, "a") == 1
        ro.put("check", self.SPEC, "b", 2)
        assert ro.flush() == 0
        assert ro.dropped_writes == 1
        assert report.count("store_write_failed") == 1
        ro.close()
        # The dropped write really was dropped.
        back = self.open(tmp_path)
        assert back.get("check", self.SPEC, "b") is None
        back.close()

    def test_injected_busy_commit_retries_clean(self, tmp_path):
        report = RunReport()
        store = self.open(tmp_path, faults=FaultPlan(busy_store_commits=(0,)), report=report)
        store.put("check", self.SPEC, "a", 1)
        assert store.flush() == 1
        assert report.count("store_retry") == 1
        assert store.get("check", self.SPEC, "a") == 1
        store.close()

    def test_injected_diskfull_commit_drops_batch(self, tmp_path):
        report = RunReport()
        store = self.open(
            tmp_path, faults=FaultPlan(diskfull_store_commits=(0,)), report=report
        )
        store.put("check", self.SPEC, "a", 1)
        assert store.flush() == 0
        assert store.dropped_writes == 1
        assert report.count("store_write_failed") == 1
        assert store.available  # disk-full drops the batch, not the store
        store.put("check", self.SPEC, "a", 1)
        assert store.flush() == 1
        store.close()

    def test_concurrent_writers_insert_or_ignore(self, tmp_path):
        first = self.open(tmp_path)
        second = ResultStore(str(tmp_path / "store.sqlite"))
        first.put("check", self.SPEC, "a", 1)
        second.put("check", self.SPEC, "a", 1)
        second.put("check", self.SPEC, "b", 2)
        first.flush()
        second.flush()
        assert first.get_many("check", self.SPEC, ["a", "b"]) == {"a": 1, "b": 2}
        assert first.counts()["rows"] == 2
        first.close()
        second.close()

    def test_export_is_deterministic_and_verified(self, tmp_path):
        store = self.open(tmp_path)
        for key in ("b", "a", "c"):
            store.put("check", self.SPEC, key, {"key": key})
        store.flush()
        one, two = io.StringIO(), io.StringIO()
        assert store.export(one) == 3
        assert store.export(two) == 3
        assert one.getvalue() == two.getvalue()
        lines = [json.loads(line) for line in one.getvalue().splitlines()]
        assert [line["item_key"] for line in lines] == ["a", "b", "c"]
        store.close()

    def test_get_many_chunks_large_key_lists(self, tmp_path):
        store = self.open(tmp_path)
        keys = [f"k{i:04d}" for i in range(1000)]
        for key in keys:
            store.put("check", self.SPEC, key, 0)
        store.flush()
        assert len(store.get_many("check", self.SPEC, keys)) == 1000
        store.close()

    def test_fault_plan_round_trips_store_fields(self):
        plan = FaultPlan(
            corrupt_store_rows=(1, 5),
            torn_store_rows=(2,),
            busy_store_commits=(0,),
            diskfull_store_commits=(3,),
        )
        back = FaultPlan.from_json(plan.to_json())
        assert back == plan
        assert back.store_row_damage(1) == "corrupt"
        assert back.store_row_damage(2) == "torn"
        assert back.store_row_damage(0) is None
        assert back.store_commit_fault(0) == "busy"
        assert back.store_commit_fault(3) == "diskfull"
        assert back.store_commit_fault(1) is None


# ------------------------------------------------------------ integration layer
class TestCheckerMemo:
    def test_cold_then_warm_byte_identical(self, tmp_path):
        space = small_space()
        path = str(tmp_path / "memo.sqlite")
        plain = resilient_check(OptMin(2), space, CONTEXT.t, batch_size=32)

        cold_store = ResultStore(path)
        cold = resilient_check(
            OptMin(2), space, CONTEXT.t, batch_size=32, result_store=cold_store
        )
        assert check_signature(cold.value) == check_signature(plain.value)
        assert cold_store.misses == space.orbit_count() and cold_store.hits == 0
        cold_store.close()

        warm_store = ResultStore(path)
        warm = resilient_check(
            OptMin(2), space, CONTEXT.t, batch_size=32, result_store=warm_store
        )
        assert check_signature(warm.value) == check_signature(plain.value)
        assert warm_store.hits == space.orbit_count() and warm_store.misses == 0
        warm_store.close()

    def test_chaos_leg_self_heals_byte_identical(self, tmp_path):
        """Corrupted rows + truncated checkpoints mid-run: converges identical."""
        from repro.runtime import CheckpointStore

        space = small_space()
        plain = resilient_check(OptMin(2), space, CONTEXT.t, batch_size=16)
        path = str(tmp_path / "memo.sqlite")
        faults = FaultPlan(
            corrupt_store_rows=(0, 7, 30),
            torn_store_rows=(12,),
            busy_store_commits=(1,),
            truncate_checkpoints=(1,),
        )
        report = RunReport()
        chaos_store = ResultStore(path, faults=faults, report=report)
        chaos = resilient_check(
            OptMin(2), space, CONTEXT.t, batch_size=16,
            store=CheckpointStore(str(tmp_path / "ckpt"), faults=faults, report=report),
            result_store=chaos_store, report=report,
        )
        assert chaos.completed
        assert check_signature(chaos.value) == check_signature(plain.value)
        chaos_store.close()
        # The damaged rows are healed by a follow-up run, which stays identical.
        heal_store = ResultStore(path, report=report)
        healed = resilient_check(
            OptMin(2), space, CONTEXT.t, batch_size=16, result_store=heal_store
        )
        assert check_signature(healed.value) == check_signature(plain.value)
        assert heal_store.quarantined == 4  # the 3 corrupted + 1 torn rows
        assert heal_store.misses == 4 and heal_store.hits == space.orbit_count() - 4
        heal_store.close()
        final = ResultStore(path)
        assert final.verify() == {"checked": space.orbit_count(), "corrupt": 0}
        final.close()

    def test_degraded_store_still_completes(self, tmp_path):
        space = small_space()
        plain = resilient_check(OptMin(2), space, CONTEXT.t, batch_size=32)
        report = RunReport()
        broken = ResultStore(str(tmp_path / "no\0dir" / "x.sqlite"), report=report)
        outcome = resilient_check(
            OptMin(2), space, CONTEXT.t, batch_size=32,
            result_store=broken, report=report,
        )
        assert outcome.completed
        assert check_signature(outcome.value) == check_signature(plain.value)
        assert report.count("store_degraded") == 1


class TestCensusMemo:
    def build(self):
        return build_restricted_complex(CONTEXT, time=2)

    def test_cold_then_warm_byte_identical(self, tmp_path):
        pc = self.build()
        plain = capacity_connectivity_census(pc, CONTEXT.k)
        path = str(tmp_path / "census.sqlite")
        cold_store = ResultStore(path)
        cold = resilient_census(
            pc, CONTEXT.k, result_store=cold_store
        )
        assert cold.value.row == plain.row and cold.value.classes == plain.classes
        counts = cold_store.counts()
        assert counts["kinds"]["census_class"] == plain.classes
        assert counts["kinds"]["profile"] == plain.homology_runs
        assert counts["kinds"]["census_row"] == 1
        cold_store.close()
        warm_store = ResultStore(path)
        warm = resilient_census(
            pc, CONTEXT.k, result_store=warm_store
        )
        assert warm.value.row == plain.row and warm.value.classes == plain.classes
        # The coarsest tier answers the repeat survey in a single read.
        assert warm_store.hits == 1 and warm_store.misses == 0
        # A fully warm census ran no homology at all.
        assert warm.value.homology_runs == 0
        warm_store.close()

    def test_class_tier_serves_when_row_tier_is_absent(self, tmp_path):
        pc = self.build()
        plain = capacity_connectivity_census(pc, CONTEXT.k)
        path = str(tmp_path / "census.sqlite")
        cold_store = ResultStore(path)
        resilient_census(pc, CONTEXT.k, result_store=cold_store)
        cold_store.close()
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM results WHERE kind = 'census_row'")
        conn.commit()
        conn.close()
        warm_store = ResultStore(path)
        warm = resilient_census(
            pc, CONTEXT.k, result_store=warm_store
        )
        assert warm.value.row == plain.row
        # One missed row-tier read, then every class served from disk.
        assert warm_store.hits == plain.classes and warm_store.misses == 1
        assert warm.value.homology_runs == 0
        # Completion repopulates the row tier for the next survey.
        assert warm_store.counts()["kinds"]["census_row"] == 1
        warm_store.close()

    def test_row_tier_has_one_fold_shape(self, tmp_path):
        # The census always folds canonical classes: one row key, which a
        # rerun hits instead of writing a second row.
        from repro.store import CENSUS_ROW_KEY

        pc = self.build()
        path = str(tmp_path / "census.sqlite")
        store = ResultStore(path)
        first = resilient_census(pc, CONTEXT.k, result_store=store)
        again = resilient_census(pc, CONTEXT.k, result_store=store)
        assert again.value.row == first.value.row
        assert again.value.classes == first.value.classes < pc.complex.vertex_count
        assert store.counts()["kinds"]["census_row"] == 1
        store.close()
        with closing(sqlite3.connect(path)) as conn:
            keys = conn.execute("SELECT item_key FROM results WHERE kind = 'census_row'")
            assert [key for (key,) in keys] == [CENSUS_ROW_KEY]

    def test_profile_tier_serves_without_row_and_class_tiers(self, tmp_path):
        pc = self.build()
        path = str(tmp_path / "census.sqlite")
        first = ResultStore(path)
        one = resilient_census(pc, CONTEXT.k, result_store=first).value
        assert first.counts()["kinds"].get("profile") == one.homology_runs
        first.close()
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM results WHERE kind IN ('census_row', 'census_class')")
        conn.commit()
        conn.close()
        second = ResultStore(path)
        two = resilient_census(pc, CONTEXT.k, result_store=second).value
        assert two.row == one.row
        # Every profile served from the store: no homology was re-run.
        assert two.homology_runs == 0 and second.hits == one.homology_runs
        second.close()

    def test_census_chaos_leg_converges(self, tmp_path):
        pc = self.build()
        plain = capacity_connectivity_census(pc, CONTEXT.k)
        path = str(tmp_path / "census.sqlite")
        report = RunReport()
        chaos_store = ResultStore(
            path, faults=FaultPlan(corrupt_store_rows=(0, 3), torn_store_rows=(5,)),
            report=report,
        )
        chaos = resilient_census(
            pc, CONTEXT.k, result_store=chaos_store, report=report
        )
        assert chaos.value.row == plain.row
        chaos_store.close()
        # Damage the whole-row memo too, so the heal leg exercises the full
        # fall-through: quarantined row tier -> class tier -> recompute.
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE results SET payload = payload || ' ' WHERE kind = 'census_row'"
        )
        conn.commit()
        conn.close()
        heal = ResultStore(path, report=report)
        healed = resilient_census(pc, CONTEXT.k, result_store=heal)
        assert healed.value.row == plain.row
        # The warm run heals every damaged row it actually reads (the row
        # memo, plus the fault-damaged rows its class sweep touches); a
        # damaged profile row shadowed by a healthy class row is only
        # touched by a whole-store verify — together they account for all
        # 3 injected faults plus the damaged row memo.
        final = ResultStore(path)
        remaining = final.verify()["corrupt"]
        assert heal.quarantined >= 2 and heal.quarantined + remaining == 4
        assert final.verify()["corrupt"] == 0
        final.close()
        heal.close()


# ------------------------------------------------------------------- CLI layer
class TestCliStore:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_census_store_round_trip_and_admin(self, tmp_path, capsys):
        store_path = str(tmp_path / "cli.sqlite")
        base_args = [
            "census", "-n", "4", "-t", "2", "-k", "2", "-m", "2",
            "--store", store_path,
        ]
        assert self.run_cli(*base_args) == 0
        cold_out = capsys.readouterr().out
        assert "store:" in cold_out and "misses" in cold_out
        assert self.run_cli(*base_args) == 0
        warm_out = capsys.readouterr().out
        assert "0 homology runs" in warm_out
        # The census block itself is identical between cold and warm runs.
        pick = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith("  vertices")
        ]
        assert pick(cold_out) == pick(warm_out)

        assert self.run_cli("store", "inspect", store_path) == 0
        assert "census_class" in capsys.readouterr().out
        assert self.run_cli("store", "verify", store_path) == 0
        assert "0 corrupt" in capsys.readouterr().out
        out_path = str(tmp_path / "dump.jsonl")
        assert self.run_cli("store", "export", store_path, "--output", out_path) == 0
        assert os.path.getsize(out_path) > 0
        assert self.run_cli("store", "gc", store_path) == 0

    def test_sweep_store_flag_and_verify_failure_exit(self, tmp_path, capsys):
        store_path = str(tmp_path / "cli.sqlite")
        argv = [
            "sweep", "-n", "4", "-t", "2", "-k", "2", "--max-crash-round", "1",
            "--max-failures", "1",
            "--store", store_path,
        ]
        assert self.run_cli(*argv) == 0
        capsys.readouterr()
        # Flip a byte in one payload: `store verify` must exit 1 and quarantine.
        conn = sqlite3.connect(store_path)
        conn.execute("UPDATE results SET payload = payload || 'x' WHERE rowid = 1")
        conn.commit()
        conn.close()
        assert self.run_cli("store", "verify", store_path) == 1
        assert "1 corrupt" in capsys.readouterr().out
        assert self.run_cli("store", "verify", store_path) == 0

    def test_store_admin_on_missing_path_is_usage_error(self, tmp_path, capsys):
        assert self.run_cli("store", "verify", str(tmp_path / "absent.sqlite")) == 2
        assert "does not exist" in capsys.readouterr().out
