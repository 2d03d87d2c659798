"""Resilient runtime: resume identity, corruption rejection, the chaos battery.

The headline contract of ``repro.runtime``: a survey interrupted at any
batch boundary — by a budget stop, a Ctrl-C, or injected checkpoint
damage — resumes to results *byte-identical* to an
uninterrupted run (identity checked on the canonical JSON of the serialized
aggregates).  The one documented exception is the census's
``homology_runs`` bookkeeping field, which may exceed the uninterrupted
run's because a resumed process re-misses its connectivity cache.
"""

from __future__ import annotations

import random

import pytest

from repro import oracles
from repro.adversaries.enumeration import RestrictedSpace
from repro.core import OptMin
from repro.core.protocol import Protocol
from repro.model import Context, RoundContext
from repro.runtime import (
    CheckpointStore,
    FaultPlan,
    RunReport,
    canonical_json,
    resilient_census,
    resilient_check,
)
from repro.topology import build_restricted_complex, capacity_connectivity_census
from repro.verification import check_protocol

CONTEXT = Context(n=4, t=2, k=2)

#: The production checker and the per-adversary ``Run`` oracle it is pinned to.
CHECKERS = {"batch": check_protocol, "reference": oracles.check_protocol}


def small_space():
    return RestrictedSpace(
        CONTEXT, max_crash_round=1, max_failures=1, receiver_policy="canonical"
    )


def check_signature(report):
    """The byte-identity form of a CheckReport."""
    return canonical_json(report.to_payload())


class TestCheckerResume:
    def test_uninterrupted_equals_plain_checker(self, tmp_path):
        space = small_space()
        outcome = resilient_check(
            OptMin(2), space, CONTEXT.t,
            batch_size=32, store=CheckpointStore(str(tmp_path)),
        )
        assert outcome.completed and outcome.stop_reason is None
        plain = check_protocol(OptMin(2), space, CONTEXT.t)
        assert check_signature(outcome.value) == check_signature(plain)

    def test_interrupted_at_every_batch_boundary(self, tmp_path):
        """One-batch legs (deadline already expired) walk every boundary."""
        space = small_space()
        plain = check_protocol(OptMin(2), space, CONTEXT.t)
        total = space.orbit_count()
        boundaries = []
        outcome = None
        for _leg in range(1000):
            outcome = resilient_check(
                OptMin(2), space, CONTEXT.t,
                batch_size=16, store=CheckpointStore(str(tmp_path)),
                resume=True, deadline_seconds=0.0,
            )
            boundaries.append(outcome.cursor)
            if outcome.completed:
                break
        assert outcome is not None and outcome.completed
        # Every leg advanced exactly one batch, so every boundary was visited;
        # the budget stop is conservative on the final batch, so the last
        # boundary appears twice (once stopped, once confirming completion).
        assert boundaries == list(range(16, total, 16)) + [total, total]
        assert check_signature(outcome.value) == check_signature(plain)

    def test_spec_mismatch_starts_fresh(self, tmp_path):
        space = small_space()
        resilient_check(
            OptMin(2), space, CONTEXT.t, batch_size=16,
            store=CheckpointStore(str(tmp_path)), deadline_seconds=0.0,
        )
        report = RunReport()
        # Different restriction flags: the stored checkpoint must not be
        # trusted for this stream.
        other = RestrictedSpace(
            CONTEXT, max_crash_round=1, max_failures=None, receiver_policy="canonical"
        )
        outcome = resilient_check(
            OptMin(2), other, CONTEXT.t, batch_size=64,
            store=CheckpointStore(str(tmp_path)), resume=True, report=report,
        )
        assert outcome.resumed_from is None
        assert report.count("checkpoint_rejected") >= 1
        plain = check_protocol(OptMin(2), other, CONTEXT.t)
        assert check_signature(outcome.value) == check_signature(plain)

    @pytest.mark.parametrize("expiring_batch", [1, 2, 3])
    def test_deadline_expiring_mid_batch_stops_at_its_boundary(
        self, tmp_path, monkeypatch, expiring_batch
    ):
        """The deadline is read only at batch boundaries: a batch it expires
        inside is folded whole and checkpointed before the run stops."""
        import types

        from repro.runtime import runner
        from repro.verification import checker

        # The runner's clock stands still except inside the expiring batch.
        clock = {"now": 0.0}
        monkeypatch.setattr(runner, "time", types.SimpleNamespace(monotonic=lambda: clock["now"]))
        space = small_space()
        real = checker.batch_verdicts
        calls = {"n": 0}

        def slow(runs, enforce_paper_bound=True):
            calls["n"] += 1
            if calls["n"] == expiring_batch:
                clock["now"] += 60.0
            return real(runs, enforce_paper_bound)

        monkeypatch.setattr(checker, "batch_verdicts", slow)
        report = RunReport()
        store = CheckpointStore(str(tmp_path))
        stopped = resilient_check(
            OptMin(2), space, CONTEXT.t,
            batch_size=16, store=store, deadline_seconds=30.0, report=report,
        )
        assert not stopped.completed and stopped.stop_reason == "deadline"
        assert stopped.cursor == store.latest().cursor == 16 * expiring_batch
        assert report.count("deadline_stop") == 1
        monkeypatch.setattr(checker, "batch_verdicts", real)
        resumed = resilient_check(
            OptMin(2), space, CONTEXT.t,
            batch_size=16, store=CheckpointStore(str(tmp_path)), resume=True,
        )
        plain = check_protocol(OptMin(2), space, CONTEXT.t)
        assert resumed.completed and resumed.resumed_from == 16 * expiring_batch
        assert check_signature(resumed.value) == check_signature(plain)

    def test_keyboard_interrupt_flushes_then_reraises(self, tmp_path, monkeypatch):
        from repro.verification import checker

        space = small_space()
        real = checker.batch_verdicts
        calls = {"n": 0}

        def interrupting(runs, enforce_paper_bound=True):
            calls["n"] += 1
            if calls["n"] == 3:  # the third 16-orbit batch, past the second boundary
                raise KeyboardInterrupt
            return real(runs, enforce_paper_bound)

        monkeypatch.setattr(checker, "batch_verdicts", interrupting)
        report = RunReport()
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            resilient_check(
                OptMin(2), space, CONTEXT.t,
                batch_size=16, store=store, report=report,
            )
        assert report.count("interrupt") == 1
        # The flush is at the last completed batch boundary.
        saved = store.latest()
        assert saved is not None and saved.cursor == 32
        monkeypatch.setattr(checker, "batch_verdicts", real)
        resumed = resilient_check(
            OptMin(2), space, CONTEXT.t,
            batch_size=16, store=CheckpointStore(str(tmp_path)), resume=True,
        )
        plain = check_protocol(OptMin(2), space, CONTEXT.t)
        assert resumed.completed and resumed.resumed_from == 32
        assert check_signature(resumed.value) == check_signature(plain)


class EagerMin(Protocol):
    """Decides its minimum at time 1: breaks consensus whenever a crash hides a value."""

    name = "EagerMin"

    def decide(self, ctx: RoundContext):
        return ctx.view.min_value() if ctx.time >= 1 else None

    def max_decision_time(self, n, t):
        return 1


class TestPlainEqualsResilient:
    """A plain check is the resilient runner's pipeline with nothing attached.

    Same stream, same fold: indices, weights and the histogram's fold order
    all match byte for byte, with and without a ``limit`` (which caps
    orbits), with violations in the report.  The plain leg runs on the
    batch engine and on the per-adversary ``Run`` oracle.
    """

    CONSENSUS = Context(n=4, t=2, k=1)

    @pytest.mark.parametrize("protocol", [OptMin(1), EagerMin(1)], ids=["optmin", "eager"])
    @pytest.mark.parametrize("limit", [None, 50])
    @pytest.mark.parametrize("engine", ["batch", "reference"])
    def test_check_payloads_identical(self, tmp_path, engine, limit, protocol):
        space = RestrictedSpace(self.CONSENSUS, max_crash_round=1, limit=limit)
        plain = CHECKERS[engine](protocol, space, 2)
        outcome = resilient_check(
            protocol, space, 2, batch_size=16, store=CheckpointStore(str(tmp_path))
        )
        assert outcome.completed
        assert check_signature(outcome.value) == check_signature(plain)
        assert plain.ok == (protocol.name != "EagerMin")

    def test_census_identical(self, tmp_path):
        pc = build_restricted_complex(Context(n=5, t=2, k=2), time=2, max_crashes_per_round=1)
        plain = capacity_connectivity_census(pc, 2)
        outcome = resilient_census(pc, 2, batch_size=4, store=CheckpointStore(str(tmp_path)))
        assert outcome.completed
        assert outcome.value.row == plain.row
        assert outcome.value.classes == plain.classes
        assert outcome.value.homology_runs == plain.homology_runs

class TestCensusResume:
    def build(self):
        return build_restricted_complex(
            Context(n=5, t=2, k=2), time=2, max_crashes_per_round=1
        )

    def test_uninterrupted_equals_plain_census(self, tmp_path):
        pc = self.build()
        plain = capacity_connectivity_census(pc, 2)
        outcome = resilient_census(
            pc, 2, batch_size=4, store=CheckpointStore(str(tmp_path))
        )
        assert outcome.completed
        assert outcome.value == plain

    def test_interrupted_census_rows_are_identical(self, tmp_path):
        pc = self.build()
        plain = capacity_connectivity_census(pc, 2)
        outcome = None
        for _leg in range(100):
            outcome = resilient_census(
                pc, 2, batch_size=2,
                store=CheckpointStore(str(tmp_path)), resume=True, deadline_seconds=0.0,
            )
            if outcome.completed:
                break
        assert outcome is not None and outcome.completed
        assert outcome.value.row == plain.row
        assert outcome.value.classes == plain.classes
        # The one documented non-identity: a resumed run re-misses its
        # connectivity cache, so it may probe homology more often.
        assert outcome.value.homology_runs >= plain.homology_runs

    @pytest.mark.parametrize("expiring_batch", [1, 2, 3])
    def test_deadline_expiring_mid_batch_stops_at_its_boundary(
        self, tmp_path, monkeypatch, expiring_batch
    ):
        """A census batch the deadline expires inside is folded whole and
        checkpointed before the run stops."""
        import types

        from repro.runtime import runner
        from repro.topology import protocol_complex

        pc = self.build()
        plain = capacity_connectivity_census(pc, 2)
        clock = {"now": 0.0}
        monkeypatch.setattr(runner, "time", types.SimpleNamespace(monotonic=lambda: clock["now"]))
        real = protocol_complex.vertex_capacity
        calls = {"n": 0}

        def slow(vertex):
            calls["n"] += 1
            if calls["n"] == 2 * expiring_batch - 1:  # the batch's first class
                clock["now"] += 60.0
            return real(vertex)

        monkeypatch.setattr(protocol_complex, "vertex_capacity", slow)
        store = CheckpointStore(str(tmp_path))
        stopped = resilient_census(
            pc, 2, batch_size=2, store=store, deadline_seconds=30.0
        )
        assert not stopped.completed and stopped.stop_reason == "deadline"
        assert stopped.cursor == store.latest().cursor == 2 * expiring_batch
        resumed = resilient_census(
            pc, 2, batch_size=2,
            store=CheckpointStore(str(tmp_path)), resume=True,
        )
        assert resumed.completed and resumed.resumed_from == 2 * expiring_batch
        assert resumed.value.row == plain.row
        assert resumed.value.classes == plain.classes

class TestChaosAcceptance:
    """The seeded truncate-and-corrupt-the-checkpoint battery (n=5)."""

    def space(self):
        return RestrictedSpace(
            Context(n=5, t=2, k=2),
            max_crash_round=1,
            max_failures=2,
            receiver_policy="canonical",
        )

    def test_damaged_checkpoints_converge_byte_identical(self, tmp_path):
        space = self.space()
        baseline = check_protocol(OptMin(2), space, 2)

        # Leg 1: one clean batch, then a deterministic budget stop.
        leg1 = resilient_check(
            OptMin(2), space, 2, batch_size=256,
            store=CheckpointStore(str(tmp_path)), deadline_seconds=0.0,
        )
        assert not leg1.completed and leg1.cursor == 256

        # Leg 2: folds the next batch, but its checkpoint write is truncated
        # mid-file (the torn-write model) right after the atomic rename.
        sabotage = FaultPlan(seed=20160725, truncate_checkpoints=(0,))
        leg2 = resilient_check(
            OptMin(2), space, 2, batch_size=256,
            store=CheckpointStore(str(tmp_path), faults=sabotage),
            resume=True, deadline_seconds=0.0,
        )
        assert leg2.resumed_from == 256 and leg2.cursor == 512

        # Leg 3: the newest checkpoint is truncated, so resume falls back to
        # its rotated predecessor, re-folds the batch, and this time the
        # rewritten checkpoint is bit-flipped mid-file (the bad-disk model).
        report = RunReport()
        sabotage = FaultPlan(seed=20160725, corrupt_checkpoints=(0,))
        leg3 = resilient_check(
            OptMin(2), space, 2, batch_size=256,
            store=CheckpointStore(str(tmp_path), faults=sabotage),
            resume=True, deadline_seconds=0.0, report=report,
        )
        assert leg3.resumed_from == 256 and leg3.cursor == 512
        assert report.count("checkpoint_rejected") == 1
        assert report.count("fault_installed") == 1

        # Leg 4: the corrupted newest checkpoint is rejected too; the run
        # resumes from the predecessor again and completes.
        report = RunReport()
        leg4 = resilient_check(
            OptMin(2), space, 2, batch_size=256,
            store=CheckpointStore(str(tmp_path)), resume=True, report=report,
        )
        assert leg4.completed
        assert leg4.resumed_from == 256  # fell back past the corrupted file
        assert report.count("checkpoint_rejected") >= 1
        # The structured report is machine-readable end to end.
        structured = report.to_dict()
        assert structured["counts"]["checkpoint_rejected"] == report.count("checkpoint_rejected")
        # And the product is byte-identical to the uninterrupted baseline.
        assert check_signature(leg4.value) == check_signature(baseline)

    def test_census_survives_checkpoint_truncation(self, tmp_path):
        pc = build_restricted_complex(
            Context(n=5, t=2, k=2), time=2, max_crashes_per_round=1
        )
        plain = capacity_connectivity_census(pc, 2)
        sabotage = FaultPlan(truncate_checkpoints=(0,))
        leg1 = resilient_census(
            pc, 2, batch_size=4,
            store=CheckpointStore(str(tmp_path), faults=sabotage),
            deadline_seconds=0.0,
        )
        assert not leg1.completed
        report = RunReport()
        leg2 = resilient_census(
            pc, 2, batch_size=4,
            store=CheckpointStore(str(tmp_path)), resume=True, report=report,
        )
        # The only checkpoint was truncated, so the run starts fresh — and
        # still converges to the plain census row.
        assert leg2.completed and leg2.resumed_from is None
        assert report.count("checkpoint_rejected") >= 1
        assert leg2.value.row == plain.row and leg2.value.classes == plain.classes


def seeded_plan(seed, saves, truncations, corruptions):
    """A reproducible plan: checkpoint faults on distinct save ordinals, placed by seed."""
    save_ids = list(range(saves))
    random.Random(seed).shuffle(save_ids)
    picks = iter(save_ids)
    return FaultPlan(
        seed=seed,
        truncate_checkpoints=tuple(sorted(next(picks) for _ in range(min(truncations, saves)))),
        corrupt_checkpoints=tuple(sorted(next(picks) for _ in range(min(corruptions, saves)))),
    )


class TestSeededPlan:
    """The chaos battery's plans: reproducible, and never two faults on one save."""

    def test_seeded_is_reproducible_and_disjoint(self):
        a = seeded_plan(11, saves=8, truncations=2, corruptions=3)
        b = seeded_plan(11, saves=8, truncations=2, corruptions=3)
        assert a == b
        touched = list(a.truncate_checkpoints) + list(a.corrupt_checkpoints)
        assert len(touched) == len(set(touched)) == 5

    def test_seeded_checkpoint_ordinals(self):
        plan = seeded_plan(5, saves=6, truncations=1, corruptions=1)
        assert len(plan.truncate_checkpoints) == 1
        assert len(plan.corrupt_checkpoints) == 1
        assert set(plan.truncate_checkpoints).isdisjoint(plan.corrupt_checkpoints)
        assert all(0 <= ordinal < 6 for ordinal in plan.truncate_checkpoints + plan.corrupt_checkpoints)


def resume_until_complete(survey, store, report):
    """Run ``survey`` one batch per leg, resuming each time, until it completes."""
    for _leg in range(200):
        outcome = survey(store=store, resume=True, deadline_seconds=0.0, report=report)
        if outcome.completed:
            return outcome
    raise AssertionError("the survey did not complete in 200 legs")


class TestSeededChaos:
    """Seeded checkpoint damage over one-batch legs: every damaged save is
    rejected on the next resume, which falls back to the newest valid
    checkpoint and re-folds, and the product is the uninterrupted one."""

    @pytest.mark.parametrize("seed", range(6))
    def test_check_converges_byte_identical(self, tmp_path, seed):
        space = RestrictedSpace(
            CONTEXT, max_crash_round=2, max_failures=2, receiver_policy="canonical"
        )
        baseline = check_protocol(OptMin(2), space, 2)
        plan = seeded_plan(seed, saves=8, truncations=2, corruptions=2)
        report = RunReport()

        def survey(**attachments):
            return resilient_check(
                OptMin(2), space, 2, batch_size=64, **attachments
            )

        outcome = resume_until_complete(survey, CheckpointStore(str(tmp_path), faults=plan), report)
        assert report.count("fault_installed") == report.count("checkpoint_rejected") == 4
        assert check_signature(outcome.value) == check_signature(baseline)

    @pytest.mark.parametrize("seed", range(6))
    def test_census_converges_to_the_plain_row(self, tmp_path, seed):
        pc = build_restricted_complex(
            Context(n=5, t=2, k=2), time=2, max_crashes_per_round=1
        )
        plain = capacity_connectivity_census(pc, 2)
        plan = seeded_plan(seed, saves=6, truncations=1, corruptions=1)
        report = RunReport()

        def survey(**attachments):
            return resilient_census(pc, 2, batch_size=1, **attachments)

        outcome = resume_until_complete(survey, CheckpointStore(str(tmp_path), faults=plan), report)
        assert report.count("fault_installed") == report.count("checkpoint_rejected") == 2
        assert outcome.value.row == plain.row
        assert outcome.value.classes == plain.classes


class TestCliRuntimeFlags:
    def test_deadline_stop_exits_3_and_resume_completes(self, tmp_path, capsys):
        from repro.cli import main

        flags = [
            "sweep", "-n", "4", "-t", "2", "-k", "2", "--max-crash-round", "1",
            "--max-failures", "1",
            "--checkpoint", str(tmp_path / "ck"),
        ]
        assert main(flags + ["--deadline", "1e-9"]) == 3
        out = capsys.readouterr().out
        assert "stopped at cursor" in out and "--resume" in out
        assert main(flags + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from cursor" in out

    def test_census_checkpoint_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        flags = [
            "census", "-n", "4", "-t", "2", "-k", "2",
            "--checkpoint", str(tmp_path / "ck"),
        ]
        assert main(flags) == 0
        out = capsys.readouterr().out
        assert "runtime:" in out and "Proposition 2" in out
        assert main(flags + ["--resume"]) == 0

    def test_resume_requires_checkpoint(self, capsys):
        # Rejected at argparse time: SystemExit(2), message on stderr.
        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "-n", "4", "-t", "2", "--max-crash-round", "1",
                  "--max-failures", "1", "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupt(args):
            raise KeyboardInterrupt

        # build_parser binds the module global at call time, so patching the
        # command function routes a real invocation through main()'s handler.
        monkeypatch.setattr(cli, "cmd_count", interrupt)
        assert cli.main(["count", "-n", "4", "-t", "2"]) == 130
        assert "interrupted" in capsys.readouterr().err
