"""Resilient runtime: resume identity, corruption rejection, the chaos battery.

The headline contract of ``repro.runtime``: a survey interrupted at any
batch boundary — by a budget stop, a Ctrl-C, or injected worker
kills/checkpoint damage — resumes to results *byte-identical* to an
uninterrupted run (identity checked on the canonical JSON of the serialized
aggregates).  The one documented exception is the census's
``homology_runs`` bookkeeping field, which may exceed the uninterrupted
run's because a resumed process re-misses its connectivity cache.
"""

from __future__ import annotations

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
    SupervisionPolicy,
    canonical_json,
    resilient_census,
    resilient_check,
)
from repro.topology import build_restricted_complex, capacity_connectivity_census
from repro.verification import CheckReport, check_protocol

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
            OptMin(2), space, CONTEXT.t, symmetry="constructive",
            batch_size=32, store=CheckpointStore(str(tmp_path)),
        )
        assert outcome.completed and outcome.stop_reason is None
        plain = check_protocol(OptMin(2), space, CONTEXT.t, symmetry="constructive")
        assert check_signature(outcome.value) == check_signature(plain)

    def test_interrupted_at_every_batch_boundary(self, tmp_path):
        """One-batch legs (deadline already expired) walk every boundary."""
        space = small_space()
        plain = check_protocol(OptMin(2), space, CONTEXT.t, symmetry="constructive")
        total = space.orbit_count()
        boundaries = []
        outcome = None
        for _leg in range(1000):
            outcome = resilient_check(
                OptMin(2), space, CONTEXT.t, symmetry="constructive",
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

    def test_symmetry_none_stream_resumes(self, tmp_path):
        space = RestrictedSpace(
            CONTEXT, max_crash_round=1, max_failures=1, receiver_policy="none"
        )
        plain = check_protocol(OptMin(2), space, CONTEXT.t)
        first = resilient_check(
            OptMin(2), space, CONTEXT.t, symmetry="none", batch_size=8,
            store=CheckpointStore(str(tmp_path)), deadline_seconds=0.0,
        )
        assert not first.completed and first.stop_reason == "deadline"
        second = resilient_check(
            OptMin(2), space, CONTEXT.t, symmetry="none", batch_size=8,
            store=CheckpointStore(str(tmp_path)), resume=True,
        )
        assert second.completed and second.resumed_from == first.cursor
        assert check_signature(second.value) == check_signature(plain)

    def test_spec_mismatch_starts_fresh(self, tmp_path):
        space = small_space()
        resilient_check(
            OptMin(2), space, CONTEXT.t, symmetry="constructive", batch_size=16,
            store=CheckpointStore(str(tmp_path)), deadline_seconds=0.0,
        )
        report = RunReport()
        # Different restriction flags: the stored checkpoint must not be
        # trusted for this stream.
        other = RestrictedSpace(
            CONTEXT, max_crash_round=1, max_failures=None, receiver_policy="canonical"
        )
        outcome = resilient_check(
            OptMin(2), other, CONTEXT.t, symmetry="constructive", batch_size=64,
            store=CheckpointStore(str(tmp_path)), resume=True, report=report,
        )
        assert outcome.resumed_from is None
        assert report.count("checkpoint_rejected") >= 1
        plain = check_protocol(OptMin(2), other, CONTEXT.t, symmetry="constructive")
        assert check_signature(outcome.value) == check_signature(plain)

    def test_keyboard_interrupt_flushes_then_reraises(self, tmp_path, monkeypatch):
        from repro.verification import checker

        space = small_space()
        real = checker.check_run_for_protocol
        calls = {"n": 0}

        def interrupting(run, enforce_paper_bound=True):
            calls["n"] += 1
            if calls["n"] > 40:  # past the second 16-orbit batch boundary
                raise KeyboardInterrupt
            return real(run, enforce_paper_bound)

        monkeypatch.setattr(checker, "check_run_for_protocol", interrupting)
        report = RunReport()
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            resilient_check(
                OptMin(2), space, CONTEXT.t, symmetry="constructive",
                batch_size=16, store=store, report=report,
            )
        assert report.count("interrupt") == 1
        # The flush is at the last completed batch boundary.
        saved = store.latest()
        assert saved is not None and saved.cursor == 32
        monkeypatch.setattr(checker, "check_run_for_protocol", real)
        resumed = resilient_check(
            OptMin(2), space, CONTEXT.t, symmetry="constructive",
            batch_size=16, store=CheckpointStore(str(tmp_path)), resume=True,
        )
        plain = check_protocol(OptMin(2), space, CONTEXT.t, symmetry="constructive")
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
    all match byte for byte, for every symmetry mode and ``limit``
    (which caps members on the quotient stream and orbits on the
    constructive one), with violations in the report.  The plain leg runs
    on the batch engine and on the per-adversary ``Run`` oracle.
    """

    CONSENSUS = Context(n=4, t=2, k=1)

    @pytest.mark.parametrize("protocol", [OptMin(1), EagerMin(1)], ids=["optmin", "eager"])
    @pytest.mark.parametrize("limit", [None, 50])
    @pytest.mark.parametrize("engine", ["batch", "reference"])
    @pytest.mark.parametrize("symmetry", ["none", "quotient", "constructive"])
    def test_check_payloads_identical(self, tmp_path, symmetry, engine, limit, protocol):
        space = RestrictedSpace(self.CONSENSUS, max_crash_round=1, limit=limit)
        plain = CHECKERS[engine](protocol, space, 2, symmetry=symmetry)
        outcome = resilient_check(
            protocol, space, 2, symmetry=symmetry, batch_size=16,
            store=CheckpointStore(str(tmp_path)),
        )
        assert outcome.completed
        assert check_signature(outcome.value) == check_signature(plain)
        assert plain.ok == (protocol.name != "EagerMin")

    @pytest.mark.parametrize("symmetry", ["none", "quotient"])
    def test_census_identical(self, tmp_path, symmetry):
        pc = build_restricted_complex(Context(n=5, t=2, k=2), time=2, max_crashes_per_round=1)
        plain = capacity_connectivity_census(pc, 2, symmetry=symmetry)
        outcome = resilient_census(
            pc, 2, symmetry=symmetry, batch_size=4, store=CheckpointStore(str(tmp_path))
        )
        assert outcome.completed
        assert outcome.value.row == plain.row
        assert outcome.value.classes == plain.classes
        assert outcome.value.homology_runs == plain.homology_runs

    def test_stale_quotient_checkpoint_is_rejected(self, tmp_path):
        """A checkpoint of the former quotient stream order must not be resumed."""
        from repro.runtime import Checkpoint, checker_spec

        space = RestrictedSpace(self.CONSENSUS, max_crash_round=1, limit=50)
        spec = checker_spec(OptMin(1), space, 2, "quotient", True)
        stale = {key: value for key, value in spec.items() if key != "stream"}
        store = CheckpointStore(str(tmp_path))
        store.save(Checkpoint(spec=stale, cursor=16, payload=CheckReport("Optmin[k]").to_payload()))
        report = RunReport()
        outcome = resilient_check(
            OptMin(1), space, 2, symmetry="quotient", batch_size=16,
            store=CheckpointStore(str(tmp_path)), resume=True, report=report,
        )
        assert outcome.completed and outcome.resumed_from is None
        assert report.count("checkpoint_rejected") == 1
        plain = check_protocol(OptMin(1), space, 2, symmetry="quotient")
        assert check_signature(outcome.value) == check_signature(plain)
        assert plain.runs_checked == 50


class TestCensusResume:
    def build(self):
        return build_restricted_complex(
            Context(n=5, t=2, k=2), time=2, max_crashes_per_round=1
        )

    def test_uninterrupted_equals_plain_census(self, tmp_path):
        pc = self.build()
        plain = capacity_connectivity_census(pc, 2, symmetry="quotient")
        outcome = resilient_census(
            pc, 2, symmetry="quotient", batch_size=4, store=CheckpointStore(str(tmp_path))
        )
        assert outcome.completed
        assert outcome.value == plain

    def test_interrupted_census_rows_are_identical(self, tmp_path):
        pc = self.build()
        plain = capacity_connectivity_census(pc, 2, symmetry="quotient")
        outcome = None
        for _leg in range(100):
            outcome = resilient_census(
                pc, 2, symmetry="quotient", batch_size=2,
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

    def test_exhaustive_census_resumes_too(self, tmp_path):
        pc = build_restricted_complex(CONTEXT, time=1, max_crashes_per_round=1)
        plain = capacity_connectivity_census(pc, 2, symmetry="none")
        first = resilient_census(
            pc, 2, symmetry="none", batch_size=8,
            store=CheckpointStore(str(tmp_path)), deadline_seconds=0.0,
        )
        assert not first.completed
        second = resilient_census(
            pc, 2, symmetry="none", batch_size=8,
            store=CheckpointStore(str(tmp_path)), resume=True,
        )
        assert second.completed
        assert second.value == plain


class TestChaosAcceptance:
    """The seeded kill-a-worker-and-truncate-the-checkpoint battery (n=5)."""

    def space(self):
        return RestrictedSpace(
            Context(n=5, t=2, k=2),
            max_crash_round=1,
            max_failures=2,
            receiver_policy="canonical",
        )

    def test_sigkill_plus_truncated_checkpoint_converges_byte_identical(self, tmp_path):
        space = self.space()
        baseline = check_protocol(
            OptMin(2), space, 2, symmetry="constructive", processes=2
        )

        # Leg 1: one clean batch, then a deterministic budget stop.
        leg1 = resilient_check(
            OptMin(2), space, 2, symmetry="constructive", batch_size=256,
            store=CheckpointStore(str(tmp_path)), deadline_seconds=0.0,
        )
        assert not leg1.completed and leg1.cursor == 256

        # Leg 2: folds the next batch, but its checkpoint write is truncated
        # mid-file (the torn-write model) right after the atomic rename.
        sabotage = FaultPlan(seed=20160725, truncate_checkpoints=(0,))
        leg2 = resilient_check(
            OptMin(2), space, 2, symmetry="constructive", batch_size=256,
            store=CheckpointStore(str(tmp_path), faults=sabotage),
            resume=True, deadline_seconds=0.0,
        )
        assert leg2.resumed_from == 256 and leg2.cursor == 512

        # Leg 3: the newest checkpoint is damaged, so resume must fall back
        # to its rotated predecessor; the supervised pool additionally loses
        # a worker to a seeded SIGKILL and retries a seeded chunk error.
        report = RunReport()
        chaos = FaultPlan(seed=20160725, kill_chunks={1: 1}, fail_chunks={2: 1})
        leg3 = resilient_check(
            OptMin(2), space, 2, symmetry="constructive", batch_size=256,
            processes=2, chunk_size=64,
            store=CheckpointStore(str(tmp_path)),
            resume=True,
            policy=SupervisionPolicy(faults=chaos, backoff_base=0.01),
            report=report,
        )

        assert leg3.completed
        assert leg3.resumed_from == 256  # fell back past the truncated file
        assert report.count("checkpoint_rejected") >= 1
        assert report.count("worker_death") >= 1
        assert report.count("worker_respawn") >= 1
        assert report.count("retry") >= 2
        for event in report.of_kind("retry"):
            assert event.detail["backoff_seconds"] > 0
        # The structured report is machine-readable end to end.
        structured = report.to_dict()
        assert structured["counts"]["retry"] == report.count("retry")
        # And the product is byte-identical to the uninterrupted baseline.
        assert check_signature(leg3.value) == check_signature(baseline)

    def test_census_survives_checkpoint_truncation(self, tmp_path):
        pc = build_restricted_complex(
            Context(n=5, t=2, k=2), time=2, max_crashes_per_round=1
        )
        plain = capacity_connectivity_census(pc, 2, symmetry="quotient")
        sabotage = FaultPlan(truncate_checkpoints=(0,))
        leg1 = resilient_census(
            pc, 2, symmetry="quotient", batch_size=4,
            store=CheckpointStore(str(tmp_path), faults=sabotage),
            deadline_seconds=0.0,
        )
        assert not leg1.completed
        report = RunReport()
        leg2 = resilient_census(
            pc, 2, symmetry="quotient", batch_size=4,
            store=CheckpointStore(str(tmp_path)), resume=True, report=report,
        )
        # The only checkpoint was truncated, so the run starts fresh — and
        # still converges to the plain census row.
        assert leg2.completed and leg2.resumed_from is None
        assert report.count("checkpoint_rejected") >= 1
        assert leg2.value.row == plain.row and leg2.value.classes == plain.classes


class TestCliRuntimeFlags:
    def test_deadline_stop_exits_3_and_resume_completes(self, tmp_path, capsys):
        from repro.cli import main

        flags = [
            "sweep", "-n", "4", "-t", "2", "-k", "2", "--max-crash-round", "1",
            "--max-failures", "1", "--symmetry", "constructive",
            "--checkpoint", str(tmp_path / "ck"),
        ]
        assert main(flags + ["--deadline", "1e-9"]) == 3
        out = capsys.readouterr().out
        assert "stopped at cursor" in out and "--resume" in out
        assert main(flags + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from cursor" in out

    def test_max_retries_applies_without_other_runtime_flags(self, monkeypatch, capsys):
        """Supervision is always attached: --max-retries and REPRO_FAULTS act alone."""
        from repro.cli import main
        from repro.runtime import FAULTS_ENV

        monkeypatch.setenv(FAULTS_ENV, '{"fail_chunks": {"0": 1}}')
        flags = [
            "sweep", "-n", "4", "-t", "2", "-k", "2", "--max-crash-round", "2",
            "--symmetry", "constructive", "--processes", "2",
        ]
        assert main(flags + ["--max-retries", "0"]) == 0
        out = capsys.readouterr().out
        assert "quarantine=1" in out and "retry" not in out
        assert main(flags) == 0
        out = capsys.readouterr().out
        assert "retry=1" in out and "quarantine" not in out

    def test_census_checkpoint_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        flags = [
            "census", "-n", "4", "-t", "2", "-k", "2", "--symmetry", "quotient",
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
