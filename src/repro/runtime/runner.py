"""Resilient survey runners: checkpointed, supervised, budgeted surveys.

There is one survey pipeline per question — the checker's
(:func:`repro.verification.checker.fold_checks`) and the census's
(:func:`repro.topology.protocol_complex.fold_census`), both folding a
deterministic stream through :func:`repro.pipeline.fold_stream`.  The
runners here are those pipelines with attachments: a checkpoint store
flushed at every batch boundary, the durable result store as a per-item
memo, a supervised worker pool, and budgets.  With nothing attached a
runner's result is the plain survey's.  Because the streams replay
identically from their specs, a resumed run folds exactly the items an
uninterrupted run would have folded, in the same order — results are
byte-identical (``tests/test_resilience.py`` pins interrupted-at-every-
batch-boundary == uninterrupted == plain).

Budgets turn hard death into checkpoint-and-stop: a wall-clock
``deadline_seconds`` and a peak-RSS ``max_rss_kb`` are checked at batch
boundaries (and the deadline also bounds the supervised pool mid-batch);
when either trips, the runner flushes its checkpoint, records the stop on
the :class:`RunReport`, and returns a partial :class:`ResilientOutcome`
with ``completed=False`` — resume later with the same spec.

``KeyboardInterrupt`` gets the same treatment (flush, record, re-raise),
which is what lets the CLI exit 130 with a resumable run on disk instead of
leaking pool workers and three hours of work.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..pipeline import DEFAULT_BATCH_SIZE
from .checkpoint import Checkpoint, CheckpointStore
from .report import RunReport
from .supervisor import DeadlineExceeded, SupervisionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store import ResultStore


def peak_rss_kb() -> int:
    """This process's peak RSS in KiB (``ru_maxrss`` is bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak


@dataclass(frozen=True)
class ResilientOutcome:
    """What a resilient runner produced — possibly a checkpointed prefix.

    ``value`` is the consumer aggregate (``CheckReport`` / ``CapacityCensus``)
    over the ``cursor`` stream items folded so far; ``completed`` says whether
    that is the whole stream.  ``stop_reason`` is ``None`` on completion, else
    ``"deadline"`` or ``"rss"``; ``resumed_from`` is the checkpoint cursor the
    run started at (``None`` for a fresh run).
    """

    value: Any
    report: RunReport
    completed: bool
    stop_reason: Optional[str]
    cursor: int
    resumed_from: Optional[int]


class _Attachments:
    """The checkpoint store, result store and budgets of one resilient survey.

    :meth:`open` fixes the stream's spec and resumes from the newest
    checkpoint matching it; :meth:`fold` then drives the survey's pipeline
    with a boundary hook that snapshots the aggregate, flushes the result
    store and the checkpoint, and checks the budgets.
    """

    def __init__(
        self,
        store: Optional[CheckpointStore],
        result_store: Optional["ResultStore"],
        deadline_seconds: Optional[float],
        max_rss_kb: Optional[int],
        report: Optional[RunReport],
    ) -> None:
        self.report = report if report is not None else RunReport()
        for attached in (store, result_store):
            if attached is not None and attached.report is None:
                attached.report = self.report
        self.store = store
        self.result_store = result_store
        self.deadline = (
            time.monotonic() + deadline_seconds if deadline_seconds is not None else None
        )
        self.max_rss_kb = max_rss_kb
        self.spec: Dict[str, Any] = {}
        self.cursor, self.resumed_from = 0, None

    def arm(self, policy: Optional[SupervisionPolicy]) -> Optional[SupervisionPolicy]:
        """Give the supervised pool the same absolute deadline (mid-batch aborts)."""
        if policy is None or self.deadline is None or policy.deadline is not None:
            return policy
        return replace(policy, deadline=self.deadline)

    def open(self, spec: Dict[str, Any], resume: bool) -> Optional[Dict[str, Any]]:
        """Fix the stream spec; the resumed aggregate payload, if any."""
        self.spec = spec
        checkpoint = self.store.latest(spec=spec) if self.store is not None and resume else None
        if checkpoint is None:
            return None
        self.report.record("resume", cursor=checkpoint.cursor)
        self.cursor = self.resumed_from = checkpoint.cursor
        return checkpoint.payload

    def stop_reason(self) -> Optional[str]:
        """The budget that tripped at this batch boundary, if any."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.report.record("deadline_stop", cursor=self.cursor)
            return "deadline"
        if self.max_rss_kb is not None and peak_rss_kb() > self.max_rss_kb:
            self.report.record("rss_stop", cursor=self.cursor, peak_rss_kb=peak_rss_kb())
            return "rss"
        return None

    def fold(self, run_pipeline, aggregate, snapshot) -> "ResilientOutcome":
        """Run ``run_pipeline(cursor=, on_boundary=)`` folding into ``aggregate``.

        Checkpoints always describe a batch *boundary*: ``snapshot()`` is
        taken right after a batch finishes folding, so a mid-batch
        interrupt flushes the last boundary state, never a partially-folded
        aggregate (which would double-count the partial batch on resume).
        """
        boundary_payload = snapshot()
        stop_reason = None

        def flush() -> None:
            if self.result_store is not None:
                self.result_store.flush()
            if self.store is not None:
                self.store.save(
                    Checkpoint(spec=self.spec, cursor=self.cursor, payload=boundary_payload)
                )

        def on_boundary(cursor: int) -> bool:
            nonlocal boundary_payload, stop_reason
            self.cursor = cursor
            boundary_payload = snapshot()
            flush()
            stop_reason = self.stop_reason()
            return stop_reason is not None

        try:
            run_pipeline(cursor=self.cursor, on_boundary=on_boundary)
        except DeadlineExceeded:
            # Mid-batch deadline abort from the supervised pool: the batch
            # was still being swept, so the boundary state is what we flush.
            self.report.record("deadline_stop", cursor=self.cursor, mid_batch=True)
            stop_reason = "deadline"
            flush()
        except KeyboardInterrupt:
            self.report.record("interrupt", cursor=self.cursor)
            flush()
            raise
        return ResilientOutcome(
            aggregate, self.report, stop_reason is None, stop_reason, self.cursor, self.resumed_from
        )


class _StoreMemo:
    """The result-store attachment of a pipeline: verdicts keyed per stream item.

    ``available`` is re-read every batch, so a store that degrades mid-run
    falls back to pure compute from the next batch on.
    """

    def __init__(self, result_store: "ResultStore", kind: str, spec_hash: str, key, encode, decode):
        self.result_store = result_store
        self.kind = kind
        self.spec_hash = spec_hash
        self.key, self.encode, self.decode = key, encode, decode
        self.keys: Optional[List[str]] = None

    def lookup(self, items: List) -> Dict[int, Any]:
        self.keys = [self.key(item) for item in items] if self.result_store.available else None
        if self.keys is None:
            return {}
        found = self.result_store.get_many(self.kind, self.spec_hash, self.keys)
        return {i: self.decode(found[key]) for i, key in enumerate(self.keys) if key in found}

    def save(self, position: int, verdict) -> None:
        if self.keys is not None:
            self.result_store.put(
                self.kind, self.spec_hash, self.keys[position], self.encode(verdict)
            )


# --------------------------------------------------------------- checker runs
def checker_spec(
    protocol, space, t: int, symmetry: str, enforce_paper_bound: bool
) -> Dict[str, Any]:
    """The stream-identity spec a checker checkpoint must match to resume."""
    context = space.context
    spec = {
        "kind": "check",
        "schema_note": "cursor counts stream items (orbits or adversaries)",
        "protocol": getattr(protocol, "name", type(protocol).__name__),
        "n": context.n,
        "t": t,
        "k": context.k,
        "max_crash_round": space.max_crash_round,
        "receiver_policy": space.receiver_policy,
        "max_failures": space.max_failures,
        "limit": space.limit,
        "symmetry": symmetry,
        # Fixed: there is one engine, but the field stays so that
        # checkpoints written when the engine was an option still resume.
        "engine": "batch",
        "enforce_paper_bound": enforce_paper_bound,
    }
    if symmetry == "quotient":
        # The quotient stream is the first-seen family quotient (``limit``
        # caps members); checkpoints of the former orbit-stream order must
        # not resume into it.
        spec["stream"] = "quotient_family"
    return spec


def resilient_check(
    protocol,
    space,
    t: Optional[int] = None,
    *,
    symmetry: str = "constructive",
    processes: Optional[int] = None,
    chunk_size: Optional[int] = None,
    mp_context: Optional[str] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    store: Optional[CheckpointStore] = None,
    resume: bool = False,
    result_store: Optional["ResultStore"] = None,
    policy: Optional[SupervisionPolicy] = None,
    deadline_seconds: Optional[float] = None,
    max_rss_kb: Optional[int] = None,
    enforce_paper_bound: bool = True,
    report: Optional[RunReport] = None,
) -> ResilientOutcome:
    """:func:`repro.verification.check_protocol` with checkpoints, store, budgets, supervision.

    ``space`` must be a :class:`repro.adversaries.RestrictedSpace` (the spec
    that makes the stream replayable).  This is the checker's pipeline
    (:func:`repro.verification.checker.fold_checks`) with the attachments
    given here, so a completed outcome's ``value`` is the
    :class:`CheckReport` ``check_protocol(protocol, space, t,
    symmetry=symmetry)`` produces; the constructive stream is generated
    lazily (``space.orbits()``).  ``result_store`` is the durable cross-run
    verdict memo (:class:`repro.store.ResultStore`), flushed at the same
    batch boundaries as the checkpoint; its key excludes symmetry (a
    verdict is a property of the adversary), so any sweep warms any other.
    """
    from ..engine import SweepRunner
    from ..pipeline import family_stream
    from ..verification.checker import CheckReport, fold_checks

    if t is None:
        t = space.context.t
    if symmetry == "constructive":
        stream = (
            (index, orbit.representative, orbit.size)
            for index, orbit in enumerate(space.orbits())
        )
    else:
        stream = family_stream(space, symmetry)
    spec = checker_spec(protocol, space, t, symmetry, enforce_paper_bound)
    attachments = _Attachments(store, result_store, deadline_seconds, max_rss_kb, report)
    payload = attachments.open(spec, resume)
    name = getattr(protocol, "name", "protocol")
    aggregate = CheckReport(protocol=name)
    if payload is not None:
        aggregate = CheckReport.from_payload(name, payload)
    memo = None
    if result_store is not None:
        from ..store import adversary_key, check_store_spec, spec_hash
        from ..verification.properties import Violation

        memo = _StoreMemo(
            result_store,
            "check",
            spec_hash(check_store_spec(spec["protocol"], t, space.context.k, enforce_paper_bound)),
            lambda item: adversary_key(item[1]),
            lambda verdict: {
                "decision_time": verdict[0],
                "violations": [[v.property_name, v.message, v.process] for v in verdict[1]],
            },
            lambda payload: (
                payload["decision_time"],
                [Violation(*violation) for violation in payload["violations"]],
            ),
        )
    runner = SweepRunner(
        protocol,
        t,
        processes=processes,
        chunk_size=chunk_size,
        mp_context=mp_context,
        supervision=attachments.arm(policy),
        runtime_report=attachments.report,
    )
    return attachments.fold(
        lambda **hooks: fold_checks(
            aggregate, stream, runner, enforce_paper_bound,
            batch_size=batch_size, memo=memo, **hooks,
        ),
        aggregate,
        aggregate.to_payload,
    )


# ---------------------------------------------------------------- census runs
def census_spec(pc, k: int, symmetry: str, extra: Optional[Dict] = None) -> Dict:
    """The stream-identity spec of a census run.

    The class stream is derived from the built complex, so the spec
    fingerprints the complex (vertex/facet counts, round count) alongside
    the survey knobs; ``extra`` lets the CLI and the service add the build
    description (context) for defence in depth.  ``backend`` is fixed: there
    is one homology kernel, and the field stays so that checkpoints written
    when it was an option still resume.
    """
    spec = {
        "kind": "census",
        "schema_note": "cursor counts canonical vertex classes",
        "k": k,
        "symmetry": symmetry,
        "backend": "packed",
        "time": pc.time,
        "vertices": pc.complex.vertex_count,
        "facets": len(pc.complex.facet_masks),
    }
    if extra:
        spec.update(extra)
    return spec


def resilient_census(
    pc,
    k: int,
    *,
    symmetry: str = "quotient",
    spec_extra: Optional[Dict[str, Any]] = None,
    batch_size: int = 64,
    store: Optional[CheckpointStore] = None,
    resume: bool = False,
    result_store: Optional["ResultStore"] = None,
    deadline_seconds: Optional[float] = None,
    max_rss_kb: Optional[int] = None,
    report: Optional[RunReport] = None,
) -> ResilientOutcome:
    """:func:`repro.topology.capacity_connectivity_census` with checkpoints, store, budgets.

    This is the census's pipeline
    (:func:`repro.topology.protocol_complex.fold_census` over
    :func:`~repro.topology.protocol_complex.census_classes`) with the
    attachments given here, so a completed outcome's census row is the
    plain survey's.  ``homology_runs`` counts profiles computed in *this*
    process — a resumed run re-misses its connectivity cache, so that
    bookkeeping field (and only it) may exceed the uninterrupted run's.

    ``result_store`` adds the durable memo at three tiers: the whole census
    row (a completed survey's counters, keyed by the complex fingerprint
    and fold shape — a hit answers without even grouping the vertices), per
    census class (``(capacity, level)`` keyed by the class's canonical
    vertex, skipping even the star construction on a hit) and per
    connectivity profile (threaded into the
    :class:`repro.topology.ConnectivityCache`, shared across *every* survey
    that probes an isomorphic star).  Store hits do not count as
    ``homology_runs`` — like cache hits, they ran no homology.
    """
    from ..topology import protocol_complex

    attachments = _Attachments(store, result_store, deadline_seconds, max_rss_kb, report)
    memo = None
    if result_store is not None:
        from ..store import census_class_store_spec, census_row_key, spec_hash, vertex_key

        class_spec_h = spec_hash(census_class_store_spec(pc, k))
        row_key = census_row_key(symmetry)
        if result_store.available:
            # The coarsest memo tier: the whole census row.  A hit answers
            # the survey without even grouping the vertices into classes —
            # the warm-census fast path `bench_store.py` gates.  A damaged
            # row is quarantined by the read and the census falls through
            # to the per-class tier below (which heals it on completion).
            row_hit = result_store.get("census_row", class_spec_h, row_key)
            if row_hit is not None:
                census = protocol_complex.CapacityCensus(*row_hit["counters"], row_hit["classes"])
                return ResilientOutcome(
                    census, attachments.report, True, None, row_hit["classes"], None
                )
        memo = _StoreMemo(
            result_store,
            "census_class",
            class_spec_h,
            lambda item: vertex_key(item[0]),
            lambda verdict: {"capacity": verdict[0], "level": verdict[1]},
            lambda payload: (payload["capacity"], payload["level"]),
        )
    groups, profile, cache = protocol_complex.census_classes(
        pc, k, symmetry=symmetry, result_store=result_store
    )
    spec = census_spec(pc, k, symmetry, spec_extra)
    spec["classes"] = len(groups)
    payload = attachments.open(spec, resume)
    census = protocol_complex.CapacityCensus(
        *(payload["counters"] if payload is not None else ()),
        classes=len(groups),
        homology_runs=payload["homology_runs"] if payload is not None else 0,
    )
    outcome = attachments.fold(
        lambda **hooks: protocol_complex.fold_census(
            pc, k, groups, profile, cache, census, batch_size=batch_size, memo=memo, **hooks
        ),
        census,
        lambda: {"counters": list(census.row), "homology_runs": census.homology_runs},
    )
    if outcome.completed and result_store is not None and result_store.available:
        result_store.put(
            "census_row",
            class_spec_h,
            row_key,
            {"counters": list(census.row), "classes": len(groups)},
        )
        result_store.flush()
    return outcome
