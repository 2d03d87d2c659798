"""Resilient survey runners: checkpointed, budgeted surveys.

There is one survey pipeline per question — the checker's
(:func:`repro.verification.checker.fold_checks`) and the census's
(:func:`repro.topology.protocol_complex.fold_census`), both folding a
deterministic stream through :func:`repro.pipeline.fold_stream`.  The
runners here are those pipelines with attachments: a checkpoint store
flushed at every batch boundary, the durable result store as a per-item
memo, and budgets.  With nothing attached a
runner's result is the plain survey's.  Because the streams replay
identically from their specs, a resumed run folds exactly the items an
uninterrupted run would have folded, in the same order — results are
byte-identical (``tests/test_resilience.py`` pins interrupted-at-every-
batch-boundary == uninterrupted == plain).

Budgets turn hard death into checkpoint-and-stop: a wall-clock
``deadline_seconds`` and a peak-RSS ``max_rss_kb`` are checked at batch
boundaries (a batch in progress always finishes); when either trips, the
runner flushes its checkpoint, records the stop on the :class:`RunReport`,
and returns a partial :class:`ResilientOutcome` with ``completed=False`` —
resume later with the same spec.

``KeyboardInterrupt`` gets the same treatment (flush, record, re-raise),
which is what lets the CLI exit 130 with a resumable run on disk instead of
losing three hours of work.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..pipeline import DEFAULT_BATCH_SIZE
from .checkpoint import Checkpoint, CheckpointStore
from .report import RunReport

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
    falls back to pure compute from the next batch on.  ``text_key(verdict)``
    names the verdicts that share one payload (``None``: encode this one
    afresh); each such payload is encoded once per run, not once per item.
    """

    def __init__(
        self,
        result_store: "ResultStore",
        kind: str,
        spec_hash: str,
        batch_keys,
        encode,
        decode,
        text_key,
    ):
        self.result_store = result_store
        self.kind = kind
        self.spec_hash = spec_hash
        self.batch_keys, self.encode, self.decode = batch_keys, encode, decode
        self.text_key = text_key
        self.keys: Optional[List[str]] = None
        self.texts: Dict[Any, Any] = {}

    def lookup(self, items: List) -> Dict[int, Any]:
        self.keys = self.batch_keys(items) if self.result_store.available else None
        if self.keys is None:
            return {}
        found = self.result_store.get_many(self.kind, self.spec_hash, self.keys)
        return {i: self.decode(found[key]) for i, key in enumerate(self.keys) if key in found}

    def save(self, position: int, verdict) -> None:
        if self.keys is None:
            return
        text_key = self.text_key(verdict)
        if text_key is None:
            payload = self.encode(verdict)
        else:
            payload = self.texts.get(text_key)
            if payload is None:
                from ..store import EncodedPayload

                payload = self.texts[text_key] = EncodedPayload(self.encode(verdict))
        self.result_store.put(self.kind, self.spec_hash, self.keys[position], payload)


def _check_memo(result_store: "ResultStore", spec_h: str) -> _StoreMemo:
    """The checker's memo: a ``check`` row per ``(index, adversary, weight)`` item.

    A verdict is ``(last correct decision time, violations)``.  A clean one
    is its decision time, so its payload is encoded once per decision time;
    one with violations is encoded afresh, never cached.
    """
    from ..store import adversary_keys
    from ..verification.properties import Violation

    return _StoreMemo(
        result_store,
        "check",
        spec_h,
        lambda items: adversary_keys(item[1] for item in items),
        lambda verdict: {
            "decision_time": verdict[0],
            "violations": [[v.property_name, v.message, v.process] for v in verdict[1]],
        },
        lambda payload: (
            payload["decision_time"],
            [Violation(*violation) for violation in payload["violations"]],
        ),
        lambda verdict: None if verdict[1] else (verdict[0],),
    )


def _census_class_memo(result_store: "ResultStore", spec_h: str) -> _StoreMemo:
    """The census's memo: a ``census_class`` row per ``(vertex, weight)`` class.

    A verdict is the ``(capacity, level)`` pair, which is also its payload's
    cache key.
    """
    from ..store import vertex_key

    return _StoreMemo(
        result_store,
        "census_class",
        spec_h,
        lambda items: [vertex_key(item[0]) for item in items],
        lambda verdict: {"capacity": verdict[0], "level": verdict[1]},
        lambda payload: (payload["capacity"], payload["level"]),
        tuple,
    )


# --------------------------------------------------------------- checker runs
def checker_spec(protocol, space, t: int, enforce_paper_bound: bool) -> Dict[str, Any]:
    """The stream-identity spec a checker checkpoint must match to resume."""
    context = space.context
    return {
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
        # Fixed, like "engine": the stream is always the space's orbits, but
        # the fields stay so that checkpoints written when they were options
        # still resume.
        "symmetry": "constructive",
        "engine": "batch",
        "enforce_paper_bound": enforce_paper_bound,
    }


def resilient_check(
    protocol,
    space,
    t: Optional[int] = None,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    store: Optional[CheckpointStore] = None,
    resume: bool = False,
    result_store: Optional["ResultStore"] = None,
    deadline_seconds: Optional[float] = None,
    max_rss_kb: Optional[int] = None,
    enforce_paper_bound: bool = True,
    report: Optional[RunReport] = None,
) -> ResilientOutcome:
    """:func:`repro.verification.check_protocol` with checkpoints, store and budgets.

    ``space`` must be a :class:`repro.adversaries.RestrictedSpace` (the spec
    that makes the stream replayable).  This is the checker's pipeline
    (:func:`repro.verification.checker.fold_checks`) over the space's
    orbits with the attachments given here, so a completed outcome's
    ``value`` is the :class:`CheckReport` ``check_protocol(protocol, space,
    t)`` produces; the orbits are generated lazily (``space.orbits()``).
    ``result_store`` is the durable cross-run verdict memo
    (:class:`repro.store.ResultStore`), flushed at the same batch
    boundaries as the checkpoint; its key is the adversary alone, so any
    sweep warms any other.
    """
    from ..engine import SweepRunner
    from ..verification.checker import CheckReport, fold_checks

    if t is None:
        t = space.context.t
    stream = (
        (index, orbit.representative, orbit.size) for index, orbit in enumerate(space.orbits())
    )
    spec = checker_spec(protocol, space, t, enforce_paper_bound)
    attachments = _Attachments(store, result_store, deadline_seconds, max_rss_kb, report)
    payload = attachments.open(spec, resume)
    name = getattr(protocol, "name", "protocol")
    aggregate = CheckReport(protocol=name)
    if payload is not None:
        aggregate = CheckReport.from_payload(name, payload)
    memo = None
    if result_store is not None:
        from ..store import check_store_spec, spec_hash

        memo = _check_memo(
            result_store,
            spec_hash(check_store_spec(spec["protocol"], t, space.context.k, enforce_paper_bound)),
        )
    runner = SweepRunner(protocol, t)
    return attachments.fold(
        lambda **hooks: fold_checks(
            aggregate, stream, runner, enforce_paper_bound,
            batch_size=batch_size, memo=memo, **hooks,
        ),
        aggregate,
        aggregate.to_payload,
    )


# ---------------------------------------------------------------- census runs
def census_spec(pc, k: int, extra: Optional[Dict] = None) -> Dict:
    """The stream-identity spec of a census run.

    The class stream is derived from the built complex, so the spec
    fingerprints the complex (vertex/facet counts, round count) alongside
    ``k``; ``extra`` lets the CLI and the service add the build description
    (context) for defence in depth.  ``symmetry`` and ``backend`` are fixed:
    the census always folds canonical classes on one homology kernel, and
    the fields stay so that checkpoints written when they were options
    still resume.
    """
    spec = {
        "kind": "census",
        "schema_note": "cursor counts canonical vertex classes",
        "k": k,
        "symmetry": "quotient",
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
        from ..store import CENSUS_ROW_KEY, census_class_store_spec, spec_hash

        class_spec_h = spec_hash(census_class_store_spec(pc, k))
        if result_store.available:
            # The coarsest memo tier: the whole census row.  A hit answers
            # the survey without even grouping the vertices into classes —
            # the warm-census fast path `bench_store.py` gates.  A damaged
            # row is quarantined by the read and the census falls through
            # to the per-class tier below (which heals it on completion).
            row_hit = result_store.get("census_row", class_spec_h, CENSUS_ROW_KEY)
            if row_hit is not None:
                census = protocol_complex.CapacityCensus(*row_hit["counters"], row_hit["classes"])
                return ResilientOutcome(
                    census, attachments.report, True, None, row_hit["classes"], None
                )
        memo = _census_class_memo(result_store, class_spec_h)
    groups, profile, cache = protocol_complex.census_classes(pc, k, result_store=result_store)
    spec = census_spec(pc, k, spec_extra)
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
            CENSUS_ROW_KEY,
            {"counters": list(census.row), "classes": len(groups)},
        )
        result_store.flush()
    return outcome
