"""Batch execution engine: prefix-sharing sweeps over adversary spaces.

The reference engine (:class:`repro.model.run.Run`) simulates one adversary
at a time and is the semantic oracle of this library.  This package is the
one production path: it schedules a whole family of adversaries on a trie keyed
by (input vector, crash-event round-prefix), simulates every shared round
prefix exactly once on flat copy-on-write arrays, and evaluates decision
rules once per distinct local state of a pass instead of once per adversary.

Public surface:

* :class:`SweepRunner` / :func:`sweep` — run a batch and aggregate results;
* :class:`BatchRun` — per-adversary outcome with the ``Run`` read API;
* :class:`SweepReport` — sharing-factor bookkeeping of the last sweep;
* :class:`FusedOutcome` / :func:`run_fused_pass` / :func:`struct_view_key` —
  the fused single-pass scheduler core: decisions evaluated and canonical
  views snapshotted in one trie traversal (``SweepRunner.sweep_fused`` is
  the high-level entry point);
* :class:`ArrayView`, :class:`BatchContext`, :class:`StructLayer` — the
  array-backed view layer (mostly useful for tests and instrumentation);
* :class:`LayerViews` — the ``Run`` view surface of one adversary on the
  copy-on-write layer chain (what surgery re-simulates with);
* :class:`RunCache` — the memoised front for reference-run view lookups;
* :class:`PrefixScheduler` — the level-synchronous trie driver (its
  ``passes_started`` counter lets tests assert single-pass construction).

See ``docs/engine.md`` for the architecture notes (including the pass
lifecycle: decision-only vs fused vs view-only) and
``tests/test_engine_differential.py`` / ``tests/test_exhaustive.py`` /
``tests/test_fused_scheduler.py`` for the differential harness pinning this
engine to the oracle (the per-adversary paths live in :mod:`repro.oracles`).
"""

from .arrays import ArrayView, BatchContext, StructLayer
from .fused import (
    FusedOutcome,
    run_facets_pass,
    run_fused_pass,
    struct_view_key,
)
from .sweep import BatchRun, SweepReport, SweepRunner, sweep
from .trie import PrefixScheduler, PreparedAdversary, batch_system_size, prepare_adversaries
from .views import LayerViews, RunCache

__all__ = [
    "ArrayView",
    "BatchContext",
    "BatchRun",
    "FusedOutcome",
    "LayerViews",
    "PrefixScheduler",
    "PreparedAdversary",
    "RunCache",
    "StructLayer",
    "SweepReport",
    "SweepRunner",
    "batch_system_size",
    "prepare_adversaries",
    "run_facets_pass",
    "run_fused_pass",
    "struct_view_key",
    "sweep",
]
