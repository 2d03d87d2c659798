"""Fault-tolerant survey runtime: checkpoint/resume, budgets, chaos testing.

The resilience layer wrapped around the sweep/fused engines, all of it in
the calling process:

* :mod:`repro.runtime.checkpoint` — atomic, checksummed, rotated
  checkpoints of deterministic survey streams (:class:`Checkpoint`,
  :class:`CheckpointStore`, :class:`CheckpointError`);
* :mod:`repro.runtime.faults` — the deterministic fault-injection harness
  (:class:`FaultPlan`) that makes every recovery path testable in tier-1;
* :mod:`repro.runtime.runner` — the resilient consumers: checkpointed
  checker sweeps (:func:`resilient_check`) and Proposition 2 censuses
  (:func:`resilient_census`), with wall-clock/peak-RSS budgets that
  checkpoint-and-stop at a batch boundary instead of dying;
* :mod:`repro.runtime.report` — the structured :class:`RunReport` every
  recovery action is surfaced on.

See ``docs/robustness.md`` for the checkpoint format, the budgets and the
fault-injection knobs.
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    canonical_json,
    load_checkpoint,
    write_checkpoint,
)
from .faults import FAULTS_ENV, FaultPlan
from .report import EVENT_KINDS, RunReport, RuntimeEvent
from .runner import (
    DEFAULT_BATCH_SIZE,
    ResilientOutcome,
    checker_spec,
    census_spec,
    peak_rss_kb,
    resilient_census,
    resilient_check,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "DEFAULT_BATCH_SIZE",
    "EVENT_KINDS",
    "FAULTS_ENV",
    "FaultPlan",
    "ResilientOutcome",
    "RunReport",
    "RuntimeEvent",
    "canonical_json",
    "census_spec",
    "checker_spec",
    "load_checkpoint",
    "peak_rss_kb",
    "resilient_census",
    "resilient_check",
    "write_checkpoint",
]
