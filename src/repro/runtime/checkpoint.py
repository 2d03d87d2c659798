"""Atomic, checksummed checkpoints for deterministic survey streams.

The constructive enumeration work (PR 7) made every survey stream
deterministic: the orbit stream of a :class:`repro.adversaries.RestrictedSpace`
and the canonical-class stream of a built protocol complex replay identically
from their *descriptions*.  That turns crash safety into bookkeeping — a
checkpoint is just

* the **spec**: a JSON description of the stream (context, restriction
  flags, symmetry choice, RNG seeds where a stream uses them) that resume
  validates before trusting a stored cursor;
* the **cursor**: how many stream items have been folded into the
  aggregates;
* the **payload**: the partial aggregates themselves (a
  :class:`repro.verification.checker.CheckReport` in serialized form, or
  the census counters) — everything needed to continue folding from
  ``cursor`` and end byte-identical to an uninterrupted run.

Durability is torn-write-proof: each checkpoint is written to a temporary
file, ``fsync``ed, atomically renamed into place, and the directory entry is
``fsync``ed too; the body carries a SHA-256 over its canonical JSON, so a
truncated or bit-flipped file is *rejected* at load (:class:`CheckpointError`
with the reason) rather than silently resuming wrong.  The store keeps the
newest ``keep`` checkpoints, so damaging the newest one falls back to its
predecessor — the recovery path the fault-injection battery drives.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..store.keys import stable_key as canonical_json
from .faults import FaultPlan
from .report import RunReport

#: Version of the on-disk checkpoint layout.  Bump on any incompatible
#: change to the envelope or payload conventions; loaders reject mismatches.
CHECKPOINT_SCHEMA = 1

_CHECKPOINT_NAME = re.compile(r"^ckpt-(\d{12})\.json$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be trusted (corrupt, truncated, wrong stream)."""


@dataclass(frozen=True)
class Checkpoint:
    """One resumable position of a deterministic survey stream."""

    spec: Dict[str, Any]
    cursor: int
    payload: Dict[str, Any]
    schema: int = CHECKPOINT_SCHEMA
    #: Seeds of any RNGs the stream consumes (deterministic streams carry
    #: none; sampled ensembles record theirs so resume replays the draw).
    rng: Dict[str, int] = field(default_factory=dict)

    def body(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "spec": self.spec,
            "cursor": self.cursor,
            "payload": self.payload,
            "rng": self.rng,
        }

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.body()).encode("utf-8")).hexdigest()


def write_checkpoint(path: str, checkpoint: Checkpoint) -> str:
    """Atomically persist ``checkpoint`` at ``path`` (tmp + fsync + rename)."""
    document = dict(checkpoint.body(), sha256=checkpoint.digest())
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # The tmp file lives in the destination directory so the rename is
    # same-filesystem and therefore atomic.
    fd, tmp_path = tempfile.mkstemp(prefix=".ckpt-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    # Durability of the rename itself: fsync the directory entry.
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def load_checkpoint(path: str, spec: Optional[Dict[str, Any]] = None) -> Checkpoint:
    """Load and validate one checkpoint file.

    Raises :class:`CheckpointError` — never returns garbage — when the file
    is unreadable, not JSON, the wrong schema version, fails its checksum
    (truncation/corruption), or records a different stream ``spec`` than the
    one the caller is about to resume.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise CheckpointError(f"checkpoint {path} is unreadable: {error}") from error
    except ValueError as error:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON (truncated or corrupted write): {error}"
        ) from error
    if not isinstance(document, dict):
        raise CheckpointError(f"checkpoint {path} has no JSON object envelope")
    schema = document.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {path} has schema version {schema!r}; this runtime "
            f"reads version {CHECKPOINT_SCHEMA} — re-run without --resume to start fresh"
        )
    checkpoint = Checkpoint(
        spec=document.get("spec", {}),
        cursor=document.get("cursor", -1),
        payload=document.get("payload", {}),
        schema=schema,
        rng=document.get("rng", {}),
    )
    recorded = document.get("sha256")
    if recorded != checkpoint.digest():
        raise CheckpointError(
            f"checkpoint {path} fails its SHA-256 self-check "
            f"(corrupted or tampered content; refusing to resume from it)"
        )
    if not isinstance(checkpoint.cursor, int) or checkpoint.cursor < 0:
        raise CheckpointError(f"checkpoint {path} has invalid cursor {checkpoint.cursor!r}")
    if spec is not None and canonical_json(checkpoint.spec) != canonical_json(spec):
        raise CheckpointError(
            f"checkpoint {path} records a different run spec than the one being "
            f"resumed (stored {canonical_json(checkpoint.spec)}, expected "
            f"{canonical_json(spec)}); refusing to mix streams"
        )
    return checkpoint


class CheckpointStore:
    """A directory of rotated checkpoints for one resumable run.

    Files are named ``ckpt-<cursor padded to 12 digits>.json`` so
    lexicographic order is cursor order.  ``save`` writes atomically and
    prunes down to the newest ``keep`` files (two by default: the newest
    plus one fallback, which is what lets :meth:`latest` survive a damaged
    newest checkpoint).  A :class:`FaultPlan` may be attached to sabotage
    saves deterministically (the chaos battery's torn-write model).
    """

    def __init__(
        self,
        directory: str,
        keep: int = 2,
        faults: Optional[FaultPlan] = None,
        report: Optional[RunReport] = None,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = os.path.abspath(directory)
        self.keep = keep
        self.faults = faults
        self.report = report
        #: Ordinal of the next save (the fault plan keys sabotage off it).
        self.saves = 0
        self._sweep_orphans()

    def _sweep_orphans(self) -> None:
        """Remove ``.ckpt-*.tmp`` files orphaned by a crash mid-write.

        ``write_checkpoint`` creates its tmp file in the destination
        directory (so the rename is atomic); a crash between ``mkstemp`` and
        ``os.replace`` strands it there forever.  Completed checkpoints are
        never named ``.ckpt-*.tmp``, so sweeping the pattern on store open
        is safe — concurrent stores never share a checkpoint directory (the
        spec/cursor naming assumes one run per directory).
        """
        if not os.path.isdir(self.directory):
            return
        for name in os.listdir(self.directory):
            if name.startswith(".ckpt-") and name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover - races with manual cleanup
                    pass

    # ---------------------------------------------------------------- paths
    def paths(self) -> List[str]:
        """Existing checkpoint files, oldest first."""
        if not os.path.isdir(self.directory):
            return []
        names = sorted(
            name for name in os.listdir(self.directory) if _CHECKPOINT_NAME.match(name)
        )
        return [os.path.join(self.directory, name) for name in names]

    def _path_for(self, cursor: int) -> str:
        return os.path.join(self.directory, f"ckpt-{cursor:012d}.json")

    # ----------------------------------------------------------------- save
    def save(self, checkpoint: Checkpoint) -> str:
        """Atomically write one checkpoint, rotate old ones, apply sabotage."""
        path = write_checkpoint(self._path_for(checkpoint.cursor), checkpoint)
        if self.report is not None:
            self.report.record("checkpoint_saved", cursor=checkpoint.cursor, path=path)
        for stale in self.paths()[: -self.keep]:
            os.unlink(stale)
        if self.faults is not None:
            damage = self.faults.sabotage_checkpoint(self.saves, path)
            if damage is not None and self.report is not None:
                self.report.record("fault_installed", checkpoint=path, damage=damage)
        self.saves += 1
        return path

    # ----------------------------------------------------------------- load
    def latest(
        self, spec: Optional[Dict[str, Any]] = None, strict: bool = False
    ) -> Optional[Checkpoint]:
        """The newest *valid* checkpoint, or ``None`` when none survives.

        Invalid files (truncated, corrupted, wrong schema or spec) are
        skipped newest-first with a ``checkpoint_rejected`` event each —
        damage to the newest checkpoint falls back to its predecessor.
        ``strict=True`` instead re-raises the first validation failure
        (the rejection-surface the corruption tests pin).
        """
        for path in reversed(self.paths()):
            try:
                return load_checkpoint(path, spec=spec)
            except CheckpointError as error:
                if strict:
                    raise
                if self.report is not None:
                    self.report.record("checkpoint_rejected", path=path, error=str(error))
        return None
