"""Deterministic fault injection: the chaos harness of the resilient runtime.

Fault tolerance that is only exercised by real hardware failures is
untested fault tolerance.  This module makes every failure mode the
checkpoint, result-store and service layers claim to survive *injectable on
demand and reproducible by seed*:

* **checkpoint sabotage** — a just-written checkpoint file is truncated or
  bit-flipped (the torn-write / bad-disk model exercising checksum
  rejection and fallback to the previous checkpoint);
* **store sabotage** — committed result rows are damaged and commits fault
  (busy or disk full);
* **service sabotage** — a job owner dies mid-job, leases expire,
  heartbeats drop, queue commits fail.

A plan is inert unless explicitly passed in (or activated through the
``REPRO_FAULTS`` environment variable, whose value is the JSON form of a
plan), so production runs pay nothing.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

#: Environment variable holding a JSON fault plan (chaos smoke runs).
FAULTS_ENV = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule (see module docstring).

    ``truncate_checkpoints`` / ``corrupt_checkpoints`` name checkpoint-save
    ordinals (0-based, counted per store) to damage after the atomic write
    completes.
    """

    seed: Optional[int] = None
    truncate_checkpoints: Tuple[int, ...] = ()
    corrupt_checkpoints: Tuple[int, ...] = ()
    #: Result-store sabotage: row-write ordinals to damage after commit
    #: (``corrupt`` = bit-flip a payload char, ``torn`` = truncate the
    #: payload mid-document) and commit ordinals to fault (``busy`` = one
    #: injected SQLITE_BUSY, retried clean; ``diskfull`` = non-transient
    #: commit failure, the batch is dropped).
    corrupt_store_rows: Tuple[int, ...] = ()
    torn_store_rows: Tuple[int, ...] = ()
    busy_store_commits: Tuple[int, ...] = ()
    diskfull_store_commits: Tuple[int, ...] = ()
    #: Service-layer sabotage (the job queue / job runner of
    #: :mod:`repro.service`).  ``kill_job_owner`` maps a claim ordinal to the
    #: number of checkpoint saves the owning runner is allowed before it
    #: ``SIGKILL``s itself mid-job (the dead-driver model: the lease must
    #: expire and another runner must reclaim and resume from the
    #: checkpoint).  ``expire_lease`` names claim ordinals whose lease is
    #: written already expired, so reclaim is immediately exercisable;
    #: ``delay_heartbeat`` names heartbeat ordinals that are silently
    #: dropped (the stuck-heartbeat model: the lease lapses under a live
    #: owner); ``drop_job_commit`` names queue commit ordinals that fail
    #: non-transiently (the queue's disk-full model: the operation errors
    #: cleanly instead of corrupting state).
    kill_job_owner: Dict[int, int] = field(default_factory=dict)
    expire_lease: Tuple[int, ...] = ()
    delay_heartbeat: Tuple[int, ...] = ()
    drop_job_commit: Tuple[int, ...] = ()

    # ------------------------------------------------------- checkpoint side
    def sabotage_checkpoint(self, ordinal: int, path: str) -> Optional[str]:
        """Damage a just-written checkpoint file; returns the damage kind."""
        if ordinal in self.truncate_checkpoints:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(1, size // 2))
            return "truncated"
        if ordinal in self.corrupt_checkpoints:
            with open(path, "r+b") as handle:
                data = bytearray(handle.read())
                if data:
                    data[len(data) // 2] ^= 0xFF
                handle.seek(0)
                handle.write(bytes(data))

            return "corrupted"
        return None

    # ------------------------------------------------------------- store side
    def store_row_damage(self, ordinal: int) -> Optional[str]:
        """Damage kind for the given committed-row ordinal, if any."""
        if ordinal in self.corrupt_store_rows:
            return "corrupt"
        if ordinal in self.torn_store_rows:
            return "torn"
        return None

    def store_commit_fault(self, ordinal: int) -> Optional[str]:
        """Commit fault for the given flush ordinal, if any."""
        if ordinal in self.busy_store_commits:
            return "busy"
        if ordinal in self.diskfull_store_commits:
            return "diskfull"
        return None

    # ----------------------------------------------------------- service side
    def job_owner_kill(self, claim_ordinal: int) -> Optional[int]:
        """Checkpoint saves the owner of this claim may make before SIGKILL."""
        return self.kill_job_owner.get(claim_ordinal)

    def lease_preexpired(self, claim_ordinal: int) -> bool:
        """Whether this claim's lease is written already expired."""
        return claim_ordinal in self.expire_lease

    def heartbeat_dropped(self, ordinal: int) -> bool:
        """Whether this heartbeat is silently dropped (lease left to lapse)."""
        return ordinal in self.delay_heartbeat

    def job_commit_dropped(self, ordinal: int) -> bool:
        """Whether this queue commit fails non-transiently."""
        return ordinal in self.drop_job_commit

    # ---------------------------------------------------------- serialization
    def to_json(self) -> str:
        payload = asdict(self)
        # JSON objects key by string; keep the round-trip lossless.
        payload["truncate_checkpoints"] = list(self.truncate_checkpoints)
        payload["corrupt_checkpoints"] = list(self.corrupt_checkpoints)
        payload["corrupt_store_rows"] = list(self.corrupt_store_rows)
        payload["torn_store_rows"] = list(self.torn_store_rows)
        payload["busy_store_commits"] = list(self.busy_store_commits)
        payload["diskfull_store_commits"] = list(self.diskfull_store_commits)
        payload["kill_job_owner"] = {str(k): v for k, v in self.kill_job_owner.items()}
        payload["expire_lease"] = list(self.expire_lease)
        payload["delay_heartbeat"] = list(self.delay_heartbeat)
        payload["drop_job_commit"] = list(self.drop_job_commit)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """The plan of a JSON payload.

        Unknown keys are ignored, among them the retired ``no_numpy`` and
        worker-chunk faults (``kill_chunks``, ``fail_chunks``,
        ``delay_chunks``).
        """
        payload = json.loads(text)
        return cls(
            seed=payload.get("seed"),
            truncate_checkpoints=tuple(payload.get("truncate_checkpoints", ())),
            corrupt_checkpoints=tuple(payload.get("corrupt_checkpoints", ())),
            corrupt_store_rows=tuple(payload.get("corrupt_store_rows", ())),
            torn_store_rows=tuple(payload.get("torn_store_rows", ())),
            busy_store_commits=tuple(payload.get("busy_store_commits", ())),
            diskfull_store_commits=tuple(payload.get("diskfull_store_commits", ())),
            kill_job_owner={
                int(k): int(v) for k, v in payload.get("kill_job_owner", {}).items()
            },
            expire_lease=tuple(payload.get("expire_lease", ())),
            delay_heartbeat=tuple(payload.get("delay_heartbeat", ())),
            drop_job_commit=tuple(payload.get("drop_job_commit", ())),
        )

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS``, or ``None`` when unset/empty."""
        text = os.environ.get(FAULTS_ENV, "").strip()
        if not text:
            return None
        return cls.from_json(text)
