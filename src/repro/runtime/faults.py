"""Deterministic fault injection: the chaos harness of the resilient runtime.

Fault tolerance that is only exercised by real hardware failures is
untested fault tolerance.  This module makes every failure mode the
supervisor and checkpoint layers claim to survive *injectable on demand and
reproducible by seed*:

* **worker kills** — a worker ``SIGKILL``s itself at chosen chunk indices
  (the OOM-killer / segfault model: no exception, no cleanup, just a dead
  process the supervisor must detect);
* **chunk errors** — a chunk attempt raises :class:`InjectedFault` (the
  poison-chunk model exercising retry and quarantine);
* **delays** — a chunk attempt sleeps before executing (the stuck-worker
  model exercising per-chunk timeouts);
* **checkpoint sabotage** — a just-written checkpoint file is truncated or
  bit-flipped (the torn-write / bad-disk model exercising checksum
  rejection and fallback to the previous checkpoint).

Faults keyed by chunk index carry an *attempt budget*: ``{3: 1}`` kills
chunk 3's first attempt only, so its retry succeeds — which is exactly the
recovery path under test.  A plan is inert unless explicitly passed in (or
activated through the ``REPRO_FAULTS`` environment variable, whose value is
the JSON form of a plan), so production runs pay nothing.

Plans are plain picklable data: the supervisor ships them to workers, and
:func:`FaultPlan.seeded` derives a reproducible plan from ``(seed, chunk
count)`` for randomized chaos batteries.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple

#: Environment variable holding a JSON fault plan (chaos smoke runs).
FAULTS_ENV = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """The exception a ``fail_chunks`` entry raises inside a worker."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule (see module docstring).

    ``kill_chunks`` / ``fail_chunks`` map chunk index → number of attempts
    to sabotage (attempts beyond the budget run clean); ``delay_chunks``
    maps chunk index → ``(seconds, attempts)``.  ``truncate_checkpoints`` /
    ``corrupt_checkpoints`` name checkpoint-save ordinals (0-based, counted
    per store) to damage after the atomic write completes.
    """

    seed: Optional[int] = None
    kill_chunks: Dict[int, int] = field(default_factory=dict)
    fail_chunks: Dict[int, int] = field(default_factory=dict)
    delay_chunks: Dict[int, Tuple[float, int]] = field(default_factory=dict)
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

    # ------------------------------------------------------------ chunk side
    def apply_chunk_faults(self, chunk_id: int, attempt: int) -> None:
        """Sabotage one chunk attempt (called inside the worker, pre-execution)."""
        delay = self.delay_chunks.get(chunk_id)
        if delay is not None and attempt < delay[1]:
            time.sleep(delay[0])
        if attempt < self.kill_chunks.get(chunk_id, 0):
            # The OOM/segfault model: die without unwinding.  SIGKILL cannot
            # be caught, so the supervisor sees a dead process, not an error.
            os.kill(os.getpid(), signal.SIGKILL)
        if attempt < self.fail_chunks.get(chunk_id, 0):
            raise InjectedFault(
                f"injected failure on chunk {chunk_id} attempt {attempt}"
            )

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

    # ------------------------------------------------------------- factories
    @classmethod
    def seeded(
        cls,
        seed: int,
        chunks: int,
        kills: int = 1,
        failures: int = 0,
        delays: int = 0,
        delay_seconds: float = 0.2,
        saves: int = 0,
        truncations: int = 0,
        corruptions: int = 0,
    ) -> "FaultPlan":
        """A reproducible plan: the given number of each fault, placed by seed.

        Chunk faults land on distinct chunk indices drawn without replacement
        from ``range(chunks)``; checkpoint faults on distinct save ordinals
        from ``range(saves)``.  Same seed, same plan — the chaos battery's
        failures replay exactly.
        """
        rng = random.Random(seed)
        chunk_ids = list(range(chunks))
        rng.shuffle(chunk_ids)
        picks = iter(chunk_ids)
        plan = cls(
            seed=seed,
            kill_chunks={next(picks): 1 for _ in range(min(kills, chunks))},
            fail_chunks={next(picks): 1 for _ in range(min(failures, chunks))},
            delay_chunks={
                next(picks): (delay_seconds, 1) for _ in range(min(delays, chunks))
            },
        )
        if saves:
            save_ids = list(range(saves))
            rng.shuffle(save_ids)
            save_picks = iter(save_ids)
            plan = replace(
                plan,
                truncate_checkpoints=tuple(
                    sorted(next(save_picks) for _ in range(min(truncations, saves)))
                ),
                corrupt_checkpoints=tuple(
                    sorted(next(save_picks) for _ in range(min(corruptions, saves)))
                ),
            )
        return plan

    # ---------------------------------------------------------- serialization
    def to_json(self) -> str:
        payload = asdict(self)
        # JSON objects key by string; keep the round-trip lossless.
        payload["kill_chunks"] = {str(k): v for k, v in self.kill_chunks.items()}
        payload["fail_chunks"] = {str(k): v for k, v in self.fail_chunks.items()}
        payload["delay_chunks"] = {
            str(k): list(v) for k, v in self.delay_chunks.items()
        }
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
        """The plan of a JSON payload; unknown keys (e.g. a retired ``no_numpy``) are ignored."""
        payload = json.loads(text)
        return cls(
            seed=payload.get("seed"),
            kill_chunks={int(k): int(v) for k, v in payload.get("kill_chunks", {}).items()},
            fail_chunks={int(k): int(v) for k, v in payload.get("fail_chunks", {}).items()},
            delay_chunks={
                int(k): (float(v[0]), int(v[1]))
                for k, v in payload.get("delay_chunks", {}).items()
            },
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
