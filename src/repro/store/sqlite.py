"""Crash-safe, schema-versioned SQLite result store for survey memoization.

The durable half of survey-as-a-service: censuses, connectivity profiles
and checker verdicts keyed by canonical form + spec identity hash
(:mod:`repro.store.keys`), memoized *across* runs, machines and crashes.
Robustness is the design driver, in four layers:

* **torn/partial writes** — the database runs in WAL mode with
  ``synchronous=NORMAL``; every logical row additionally carries a SHA-256
  over ``(schema, kind, spec, key, payload)`` that is verified on every
  read (:func:`row_digest`), so damage SQLite itself cannot detect —
  a bit-flipped or truncated payload, a row misfiled under the wrong key —
  is caught at access time, never served;
* **self-healing** — a row that fails its digest or records a different
  row schema is *quarantined* (moved to the ``quarantine`` table, with the
  reason) and reported as a miss, so the caller transparently recomputes
  and re-stores it; ``verify()`` runs the same check over the whole store
  at once and ``gc()`` purges the quarantine;
* **concurrent writers** — readers and writers coexist under WAL; writes
  are buffered in memory and committed in **one ``BEGIN IMMEDIATE``
  transaction per batch boundary** (``flush()``), with a busy timeout plus
  bounded retry/exponential backoff on ``SQLITE_BUSY``; committed rows use
  ``INSERT OR IGNORE`` so concurrent surveys computing the same
  deterministic value race benignly (first writer wins, the values are
  equal);
* **graceful degradation** — an unopenable path, a foreign or
  future-schema database, or an error mid-run never fails the survey: the
  store records a typed ``store_degraded`` event on the
  :class:`repro.runtime.report.RunReport` threaded into it and degrades to
  pure compute (every read a miss, every write dropped).  A read-only
  database keeps serving reads and drops writes with a
  ``store_write_failed`` event.

A :class:`repro.runtime.faults.FaultPlan` may be attached to sabotage the
store deterministically — row corruption and torn payloads by write
ordinal, injected lock contention and disk-full by commit ordinal — which
is how the chaos battery proves each of the four layers actually engages.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import time
from json import loads as _json_loads
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .keys import EncodedPayload, stable_key, spec_hash

#: Version of the logical row layout.  Bump on any incompatible change to
#: the payload conventions; rows recording another version are quarantined
#: (recomputed), a database recording another version is degraded past.
STORE_SCHEMA = 1

#: SQLite's default variable limit is 999 on older builds; chunk IN lists
#: well below it.
_MAX_SQL_VARS = 400

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    kind TEXT NOT NULL,
    spec_hash TEXT NOT NULL,
    item_key TEXT NOT NULL,
    payload TEXT NOT NULL,
    sha256 TEXT NOT NULL,
    schema INTEGER NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (kind, spec_hash, item_key)
);
CREATE TABLE IF NOT EXISTS quarantine (
    kind TEXT NOT NULL,
    spec_hash TEXT NOT NULL,
    item_key TEXT NOT NULL,
    payload TEXT NOT NULL,
    sha256 TEXT NOT NULL,
    schema INTEGER,
    reason TEXT NOT NULL,
    quarantined_at REAL NOT NULL
);
"""


def row_digest(kind: str, spec: str, item_key: str, payload_text: str, schema: int = STORE_SCHEMA) -> str:
    """The verify-on-access digest of one logical row.

    Covers the addressing triple as well as the payload, so a payload
    transplanted under the wrong key (filesystem-level mixups, manual
    edits) fails the check exactly like a bit flip does.
    """
    material = "\n".join((str(schema), kind, spec, item_key, payload_text))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultStore:
    """One durable result store file (see module docstring).

    ``faults`` is an optional :class:`repro.runtime.faults.FaultPlan`;
    ``report`` an optional :class:`repro.runtime.report.RunReport` the
    store's recovery actions are recorded on.  ``read_only=True`` opens the
    database without write access (admin inspection, shared caches on
    read-only media): reads are served, writes and quarantine moves are
    dropped.

    Counters: ``hits`` / ``misses`` (reads), ``quarantined`` (rows healed
    out of the results table), ``dropped_writes`` (rows lost to read-only
    mode or failed commits — always safe, they are recomputed next run).
    """

    def __init__(
        self,
        path: str,
        *,
        read_only: bool = False,
        busy_timeout_ms: int = 5000,
        max_retries: int = 4,
        backoff_base: float = 0.05,
        faults=None,
        report=None,
    ) -> None:
        self.path = os.path.abspath(path)
        self.busy_timeout_ms = busy_timeout_ms
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.faults = faults
        self.report = report
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.dropped_writes = 0
        #: Ordinal of the next committed row write (fault plans key row
        #: damage off it) and of the next flush (commit faults).
        self.row_writes = 0
        self.flushes = 0
        self.disabled_reason: Optional[str] = None
        self._writable = not read_only
        self._warned_read_only = False
        self._pending: List[Tuple[str, str, str, str, str]] = []
        #: ``put``'s SHA-256 state over each ``(kind, spec hash)`` row prefix.
        self._digest_prefixes: Dict[Tuple[str, str], Any] = {}
        self._conn: Optional[sqlite3.Connection] = None
        try:
            self._conn = self._open(read_only)
        except (sqlite3.Error, OSError, ValueError) as error:
            self._degrade(f"open failed: {error}")

    # ------------------------------------------------------------- lifecycle
    def _open(self, read_only: bool) -> sqlite3.Connection:
        if read_only:
            conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, timeout=self.busy_timeout_ms / 1000.0
            )
        else:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=self.busy_timeout_ms / 1000.0)
        try:
            conn.isolation_level = None  # explicit transactions only
            conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout_ms)}")
            if not read_only:
                try:
                    conn.execute("PRAGMA journal_mode=WAL")
                    conn.execute("PRAGMA synchronous=NORMAL")
                    conn.executescript(_TABLES)
                except sqlite3.OperationalError as error:
                    if "readonly" not in str(error).lower():
                        raise
                    # The file exists but is not writable: degrade to
                    # read-only service instead of losing the cache entirely.
                    self._writable = False
                    self._record(
                        "store_write_failed",
                        path=self.path,
                        reason=f"database is read-only ({error}); writes will be dropped",
                    )
            version = self._schema_version(conn)
            if version is None and self._writable:
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(STORE_SCHEMA),),
                )
                version = self._schema_version(conn)
            if version != STORE_SCHEMA:
                raise ValueError(
                    f"store {self.path} records schema version {version!r}; this "
                    f"runtime reads version {STORE_SCHEMA} — surveys degrade to "
                    f"pure compute rather than misread it"
                )
            return conn
        except BaseException:
            conn.close()
            raise

    @staticmethod
    def _schema_version(conn: sqlite3.Connection) -> Optional[int]:
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:
            return None  # no meta table: not a result store
        if row is None:
            return None
        try:
            return int(row[0])
        except (TypeError, ValueError):
            return -1

    @property
    def available(self) -> bool:
        """Whether reads are being served (False after degradation)."""
        return self._conn is not None

    def close(self) -> None:
        """Flush buffered writes and release the connection."""
        if self._conn is not None:
            self.flush()
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ bookkeeping
    def _record(self, kind: str, **detail: Any) -> None:
        if self.report is not None:
            self.report.record(kind, **detail)

    def _degrade(self, reason: str) -> None:
        """Turn the store off for this run: pure compute, typed event, no raise."""
        self.disabled_reason = reason
        self._record("store_degraded", path=self.path, reason=reason)
        self._pending.clear()
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
            self._conn = None

    def _with_retry(self, description: str, operation):
        """Run one sqlite operation with bounded retry/backoff on SQLITE_BUSY."""
        attempt = 0
        while True:
            try:
                return operation()
            except sqlite3.OperationalError as error:
                message = str(error).lower()
                if ("locked" not in message and "busy" not in message) or attempt >= self.max_retries:
                    raise
                delay = self.backoff_base * (2 ** attempt)
                self._record(
                    "store_retry",
                    operation=description,
                    attempt=attempt,
                    backoff_seconds=delay,
                    error=str(error),
                )
                time.sleep(delay)
                attempt += 1

    # ------------------------------------------------------------------ reads
    def get_many(self, kind: str, spec: Any, keys: Sequence[str]) -> Dict[str, Any]:
        """Verified payloads for the given item keys (missing keys absent).

        Every returned payload passed its digest check; rows that failed are
        quarantined (reason recorded) and simply not returned, so the caller
        recomputes them — the self-healing contract.
        """
        if self._conn is None or not keys:
            self.misses += len(keys)
            return {}
        spec_h = spec if isinstance(spec, str) else spec_hash(spec)
        found: Dict[str, Any] = {}
        bad: List[Tuple[str, str, str, Optional[int], str]] = []
        try:
            for start in range(0, len(keys), _MAX_SQL_VARS):
                chunk = list(keys[start : start + _MAX_SQL_VARS])
                placeholders = ",".join("?" * len(chunk))
                rows = self._with_retry(
                    "select",
                    lambda c=chunk, p=placeholders: self._conn.execute(
                        f"SELECT item_key, payload, sha256, schema FROM results "
                        f"WHERE kind = ? AND spec_hash = ? AND item_key IN ({p})",
                        [kind, spec_h, *c],
                    ).fetchall(),
                )
                for item_key, payload_text, digest, schema in rows:
                    reason = None
                    if schema != STORE_SCHEMA:
                        reason = f"row schema {schema!r} != {STORE_SCHEMA}"
                    elif digest != row_digest(kind, spec_h, item_key, payload_text, schema):
                        reason = "sha-256 digest mismatch (corrupt or misfiled row)"
                    else:
                        try:
                            found[item_key] = _json_loads(payload_text)
                        except ValueError:
                            reason = "payload is not valid JSON"
                    if reason is not None:
                        bad.append((item_key, payload_text, digest, schema, reason))
            if bad:
                self._quarantine(kind, spec_h, bad)
        except sqlite3.Error as error:
            self._degrade(f"read failed: {error}")
            self.misses += len(keys)
            return {}
        self.hits += len(found)
        self.misses += len(keys) - len(found)
        return found

    def get(self, kind: str, spec: Any, key: str) -> Optional[Any]:
        """Single-key :meth:`get_many`."""
        return self.get_many(kind, spec, [key]).get(key)

    def _quarantine(
        self, kind: str, spec_h: str, bad: List[Tuple[str, str, str, Optional[int], str]]
    ) -> None:
        """Move damaged rows out of ``results`` so recomputed values can land."""
        self.quarantined += len(bad)
        for item_key, _payload, _digest, _schema, reason in bad:
            self._record("store_quarantined", row_kind=kind, item_key=item_key, reason=reason)
        if not self._writable:
            return  # read-only: served as misses; healing happens elsewhere
        now = time.time()

        def move() -> None:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.executemany(
                    "INSERT INTO quarantine "
                    "(kind, spec_hash, item_key, payload, sha256, schema, reason, quarantined_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        (kind, spec_h, item_key, payload, digest, schema, reason, now)
                        for item_key, payload, digest, schema, reason in bad
                    ],
                )
                self._conn.executemany(
                    "DELETE FROM results WHERE kind = ? AND spec_hash = ? AND item_key = ?",
                    [(kind, spec_h, item_key) for item_key, *_rest in bad],
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

        try:
            self._with_retry("quarantine", move)
        except sqlite3.OperationalError as error:
            # Healing is best-effort: the rows are already being recomputed;
            # a locked store just means they stay damaged until the next read.
            self._record("store_write_failed", reason=f"quarantine failed: {error}", rows=len(bad))

    # ----------------------------------------------------------------- writes
    def put(self, kind: str, spec: Any, key: str, payload: Any) -> None:
        """Buffer one row; it is committed by the next :meth:`flush`.

        ``payload`` may be an :class:`repro.store.EncodedPayload`, whose
        text is stored as it is.  The row digest is :func:`row_digest`,
        computed from a SHA-256 state over the ``(schema, kind, spec)``
        prefix that is hashed once per ``(kind, spec)`` and copied per row.
        """
        if self._conn is None:
            return
        if not self._writable:
            self.dropped_writes += 1
            if not self._warned_read_only:
                self._warned_read_only = True
                self._record(
                    "store_write_failed", reason="read-only store; writes dropped", rows=1
                )
            return
        spec_h = spec if isinstance(spec, str) else spec_hash(spec)
        payload_text = payload.text if type(payload) is EncodedPayload else stable_key(payload)
        prefix = self._digest_prefixes.get((kind, spec_h))
        if prefix is None:
            prefix = self._digest_prefixes[kind, spec_h] = hashlib.sha256(
                f"{STORE_SCHEMA}\n{kind}\n{spec_h}\n".encode("utf-8")
            )
        digest = prefix.copy()
        digest.update(f"{key}\n{payload_text}".encode("utf-8"))
        self._pending.append((kind, spec_h, key, payload_text, digest.hexdigest()))

    def flush(self) -> int:
        """Commit buffered rows in one ``BEGIN IMMEDIATE`` transaction.

        Called at the same batch boundaries the resilient runners checkpoint
        at.  A commit that stays locked past the retry budget, or hits a
        non-transient error (the injected disk-full model), drops the batch
        with a ``store_write_failed`` event — the rows are deterministic
        recomputations, so losing them costs time, never correctness.
        Returns the number of rows handed to SQLite.
        """
        if self._conn is None or not self._pending:
            return 0
        pending, self._pending = self._pending, []
        commit_fault = (
            self.faults.store_commit_fault(self.flushes) if self.faults is not None else None
        )
        injected_busy = commit_fault == "busy"
        now = time.time()

        def commit() -> None:
            nonlocal injected_busy
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                if injected_busy:
                    injected_busy = False  # one failed attempt, then clean
                    raise sqlite3.OperationalError("database is locked (injected fault)")
                if commit_fault == "diskfull":
                    raise sqlite3.OperationalError("database or disk is full (injected fault)")
                self._conn.executemany(
                    "INSERT OR IGNORE INTO results "
                    "(kind, spec_hash, item_key, payload, sha256, schema, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [
                        (kind, spec_h, key, payload, digest, STORE_SCHEMA, now)
                        for kind, spec_h, key, payload, digest in pending
                    ],
                )
                self._conn.execute("COMMIT")
            except BaseException:
                try:
                    self._conn.execute("ROLLBACK")
                except sqlite3.Error:  # pragma: no cover - rollback best-effort
                    pass
                raise

        self.flushes += 1
        try:
            self._with_retry("commit", commit)
        except sqlite3.OperationalError as error:
            self.dropped_writes += len(pending)
            self._record("store_write_failed", reason=str(error), rows=len(pending))
            return 0
        except sqlite3.Error as error:
            self._degrade(f"commit failed: {error}")
            return 0
        for row in pending:
            ordinal = self.row_writes
            self.row_writes += 1
            damage = (
                self.faults.store_row_damage(ordinal) if self.faults is not None else None
            )
            if damage is not None:
                self._damage_row(row, ordinal, damage)
        return len(pending)

    def _damage_row(self, row: Tuple[str, str, str, str, str], ordinal: int, damage: str) -> None:
        """Apply a fault plan's row sabotage: corrupt or tear a committed payload."""
        kind, spec_h, key, payload, _digest = row
        if damage == "corrupt":
            middle = len(payload) // 2
            flipped = "~" if payload[middle] != "~" else "!"
            damaged = payload[:middle] + flipped + payload[middle + 1 :]
        else:  # torn write: the payload stops mid-document
            damaged = payload[: max(1, len(payload) // 2)]
        # isolation_level=None means this UPDATE autocommits on its own.
        self._conn.execute(
            "UPDATE results SET payload = ? WHERE kind = ? AND spec_hash = ? AND item_key = ?",
            (damaged, kind, spec_h, key),
        )
        self._record("fault_installed", store_row=ordinal, damage=damage)

    # ------------------------------------------------------------------ admin
    def counts(self) -> Dict[str, Any]:
        """Row counts per kind, quarantine size, schema and file size."""
        if self._conn is None:
            return {"path": self.path, "available": False, "reason": self.disabled_reason}
        kinds = {
            kind: count
            for kind, count in self._conn.execute(
                "SELECT kind, COUNT(*) FROM results GROUP BY kind ORDER BY kind"
            )
        }
        (quarantined,) = self._conn.execute("SELECT COUNT(*) FROM quarantine").fetchone()
        try:
            size = os.path.getsize(self.path)
        except OSError:  # pragma: no cover - file vanished underneath us
            size = None
        return {
            "path": self.path,
            "available": True,
            "schema": STORE_SCHEMA,
            "kinds": kinds,
            "rows": sum(kinds.values()),
            "quarantined": quarantined,
            "bytes": size,
        }

    def verify(self) -> Dict[str, int]:
        """Digest-check every row; quarantine the damaged ones.

        The whole-store form of verify-on-access: returns ``{"checked": n,
        "corrupt": m}`` after moving the ``m`` damaged rows to quarantine
        (where a writable store is concerned), so the next survey recomputes
        them.
        """
        if self._conn is None:
            return {"checked": 0, "corrupt": 0}
        checked = 0
        damaged: Dict[Tuple[str, str], List[Tuple[str, str, str, Optional[int], str]]] = {}
        for kind, spec_h, item_key, payload, digest, schema in self._conn.execute(
            "SELECT kind, spec_hash, item_key, payload, sha256, schema FROM results"
        ).fetchall():
            checked += 1
            if schema != STORE_SCHEMA:
                reason = f"row schema {schema!r} != {STORE_SCHEMA}"
            elif digest != row_digest(kind, spec_h, item_key, payload, schema):
                reason = "sha-256 digest mismatch (corrupt or misfiled row)"
            else:
                continue
            damaged.setdefault((kind, spec_h), []).append(
                (item_key, payload, digest, schema, reason)
            )
        corrupt = sum(len(group) for group in damaged.values())
        for (kind, spec_h), group in damaged.items():
            self._quarantine(kind, spec_h, group)
        return {"checked": checked, "corrupt": corrupt}

    def gc(self) -> Dict[str, int]:
        """Purge the quarantine and compact the file (``VACUUM``)."""
        if self._conn is None or not self._writable:
            return {"purged": 0}
        def purge() -> int:
            cursor = self._conn.execute("DELETE FROM quarantine")
            return cursor.rowcount
        purged = self._with_retry("gc", purge)
        self._with_retry("vacuum", lambda: self._conn.execute("VACUUM"))
        self._record("store_gc", purged=purged)
        return {"purged": purged}

    def export(self, handle) -> int:
        """Write every verified row as one JSON line; returns the row count.

        Rows are emitted in ``(kind, spec_hash, item_key)`` order so exports
        of equal stores are byte-identical; damaged rows are skipped (and
        quarantined), never exported.
        """
        if self._conn is None:
            return 0
        exported = 0
        for kind, spec_h, item_key, payload, digest, schema in self._conn.execute(
            "SELECT kind, spec_hash, item_key, payload, sha256, schema FROM results "
            "ORDER BY kind, spec_hash, item_key"
        ).fetchall():
            if schema != STORE_SCHEMA or digest != row_digest(
                kind, spec_h, item_key, payload, schema
            ):
                self._quarantine(
                    kind, spec_h, [(item_key, payload, digest, schema, "failed export check")]
                )
                continue
            handle.write(
                '{"kind":%s,"spec_hash":%s,"item_key":%s,"payload":%s}\n'
                % (
                    stable_key(kind),
                    stable_key(spec_h),
                    stable_key(item_key),
                    payload,
                )
            )
            exported += 1
        return exported

    def summary(self) -> str:
        """One line for the CLI: hit rate, healing and degradation state."""
        if self.disabled_reason is not None:
            return f"store: degraded to pure compute ({self.disabled_reason})"
        parts = [f"{self.hits} hits", f"{self.misses} misses"]
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.dropped_writes:
            parts.append(f"{self.dropped_writes} writes dropped")
        return f"store: {', '.join(parts)} ({self.path})"
