"""Persistent on-disk storage for UA-databases: the ``.uadb`` store.

A :class:`UADBStore` is an ordinary SQLite database file holding

* one ``Enc`` data table per registered relation, in exactly the layout the
  SQLite execution engine queries (type-less data columns ``c0..cN`` -- the
  last one being the certainty marker ``C`` -- plus the integer annotation
  column ``a``, one single-column index per data column),
* a catalog table (``uadb_catalog``) mapping relation names to their encoded
  schemas (JSON, see :func:`repro.core.encoding.schema_to_metadata`) in
  registration order,
* a metadata table (``uadb_meta``) recording the store format version, the
  base semiring by name, and the monotonically increasing catalog version
  that prepared-plan caches key their invalidation on.

Because the data tables use the engine layout, a store-backed database needs
no encode-and-load step: the SQLite execution engine *attaches* to the store
file and runs compiled queries directly against it (see
``_PersistentStoreAdapter`` in :mod:`repro.db.engine.sqlite`).  SQL-level
``INSERT`` through the session appends the new encoded rows incrementally
(:meth:`UADBStore.append`) and advances the per-relation fingerprint, so the
loaded table is never rewritten wholesale on the insert path.

Durability and concurrency come from SQLite itself:

* the store runs in **WAL** mode (``synchronous=NORMAL``): readers never
  block the writer and a crashed process leaves a consistent, reopenable
  file (the WAL is replayed on the next open);
* each thread gets its **own** ``sqlite3`` connection
  (:meth:`UADBStore.connection`), so concurrent readers run in parallel;
* all writes to one store object serialize behind a process-wide write lock;
  :meth:`UADBStore.transaction` groups the writes of one session-level
  write -- rows, statistics, version counters -- into one ``BEGIN
  IMMEDIATE`` ... ``COMMIT``, so they reach disk together or not at all.
  A write method called outside a transaction commits on its own.

Opening anything that is not a UA-DB store -- a missing path, a corrupt
file, a foreign SQLite database, an incompatible format or semiring --
raises the typed :class:`StoreError` instead of leaking a raw
``sqlite3.OperationalError``.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import weakref
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.db.relation import KRelation, Row
from repro.db.schema import RelationSchema
from repro.semirings import Semiring
from repro.db.engine.common import write_enc_table
from repro.db.engine.compiler import NotSupportedError, annotation_sql, table_name
from repro.core.encoding import (
    schema_from_metadata,
    schema_to_metadata,
    semiring_from_name,
)

__all__ = [
    "FORMAT_VERSION",
    "STORE_DIR_ENV_VAR",
    "StoreError",
    "UADBStore",
    "UnstorableRelationError",
]

#: On-disk format version; bumped on incompatible layout changes.
FORMAT_VERSION = 1

#: When set, connections without an explicit store persist to a fresh
#: ``.uadb`` file under this directory (used by the CI on-disk matrix axis).
STORE_DIR_ENV_VAR = "REPRO_STORE_DIR"

_META_TABLE = "uadb_meta"
_CATALOG_TABLE = "uadb_catalog"
_STATS_TABLE = "uadb_stats"


class StoreError(RuntimeError):
    """A UA-DB store file is missing, corrupt, foreign, or incompatible."""


class UnstorableRelationError(StoreError, NotSupportedError):
    """A relation holds values SQLite cannot store (e.g. nested tuples).

    Doubles as the compiler's :class:`NotSupportedError` so the SQLite
    execution engine's existing fallback path (columnar, reading the
    in-memory relation) handles the table transparently.
    """


class _TableFingerprint:
    """Sync state of one stored relation: which in-memory contents it holds.

    ``relation`` pins object identity (guarding against id reuse) and
    ``version`` is the relation's mutation counter at the last write.
    ``error`` records a failed write so later syncs re-raise instead of
    re-attempting a doomed load.
    """

    __slots__ = ("relation", "version", "error")

    def __init__(self, relation: KRelation, version: int,
                 error: Optional[UnstorableRelationError] = None) -> None:
        self.relation = relation
        self.version = version
        self.error = error

    def fresh(self, relation: KRelation) -> bool:
        return (self.error is None and self.relation is relation
                and self.version == relation._version)


class UADBStore:
    """One persistent ``.uadb`` file: Enc tables + catalog + metadata.

    ``semiring=None`` adopts the semiring persisted in an existing store
    (new stores default to N); passing a semiring validates it against an
    existing store and fixes it for a new one.  ``create=False`` refuses to
    initialize a missing file.
    """

    def __init__(self, path: "str | os.PathLike", semiring: Optional[Semiring] = None,
                 create: bool = True) -> None:
        self.path = os.fspath(path)
        self._write_lock = threading.RLock()
        self._local = threading.local()
        #: ``(owning thread, connection)`` pairs, pruned of dead threads on
        #: new checkouts so a long-lived store serving short-lived worker
        #: threads does not leak file descriptors.
        self._connections: List[Tuple[threading.Thread, sqlite3.Connection]] = []
        self._connections_lock = threading.Lock()
        self._closed = False
        self._synced: Dict[str, _TableFingerprint] = {}
        #: ``id(relation)`` -> (weak reference, its ``_version`` when it
        #: last mirrored the stored table exactly).  Unlike ``_synced``
        #: (one slot per table, overwritten whenever a fleet refresh loads
        #: a newer copy), this remembers *every* clean snapshot object
        #: still alive, so :meth:`sync` can tell "stale because mutated
        #: out-of-band" (must rewrite) apart from "stale because a refresh
        #: replaced the object" (must NOT rewrite -- the table is
        #: same-or-newer than the object).  Keyed by id with a liveness
        #: check on lookup because :class:`KRelation` is unhashable.
        self._snapshots: Dict[int, Tuple[weakref.ref, int]] = {}
        #: Full table (re)writes performed (parity with the engine's counter).
        self.loads = 0
        #: Incremental row appends performed.
        self.appends = 0
        #: Write transactions committed (one per session-level write).
        self.commits = 0
        #: True while the write-lock holder has a :meth:`transaction` open;
        #: the write methods then join it instead of committing.
        self._scope_open = False
        #: Tables fully rewritten inside the open transaction: their
        #: fingerprints are forgotten if it rolls back.
        self._unconfirmed: List[Tuple[str, KRelation]] = []
        #: Whether the ``uadb_stats`` table exists (stores from before the
        #: statistics layer get it on their first statistics write).
        self._stats_table = False
        if not create and not os.path.exists(self.path):
            raise StoreError(f"no UA-DB store at {self.path!r}")
        with self._write_lock:
            self._initialize(self.connection(), semiring)

    # -- connections --------------------------------------------------------------

    def connection(self) -> sqlite3.Connection:
        """This thread's connection to the store (created on first use)."""
        if self._closed:
            raise StoreError(f"store {self.path!r} is closed")
        connection = getattr(self._local, "connection", None)
        if connection is None:
            try:
                # ``check_same_thread=False`` only so close() can reap
                # connections owned by other threads; each connection is
                # otherwise used exclusively by the thread that created it.
                connection = sqlite3.connect(self.path, timeout=30.0,
                                             check_same_thread=False)
            except sqlite3.Error as exc:
                raise StoreError(
                    f"cannot open UA-DB store at {self.path!r}: {exc}"
                ) from exc
            try:
                connection.execute("PRAGMA journal_mode = WAL")
                connection.execute("PRAGMA synchronous = NORMAL")
                connection.execute("PRAGMA busy_timeout = 30000")
                # The evaluator's LIKE is case-sensitive; SQLite's is not.
                connection.execute("PRAGMA case_sensitive_like = ON")
            except sqlite3.DatabaseError as exc:
                connection.close()
                raise StoreError(
                    f"{self.path!r} is not a UA-DB store (corrupt or not a "
                    f"SQLite database): {exc}"
                ) from exc
            self._local.connection = connection
            with self._connections_lock:
                # Reap connections whose owning thread has exited: the
                # threading.local slot died with the thread, but the sqlite3
                # connection (and its file descriptor) would live forever.
                alive: List[Tuple[threading.Thread, sqlite3.Connection]] = []
                for thread, existing in self._connections:
                    if thread.is_alive():
                        alive.append((thread, existing))
                    else:
                        try:
                            existing.close()
                        except sqlite3.Error:  # pragma: no cover
                            pass
                alive.append((threading.current_thread(), connection))
                self._connections = alive
        return connection

    def close(self) -> None:
        """Close every thread's connection; further use raises StoreError."""
        self._closed = True
        with self._connections_lock:
            for _thread, connection in self._connections:
                try:
                    connection.close()
                except sqlite3.Error:  # pragma: no cover - best-effort reap
                    pass
            self._connections.clear()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; store operations raise from then on."""
        return self._closed

    def commit(self) -> None:
        """Flush this thread's connection (writes commit eagerly anyway)."""
        self.connection().commit()

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """One write transaction: every store write inside commits together.

        Holds the write lock throughout and starts with ``BEGIN
        IMMEDIATE``, so the SQLite write lock is taken up front and DDL is
        inside the transaction.  :meth:`append`, :meth:`save`,
        :meth:`save_stats` and the version bumps join it instead of
        committing; a nested call joins the open one.  The body's exception
        rolls everything back.  So does SQLite itself on some failures
        (disk full, I/O error, interrupt): the commit then raises
        :class:`StoreError` rather than commit what ran after it.  Either
        way the store's own fingerprints of tables rewritten inside are
        forgotten, so a later sync rewrites them.
        """
        with self._write_lock:
            connection = self.connection()
            if self._scope_open:
                yield connection
                return
            if not connection.in_transaction:
                connection.execute("BEGIN IMMEDIATE")
            self._scope_open = True
            stats_table = self._stats_table
            try:
                yield connection
                if not connection.in_transaction:
                    raise StoreError(
                        f"store {self.path!r}: SQLite rolled the write "
                        "transaction back")
                connection.commit()
            except BaseException:
                if connection.in_transaction:
                    connection.rollback()
                self._stats_table = stats_table
                for key, relation in self._unconfirmed:
                    self._synced.pop(key, None)
                    self._snapshots.pop(id(relation), None)
                raise
            finally:
                self._scope_open = False
                self._unconfirmed.clear()
            self.commits += 1

    # -- initialization -----------------------------------------------------------

    def _initialize(self, connection: sqlite3.Connection,
                    semiring: Optional[Semiring]) -> None:
        try:
            tables = {
                row[0] for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        except sqlite3.DatabaseError as exc:
            raise StoreError(
                f"{self.path!r} is not a UA-DB store (corrupt or not a "
                f"SQLite database): {exc}"
            ) from exc
        if _META_TABLE in tables:
            self._load_meta(connection, semiring)
            self._stats_table = _STATS_TABLE in tables
            return
        if tables:
            raise StoreError(
                f"{self.path!r} is a SQLite database but not a UA-DB store "
                f"(no {_META_TABLE!r} table); refusing to overwrite it"
            )
        if semiring is None:
            from repro.semirings import NATURAL
            semiring = NATURAL
        try:
            self.ops = annotation_sql(semiring)
        except NotSupportedError as exc:
            raise StoreError(
                f"semiring {semiring.name} cannot be persisted: {exc}"
            ) from exc
        self.semiring = semiring
        self._catalog_version = 0
        self._stats_version = 0
        with self.transaction():
            connection.execute(
                f"CREATE TABLE {_META_TABLE} (key TEXT PRIMARY KEY, value TEXT)"
            )
            connection.execute(
                f"CREATE TABLE {_CATALOG_TABLE} ("
                "name TEXT PRIMARY KEY, position INTEGER NOT NULL, "
                "schema_json TEXT NOT NULL)"
            )
            self._create_stats_table(connection)
            connection.executemany(
                f"INSERT INTO {_META_TABLE} (key, value) VALUES (?, ?)",
                [("format", str(FORMAT_VERSION)),
                 ("semiring", semiring.name),
                 ("catalog_version", "0"),
                 ("stats_version", "0")],
            )

    def _load_meta(self, connection: sqlite3.Connection,
                   semiring: Optional[Semiring]) -> None:
        meta = dict(connection.execute(
            f"SELECT key, value FROM {_META_TABLE}"
        ))
        try:
            stored_format = int(meta["format"])
        except (KeyError, ValueError) as exc:
            raise StoreError(
                f"{self.path!r} has no readable store format marker"
            ) from exc
        if stored_format != FORMAT_VERSION:
            raise StoreError(
                f"{self.path!r} uses store format {stored_format}, this "
                f"build reads format {FORMAT_VERSION}"
            )
        try:
            stored_semiring = semiring_from_name(meta.get("semiring", ""))
        except ValueError as exc:
            raise StoreError(f"{self.path!r}: {exc}") from exc
        if semiring is not None and semiring.name != stored_semiring.name:
            raise StoreError(
                f"store {self.path!r} was created with semiring "
                f"{stored_semiring.name}, not {semiring.name}"
            )
        self.semiring = stored_semiring
        self.ops = annotation_sql(stored_semiring)
        self._catalog_version = int(meta.get("catalog_version", "0"))
        # Stores from before the statistics layer have neither the meta row
        # nor the stats table; both appear lazily on first write.
        self._stats_version = int(meta.get("stats_version", "0"))

    # -- catalog ------------------------------------------------------------------

    @property
    def catalog_version(self) -> int:
        """Monotonic counter persisted across processes; see meta table."""
        return self._catalog_version

    def bump_catalog_version(self) -> int:
        """Advance and persist the catalog version (registration / DDL)."""
        with self.transaction() as connection:
            self._catalog_version += 1
            connection.execute(
                f"UPDATE {_META_TABLE} SET value = ? WHERE key = 'catalog_version'",
                (str(self._catalog_version),),
            )
            return self._catalog_version

    def read_persisted_versions(self) -> Tuple[int, int]:
        """The ``(catalog_version, stats_version)`` currently on disk.

        Unlike :attr:`catalog_version` / :attr:`stats_version` -- in-memory
        mirrors that only track *this* process's bumps -- this re-reads the
        meta table, so it observes versions advanced by **other processes**
        sharing the store file.  The fleet's
        :class:`~repro.server.fleet.coordination.StoreCoordinator` polls it
        per request to detect cross-process writes.
        """
        rows = dict(self.connection().execute(
            f"SELECT key, value FROM {_META_TABLE} "
            "WHERE key IN ('catalog_version', 'stats_version')"
        ))
        try:
            return (int(rows.get("catalog_version", "0")),
                    int(rows.get("stats_version", "0")))
        except ValueError as exc:
            raise StoreError(
                f"store {self.path!r} has unreadable version counters"
            ) from exc

    def adopt_versions(self, catalog_version: int, stats_version: int) -> None:
        """Fast-forward the in-memory version mirrors to persisted values.

        Called after another process advanced the persisted counters: the
        mirrors must catch up *before* this process's next bump, or the bump
        would re-persist an already-used version number and break the
        monotonic invalidation contract.  Counters only ever move forward.
        """
        with self._write_lock:
            self._catalog_version = max(self._catalog_version, catalog_version)
            self._stats_version = max(self._stats_version, stats_version)

    # -- table statistics ---------------------------------------------------------

    @property
    def stats_version(self) -> int:
        """Monotonic statistics counter persisted across processes.

        Bumped whenever persisted table statistics change (INSERTs,
        recollections); plan caches key on it so a join order chosen under
        stale statistics cannot outlive the statistics it was based on.
        Stores from before the statistics layer report 0.
        """
        return self._stats_version

    def bump_stats_version(self) -> int:
        """Advance and persist the statistics version.

        Uses ``INSERT OR REPLACE`` (not a plain ``UPDATE``) because stores
        created before the statistics layer have no ``stats_version`` meta
        row to update.
        """
        with self.transaction() as connection:
            self._stats_version += 1
            connection.execute(
                f"INSERT OR REPLACE INTO {_META_TABLE} (key, value) "
                "VALUES ('stats_version', ?)",
                (str(self._stats_version),),
            )
            return self._stats_version

    def _create_stats_table(self, connection: sqlite3.Connection) -> None:
        connection.execute(
            f"CREATE TABLE IF NOT EXISTS {_STATS_TABLE} "
            "(name TEXT PRIMARY KEY, stats_json TEXT NOT NULL)"
        )
        self._stats_table = True

    def save_stats(self, name: str, stats_json: str) -> None:
        """Persist the statistics JSON of relation ``name`` (upsert).

        The statement runs behind a savepoint: when it fails, only it is
        undone and the error propagates, so an enclosing
        :meth:`transaction` still commits the rows it wrote -- unless
        SQLite rolled the whole transaction back, which that transaction's
        commit then reports.  Keep it the last statement of a write.
        """
        with self.transaction() as connection:
            stats_table = self._stats_table
            connection.execute("SAVEPOINT uadb_stats")
            try:
                if not stats_table:
                    self._create_stats_table(connection)
                connection.execute(
                    f"INSERT OR REPLACE INTO {_STATS_TABLE} (name, stats_json) "
                    "VALUES (?, ?)",
                    (name.lower(), stats_json),
                )
            except BaseException:
                self._stats_table = stats_table
                if connection.in_transaction:
                    connection.execute("ROLLBACK TO uadb_stats")
                    connection.execute("RELEASE uadb_stats")
                raise
            connection.execute("RELEASE uadb_stats")

    def load_all_stats(self) -> Dict[str, str]:
        """All persisted statistics as ``{relation name: stats JSON}``.

        Returns an empty mapping for stores without a stats table (created
        before the statistics layer, or never analyzed).
        """
        connection = self.connection()
        try:
            rows = connection.execute(
                f"SELECT name, stats_json FROM {_STATS_TABLE}"
            ).fetchall()
        except sqlite3.OperationalError:
            return {}
        return {name: payload for name, payload in rows}

    def relation_names(self) -> List[str]:
        """Display names of the stored relations, in registration order."""
        return [
            schema_from_metadata(row[0]).name
            for row in self.connection().execute(
                f"SELECT schema_json FROM {_CATALOG_TABLE} ORDER BY position"
            )
        ]

    def schema_of(self, name: str) -> RelationSchema:
        """The persisted (encoded) schema of ``name``."""
        row = self.connection().execute(
            f"SELECT schema_json FROM {_CATALOG_TABLE} WHERE name = ?",
            (name.lower(),),
        ).fetchone()
        if row is None:
            raise StoreError(
                f"store {self.path!r} has no relation {name!r}"
            )
        return schema_from_metadata(row[0])

    def __contains__(self, name: str) -> bool:
        row = self.connection().execute(
            f"SELECT 1 FROM {_CATALOG_TABLE} WHERE name = ?", (name.lower(),)
        ).fetchone()
        return row is not None

    # -- data ---------------------------------------------------------------------

    def fresh(self, relation: KRelation) -> bool:
        """True while the stored table still matches ``relation`` exactly."""
        state = self._synced.get(relation.schema.name.lower())
        return state is not None and state.fresh(relation)

    def _remember_snapshot(self, relation: KRelation) -> None:
        """Record that ``relation``, at its current version, mirrors disk."""
        key = id(relation)
        snapshots = self._snapshots

        def _purge(reference: weakref.ref) -> None:
            # Only drop the entry this reference created: the id may have
            # been reused by a newer snapshot before the callback fired.
            entry = snapshots.get(key)
            if entry is not None and entry[0] is reference:
                snapshots.pop(key, None)

        snapshots[key] = (weakref.ref(relation, _purge), relation._version)

    def _snapshot_current(self, relation: KRelation) -> bool:
        """True when ``relation`` is an unmodified copy of persisted state.

        A relation object that was loaded from (or fully written to) this
        store and never mutated since cannot be *ahead* of the stored
        table -- at most behind it, when another process appended rows in
        the meantime.  Syncing must then leave the table alone: a rewrite
        from such a snapshot would silently delete durable rows a
        concurrent writer committed (the fleet refresh race), whereas
        skipping it reads the same-or-newer stored rows.
        """
        entry = self._snapshots.get(id(relation))
        if entry is None:
            return False
        reference, version = entry
        return reference() is relation and version == relation._version

    def save(self, relation: KRelation) -> None:
        """Create or replace the Enc table (and catalog entry) for ``relation``.

        Raises :class:`UnstorableRelationError` when the relation holds
        values SQLite cannot bind; the verdict is remembered so later syncs
        fail fast (and the execution engine falls back) until the relation
        actually changes.
        """
        key = relation.schema.name.lower()
        with self.transaction() as connection:
            self._write_table(connection, key, relation)
            position = connection.execute(
                f"SELECT position FROM {_CATALOG_TABLE} WHERE name = ?", (key,)
            ).fetchone()
            if position is None:
                position = connection.execute(
                    f"SELECT COUNT(*) FROM {_CATALOG_TABLE}"
                ).fetchone()
            connection.execute(
                f"INSERT OR REPLACE INTO {_CATALOG_TABLE} "
                "(name, position, schema_json) VALUES (?, ?, ?)",
                (key, position[0], schema_to_metadata(relation.schema)),
            )

    def append(self, relation: KRelation,
               rows: Iterable[Tuple[Row, Any]]) -> None:
        """Incrementally INSERT encoded ``(row, annotation)`` pairs.

        Called *before* the in-memory mutation (write-ahead), normally
        inside the writer's :meth:`transaction` next to the statistics and
        the version bump it commits with.  A failure raises
        :class:`UnstorableRelationError` and rolls back that transaction
        with the fingerprint untouched, so a refused append implies no
        state change anywhere.  Once the transaction committed and the
        in-memory relation caught up, the caller advances the fingerprint
        with :meth:`mark_synced`, keeping the loaded table append-only on
        the insert path (never a wholesale rewrite).
        """
        key = relation.schema.name.lower()
        table = table_name(key)
        placeholders = ", ".join(["?"] * (relation.schema.arity + 1))
        encode = self.ops.encode
        with self.transaction() as connection:
            try:
                connection.executemany(
                    f"INSERT INTO {table} VALUES ({placeholders})",
                    (row + (encode(annotation),) for row, annotation in rows),
                )
            except (sqlite3.Error, OverflowError, TypeError, ValueError) as exc:
                error = UnstorableRelationError(
                    f"relation {key!r} received values SQLite cannot store: {exc}"
                )
                error.__cause__ = exc
                raise error
            self.appends += 1

    def mark_synced(self, relation: KRelation) -> None:
        """Record that the stored table mirrors ``relation`` as it is now.

        The second half of the append protocol: called once the in-memory
        relation has caught up with the rows already written via
        :meth:`append`.
        """
        with self._write_lock:
            self._synced[relation.schema.name.lower()] = _TableFingerprint(
                relation, relation._version
            )
            self._remember_snapshot(relation)

    def sync(self, name: str, relation: KRelation) -> bool:
        """Ensure the stored table matches ``relation``; rewrite if stale.

        The staleness fast path is a lock-free fingerprint check (object
        identity + ``KRelation._version``), so the execution engine pays one
        dictionary hit per referenced relation per query.  Returns True when
        a rewrite happened.
        """
        key = name.lower()
        state = self._synced.get(key)
        if state is not None:
            if state.fresh(relation):
                return False
            if (state.error is not None and state.relation is relation
                    and state.version == relation._version):
                raise state.error
        if self._snapshot_current(relation):
            # An unmodified snapshot of already-persisted state: the stored
            # table is the same or newer (a concurrent fleet writer may have
            # appended); rewriting would regress durable rows.
            return False
        with self._write_lock:
            state = self._synced.get(key)
            if state is not None and state.fresh(relation):
                return False
            if self._snapshot_current(relation):
                return False
            with self.transaction() as connection:
                self._write_table(connection, key, relation)
                if key not in self:
                    # Out-of-band relation (added to the Database directly,
                    # not through a session): give it a catalog entry so it
                    # survives.
                    position = connection.execute(
                        f"SELECT COUNT(*) FROM {_CATALOG_TABLE}"
                    ).fetchone()[0]
                    connection.execute(
                        f"INSERT INTO {_CATALOG_TABLE} "
                        "(name, position, schema_json) VALUES (?, ?, ?)",
                        (key, position, schema_to_metadata(relation.schema)),
                    )
            return True

    def _write_table(self, connection: sqlite3.Connection, key: str,
                     relation: KRelation) -> None:
        """DROP/CREATE the Enc table and bulk-load ``relation`` into it.

        Runs inside the caller's :meth:`transaction` (SQLite DDL is
        transactional): a failure (values SQLite cannot bind) raises and
        the transaction rolls back to the previously persisted table, so a
        bad in-memory relation can never destroy durable data or leave the
        catalog pointing at a missing table.
        """
        try:
            # Shared physical design with the engine's in-memory loader
            # (type-less columns, per-column indexes, ANALYZE), so query
            # plans and performance match the in-memory configuration.
            write_enc_table(connection.cursor(), table_name(key),
                            relation.schema.arity, self.ops.encode,
                            relation.items())
        except (sqlite3.Error, OverflowError, TypeError, ValueError) as exc:
            error = UnstorableRelationError(
                f"relation {key!r} holds values SQLite cannot store: {exc}"
            )
            error.__cause__ = exc
            self._synced[key] = _TableFingerprint(
                relation, relation._version, error
            )
            raise error
        self._synced[key] = _TableFingerprint(relation, relation._version)
        self._remember_snapshot(relation)
        self._unconfirmed.append((key, relation))
        self.loads += 1

    def load_relation(self, name: str) -> KRelation:
        """Rebuild the encoded :class:`KRelation` for ``name`` from disk.

        Duplicate stored fragments of one tuple (produced by incremental
        appends) are consolidated with the semiring's ``plus``.  The loaded
        relation is fingerprinted as in sync, so the execution engine will
        not rewrite the table it was just read from.
        """
        key = name.lower()
        schema = self.schema_of(key)
        decode = self.ops.decode
        plus = self.semiring.plus
        data: Dict[Row, Any] = {}
        try:
            rows = self.connection().execute(
                f"SELECT * FROM {table_name(key)}"
            )
        except sqlite3.Error as exc:
            raise StoreError(
                f"store {self.path!r} is missing the data table for "
                f"{name!r}: {exc}"
            ) from exc
        for row in rows:
            values = row[:-1]
            annotation = decode(row[-1])
            current = data.get(values)
            data[values] = (annotation if current is None
                            else plus(current, annotation))
        relation = KRelation._from_validated(schema, self.semiring, data)
        self._synced[key] = _TableFingerprint(relation, relation._version)
        self._remember_snapshot(relation)
        return relation

    # -- observability ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Write counters for observability and tests: full table
        ``loads``, row ``appends``, and ``commits`` -- write transactions,
        one per INSERT, load chunk or registration."""
        return {
            "loads": self.loads,
            "appends": self.appends,
            "commits": self.commits,
            "relations": len(self.relation_names()),
            "catalog_version": self._catalog_version,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"v{self._catalog_version}"
        return f"<UADBStore {self.path!r} [{self.semiring.name}] {state}>"
