"""The SQLite-backed execution engine.

Makes the paper's "lightweight, on a conventional DBMS" claim literal: the
optimized algebra plan is compiled to a single SQL statement (see
:mod:`repro.db.engine.compiler`), the referenced base relations are loaded
into an in-memory stdlib :mod:`sqlite3` database in the ``Enc`` table layout
(data columns ``c0..cN`` + integer annotation column ``a``), and the whole
query -- joins, selections, the UA-rewritten certainty arithmetic -- runs
natively in SQLite's C engine.  Only the final (usually small) result
crosses back into Python, where it is decoded into a :class:`KRelation`.

Everything expensive is cached and reused across executions:

* **compiled SQL** -- an LRU keyed by the (hashable, frozen-dataclass) plan
  itself plus the semiring, revalidated against the referenced relations'
  schemas, so a prepared statement in the session layer compiles its SQL
  once and every later ``execute()`` is bind + run;
* **connections and tables** -- one ``:memory:`` connection per
  :class:`Database` (weakly keyed, so dropped databases free their store),
  with per-relation fingerprints (object identity + mutation counter) that
  reload a table only when the catalog or its contents changed out of
  band; a writer that reports the rows it added (:meth:`SQLiteEngine.appended`)
  has them appended at the next read instead;
* **prepared statements** -- ``sqlite3`` keeps a per-connection statement
  cache, so re-executing the same SQL text skips SQLite's own parser too.

Parameter placeholders pass straight through as SQLite bind parameters
(``?N`` / ``:name``); the plan is *not* re-bound or re-compiled per
execution.

**Store-backed databases skip loading entirely**: when ``database.store``
points at a persistent ``.uadb`` file (see :mod:`repro.api.store`), the
file already holds every relation in the engine's table layout, so the
engine attaches to it (per-thread WAL connections, no copy) and staleness
checks reduce to the store's per-relation fingerprints -- a session-level
``INSERT`` is an incremental append there, never a whole-table reload.

Plans the compiler cannot express -- unsupported operators or scalar
functions, semirings without an integer encoding, values or annotations
SQLite cannot store (e.g. multiplicities beyond 64 bits) -- **fall back**
to the columnar engine with a ``repro.db.engine.sqlite`` logger warning
instead of raising, so the engine is always safe to select.
"""

from __future__ import annotations

import logging
import sqlite3
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Tuple

from repro.db import algebra
from repro.db.database import Database
from repro.db.expressions import Parameter
from repro.db.params import ParameterBinder, Params, check_bindings
from repro.db.relation import KRelation, Row
from repro.db.engine.base import ExecutionEngine
from repro.db.engine.common import resolve_limit_count, write_enc_table
from repro.db.engine.compiler import (
    AnnotationSQL,
    CompiledQuery,
    NotSupportedError,
    annotation_sql,
    compile_plan,
    table_name,
)

logger = logging.getLogger(__name__)


class _TableState:
    """Fingerprint of one loaded (or unloadable) relation.

    Holds a strong reference to the relation object: it pins the identity
    check (``is``) against id reuse and costs only the reference -- the row
    data is shared, not copied.  ``error`` records a failed load (values
    SQLite cannot store), so later executions skip the doomed re-load and
    fall back immediately until the relation actually changes.

    ``pending`` holds rows a writer reported adding (each once) since
    ``version`` and ``through`` the mutation count they lead up to: the
    table is those rows short of the relation at ``through``.
    """

    __slots__ = ("relation", "version", "error", "pending", "through")

    def __init__(self, relation: KRelation, version: int,
                 error: "NotSupportedError | None" = None) -> None:
        self.relation = relation
        self.version = version
        self.error = error
        self.pending: List[Row] = []
        self.through = version

    def fresh(self, relation: KRelation) -> bool:
        return self.relation is relation and self.version == relation._version


class _SQLiteStore:
    """The per-:class:`Database` SQLite side: connection + loaded tables."""

    def __init__(self, semiring_ops: AnnotationSQL) -> None:
        self.ops = semiring_ops
        # One connection serves every thread (guarded by ``lock``); sqlite3's
        # per-connection statement cache makes repeated SQL text cheap.
        self.connection = sqlite3.connect(":memory:", check_same_thread=False)
        # The evaluator's LIKE is case-sensitive; SQLite's default is not.
        self.connection.execute("PRAGMA case_sensitive_like = ON")
        self.lock = threading.RLock()
        self.tables: Dict[str, _TableState] = {}
        self.loads = 0

    def refresh(self, database: Database, names: Tuple[str, ...]) -> None:
        """(Re)load every named relation whose fingerprint went stale."""
        for name in names:
            relation = database.relation(name)
            state = self.tables.get(name)
            if state is not None and state.fresh(relation):
                if state.error is not None:
                    raise state.error
                continue
            if state is None or not self._append(name, state, relation):
                self._load(name, relation)

    def appended(self, relation: KRelation, before: int,
                 rows: List[Row]) -> None:
        """The writer's half of the fingerprint: adding ``rows``, each once,
        took ``relation`` from mutation count ``before`` to where it is now.

        A table that mirrors the relation at ``before`` (counting rows
        already owed to it) is owed these too and takes them at the next
        :meth:`refresh`; any other table is stale anyway and reloads.
        """
        with self.lock:
            state = self.tables.get(relation.schema.name.lower())
            if (state is not None and state.relation is relation
                    and state.error is None and state.through == before):
                state.pending.extend(rows)
                state.through = relation._version

    def _append(self, name: str, state: _TableState,
                relation: KRelation) -> bool:
        """Bring a table up to date by its pending rows alone; False when
        they do not account for the relation's state (or do not bind)."""
        if (state.relation is not relation or not state.pending
                or state.through != relation._version):
            return False
        placeholders = ", ".join(["?"] * (relation.schema.arity + 1))
        one = (self.ops.encode(relation.semiring.one),)
        try:
            self.connection.executemany(
                f"INSERT INTO {table_name(name)} VALUES ({placeholders})",
                (row + one for row in state.pending),
            )
        except (sqlite3.Error, OverflowError, TypeError, ValueError):
            self.connection.rollback()
            return False
        self.connection.commit()
        state.pending = []
        state.version = state.through
        return True

    def _load(self, name: str, relation: KRelation) -> None:
        version = relation._version
        table = table_name(name)
        cursor = self.connection.cursor()
        try:
            # Shared physical design (type-less columns, per-column indexes,
            # ANALYZE) with the persistent store: see write_enc_table.
            write_enc_table(cursor, table, relation.schema.arity,
                            self.ops.encode, relation.items())
        except (sqlite3.Error, OverflowError, TypeError, ValueError) as exc:
            # Unbindable values (tuples, >64-bit multiplicities, ...): drop
            # the half-loaded table and remember the verdict so the next
            # execution falls back without re-attempting the load.
            cursor.execute(f"DROP TABLE IF EXISTS {table}")
            self.connection.commit()
            error = NotSupportedError(
                f"relation {name!r} holds values SQLite cannot store: {exc}"
            )
            error.__cause__ = exc
            self.tables[name] = _TableState(relation, version, error)
            raise error
        self.connection.commit()
        self.tables[name] = _TableState(relation, version)
        self.loads += 1


class _NullLock:
    """No-op context: store-backed reads run lock-free (WAL, per-thread
    connections); the store serializes its own writes internally."""

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


class _PersistentStoreAdapter:
    """Adapts a persistent ``.uadb`` store to the engine's store interface.

    For a store-backed :class:`Database` (``database.store`` set by a
    persistent session), there is nothing to encode-and-load: the store file
    already holds every relation in the engine's ``Enc`` table layout, so
    the engine attaches to it and runs compiled SQL directly.  ``refresh``
    degrades to the store's lock-free fingerprint check per relation
    (rewriting a table only after an out-of-band in-memory mutation), and
    each thread queries over its own WAL-mode connection, so concurrent
    readers do not serialize.
    """

    __slots__ = ("store", "ops", "lock")

    def __init__(self, store) -> None:
        self.store = store
        self.ops = store.ops
        self.lock = _NullLock()

    @property
    def connection(self) -> sqlite3.Connection:
        return self.store.connection()

    @property
    def loads(self) -> int:
        return self.store.loads

    def refresh(self, database: Database, names: Tuple[str, ...]) -> None:
        for name in names:
            self.store.sync(name, database.relation(name))

    def appended(self, relation: KRelation, before: int,
                 rows: List[Row]) -> None:
        """Nothing to queue: the session appended to the store itself
        (``UADBStore.append`` + ``mark_synced``)."""


class SQLiteEngine(ExecutionEngine):
    """Compiles plans to SQL and executes them natively on stdlib SQLite."""

    name = "sqlite"
    #: Engine delegated to when a plan is outside the compilable fragment.
    fallback = "columnar"

    def __init__(self, compiled_cache_size: int = 256) -> None:
        #: (plan, semiring name) -> compiled; shared across structurally
        #: equal plans (every session compiles its own plan object for the
        #: same SQL, and all of them should hit one compile).
        self._compiled: "OrderedDict[Any, CompiledQuery]" = OrderedDict()
        #: id(plan) -> (plan, semiring name, compiled).  Identity-keyed
        #: fast path in front of ``_compiled``: hashing a deep plan
        #: dataclass costs more than the rest of the lookup, and an equal
        #: plan interned by *another* session would pay a full ``__eq__``
        #: on every probe.  Entries hold a strong reference to their plan,
        #: so a live entry's id cannot be recycled -- an id match plus an
        #: identity check is exact.
        self._by_plan: "OrderedDict[int, tuple]" = OrderedDict()
        self._compiled_cache_size = compiled_cache_size
        self._lock = threading.RLock()
        self._stores: "weakref.WeakKeyDictionary[Database, _SQLiteStore]" = (
            weakref.WeakKeyDictionary()
        )
        self._warned: set = set()
        self.compile_hits = 0
        self.compile_misses = 0
        self.fallbacks = 0

    # -- public entry points ----------------------------------------------------

    def execute(self, plan: algebra.Operator, database: Database,
                params: Params = None) -> KRelation:
        compiled = self._compiled_query(plan, database)
        if isinstance(compiled, NotSupportedError):
            return self._fall_back(plan, database, params, compiled,
                                   self._cache_key(plan, database))
        # Binding mismatches are *user* errors and must raise exactly like
        # the interpreting engines, never trigger a fallback.
        check_bindings(compiled.parameters, params)
        self._check_limit_bindings(compiled, params)
        arguments = self._bind_arguments(compiled, params)
        try:
            store = self._store(database)
            with store.lock:
                store.refresh(database, compiled.relations)
                rows = store.connection.execute(compiled.sql, arguments).fetchall()
        except (NotSupportedError, sqlite3.Error, OverflowError) as exc:
            return self._fall_back(plan, database, params, exc,
                                   self._cache_key(plan, database))
        return self._decode(compiled, database, rows)

    def compiled_sql(self, plan: algebra.Operator, database: Database) -> str:
        """The SQL text ``plan`` compiles to (cached like ``execute``).

        Raises :class:`NotSupportedError` for plans outside the fragment --
        useful to check whether a query would fall back.
        """
        compiled = self._compiled_query(plan, database)
        if isinstance(compiled, NotSupportedError):
            raise compiled
        return compiled.sql

    def appended(self, database: Database, relation: KRelation, before: int,
                 rows: List[Row]) -> None:
        with self._lock:
            store = self._stores.get(database)
        if store is not None:
            store.appended(relation, before, rows)

    def stats(self) -> Dict[str, int]:
        """Cache/fallback counters for observability and tests."""
        with self._lock:
            loads = sum(store.loads for store in self._stores.values())
            return {
                "compiled_plans": len(self._compiled),
                "compile_hits": self.compile_hits,
                "compile_misses": self.compile_misses,
                "table_loads": loads,
                "fallbacks": self.fallbacks,
                "databases": len(self._stores),
            }

    # -- compilation cache ------------------------------------------------------

    @staticmethod
    def _cache_key(plan: algebra.Operator, database: Database):
        """Hashable cache key, or None (hand-built plans may embed
        unhashable literals; those compile uncached rather than refuse)."""
        key = (plan, database.semiring.name)
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def _compiled_query(self, plan: algebra.Operator,
                        database: Database) -> "CompiledQuery | NotSupportedError":
        """The compiled query -- or the cached *unsupported* verdict.

        Negative results are cached too: re-executing a plan outside the
        fragment (e.g. every ``"direct"``-mode statement) costs one
        dictionary hit, not a full compile walk per execution.  A stale
        negative verdict after a schema change merely keeps routing that
        plan through the (correct) fallback engine.
        """
        semiring_name = database.semiring.name
        with self._lock:
            entry = self._by_plan.get(id(plan))
            if (entry is not None and entry[0] is plan
                    and entry[1] == semiring_name):
                cached = entry[2]
                if (isinstance(cached, NotSupportedError)
                        or self._deps_hold(cached, database)):
                    self._by_plan.move_to_end(id(plan))
                    self.compile_hits += 1
                    return cached
        key = self._cache_key(plan, database)
        if key is not None:
            with self._lock:
                cached = self._compiled.get(key)
                if cached is not None and (
                    isinstance(cached, NotSupportedError)
                    or self._deps_hold(cached, database)
                ):
                    self._compiled.move_to_end(key)
                    self.compile_hits += 1
                    self._remember(plan, semiring_name, cached)
                    return cached
                self.compile_misses += 1
        try:
            compiled: "CompiledQuery | NotSupportedError" = \
                compile_plan(plan, database)
        except NotSupportedError as exc:
            compiled = exc
        with self._lock:
            if key is not None:
                self._compiled[key] = compiled
                self._compiled.move_to_end(key)
                while len(self._compiled) > self._compiled_cache_size:
                    self._compiled.popitem(last=False)
            self._remember(plan, semiring_name, compiled)
        return compiled

    def _remember(self, plan: algebra.Operator, semiring_name: str,
                  compiled: "CompiledQuery | NotSupportedError") -> None:
        """Install the identity-keyed alias for ``plan`` (lock held)."""
        self._by_plan[id(plan)] = (plan, semiring_name, compiled)
        self._by_plan.move_to_end(id(plan))
        while len(self._by_plan) > self._compiled_cache_size:
            self._by_plan.popitem(last=False)

    @staticmethod
    def _deps_hold(compiled: CompiledQuery, database: Database) -> bool:
        """True while the referenced relations still have the compiled schemas."""
        for name, schema_name, attribute_names in compiled.schema_deps:
            if name not in database:
                return False
            schema = database.relation(name).schema
            if schema.name != schema_name or schema.attribute_names != attribute_names:
                return False
        return True

    # -- execution helpers ------------------------------------------------------

    def _store(self, database: Database) -> "_SQLiteStore | _PersistentStoreAdapter":
        with self._lock:
            store = self._stores.get(database)
            if store is None:
                persistent = getattr(database, "store", None)
                if persistent is not None:
                    store = _PersistentStoreAdapter(persistent)
                else:
                    store = _SQLiteStore(annotation_sql(database.semiring))
                self._stores[database] = store
            return store

    @staticmethod
    def _bind_arguments(compiled: CompiledQuery, params: Params):
        """Shape ``params`` for sqlite3 (placeholders pass straight through)."""
        if not compiled.parameters:
            return ()
        if isinstance(params, Mapping):
            # The parser lower-cases ':name' keys; match the supplied mapping.
            # sqlite3 ignores surplus named values, like check_bindings.
            return {str(name).lower(): value for name, value in params.items()}
        # sqlite3 requires exactly max-index values for ?N placeholders;
        # check_bindings has ensured at least that many are present, and
        # surplus values (optimized-away placeholders) are dropped here.
        return tuple(params)[:compiled.max_positional_index() + 1]

    @staticmethod
    def _check_limit_bindings(compiled: CompiledQuery, params: Params) -> None:
        """LIMIT parameters must bind to ints, exactly like the other engines."""
        if not compiled.limit_parameters:
            return
        binder = ParameterBinder(params)
        for key in compiled.limit_parameters:
            resolve_limit_count(binder.resolve(Parameter(key)))

    def _decode(self, compiled: CompiledQuery, database: Database,
                rows: List[Tuple]) -> KRelation:
        """Sum remaining fragments and rebuild the annotated relation."""
        semiring = database.semiring
        decode = self._store(database).ops.decode
        plus = semiring.plus
        data: Dict[Tuple, Any] = {}
        for row in rows:
            values = row[:-1]
            annotation = decode(row[-1])
            current = data.get(values)
            data[values] = annotation if current is None else plus(current, annotation)
        return KRelation._from_validated(compiled.schema, semiring, data)

    def _fall_back(self, plan: algebra.Operator, database: Database,
                   params: Params, reason: Exception, key=None) -> KRelation:
        from repro.db.engine import get_engine, record_dispatch

        with self._lock:
            self.fallbacks += 1
            # Warn once per plan, not once per execution: a prepared
            # statement outside the fragment may run thousands of times.
            warn = key is None or key not in self._warned
            if key is not None:
                self._warned.add(key)
                if len(self._warned) > 4 * self._compiled_cache_size:
                    self._warned.clear()
        if warn:
            logger.warning(
                "sqlite engine cannot run this plan (%s); falling back to "
                "the %r engine", reason, self.fallback,
            )
        record_dispatch(self.fallback)
        return get_engine(self.fallback).execute(plan, database, params=params)
