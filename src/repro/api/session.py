"""A DB-API-2.0-flavored session layer for UA-DBs.

:func:`repro.connect` opens a :class:`Connection` -- the paper's middleware
as a database session.  Uncertain sources are registered (or created and
loaded entirely through SQL with ``CREATE TABLE`` / ``INSERT``), and SQL
queries run through cursors with the familiar ``execute`` / ``fetchall``
shape plus the UA-specific accessors (``certain_rows``, ``labeled_rows``).

What the session adds over one-shot :func:`repro.db.evaluator.evaluate`
calls is *amortization*: every statement is compiled once -- parse ->
translate -> Figure 8/9 rewrite -> optimize -- into a prepared plan stored
in an LRU :class:`~repro.api.cache.PlanCache`, and re-executions (the same
SQL text again, an explicit :class:`PreparedStatement`, or ``executemany``)
skip straight to parameter binding and engine execution.  Placeholders
(``?`` positional, ``:name`` named) keep the cache hot across queries that
differ only in constants.

Cache entries are keyed by (SQL, mode, optimizer toggle) and stamped with
the catalog version they were compiled against; registering a source or
creating a table bumps the version, so stale plans are recompiled
transparently (see :class:`~repro.api.cache.PlanCache`).
"""

from __future__ import annotations

import logging
import os
import re
import time
import uuid
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import cached_property
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional,
    Sequence, Set, Tuple, TypeVar, Union,
)

from repro.db import algebra
from repro.db.database import Database
from repro.db.engine import get_engine
from repro.db.evaluator import _optimize_default, evaluate
from repro.db.expressions import Parameter, RowEnvironment
from repro.db.params import (
    ParameterBinder, Params, check_bindings,
    expression_parameters, plan_parameters,
)
from repro.db.optimizer import optimize_plan
from repro.db.relation import KRelation, Row, render_table
from repro.db.schema import (
    Attribute, DataType, DatabaseSchema, RelationSchema, SchemaError,
)
from repro.db.stats import StatsCatalog
from repro.db.sql.ast import (
    CreateTableStatement, ExplainStatement, InsertStatement, Statement,
)
from repro.db.sql.parser import parse_statement
from repro.db.sql.translator import parse_query, translate
from repro.semirings import NATURAL, Semiring
from repro.core.attribute_bounds import (
    AttributeBoundsRelation, AttributeLabel, Fragment, answer_schema,
    decode_attribute_relation, encode_attribute_relation,
    is_attribute_encoded, label_fragments, logical_schema_from_encoded,
    read_attribute_fragments,
)
from repro.core.attribute_rewriter import rewrite_attribute_plan
from repro.core.encoding import (
    decode_relation, decoded_schema, encode_relation, labeled_rows,
)
from repro.core.rewriter import rewrite_plan
from repro.core.uadb import UADatabase, UARelation
from repro.incomplete.ctable import CTableDatabase
from repro.incomplete.tidb import TIDatabase
from repro.incomplete.xdb import XDatabase
from repro.api.store import (
    STORE_DIR_ENV_VAR, StoreError, UADBStore, UnstorableRelationError,
)

logger = logging.getLogger(__name__)

_T = TypeVar("_T")


class SessionError(RuntimeError):
    """Raised for misuse of the session API (closed connections, bad ops)."""


class _NoLocking:
    """Single-connection default: ``read()``/``write()`` are no-op contexts.

    A :class:`~repro.api.pool.ConnectionPool` swaps in a real
    readers-writer lock so pooled handles can run queries concurrently
    while DDL/DML stays exclusive.
    """

    def read(self):
        return nullcontext()

    def write(self):
        return nullcontext()


#: SQL type names accepted by ``CREATE TABLE``.
SQL_TYPES: Dict[str, DataType] = {
    "int": DataType.INTEGER, "integer": DataType.INTEGER,
    "bigint": DataType.INTEGER, "smallint": DataType.INTEGER,
    "float": DataType.FLOAT, "real": DataType.FLOAT,
    "double": DataType.FLOAT, "numeric": DataType.FLOAT,
    "decimal": DataType.FLOAT,
    "text": DataType.STRING, "string": DataType.STRING,
    "varchar": DataType.STRING, "char": DataType.STRING,
    "bool": DataType.BOOLEAN, "boolean": DataType.BOOLEAN,
    "any": DataType.ANY,
}

_EMPTY_ENV = RowEnvironment((), ())


def _derived_from(sources: Dict[str, Tuple[KRelation, int]], name: str,
                  source: KRelation) -> bool:
    """True while ``name``'s derived entry describes ``source``: the rule of
    :attr:`Connection.uadb`'s decoded relations and of the certain maps of
    native attribute tables."""
    derived_from, version = sources.get(name, (None, -1))
    return derived_from is source and version == source._version


@dataclass
class UAQueryResult:
    """Result of a UA-DB query: a labelled view over the answer.

    The row accessors all read one sorted list of ``(row, certain?)``
    pairs, built on first use by one pass over the answer and one sort.
    """

    #: The answer as a K_UA-relation (``[certain, best-guess]`` pairs).
    relation: UARelation
    #: Wall-clock evaluation time in seconds (binding + execution; includes
    #: compilation only when the statement was not already cached).
    elapsed: float = 0.0

    @property
    def schema(self) -> RelationSchema:
        """Schema of the answer."""
        return self.relation.schema

    @cached_property
    def _pairs(self) -> List[Tuple[Row, bool]]:
        return self.relation.labeled_rows()

    def labeled_rows(self) -> List[Tuple[Row, bool]]:
        """``(row, certain?)`` pairs, sorted for stable output."""
        return list(self._pairs)

    def rows(self) -> List[Row]:
        """All result rows (the best-guess-world answer), sorted."""
        return [row for row, _ in self._pairs]

    def certain_rows(self) -> List[Row]:
        """Rows labeled certain (the under-approximation), sorted."""
        return [row for row, certain in self._pairs if certain]

    def uncertain_rows(self) -> List[Row]:
        """Rows not labeled certain, sorted."""
        return [row for row, certain in self._pairs if not certain]

    def __len__(self) -> int:
        return len(self._pairs)

    def pretty(self, limit: int = 20) -> str:
        """Human-readable rendering with a Certain? column."""
        header = list(self.schema.attribute_names) + ["Certain?"]
        rows = [[repr(value) for value in row] + [str(certain).lower()]
                for row, certain in self._pairs]
        return render_table(header, rows, limit)


class _EncodedResult(UAQueryResult):
    """The result of a rewritten plan, read off its ``Enc``-encoded answer:
    :attr:`relation` is decoded only when the K_UA annotations are asked for."""

    def __init__(self, encoded: KRelation, elapsed: float = 0.0) -> None:
        self._encoded = encoded
        self.elapsed = elapsed

    @cached_property
    def schema(self) -> RelationSchema:
        return decoded_schema(self._encoded.schema)

    @cached_property
    def relation(self) -> UARelation:
        return decode_relation(self._encoded)

    @cached_property
    def _pairs(self) -> List[Tuple[Row, bool]]:
        return labeled_rows(self._encoded)


@dataclass
class AttributeQueryResult:
    """Result of an attribute-level query: a view over the bounded answer.

    Produced by :meth:`Connection.query_bounds` (and by every query path of
    a connection opened with ``annotation="attribute"``).  The underlying
    :class:`~repro.core.attribute_bounds.AttributeBoundsRelation` holds one
    *fragment* per distinct row of ``[lower, best, upper]`` ranges together
    with a multiplicity triple; the accessors below project out the views
    most callers want.  A session's result reads them off one pass over the
    engine's encoded answer, made on first use, and assembles
    :attr:`relation` only when it is asked for.
    """

    relation: AttributeBoundsRelation
    #: Wall-clock evaluation time in seconds (binding + execution; includes
    #: compilation only when the statement was not already cached; reading
    #: the answer happens on first access and is not part of it).
    elapsed: float = 0.0

    @property
    def schema(self) -> RelationSchema:
        """Schema of the answer (one attribute per result column)."""
        return self.relation.schema

    @cached_property
    def _pairs(self) -> List[Tuple[Row, AttributeLabel]]:
        return self.relation.labeled_rows()

    def rows(self) -> List[Row]:
        """Distinct best-guess rows (the best-guess-world answer), sorted."""
        return [row for row, _ in self._pairs]

    def certain_rows(self) -> List[Row]:
        """Rows certain in both existence and value: some fragment has
        collapsed ranges and a lower multiplicity bound of at least one."""
        return [row for row, label in self._pairs if label.certain]

    def uncertain_rows(self) -> List[Row]:
        """Best-guess rows that are not fully certain."""
        return [row for row, label in self._pairs if not label.certain]

    def bounded_rows(self) -> List[Tuple[Tuple, Tuple[int, int, int]]]:
        """All fragments as ``(range-row, (m_lb, m_bg, m_ub))`` pairs.

        Each range row holds one ``(lower, best, upper)`` triple per result
        column; the list is deterministically sorted.
        """
        return self.relation.bounded_rows()

    def labeled_rows(self) -> List[Tuple[Row, AttributeLabel]]:
        """Best-guess rows paired with per-attribute certainty labels, sorted
        (:meth:`~repro.core.attribute_bounds.AttributeBoundsRelation.labeled_rows`)."""
        return list(self._pairs)

    def __len__(self) -> int:
        """Number of distinct fragments in the result."""
        return len(self.relation)

    def pretty(self, limit: int = 20) -> str:
        """Human-readable table: ranges as ``[lower, best, upper]``."""
        return self.relation.pretty(limit)


class _EncodedAttributeResult(AttributeQueryResult):
    """The result of a range-rewritten plan, read off its encoded answer in
    one validating pass; :attr:`relation` wraps that pass's fragments only
    when the bounds themselves are asked for."""

    def __init__(self, encoded: KRelation, names: Sequence[str],
                 widths: Sequence[int], elapsed: float = 0.0) -> None:
        self._encoded = encoded
        self._names = names
        self._widths = widths
        self.elapsed = elapsed

    @cached_property
    def schema(self) -> RelationSchema:
        return answer_schema(self._names, self._encoded.schema.name)

    @cached_property
    def _fragments(self) -> List[Fragment]:
        return list(read_attribute_fragments(
            self._encoded, self.schema.attribute_names, self._widths))

    @cached_property
    def relation(self) -> AttributeBoundsRelation:
        return AttributeBoundsRelation._from_fragments(
            self.schema, self._fragments, self._widths)

    @cached_property
    def _pairs(self) -> List[Tuple[Row, AttributeLabel]]:
        return label_fragments(self._fragments, [
            name for name, width
            in zip(self.schema.attribute_names, self._widths) if width == 3])


@dataclass
class PreparedPlan:
    """A compiled statement: everything the execute path needs, parse-free.

    For SELECTs, ``plan`` is the fully rewritten + optimized algebra tree
    (over the encoded database in ``"rewritten"`` mode, over the logical
    UA-database in ``"direct"`` mode).  For CREATE/INSERT, ``statement``
    keeps the parsed AST.  ``parameters`` lists the placeholders of the
    *original* statement (before optimization, which may prune some away),
    used for exact argument-count checking.
    """

    sql: str
    kind: str  # "select" | "create" | "insert" | "explain"
    mode: str  # "rewritten" | "direct" | "attribute"
    catalog_version: int
    plan: Optional[algebra.Operator] = None
    statement: Optional[Statement] = None
    parameters: Tuple[Parameter, ...] = ()
    #: Data version a CREATE or INSERT entry was compiled under; the cache
    #: treats a mismatch as a miss.  SELECT entries carry ``None``: no
    #: write changes their plan, so they are never checked against it.
    stats_version: Optional[int] = 0
    #: Logical result-column names, in output order; ``"attribute"``-mode
    #: plans need them to decode the canonical triple layout back into
    #: named ranges.
    output_names: Tuple[str, ...] = ()
    #: ``"attribute"``-mode plans: encoded positions per output column (3 for
    #: a range triple, 1 for a column carried once), parallel to the names.
    output_widths: Tuple[int, ...] = ()
    #: ``"attribute"``-mode plans: joins still matching on range overlap and
    #: output columns known collapsed (what EXPLAIN reports).
    range_joins: int = 0
    certain_columns: Tuple[str, ...] = ()
    #: ``"attribute"``-mode plans: the certain map of the native attribute
    #: tables the plan was rewritten under, its one data-dependent input;
    #: the session recompiles once the map moves.
    certain_map: Optional[Dict[str, FrozenSet[str]]] = None


class Connection:
    """A session against one UA-database: sources, cursors, prepared plans.

    Open one with :func:`repro.connect`.  ``engine`` / ``optimize`` follow
    the same precedence rules as the rest of the stack (explicit argument,
    then ``REPRO_ENGINE`` / ``REPRO_OPTIMIZE``, then defaults) and apply to
    every statement executed through the connection.

    ``store`` makes the session durable: a ``.uadb`` path (or an open
    :class:`~repro.api.store.UADBStore`) backs the encoded relations with an
    on-disk WAL-mode SQLite file, so registered sources, ``CREATE TABLE``
    and ``INSERT`` survive the process and a later connection reopens them
    (see :mod:`repro.api.store`).  Opening an existing store adopts its
    persisted semiring when ``semiring`` is left unset.

    ``annotation`` picks the default query semantics: ``"tuple"`` (the
    paper's UA labels) or ``"attribute"``, which routes ``query`` and
    cursor ``execute`` through the attribute-level range rewriter so
    results carry per-attribute ``[lower, best, upper]`` bounds (see
    :meth:`query_bounds`, which is available regardless of the default).
    """

    #: Compilation modes accepted by ``explain``/``prepare``/``statement_kind``.
    MODES = ("rewritten", "direct", "attribute")

    def __init__(self, semiring: Optional[Semiring] = None, name: str = "uadb",
                 engine: Optional[object] = None,
                 optimize: Optional[bool] = None,
                 cache_size: int = 128,
                 shared_cache: bool = False,
                 store: Optional[object] = None,
                 create: bool = True,
                 plan_cache: Optional[object] = None,
                 locking: Optional[object] = None,
                 annotation: str = "tuple") -> None:
        from repro.api.cache import PlanCache, SharedPlanCache, shared_plan_cache

        if annotation not in ("tuple", "attribute"):
            raise SessionError(
                f"unknown annotation level {annotation!r}; "
                f"expected 'tuple' or 'attribute'")
        #: Default annotation level for query paths that do not pick one.
        self.annotation = annotation
        self.name = name
        #: Execution engine used for every statement (None = default engine).
        self.engine = engine
        #: Optimizer toggle for every statement (None = default behaviour).
        self.optimize = optimize
        #: Read/write gate for statements; a no-op unless a pool injects a
        #: real readers-writer lock.
        self._locking = locking if locking is not None else _NoLocking()
        #: Persistent backing store, or None for a purely in-memory session.
        self.store: Optional[UADBStore] = None
        self._owns_store = False
        self._store_auto = False
        if store is None:
            store = self._auto_store_path(name, semiring)
        if isinstance(store, UADBStore):
            if semiring is not None and semiring.name != store.semiring.name:
                raise StoreError(
                    f"store {store.path!r} uses semiring {store.semiring.name}, "
                    f"not {semiring.name}"
                )
            self.store = store
        elif store is not None:
            self.store = UADBStore(store, semiring=semiring, create=create)
            self._owns_store = True
        if self.store is not None:
            semiring = self.store.semiring
        elif semiring is None:
            semiring = NATURAL
        self.semiring = semiring
        #: The session's one copy of every table, which every compiled mode
        #: runs against: a tuple-level table as its ``Enc`` encoding, a
        #: native attribute-level one in its triple layout.
        self.encoded = Database(semiring, f"{name}_enc", engine=engine)
        #: Marks the encoded database as store-backed: the SQLite execution
        #: engine then attaches to the store file instead of loading copies.
        self.encoded.store = self.store
        #: True when the plan cache (and catalog version counter) is shared
        #: with other connections -- either the process-wide registry cache
        #: (``shared_cache=True``) or a pool-injected one.
        self.shared_cache = bool(shared_cache) or plan_cache is not None
        #: Prepared-plan cache; inspect ``plan_cache.stats()`` for hit rates.
        if plan_cache is not None:
            self.plan_cache = plan_cache
        elif shared_cache:
            self.plan_cache = shared_plan_cache(name, semiring.name, cache_size)
        else:
            self.plan_cache = PlanCache(cache_size)
        self._local_catalog_version = 0
        self._local_stats_version = 0
        #: Table statistics behind EXPLAIN's row estimates; collected
        #: from the *encoded* relations (whose columns are a superset of
        #: the logical ones), persisted in the store's ``uadb_stats`` table
        #: when one is attached.
        self.stats = StatsCatalog(self.store)
        # Attached to every execution database so evaluate() can reach the
        # statistics through ``database.stats``.
        self.encoded.stats = self.stats
        #: Schema names of the native attribute-level tables in
        #: :attr:`encoded`; tuple-level paths see every other table.
        self._native: Set[str] = set()
        #: :attr:`uadb`'s relations, each decoded from its encoded table on
        #: demand and fingerprinted like a native certain map.
        self._decoded = UADatabase(semiring, name, engine=engine)
        self._decoded.database.stats = self.stats
        self._decoded_sources: Dict[str, Tuple[KRelation, int]] = {}
        #: Per native attribute table: the attributes no stored range leaves
        #: uncertain (what the range rewriter may compile by equality), and
        #: the table and mutation count they were read from (fingerprint).
        self._native_certain: Dict[str, FrozenSet[str]] = {}
        self._native_sources: Dict[str, Tuple[KRelation, int]] = {}
        self._closed = False
        if self.store is not None:
            self._load_from_store()

    @staticmethod
    def _slug(name: str) -> str:
        return re.sub(r"[^A-Za-z0-9_.-]+", "_", name) or "uadb"

    def _auto_store_path(self, name: str,
                         semiring: Optional[Semiring]) -> Optional[str]:
        """A fresh store path under ``REPRO_STORE_DIR`` (CI matrix axis).

        Returns None -- keeping the session in-memory -- when the variable
        is unset or the requested semiring has no on-disk encoding.
        """
        directory = os.environ.get(STORE_DIR_ENV_VAR)
        if not directory:
            return None
        from repro.db.engine.compiler import NotSupportedError, annotation_sql

        try:
            annotation_sql(semiring if semiring is not None else NATURAL)
        except NotSupportedError:
            return None
        os.makedirs(directory, exist_ok=True)
        self._store_auto = True
        return os.path.join(
            directory, f"{self._slug(name)}-{uuid.uuid4().hex}.uadb"
        )

    def _load_from_store(self) -> None:
        """Load every stored table (:meth:`_load_table`); nothing is decoded."""
        for name in self.store.relation_names():
            self._load_table(name)

    def _load_table(self, name: str) -> None:
        """(Re)load stored table ``name`` as the session's copy of it, for
        a reopen and a fleet refresh alike.  The ``#``-marked columns of the
        attribute layout cannot come from the SQL surface, so the check
        cannot misfire on a stored UA relation; persisted statistics are
        adopted when they still match the data."""
        encoded = self.store.load_relation(name)
        if is_attribute_encoded(encoded.schema):
            self._native.add(encoded.schema.name)
        self.encoded.add_relation(encoded, replace=True)
        self.stats.adopt(encoded)

    # -- source registration ------------------------------------------------------

    def _register(self, relation: UARelation) -> None:
        with self._locking.write():
            encoded = encode_relation(relation)
            self._check_new_name(relation.schema.name)
            # Persist first: if the store refuses the relation (unbindable
            # values), nothing was registered and the call is retryable.
            self._commit_registration(encoded)
            self.encoded.add_relation(encoded)

    def _check_new_name(self, name: str) -> None:
        """Fail *before* the store write, so a duplicate registration cannot
        clobber the persisted table of the existing relation."""
        if name in self.encoded:
            raise SchemaError(f"relation {name!r} already exists")

    def _commit_registration(self, encoded: KRelation) -> None:
        """The durable half of a registration, one store transaction: the
        table and its catalog entry, both version bumps and the collected
        statistics.  The caller adds the relation to its catalogs after."""
        def write(persist: bool) -> None:
            if persist:
                self.store.save(encoded)
            self._bump_catalog_version()
            self._bump_stats_version()
            self.stats.collect(encoded)  # last: see UADBStore.save_stats

        self._commit(encoded.schema.name, write)

    def _commit(self, name: str, write: Callable[[bool], _T]) -> Tuple[bool, _T]:
        """Run ``write(persist)`` -- the store writes of one registration or
        INSERT into relation ``name`` -- as one store transaction.

        Returns ``(persisted, write's result)``.  On any failure the
        transaction rolls back and the exception propagates before the
        caller touches memory; statistics a failed commit may already have
        folded are dropped, so the next EXPLAIN recollects that table.  A
        store that refuses the values (:class:`UnstorableRelationError`)
        is fatal unless it was auto-enabled (``REPRO_STORE_DIR``): then the
        write degrades to memory, its statistics and version still
        committed, and it will not survive the process.
        """
        if self.store is None:
            return False, write(False)
        try:
            return True, self._transaction(name, write, True)
        except UnstorableRelationError as error:
            if not self._store_auto:
                raise
            logger.warning("%s; it stays queryable in memory only and will "
                           "not survive this process", error)
        return False, self._transaction(name, write, False)

    def _transaction(self, name: str, write: Callable[[bool], _T],
                     persist: bool) -> _T:
        """``write(persist)`` inside one store transaction (see
        :meth:`_commit`)."""
        try:
            with self.store.transaction():
                return write(persist)
        except UnstorableRelationError:
            raise  # refused before anything moved
        except BaseException:
            self.stats.drop(name)
            raise

    def _bump_catalog_version(self) -> None:
        """Advance the catalog version (shared counter when sharing a cache).

        The persisted counter is bumped too, so a process that reopens the
        store starts from a strictly newer version than any it saw before.
        """
        if self.store is not None:
            self.store.bump_catalog_version()
        if self.shared_cache:
            self.plan_cache.bump_catalog_version()
        elif self.store is None:
            self._local_catalog_version += 1

    def _bump_stats_version(self) -> None:
        """Advance the data version (same precedence as the catalog's).

        Called after anything that changes the data -- INSERTs and
        registrations.  The fleet's result cache and its version poll go by
        it, and so do prepared CREATE and INSERT entries.  No SELECT plan
        depends on it: the store table, the statistics and the engine's
        mirror were each advanced by the write itself, so the next read, in
        either annotation mode, is a plan-cache hit and recollects nothing.
        """
        if self.store is not None:
            self.store.bump_stats_version()
        if self.shared_cache:
            self.plan_cache.bump_stats_version()
        elif self.store is None:
            self._local_stats_version += 1

    @property
    def stats_version(self) -> int:
        """The data version: a monotonic counter bumped by every write.

        Statistics are no longer a plan input; the result cache and the
        fleet's version poll read this counter.  Mirrors
        :attr:`catalog_version`'s precedence: the shared plan cache's
        counter when one is shared, else the store's persisted counter,
        else a connection-local one.
        """
        if self.shared_cache:
            return self.plan_cache.stats_version
        if self.store is not None:
            return self.store.stats_version
        return self._local_stats_version

    def register_ua_relation(self, relation: UARelation) -> None:
        """Register an already-built UA-relation."""
        self._check_open()
        self._register(relation)

    def register_attribute_relation(self,
                                    relation: AttributeBoundsRelation) -> None:
        """Register a native attribute-level relation (per-attribute ranges).

        The relation joins :attr:`encoded` and persists to the store (when
        one is attached) in its triple layout -- each logical attribute
        ``A`` as the columns ``A`` / ``A#lb`` / ``A#ub`` plus the trailing
        multiplicity triple -- so a later connection reopens it as an
        attribute relation.  Query it through :meth:`query_bounds` or any
        query path of an ``annotation="attribute"`` connection; tuple-level
        statements naming it raise :class:`SchemaError`.
        """
        self._check_open()
        with self._locking.write():
            name = relation.schema.name
            self._check_new_name(name)
            relation.check_invariant()
            encoded = encode_attribute_relation(relation, self.semiring)
            self._commit_registration(encoded)
            self.encoded.add_relation(encoded)
            self._native.add(name)

    def register_ua_database(self, uadb: UADatabase) -> None:
        """Register every relation of an existing UA-database."""
        self._check_open()
        for relation in uadb:
            self._register(relation)  # type: ignore[arg-type]

    def register_deterministic(self, relation: KRelation) -> None:
        """Register a deterministic relation: every tuple is certain."""
        self._check_open()
        self._register(UARelation.from_world_and_labeling(relation, relation))

    def register_tidb(self, tidb: TIDatabase) -> None:
        """Register a TI-DB source (best-guess world + c-correct labeling)."""
        self.register_ua_database(UADatabase.from_tidb(tidb, self.semiring))

    def register_xdb(self, xdb: XDatabase, world: Optional[Database] = None) -> None:
        """Register an x-DB / BI-DB source (best-guess world + c-correct labeling)."""
        self.register_ua_database(UADatabase.from_xdb(xdb, self.semiring, world=world))

    def register_ctable(self, ctable_db: CTableDatabase) -> None:
        """Register a C-table source (best-guess world + c-sound labeling)."""
        self.register_ua_database(UADatabase.from_ctable(ctable_db, self.semiring))

    def register_ordb(self, ordb) -> None:
        """Register an OR-database source (best-guess world + c-correct labeling)."""
        self.register_ua_database(UADatabase.from_ordb(ordb, self.semiring))

    # -- catalogs -----------------------------------------------------------------

    def _tables(self, native: bool = False) -> Iterator[KRelation]:
        """The tuple-level tables of :attr:`encoded` (with ``native``, the
        attribute-level ones instead), in creation order."""
        names = self._native
        return (encoded for encoded in self.encoded
                if (encoded.schema.name in names) is native)

    def _tuple_table(self, name: str) -> KRelation:
        """The ``Enc`` table of tuple-level relation ``name``.  Any other
        name raises a :class:`SchemaError` naming it -- for a native
        attribute table, one that points at attribute mode."""
        if name not in self.encoded:
            raise SchemaError(f"unknown relation {name!r}")
        encoded = self.encoded.relation(name)
        if encoded.schema.name in self._native:
            raise SchemaError(
                f"relation {name!r} is attribute-level; tuple-level "
                f"statements cannot use it -- query it with query_bounds() "
                f"or on an annotation=\"attribute\" connection")
        return encoded

    @property
    def uadb(self) -> UADatabase:
        """The tuple-level tables as a :class:`UADatabase`: a derived,
        read-only view of :attr:`encoded`, the session's one copy of them.

        Each relation is decoded on first read and kept until its encoded
        table's fingerprint moves.  Write through SQL or :attr:`encoded`:
        a change made to the view reaches neither the store nor any
        compiled mode, and is dropped when its table next changes.
        """
        view = self._decoded
        for encoded in self._tables():
            name = encoded.schema.name
            if not _derived_from(self._decoded_sources, name, encoded):
                view.add_relation(decode_relation(encoded, view.ua_semiring),
                                  replace=True)
                self._decoded_sources[name] = (encoded, encoded._version)
        return view

    @property
    def catalog(self) -> DatabaseSchema:
        """Schema of the logical (un-encoded) UA relations."""
        catalog = DatabaseSchema()
        for encoded in self._tables():
            catalog.add(decoded_schema(encoded.schema))
        return catalog

    @property
    def encoded_catalog(self) -> DatabaseSchema:
        """Schema of the UA relations' encoded tables (with the ``C``
        column)."""
        catalog = DatabaseSchema()
        for encoded in self._tables():
            catalog.add(encoded.schema)
        return catalog

    @property
    def attribute_catalog(self) -> DatabaseSchema:
        """Logical schema of every relation visible to attribute-mode queries.

        Native attribute relations come first, then the tuple-level UA
        relations -- which attribute-mode queries read straight from their
        ``Enc`` tables as the degenerate case (collapsed ranges,
        multiplicity ``(certain, det, det)``), so bounds queries run
        against *every* registered source.
        """
        catalog = DatabaseSchema()
        for encoded in self._tables(native=True):
            catalog.add(logical_schema_from_encoded(encoded.schema))
        for schema in self.catalog:
            catalog.add(schema)
        return catalog

    def _certain_attributes(self) -> Dict[str, FrozenSet[str]]:
        """Per native attribute table, the attributes no stored range leaves
        uncertain, for the range rewriter.  Each table's set is re-read only
        when its fingerprint moves; a tuple-level table needs none, its
        ranges are collapsed by layout.  Callers hold the read lock."""
        certain = self._native_certain
        for encoded in self._tables(native=True):
            name = encoded.schema.name
            if not _derived_from(self._native_sources, name, encoded):
                certain[name] = \
                    decode_attribute_relation(encoded).certain_attributes()
                self._native_sources[name] = (encoded, encoded._version)
        return certain

    def tables(self) -> List[Dict[str, Any]]:
        """Catalog metadata for every registered relation, in creation order.

        One dict per relation: ``name``, ``columns`` (dicts with ``name``
        and lower-case ``type``), and ``row_count`` -- the number of
        distinct best-guess tuples (of fragments for attribute relations,
        which also carry ``"annotation": "attribute"``).  Reads the encoded
        tables under the session's read lock, so pooled callers see a
        consistent catalog.  Serves ``GET /tables`` on the HTTP server.
        """
        self._check_open()

        def listing(schema: RelationSchema, row_count: int) -> Dict[str, Any]:
            return {"name": schema.name,
                    "columns": [{"name": attribute.name,
                                 "type": attribute.data_type.name.lower()}
                                for attribute in schema.attributes],
                    "row_count": row_count}

        with self._locking.read():
            listed = [listing(decoded_schema(encoded.schema),
                              len({row[:-1] for row in encoded}))
                      for encoded in self._tables()]
            listed.extend(
                dict(listing(logical_schema_from_encoded(encoded.schema),
                             len(encoded)), annotation="attribute")
                for encoded in self._tables(native=True))
            return listed

    @property
    def catalog_version(self) -> int:
        """Monotonic counter bumped by every registration / CREATE TABLE.

        With a shared plan cache (``shared_cache=True`` or a pool) this is
        the *shared* counter: any sharing connection's registration advances
        it, invalidating cached plans for the whole group.  A store-backed
        connection without a shared cache reads the counter persisted in the
        store file instead.
        """
        if self.shared_cache:
            return self.plan_cache.catalog_version
        if self.store is not None:
            return self.store.catalog_version
        return self._local_catalog_version

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close the connection; further statements raise :class:`SessionError`."""
        self._closed = True
        if not self.shared_cache:
            # A shared cache outlives any one connection: other sessions may
            # still be serving warm hits from it.
            self.plan_cache.clear()
        if self.store is not None and self._owns_store:
            self.store.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; statements raise from then on."""
        return self._closed

    def commit(self) -> None:
        """Flush the persistent store (writes commit eagerly; DB-API shape)."""
        self._check_open()
        if self.store is not None:
            self.store.commit()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("connection is closed")

    # -- statement compilation ----------------------------------------------------

    def _optimize_resolved(self) -> bool:
        return _optimize_default() if self.optimize is None else bool(self.optimize)

    def _entry(self, sql: str, mode: str) -> PreparedPlan:
        """The cached prepared plan for ``sql``; compiles on a miss.

        A SELECT plan depends on the catalog alone, and in ``"attribute"``
        mode on the certain map of the native attribute tables, so a write
        leaves it cached: the next read is one probe.

        Compilation reads the catalogs, so it runs under the read lock: a
        pooled connection can never compile against catalogs that a
        concurrent registration (which holds the write lock while it
        commits and adds the table) has half-updated.
        """
        self._check_open()
        key = (sql, mode, self._optimize_resolved())
        with self._locking.read():
            entry = self.plan_cache.get(key, self.catalog_version,
                                        self.stats_version)
            if entry is not None and entry.certain_map is not None \
                    and entry.certain_map != self._certain_attributes():
                entry = None  # an out-of-band mutation moved the map
            if entry is None:
                entry = self._compile(sql, mode)
                self.plan_cache.put(key, entry)
        return entry

    def _compile(self, sql: str, mode: str) -> PreparedPlan:
        statement = parse_statement(sql)
        return self._compile_statement(sql, statement, mode)

    def _compile_statement(self, sql: str, statement: Statement,
                           mode: str) -> PreparedPlan:
        if isinstance(statement, ExplainStatement):
            inner = self._compile_statement(sql, statement.statement, mode)
            if inner.kind != "select":
                raise SessionError("EXPLAIN supports SELECT statements only")
            # EXPLAIN never executes, so it requires no parameter bindings
            # even when the wrapped statement has placeholders.
            return replace(inner, kind="explain", statement=statement,
                           parameters=())
        if isinstance(statement, CreateTableStatement):
            return PreparedPlan(sql, "create", mode, self.catalog_version,
                                statement=statement,
                                stats_version=self.stats_version)
        if isinstance(statement, InsertStatement):
            parameters = [parameter
                          for row in statement.rows
                          for expression in row
                          for parameter in expression_parameters(expression)]
            return PreparedPlan(sql, "insert", mode, self.catalog_version,
                                statement=statement,
                                parameters=tuple(parameters),
                                stats_version=self.stats_version)
        described: Dict[str, Any] = {}
        if mode == "attribute":
            logical = translate(statement, self.attribute_catalog)
            optimize_catalog = self.encoded.schema
            certain_map = dict(self._certain_attributes())
            rewrite = rewrite_attribute_plan(logical, optimize_catalog,
                                             certain_map)
            plan = rewrite.plan
            described = {"output_names": rewrite.columns,
                         "output_widths": rewrite.widths,
                         "range_joins": rewrite.range_joins,
                         "certain_columns": rewrite.certain_columns,
                         "certain_map": certain_map}
        elif mode in ("rewritten", "direct"):
            catalog = self.catalog
            logical = translate(statement, catalog)
            self._check_tuple_level(logical)
            if mode == "rewritten":
                optimize_catalog = self.encoded_catalog
                plan = rewrite_plan(logical, optimize_catalog)
            else:
                optimize_catalog = catalog
                plan = logical
        else:
            raise SessionError(f"unknown compilation mode {mode!r}")
        parameters = plan_parameters(logical)
        if self._optimize_resolved():
            # Rule passes only (folding, pushdown, pruning): joins keep their
            # FROM order, which SQLite's planner reorders itself.
            plan = optimize_plan(plan, optimize_catalog)
        return PreparedPlan(sql, "select", mode, self.catalog_version,
                            plan=plan, parameters=tuple(parameters),
                            stats_version=None, **described)

    def _check_tuple_level(self, plan: algebra.Operator) -> None:
        """Fail at compile time, with :meth:`_tuple_table`'s error, when
        ``plan`` reads a relation that is not a tuple-level table."""
        if isinstance(plan, algebra.RelationRef):
            self._tuple_table(plan.name)
        for child in plan.children():
            self._check_tuple_level(child)

    # -- statement execution ------------------------------------------------------

    def _execute_entry(self, entry: PreparedPlan, params: Params = None,
                       ) -> Union["UAQueryResult", "AttributeQueryResult", int]:
        """Run a prepared plan: a :class:`UAQueryResult` (or, in
        ``"attribute"`` mode, an :class:`AttributeQueryResult`) for SELECTs,
        a row count for INSERTs, 0 for CREATE TABLE."""
        self._check_open()
        if entry.kind == "explain":
            # EXPLAIN never executes the wrapped statement, so parameter
            # bindings (if any) are accepted but ignored.
            return self._run_explain(entry)
        check_bindings(entry.parameters, params, exact=True)
        if entry.kind == "create":
            self._run_create(entry.statement)  # type: ignore[arg-type]
            return 0
        if entry.kind == "insert":
            return self._run_insert(entry.statement, params)  # type: ignore[arg-type]
        started = time.perf_counter()
        with self._locking.read():
            if entry.mode == "attribute":
                encoded = self._evaluate_encoded(entry.plan, False, params)
                return _EncodedAttributeResult(
                    encoded, entry.output_names, entry.output_widths,
                    time.perf_counter() - started)
            if entry.mode == "rewritten":
                encoded = self._evaluate_encoded(entry.plan, False, params)
                return _EncodedResult(encoded, time.perf_counter() - started)
            view = self.uadb
            result = evaluate(entry.plan, view.database, engine=self.engine,
                              optimize=False, params=params)
            relation = UARelation._from_validated(
                result.schema, view.ua_semiring, dict(result.items())
            )
        elapsed = time.perf_counter() - started
        return UAQueryResult(relation, elapsed)

    def _evaluate_encoded(self, plan: algebra.Operator, optimize: bool,
                          params: Params) -> KRelation:
        """Evaluate a rewritten plan over :attr:`encoded` (the caller holds
        the read lock) into an answer that a result may label and decode
        after the lock is gone."""
        answer = evaluate(plan, self.encoded, engine=self.engine,
                          optimize=optimize, params=params)
        # A bare table reference evaluates to the stored relation itself (row
        # engine); the result must keep a snapshot, not the live table.
        if any(answer is stored for stored in self.encoded):
            answer = answer.copy()
        return answer

    def _run_create(self, statement: CreateTableStatement) -> None:
        attributes = []
        for column in statement.columns:
            type_name = column.type_name or "any"
            if type_name not in SQL_TYPES:
                raise SchemaError(
                    f"unknown SQL type {type_name!r} for column {column.name!r}; "
                    f"supported: {', '.join(sorted(SQL_TYPES))}"
                )
            attributes.append(Attribute(column.name, SQL_TYPES[type_name]))
        self._create_table(RelationSchema(statement.name, attributes))

    def _create_table(self, schema: RelationSchema) -> None:
        """Register an empty tuple-level table (``CREATE TABLE``, and the
        bulk loader's table creation)."""
        self._check_open()
        self._register(UARelation(schema, self._decoded.ua_semiring))

    def _run_insert(self, statement: InsertStatement, params: Params) -> int:
        rows = self._bind_insert_rows(statement, params)
        return self._apply_insert(statement.table, rows)

    def _bind_insert_rows(self, statement: InsertStatement,
                          params: Params) -> List[Row]:
        """Bind one parameter set into the statement's validated row tuples."""
        schema = decoded_schema(self._tuple_table(statement.table).schema)
        for name in statement.columns:
            schema.index_of(name)  # unknown column names fail fast
        binder = ParameterBinder(params)
        rows: List[Row] = []
        for row_expressions in statement.rows:
            values = [binder.bind(expression).evaluate(_EMPTY_ENV)
                      for expression in row_expressions]
            if statement.columns:
                by_name = {name.lower(): value
                           for name, value in zip(statement.columns, values)}
                row = tuple(by_name.get(attribute.name.lower())
                            for attribute in schema.attributes)
            else:
                row = tuple(values)
            # Validate the whole statement up front so a bad row leaves
            # neither the in-memory relations nor the store half-updated.
            rows.append(schema.validate_row(row))
        return rows

    def _run_insert_many(self, entry: PreparedPlan,
                         seq_of_params: Iterable[Params]) -> int:
        """Apply a whole ``executemany`` batch as one insert transaction.

        Every parameter set is bound and validated up front, then the batch
        lands through a single :meth:`_apply_insert`: one store transaction,
        one incremental statistics fold, one data-version bump -- instead
        of one of each per parameter set, which would invalidate every
        sibling's result cache N times for an N-row batch.
        """
        statement: InsertStatement = entry.statement  # type: ignore[assignment]
        rows: List[Row] = []
        for params in seq_of_params:
            check_bindings(entry.parameters, params, exact=True)
            rows.extend(self._bind_insert_rows(statement, params))
        if not rows:
            return 0
        return self._apply_insert(statement.table, rows)

    def _apply_insert(self, table: str, rows: List[Row],
                      uncertain: Optional[List[bool]] = None) -> int:
        """Insert already-validated ``rows`` as one store transaction.

        The core write primitive shared by SQL ``INSERT``, ``executemany``
        batches and the bulk-ingest loader (:mod:`repro.ingest`), in this
        order: the tuples new to the relation are decided before anything
        moves; the rows, the folded statistics and the advanced data
        version are written and committed as **one** WAL transaction
        however many rows the batch holds; only then does memory change --
        each row is added once, to the encoded relation (the session's one
        copy of the table, which both annotation modes read), then the
        store and statistics fingerprints and the engine's mirror advance.
        So a refused or failed write (unbindable values, a failed commit)
        raises with no state change anywhere, and a crash leaves rows,
        statistics and version on disk together or not at all.

        ``uncertain`` optionally flags rows (parallel list) that should be
        loaded as *uncertain* facts: they join the best-guess world with the
        certainty marker ``C = 0`` -- the encoding the paper's imputation
        workloads attach at load time.  Without it every row is a
        deterministic fact, certain in every world.
        """
        if uncertain is None:
            encoded_rows = [row + (1,) for row in rows]
        else:
            encoded_rows = [row + (0 if flag else 1,)
                            for row, flag in zip(rows, uncertain)]
        one = self.semiring.one
        with self._locking.write():
            # Resolved under the write lock: a fleet refresh (which also
            # holds this lock) may swap the catalog's relation objects for
            # freshly loaded copies between two batches of one bulk load.
            encoded_relation = self._tuple_table(table)
            # The writer advances every mirror of the table that described
            # it until now -- store table, statistics, engine mirror -- by
            # the rows it adds; one already stale
            # (out-of-band mutation) is left for its own repair.
            new_tuples: Optional[Set[Row]] = None
            if self.stats.fresh(encoded_relation):
                # The statistics count distinct tuples: fold only those the
                # relation does not hold yet, a batch's duplicates once (a
                # set: the fold merges in any order).
                new_tuples = {row for row in encoded_rows
                              if row not in encoded_relation}

            def write(persist: bool) -> bool:
                if persist:
                    if not self.store.fresh(encoded_relation):
                        # Out-of-band mutation: one full rewrite restores
                        # coherence before the append.
                        self.store.save(encoded_relation)
                    self.store.append(encoded_relation,
                                      ((row, one) for row in encoded_rows))
                # The data version other readers go by (the fleet's result
                # cache and version poll, prepared INSERTs).
                self._bump_stats_version()
                # Last: a failed statistics write is undone alone.
                return (new_tuples is not None
                        and self.stats.update_rows(table, new_tuples))

            persisted, folded = self._commit(table, write)
            before = encoded_relation._version
            for encoded_row in encoded_rows:
                # The batch was validated above; skip per-add re-validation
                # on the hot path.
                encoded_relation.add_validated(encoded_row, one)
            if persisted:
                self.store.mark_synced(encoded_relation)
            if folded:
                self.stats.mark_current(encoded_relation)
            get_engine(self.engine).appended(
                self.encoded, encoded_relation, before, encoded_rows)
        return len(rows)

    # -- EXPLAIN -------------------------------------------------------------------

    _EXPLAIN_SCHEMA = RelationSchema("explain", [
        Attribute("step", DataType.INTEGER),
        Attribute("detail", DataType.STRING),
    ])

    def _explain_report(self, entry: PreparedPlan) -> Dict[str, Any]:
        """The structured EXPLAIN payload for an already-optimized plan.

        The estimates are the session's only read of its statistics, so
        this is where any relation mutated behind the session's back is
        recollected; the session's own writes left theirs current."""
        from repro.db import cost

        self.stats.refresh(self.encoded)
        plan_lines = [
            {"depth": depth, "operator": describe, "estimated_rows": rows}
            for depth, describe, rows
            in cost.explain_rows(entry.plan, self.stats)
        ]
        report = {
            "mode": entry.mode,
            "engine": get_engine(self.engine).name,
            "estimated_rows": plan_lines[0]["estimated_rows"] if plan_lines else 0.0,
            "plan": plan_lines,
        }
        if entry.mode == "attribute":
            report["range_joins"] = entry.range_joins
            report["certain_columns"] = list(entry.certain_columns)
            report["result_width"] = {
                "fetched": sum(entry.output_widths) + 3,
                "canonical": 3 * len(entry.output_widths) + 3}
        return report

    def _run_explain(self, entry: PreparedPlan) -> UAQueryResult:
        """Materialize an EXPLAIN report as a (step, detail) relation."""
        started = time.perf_counter()
        with self._locking.read():
            report = self._explain_report(entry)
        lines: List[str] = []
        for line in report["plan"]:
            indent = "  " * line["depth"]
            lines.append(f"{indent}{line['operator']}  "
                         f"[rows~{line['estimated_rows']:.0f}]")
        lines.append(f"engine: {report['engine']}")
        if entry.mode == "attribute":
            lines.append(f"range joins: {report['range_joins']}")
            lines.append("certain columns: "
                         + ", ".join(report["certain_columns"]))
            lines.append("result width: {fetched} of {canonical}".format(
                **report["result_width"]))
        ua_semiring = self._decoded.ua_semiring
        certain_one = ua_semiring.certain_annotation(self.semiring.one)
        # Number the lines so two identical plan lines stay distinct rows
        # under set semantics.
        items = {(index, line): certain_one
                 for index, line in enumerate(lines, start=1)}
        relation = UARelation._from_validated(
            self._EXPLAIN_SCHEMA, ua_semiring, items)
        return UAQueryResult(relation, time.perf_counter() - started)

    def explain(self, sql: str, mode: str = "rewritten") -> Dict[str, Any]:
        """Describe how ``sql`` would run, without executing it.

        Compiles (and caches) the statement exactly as :meth:`query` would,
        then returns a dictionary with the optimized ``plan`` (one entry per
        operator: ``depth``, ``operator``, ``estimated_rows``), the
        ``estimated_rows`` of the whole query and the ``engine`` it would
        dispatch to.  The estimates read the session's statistics, which
        are recollected here, and only here, for a table mutated behind the
        session's back; the plan itself depends on none.  In
        ``"attribute"`` mode it also reports
        ``range_joins`` -- how many joins still match on range overlap, which
        no engine can hash or index, because a key column holds an uncertain
        fragment -- ``certain_columns``, the result columns known collapsed
        on every row, and ``result_width``: encoded columns ``fetched`` per
        fragment beside the ``canonical`` ``3n + 3``, two fewer for each
        column carried once.  The SQL form ``EXPLAIN SELECT ...`` returns
        the same information as a ``(step, detail)`` relation.
        """
        if mode not in self.MODES:
            raise SessionError(f"unknown compilation mode {mode!r}")
        entry = self._entry(sql, mode)
        if entry.kind not in ("select", "explain"):
            raise SessionError("explain() expects a SELECT statement")
        with self._locking.read():
            report = self._explain_report(entry)
        report["sql"] = sql
        return report

    # -- DB-API-style entry points ------------------------------------------------

    def cursor(self) -> "Cursor":
        """A new cursor over this connection."""
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, params: Params = None) -> "Cursor":
        """Shortcut: create a cursor and execute ``sql`` on it."""
        return self.cursor().execute(sql, params)

    def executemany(self, sql: str, seq_of_params: Iterable[Params]) -> "Cursor":
        """Shortcut: create a cursor and run ``sql`` once per parameter set."""
        return self.cursor().executemany(sql, seq_of_params)

    def load(self, table: str, source: object, **options: Any):
        """Bulk-load rows into ``table``, COPY-style; returns a load report.

        ``source`` is a file path (CSV / NDJSON / Parquet, by extension), an
        open :class:`~repro.ingest.RowSource`, or any iterable of rows
        (sequences or column-name mappings).  Rows stream in batched
        chunks -- one store transaction, one statistics fold and one
        data-version bump per *chunk*, never per row -- and a missing
        table is created from the inferred (or declared) schema.  Keyword
        options (``chunk_size``, ``create``, ``columns``, ``uncertainty``,
        ``format``, ...) are documented on :func:`repro.ingest.load`, which
        this delegates to::

            report = conn.load("readings", "data/readings.ndjson",
                               uncertainty="impute")
            print(report.rows_loaded, report.rows_per_second)
        """
        from repro.ingest import load as ingest_load

        return ingest_load(self, table, source, **options)

    def prepare(self, sql: str, mode: str = "rewritten") -> "PreparedStatement":
        """Compile ``sql`` now and return a reusable prepared statement."""
        return PreparedStatement(self, sql, mode)

    def statement_kind(self, sql: str, mode: str = "rewritten") -> str:
        """Classify ``sql`` without running it: ``"select"``, ``"insert"``,
        ``"create"`` or ``"explain"``.

        Compiles (and caches) the statement, so syntax errors and unknown
        relations surface here exactly as they would on execution; the HTTP
        server uses this to route statements to the right endpoint.  Pass
        the ``mode`` the statement will later run under so the compiled
        plan lands in the cache entry that execution reuses.
        """
        if mode not in self.MODES:
            raise SessionError(f"unknown compilation mode {mode!r}")
        return self._entry(sql, mode).kind

    def backend_sql(self, sql: str, mode: str = "rewritten") -> Optional[str]:
        """The native SQL a compiling engine would run for ``sql``.

        For the ``"sqlite"`` engine this is the statement (one CTE per plan
        operator) executed against the SQLite copy (or store file) of
        :attr:`encoded`, in attribute mode too, where a tuple-level table
        is read straight from its ``Enc`` columns; it is served
        from the same prepared-plan and compiled-SQL caches as execution, so
        inspecting it costs one cache hit on the warm path.  Returns None
        when the resolved engine interprets plans directly (row/columnar) or
        when the plan falls outside the compilable fragment (the engine
        would fall back for it).
        """
        from repro.db.engine.compiler import NotSupportedError

        entry = self._entry(sql, mode)
        if entry.kind != "select":
            raise SessionError("backend_sql() expects a SELECT statement")
        engine = get_engine(self.engine)
        compiled_sql = getattr(engine, "compiled_sql", None)
        if compiled_sql is None:
            return None
        database = self.uadb.database if mode == "direct" else self.encoded
        try:
            return compiled_sql(entry.plan, database)
        except NotSupportedError:
            return None

    # -- query paths (result-object API) ------------------------------------------

    def _default_mode(self) -> str:
        """The compilation mode implied by the connection's annotation level."""
        return "attribute" if self.annotation == "attribute" else "rewritten"

    def query(self, sql: str, params: Params = None) -> UAQueryResult:
        """Answer a SQL query under the connection's annotation level.

        Tuple-level connections (the default) run the Figure 8/9 rewriting
        pipeline and return a :class:`UAQueryResult`;
        ``annotation="attribute"`` connections run the range rewriter and
        return an :class:`AttributeQueryResult` instead.
        """
        started = time.perf_counter()
        entry = self._entry(sql, self._default_mode())
        if entry.kind not in ("select", "explain"):
            raise SessionError("query() expects a SELECT statement")
        result = self._execute_entry(entry, params)
        result.elapsed = time.perf_counter() - started  # type: ignore[union-attr]
        return result  # type: ignore[return-value]

    def query_bounds(self, sql: str, params: Params = None) -> AttributeQueryResult:
        """Answer a SQL query with attribute-level ``[lower, best, upper]`` bounds.

        Compiles through the range rewriter
        (:func:`repro.core.attribute_rewriter.rewrite_attribute_plan`) and
        executes over :attr:`encoded`: natively registered attribute
        relations in their triple layout, and every tuple-level relation
        read from its ``Enc`` table as the degenerate case, so any
        registered source can be queried for bounds.  Works on every
        connection regardless of its default
        ``annotation`` level; the supported fragment is the positive
        algebra plus ``DISTINCT`` and COUNT/SUM/MIN/MAX aggregation
        (:class:`~repro.core.attribute_rewriter.AttributeRewriteError`
        otherwise).
        """
        started = time.perf_counter()
        entry = self._entry(sql, "attribute")
        if entry.kind not in ("select", "explain"):
            raise SessionError("query_bounds() expects a SELECT statement")
        result = self._execute_entry(entry, params)
        result.elapsed = time.perf_counter() - started  # type: ignore[union-attr]
        return result  # type: ignore[return-value]

    def query_direct(self, sql: str, params: Params = None) -> UAQueryResult:
        """Answer a SQL query by evaluating K_UA semantics directly (no rewriting).

        Used to validate the rewriting (Theorem 7): both paths must produce
        the same annotated result.
        """
        started = time.perf_counter()
        entry = self._entry(sql, "direct")
        if entry.kind not in ("select", "explain"):
            raise SessionError("query_direct() expects a SELECT statement")
        result = self._execute_entry(entry, params)
        result.elapsed = time.perf_counter() - started  # type: ignore[union-attr]
        return result  # type: ignore[return-value]

    def query_plan(self, plan: algebra.Operator,
                   params: Params = None) -> UAQueryResult:
        """Answer an already-built logical plan with UA semantics (uncached)."""
        self._check_open()
        started = time.perf_counter()
        with self._locking.read():
            rewritten = rewrite_plan(plan, self.encoded_catalog)
            encoded = self._evaluate_encoded(rewritten, self.optimize, params)
        return _EncodedResult(encoded, time.perf_counter() - started)

    def query_deterministic(self, sql: str,
                            params: Params = None) -> Tuple[KRelation, float]:
        """Answer a SQL query over the best-guess world only (BGQP baseline).

        Returns the plain relation and the elapsed wall-clock time; used to
        measure the overhead of UA-DBs relative to deterministic processing.
        Deliberately uncached (it re-extracts the best-guess world), matching
        the baseline it exists to measure.
        """
        self._check_open()
        with self._locking.read():
            best_guess = self.uadb.best_guess_database()
            started = time.perf_counter()
            plan = parse_query(sql, best_guess.schema)
            result = evaluate(plan, best_guess, engine=self.engine,
                              optimize=self.optimize, params=params)
            elapsed = time.perf_counter() - started
        return result, elapsed

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self.encoded)} relations"
        backing = f" store={self.store.path!r}" if self.store is not None else ""
        return f"<Connection {self.name!r} [{self.semiring.name}] {state}{backing}>"


class Cursor:
    """A DB-API-style cursor: execute statements, fetch (labeled) rows.

    ``fetchone`` / ``fetchmany`` / ``fetchall`` return plain best-guess rows;
    the UA-specific view lives in :meth:`certain_rows`, :meth:`labeled_rows`
    and the full :attr:`result`.
    """

    arraysize = 1

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self._result: Optional[Union[UAQueryResult, AttributeQueryResult]] = None
        self._rows: List[Row] = []
        self._cursor_index = 0
        self._rowcount = -1
        self._description: Optional[List[Tuple]] = None
        self._closed = False

    # -- execution ----------------------------------------------------------------

    def execute(self, sql: str, params: Params = None) -> "Cursor":
        """Execute a statement; returns the cursor itself (chainable).

        On an ``annotation="attribute"`` connection SELECTs run through
        the range rewriter: fetches return best-guess rows as usual while
        :attr:`result` and :meth:`labeled_rows` expose the per-attribute
        bounds.
        """
        self._check_open()
        entry = self.connection._entry(sql, self.connection._default_mode())
        outcome = self.connection._execute_entry(entry, params)
        if isinstance(outcome, (UAQueryResult, AttributeQueryResult)):
            self._install_result(outcome)
        else:
            self._result = None
            self._rows = []
            self._cursor_index = 0
            self._description = None
            self._rowcount = int(outcome)
        return self

    def executemany(self, sql: str, seq_of_params: Iterable[Params]) -> "Cursor":
        """Execute a DML statement once per parameter set (compiled once).

        Per DB-API, ``executemany`` is for data modification; use
        :meth:`execute` (or a :class:`PreparedStatement`) for queries.

        INSERT batches apply as **one** transaction: a single store append,
        statistics fold and data-version bump for the whole call -- not
        one per parameter set, which would invalidate every sibling
        worker's result cache N times.
        :attr:`rowcount` reports the total rows inserted across the batch.
        """
        self._check_open()
        entry = self.connection._entry(sql, self.connection._default_mode())
        if entry.kind == "select":
            raise SessionError(
                "executemany() is for INSERT-style statements; use execute() "
                "or Connection.prepare() for queries"
            )
        if entry.kind == "insert":
            total = self.connection._run_insert_many(entry, seq_of_params)
        else:
            total = 0
            for params in seq_of_params:
                outcome = self.connection._execute_entry(entry, params)
                total += int(outcome)  # type: ignore[arg-type]
        self._result = None
        self._rows = []
        self._cursor_index = 0
        self._description = None
        self._rowcount = total
        return self

    def _install_result(self,
                        result: Union[UAQueryResult, AttributeQueryResult]) -> None:
        self._result = result
        self._rows = result.rows()
        self._cursor_index = 0
        self._rowcount = len(self._rows)
        self._description = [
            (attribute.name, attribute.data_type, None, None, None, None, None)
            for attribute in result.schema.attributes
        ]

    # -- fetching -----------------------------------------------------------------

    @property
    def description(self) -> Optional[List[Tuple]]:
        """Per-column 7-tuples ``(name, type_code, ...)``; None for non-queries."""
        return self._description

    @property
    def rowcount(self) -> int:
        """Rows returned by the last query / affected by the last DML (-1 if none)."""
        return self._rowcount

    @property
    def result(self) -> Union[UAQueryResult, AttributeQueryResult]:
        """The full annotated result of the last query (an
        :class:`AttributeQueryResult` on attribute-level connections)."""
        if self._result is None:
            raise SessionError("no query result; execute a SELECT first")
        return self._result

    def fetchone(self) -> Optional[Row]:
        """The next row, or None when exhausted."""
        self._check_open()
        if self._cursor_index >= len(self._rows):
            return None
        row = self._rows[self._cursor_index]
        self._cursor_index += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> List[Row]:
        """The next ``size`` rows (default :attr:`arraysize`)."""
        self._check_open()
        size = self.arraysize if size is None else size
        rows = self._rows[self._cursor_index:self._cursor_index + size]
        self._cursor_index += len(rows)
        return rows

    def fetchall(self) -> List[Row]:
        """All remaining rows."""
        self._check_open()
        rows = self._rows[self._cursor_index:]
        self._cursor_index = len(self._rows)
        return rows

    def __iter__(self) -> Iterator[Row]:
        return self

    def __next__(self) -> Row:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- UA-specific views ---------------------------------------------------------

    def certain_rows(self) -> List[Row]:
        """Rows of the last query labeled certain."""
        return self.result.certain_rows()

    def uncertain_rows(self) -> List[Row]:
        """Rows of the last query not labeled certain."""
        return self.result.uncertain_rows()

    def labeled_rows(self) -> List[Tuple[Row, Any]]:
        """Sorted ``(row, label)`` pairs of the last query: a certainty
        boolean on tuple-level connections, an
        :class:`~repro.core.attribute_bounds.AttributeLabel` exposing
        per-attribute certainty on attribute-level ones."""
        return self.result.labeled_rows()

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release the cursor's result; further fetches raise."""
        self._closed = True
        self._result = None
        self._rows = []

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("cursor is closed")
        self.connection._check_open()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PreparedStatement:
    """A statement compiled once, executable many times with fresh bindings.

    The hot path of the session API: ``execute`` re-validates nothing but the
    catalog version (a cache lookup), binds the parameters into the cached
    plan and runs the engine.  If the catalog changed since compilation the
    statement transparently recompiles.
    """

    def __init__(self, connection: Connection, sql: str,
                 mode: str = "rewritten") -> None:
        if mode not in Connection.MODES:
            raise SessionError(f"unknown compilation mode {mode!r}")
        self.connection = connection
        self.sql = sql
        self.mode = mode
        # Compile eagerly so unknown relations / syntax errors surface here.
        self._entry = connection._entry(sql, mode)

    @property
    def kind(self) -> str:
        """``"select"``, ``"insert"`` or ``"create"``."""
        return self._entry.kind

    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        """The statement's placeholders, in source order."""
        return self._entry.parameters

    def execute(self, params: Params = None) -> Union[UAQueryResult, int]:
        """Run with ``params``: a result for SELECTs, a row count for DML."""
        started = time.perf_counter()
        self._entry = self.connection._entry(self.sql, self.mode)
        outcome = self.connection._execute_entry(self._entry, params)
        if isinstance(outcome, UAQueryResult):
            outcome.elapsed = time.perf_counter() - started
        return outcome

    def executemany(self, seq_of_params: Iterable[Params]) -> Union[List[UAQueryResult], int]:
        """Run once per parameter set: results for SELECTs, total count for DML.

        INSERT batches land as one transaction with one data-version
        bump for the whole call (see :meth:`Cursor.executemany`).
        """
        if self._entry.kind == "select":
            return [self.execute(params) for params in seq_of_params]  # type: ignore[misc]
        self._entry = self.connection._entry(self.sql, self.mode)
        if self._entry.kind == "insert":
            return self.connection._run_insert_many(self._entry, seq_of_params)
        total = 0
        for params in seq_of_params:
            total += self.execute(params)  # type: ignore[operator]
        return total

    def __repr__(self) -> str:
        return f"<PreparedStatement {self.kind} mode={self.mode!r} {self.sql!r}>"


def connect(*args: Union[Semiring, str, os.PathLike, UADBStore],
            semiring: Optional[Semiring] = None,
            name: str = "uadb",
            engine: Optional[object] = None,
            optimize: Optional[bool] = None,
            cache_size: int = 128,
            shared_cache: bool = False,
            store: Optional[object] = None,
            create: bool = True,
            annotation: str = "tuple") -> Connection:
    """Open a UA-DB session.

    Example::

        import repro

        conn = repro.connect(engine="sqlite")
        conn.execute("CREATE TABLE t (a INT, b TEXT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", [(1, "x"), (2, "y")])
        statement = conn.prepare("SELECT a, b FROM t WHERE a >= ?")
        result = statement.execute([2])
        print(result.labeled_rows())

    Passing a path (or ``store=path``) opens a **persistent** session: the
    encoded relations live in an on-disk WAL-mode SQLite file and survive
    the process::

        conn = repro.connect("inventory.uadb", engine="sqlite")
        conn.execute("CREATE TABLE t (a INT, b TEXT)")
        conn.execute("INSERT INTO t VALUES (1, 'x')")
        conn.close()

        conn = repro.connect("inventory.uadb")   # reopens table + rows
        print(conn.query("SELECT a, b FROM t").labeled_rows())

    ``semiring`` picks the annotation domain (bag multiplicities by default;
    an existing store's persisted semiring is adopted when unset), ``engine``
    the execution backend (``"row"`` / ``"columnar"`` / ``"sqlite"`` /
    instance), ``optimize`` toggles the logical optimizer, ``cache_size``
    bounds the prepared-plan LRU cache (0 disables caching), and
    ``create=False`` refuses to initialize a missing store file
    (:class:`~repro.api.store.StoreError`).

    ``annotation="attribute"`` switches the connection's default query
    semantics to attribute-level bounds: ``query`` and cursor ``execute``
    return results whose cells carry ``[lower, best-guess, upper]`` ranges
    (see :meth:`Connection.query_bounds`, also available per-query on
    tuple-level connections)::

        conn = repro.connect(annotation="attribute")
        conn.execute("CREATE TABLE r (v INT)")
        conn.execute("INSERT INTO r VALUES (10)")
        print(conn.query("SELECT SUM(v) FROM r").bounded_rows())

    ``shared_cache=True`` opts in to the process-wide
    :class:`~repro.api.cache.SharedPlanCache` for this ``(name, semiring)``
    catalog: every sharing connection serves warm hits from (and invalidates)
    the same lock-guarded cache, so a group of connections over one catalog
    compiles each distinct statement once.  Sharing assumes the connections
    register the same sources; a registration on any of them invalidates the
    whole group's cached plans.  For sharing the *data* too -- one set of
    relations served to many threads -- use
    :class:`repro.api.pool.ConnectionPool`.
    """
    if len(args) > 2:
        raise TypeError(
            f"connect() takes at most two positional arguments (a semiring "
            f"or store path, then a name), {len(args)} were given"
        )
    if args:
        first = args[0]
        if isinstance(first, (str, os.PathLike, UADBStore)):
            if store is not None:
                raise SessionError(
                    "pass the store either as the first argument or as "
                    "store=, not both"
                )
            store = first
        else:
            if semiring is not None:
                raise TypeError(
                    "connect() got multiple values for argument 'semiring'"
                )
            semiring = first
    if len(args) == 2:
        # Pre-store signature compatibility: connect(semiring, "name").
        if not isinstance(args[1], str):
            raise TypeError(
                f"connect() second positional argument must be the catalog "
                f"name, got {args[1]!r}"
            )
        name = args[1]
    return Connection(semiring=semiring, name=name, engine=engine,
                      optimize=optimize, cache_size=cache_size,
                      shared_cache=shared_cache, store=store, create=create,
                      annotation=annotation)
