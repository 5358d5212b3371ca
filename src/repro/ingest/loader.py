"""The bulk loader: chunked, batched writes with uncertainty at load time.

:class:`BulkLoader` streams records from a :class:`~repro.ingest.sources.RowSource`
into a :class:`~repro.api.session.Connection` in fixed-size chunks.  Each
chunk goes through the connection's batched write primitive, so the cost
profile per chunk -- regardless of how many rows it holds -- is exactly:

* **one** WAL store transaction -- a single ``executemany`` of the rows,
  the persisted statistics and the version bump, committed together,
* **one** incremental statistics fold,
* **one** stats-version bump (the table's creation, when the load made it,
  is a transaction of its own).

That per-chunk (never per-row) bookkeeping is what makes bulk ingest
orders of magnitude faster than row-at-a-time INSERTs, and is the same
trick the MayBMS lineage uses: encode annotations into plain relational
columns once, at load time.

Uncertainty attaches during the load via the ``uncertainty`` policy:

* ``None`` -- every row is certain (the default),
* ``"flag"`` -- rows containing a missing value (None) load as *uncertain*
  tuples: their Enc fragment carries ``C = 0`` and the UA-annotation is
  ``uncertain_annotation(one)``,
* ``"impute"`` -- missing values are repaired with the primary imputation
  from :func:`repro.workloads.imputation.impute_alternatives` (fitted per
  chunk, so the load still streams) and the repaired rows are flagged
  uncertain,
* a callable ``policy(rows, schema) -> (rows, flags)`` for custom cleaning.

Use via :meth:`Connection.load` or the module-level :func:`load`.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.encoding import decoded_schema
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.ingest.sources import IngestError, Record, RowSource, open_source

__all__ = ["BulkLoader", "ChunkReport", "LoadReport", "load"]

#: Default rows per chunk (per WAL transaction / stats fold / version bump).
DEFAULT_CHUNK_SIZE = 50_000

#: An uncertainty policy: ``(rows, schema) -> (rows, uncertain_flags)``.
UncertaintyPolicy = Callable[
    [List[Tuple[Any, ...]], RelationSchema],
    Tuple[List[Tuple[Any, ...]], List[bool]],
]


@dataclass
class ChunkReport:
    """Outcome of one ingested chunk (one WAL transaction)."""

    #: Zero-based chunk index within the load.
    index: int
    #: Rows committed by this chunk.
    rows: int
    #: Rows flagged uncertain by the load's uncertainty policy.
    uncertain_rows: int
    #: Wall-clock seconds spent binding, encoding and committing the chunk.
    seconds: float

    def to_dict(self) -> dict:
        """JSON-friendly form (used by ``POST /load`` responses)."""
        return {"index": self.index, "rows": self.rows,
                "uncertain_rows": self.uncertain_rows,
                "seconds": round(self.seconds, 6)}


@dataclass
class LoadReport:
    """Outcome of a whole bulk load."""

    #: Target table name.
    table: str
    #: Source format tag (``"csv"``, ``"ndjson"``, ``"parquet"``, ``"rows"``).
    format: str
    #: Total rows committed.
    rows: int = 0
    #: Rows loaded as uncertain tuples.
    uncertain_rows: int = 0
    #: Chunks committed (= WAL transactions = stats folds = version bumps).
    chunks: int = 0
    #: Total wall-clock seconds for the load.
    seconds: float = 0.0
    #: True when the load created the table (schema was inferred).
    created: bool = False
    #: Per-chunk breakdown, in commit order.
    chunk_reports: List[ChunkReport] = field(default_factory=list)

    @property
    def rows_per_second(self) -> float:
        """Sustained ingest rate over the whole load."""
        return self.rows / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly form (used by ``POST /load`` responses)."""
        return {
            "table": self.table,
            "format": self.format,
            "rows": self.rows,
            "uncertain_rows": self.uncertain_rows,
            "chunks": self.chunks,
            "seconds": round(self.seconds, 6),
            "rows_per_second": round(self.rows_per_second, 3),
            "created": self.created,
            "chunk_reports": [chunk.to_dict() for chunk in self.chunk_reports],
        }


def _infer_type(values: Sequence[Any]) -> DataType:
    """The narrowest :class:`DataType` accepting every non-null value."""
    candidates = [DataType.BOOLEAN, DataType.INTEGER, DataType.FLOAT,
                  DataType.STRING]
    seen_value = False
    for value in values:
        if value is None:
            continue
        seen_value = True
        candidates = [dt for dt in candidates if dt.accepts(value)]
        if not candidates:
            return DataType.ANY
    if not seen_value:
        return DataType.ANY
    # INTEGER values are also valid FLOATs; prefer the narrower type.
    return candidates[0]


def _policy_certain(rows: List[Tuple[Any, ...]],
                    schema: RelationSchema) -> Tuple[List[Tuple[Any, ...]], List[bool]]:
    return rows, [False] * len(rows)


def _policy_flag(rows: List[Tuple[Any, ...]],
                 schema: RelationSchema) -> Tuple[List[Tuple[Any, ...]], List[bool]]:
    return rows, [any(value is None for value in row) for row in rows]


def _policy_impute(rows: List[Tuple[Any, ...]],
                   schema: RelationSchema) -> Tuple[List[Tuple[Any, ...]], List[bool]]:
    from repro.workloads.imputation import impute_alternatives

    flags = [any(value is None for value in row) for row in rows]
    if not any(flags):
        return rows, flags
    alternatives = impute_alternatives(rows, schema, max_alternatives=1)
    repaired = [alts[0] if flag else row
                for row, alts, flag in zip(rows, alternatives, flags)]
    return repaired, flags


_NAMED_POLICIES = {
    None: _policy_certain,
    "certain": _policy_certain,
    "flag": _policy_flag,
    "impute": _policy_impute,
}


def resolve_uncertainty(policy: object) -> UncertaintyPolicy:
    """Resolve an ``uncertainty=`` argument into a policy callable.

    Accepts ``None`` / ``"certain"`` / ``"flag"`` / ``"impute"`` or a
    callable ``(rows, schema) -> (rows, flags)``; anything else raises
    :class:`IngestError` naming the valid options.
    """
    if callable(policy):
        return policy  # type: ignore[return-value]
    try:
        return _NAMED_POLICIES[policy]  # type: ignore[index]
    except (KeyError, TypeError):
        raise IngestError(
            f"unknown uncertainty policy {policy!r}; use None, 'certain', "
            f"'flag', 'impute', or a callable(rows, schema) -> (rows, flags)"
        ) from None


class BulkLoader:
    """Streams a :class:`RowSource` into a connection, one chunk at a time.

    ``chunk_size`` rows are buffered, bound to the target schema, run
    through the uncertainty policy, and committed as **one** batched write
    (one WAL transaction, one stats fold, one version bump).  When the
    table does not exist and ``create=True``, the first chunk's values
    drive schema inference and the table is registered before that chunk
    commits.

    ``on_chunk``, when given, is called with each :class:`ChunkReport`
    right after its commit -- the HTTP ``POST /load`` handler uses it to
    account progress, CLI tools can use it for progress bars.
    """

    def __init__(self, connection, table: str, *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE, create: bool = True,
                 columns: Optional[Sequence[str]] = None,
                 uncertainty: object = None,
                 on_chunk: Optional[Callable[[ChunkReport], None]] = None) -> None:
        if chunk_size < 1:
            raise IngestError(f"chunk_size must be >= 1, got {chunk_size}")
        self.connection = connection
        self.table = table
        self.chunk_size = chunk_size
        self.create = create
        self.columns = list(columns) if columns is not None else None
        self.policy = resolve_uncertainty(uncertainty)
        self.on_chunk = on_chunk

    # -- schema resolution --------------------------------------------------------

    def _existing_schema(self) -> Optional[RelationSchema]:
        """The table's logical schema, None when it does not exist yet; a
        native attribute-level table raises a ``SchemaError``."""
        if self.table not in self.connection.encoded:
            return None
        return decoded_schema(self.connection._tuple_table(self.table).schema)

    def _infer_schema(self, first_chunk: List[Record],
                      source: RowSource) -> RelationSchema:
        """Build a schema for a new table from the first chunk's values."""
        names = self.columns or source.columns
        if names is None:
            for record in first_chunk:
                if isinstance(record, Mapping):
                    names = list(record.keys())
                    break
        if names is None:
            width = max(len(record) for record in first_chunk)
            names = [f"c{index}" for index in range(width)]
        rows = [self._bind_record(record, names) for record in first_chunk]
        attributes = [
            Attribute(name, _infer_type([row[index] for row in rows]))
            for index, name in enumerate(names)
        ]
        return RelationSchema(self.table, attributes)

    @staticmethod
    def _bind_record(record: Record, names: Sequence[str]) -> Tuple[Any, ...]:
        """Arrange one record's values in ``names`` order (pre-inference)."""
        if isinstance(record, Mapping):
            lowered = {str(key).lower(): value for key, value in record.items()}
            return tuple(lowered.get(name.lower()) for name in names)
        values = tuple(record)
        if len(values) < len(names):
            values += (None,) * (len(names) - len(values))
        return values[:len(names)]

    def _make_binder(self, schema: RelationSchema,
                     source: RowSource) -> Callable[[Record], Tuple[Any, ...]]:
        """A record -> validated-row function for the resolved ``schema``."""
        attribute_names = [attr.name.lower() for attr in schema.attributes]
        input_columns = self.columns or source.columns
        positions: Optional[List[int]] = None
        if input_columns is not None:
            lowered = [name.lower() for name in input_columns]
            if lowered != attribute_names:
                positions = [schema.index_of(name) for name in input_columns]
        arity = schema.arity
        known = set(attribute_names)

        def bind(record: Record) -> Tuple[Any, ...]:
            if isinstance(record, Mapping):
                values: List[Any] = [None] * arity
                for key, value in record.items():
                    lowered_key = str(key).lower()
                    if lowered_key not in known:
                        raise IngestError(
                            f"record column {key!r} does not exist in "
                            f"table {schema.name!r}")
                    values[schema.index_of(lowered_key)] = value
                return schema.validate_row(values)
            if positions is not None:
                values = [None] * arity
                for position, value in zip(positions, record):
                    values[position] = value
                return schema.validate_row(values)
            return schema.validate_row(tuple(record))

        return bind

    # -- the load -----------------------------------------------------------------

    def run(self, source: RowSource) -> LoadReport:
        """Stream ``source`` into the table; returns the :class:`LoadReport`."""
        report = LoadReport(table=self.table, format=source.format_name)
        started = time.perf_counter()
        records = iter(source)
        first_chunk = list(itertools.islice(records, self.chunk_size))
        schema = self._existing_schema()
        if schema is None:
            if not self.create:
                raise IngestError(
                    f"table {self.table!r} does not exist and create=False")
            if not first_chunk:
                raise IngestError(
                    f"cannot infer a schema for new table {self.table!r} "
                    f"from an empty source")
            schema = self._infer_schema(first_chunk, source)
            self.connection._create_table(schema)
            report.created = True
        bind = self._make_binder(schema, source)
        chunk = first_chunk
        # Millions of short-lived tuples per chunk make the cyclic collector
        # scan the (growing, acyclic) table over and over; pausing it for
        # the duration of the load is the classic bulk-load lever.  Refcount
        # collection still reclaims the per-chunk garbage immediately.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._run_chunks(report, schema, records, chunk, bind)
        finally:
            if gc_was_enabled:
                gc.enable()
        report.seconds = time.perf_counter() - started
        return report

    def _run_chunks(self, report: LoadReport, schema: RelationSchema,
                    records, chunk, bind) -> None:
        """The chunk pump: bind, apply the policy, commit, account."""
        while chunk:
            chunk_started = time.perf_counter()
            try:
                rows = [bind(record) for record in chunk]
            except IngestError:
                raise
            rows, flags = self.policy(rows, schema)
            if len(flags) != len(rows):
                raise IngestError(
                    "uncertainty policy returned mismatched rows/flags "
                    f"({len(rows)} rows, {len(flags)} flags)")
            self.connection._apply_insert(
                self.table, rows,
                uncertain=flags if any(flags) else None)
            uncertain = sum(1 for flag in flags if flag)
            chunk_report = ChunkReport(
                index=report.chunks, rows=len(rows), uncertain_rows=uncertain,
                seconds=time.perf_counter() - chunk_started)
            report.chunks += 1
            report.rows += len(rows)
            report.uncertain_rows += uncertain
            report.chunk_reports.append(chunk_report)
            if self.on_chunk is not None:
                self.on_chunk(chunk_report)
            chunk = list(itertools.islice(records, self.chunk_size))


def load(connection, table: str, source: object, *,
         format: Optional[str] = None, chunk_size: int = DEFAULT_CHUNK_SIZE,
         create: bool = True, columns: Optional[Sequence[str]] = None,
         uncertainty: object = None,
         on_chunk: Optional[Callable[[ChunkReport], None]] = None,
         **source_options: Any) -> LoadReport:
    """Bulk-load ``source`` into ``table`` through ``connection``.

    ``source`` is anything :func:`repro.ingest.sources.open_source`
    understands: a CSV/NDJSON/Parquet path, a prepared
    :class:`~repro.ingest.sources.RowSource`, or an iterable of rows.
    See :class:`BulkLoader` for the chunking and uncertainty semantics.
    This is the engine behind :meth:`repro.api.session.Connection.load`.
    """
    resolved = open_source(source, format=format, columns=columns,
                           **source_options)
    loader = BulkLoader(connection, table, chunk_size=chunk_size,
                        create=create, columns=columns,
                        uncertainty=uncertainty, on_chunk=on_chunk)
    return loader.run(resolved)
