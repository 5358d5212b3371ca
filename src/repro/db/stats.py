"""Per-table statistics for cost-based optimization.

The statistics layer feeds cardinality estimation (:mod:`repro.db.cost`)
and through it the optimizer's join-reordering pass
(:func:`repro.db.optimizer.reorder_joins`) with the small set of facts it
needs:

* **row counts** -- distinct annotated tuples per relation,
* **per-column NDV** -- number of distinct values, exact up to
  :data:`SKETCH_SIZE` values and a KMV (k-minimum-values) estimate beyond,
* **per-column min/max** -- for comparable (numeric/string) values,
* **per-column null fraction**.

Statistics are collected in one pass on registration
(:meth:`StatsCatalog.collect`) and maintained *incrementally* on ``INSERT``
(:meth:`StatsCatalog.update_rows`) -- the sketches are mergeable, so the
insert path never rescans the table, and the fold is exact: folding the
tuples new to a relation leaves the same statistics a recount would.
Coherence with the relation contents uses the same fingerprint discipline
as the storage layer: every :class:`TableStats` remembers the
:class:`~repro.db.relation.KRelation` identity and mutation counter
(``_version``) it describes, the writer that folded its rows in advances
that fingerprint (:meth:`StatsCatalog.mark_current`), and
:meth:`StatsCatalog.refresh` recollects only a relation mutated out of band.

Persistence rides in the WAL store (the ``uadb_stats`` table, see
:meth:`repro.api.store.UADBStore.save_stats`), in the same transaction as
the rows they describe: statistics survive the process alongside the data,
and the *stats version* counter
(:meth:`repro.api.store.UADBStore.stats_version`) invalidates cached plans
whose join order was chosen under stale statistics.  Each sketch caches
its JSON encoding, so persisting after an INSERT re-encodes only the
sketches the INSERT moved.

Distinct-value sketches hash with :func:`zlib.crc32` (stable across
processes), never Python's salted ``hash()``, so persisted sketches merge
correctly after a reload.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import zlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.relation import KRelation, Row

__all__ = [
    "SKETCH_SIZE",
    "ColumnStats",
    "DistinctSketch",
    "StatsCatalog",
    "TableStats",
]

#: Distinct hashes kept per column: exact NDV up to this many distinct
#: values, a KMV estimate beyond.
SKETCH_SIZE = 256

#: The hash space of :func:`zlib.crc32` (the KMV scale factor).
_HASH_SPACE = 2 ** 32

#: What a failed statistics round trip raises: sqlite3 itself (locked,
#: full or read-only file) or the store's ``StoreError`` (closed or
#: unreadable store) -- a RuntimeError, named by its base class because
#: :mod:`repro.api.store` sits above this package.
_STORE_ERRORS = (sqlite3.Error, RuntimeError)

logger = logging.getLogger(__name__)


def _stable_hash(value: Any) -> int:
    """A process-stable 32-bit hash of ``value`` (crc32 of its repr).

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), which
    would break persisted sketches; crc32 of the repr is stable, cheap, and
    collision-safe enough for NDV estimation at catalog scale.
    """
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


class DistinctSketch:
    """A mergeable NDV sketch: exact small sets, KMV beyond ``k`` values.

    Keeps the ``k`` smallest stable hashes seen.  While fewer than ``k``
    distinct hashes arrived the estimate is exact; once saturated, the
    classic k-minimum-values estimator ``(k - 1) * H / kth_smallest`` takes
    over (``H`` = hash space size).  Adding is O(1) amortized; merging two
    sketches is a set union re-capped to ``k``.
    """

    __slots__ = ("k", "hashes", "saturated", "_largest", "_encoded")

    def __init__(self, k: int = SKETCH_SIZE) -> None:
        self.k = k
        self.hashes: set = set()
        self.saturated = False
        #: Cached ``max(hashes)`` while saturated (None = recompute).  Keeps
        #: the common no-replacement add O(1); without it every value of a
        #: high-NDV column pays an O(k) scan, which dominates bulk ingest.
        self._largest: Any = None
        #: Cached :meth:`encoded` text (None = re-encode).  Dropped by every
        #: change to ``hashes`` *or* ``saturated``: the flag flips on the
        #: first hash past ``k`` even when that hash is not kept.
        self._encoded: Optional[str] = None

    def add(self, value: Any) -> None:
        """Account one (non-null) value."""
        self.add_hash(_stable_hash(value))

    def add_hash(self, hashed: int) -> None:
        """Account one pre-hashed value (the merge/restore path)."""
        hashes = self.hashes
        if hashed in hashes:
            return
        if len(hashes) < self.k:
            hashes.add(hashed)
            self._encoded = None
            return
        if not self.saturated:
            self.saturated = True
            self._encoded = None
        largest = self._largest
        if largest is None:
            largest = self._largest = max(hashes)
        if hashed < largest:
            hashes.discard(largest)
            hashes.add(hashed)
            self._largest = max(hashes)
            self._encoded = None

    def estimate(self) -> int:
        """The estimated number of distinct values seen."""
        if not self.saturated:
            return len(self.hashes)
        kth = max(self.hashes)
        return max(self.k, round((self.k - 1) * _HASH_SPACE / (kth + 1)))

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready form (sorted hashes keep the file diffable)."""
        return {"k": self.k, "saturated": self.saturated,
                "hashes": sorted(self.hashes)}

    def encoded(self) -> str:
        """:meth:`to_json` as JSON text with sorted keys, encoded once per
        change: an insert that moves no hash re-encodes nothing."""
        if self._encoded is None:
            self._encoded = json.dumps(self.to_json(), sort_keys=True)
        return self._encoded

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "DistinctSketch":
        """Rebuild a sketch persisted by :meth:`to_json`."""
        sketch = cls(int(payload.get("k", SKETCH_SIZE)))
        sketch.hashes = set(payload.get("hashes", ()))
        sketch.saturated = bool(payload.get("saturated", False))
        return sketch


#: Value types whose min/max survive the JSON round trip.
_ORDERED_JSON_TYPES = (int, float, str)


class ColumnStats:
    """Statistics of one column: NDV sketch, min/max, null counts."""

    __slots__ = ("name", "sketch", "null_count", "value_count",
                 "minimum", "maximum", "orderable")

    def __init__(self, name: str) -> None:
        self.name = name
        self.sketch = DistinctSketch()
        self.null_count = 0
        self.value_count = 0
        #: Smallest / largest comparable value seen (None while unknown).
        self.minimum: Any = None
        self.maximum: Any = None
        #: False once incomparable (mixed-type) values defeated min/max.
        self.orderable = True

    def add(self, value: Any) -> None:
        """Account one value of the column."""
        self.value_count += 1
        if value is None:
            self.null_count += 1
            return
        self.sketch.add(value)
        if not self.orderable or not isinstance(value, _ORDERED_JSON_TYPES):
            self.orderable = isinstance(value, bool) and self.orderable
            if not self.orderable:
                self.minimum = self.maximum = None
                return
        try:
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        except TypeError:
            # Mixed types (e.g. int vs str in an ANY column): give up on
            # range statistics, keep NDV and null counts.
            self.orderable = False
            self.minimum = self.maximum = None

    @property
    def ndv(self) -> int:
        """Estimated number of distinct non-null values."""
        return self.sketch.estimate()

    @property
    def null_fraction(self) -> float:
        """Fraction of values that are NULL (0.0 when the column is empty)."""
        if not self.value_count:
            return 0.0
        return self.null_count / self.value_count

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready form for the store's ``uadb_stats`` table."""
        return {
            "name": self.name,
            "sketch": self.sketch.to_json(),
            "null_count": self.null_count,
            "value_count": self.value_count,
            "minimum": self.minimum if self.orderable else None,
            "maximum": self.maximum if self.orderable else None,
            "orderable": self.orderable,
        }

    def encoded(self) -> str:
        """:meth:`to_json` as JSON text with sorted keys -- the bytes
        ``json.dumps(self.to_json(), sort_keys=True)`` gives -- around the
        sketch's cached encoding."""
        dumps = json.dumps
        return ('{"maximum": %s, "minimum": %s, "name": %s, "null_count": %d, '
                '"orderable": %s, "sketch": %s, "value_count": %d}' % (
                    dumps(self.maximum if self.orderable else None),
                    dumps(self.minimum if self.orderable else None),
                    dumps(self.name), self.null_count,
                    "true" if self.orderable else "false",
                    self.sketch.encoded(), self.value_count))

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "ColumnStats":
        """Rebuild column statistics persisted by :meth:`to_json`."""
        stats = cls(payload["name"])
        stats.sketch = DistinctSketch.from_json(payload.get("sketch", {}))
        stats.null_count = int(payload.get("null_count", 0))
        stats.value_count = int(payload.get("value_count", 0))
        stats.minimum = payload.get("minimum")
        stats.maximum = payload.get("maximum")
        stats.orderable = bool(payload.get("orderable", True))
        return stats

    def __repr__(self) -> str:
        return (f"<ColumnStats {self.name!r} ndv={self.ndv} "
                f"nulls={self.null_fraction:.2f}>")


class TableStats:
    """Statistics of one relation, fingerprinted against its contents.

    ``row_count`` counts distinct annotated tuples (the quantity every
    engine iterates over).  The fingerprint (relation identity +
    ``_version``) is in-memory only; reloaded statistics start unpinned and
    are re-pinned by :meth:`StatsCatalog.refresh`.
    """

    __slots__ = ("name", "row_count", "columns", "_relation", "_fingerprint")

    def __init__(self, name: str, column_names: Sequence[str]) -> None:
        self.name = name
        self.row_count = 0
        #: Column statistics in schema order, keyed by lower-cased base name.
        self.columns: Dict[str, ColumnStats] = {
            column.lower().split(".")[-1]: ColumnStats(column)
            for column in column_names
        }
        self._relation: Optional[KRelation] = None
        self._fingerprint = -1

    # -- collection ---------------------------------------------------------

    @classmethod
    def collect(cls, relation: KRelation) -> "TableStats":
        """One-pass full collection over ``relation``."""
        stats = cls(relation.schema.name,
                    relation.schema.attribute_names)
        stats.update_rows(relation.rows())
        stats.row_count = len(relation)  # exact, not merge-approximated
        stats.pin(relation)
        return stats

    def update_rows(self, rows: Iterable[Row]) -> None:
        """Incrementally account ``rows``, each a tuple new to the relation.

        Every statistic counts distinct tuples and merges in any order, so
        folding exactly the new tuples equals a recount.  The caller leaves
        out rows the relation already holds (an insert that only raises a
        multiplicity): nothing recollects behind the fold to take them back
        out of ``row_count`` / ``value_count`` / ``null_count``.
        """
        column_stats = list(self.columns.values())
        count = 0
        for row in rows:
            count += 1
            for stats, value in zip(column_stats, row):
                stats.add(value)
        self.row_count += count

    def pin(self, relation: KRelation) -> None:
        """Record which relation state these statistics describe."""
        self._relation = relation
        self._fingerprint = relation._version

    def fresh(self, relation: KRelation) -> bool:
        """True while ``relation`` is unchanged since :meth:`pin`."""
        return (self._relation is relation
                and self._fingerprint == relation._version)

    # -- lookups used by the cost model --------------------------------------

    def column(self, name: str) -> Optional[ColumnStats]:
        """Statistics for a column by (possibly qualified) name."""
        return self.columns.get(name.lower().split(".")[-1])

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        """Serialize for the store's ``uadb_stats`` table.

        Byte-identical to ``json.dumps`` with sorted keys over ``name``,
        ``row_count`` and each column's :meth:`ColumnStats.to_json`, but
        built from the sketches' cached encodings: an INSERT re-encodes
        only the sketches it moved, not every column's 256 hashes.
        """
        return '{"columns": [%s], "name": %s, "row_count": %d}' % (
            ", ".join([stats.encoded() for stats in self.columns.values()]),
            json.dumps(self.name), self.row_count)

    @classmethod
    def from_json(cls, payload: str) -> "TableStats":
        """Rebuild table statistics persisted by :meth:`to_json`."""
        data = json.loads(payload)
        stats = cls(data["name"], [])
        stats.row_count = int(data.get("row_count", 0))
        for column_payload in data.get("columns", ()):
            column = ColumnStats.from_json(column_payload)
            stats.columns[column.name.lower().split(".")[-1]] = column
        return stats

    def __repr__(self) -> str:
        return f"<TableStats {self.name!r} rows={self.row_count}>"


class StatsCatalog:
    """All table statistics of one catalog, with store persistence.

    The session owns one catalog per connection and attaches it to its
    databases as ``database.stats`` so the evaluator can reach it; the
    optimizer receives it through ``optimize_plan(..., stats=...)``.
    """

    def __init__(self, store: Optional[object] = None) -> None:
        self._tables: Dict[str, TableStats] = {}
        self._store = store
        #: Store reads/writes of statistics that failed (logged once; the
        #: in-memory statistics stay authoritative for this session).
        self.persist_failures = 0
        if store is not None:
            self.reload()

    # -- lookups --------------------------------------------------------------

    def table_stats(self, name: str) -> Optional[TableStats]:
        """Statistics for relation ``name`` (case-insensitive), or None."""
        return self._tables.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    # -- maintenance ----------------------------------------------------------

    def collect(self, relation: KRelation) -> TableStats:
        """(Re)collect full statistics for ``relation`` and persist them."""
        stats = TableStats.collect(relation)
        self._tables[relation.schema.name.lower()] = stats
        self._persist(stats)
        return stats

    def update_rows(self, name: str, rows: Iterable[Row]) -> bool:
        """Incrementally account inserted ``rows`` (the INSERT hot path).

        Returns True when the fold is in memory and -- with a store -- on
        disk; only then may the writer re-pin the statistics
        (:meth:`mark_current`).  A failed persist is counted and leaves
        them for the next :meth:`refresh` to recollect, which persists
        again.  Unknown relations are collected lazily on the next
        :meth:`refresh`; the incremental path never rescans the table.
        """
        stats = self._tables.get(name.lower())
        if stats is None:
            return False
        stats.update_rows(rows)
        return self._persist(stats)

    def adopt(self, relation: KRelation) -> TableStats:
        """Trust loaded statistics for ``relation`` or recollect them.

        Used on the store-reopen path: persisted statistics whose row count
        still matches the loaded relation are pinned to it as-is; anything
        else (no statistics, or drifted counts) triggers a fresh scan.
        """
        stats = self._tables.get(relation.schema.name.lower())
        if stats is not None and stats.row_count == len(relation):
            stats.pin(relation)
            return stats
        return self.collect(relation)

    def mark_current(self, relation: KRelation) -> None:
        """Re-pin ``relation``'s statistics after the in-memory mutation:
        the writer that folded its rows in advances the fingerprint."""
        stats = self._tables.get(relation.schema.name.lower())
        if stats is not None:
            stats.pin(relation)

    def fresh(self, relation: KRelation) -> bool:
        """True while the stored statistics match ``relation`` exactly."""
        stats = self._tables.get(relation.schema.name.lower())
        return stats is not None and stats.fresh(relation)

    def refresh(self, database) -> None:
        """Recollect statistics for any relation mutated out of band.

        The fast path is one fingerprint check per relation (the same
        discipline as the store's table sync), so calling this per compile
        is cheap; the session's own inserts keep the fingerprint current
        and never reach :meth:`collect` here.
        """
        for relation in database:
            if not self.fresh(relation):
                self.collect(relation)

    def drop(self, name: str) -> None:
        """Forget statistics for ``name`` (dropped/replaced relations)."""
        self._tables.pop(name.lower(), None)

    # -- persistence ----------------------------------------------------------

    def _persist_failed(self, action: str, error: Exception) -> None:
        """Count a failed store round trip; statistics loss is never fatal."""
        if not self.persist_failures:
            logger.warning("could not %s table statistics (%s); "
                           "in-memory statistics stay in use", action, error)
        self.persist_failures += 1

    def _persist(self, stats: TableStats) -> bool:
        """Write ``stats`` to the store; False (counted) when that failed."""
        if self._store is None:
            return True
        try:
            self._store.save_stats(stats.name, stats.to_json())
        except _STORE_ERRORS as error:
            self._persist_failed("persist", error)
            return False
        return True

    def reload(self) -> None:
        """Load persisted statistics from the store (reopen / fleet refresh).

        Loaded statistics start unpinned; the caller follows with
        :meth:`adopt` per loaded relation.
        """
        if self._store is None:
            return
        try:
            payloads = self._store.load_all_stats()
        except _STORE_ERRORS as error:
            self._persist_failed("load", error)
            return
        for name, payload in payloads.items():
            try:
                self._tables[name.lower()] = TableStats.from_json(payload)
            except (ValueError, KeyError):
                continue

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Row counts and per-column NDV / null fraction / min / max as a
        JSON-ready dict (for tests and observability)."""
        return {
            name: {
                "row_count": stats.row_count,
                "columns": {
                    column.name: {"ndv": column.ndv,
                                  "null_fraction": column.null_fraction,
                                  "minimum": column.minimum,
                                  "maximum": column.maximum}
                    for column in stats.columns.values()
                },
            }
            for name, stats in sorted(self._tables.items())
        }

    def __repr__(self) -> str:
        return f"<StatsCatalog {len(self._tables)} tables>"
