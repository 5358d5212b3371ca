"""K-relations: relations whose tuples carry semiring annotations.

A :class:`KRelation` maps rows (tuples of attribute values) to annotations
from a chosen semiring.  Rows mapped to the semiring's zero are absent by
convention; the class maintains that invariant so that iteration, counting
and equality behave like the mathematical object.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.semirings import BOOLEAN, NATURAL, Semiring
from repro.semirings.base import SemiringHomomorphism
from repro.db.schema import RelationSchema

Row = Tuple[Any, ...]

#: Absence marker distinct from any semiring element (even a hypothetical
#: ``None``-valued one) for the insert fast path.
_ABSENT = object()


class KRelation:
    """A finite map from rows to non-zero semiring annotations."""

    def __init__(self, schema: RelationSchema, semiring: Semiring,
                 data: Optional[Dict[Row, Any]] = None) -> None:
        self.schema = schema
        self.semiring = semiring
        self._data: Dict[Row, Any] = {}
        #: Mutation counter: bumped by every ``add`` / ``set_annotation`` so
        #: caching consumers (the SQLite engine's table loader) can detect
        #: in-place changes without hashing the contents.
        self._version = 0
        if data:
            for row, annotation in data.items():
                self.add(row, annotation)

    # -- construction -------------------------------------------------------

    def add(self, row: Sequence[Any], annotation: Any = None) -> None:
        """Add ``annotation`` (default 1_K) to the row's current annotation."""
        self.add_validated(self.schema.validate_row(row), annotation)

    def add_validated(self, row: Row, annotation: Any = None) -> None:
        """Like :meth:`add` for a row already validated against this schema.

        Skips the per-row schema re-validation (the semiring merge and the
        mutation-counter bump still apply); bulk callers that validate a
        whole statement up front -- the session's ``INSERT`` path -- use it
        to avoid paying validation per target relation per row.
        """
        semiring = self.semiring
        if annotation is None:
            annotation = semiring.one
        semiring.check(annotation)
        self._version += 1
        current = self._data.get(row, _ABSENT)
        if current is _ABSENT:
            # New tuple: ``plus(zero, x) == x`` in every lawful semiring, so
            # skip the generic merge -- bulk inserts are almost entirely
            # first sightings, and the merge would allocate per row.
            if not semiring.is_zero(annotation):
                self._data[row] = annotation
            return
        combined = semiring.plus(current, annotation)
        if semiring.is_zero(combined):
            self._data.pop(row, None)
        else:
            self._data[row] = combined

    def set_annotation(self, row: Sequence[Any], annotation: Any) -> None:
        """Overwrite the annotation of ``row`` (removing it if zero)."""
        row = self.schema.validate_row(row)
        self.semiring.check(annotation)
        self._version += 1
        if self.semiring.is_zero(annotation):
            self._data.pop(row, None)
        else:
            self._data[row] = annotation

    @classmethod
    def _from_validated(cls, schema: RelationSchema, semiring: Semiring,
                        data: Dict[Row, Any]) -> "KRelation":
        """Wrap an already-validated ``row -> non-zero annotation`` mapping.

        Internal fast path for operators that copy or transform whole
        relations: it skips the per-row schema validation and semiring checks
        of :meth:`add`, which the source rows have already passed.  The caller
        transfers ownership of ``data``.
        """
        relation = cls.__new__(cls)
        relation.schema = schema
        relation.semiring = semiring
        relation._data = data
        relation._version = 0
        return relation

    def copy(self) -> "KRelation":
        """Shallow copy (rows and annotations are immutable values)."""
        return KRelation._from_validated(self.schema, self.semiring, dict(self._data))

    # -- access -------------------------------------------------------------

    def annotation(self, row: Sequence[Any]) -> Any:
        """Annotation of ``row`` (0_K if absent)."""
        return self._data.get(tuple(row), self.semiring.zero)

    def __getitem__(self, row: Sequence[Any]) -> Any:
        return self.annotation(row)

    def __contains__(self, row: Sequence[Any]) -> bool:
        return tuple(row) in self._data

    def rows(self) -> Iterator[Row]:
        """Iterate over rows with non-zero annotations."""
        return iter(self._data.keys())

    def items(self) -> Iterator[Tuple[Row, Any]]:
        """Iterate over ``(row, annotation)`` pairs."""
        return iter(self._data.items())

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __len__(self) -> int:
        """Number of distinct rows with non-zero annotations."""
        return len(self._data)

    def total_multiplicity(self) -> Any:
        """Semiring sum over all annotations (bag cardinality for N)."""
        return self.semiring.sum(self._data.values())

    def is_empty(self) -> bool:
        """True if no row carries a non-zero annotation."""
        return not self._data

    # -- transformations ------------------------------------------------------

    def map_annotations(self, homomorphism: SemiringHomomorphism) -> "KRelation":
        """Apply a semiring homomorphism to every annotation.

        The result is a relation over the homomorphism's target semiring.
        Rows whose image is the target's zero are dropped.
        """
        target = homomorphism.target
        is_zero = target.is_zero
        data = {}
        for row, annotation in self._data.items():
            image = homomorphism(annotation)
            if not is_zero(image):
                data[row] = image
        return KRelation._from_validated(self.schema, target, data)

    def rename(self, new_name: str) -> "KRelation":
        """Same contents under a renamed schema."""
        return KRelation._from_validated(
            self.schema.rename(new_name), self.semiring, dict(self._data)
        )

    def to_rows(self, expand_multiplicity: bool = False) -> List[Row]:
        """Materialize rows as a list.

        With ``expand_multiplicity`` and an integer-annotated relation (bag
        semantics), each row appears as many times as its multiplicity,
        mirroring how a conventional DBMS would return duplicates.
        """
        if not expand_multiplicity:
            return sorted(self._data.keys(), key=_row_sort_key)
        expanded: List[Row] = []
        for row, annotation in sorted(self._data.items(), key=lambda kv: _row_sort_key(kv[0])):
            count = annotation if isinstance(annotation, int) and not isinstance(annotation, bool) else 1
            expanded.extend([row] * count)
        return expanded

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KRelation):
            return NotImplemented
        return (
            self.semiring == other.semiring
            and self.schema.attribute_names == other.schema.attribute_names
            and self._data == other._data
        )

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable; not hashable
        raise TypeError("KRelation objects are mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"<KRelation {self.schema.name} [{self.semiring.name}] "
            f"{len(self._data)} rows>"
        )

    def pretty(self, limit: int = 20) -> str:
        """Human-readable table rendering (for examples and debugging)."""
        header = list(self.schema.attribute_names) + [self.semiring.name]
        rows = [
            [repr(v) for v in row] + [repr(annotation)]
            for row, annotation in sorted(self.items(), key=lambda kv: _row_sort_key(kv[0]))
        ]
        return render_table(header, rows, limit)


def render_table(header: List[str], rows: List[List[str]], limit: int,
                 unit: str = "rows") -> str:
    """Fixed-width text table of the first ``limit`` of ``rows``."""
    shown = rows[:limit]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in shown)) if shown else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(header, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    lines.extend(" | ".join(v.ljust(w) for v, w in zip(r, widths)) for r in shown)
    if len(rows) > limit:
        lines.append(f"... ({len(rows) - limit} more {unit})")
    return "\n".join(lines)


def _row_sort_key(row: Row) -> Tuple:
    """Total order over heterogeneous rows (None < numbers < strings < other)."""
    key = []
    for value in row:
        if value is None:
            key.append((0, ""))
        elif isinstance(value, bool):
            key.append((1, int(value)))
        elif isinstance(value, (int, float)):
            key.append((1, value))
        elif isinstance(value, str):
            key.append((2, value))
        else:
            key.append((3, str(value)))
    return tuple(key)


def bag_relation(schema: RelationSchema, rows: Iterable[Sequence[Any]]) -> KRelation:
    """Build an N-relation from an iterable of rows (duplicates accumulate)."""
    relation = KRelation(schema, NATURAL)
    for row in rows:
        relation.add(row, 1)
    return relation


def set_relation(schema: RelationSchema, rows: Iterable[Sequence[Any]]) -> KRelation:
    """Build a B-relation from an iterable of rows (duplicates collapse)."""
    relation = KRelation(schema, BOOLEAN)
    for row in rows:
        relation.add(row, True)
    return relation
