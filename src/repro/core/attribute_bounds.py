"""Attribute-level uncertainty: relations annotated with value ranges.

Tuple-level UA-DBs label whole tuples as certain or uncertain.  That is
exact for the positive relational algebra but collapses under aggregation:
``SUM`` over a relation with any uncertain tuple can only be labelled
"uncertain", with no indication of *how* uncertain the total is.  The
attribute-level model (AU-DBs, the Feng/Glavic follow-up to the UA-DB
paper) annotates every attribute value with a ``[lower, best-guess,
upper]`` range and every tuple with a multiplicity triple, so bounds
survive grouping and aggregation.

This module holds the data model and the physical encoding:

* :class:`AttributeBoundsRelation` -- the logical object: a bag of
  *fragments*, each mapping a row of per-attribute value ranges to a
  multiplicity triple ``(m_lb, m_bg, m_ub)``.
* :func:`encode_attribute_relation` / :func:`decode_attribute_relation` --
  the Enc-style flattening into an ordinary annotated relation: each
  logical attribute ``A`` becomes the column triple ``A``, ``A#lb``,
  ``A#ub`` and the multiplicity triple becomes the trailing ``#m_lb`` /
  ``#m_bg`` / ``#m_ub`` columns, so every existing engine (and the
  ``.uadb`` store, whose tables use positional column names) evaluates and
  persists range relations unchanged.

Possible-world semantics: a fragment with ranges ``r`` and multiplicity
``(l, b, u)`` contributes, in each world, some ``k`` tuples with
``l <= k <= u``, each copy independently choosing a value within every
attribute's range (an all-``None`` range denotes NULL in every world).
The best-guess world takes exactly ``b`` copies of the best-guess values.
Under this reading a semiring annotation ``n`` on an encoded row means
``n`` independent fragments, which is why decoding may sum multiplicity
triples pointwise: ``n`` copies of ``[l, b, u]`` cover exactly the counts
``[n*l, n*b, n*u]``.

Tuple-level UA annotations are the degenerate case: collapsed ranges
(``lower == best == upper``) and multiplicity ``(certain, det, det)``.
"""

from __future__ import annotations

from typing import (
    Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.db.relation import KRelation, Row, _row_sort_key, render_table
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.semirings import NATURAL, Semiring

__all__ = [
    "AttributeBoundsRelation",
    "LOWER_SUFFIX",
    "MULTIPLICITY_COLUMNS",
    "RangeError",
    "UPPER_SUFFIX",
    "attribute_encoded_schema",
    "decode_attribute_relation",
    "encode_attribute_relation",
    "is_attribute_encoded",
    "logical_schema_from_encoded",
]

#: Column-name suffix of a logical attribute's lower-bound column.
LOWER_SUFFIX = "#lb"
#: Column-name suffix of a logical attribute's upper-bound column.
UPPER_SUFFIX = "#ub"
#: Trailing multiplicity-triple columns of every attribute-encoded relation.
#: The ``#`` prefix cannot appear in SQL-declared attribute names, so the
#: pattern doubles as the store's reopen-detection marker.
MULTIPLICITY_COLUMNS = ("#m_lb", "#m_bg", "#m_ub")

#: One attribute's range as stored internally: ``(lower, best, upper)``.
Range = Tuple[Any, Any, Any]
#: A fragment's value part: one range per logical attribute.
RangeRow = Tuple[Range, ...]
#: A fragment's multiplicity triple ``(m_lb, m_bg, m_ub)``.
Multiplicity = Tuple[int, int, int]


class RangeError(ValueError):
    """An attribute range or multiplicity triple violates its invariant."""


def _as_count(value: Any, what: str) -> int:
    """Coerce a multiplicity component to a non-negative int (bools allowed)."""
    if isinstance(value, bool):
        return int(value)
    if not isinstance(value, int):
        raise RangeError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise RangeError(f"{what} must be non-negative, got {value!r}")
    return value


def check_multiplicity(multiplicity: Sequence[Any]) -> Multiplicity:
    """Validate and normalize a ``(m_lb, m_bg, m_ub)`` triple.

    Requires non-negative integers with ``m_lb <= m_bg <= m_ub`` (the
    best-guess world is one of the possible worlds, so its count must lie
    within the bounds).
    """
    if len(multiplicity) != 3:
        raise RangeError(f"multiplicity must be a triple, got {multiplicity!r}")
    low = _as_count(multiplicity[0], "m_lb")
    best = _as_count(multiplicity[1], "m_bg")
    high = _as_count(multiplicity[2], "m_ub")
    if not low <= best <= high:
        raise RangeError(
            f"multiplicity must satisfy m_lb <= m_bg <= m_ub, got {multiplicity!r}")
    return (low, best, high)


def check_range(name: str, bounds: Sequence[Any]) -> Range:
    """Validate one attribute's ``(lower, best, upper)`` range.

    Nullability is uniform: either all three components are ``None`` (NULL
    in every world) or none is.  Non-null components must be mutually
    comparable with ``lower <= best <= upper``.
    """
    if len(bounds) != 3:
        raise RangeError(f"range for {name!r} must be a triple, got {bounds!r}")
    lower, best, upper = bounds
    if lower is None or best is None or upper is None:
        if not (lower is None and best is None and upper is None):
            raise RangeError(
                f"range for {name!r} mixes NULL and non-NULL bounds: {bounds!r}")
        return (None, None, None)
    try:
        ordered = lower <= best <= upper
    except TypeError as exc:
        raise RangeError(
            f"range for {name!r} holds incomparable bounds {bounds!r}") from exc
    if not ordered:
        raise RangeError(
            f"range for {name!r} must satisfy lower <= best <= upper, "
            f"got {bounds!r}")
    return (lower, best, upper)


def _coerce_range(value: Any) -> Sequence[Any]:
    """Accept a scalar (collapsed range) or an explicit 3-sequence."""
    if isinstance(value, tuple) and len(value) == 3:
        return value
    if isinstance(value, list) and len(value) == 3:
        return tuple(value)
    return (value, value, value)


class AttributeBoundsRelation:
    """A relation whose tuples carry per-attribute ``[lower, best, upper]`` ranges.

    The contents are a bag of *fragments*: each distinct row of value
    ranges maps to one multiplicity triple ``(m_lb, m_bg, m_ub)``.  Adding
    a fragment whose ranges already exist sums the triples pointwise,
    which is exact under the independent-copy world semantics described in
    the module docstring.
    """

    def __init__(self, schema: RelationSchema,
                 data: Optional[Dict[RangeRow, Multiplicity]] = None) -> None:
        self.schema = schema
        self._names = schema.attribute_names
        self._data: Dict[RangeRow, Multiplicity] = {}
        if data:
            for ranges, multiplicity in data.items():
                self.add_bounded(ranges, multiplicity)

    # -- construction -------------------------------------------------------

    def add_row(self, values: Sequence[Any], lower: Optional[Sequence[Any]] = None,
                upper: Optional[Sequence[Any]] = None,
                multiplicity: Sequence[Any] = (1, 1, 1)) -> None:
        """Add a fragment from separate best-guess / lower / upper rows.

        ``values`` holds the best-guess attribute values; ``lower`` and
        ``upper`` default to ``values`` (a fully collapsed, value-certain
        tuple).  ``multiplicity`` is the ``(m_lb, m_bg, m_ub)`` triple.
        """
        values = self.schema.validate_row(values)
        lower = values if lower is None else self.schema.validate_row(lower)
        upper = values if upper is None else self.schema.validate_row(upper)
        self.add_bounded(tuple(zip(lower, values, upper)), multiplicity)

    def add_bounded(self, ranges: Sequence[Any],
                    multiplicity: Sequence[Any] = (1, 1, 1)) -> None:
        """Add a fragment given one range per attribute.

        Each element of ``ranges`` is either a ``(lower, best, upper)``
        triple or a plain scalar, which is treated as a collapsed range.
        Fragments with identical ranges merge by summing multiplicities.
        """
        if len(ranges) != self.schema.arity:
            raise RangeError(
                f"expected {self.schema.arity} ranges for "
                f"{self.schema.name!r}, got {len(ranges)}")
        checked = tuple(
            check_range(name, _coerce_range(value))
            for name, value in zip(self._names, ranges))
        triple = check_multiplicity(tuple(multiplicity))
        if triple[2] == 0:
            return
        current = self._data.get(checked)
        if current is not None:
            triple = (current[0] + triple[0], current[1] + triple[1],
                      current[2] + triple[2])
        self._data[checked] = triple

    @classmethod
    def from_ua_relation(cls, relation: "KRelation") -> "AttributeBoundsRelation":
        """Degenerate conversion of a tuple-level UA-relation.

        Every value range collapses to the stored value and the
        multiplicity triple becomes ``(certain, det, det)`` -- UA-DBs do
        not track an upper multiplicity bound, so the determinized world's
        count is taken as the sanctioned over-approximation.  The base
        annotations must be counts (N) or truth values (B).
        """
        result = cls(relation.schema)
        for row, annotation in relation.items():
            certain = _as_count(annotation.certain, "certain annotation")
            det = _as_count(annotation.determinized, "determinized annotation")
            result.add_bounded(tuple((v, v, v) for v in row),
                               (min(certain, det), det, det))
        return result

    # -- access -------------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of logical attributes."""
        return self.schema.arity

    def items(self) -> Iterator[Tuple[RangeRow, Multiplicity]]:
        """Iterate over ``(range-row, multiplicity-triple)`` fragments."""
        return iter(self._data.items())

    def __len__(self) -> int:
        """Number of distinct fragments."""
        return len(self._data)

    def is_empty(self) -> bool:
        """True when the relation holds no fragment."""
        return not self._data

    def bounded_rows(self) -> List[Tuple[RangeRow, Multiplicity]]:
        """All fragments, deterministically sorted for comparison and display."""
        return sorted(self._data.items(), key=lambda kv: _bounds_sort_key(kv[0]))

    def rows(self) -> List[Row]:
        """Distinct best-guess rows (fragments present in the best-guess world)."""
        seen = {tuple(r[1] for r in ranges)
                for ranges, (_, best, _) in self._data.items() if best >= 1}
        return sorted(seen, key=_row_sort_key)

    def best_guess_counts(self) -> Dict[Row, int]:
        """Best-guess world as a bag: row -> total multiplicity ``m_bg``."""
        counts: Dict[Row, int] = {}
        for ranges, (_, best, _) in self._data.items():
            if best >= 1:
                row = tuple(r[1] for r in ranges)
                counts[row] = counts.get(row, 0) + best
        return counts

    def certain_rows(self) -> List[Row]:
        """Rows of fragments that are certain: collapsed ranges and ``m_lb >= 1``."""
        seen = set()
        for ranges, (low, _, _) in self._data.items():
            if low >= 1 and all(r[0] == r[2] or r[0] is None for r in ranges):
                seen.add(tuple(r[1] for r in ranges))
        return sorted(seen, key=_row_sort_key)

    def certain_attributes(self) -> FrozenSet[str]:
        """Attributes whose every stored range is collapsed or all-NULL.

        Exact, from the data (one pass); an empty relation reports every
        attribute.  The range rewriter compiles such a column to its
        best-guess value alone.
        """
        names = self._names
        certain = set(range(len(names)))
        for ranges in self._data:
            certain.difference_update(
                [i for i in certain if ranges[i][0] != ranges[i][2]])
        return frozenset(names[i] for i in certain)

    def check_invariant(self) -> None:
        """Re-validate every fragment (ranges ordered, multiplicities ordered)."""
        for ranges, multiplicity in self._data.items():
            for name, bounds in zip(self._names, ranges):
                check_range(name, bounds)
            check_multiplicity(multiplicity)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeBoundsRelation):
            return NotImplemented
        return (self.schema.attribute_names == other.schema.attribute_names
                and self._data == other._data)

    def __repr__(self) -> str:
        return (f"<AttributeBoundsRelation {self.schema.name} "
                f"{len(self._data)} fragments>")

    def pretty(self, limit: int = 20) -> str:
        """Human-readable table: one line per fragment, ranges as ``[l,b,u]``."""
        header = list(self.schema.attribute_names) + ["m"]
        rows = []
        for ranges, multiplicity in self.bounded_rows():
            cells = [_format_range(r) for r in ranges]
            cells.append(_format_triple(multiplicity))
            rows.append(cells)
        return render_table(header, rows, limit, unit="fragments")


def _format_range(bounds: Range) -> str:
    lower, best, upper = bounds
    if lower == upper and lower is not None or (lower is None and upper is None):
        return repr(best)
    return f"[{lower!r}, {best!r}, {upper!r}]"


def _format_triple(triple: Multiplicity) -> str:
    low, best, high = triple
    if low == best == high:
        return repr(best)
    return f"[{low}, {best}, {high}]"


def _bounds_sort_key(ranges: RangeRow) -> Tuple:
    return tuple(_row_sort_key(bounds) for bounds in ranges)


# -- encoding ----------------------------------------------------------------

def attribute_encoded_schema(schema: RelationSchema,
                             name: Optional[str] = None) -> RelationSchema:
    """Encoded schema of a logical schema: value triples plus multiplicities.

    Each logical attribute ``A`` of type ``T`` expands to ``A``, ``A#lb``
    and ``A#ub`` (all of type ``T``); three INTEGER multiplicity columns
    ``#m_lb``/``#m_bg``/``#m_ub`` trail the row.
    """
    attributes: List[Attribute] = []
    for attribute in schema.attributes:
        attributes.append(Attribute(attribute.name, attribute.data_type))
        attributes.append(Attribute(attribute.name + LOWER_SUFFIX,
                                    attribute.data_type))
        attributes.append(Attribute(attribute.name + UPPER_SUFFIX,
                                    attribute.data_type))
    for column in MULTIPLICITY_COLUMNS:
        attributes.append(Attribute(column, DataType.INTEGER))
    return RelationSchema(name or schema.name, tuple(attributes))


def is_attribute_encoded(schema: RelationSchema) -> bool:
    """Structurally detect the attribute encoding (store reopen path).

    True when the trailing columns are exactly the multiplicity triple and
    the remaining columns come in ``A`` / ``A#lb`` / ``A#ub`` groups.  The
    ``#`` marker cannot be produced by the SQL ``CREATE TABLE`` surface,
    so stored UA relations never match.
    """
    names = schema.attribute_names
    if len(names) < 3 or tuple(names[-3:]) != MULTIPLICITY_COLUMNS:
        return False
    payload = names[:-3]
    if len(payload) % 3 != 0:
        return False
    for i in range(0, len(payload), 3):
        base = payload[i]
        if "#" in base:
            return False
        if payload[i + 1] != base + LOWER_SUFFIX:
            return False
        if payload[i + 2] != base + UPPER_SUFFIX:
            return False
    return True


def logical_schema_from_encoded(schema: RelationSchema,
                                name: Optional[str] = None) -> RelationSchema:
    """Recover the logical schema from an attribute-encoded one."""
    if not is_attribute_encoded(schema):
        raise RangeError(
            f"schema {schema.name!r} is not attribute-encoded: "
            f"{schema.attribute_names}")
    attributes = tuple(
        Attribute(schema.attributes[i].name, schema.attributes[i].data_type)
        for i in range(0, schema.arity - 3, 3))
    return RelationSchema(name or schema.name, attributes)


def encode_attribute_relation(relation: AttributeBoundsRelation,
                              semiring: Semiring = NATURAL,
                              name: Optional[str] = None) -> KRelation:
    """Flatten an attribute relation into an ordinary annotated relation.

    Each fragment becomes one row ``(A, A#lb, A#ub, ..., m_lb, m_bg,
    m_ub)`` annotated with the semiring's one; every engine then executes
    rewritten range plans over it like any other relation.
    """
    encoded = KRelation(attribute_encoded_schema(relation.schema, name), semiring)
    for ranges, multiplicity in relation.items():
        row: List[Any] = []
        for lower, best, upper in ranges:
            row.extend((best, lower, upper))
        row.extend(multiplicity)
        encoded.add(tuple(row), semiring.one)
    return encoded


def decode_attribute_relation(relation: KRelation,
                              attributes: Optional[Sequence[str]] = None,
                              name: Optional[str] = None) -> AttributeBoundsRelation:
    """Reassemble an :class:`AttributeBoundsRelation` from an encoded one.

    ``attributes`` names the logical columns positionally (query results
    use generated internal names); by default they are recovered from the
    encoded schema.  Fragments replicated by a semiring annotation ``n``
    fold in as ``n`` pointwise multiplicity additions.
    """
    if attributes is None:
        logical = logical_schema_from_encoded(relation.schema, name)
    else:
        unique = _dedupe_names(attributes)
        logical = RelationSchema(
            name or relation.schema.name,
            tuple(Attribute(n, DataType.ANY) for n in unique))
    if relation.schema.arity != 3 * logical.arity + 3:
        raise RangeError(
            f"encoded arity {relation.schema.arity} does not match "
            f"{logical.arity} logical attributes")
    result = AttributeBoundsRelation(logical)
    positions = range(0, 3 * logical.arity, 3)
    for row, annotation in relation.items():
        weight = annotation if isinstance(annotation, int) else 1
        weight = int(weight)
        if weight <= 0:
            continue
        ranges = tuple((row[i + 1], row[i], row[i + 2]) for i in positions)
        triple = row[-3:]
        if weight != 1:
            low, best, high = check_multiplicity(triple)
            triple = (weight * low, weight * best, weight * high)
        # add_bounded validates every range and the (weighted) triple.
        result.add_bounded(ranges, triple)
    return result


def _dedupe_names(names: Sequence[str]) -> List[str]:
    """Make result column names unique (``SELECT a, a`` style duplicates)."""
    seen: Dict[str, int] = {}
    unique: List[str] = []
    for column in names:
        key = column.lower()
        if key in seen:
            seen[key] += 1
            unique.append(f"{column}_{seen[key]}")
        else:
            seen[key] = 1
            unique.append(column)
    return unique
