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

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, Iterator, List, Optional,
    Sequence, Tuple,
)

from repro.db.relation import KRelation, Row, _row_sort_key, render_table
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.semirings import NATURAL, Semiring

if TYPE_CHECKING:
    from repro.incomplete.ordb import ORRelation
    from repro.incomplete.xdb import XRelation

__all__ = [
    "AttributeBoundsRelation",
    "AttributeLabel",
    "LOWER_SUFFIX",
    "MULTIPLICITY_COLUMNS",
    "RangeError",
    "UPPER_SUFFIX",
    "attribute_encoded_schema",
    "decode_attribute_relation",
    "encode_attribute_relation",
    "fragment_certain",
    "is_attribute_encoded",
    "logical_schema_from_encoded",
    "read_attribute_fragments",
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
#: A fragment as a reader hands it on: best-guess row, multiplicity triple,
#: and the ranges of the columns that are carried as triples.
Fragment = Tuple[Row, Multiplicity, Tuple[Range, ...]]


class RangeError(ValueError):
    """An attribute range or multiplicity triple violates its invariant."""


@dataclass(frozen=True)
class AttributeLabel:
    """Uncertainty label of one best-guess tuple.

    ``existence_certain`` states that the tuple (as an entity) appears in
    every possible world; ``uncertain_attributes`` lists the attributes whose
    value may differ across worlds.
    """

    existence_certain: bool
    uncertain_attributes: FrozenSet[str] = frozenset()

    @property
    def certain(self) -> bool:
        """True when the exact tuple is a certain answer."""
        return self.existence_certain and not self.uncertain_attributes

    def attribute_certain(self, name: str) -> bool:
        """True when the attribute's value is the same in every world."""
        name = name.lower()
        return all(a.lower() != name for a in self.uncertain_attributes)


#: The shared labels of rows without an uncertain attribute, by existence flag.
_CLOSED_LABELS = {flag: AttributeLabel(flag) for flag in (False, True)}


def fragment_certain(low: int, ranges: Iterable[Range]) -> bool:
    """Whether a fragment is a certain answer: present in every world
    (``m_lb = low >= 1``) with every range collapsed or all-NULL."""
    if low < 1:
        return False
    for lower, _, upper in ranges:
        if lower != upper and lower is not None:
            return False
    return True


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
    low, best, high = multiplicity
    # Plain ints ordered above a non-negative m_lb need no coercion: the
    # common case, checked per fragment of every answer.
    if not type(low) is type(best) is type(high) is int or low < 0:
        low = _as_count(low, "m_lb")
        best = _as_count(best, "m_bg")
        high = _as_count(high, "m_ub")
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


def _candidate_range(relation: str, name: str, values: Sequence[Any],
                     best: Any) -> Range:
    """The ``(min, best, max)`` range of one cell's candidate values."""
    if any(value is None for value in values):
        if any(value is not None for value in values):
            raise RangeError(
                f"relation {relation!r}, attribute {name!r}: candidates "
                f"{tuple(values)!r} mix NULL and non-NULL values")
        return (None, None, None)
    try:
        return (min(values), best, max(values))
    except TypeError as exc:
        raise RangeError(
            f"relation {relation!r}, attribute {name!r}: candidates "
            f"{tuple(values)!r} are not comparable") from exc


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
        self._merge(checked, check_multiplicity(tuple(multiplicity)))

    def _merge(self, checked: RangeRow, triple: Multiplicity) -> None:
        if triple[2] == 0:
            return
        current = self._data.get(checked)
        if current is not None:
            triple = (current[0] + triple[0], current[1] + triple[1],
                      current[2] + triple[2])
        self._data[checked] = triple

    @classmethod
    def _from_fragments(cls, schema: RelationSchema, fragments: Iterable[Fragment],
                        widths: Sequence[int]) -> "AttributeBoundsRelation":
        """Assemble what :func:`read_attribute_fragments` validated; a column
        carried once has the collapsed range of its value."""
        result = cls(schema)
        for row, triple, ranges in fragments:
            wide = iter(ranges)
            result._merge(tuple([
                next(wide) if width == 3 else (value, value, value)
                for value, width in zip(row, widths)]), triple)
        return result

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

    @classmethod
    def from_xdb(cls, x_relation: "XRelation") -> "AttributeBoundsRelation":
        """The AU-DB reading of an x-relation: one fragment per x-tuple.

        Each attribute's range spans the x-tuple's alternatives, from the
        smallest value to the largest, around the value of
        ``best_alternative()``.  The multiplicity triple is ``(0 if
        optional else 1, 1 if a best alternative is chosen else 0, 1)``; an
        x-tuple that the best-guess world omits still needs best values for
        its ranges and takes its first alternative's.  A cell whose
        alternatives mix NULL and non-NULL values has no range and raises
        :class:`RangeError`.
        """
        schema = x_relation.schema
        result = cls(schema)
        for x_tuple in x_relation:
            best = x_tuple.best_alternative()
            guess = x_tuple.alternatives[0] if best is None else best
            result.add_bounded(
                [_candidate_range(schema.name, name, values, value)
                 for name, values, value in zip(
                     schema.attribute_names, zip(*x_tuple.alternatives), guess)],
                (0 if x_tuple.optional else 1, 0 if best is None else 1, 1))
        return result

    @classmethod
    def from_ordb(cls, or_relation: "ORRelation") -> "AttributeBoundsRelation":
        """The AU-DB reading of an OR-relation: one certainly present
        fragment per OR-tuple, each cell ranging over its candidates around
        the best-guess candidate (:meth:`from_xdb` for the NULL rule)."""
        schema = or_relation.schema
        result = cls(schema)
        for or_tuple in or_relation:
            result.add_bounded(
                [_candidate_range(schema.name, name, or_tuple.candidates(i), value)
                 for i, (name, value) in enumerate(
                     zip(schema.attribute_names, or_tuple.best_guess()))],
                (1, 1, 1))
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
        """Rows of fragments that are certain (:func:`fragment_certain`)."""
        seen = {tuple(r[1] for r in ranges)
                for ranges, (low, _, _) in self._data.items()
                if fragment_certain(low, ranges)}
        return sorted(seen, key=_row_sort_key)

    def labeled_rows(self) -> List[Tuple[Row, AttributeLabel]]:
        """Best-guess rows paired with their labels, sorted.

        A row that some certain fragment produces (:func:`fragment_certain`)
        is labelled certain, as :meth:`certain_rows` reports it.  Any other
        row merges the fragments that produce it in the best-guess world:
        ``existence_certain`` requires some producing fragment to be
        certainly present (``m_lb >= 1``), and an attribute is uncertain
        when any producing fragment's range for it is not collapsed.
        """
        return label_fragments(
            ((tuple([r[1] for r in ranges]), multiplicity, ranges)
             for ranges, multiplicity in self._data.items()), self._names)

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


def label_fragments(fragments: Iterable[Fragment],
                    names: Sequence[str]) -> List[Tuple[Row, AttributeLabel]]:
    """Merge fragments by best-guess row into sorted ``(row, label)`` pairs;
    ``names`` are the attributes each fragment's ranges stand for, in order.
    A row some certain fragment produces is certain; see
    :meth:`AttributeBoundsRelation.labeled_rows`."""
    # Per row: 0 -- no producing fragment is certainly present, 1 -- some
    # is, 2 -- some is a certain answer (then its open names are moot).
    state: Dict[Row, int] = {}
    open_names: Dict[Row, set] = {}
    for row, (low, best, _high), ranges in fragments:
        if best < 1:
            continue
        seen = state.get(row, 0)
        if seen == 2:
            continue
        if fragment_certain(low, ranges):
            state[row] = 2
            continue
        state[row] = 1 if low >= 1 else seen
        for name, (lower, _best, upper) in zip(names, ranges):
            if lower != upper:
                open_names.setdefault(row, set()).add(name)
    labels = []
    for row in sorted(state, key=_row_sort_key):
        seen = state[row]
        labels.append((row, AttributeLabel(seen == 1, frozenset(open_names[row]))
                       if seen < 2 and row in open_names
                       else _CLOSED_LABELS[seen >= 1]))
    return labels


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


def read_attribute_fragments(relation: KRelation, names: Sequence[str],
                             widths: Sequence[int]) -> Iterator[Fragment]:
    """Walk an encoded answer once, validating everything that is read.

    Column ``names[i]`` occupies ``widths[i]`` encoded positions: 3 for a
    ``best, lower, upper`` triple, 1 for a column carried once (nothing to
    compare).  Yields per encoded row its best-guess row, its multiplicity
    triple scaled by the row's semiring annotation ``n`` (``n`` independent
    fragments) and the range of each triple column, in order; a malformed
    triple of either kind raises :class:`RangeError`.
    """
    if relation.schema.arity != sum(widths) + 3:
        raise RangeError(
            f"encoded arity {relation.schema.arity} does not match "
            f"{len(widths)} logical attributes of widths {tuple(widths)}")
    starts = [sum(widths[:i]) for i in range(len(widths))]
    wide = [(name, start)
            for name, start, width in zip(names, starts, widths) if width == 3]
    for row, annotation in relation.items():
        weight = int(annotation) if isinstance(annotation, int) else 1
        if weight <= 0:
            continue
        triple = check_multiplicity(row[-3:])
        if weight != 1:
            triple = (weight * triple[0], weight * triple[1], weight * triple[2])
        if not wide:
            yield row[:-3], triple, ()
            continue
        yield (tuple([row[i] for i in starts]), triple,
               tuple([check_range(name, (row[i + 1], row[i], row[i + 2]))
                      for name, i in wide]))


def answer_schema(attributes: Sequence[str], name: str) -> RelationSchema:
    """Logical schema of an answer whose columns are named positionally;
    repeated names are made unique (``a``, ``a_2``)."""
    seen: Dict[str, int] = {}
    unique: List[Attribute] = []
    for column in attributes:
        count = seen[column.lower()] = seen.get(column.lower(), 0) + 1
        unique.append(Attribute(
            column if count == 1 else f"{column}_{count}", DataType.ANY))
    return RelationSchema(name, tuple(unique))


def decode_attribute_relation(relation: KRelation,
                              attributes: Optional[Sequence[str]] = None,
                              name: Optional[str] = None,
                              widths: Optional[Sequence[int]] = None,
                              ) -> AttributeBoundsRelation:
    """Reassemble an :class:`AttributeBoundsRelation` from an encoded one.

    ``attributes`` names the logical columns positionally (query results
    use generated internal names); by default they are recovered from the
    encoded schema.  ``widths`` gives the encoded positions of each column
    (``AttributeRewrite.widths``); by default every column is a triple --
    stored relations, and plans rewritten without a certainty map.
    Fragments replicated by a semiring annotation ``n`` fold in as ``n``
    pointwise multiplicity additions.
    """
    if attributes is None:
        logical = logical_schema_from_encoded(relation.schema, name)
    else:
        logical = answer_schema(attributes, name or relation.schema.name)
    if widths is None:
        widths = (3,) * logical.arity
    return AttributeBoundsRelation._from_fragments(
        logical, read_attribute_fragments(
            relation, logical.attribute_names, widths), widths)
