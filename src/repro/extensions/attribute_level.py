"""Attribute-level uncertainty annotations (finer-grained UA labels).

The paper labels whole tuples as certain or uncertain; its conclusion lists
"attribute level annotations to encode certainty at finer granularity" as
future work.  This module implements that extension:

* every best-guess tuple carries an :class:`AttributeLabel` consisting of an
  *existence* flag (the tuple appears in every possible world, possibly with
  different attribute values) and the set of *uncertain attributes* (whose
  value may differ between worlds),
* a tuple is *certain* exactly when it certainly exists and has no uncertain
  attribute -- which coincides with the paper's tuple-level labeling, so the
  model is backwards compatible,
* queries propagate both pieces of information.  The payoff is projection:
  projecting an uncertain tuple onto attributes that are individually certain
  yields a certain answer, eliminating exactly the false negatives the
  paper's Figure 15 experiment measures.

The labels produced by :meth:`AttributeUADatabase.from_xdb` are c-sound for
x-DBs: existence certainty requires a non-optional x-tuple and an attribute
is certain only when every alternative agrees on it, so any answer labeled
certain really does appear in every possible world.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.attribute_bounds import AttributeLabel
from repro.db import algebra
from repro.db.expressions import Expression, RowEnvironment
from repro.db.relation import Row, _row_sort_key
from repro.db.schema import Attribute, RelationSchema
from repro.incomplete.vtable import NamedNull, VTableDatabase
from repro.incomplete.xdb import XDatabase


class AttributeUARelation:
    """Best-guess rows labeled with attribute-level uncertainty."""

    def __init__(self, schema: RelationSchema,
                 data: Optional[Dict[Row, AttributeLabel]] = None) -> None:
        self.schema = schema
        self._data: Dict[Row, AttributeLabel] = {}
        for row, label in (data or {}).items():
            self.add_row(row, label)

    # -- construction ---------------------------------------------------------

    def add_row(self, values: Sequence[Any], label: AttributeLabel) -> None:
        """Add a best-guess row; duplicate rows keep the better label."""
        row = self.schema.validate_row(values)
        self._validate_label(label)
        existing = self._data.get(row)
        if existing is None or label.better_than(existing):
            self._data[row] = label

    def add_tuple(self, values: Sequence[Any], existence_certain: bool = False,
                  uncertain_attributes: Sequence[str] = ()) -> None:
        """Convenience wrapper building the label in place."""
        self.add_row(values, AttributeLabel(existence_certain, frozenset(uncertain_attributes)))

    def _validate_label(self, label: AttributeLabel) -> None:
        for attribute in label.uncertain_attributes:
            if not self.schema.has_attribute(attribute):
                raise ValueError(
                    f"label mentions unknown attribute {attribute!r} of "
                    f"relation {self.schema.name!r}"
                )

    # -- access ----------------------------------------------------------------

    def label(self, row: Sequence[Any]) -> Optional[AttributeLabel]:
        """The label of ``row`` (None if the row is absent)."""
        return self._data.get(tuple(row))

    def is_certain(self, row: Sequence[Any]) -> bool:
        """True if the exact row is labeled certain."""
        label = self.label(row)
        return label is not None and label.certain

    def rows(self) -> List[Row]:
        """All best-guess rows, in a deterministic order."""
        return sorted(self._data.keys(), key=_row_sort_key)

    def items(self) -> Iterator[Tuple[Row, AttributeLabel]]:
        """Iterate over ``(row, label)`` pairs."""
        return iter(self._data.items())

    def certain_rows(self) -> List[Row]:
        """Rows labeled certain (existence certain, no uncertain attribute)."""
        return [row for row, label in self._data.items() if label.certain]

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, row: Sequence[Any]) -> bool:
        return tuple(row) in self._data

    def __repr__(self) -> str:
        return f"<AttributeUARelation {self.schema.name} {len(self._data)} rows>"


class AttributeUADatabase:
    """A database of attribute-labeled best-guess relations."""

    def __init__(self, name: str = "attr_uadb") -> None:
        self.name = name
        self._relations: Dict[str, AttributeUARelation] = {}

    # -- population ---------------------------------------------------------------

    def add_relation(self, relation: AttributeUARelation) -> None:
        """Register a relation (case-insensitive name, must be fresh)."""
        key = relation.schema.name.lower()
        if key in self._relations:
            raise ValueError(f"relation {relation.schema.name!r} already exists")
        self._relations[key] = relation

    def create_relation(self, schema: RelationSchema) -> AttributeUARelation:
        """Create, register and return an empty relation."""
        relation = AttributeUARelation(schema)
        self.add_relation(relation)
        return relation

    def relation(self, name: str) -> AttributeUARelation:
        """Look up a relation by name."""
        return self._relations[name.lower()]

    def relation_names(self) -> Tuple[str, ...]:
        """Names of the registered relations."""
        return tuple(rel.schema.name for rel in self._relations.values())

    def __iter__(self) -> Iterator[AttributeUARelation]:
        return iter(self._relations.values())

    # -- labeling schemes ------------------------------------------------------------

    @classmethod
    def from_xdb(cls, xdb: XDatabase, name: Optional[str] = None) -> "AttributeUADatabase":
        """Attribute-level labeling of an x-DB's best-guess world.

        The best-guess alternative of every x-tuple becomes a row; attributes
        on which the alternatives disagree are marked uncertain and existence
        is certain exactly for non-optional x-tuples.
        """
        database = cls(name or f"{xdb.name}_attr_ua")
        for x_relation in xdb:
            relation = AttributeUARelation(x_relation.schema)
            attribute_names = x_relation.schema.attribute_names
            for x_tuple in x_relation:
                best = x_tuple.best_alternative()
                if best is None:
                    continue
                uncertain = frozenset(
                    attribute_names[index]
                    for index in range(len(attribute_names))
                    if any(alt[index] != best[index] for alt in x_tuple.alternatives)
                )
                relation.add_row(best, AttributeLabel(not x_tuple.optional, uncertain))
            database.add_relation(relation)
        return database

    @classmethod
    def from_vtable(cls, vtable_db: VTableDatabase, guesses: Optional[Dict[NamedNull, Any]] = None,
                    name: Optional[str] = None) -> "AttributeUADatabase":
        """Attribute-level labeling of a V-table / Codd table.

        Cells holding labeled nulls are uncertain attributes; ``guesses`` maps
        nulls to the best-guess value used in the materialized world (nulls
        without a guess stay as SQL NULL).
        """
        guesses = guesses or {}
        database = cls(name or f"{vtable_db.name}_attr_ua")
        for vtable in vtable_db:
            relation = AttributeUARelation(vtable.schema)
            attribute_names = vtable.schema.attribute_names
            for row in vtable:
                uncertain = frozenset(
                    attribute_names[index]
                    for index, value in enumerate(row)
                    if isinstance(value, NamedNull)
                )
                concrete = tuple(
                    guesses.get(value) if isinstance(value, NamedNull) else value
                    for value in row
                )
                relation.add_row(concrete, AttributeLabel(True, uncertain))
            database.add_relation(relation)
        return database

    # -- queries ------------------------------------------------------------------

    def query(self, plan: algebra.Operator) -> AttributeUARelation:
        """Evaluate a plan (selection, projection, join, cross, union, distinct)."""
        return _AttributeEvaluator(self).run(plan)

    def __repr__(self) -> str:
        return f"<AttributeUADatabase {self.name!r} {len(self._relations)} relations>"


class _AttributeEvaluator:
    """Evaluates algebra plans over attribute-labeled relations."""

    def __init__(self, database: AttributeUADatabase) -> None:
        self.database = database

    def run(self, plan: algebra.Operator) -> AttributeUARelation:
        method = getattr(self, f"_eval_{type(plan).__name__.lower()}", None)
        if method is None:
            raise ValueError(
                f"operator {type(plan).__name__} is not supported over "
                "attribute-labeled relations"
            )
        return method(plan)

    # -- leaves ---------------------------------------------------------------

    def _eval_relationref(self, plan: algebra.RelationRef) -> AttributeUARelation:
        relation = self.database.relation(plan.name)
        if plan.alias and plan.alias.lower() != plan.name.lower():
            renamed = AttributeUARelation(relation.schema.rename(plan.alias))
            for row, label in relation.items():
                renamed.add_row(row, label)
            return renamed
        return relation

    def _eval_qualify(self, plan: algebra.Qualify) -> AttributeUARelation:
        child = self.run(plan.child)
        attributes = [
            Attribute(f"{plan.qualifier}.{attr.name.split('.')[-1]}", attr.data_type)
            for attr in child.schema.attributes
        ]
        schema = RelationSchema(plan.qualifier, attributes)
        result = AttributeUARelation(schema)
        renames = dict(zip(child.schema.attribute_names, schema.attribute_names))
        for row, label in child.items():
            uncertain = frozenset(
                renames.get(attr, attr) for attr in label.uncertain_attributes
            )
            result.add_row(row, AttributeLabel(label.existence_certain, uncertain))
        return result

    # -- unary operators --------------------------------------------------------

    def _eval_selection(self, plan: algebra.Selection) -> AttributeUARelation:
        child = self.run(plan.child)
        names = child.schema.attribute_names
        referenced = _referenced_attributes(plan.predicate, names)
        result = AttributeUARelation(child.schema)
        for row, label in child.items():
            env = RowEnvironment(names, row)
            if plan.predicate.evaluate(env) is not True:
                continue
            # The predicate outcome could flip in another world if it reads an
            # uncertain attribute, so existence certainty requires certainty of
            # every referenced attribute.
            predicate_certain = all(label.attribute_certain(attr) for attr in referenced)
            result.add_row(row, AttributeLabel(
                label.existence_certain and predicate_certain,
                label.uncertain_attributes,
            ))
        return result

    def _eval_projection(self, plan: algebra.Projection) -> AttributeUARelation:
        child = self.run(plan.child)
        names = child.schema.attribute_names
        schema = RelationSchema(
            child.schema.name, [Attribute(name) for _, name in plan.items]
        )
        result = AttributeUARelation(schema)
        per_item_refs = [
            _referenced_attributes(expr, names) for expr, _ in plan.items
        ]
        for row, label in child.items():
            env = RowEnvironment(names, row)
            out_row = tuple(expr.evaluate(env) for expr, _ in plan.items)
            uncertain = frozenset(
                name for (expr, name), refs in zip(plan.items, per_item_refs)
                if any(not label.attribute_certain(attr) for attr in refs)
            )
            result.add_row(out_row, AttributeLabel(label.existence_certain, uncertain))
        return result

    def _eval_distinct(self, plan: algebra.Distinct) -> AttributeUARelation:
        # Rows are already de-duplicated; distinct is the identity here.
        return self.run(plan.child)

    # -- binary operators ---------------------------------------------------------

    def _eval_crossproduct(self, plan: algebra.CrossProduct) -> AttributeUARelation:
        return self._join(self.run(plan.left), self.run(plan.right), None)

    def _eval_join(self, plan: algebra.Join) -> AttributeUARelation:
        return self._join(self.run(plan.left), self.run(plan.right), plan.predicate)

    def _join(self, left: AttributeUARelation, right: AttributeUARelation,
              predicate: Optional[Expression]) -> AttributeUARelation:
        schema = left.schema.concat(right.schema)
        names = schema.attribute_names
        left_arity = left.schema.arity
        rename_left = dict(zip(left.schema.attribute_names, names[:left_arity]))
        rename_right = dict(zip(right.schema.attribute_names, names[left_arity:]))
        referenced = (
            _referenced_attributes(predicate, names) if predicate is not None else []
        )
        result = AttributeUARelation(schema)
        for left_row, left_label in left.items():
            for right_row, right_label in right.items():
                combined = left_row + right_row
                if predicate is not None:
                    if predicate.evaluate(RowEnvironment(names, combined)) is not True:
                        continue
                uncertain = frozenset(
                    {rename_left[a] for a in left_label.uncertain_attributes}
                    | {rename_right[a] for a in right_label.uncertain_attributes}
                )
                joined = AttributeLabel(
                    left_label.existence_certain and right_label.existence_certain,
                    uncertain,
                )
                if referenced and not all(joined.attribute_certain(a) for a in referenced):
                    joined = AttributeLabel(False, uncertain)
                result.add_row(combined, joined)
        return result

    def _eval_union(self, plan: algebra.Union) -> AttributeUARelation:
        left = self.run(plan.left)
        right = self.run(plan.right)
        if left.schema.arity != right.schema.arity:
            raise ValueError("UNION requires union-compatible schemas")
        result = AttributeUARelation(left.schema)
        for row, label in left.items():
            result.add_row(row, label)
        rename = dict(zip(right.schema.attribute_names, left.schema.attribute_names))
        for row, label in right.items():
            uncertain = frozenset(rename.get(a, a) for a in label.uncertain_attributes)
            result.add_row(row, AttributeLabel(label.existence_certain, uncertain))
        return result


def _referenced_attributes(expression: Optional[Expression],
                           names: Sequence[str]) -> List[str]:
    """Schema attribute names referenced by ``expression`` (resolved best-effort)."""
    if expression is None:
        return []
    resolved: List[str] = []
    full = {name.lower(): name for name in names}
    bases: Dict[str, List[str]] = {}
    for name in names:
        bases.setdefault(name.lower().split(".")[-1], []).append(name)
    for column in expression.columns():
        key = column.full_name.lower()
        if key in full:
            resolved.append(full[key])
            continue
        candidates = bases.get(column.name.lower().split(".")[-1], [])
        if len(candidates) == 1:
            resolved.append(candidates[0])
        else:
            # Ambiguous or unknown references conservatively taint everything
            # they might denote.
            resolved.extend(candidates)
    return resolved
