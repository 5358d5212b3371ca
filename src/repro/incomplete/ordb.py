"""OR-databases: attribute-level OR-sets (the model behind PDBench-style data).

An OR-relation stores one row per real-world entity; each attribute value is
either a constant or a finite *OR-set* of mutually exclusive candidate values
(optionally with probabilities).  A possible world picks one candidate per
OR-cell, independently across cells.  This is the model produced by the
PDBench generator the paper's Section 11.1 experiments use ("each uncertain
cell has up to 8 possible values") and by attribute-level data cleaning:
value imputation proposes several candidate repairs per dirty cell.

The model relates to the others as follows:

* every OR-tuple is present in every world (existence is never uncertain), so
  the paper's tuple-level labeling is *c-correct*: a row is certain iff none
  of its cells is an OR-set (Theorem 3 specialized to non-optional x-tuples),
* flattening the per-cell choices of one tuple into alternatives yields an
  x-tuple, so an OR-database converts to an x-DB (:meth:`ORDatabase.to_xdb`),
* keeping the choices per attribute gives the attribute-level (AU-DB) reading,
  one range per cell from its smallest to its largest candidate
  (:meth:`repro.core.attribute_bounds.AttributeBoundsRelation.from_ordb`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.db.database import Database
from repro.db.relation import KRelation, Row
from repro.db.schema import RelationSchema
from repro.semirings import BOOLEAN, Semiring
from repro.incomplete.worlds import IncompleteDatabase
from repro.incomplete.xdb import XDatabase, XTuple


@dataclass(frozen=True)
class OrSet:
    """A finite set of mutually exclusive candidate values for one cell."""

    values: Tuple[Any, ...]
    probabilities: Optional[Tuple[float, ...]] = None

    def __init__(self, values: Sequence[Any],
                 probabilities: Optional[Sequence[float]] = None) -> None:
        values = tuple(values)
        if not values:
            raise ValueError("an OR-set needs at least one candidate value")
        if probabilities is not None:
            probabilities = tuple(probabilities)
            if len(probabilities) != len(values):
                raise ValueError("need exactly one probability per candidate")
            total = sum(probabilities)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"candidate probabilities sum to {total}, not 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probabilities)

    @property
    def is_singleton(self) -> bool:
        """True if only one candidate exists (the cell is effectively certain)."""
        return len(self.values) == 1

    def best_value(self) -> Any:
        """The most probable candidate (the first one without probabilities)."""
        if self.probabilities is None:
            return self.values[0]
        index = max(range(len(self.values)), key=lambda i: self.probabilities[i])
        return self.values[index]

    def probability_of(self, value: Any) -> float:
        """The probability of one candidate (uniform without probabilities)."""
        if self.probabilities is None:
            return 1.0 / len(self.values) if value in self.values else 0.0
        for candidate, probability in zip(self.values, self.probabilities):
            if candidate == value:
                return probability
        return 0.0

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return "OR(" + ", ".join(repr(v) for v in self.values) + ")"


class ORTuple:
    """One row of an OR-relation: a mix of constants and :class:`OrSet` cells."""

    def __init__(self, cells: Sequence[Any]) -> None:
        self.cells: Tuple[Any, ...] = tuple(cells)

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.cells)

    def uncertain_positions(self) -> List[int]:
        """Indices of cells that are genuine (non-singleton) OR-sets."""
        return [
            index for index, cell in enumerate(self.cells)
            if isinstance(cell, OrSet) and not cell.is_singleton
        ]

    def is_certain(self) -> bool:
        """True if no cell offers more than one candidate."""
        return not self.uncertain_positions()

    def candidates(self, index: int) -> Tuple[Any, ...]:
        """The candidate values of the ``index``-th cell."""
        cell = self.cells[index]
        return cell.values if isinstance(cell, OrSet) else (cell,)

    def num_choices(self) -> int:
        """Number of distinct rows this tuple can take."""
        count = 1
        for index in range(self.arity):
            count *= len(self.candidates(index))
        return count

    def choices(self) -> Iterator[Row]:
        """Enumerate every concrete row this tuple can take."""
        for combination in itertools.product(
            *(self.candidates(index) for index in range(self.arity))
        ):
            yield tuple(combination)

    def best_guess(self) -> Row:
        """The most probable concrete row (cell-wise argmax)."""
        return tuple(
            cell.best_value() if isinstance(cell, OrSet) else cell
            for cell in self.cells
        )

    def row_probability(self, row: Sequence[Any]) -> float:
        """The probability of one concrete row (product of per-cell probabilities)."""
        probability = 1.0
        for cell, value in zip(self.cells, row):
            if isinstance(cell, OrSet):
                probability *= cell.probability_of(value)
            elif cell != value:
                return 0.0
        return probability

    def __repr__(self) -> str:
        return f"ORTuple({', '.join(repr(c) for c in self.cells)})"


class ORRelation:
    """A relation whose cells may hold OR-sets."""

    def __init__(self, schema: RelationSchema,
                 tuples: Optional[Sequence[ORTuple]] = None) -> None:
        self.schema = schema
        self.tuples: List[ORTuple] = []
        for or_tuple in tuples or []:
            self.add(or_tuple)

    def add(self, or_tuple: ORTuple) -> None:
        """Add an OR-tuple (arity checked; cell types are checked per candidate)."""
        if or_tuple.arity != self.schema.arity:
            raise ValueError(
                f"tuple has arity {or_tuple.arity}, relation "
                f"{self.schema.name!r} has arity {self.schema.arity}"
            )
        for attribute, cell in zip(self.schema.attributes, or_tuple.cells):
            candidates = cell.values if isinstance(cell, OrSet) else (cell,)
            for value in candidates:
                if not attribute.data_type.accepts(value):
                    raise ValueError(
                        f"candidate {value!r} is not a valid "
                        f"{attribute.data_type.value} for attribute {attribute.name!r}"
                    )
        self.tuples.append(or_tuple)

    def add_tuple(self, cells: Sequence[Any]) -> None:
        """Convenience wrapper: add a row given as a list of constants/OR-sets."""
        self.add(ORTuple(cells))

    def __iter__(self) -> Iterator[ORTuple]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def num_possible_worlds(self) -> int:
        """Product of per-tuple choice counts."""
        count = 1
        for or_tuple in self.tuples:
            count *= or_tuple.num_choices()
        return count

    def certain_tuples(self) -> List[ORTuple]:
        """Tuples without any genuine OR-set cell."""
        return [t for t in self.tuples if t.is_certain()]

    def uncertain_cell_fraction(self) -> float:
        """Fraction of cells that are genuine OR-sets (the PDBench knob)."""
        total = sum(t.arity for t in self.tuples)
        if total == 0:
            return 0.0
        uncertain = sum(len(t.uncertain_positions()) for t in self.tuples)
        return uncertain / total


class ORDatabase:
    """A database of OR-relations."""

    def __init__(self, name: str = "ordb") -> None:
        self.name = name
        self.relations: Dict[str, ORRelation] = {}

    # -- population ---------------------------------------------------------------

    def add_relation(self, relation: ORRelation) -> None:
        """Register an OR-relation."""
        key = relation.schema.name.lower()
        if key in self.relations:
            raise ValueError(f"relation {relation.schema.name!r} already exists")
        self.relations[key] = relation

    def create_relation(self, schema: RelationSchema) -> ORRelation:
        """Create, register and return an empty OR-relation."""
        relation = ORRelation(schema)
        self.add_relation(relation)
        return relation

    def relation(self, name: str) -> ORRelation:
        """Look up an OR-relation by name."""
        return self.relations[name.lower()]

    def relation_names(self) -> Tuple[str, ...]:
        """Names of the registered relations."""
        return tuple(rel.schema.name for rel in self.relations.values())

    def __iter__(self) -> Iterator[ORRelation]:
        return iter(self.relations.values())

    # -- possible world semantics --------------------------------------------------

    def num_possible_worlds(self) -> int:
        """Product of the per-relation world counts."""
        count = 1
        for relation in self.relations.values():
            count *= relation.num_possible_worlds()
        return count

    def possible_worlds(self, semiring: Semiring = BOOLEAN,
                        limit: int = 4096) -> IncompleteDatabase:
        """Enumerate all possible worlds (for small instances / tests)."""
        count = self.num_possible_worlds()
        if count > limit:
            raise ValueError(
                f"OR-database has {count} possible worlds, exceeding the limit of {limit}"
            )
        entries: List[Tuple[str, ORTuple]] = []
        for relation in self.relations.values():
            for or_tuple in relation.tuples:
                entries.append((relation.schema.name.lower(), or_tuple))
        worlds: List[Database] = []
        probabilities: List[float] = []
        choice_lists = [list(or_tuple.choices()) for _, or_tuple in entries]
        for combination in itertools.product(*choice_lists) if entries else [()]:
            world = Database(semiring, self.name)
            probability = 1.0
            chosen: Dict[str, List[Row]] = {}
            for (relation_name, or_tuple), row in zip(entries, combination):
                probability *= or_tuple.row_probability(row)
                chosen.setdefault(relation_name, []).append(row)
            for relation in self.relations.values():
                k_relation = KRelation(relation.schema, semiring)
                for row in chosen.get(relation.schema.name.lower(), []):
                    k_relation.add(row, semiring.one)
                world.add_relation(k_relation)
            worlds.append(world)
            probabilities.append(probability)
        if all(p == 0 for p in probabilities):
            probabilities = [1.0] * len(worlds)
        return IncompleteDatabase(worlds, probabilities)

    def best_guess_world(self, semiring: Semiring = BOOLEAN) -> Database:
        """The cell-wise most probable world."""
        world = Database(semiring, f"{self.name}_bg")
        for relation in self.relations.values():
            k_relation = KRelation(relation.schema, semiring)
            for or_tuple in relation.tuples:
                k_relation.add(or_tuple.best_guess(), semiring.one)
            world.add_relation(k_relation)
        return world

    # -- conversions ---------------------------------------------------------------

    def to_xdb(self, alternative_limit: int = 256) -> XDatabase:
        """Flatten per-cell choices into x-tuples (alternatives are disjoint).

        Raises ``ValueError`` if a single tuple would produce more than
        ``alternative_limit`` alternatives.
        """
        xdb = XDatabase(f"{self.name}_x")
        for relation in self.relations.values():
            x_relation = xdb.create_relation(relation.schema)
            for or_tuple in relation.tuples:
                count = or_tuple.num_choices()
                if count > alternative_limit:
                    raise ValueError(
                        f"OR-tuple expands to {count} alternatives, exceeding "
                        f"the limit of {alternative_limit}"
                    )
                alternatives = list(or_tuple.choices())
                probabilities = [or_tuple.row_probability(row) for row in alternatives]
                x_relation.add(XTuple(alternatives, probabilities))
            # relation registered by create_relation
        return xdb

    def __repr__(self) -> str:
        return f"<ORDatabase {self.name!r} {len(self.relations)} relations>"
