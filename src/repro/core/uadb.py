"""UA-relations and UA-databases (Section 5 of the paper).

A UA-database annotates every tuple with a pair ``[c, d]`` from the
UA-semiring K^2: ``d`` is the tuple's annotation in one designated best-guess
world and ``c`` under-approximates its certain annotation.  Queries evaluated
with ordinary K-relational semantics (component-wise on the pairs) preserve
both bounds (Theorem 4), so a UA-DB is closed under RA+.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.db import algebra
from repro.db.database import Database
from repro.db.evaluator import evaluate
from repro.db.relation import KRelation, Row
from repro.db.schema import RelationSchema
from repro.semirings import BOOLEAN, NATURAL, Semiring
from repro.semirings.ua import UAAnnotation, UASemiring
from repro.incomplete.ctable import CTableDatabase
from repro.incomplete.kw_database import KWDatabase
from repro.incomplete.tidb import TIDatabase
from repro.incomplete.worlds import IncompleteDatabase
from repro.incomplete.xdb import XDatabase


class UARelation(KRelation):
    """A K_UA-relation: every tuple carries a ``[certain, best-guess]`` pair."""

    def __init__(self, schema: RelationSchema, ua_semiring: UASemiring,
                 data: Optional[dict] = None) -> None:
        super().__init__(schema, ua_semiring, data)

    @property
    def ua_semiring(self) -> UASemiring:
        """The UA-semiring of this relation."""
        return self.semiring  # type: ignore[return-value]

    @property
    def base_semiring(self) -> Semiring:
        """The underlying semiring K."""
        return self.ua_semiring.base

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_world_and_labeling(cls, world: KRelation, labeling: KRelation,
                                clamp: bool = True) -> "UARelation":
        """Combine a best-guess world with an uncertainty labeling.

        ``clamp=True`` (the default) intersects the labeling with the world
        so the invariant ``c <= d`` holds even when the labeling certifies a
        tuple that the chosen world omits -- the situation the paper resolves
        by only labeling tuples of the best-guess world.
        """
        if world.semiring != labeling.semiring:
            raise ValueError("world and labeling must use the same semiring")
        base = world.semiring
        ua_semiring = UASemiring(base)
        result = cls(world.schema, ua_semiring)
        for row, determinized in world.items():
            certain = labeling.annotation(row)
            if clamp and not base.leq(certain, determinized):
                certain = base.glb(certain, determinized)
            result.set_annotation(row, ua_semiring.annotation(certain, determinized))
        return result

    def add_tuple(self, values: Sequence[Any], certain: Any = None,
                  determinized: Any = None) -> None:
        """Add a tuple with explicit components (defaults: uncertain, 1_K)."""
        base = self.base_semiring
        determinized = base.one if determinized is None else determinized
        certain = base.zero if certain is None else certain
        self.add(values, self.ua_semiring.annotation(certain, determinized))

    # -- inspection -------------------------------------------------------------

    def certain_component(self, row: Sequence[Any]) -> Any:
        """The under-approximation component ``c`` of a row."""
        annotation = self.annotation(row)
        if self.semiring.is_zero(annotation):
            return self.base_semiring.zero
        return annotation.certain

    def determinized_component(self, row: Sequence[Any]) -> Any:
        """The best-guess-world component ``d`` of a row."""
        annotation = self.annotation(row)
        if self.semiring.is_zero(annotation):
            return self.base_semiring.zero
        return annotation.determinized

    def is_certain(self, row: Sequence[Any]) -> bool:
        """True if the row is labeled certain (non-zero ``c`` component)."""
        return not self.base_semiring.is_zero(self.certain_component(row))

    def certain_rows(self) -> List[Row]:
        """Rows labeled as certain."""
        is_zero = self.base_semiring.is_zero
        return [row for row, annotation in self.items()
                if not is_zero(annotation.certain)]

    def uncertain_rows(self) -> List[Row]:
        """Rows present in the best-guess world but not labeled certain."""
        is_zero = self.base_semiring.is_zero
        return [row for row, annotation in self.items()
                if is_zero(annotation.certain)]

    def labeled_rows(self) -> List[Tuple[Row, bool]]:
        """``(row, certain?)`` pairs, sorted for stable output."""
        is_zero = self.base_semiring.is_zero
        data = self._data
        return [(row, not is_zero(data[row].certain)) for row in self.to_rows()]

    def best_guess_relation(self) -> KRelation:
        """The best-guess world component as a plain K-relation (``h_det``)."""
        return self.map_annotations(self.ua_semiring.h_det)

    def labeling_relation(self) -> KRelation:
        """The under-approximation component as a plain K-relation (``h_cert``)."""
        return self.map_annotations(self.ua_semiring.h_cert)

    def check_invariant(self) -> bool:
        """Verify ``c <=_K d`` for every tuple."""
        base = self.base_semiring
        return all(
            base.leq(annotation.certain, annotation.determinized)
            for _, annotation in self.items()
        )


class UADatabase:
    """A database of UA-relations over a shared base semiring."""

    def __init__(self, base_semiring: Semiring = NATURAL, name: str = "uadb",
                 engine: Optional[object] = None) -> None:
        self.base_semiring = base_semiring
        self.ua_semiring = UASemiring(base_semiring)
        self.database = Database(self.ua_semiring, name, engine=engine)
        self.name = name

    @property
    def engine(self) -> Optional[object]:
        """Default execution engine for direct K_UA queries."""
        return self.database.engine

    @engine.setter
    def engine(self, engine: Optional[object]) -> None:
        self.database.engine = engine

    # -- population ---------------------------------------------------------------

    def add_relation(self, relation: UARelation, replace: bool = False) -> None:
        """Register a UA-relation (``replace=True`` swaps an existing one)."""
        self.database.add_relation(relation, replace=replace)

    def create_relation(self, schema: RelationSchema) -> UARelation:
        """Create, register and return an empty UA-relation."""
        relation = UARelation(schema, self.ua_semiring)
        self.database.add_relation(relation)
        return relation

    def relation(self, name: str) -> UARelation:
        """Look up a UA-relation by name."""
        return self.database.relation(name)  # type: ignore[return-value]

    def relation_names(self) -> Tuple[str, ...]:
        """Names of the registered relations."""
        return self.database.relation_names()

    def __iter__(self) -> Iterator[KRelation]:
        return iter(self.database)

    def __len__(self) -> int:
        return len(self.database)

    # -- construction from uncertain data models -------------------------------------

    @classmethod
    def from_world_and_labeling(cls, world: Database, labeling: Database,
                                name: str = "uadb") -> "UADatabase":
        """Build a UA-DB encoding the pair ``(labeling, world)``."""
        uadb = cls(world.semiring, name)
        for relation in world:
            label_relation = (
                labeling.relation(relation.schema.name)
                if relation.schema.name in labeling
                else KRelation(relation.schema, world.semiring)
            )
            uadb.add_relation(
                UARelation.from_world_and_labeling(relation, label_relation)
            )
        return uadb

    @classmethod
    def from_tidb(cls, tidb: TIDatabase, semiring: Semiring = BOOLEAN,
                  name: Optional[str] = None) -> "UADatabase":
        """Best-guess world + ``label_TI-DB`` labeling (c-correct)."""
        from repro.core.labeling import label_tidb

        world = tidb.best_guess_world(semiring)
        labeling = label_tidb(tidb, semiring)
        return cls.from_world_and_labeling(world, labeling, name or f"{tidb.name}_ua")

    @classmethod
    def from_xdb(cls, xdb: XDatabase, semiring: Semiring = BOOLEAN,
                 name: Optional[str] = None,
                 world: Optional[Database] = None) -> "UADatabase":
        """Best-guess world + ``label_x-DB`` labeling (c-correct).

        ``world`` overrides the best-guess world, e.g. to use a random-guess
        world for the Figure 18 utility experiment.
        """
        from repro.core.labeling import label_xdb

        world = world or xdb.best_guess_world(semiring)
        labeling = label_xdb(xdb, semiring)
        return cls.from_world_and_labeling(world, labeling, name or f"{xdb.name}_ua")

    @classmethod
    def from_ordb(cls, ordb, semiring: Semiring = BOOLEAN,
                  name: Optional[str] = None) -> "UADatabase":
        """Best-guess world + ``label_ordb`` labeling (c-correct) for an OR-database."""
        from repro.core.labeling import label_ordb

        world = ordb.best_guess_world(semiring)
        labeling = label_ordb(ordb, semiring)
        return cls.from_world_and_labeling(world, labeling, name or f"{ordb.name}_ua")

    @classmethod
    def from_ctable(cls, ctable_db: CTableDatabase, semiring: Semiring = BOOLEAN,
                    name: Optional[str] = None) -> "UADatabase":
        """Best-guess world + ``label_C-table`` labeling (c-sound)."""
        from repro.core.labeling import label_ctable

        world = ctable_db.best_guess_world(semiring)
        labeling = label_ctable(ctable_db, semiring)
        return cls.from_world_and_labeling(world, labeling, name or f"{ctable_db.name}_ua")

    @classmethod
    def from_kw(cls, kwdb: KWDatabase, world_index: Optional[int] = None,
                name: Optional[str] = None) -> "UADatabase":
        """Designated world + exact labeling computed from a K^W database."""
        from repro.core.labeling import label_kw_exact

        index = kwdb.best_guess_index() if world_index is None else world_index
        world = kwdb.world(index)
        labeling = label_kw_exact(kwdb)
        return cls.from_world_and_labeling(world, labeling, name or f"{kwdb.name}_ua")

    @classmethod
    def from_incomplete(cls, incomplete: IncompleteDatabase,
                        world_index: Optional[int] = None,
                        name: str = "uadb") -> "UADatabase":
        """Designated world + exact labeling from an explicit possible-world DB."""
        kwdb = KWDatabase.from_incomplete(incomplete)
        return cls.from_kw(kwdb, world_index, name)

    # -- queries ------------------------------------------------------------------

    def query(self, plan: algebra.Operator, engine: Optional[object] = None,
              optimize: Optional[bool] = None) -> UARelation:
        """Evaluate an algebra plan directly with K_UA semantics.

        ``engine`` and ``optimize`` override the database default and the
        optimizer toggle for this call (see :func:`repro.db.evaluator.evaluate`).
        """
        result = evaluate(plan, self.database, engine=engine, optimize=optimize)
        return UARelation._from_validated(
            result.schema, self.ua_semiring, dict(result.items())
        )

    def sql(self, query: str, engine: Optional[object] = None,
            optimize: Optional[bool] = None) -> UARelation:
        """Parse and evaluate a SQL query with K_UA semantics."""
        from repro.db.sql import parse_query

        plan = parse_query(query, self.database.schema)
        return self.query(plan, engine=engine, optimize=optimize)

    # -- views --------------------------------------------------------------------

    def best_guess_database(self) -> Database:
        """The best-guess world of every relation (``h_det``)."""
        return self.database.map_annotations(self.ua_semiring.h_det, f"{self.name}_bgw")

    def labeling_database(self) -> Database:
        """The labeling component of every relation (``h_cert``)."""
        return self.database.map_annotations(self.ua_semiring.h_cert, f"{self.name}_labeling")

    def __repr__(self) -> str:
        return (
            f"<UADatabase {self.name!r} [{self.ua_semiring.name}] "
            f"{len(self.database)} relations>"
        )
