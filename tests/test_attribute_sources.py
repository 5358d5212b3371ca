"""x-DB and OR-DB sources as range relations, checked against the model's worlds.

``AttributeBoundsRelation.from_xdb`` / ``from_ordb`` turn each x-tuple or
OR-tuple into one fragment of ``[min, best, max]`` ranges.  For small random
sources and a fixed set of SQL queries (projection, selection, equi-join,
DISTINCT, UNION ALL), on every engine:

* **coverage**: every possible world of the *source model*, enumerated under
  bag semantics (``NATURAL``, so two x-tuples picking the same row stay two
  tuples), answers a bag that the ``query_bounds`` fragments cover
  (:func:`differential.covered`);
* **soundness**: every ``certain_rows()`` row is in every world's answer;
* **best guess**: the answer's best-guess rows are the tuple-level ones;
* **AU vs UA**: without DISTINCT, the attribute level certifies every row the
  tuple-level labels (``register_xdb`` / ``register_ordb``) certify.  Under
  DISTINCT it need not: merging duplicates can widen a certain fragment.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from differential import covered
from repro.core.attribute_bounds import AttributeBoundsRelation
from repro.db.evaluator import evaluate
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.db.sql.parser import parse_statement
from repro.db.sql.translator import translate
from repro.incomplete import ORDatabase, OrSet, XDatabase
from repro.semirings import NATURAL

ENGINES = ("row", "columnar", "sqlite")

SCHEMAS = (
    RelationSchema("r", [Attribute("k", DataType.INTEGER),
                         Attribute("a", DataType.INTEGER),
                         Attribute("b", DataType.INTEGER)]),
    RelationSchema("s", [Attribute("b", DataType.INTEGER),
                         Attribute("e", DataType.INTEGER)]),
)

QUERIES = (
    "SELECT a FROM r",
    "SELECT k, b FROM r",
    "SELECT k, a, b FROM r WHERE a >= 1",
    "SELECT r.k, s.e FROM r, s WHERE r.b = s.b",
    "SELECT b FROM r UNION ALL SELECT b FROM s",
    "SELECT DISTINCT b FROM r",
    "SELECT DISTINCT r.a FROM r, s WHERE r.b = s.b",
)

_values = st.integers(min_value=0, max_value=2)


@st.composite
def random_xdbs(draw) -> XDatabase:
    """Two small x-relations; a column is NULL in every alternative or in none."""
    xdb = XDatabase("random")
    for schema, max_tuples in zip(SCHEMAS, (3, 2)):
        relation = xdb.create_relation(schema)
        for _ in range(draw(st.integers(min_value=1, max_value=max_tuples))):
            nulls = [draw(st.integers(0, 5)) == 0 for _ in range(schema.arity)]
            alternatives = [
                tuple(None if null else draw(_values) for null in nulls)
                for _ in range(draw(st.integers(min_value=1, max_value=2)))]
            probabilities = None
            if draw(st.booleans()):
                share = draw(st.sampled_from([0.2, 0.3, 0.5]))
                probabilities = [share] * len(alternatives)
            relation.add_alternatives(alternatives, probabilities,
                                      optional=draw(st.booleans()))
    return xdb


@st.composite
def random_ordbs(draw) -> ORDatabase:
    """Two small OR-relations with constant and OR-set cells; at most four
    OR-sets in all, so that the worlds stay few enough to enumerate."""
    ordb = ORDatabase("random")
    or_sets = 4
    for schema, max_tuples in zip(SCHEMAS, (3, 2)):
        relation = ordb.create_relation(schema)
        for _ in range(draw(st.integers(min_value=1, max_value=max_tuples))):
            cells = []
            for _ in range(schema.arity):
                if or_sets and draw(st.booleans()):
                    or_sets -= 1
                    cells.append(OrSet(draw(st.lists(
                        _values, min_size=2, max_size=3, unique=True))))
                else:
                    cells.append(draw(_values))
            relation.add_tuple(cells)
    return ordb


def _world_answers(source) -> Dict[str, List[Dict[Tuple, int]]]:
    """Per query, the bag answer in every possible world of ``source``."""
    worlds = source.possible_worlds(NATURAL).worlds
    answers = {}
    for sql in QUERIES:
        plan = translate(parse_statement(sql), worlds[0].schema)
        answers[sql] = [dict(evaluate(plan, world, engine="row",
                                      optimize=False).items())
                        for world in worlds]
    return answers


def _check_source(source, relations, register_tuple_level) -> None:
    worlds = _world_answers(source)
    for engine in ENGINES:
        with repro.connect(engine=engine) as attribute, \
                repro.connect(engine=engine) as tuple_level:
            for relation in relations:
                attribute.register_attribute_relation(relation)
            register_tuple_level(tuple_level)
            for sql in QUERIES:
                result = attribute.query_bounds(sql)
                fragments = result.bounded_rows()
                certain = result.certain_rows()
                for answer in worlds[sql]:
                    assert covered(answer, fragments), (engine, sql, answer)
                    assert all(answer.get(row, 0) >= 1 for row in certain), (
                        engine, sql, answer)
                ua = tuple_level.query(sql)
                assert result.rows() == ua.rows(), (engine, sql)
                assert set(ua.certain_rows()) <= set(certain), (engine, sql)


@settings(max_examples=20, deadline=None)
@given(random_xdbs())
def test_xdb_answers_cover_every_world(xdb):
    _check_source(xdb, [AttributeBoundsRelation.from_xdb(x) for x in xdb],
                  lambda conn: conn.register_xdb(xdb))


@settings(max_examples=20, deadline=None)
@given(random_ordbs())
def test_ordb_answers_cover_every_world(ordb):
    _check_source(ordb, [AttributeBoundsRelation.from_ordb(r) for r in ordb],
                  lambda conn: conn.register_ordb(ordb))
