"""Read-after-write costs O(rows inserted), counted rather than timed.

The session's own INSERT advances every mirror of the table it wrote --
store table, statistics, the engine's in-memory mirror -- and no SELECT
plan depends on the data, so the next read, in either annotation mode,
compiles, recollects, reloads, decodes and encodes nothing, however many
rows the store holds: attribute mode reads the same ``Enc`` table, and
derives no copy of it.  Only a mutation nobody reported
(made on the relation object directly) is repaired by a rebuild, and only
of the table it touched.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import session as session_module
from repro.api.pool import ConnectionPool
from repro.core.attribute_bounds import (
    AttributeBoundsRelation, decode_attribute_relation,
)
from repro.core.uadb import UARelation
from repro.db.engine.sqlite import SQLiteEngine
from repro.db.relation import KRelation
from repro.db.schema import RelationSchema
from repro.db.stats import TableStats

EVENTS = [(key, f"k{key % 7}", key % 100) for key in range(300)]
OTHER = [(key, key % 13) for key in range(20_000)]
READ = "SELECT id, kind, v FROM events WHERE id = ?"


class _Counters:
    """Counts the whole-table rebuilds and conversions a read might
    trigger."""

    def __init__(self, monkeypatch, engine: SQLiteEngine) -> None:
        self.engine = engine
        self.collected = []
        self.encoded = []
        self.decoded = []
        collect = TableStats.collect.__func__
        encode = session_module.encode_attribute_relation
        decode = session_module.decode_relation

        def counting_collect(cls, relation):
            self.collected.append(relation.schema.name)
            return collect(cls, relation)

        def counting_encode(relation, *args, **kwargs):
            self.encoded.append((relation.schema.name, len(relation)))
            return encode(relation, *args, **kwargs)

        monkeypatch.setattr(TableStats, "collect",
                            classmethod(counting_collect))
        monkeypatch.setattr(session_module, "encode_attribute_relation",
                            counting_encode)
        monkeypatch.setattr(session_module, "decode_relation",
                            lambda relation, *args, **kwargs:
                            self.decoded.append(relation.schema.name)
                            or decode(relation, *args, **kwargs))
        self.reset()

    def reset(self) -> None:
        self.collected.clear()
        self.encoded.clear()
        self.decoded.clear()
        self.loads = self.engine.stats()["table_loads"]

    @property
    def table_loads(self) -> int:
        return self.engine.stats()["table_loads"] - self.loads


def _open(path, annotation, engine, name="raw"):
    if path is None:
        return repro.connect(engine=engine, annotation=annotation, name=name)
    return repro.connect(str(path), engine=engine, annotation=annotation,
                         name=name)


def _answer(connection, sql=READ, params=None):
    result = connection.query(sql, params)
    if connection.annotation == "attribute":
        return result.bounded_rows()
    return result.labeled_rows()


@pytest.fixture(params=["memory", "store"])
def path(request, tmp_path):
    return None if request.param == "memory" else tmp_path / "raw.uadb"


@pytest.fixture(params=["tuple", "attribute"])
def session(request, path, monkeypatch):
    engine = SQLiteEngine()
    connection = _open(path, request.param, engine)
    connection.execute("CREATE TABLE events (id INT, kind STRING, v INT)")
    connection.execute("CREATE TABLE other (id INT, w INT)")
    connection.load("events", EVENTS)
    connection.load("other", OTHER)
    # Warm both tables' mirrors and the read's plan.
    assert len(connection.query("SELECT id FROM other WHERE w = 3")) > 0
    assert len(_answer(connection, params=[5])) == 1
    yield connection, _Counters(monkeypatch, engine)
    connection.close()


def test_own_insert_then_read_rebuilds_nothing(session, path):
    connection, counters = session
    written = list(EVENTS)
    held = connection.query("SELECT id FROM events WHERE id >= 299")

    def assert_appended() -> None:
        assert counters.collected == []
        assert counters.table_loads == 0
        assert counters.encoded == counters.decoded == []
        counters.reset()

    connection.execute("INSERT INTO events VALUES (?, ?, ?)", [300, "new", 0])
    written.append((300, "new", 0))
    assert connection.query(READ, [300]).rows() == [(300, "new", 0)]
    assert_appended()

    batch = [(key, "batch", key % 100) for key in range(301, 306)]
    connection.executemany("INSERT INTO events VALUES (?, ?, ?)", batch)
    written.extend(batch)
    assert len(_answer(connection, params=[305])) == 1
    assert_appended()

    connection.load("events", [(306, None, 1)], uncertainty="flag")
    written.append((306, None, 1))
    assert connection.query(READ, [306]).certain_rows() == []
    assert_appended()

    # Results are snapshots: what was read before the writes still reads so.
    assert held.rows() == [(299,)]
    assert connection.query("SELECT id FROM events WHERE id >= 299").rows() \
        == [(key,) for key in range(299, 307)]

    # Read-your-write equals a fresh session over the same rows.
    fresh = _open(path, connection.annotation, SQLiteEngine(), name="fresh")
    try:
        if path is None:
            fresh.execute("CREATE TABLE events (id INT, kind STRING, v INT)")
            fresh.load("events", written, uncertainty="flag")
        scan = "SELECT id, kind, v FROM events"
        assert _answer(connection, scan) == _answer(fresh, scan)
        assert connection.stats.snapshot()["events"] \
            == fresh.stats.snapshot()["events"]
    finally:
        fresh.close()


def test_unreported_mutation_rebuilds_that_table_once(session):
    connection, counters = session
    row = (400, "side", 4)
    # Behind the session's back, on the session's one copy of the table.
    connection.encoded.relation("events").add(row + (1,))
    sql = "SELECT id, kind FROM events WHERE id = 400"
    assert len(_answer(connection, sql)) == 1
    # The read rebuilds the engine's mirror; statistics have one reader,
    # EXPLAIN, which recollects them.
    assert counters.collected == []
    assert counters.table_loads == 1
    assert counters.encoded == counters.decoded == []
    connection.explain(sql)
    assert counters.collected == ["events"]
    counters.reset()
    # Repaired once: the next reads, and the next write, are back to free.
    assert len(_answer(connection, sql)) == 1
    connection.explain(sql)
    connection.execute("INSERT INTO events VALUES (?, ?, ?)", [401, "new", 1])
    assert len(_answer(connection, params=[401])) == 1
    assert counters.collected == []
    assert counters.table_loads == 0
    assert counters.encoded == counters.decoded == []


def test_raised_multiplicity_rederives_nothing(monkeypatch):
    engine = SQLiteEngine()
    connection = repro.connect(engine=engine, annotation="attribute")
    try:
        connection.execute("CREATE TABLE r (a INT)")
        connection.execute("CREATE TABLE s (a INT)")
        connection.executemany("INSERT INTO r VALUES (?)", [(1,), (2,)])
        connection.executemany("INSERT INTO s VALUES (?)", [(1,), (2,)])
        assert connection.query("SELECT r.a FROM r, s WHERE r.a = s.a") \
            .bounded_rows() == [(((1, 1, 1),), (1, 1, 1)),
                                (((2, 2, 2),), (1, 1, 1))]
        counters = _Counters(monkeypatch, engine)
        # A second copy of a stored tuple raises its ``Enc`` row's
        # annotation, which attribute mode reads as the fragment's weight.
        connection.execute("INSERT INTO r VALUES (2)")
        assert connection.query("SELECT a FROM r").bounded_rows() \
            == [(((1, 1, 1),), (1, 1, 1)), (((2, 2, 2),), (2, 2, 2))]
        assert counters.encoded == counters.decoded == []
        assert counters.collected == []
        assert counters.table_loads == 0
    finally:
        connection.close()


def test_store_backed_attribute_reads_attach_to_the_file(tmp_path,
                                                         monkeypatch):
    """Attribute mode over a store reads the store file, a UA table and a
    native one alike: no table is loaded into SQLite, derived or decoded."""
    engine = SQLiteEngine()
    connection = repro.connect(str(tmp_path / "attach.uadb"), engine=engine,
                               name="attach")
    try:
        connection.execute("CREATE TABLE events (id INT, kind STRING, v INT)")
        connection.load("events", EVENTS)
        bounds = AttributeBoundsRelation(RelationSchema("bounds", ["id", "w"]))
        bounds.add_row((5, 1), lower=(5, 0), upper=(5, 2))
        connection.register_attribute_relation(bounds)
        # Attach the engine to the store file (its load counter then reads
        # the store's, which counted the tables written so far).
        assert len(connection.query("SELECT id FROM events WHERE id = 0")) == 1
        counters = _Counters(monkeypatch, engine)
        assert connection.query_bounds(READ, [5]).bounded_rows() \
            == [(((5, 5, 5), ("k5", "k5", "k5"), (5, 5, 5)), (1, 1, 1))]
        assert connection.query_bounds("SELECT id, w FROM bounds") \
            .bounded_rows() == [(((5, 5, 5), (0, 1, 2)), (1, 1, 1))]
        connection.execute("INSERT INTO events VALUES (?, ?, ?)",
                           [300, "new", 5])
        assert connection.query_bounds(
            "SELECT kind, w FROM events, bounds WHERE events.v = bounds.id"
        ).bounded_rows() == [(((kind,) * 3, (0, 1, 2)), (1, 1, 1))
                             for kind in ("k0", "k2", "k5", "new")]
        assert counters.table_loads == 0
        assert counters.encoded == counters.decoded == []
    finally:
        connection.close()


@pytest.mark.parametrize("path", ["memory", "store"], indirect=True)
def test_tuple_mode_writes_and_reads_build_no_decoded_relation(path,
                                                               monkeypatch):
    """The encoded table is the session's one copy: writing to it and
    reading it back never decodes it."""
    connection = _open(path, "tuple", SQLiteEngine())
    try:
        connection.execute("CREATE TABLE events (id INT, kind STRING, v INT)")
        connection.load("events", EVENTS)
        built = []
        decode = session_module.decode_relation
        monkeypatch.setattr(session_module, "decode_relation",
                            lambda *args, **kwargs:
                            built.append(args) or decode(*args, **kwargs))
        construct = UARelation.__init__
        monkeypatch.setattr(UARelation, "__init__",
                            lambda self, *args, **kwargs:
                            built.append(self) or construct(self, *args,
                                                            **kwargs))
        insert = connection.prepare("INSERT INTO events VALUES (?, ?, ?)")
        read = connection.prepare(READ)
        for key in range(300, 310):
            insert.execute([key, "new", 1])
            assert read.execute([key]).labeled_rows() \
                == [((key, "new", 1), True)]
        assert built == []
    finally:
        connection.close()


@pytest.mark.parametrize("engine", ["row", "sqlite"])
def test_insert_adds_each_row_once(engine, monkeypatch):
    connection = repro.connect(engine=engine)
    try:
        connection.execute("CREATE TABLE t (a INT, b INT)")
        added = []
        add = KRelation.add_validated
        monkeypatch.setattr(KRelation, "add_validated",
                            lambda self, row, annotation=None:
                            added.append(row) or add(self, row, annotation))
        connection.executemany("INSERT INTO t VALUES (?, ?)",
                               [(1, 1), (2, 2), (2, 2)])
        connection.execute("INSERT INTO t VALUES (3, 3)")
        assert added == [(1, 1, 1), (2, 2, 1), (2, 2, 1), (3, 3, 1)]
        assert connection.query("SELECT a FROM t").rows() \
            == [(1,), (2,), (3,)]
    finally:
        connection.close()


def _counting_parses(monkeypatch) -> list:
    parsed = []
    parse = session_module.parse_statement
    monkeypatch.setattr(session_module, "parse_statement",
                        lambda sql: parsed.append(sql) or parse(sql))
    return parsed


def _insert_then_read(writer, reader, mode, monkeypatch, turns=20) -> None:
    """After a warm-up, ``turns`` prepared INSERTs each followed by a read
    of the new row parse once per INSERT and never for a read."""
    writer.execute("CREATE TABLE events (id INT, kind STRING, v INT)")
    writer.load("events", EVENTS)
    insert = writer.prepare("INSERT INTO events VALUES (?, ?, ?)")
    read = reader.prepare(READ, mode)
    insert.execute([299_999, "warm", 0])
    assert read.execute([299_999]).rows() == [(299_999, "warm", 0)]
    parsed = _counting_parses(monkeypatch)
    for key in range(1_000, 1_000 + turns):
        insert.execute([key, "new", key % 100])
        assert read.execute([key]).rows() == [(key, "new", key % 100)]
        assert read.execute([key % 300]).rows() == [EVENTS[key % 300]]
    assert len(parsed) == turns
    assert set(parsed) == {"INSERT INTO events VALUES (?, ?, ?)"}


@pytest.mark.parametrize("annotation", ["tuple", "attribute"])
@pytest.mark.parametrize("engine", ["row", "columnar", "sqlite"])
def test_a_read_after_a_write_compiles_nothing(engine, annotation, path,
                                               monkeypatch):
    """A SELECT plan depends on no statistics and no data version, so a
    write leaves it cached: the read after it is one plan-cache probe."""
    connection = _open(path, annotation, engine)
    try:
        _insert_then_read(connection, connection,
                          "attribute" if annotation == "attribute"
                          else "rewritten", monkeypatch)
    finally:
        connection.close()


def test_a_pooled_read_after_a_pooled_write_compiles_nothing(path,
                                                             monkeypatch):
    """Two handles of one pool share one plan cache: one handle's write
    leaves the other handle's read cached."""
    pool = ConnectionPool(None if path is None else str(path),
                          engine="sqlite", max_connections=2)
    try:
        with pool.connection() as writer, pool.connection() as reader:
            _insert_then_read(writer, reader, "rewritten", monkeypatch)
    finally:
        pool.close()


@pytest.mark.parametrize("engine", ["row", "columnar", "sqlite"])
def test_a_moved_certain_map_recompiles_the_attribute_plan(engine):
    """A cached range plan is compiled under the native tables' certain
    map; a mutation that widens a range moves the map and recompiles it,
    so the bounds keep covering every world."""
    connection = repro.connect(engine=engine, annotation="attribute")
    try:
        r = AttributeBoundsRelation(RelationSchema("r", ["k"]))
        r.add_row((1,))
        r.add_row((2,))
        connection.register_attribute_relation(r)
        connection.execute("CREATE TABLE s (k INT)")
        connection.execute("INSERT INTO s VALUES (5)")
        sql = "SELECT s.k FROM r, s WHERE r.k = s.k"
        assert connection.query_bounds(sql).bounded_rows() == []
        # Behind the session's back: r's key may now be 4, 5 or 6.
        connection.encoded.relation("r").add((4, 4, 6, 1, 1, 1))
        expected = [(((5, 5, 5),), (0, 0, 1))]
        assert connection.query_bounds(sql).bounded_rows() == expected
        with repro.connect(engine=engine) as fresh:
            fresh.register_attribute_relation(
                decode_attribute_relation(connection.encoded.relation("r")))
            fresh.execute("CREATE TABLE s (k INT)")
            fresh.execute("INSERT INTO s VALUES (5)")
            assert fresh.query_bounds(sql).bounded_rows() == expected
    finally:
        connection.close()
