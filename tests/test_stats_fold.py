"""Statistics equal a recount.

Every INSERT folds its rows into the table statistics and nothing
recollects behind the fold, so the fold has to be exact: after any sequence
of writes ``connection.stats`` must equal a fresh ``TableStats.collect`` of
each encoded relation -- row counts, null counts, min/max and the KMV
sketches, not approximately.  The fold persists in the same transaction as
the rows, so a reopen after the session's own writes recollects nothing;
and the persisted text, built from cached sketch encodings, is byte for
byte what ``json.dumps(..., sort_keys=True)`` of the statistics gives.
"""

from __future__ import annotations

import itertools
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.db.stats import SKETCH_SIZE, StatsCatalog, TableStats, _stable_hash

_keys = st.one_of(st.integers(0, 6), st.integers(-10**6, 10**6))
_rows = st.tuples(
    _keys,
    st.one_of(st.none(), st.sampled_from(["", "a", "b", "zz"])),
    st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 0.5, 2.5])),
    # An ANY column: mixed types defeat min/max in any order.
    st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["p", "q"])),
)

_steps = st.one_of(
    st.tuples(st.just("insert"), _rows),
    st.tuples(st.just("many"), st.lists(_rows, max_size=5)),
    st.tuples(st.just("load"), st.lists(_rows, max_size=8),
              st.sampled_from([None, "flag"])),
    # Enough distinct keys to saturate a sketch (exact set -> KMV).
    st.tuples(st.just("bulk"), st.integers(0, 400),
              st.sampled_from([40, SKETCH_SIZE + 60])),
    st.tuples(st.just("again"), st.integers(0, 10**6)),
    st.tuples(st.just("out_of_band"), _rows),
    st.tuples(st.just("other_table"), st.integers(0, 50)),
    st.tuples(st.just("reopen")),
)


def _recount(connection):
    """What a fresh collection over the session's relations reports."""
    catalog = StatsCatalog()
    for relation in connection.encoded:
        catalog.collect(relation)
    return catalog


def _assert_stats_equal_recount(connection) -> None:
    recount = _recount(connection)
    assert connection.stats.snapshot() == recount.snapshot()
    for relation in connection.encoded:
        name = relation.schema.name
        folded = connection.stats.table_stats(name)
        assert json.loads(folded.to_json()) \
            == json.loads(recount.table_stats(name).to_json())
        assert folded.fresh(relation)


def _open(path):
    if path is None:
        return repro.connect(engine="sqlite", name="stats-fold")
    return repro.connect(str(path), engine="sqlite", name="stats-fold")


def _run(steps, path) -> None:
    connection = _open(path)
    try:
        connection.execute("CREATE TABLE t (k INT, s STRING, x FLOAT, a ANY)")
        connection.execute("CREATE TABLE u (k INT)")
        written = []
        for number, step in enumerate(steps):
            kind, repaired = step[0], True
            if kind == "insert":
                connection.execute("INSERT INTO t VALUES (?, ?, ?, ?)", step[1])
                written.append(step[1])
            elif kind == "many":
                connection.executemany("INSERT INTO t VALUES (?, ?, ?, ?)",
                                       step[1])
                written.extend(step[1])
            elif kind == "load":
                connection.load("t", step[1], uncertainty=step[2])
                written.extend(step[1])
            elif kind == "bulk":
                connection.load("t", [(key, f"s{key % 9}", key * 0.5, key)
                                      for key in range(step[1], step[1] + step[2])])
            elif kind == "again" and written:
                # A tuple the relation already holds: only its multiplicity
                # moves, no statistic may.
                connection.execute("INSERT INTO t VALUES (?, ?, ?, ?)",
                                   written[step[1] % len(written)])
            elif kind == "out_of_band":
                connection.encoded.relation("t").add(step[1] + (1,))
                repaired = False
            elif kind == "other_table":
                connection.execute("INSERT INTO u VALUES (?)", [step[1]])
            elif kind == "reopen" and path is not None:
                connection.close()
                collected = []
                collect = TableStats.collect.__func__

                def counting(cls, relation):
                    collected.append(relation.schema.name)
                    return collect(cls, relation)

                with mock.patch.object(TableStats, "collect",
                                       classmethod(counting)):
                    connection = _open(path)
                # Rows and statistics committed together: nothing to redo.
                assert collected == []
            if not repaired:
                # An unreported mutation is repaired by the statistics' one
                # reader, EXPLAIN, and only there: a compile reads none.
                relation = connection.encoded.relation("t")
                connection.query(f"SELECT k FROM t WHERE k = {number}")
                assert not connection.stats.fresh(relation)
                connection.explain(f"SELECT k FROM t WHERE k = {number}")
            _assert_stats_equal_recount(connection)
    finally:
        connection.close()


@settings(max_examples=60, deadline=None)
@given(st.lists(_steps, max_size=10))
def test_memory_session_stats_equal_a_recount(steps):
    _run(steps, None)


@settings(max_examples=30, deadline=None)
@given(st.lists(_steps, max_size=10))
def test_store_session_stats_equal_a_recount(tmp_path_factory, steps):
    _run(steps, tmp_path_factory.mktemp("fold") / "fold.uadb")


_values = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                   st.floats(), st.text(max_size=3))
_folds = st.one_of(
    st.tuples(st.just("rows"),
              st.lists(st.tuples(_values, _values, _values), max_size=6)),
    # Distinct values until that column's sketch holds k hashes ...
    st.tuples(st.just("fill"), st.integers(0, 2)),
    # ... then one hashing at or above its largest: the hash set stays the
    # same, only the saturation flag flips.
    st.tuples(st.just("above"), st.integers(0, 2)),
)


def _dict_form(stats: TableStats) -> dict:
    return {"name": stats.name, "row_count": stats.row_count,
            "columns": [column.to_json() for column in stats.columns.values()]}


def _column_row(position: int, value) -> tuple:
    return tuple(value if index == position else None for index in range(3))


@settings(max_examples=60, deadline=None)
@given(st.lists(_folds, max_size=8))
def test_stats_text_is_byte_identical_to_json_dumps(folds):
    stats = TableStats("t", ["a", "b", "c"])
    columns = list(stats.columns.values())
    for kind, argument in folds:
        if kind == "rows":
            stats.update_rows(argument)
        elif kind == "fill":
            sketch = columns[argument].sketch
            filling = itertools.takewhile(
                lambda _: len(sketch.hashes) < SKETCH_SIZE,
                (f"fill{n}" for n in itertools.count()))
            stats.update_rows(_column_row(argument, value)
                              for value in filling)
        else:
            sketch = columns[argument].sketch
            if len(sketch.hashes) == SKETCH_SIZE:
                largest = max(sketch.hashes)
                value = next(n for n in range(10**6)
                             if _stable_hash(n) >= largest
                             and _stable_hash(n) not in sketch.hashes)
            else:
                value = "above"
            stats.update_rows([_column_row(argument, value)])
        # Encoded after every fold, so a stale cached sketch would show.
        text = stats.to_json()
        assert text == json.dumps(_dict_form(stats), sort_keys=True)
        assert TableStats.from_json(text).to_json() == text


def test_the_saturation_flag_alone_re_encodes_the_sketch():
    stats = TableStats("t", ["a"])
    sketch = stats.columns["a"].sketch
    stats.update_rows((n,) for n in range(SKETCH_SIZE))
    assert '"saturated": false' in stats.to_json()
    hashes = set(sketch.hashes)
    above = next(n for n in range(SKETCH_SIZE, 10**6)
                 if _stable_hash(n) > max(hashes))
    stats.update_rows([(above,)])
    assert sketch.hashes == hashes and sketch.saturated
    assert '"saturated": true' in stats.to_json()
    assert stats.to_json() == json.dumps(_dict_form(stats), sort_keys=True)


def test_a_write_after_an_unreported_mutation_leaves_the_repair_to_refresh():
    connection = repro.connect(engine="sqlite", name="stats-fold-stale")
    try:
        connection.execute("CREATE TABLE t (k INT)")
        connection.execute("INSERT INTO t VALUES (1)")
        relation = connection.encoded.relation("t")
        relation.add((7, 1))
        # Folding on top of statistics that miss a row and pinning the
        # result would hide the row from every later refresh.
        connection.execute("INSERT INTO t VALUES (2)")
        assert not connection.stats.fresh(relation)
        connection.explain("SELECT k FROM t")
        _assert_stats_equal_recount(connection)
        assert connection.stats.table_stats("t").row_count == 3
    finally:
        connection.close()


def test_failed_persistence_is_counted_and_logged_once(tmp_path, caplog):
    connection = repro.connect(str(tmp_path / "closed.uadb"), engine="sqlite")
    connection.execute("CREATE TABLE t (k INT)")
    catalog = connection.stats
    assert catalog.persist_failures == 0
    connection.close()
    with caplog.at_level("WARNING", logger="repro.db.stats"):
        catalog.update_rows("t", [(1, 1)])
        catalog.update_rows("t", [(2, 1)])
        catalog.reload()
    assert catalog.persist_failures == 3
    assert len([record for record in caplog.records
                if record.name == "repro.db.stats"]) == 1
    # The in-memory statistics stayed in use.
    assert catalog.table_stats("t").row_count == 2
