"""Persistence tests: the on-disk ``.uadb`` store (repro.api.store).

Round-trips (register/insert -> close -> reopen must reproduce bit-identical
``Enc`` contents, schemas and semiring metadata), incremental-append
coherence with the SQLite engine's fingerprints, crash recovery (a store
abandoned by a dying process reopens readable, checked through a real
subprocess), and the typed :class:`StoreError` surface for missing, corrupt
and foreign files.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys

import pytest

import repro
from repro.api import session as session_module
from repro.api.store import StoreError, UADBStore, UnstorableRelationError
from repro.core.attribute_bounds import AttributeBoundsRelation
from repro.core.encoding import schema_from_metadata, schema_to_metadata
from repro.db.relation import KRelation
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.incomplete import TIDatabase
from repro.semirings import BOOLEAN, FUZZY, NATURAL

ENGINES = ("row", "columnar", "sqlite")


def _tidb():
    tidb = TIDatabase("readings")
    readings = tidb.create_relation(
        RelationSchema("readings", ["sensor", "temp"])
    )
    readings.add(("s1", 71), probability=1.0)
    readings.add(("s2", 64), probability=0.7)
    readings.add(("s3", 99), probability=0.4)
    return tidb


# -- round-trips ----------------------------------------------------------------


def test_register_insert_close_reopen_bit_identical(tmp_path):
    path = str(tmp_path / "roundtrip.uadb")
    conn = repro.connect(path, engine="sqlite")
    conn.register_tidb(_tidb())
    conn.execute("CREATE TABLE t (a INT, b TEXT)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(1, "x"), (2, "y")])
    conn.execute("INSERT INTO t (b, a) VALUES (:b, :a)", {"a": 3, "b": "z"})
    snapshot = {
        name: (rel.schema, dict(rel.items()))
        for name, rel in (
            (r.schema.name, r) for r in conn.encoded
        )
    }
    version = conn.catalog_version
    conn.close()

    reopened = repro.connect(path)
    assert reopened.semiring.name == NATURAL.name  # semiring metadata round-trip
    assert reopened.catalog_version == version
    assert set(reopened.uadb.relation_names()) == {"readings", "t"}
    for name, (schema, items) in snapshot.items():
        relation = reopened.encoded.relation(name)
        assert relation.schema == schema          # names, order, types
        assert dict(relation.items()) == items    # bit-identical Enc contents
    # The UA view decodes identically: labels survive the round-trip.
    result = reopened.query("SELECT sensor FROM readings")
    assert sorted(result.certain_rows()) == [("s1",)]
    # s2 (p=0.7) is best-guess but uncertain; s3 (p=0.4) is not best-guess.
    assert result.uncertain_rows() == [("s2",)]
    reopened.close()


def test_reopen_loads_the_encoded_tables_and_decodes_nothing(tmp_path,
                                                             monkeypatch):
    path = str(tmp_path / "one-copy.uadb")
    conn = repro.connect(path)
    conn.register_tidb(_tidb())
    bounds = AttributeBoundsRelation(RelationSchema("r", ["k", "v"]))
    bounds.add_row((1, 5), lower=(1, 4), upper=(1, 9))
    conn.register_attribute_relation(bounds)
    listed = conn.tables()
    conn.close()
    decoded = []
    for name in ("decode_relation", "decode_attribute_relation"):
        original = getattr(session_module, name)
        monkeypatch.setattr(session_module, name,
                            lambda *args, _f=original, **kwargs:
                            decoded.append(args) or _f(*args, **kwargs))
    reopened = repro.connect(path)
    assert reopened.tables() == listed
    assert [schema.name for schema in reopened.attribute_catalog] \
        == ["r", "readings"]
    assert decoded == []
    # The view decodes on first read, and only then.
    assert sorted(reopened.uadb.relation("readings").rows()) \
        == [("s1", 71), ("s2", 64)]
    assert len(decoded) == 1
    reopened.uadb
    assert len(decoded) == 1
    reopened.close()


def test_reopen_adopts_persisted_semiring(tmp_path):
    path = str(tmp_path / "sets.uadb")
    conn = repro.connect(path, semiring=BOOLEAN)
    conn.execute("CREATE TABLE t (a INT)")
    conn.execute("INSERT INTO t VALUES (1)")
    conn.close()
    reopened = repro.connect(path)
    assert reopened.semiring.name == BOOLEAN.name
    assert reopened.query("SELECT a FROM t").rows() == [(1,)]
    reopened.close()


def test_semiring_mismatch_raises_store_error(tmp_path):
    path = str(tmp_path / "n.uadb")
    repro.connect(path).close()  # creates an N store
    with pytest.raises(StoreError, match="semiring"):
        repro.connect(path, semiring=BOOLEAN)


def test_unsupported_semiring_raises_store_error(tmp_path):
    with pytest.raises(StoreError, match="cannot be persisted"):
        repro.connect(str(tmp_path / "fuzzy.uadb"), semiring=FUZZY)


def test_schema_metadata_round_trip():
    schema = RelationSchema("t", [
        Attribute("a", DataType.INTEGER),
        Attribute("B", DataType.STRING),
        Attribute("c_float", DataType.FLOAT),
        Attribute("flag", DataType.BOOLEAN),
        Attribute("anything", DataType.ANY),
    ])
    assert schema_from_metadata(schema_to_metadata(schema)) == schema
    with pytest.raises(ValueError, match="malformed"):
        schema_from_metadata("{\"nope\": 1}")


# -- incremental append coherence ----------------------------------------------


def test_insert_appends_without_table_reload(tmp_path):
    path = str(tmp_path / "append.uadb")
    conn = repro.connect(path, engine="sqlite")
    conn.execute("CREATE TABLE t (a INT)")
    loads_after_create = conn.store.loads
    assert conn.query("SELECT a FROM t").rows() == []
    for value in range(5):
        conn.execute("INSERT INTO t VALUES (?)", [value])
        # Fingerprints stay coherent: the loaded table mirrors the relation.
        assert conn.store.fresh(conn.encoded.relation("t"))
    assert len(conn.query("SELECT a FROM t").rows()) == 5
    assert conn.store.appends == 5
    # The insert path never rewrote the table wholesale.
    assert conn.store.loads == loads_after_create
    conn.close()


def test_out_of_band_mutation_triggers_one_rewrite(tmp_path):
    path = str(tmp_path / "oob.uadb")
    conn = repro.connect(path, engine="sqlite")
    conn.execute("CREATE TABLE t (a INT)")
    conn.execute("INSERT INTO t VALUES (1)")
    loads_before = conn.store.loads
    # Mutate the encoded relation behind the session's back.
    conn.encoded.relation("t").add((7, 1), 1)
    assert not conn.store.fresh(conn.encoded.relation("t"))
    rows = conn.query("SELECT a FROM t").rows()
    assert sorted(rows) == [(1,), (7,)]
    assert conn.store.loads == loads_before + 1  # one rewrite restored sync
    conn.close()
    reopened = repro.connect(path)
    assert sorted(reopened.query("SELECT a FROM t").rows()) == [(1,), (7,)]
    reopened.close()


def test_sync_with_clean_snapshot_never_clobbers_foreign_appends(tmp_path):
    """A stale-identity but unmutated relation must not trigger a rewrite.

    The fleet refresh replaces catalog objects with freshly loaded copies
    while lock-free engine syncs may still hold the previous object.  That
    previous object is a clean snapshot of persisted state -- at most
    *behind* the stored table when another process appended in the
    meantime.  Rewriting from it would silently delete the foreign rows
    (the bulk-load lost-chunk bug); sync must recognize the snapshot and
    leave the table alone.
    """
    path = str(tmp_path / "snapshot.uadb")
    conn = repro.connect(path, engine="sqlite")
    conn.execute("CREATE TABLE t (a INT)")
    conn.executemany("INSERT INTO t VALUES (?)", [(1,), (2,)])
    old = conn.encoded.relation("t")

    # A second process appends a row to the same store file.
    foreign = repro.connect(path)
    foreign.execute("INSERT INTO t VALUES (3)")
    foreign.close()

    # The refresh path replaces the fingerprint with a freshly loaded copy;
    # ``old`` is now a stale identity but still an unmodified snapshot.
    conn.store.load_relation("t")
    loads_before = conn.store.loads
    assert conn.store.sync("t", old) is False
    assert conn.store.loads == loads_before
    reloaded = conn.store.load_relation("t")
    assert sorted(row for row, _ in reloaded.items()) == [
        (1, 1), (2, 1), (3, 1)]

    # A genuine out-of-band mutation still restores coherence by rewriting.
    old.add((7, 1), 1)
    assert conn.store.sync("t", old) is True
    conn.close()


def test_wal_mode_is_active(tmp_path):
    path = str(tmp_path / "wal.uadb")
    conn = repro.connect(path)
    mode = conn.store.connection().execute("PRAGMA journal_mode").fetchone()[0]
    assert mode == "wal"
    conn.close()


# -- crash recovery (subprocess) -----------------------------------------------


_CHILD_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
import repro

conn = repro.connect({path!r}, engine="sqlite")
conn.register_tidb_placeholder = None
conn.execute("CREATE TABLE t (a INT, b TEXT)")
conn.executemany("INSERT INTO t VALUES (?, ?)", [(1, "x"), (2, "y"), (2, "y")])
result = conn.query("SELECT a, b FROM t WHERE a >= 1")
print(repr(sorted(result.labeled_rows())))
sys.stdout.flush()
# Simulate a crash: exit without closing the connection or the store.
os._exit(0)
"""


def test_abandoned_process_store_reopens_identically(tmp_path):
    """A store written by one process is reopened by another.

    The child never closes its connection (``os._exit``), leaving WAL/SHM
    files behind; the parent must still reopen it and every engine must
    reproduce the child's exact labeled results.
    """
    path = str(tmp_path / "crash.uadb")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    child = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT.format(src=src, path=path)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    expected = child.stdout.strip()
    assert expected, child.stderr
    for engine in ENGINES:
        conn = repro.connect(path, engine=engine, name=f"reopen-{engine}")
        result = conn.query("SELECT a, b FROM t WHERE a >= 1")
        assert repr(sorted(result.labeled_rows())) == expected, engine
        conn.close()


# -- typed errors ----------------------------------------------------------------


def test_missing_parent_directory_raises_store_error(tmp_path):
    with pytest.raises(StoreError, match="cannot open"):
        repro.connect(str(tmp_path / "no" / "such" / "dir" / "x.uadb"))


def test_create_false_on_missing_store_raises(tmp_path):
    with pytest.raises(StoreError, match="no UA-DB store"):
        repro.connect(str(tmp_path / "missing.uadb"), create=False)


def test_corrupt_file_raises_store_error(tmp_path):
    path = tmp_path / "corrupt.uadb"
    path.write_bytes(b"this is definitely not a sqlite database file......")
    with pytest.raises(StoreError, match="not a UA-DB store"):
        repro.connect(str(path))


def test_foreign_sqlite_file_raises_store_error(tmp_path):
    path = str(tmp_path / "foreign.db")
    with sqlite3.connect(path) as connection:
        connection.execute("CREATE TABLE someone_elses_data (x)")
    with pytest.raises(StoreError, match="not a UA-DB store"):
        repro.connect(path)
    # ... and the foreign file was not touched.
    with sqlite3.connect(path) as connection:
        names = {row[0] for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )}
    assert names == {"someone_elses_data"}


def test_closed_store_raises_store_error(tmp_path):
    conn = repro.connect(str(tmp_path / "closed.uadb"))
    store = conn.store
    conn.close()
    with pytest.raises(StoreError, match="closed"):
        store.connection()


def test_failed_rewrite_rolls_back_and_store_stays_openable(tmp_path):
    """A bad in-memory mutation must never destroy durable data.

    An out-of-band mutation with an unbindable value makes the sync rewrite
    fail mid-write; the rewrite must roll back to the previously persisted
    table (not drop it), so queries fall back to columnar *and* a later
    process reopens the store with the last good contents.
    """
    path = str(tmp_path / "rollback.uadb")
    conn = repro.connect(path, engine="sqlite")
    conn.execute("CREATE TABLE t (a ANY)")
    conn.execute("INSERT INTO t VALUES (1)")
    # Out-of-band: a value SQLite cannot bind (beyond 64-bit integers).
    conn.encoded.relation("t").add((2 ** 70, 1), 1)
    # The query still answers (columnar fallback reads the memory relation).
    assert sorted(conn.query("SELECT a FROM t").rows()) == [(1,), (2 ** 70,)]
    conn.close()
    # ... and the store still opens, with the last successfully stored rows.
    reopened = repro.connect(path)
    assert reopened.query("SELECT a FROM t").rows() == [(1,)]
    reopened.close()


def test_store_instance_with_conflicting_semiring_raises(tmp_path):
    store = UADBStore(str(tmp_path / "inst.uadb"), semiring=NATURAL)
    with pytest.raises(StoreError, match="semiring"):
        repro.connect(store, semiring=BOOLEAN)
    # The matching semiring (and None) are fine.
    repro.connect(store, semiring=NATURAL).close()
    repro.connect(store).close()
    store.close()


def test_unstorable_relation_raises_typed_error(tmp_path):
    path = str(tmp_path / "unstorable.uadb")
    conn = repro.connect(path)
    bad = KRelation(RelationSchema("bad", [Attribute("a", DataType.ANY)]), NATURAL)
    bad.add(((1, 2, 3),), 1)  # a tuple value: SQLite cannot bind it
    with pytest.raises(UnstorableRelationError):
        conn.register_deterministic(bad)
    conn.close()


def test_failed_registration_leaves_no_state(tmp_path):
    """A refused registration must be invisible: nothing registered, nothing
    stored, and the same name registers cleanly afterwards."""
    path = str(tmp_path / "atomic-register.uadb")
    conn = repro.connect(path)
    bad = KRelation(RelationSchema("w", [Attribute("a", DataType.ANY)]), NATURAL)
    bad.add(((1, 2),), 1)
    with pytest.raises(UnstorableRelationError):
        conn.register_deterministic(bad)
    assert "w" not in conn.uadb.database          # not half-registered
    assert "w" not in conn.encoded
    good = KRelation(RelationSchema("w", [Attribute("a", DataType.ANY)]), NATURAL)
    good.add((1,), 1)
    conn.register_deterministic(good)             # retryable, same name
    assert conn.query("SELECT a FROM w").rows() == [(1,)]
    conn.close()
    reopened = repro.connect(path)
    assert reopened.query("SELECT a FROM w").rows() == [(1,)]
    reopened.close()


def test_failed_insert_leaves_no_state(tmp_path):
    """A refused INSERT (unbindable value) must change nothing anywhere.

    The store writes ahead of the in-memory mutation, so the raise implies
    the row is in neither the memory relations nor the file -- and later
    INSERTs into the same table keep working and persisting.
    """
    path = str(tmp_path / "atomic-insert.uadb")
    conn = repro.connect(path)
    conn.execute("CREATE TABLE t (a ANY)")
    conn.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(UnstorableRelationError):
        conn.execute(f"INSERT INTO t VALUES ({2 ** 70})")
    assert conn.query("SELECT a FROM t").rows() == [(1,)]  # memory unchanged
    conn.execute("INSERT INTO t VALUES (2)")               # table not poisoned
    assert sorted(conn.query("SELECT a FROM t").rows()) == [(1,), (2,)]
    conn.close()
    reopened = repro.connect(path)
    assert sorted(reopened.query("SELECT a FROM t").rows()) == [(1,), (2,)]
    reopened.close()


def test_connect_rejects_both_store_forms(tmp_path):
    from repro.api.session import SessionError

    with pytest.raises(SessionError, match="not both"):
        repro.connect(str(tmp_path / "a.uadb"), store=str(tmp_path / "b.uadb"))


# -- direct UADBStore API ---------------------------------------------------------


def test_store_save_load_append_cycle(tmp_path):
    store = UADBStore(str(tmp_path / "direct.uadb"), semiring=NATURAL)
    relation = KRelation(
        RelationSchema("t", [Attribute("a", DataType.INTEGER),
                             Attribute("C", DataType.INTEGER)]),
        NATURAL,
    )
    relation.add((1, 1), 2)
    relation.add((2, 0), 1)
    store.save(relation)
    assert "t" in store
    assert store.relation_names() == ["t"]
    assert store.fresh(relation)

    # Append protocol: write ahead, mirror in memory, then mark synced.
    store.append(relation, [((3, 1), 1)])
    relation.add((3, 1), 1)
    assert not store.fresh(relation)
    store.mark_synced(relation)
    assert store.fresh(relation)

    loaded = store.load_relation("t")
    assert dict(loaded.items()) == dict(relation.items())
    assert loaded.schema == relation.schema
    store.close()

    reopened = UADBStore(str(tmp_path / "direct.uadb"))
    assert reopened.semiring.name == NATURAL.name
    assert dict(reopened.load_relation("t").items()) == dict(relation.items())
    reopened.close()
