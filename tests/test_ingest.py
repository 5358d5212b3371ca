"""Bulk-ingest tests: sources, loader batching, versions, crash safety.

Three layers:

* the streaming sources (CSV coercion and null tokens, NDJSON record
  shapes and typed errors, the ``open_source`` dispatcher, the Parquet
  gate),
* the loader's batching contract -- the reason the subsystem exists: one
  WAL store transaction, one statistics fold and one stats-version bump
  per *chunk*, never per row -- plus uncertainty-at-load policies flowing
  into the Enc encoding (``C = 0`` fragments, uncertain annotations),
* crash safety: a loader subprocess SIGKILLed mid-load must leave every
  chunk atomically all-or-nothing after WAL replay, with statistics
  consistent with the surviving rows.

The ``Cursor.executemany`` / ``PreparedStatement.executemany`` pinning
tests live here too: they share the batched write primitive and the same
version/transaction accounting assertions.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api import connect
from repro.api.store import UADBStore
from repro.db.schema import DataType
from repro.db.stats import TableStats
from repro.ingest import (
    BulkLoader,
    CSVSource,
    IngestError,
    NDJSONSource,
    RowsSource,
    load,
    open_source,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


# -- sources ----------------------------------------------------------------------


def test_csv_source_coerces_scalars_and_nulls(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,score,city\n1,3.5,buffalo\n2,,chicago\n3,7,NULL\n")
    source = CSVSource(path)
    rows = list(source)
    assert source.columns == ["id", "score", "city"]
    assert rows == [(1, 3.5, "buffalo"), (2, None, "chicago"), (3, 7, None)]


def test_csv_source_without_header(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1,a\n2,b\n")
    rows = list(CSVSource(path, header=False, columns=["k", "v"]))
    assert rows == [(1, "a"), (2, "b")]


def test_tsv_dispatch_sets_tab_delimiter(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("a\tb\n1\tx\n")
    source = open_source(str(path))
    assert list(source) == [(1, "x")]
    assert source.columns == ["a", "b"]


def test_ndjson_source_accepts_arrays_objects_and_lines(tmp_path):
    path = tmp_path / "data.ndjson"
    path.write_text('[1, "x"]\n\n{"a": 2, "b": "y"}\n')
    records = list(NDJSONSource(path))
    assert records == [(1, "x"), {"a": 2, "b": "y"}]
    # An iterable of lines (the POST /load body path) works identically,
    # bytes included.
    assert list(NDJSONSource([b'[1, 2]', '[3, 4]'])) == [(1, 2), (3, 4)]


def test_ndjson_source_reports_bad_lines():
    with pytest.raises(IngestError, match="line 2"):
        list(NDJSONSource(['[1]', 'not json']))
    with pytest.raises(IngestError, match="array or object"):
        list(NDJSONSource(['42']))


def test_open_source_dispatch_errors(tmp_path):
    with pytest.raises(IngestError, match="pass format="):
        open_source(str(tmp_path / "data.unknown"))
    with pytest.raises(IngestError, match="unsupported load source"):
        open_source(42)
    missing = tmp_path / "absent.csv"
    with pytest.raises(IngestError, match="cannot open CSV"):
        list(open_source(str(missing)))


def test_parquet_requires_pyarrow(tmp_path):
    try:
        import pyarrow  # noqa: F401
        pytest.skip("pyarrow installed; the gate cannot trigger")
    except ImportError:
        pass
    with pytest.raises(IngestError, match="pyarrow"):
        open_source(str(tmp_path / "data.parquet"))


# -- loader batching contract -----------------------------------------------------


def _store_conn(tmp_path, name="ingest"):
    return connect(store=str(tmp_path / f"{name}.uadb"))


def test_load_infers_schema_from_dicts(tmp_path):
    with _store_conn(tmp_path) as conn:
        report = conn.load("readings", [
            {"id": 1, "temp": 20.5, "city": "a"},
            {"id": 2, "temp": 21.0, "city": "b"},
        ])
        assert report.created and report.rows == 2 and report.chunks == 1
        schema = conn.uadb.relation("readings").schema
        assert schema.attribute_names == ("id", "temp", "city")
        assert schema.attribute("id").data_type is DataType.INTEGER
        assert schema.attribute("temp").data_type is DataType.FLOAT
        assert schema.attribute("city").data_type is DataType.STRING


def test_load_one_transaction_one_version_bump_per_chunk(tmp_path):
    """The tentpole contract: per-chunk, never per-row, bookkeeping."""
    with _store_conn(tmp_path) as conn:
        conn.execute("CREATE TABLE t (a INT, b INT)")
        appends0 = conn.store.appends
        stats0 = conn.stats_version
        catalog0 = conn.catalog_version
        report = conn.load("t", [(i, i * 2) for i in range(1000)],
                           chunk_size=250)
        assert report.rows == 1000 and report.chunks == 4
        # One WAL transaction per chunk...
        assert conn.store.appends - appends0 == 4
        # ...one stats-version bump per chunk, and no catalog churn.
        assert conn.stats_version - stats0 == 4
        assert conn.catalog_version == catalog0
        stats = conn.stats.table_stats("t")
        assert stats is not None and stats.row_count == 1000


def test_load_uncertainty_flag_encodes_c_zero(tmp_path):
    with _store_conn(tmp_path) as conn:
        conn.load("m", [(1, "x"), (2, None), (3, "z")],
                  columns=["id", "v"], uncertainty="flag")
        encoded = sorted(conn.encoded.relation("m").rows())
        assert encoded == [(1, "x", 1), (2, None, 0), (3, "z", 1)]
        relation = conn.uadb.relation("m")
        assert relation.is_certain((1, "x"))
        assert not relation.is_certain((2, None))


def test_load_uncertainty_impute_repairs_and_flags(tmp_path):
    with _store_conn(tmp_path) as conn:
        report = conn.load("s", [(1, 10.0), (2, None), (3, 20.0)],
                           columns=["id", "v"], uncertainty="impute")
        assert report.uncertain_rows == 1
        rows = dict(conn.uadb.relation("s").rows())
        # The missing value was repaired with the primary (mean) imputation
        # and the repaired tuple is the uncertain one.
        assert rows[2] is not None
        assert not conn.uadb.relation("s").is_certain((2, rows[2]))


def test_load_custom_policy_callable(tmp_path):
    def every_other(rows, schema):
        return rows, [index % 2 == 1 for index in range(len(rows))]

    with _store_conn(tmp_path) as conn:
        report = conn.load("c", [(i,) for i in range(4)], columns=["a"],
                           uncertainty=every_other)
        assert report.uncertain_rows == 2


def test_load_into_existing_table_with_column_subset(tmp_path):
    with _store_conn(tmp_path) as conn:
        conn.execute("CREATE TABLE wide (a INT, b STRING, d INT)")
        conn.load("wide", [(1, 5), (2, 6)], columns=["a", "d"])
        assert sorted(conn.uadb.relation("wide").rows()) == [
            (1, None, 5), (2, None, 6)]
        # Unknown record columns fail with a typed error.
        with pytest.raises(IngestError, match="does not exist"):
            conn.load("wide", [{"a": 1, "nope": 2}])


def test_load_validation_and_edge_cases(tmp_path):
    with _store_conn(tmp_path) as conn:
        with pytest.raises(IngestError, match="create=False"):
            conn.load("absent", [(1,)], create=False)
        with pytest.raises(IngestError, match="empty source"):
            conn.load("empty", [])
        with pytest.raises(IngestError, match="chunk_size"):
            BulkLoader(conn, "t", chunk_size=0)
        with pytest.raises(IngestError, match="uncertainty policy"):
            load(conn, "t", [(1,)], uncertainty="bogus")


def test_load_csv_end_to_end_queryable(tmp_path):
    path = tmp_path / "people.csv"
    path.write_text("id,name,age\n1,alice,34\n2,bob,\n3,carol,45\n")
    with _store_conn(tmp_path) as conn:
        report = conn.load("people", str(path), uncertainty="flag")
        assert report.format == "csv" and report.rows == 3
        assert report.uncertain_rows == 1
        result = conn.query("SELECT id FROM people WHERE age > 30")
        assert sorted(result.rows()) == [(1,), (3,)]


def test_loaded_data_survives_reopen(tmp_path):
    store = str(tmp_path / "durable.uadb")
    with connect(store=store) as conn:
        conn.load("t", [(i,) for i in range(100)], columns=["a"],
                  chunk_size=30)
    with connect(store=store) as conn:
        assert len(conn.uadb.relation("t")) == 100
        stats = conn.stats.table_stats("t")
        assert stats is not None and stats.row_count == 100


def test_rows_source_generator_streams(tmp_path):
    def generate():
        for i in range(10):
            yield {"a": i}

    with _store_conn(tmp_path) as conn:
        report = conn.load("g", RowsSource(generate()), chunk_size=3)
        assert report.rows == 10 and report.chunks == 4


# -- executemany pinning (the row-at-a-time bug family) ---------------------------


def test_executemany_is_one_transaction_one_version_bump(tmp_path):
    """Pins the fix for per-row version bumps in ``Cursor.executemany``.

    Before the batched path, an N-row executemany bumped the stats
    version N times (invalidating every sibling's caches N times) and
    committed N WAL transactions.  Now: one of each, same rowcount.
    """
    with _store_conn(tmp_path, "many") as conn:
        conn.execute("CREATE TABLE t (a INT, b STRING)")
        appends0 = conn.store.appends
        stats0 = conn.stats_version
        catalog0 = conn.catalog_version
        cursor = conn.executemany("INSERT INTO t VALUES (?, ?)",
                                  [(i, f"v{i}") for i in range(50)])
        assert cursor.rowcount == 50
        assert conn.store.appends - appends0 == 1
        assert conn.stats_version - stats0 == 1
        assert conn.catalog_version == catalog0
        assert len(conn.uadb.relation("t")) == 50


def test_prepared_executemany_is_one_transaction(tmp_path):
    with _store_conn(tmp_path, "prepared") as conn:
        conn.execute("CREATE TABLE p (a INT)")
        statement = conn.prepare("INSERT INTO p VALUES (?)")
        appends0 = conn.store.appends
        stats0 = conn.stats_version
        assert statement.executemany([(i,) for i in range(20)]) == 20
        assert conn.store.appends - appends0 == 1
        assert conn.stats_version - stats0 == 1


def test_executemany_multi_row_values_counts_all_rows(tmp_path):
    with _store_conn(tmp_path, "multirow") as conn:
        conn.execute("CREATE TABLE t (a INT)")
        # Each parameter set expands a two-row VALUES list: 3 sets -> 6 rows.
        cursor = conn.executemany("INSERT INTO t VALUES (?), (?)",
                                  [(1, 2), (3, 4), (5, 6)])
        assert cursor.rowcount == 6
        assert len(conn.uadb.relation("t")) == 6


# -- crash safety -----------------------------------------------------------------

LOADER_SCRIPT = """
import sys
from repro.api import connect

store, chunk_size, chunks = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
conn = connect(store=store)
conn.execute("CREATE TABLE events (chunk INT, i INT)")
rows = ((chunk, i) for chunk in range(chunks) for i in range(chunk_size))
print("LOADING", flush=True)
report = conn.load("events", rows, chunk_size=chunk_size)
print("DONE", report.rows, flush=True)
"""


def test_sigkill_mid_load_leaves_chunks_atomic(tmp_path, monkeypatch):
    """A loader killed mid-bulk-load must not tear a chunk.

    The subprocess loads many small chunks (one WAL transaction each,
    holding the rows, the statistics and the version together); the parent
    SIGKILLs it as soon as some data is visible.  On reopen, WAL replay
    must show an integral number of chunks, each complete, and the
    persisted statistics must be exactly those of the surviving rows --
    adopted as they are, with nothing recollected.
    """
    store = str(tmp_path / "crash.uadb")
    script = tmp_path / "loader.py"
    script.write_text(LOADER_SCRIPT)
    chunk_size, chunks = 200, 500
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, str(script), store, str(chunk_size), str(chunks)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        assert process.stdout.readline().strip() == "LOADING", (
            process.stderr.read())
        # Wait until at least one chunk committed, then kill mid-flight.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            # A bare store read: a probing session could itself write
            # (recollected) statistics beside the loader's.
            probe = UADBStore(store, create=False)
            try:
                if "events" in probe and \
                        len(probe.load_relation("events")) >= chunk_size:
                    break
            finally:
                probe.close()
            time.sleep(0.01)
        else:
            pytest.fail("loader made no visible progress")
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=10)
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()
        process.stderr.close()
    collected = []
    collect = TableStats.collect.__func__

    def counting(cls, relation):
        collected.append(relation.schema.name)
        return collect(cls, relation)

    monkeypatch.setattr(TableStats, "collect", classmethod(counting))
    with connect(store=store) as conn:
        assert collected == []  # the persisted statistics were adopted
        rows = list(conn.uadb.relation("events").rows())
        total = len(rows)
        # The kill landed mid-load (the point of the test); the data that
        # survived must be whole chunks only.
        assert 0 < total < chunk_size * chunks
        assert total % chunk_size == 0
        by_chunk = {}
        for chunk, i in rows:
            by_chunk.setdefault(chunk, set()).add(i)
        for chunk, members in by_chunk.items():
            assert members == set(range(chunk_size)), (
                f"chunk {chunk} is torn: {len(members)}/{chunk_size} rows")
        # ... and are exactly those of the surviving data.
        stats = conn.stats.table_stats("events")
        assert stats is not None and stats.row_count == total
        assert stats.to_json() == \
            collect(TableStats, conn.encoded.relation("events")).to_json()
        # And the store is fully writable again after the crash.
        conn.load("events", [(99999, -1)], columns=["chunk", "i"])
        assert len(conn.uadb.relation("events")) == total + 1
