"""One write, one transaction.

Every session-level write -- an ``INSERT``, an ``executemany`` batch, a
bulk-load chunk, a ``CREATE TABLE`` or registration -- commits its rows,
its statistics and the version counters as **one** SQLite transaction and
only then changes memory.  So:

* a process dying inside the write (after the rows statement, before the
  commit) leaves neither rows nor a table behind, the persisted versions
  where they were, and a fleet sibling's view equal to a fresh reopen;
* a failed statistics statement is undone alone (a savepoint): rows and
  version still commit, the failure is counted, and the table's
  statistics are recollected by the next compile;
* a transaction SQLite rolled back by itself makes the write raise with
  nothing changed in memory or on disk;
* each write is exactly one commit (``UADBStore.stats()["commits"]``, also
  in ``GET /metrics``), a refused one none.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
from unittest import mock

import pytest

from repro.api import connect
from repro.api.pool import ConnectionPool
from repro.api.store import StoreError, UADBStore, UnstorableRelationError
from repro.db.stats import StatsCatalog, TableStats
from repro.server import ServerThread
from repro.server.fleet.coordination import StoreCoordinator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: Runs one write in a child process and ``os._exit``\ s from inside it:
#: ``hook`` is the UADBStore method the write calls after its rows (or
#: table) statement and before its commit.
CRASH_SCRIPT = """
import os, sys
from repro.api import connect
from repro.api.store import UADBStore

store, hook = sys.argv[1], sys.argv[2]
connection = connect(store=store)

def crash(self, *args, **kwargs):
    # Show where the process dies: inside an open transaction that already
    # holds the written rows / table.
    sql = self.connection()
    if hook == "bump_stats_version":
        written = sql.execute('SELECT COUNT(*) FROM "r_t" '
                              "WHERE c0 = 2").fetchone()[0]
    else:
        written = sql.execute("SELECT COUNT(*) FROM sqlite_master "
                              "WHERE name = 'r_u'").fetchone()[0]
    print("DYING", sql.in_transaction, written, flush=True)
    os._exit(17)

setattr(UADBStore, hook, crash)
if hook == "bump_stats_version":
    connection.execute("INSERT INTO t VALUES (2, 'lost')")
else:
    connection.execute("CREATE TABLE u (a INT)")
print("SURVIVED", flush=True)
"""


def _store(tmp_path, name: str) -> str:
    path = str(tmp_path / f"{name}.uadb")
    with connect(store=path) as connection:
        connection.execute("CREATE TABLE t (a INT, b STRING)")
        connection.execute("INSERT INTO t VALUES (1, 'kept')")
    return path


@pytest.mark.parametrize("hook", ["bump_stats_version", "bump_catalog_version"])
def test_a_crash_inside_the_write_leaves_nothing_behind(tmp_path, hook):
    path = _store(tmp_path, hook)
    # A fleet sibling: opened before the crash, it learns of writes only
    # through the persisted version counters.
    pool = ConnectionPool(path, name="sibling")
    coordinator = StoreCoordinator(pool)
    versions = pool.store.read_persisted_versions()
    script = tmp_path / "crash.py"
    script.write_text(CRASH_SCRIPT)
    child = subprocess.run(
        [sys.executable, str(script), path, hook], capture_output=True,
        text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert child.returncode == 17, child.stderr
    assert child.stdout.split() == ["DYING", "True", "1"], child.stdout

    with connect(store=path) as reopened:
        assert reopened.store.read_persisted_versions() == versions
        assert sorted(reopened.uadb.relation("t").rows()) == [(1, "kept")]
        assert [table["name"] for table in reopened.tables()] == ["t"]
        stored = len(reopened.uadb.relation("t"))
    assert coordinator.ensure_fresh() == versions
    with pool.connection() as sibling:
        assert len(sibling.query("SELECT a FROM t").rows()) == stored
        assert [table["name"] for table in sibling.tables()] == ["t"]
    pool.close()


def _forced_stats_failure(path: str, action: str) -> None:
    """Make every later ``uadb_stats`` write fail with ``RAISE(action)``:
    ABORT undoes the statement, ROLLBACK the whole transaction."""
    side = sqlite3.connect(path)
    side.execute("CREATE TRIGGER forced BEFORE INSERT ON uadb_stats BEGIN "
                 f"SELECT RAISE({action}, 'forced stats failure'); END")
    side.commit()
    side.close()


def _counting_collects():
    collected = []
    collect = TableStats.collect.__func__

    def counting(cls, relation):
        collected.append(relation.schema.name)
        return collect(cls, relation)

    return collected, mock.patch.object(TableStats, "collect",
                                        classmethod(counting))


def test_a_failed_statistics_write_still_commits_the_rows(tmp_path, caplog):
    path = _store(tmp_path, "stats-abort")
    connection = connect(store=path, optimize=True)
    _forced_stats_failure(path, "ABORT")
    versions = connection.store.read_persisted_versions()
    commits = connection.store.commits
    with caplog.at_level("WARNING", logger="repro.db.stats"):
        connection.execute("INSERT INTO t VALUES (2, 'acknowledged')")
    assert connection.stats.persist_failures == 1
    assert connection.store.commits == commits + 1
    assert connection.store.read_persisted_versions() == \
        (versions[0], versions[1] + 1)
    relation = connection.encoded.relation("t")
    assert not connection.stats.fresh(relation)  # left unpinned
    collected, counting = _counting_collects()
    with counting:
        rows = connection.query("SELECT a FROM t WHERE a >= 2").rows()
        assert collected == []  # a compile reads no statistics
        connection.explain("SELECT a FROM t WHERE a >= 2")
    assert rows == [(2,)]
    assert collected == ["t"]  # the next EXPLAIN recollects this table only
    recount = StatsCatalog()
    recount.collect(relation)
    assert connection.stats.table_stats("t").to_json() == \
        recount.table_stats("t").to_json()
    connection.close()
    with connect(store=path) as reopened:
        assert sorted(reopened.uadb.relation("t").rows()) == \
            [(1, "kept"), (2, "acknowledged")]


def test_a_transaction_sqlite_rolled_back_changes_nothing(tmp_path):
    path = _store(tmp_path, "stats-rollback")
    connection = connect(store=path, optimize=True)
    _forced_stats_failure(path, "ROLLBACK")
    versions = connection.store.read_persisted_versions()
    commits = connection.store.commits
    relation = connection.encoded.relation("t")
    version = relation._version
    with pytest.raises(StoreError, match="rolled the write transaction back"):
        connection.execute("INSERT INTO t VALUES (2, 'refused')")
    # Nothing moved in memory ...
    assert relation._version == version
    assert sorted(connection.uadb.relation("t").rows()) == [(1, "kept")]
    assert connection.query("SELECT a FROM t").rows() == [(1,)]
    assert connection.store.commits == commits
    # ... nor on disk.
    assert connection.store.read_persisted_versions() == versions
    connection.close()
    with connect(store=path) as reopened:
        assert sorted(reopened.uadb.relation("t").rows()) == [(1, "kept")]
        assert reopened.store.read_persisted_versions() == versions


def test_a_rolled_back_rewrite_is_not_taken_for_synced(tmp_path):
    path = _store(tmp_path, "rewrite-rollback")
    connection = connect(store=path, engine="sqlite")
    # An unreported mutation: the INSERT below first rewrites the table.
    connection.encoded.relation("t").add((7, "unreported", 1))
    side = sqlite3.connect(path)
    side.execute("CREATE TRIGGER forced BEFORE INSERT ON uadb_meta BEGIN "
                 "SELECT RAISE(ROLLBACK, 'forced version failure'); END")
    side.commit()
    with pytest.raises(sqlite3.IntegrityError):
        connection.execute("INSERT INTO t VALUES (2, 'refused')")
    side.execute("DROP TRIGGER forced")
    side.commit()
    side.close()
    # The rewrite rolled back with the rest; the next read redoes it.
    assert sorted(connection.query("SELECT a FROM t").rows()) == [(1,), (7,)]
    connection.close()


def test_each_write_is_exactly_one_commit(tmp_path):
    connection = connect(store=str(tmp_path / "commits.uadb"))
    store = connection.store

    def commits(write) -> int:
        before = store.stats()["commits"]
        write()
        return store.stats()["commits"] - before

    assert commits(lambda: connection.execute(
        "CREATE TABLE t (a ANY, b STRING)")) == 1
    assert commits(lambda: connection.execute(
        "INSERT INTO t VALUES (1, 'x')")) == 1
    assert commits(lambda: connection.executemany(
        "INSERT INTO t VALUES (?, ?)", [(n, "y") for n in range(20)])) == 1
    assert commits(lambda: connection.load(
        "t", [(n, "z") for n in range(35)], chunk_size=10)) == 4
    before, appends = store.commits, store.appends
    with pytest.raises(UnstorableRelationError):
        connection.execute(f"INSERT INTO t VALUES ({2 ** 70}, 'w')")
    assert (store.commits, store.appends) == (before, appends)
    assert len(connection.uadb.relation("t")) == 1 + 20 + 35
    connection.close()


def test_metrics_report_store_commits(tmp_path):
    with ServerThread(store=str(tmp_path / "served.uadb"), engine="sqlite",
                      port=0) as thread:
        client = thread.client()
        client.execute("CREATE TABLE t (a INT)")
        before = client.metrics()["store"]["commits"]
        client.execute("INSERT INTO t VALUES (1)")
        client.executemany("INSERT INTO t VALUES (?)", [(2,), (3,)])
        assert client.metrics()["store"]["commits"] == before + 2


def test_stores_without_a_statistics_table_get_one_on_first_write(tmp_path):
    path = _store(tmp_path, "legacy")
    side = sqlite3.connect(path)
    side.execute("DROP TABLE uadb_stats")
    side.commit()
    side.close()
    assert UADBStore(path).load_all_stats() == {}
    with connect(store=path) as connection:
        connection.execute("INSERT INTO t VALUES (2, 'new')")
        assert connection.stats.persist_failures == 0
    collected, counting = _counting_collects()
    with counting, connect(store=path) as reopened:
        assert len(reopened.uadb.relation("t")) == 2
    assert collected == []
    assert UADBStore(path).load_all_stats().keys() == {"t"}
