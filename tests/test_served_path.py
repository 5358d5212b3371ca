"""Where a served ``POST /query`` runs: on the event loop or a worker thread.

A result-cache miss of a non-streamed query is answered on the event loop
when no refresh is due, nothing else is in flight and the statement's last
answer took under ``sys.getswitchinterval()``; everything else takes the
executor.  These tests drive an in-process :class:`ServerThread` over real
sockets and read the ``server.query_paths`` counters of ``GET /metrics`` to
see which path answered, plus the counters the rule relies on
(``version_polls``, pool ``waits``) and the ``/healthz`` shortcut.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

import pytest

from repro.api.pool import ConnectionPool
from repro.api.session import Connection
from repro.api.store import UADBStore
from repro.db.schema import RelationSchema
from repro.incomplete.tidb import TIDatabase
from repro.server import ServerThread
from repro.server.fleet import StoreCoordinator
from repro.server.fleet.cache import ResultCache
from repro.server.fleet.metrics_exchange import aggregate_fleet

QUERY = "SELECT sensor, temp FROM readings WHERE temp > ?"


def _source() -> TIDatabase:
    tidb = TIDatabase("readings")
    relation = tidb.create_relation(
        RelationSchema("readings", ["sensor", "temp"]))
    relation.add(("s1", 71), probability=1.0)
    relation.add(("s2", 64), probability=0.7)
    relation.add(("s3", 99), probability=0.4)
    return tidb


def _pool(tmp_path, max_connections: int = 8) -> ConnectionPool:
    pool = ConnectionPool(str(tmp_path / "served.uadb"), name="served",
                          max_connections=max_connections)
    with pool.connection() as conn:
        conn.register_tidb(_source())
        # Compile the plan here, so the server's first answer -- the time
        # rule (c) judges the second by -- is execution alone.
        conn.query(QUERY, [0])
    return pool


def _post(address, sql, params) -> bytes:
    """The raw body of one ``POST /query`` (status 200 asserted)."""
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.request("POST", "/query",
                           body=json.dumps({"sql": sql, "params": params}),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        body = response.read()
        assert response.status == 200, body
        return body
    finally:
        connection.close()


def _paths(server) -> dict:
    return server.metrics.snapshot()["query_paths"]


@pytest.fixture
def pinned_elapsed(monkeypatch):
    """Report ``elapsed_ms`` as 0 so two answers compare byte for byte."""
    from repro.server.app import UADBServer

    execute = UADBServer._execute_query

    def pinned(self, conn, sql, params, mode):
        return execute(self, conn, sql, params, mode)[:5] + (0.0,)

    monkeypatch.setattr(UADBServer, "_execute_query", pinned)


def test_second_run_is_answered_inline_byte_identical(tmp_path,
                                                      pinned_elapsed):
    pool = _pool(tmp_path)
    with ServerThread(pool=pool, port=0) as thread:
        server = thread.server
        first = _post(thread.address, QUERY, [60])
        assert _paths(server) == {"inline_hit": 0, "inline_miss": 0,
                                  "executor": 1}
        second = _post(thread.address, QUERY, [60])
        assert _paths(server) == {"inline_hit": 0, "inline_miss": 1,
                                  "executor": 1}
        assert second == first
        with pool.connection() as conn:
            direct = conn.query(QUERY, [60]).labeled_rows()
        reply = json.loads(second)
        assert [(tuple(row), flag) for row, flag
                in zip(reply["rows"], reply["certain"])] == direct
    pool.close()


def test_inline_miss_is_counted_once_and_cached(tmp_path):
    pool = _pool(tmp_path)
    cache = ResultCache()
    with ServerThread(pool=pool, port=0, result_cache=cache) as thread:
        client = thread.client()
        client.query(QUERY, [60])  # first-seen: executor
        before = cache.stats()
        client.query(QUERY, [70])  # a miss, answered inline
        client.query(QUERY, [70])  # the same body, a hit
        after = cache.stats()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1
        assert _paths(thread.server) == {"inline_hit": 1, "inline_miss": 1,
                                         "executor": 1}
        client.close()
    pool.close()


def test_slow_statement_stays_on_the_executor(tmp_path, monkeypatch):
    query = Connection.query

    def slow(self, *args, **kwargs):
        time.sleep(0.3)
        return query(self, *args, **kwargs)

    monkeypatch.setattr(Connection, "query", slow)
    pool = _pool(tmp_path)
    with ServerThread(pool=pool, port=0) as thread:
        _post(thread.address, QUERY, [60])  # first-seen, 0.3 s
        running = threading.Thread(
            target=_post, args=(thread.address, QUERY, [60]))
        running.start()
        time.sleep(0.1)
        probe = thread.client()
        started = time.perf_counter()
        assert probe.healthz()["status"] == "ok"
        assert time.perf_counter() - started < 0.1
        running.join(timeout=10)
        assert not running.is_alive()
        probe.close()
        assert _paths(thread.server)["inline_miss"] == 0
        assert _paths(thread.server)["executor"] == 2
    pool.close()


def test_foreign_write_takes_the_executor(tmp_path):
    pool = _pool(tmp_path)
    with ServerThread(pool=pool, port=0) as thread:
        server = thread.server
        client = thread.client()
        client.query(QUERY, [60])
        client.query(QUERY, [60])
        assert _paths(server)["inline_miss"] == 1
        refreshes = server.coordinator.refreshes
        foreign = ConnectionPool(str(tmp_path / "served.uadb"),
                                 name="served")
        coordinator = StoreCoordinator(foreign)
        with coordinator.write():
            with foreign.connection() as conn:
                conn.execute("INSERT INTO readings VALUES (?, ?)", ["s4", 80])
        foreign.close()
        rows = client.query(QUERY, [60]).rows
        assert ["s4", 80] in [list(row) for row in rows]
        assert server.coordinator.refreshes == refreshes + 1
        assert _paths(server) == {"inline_hit": 0, "inline_miss": 1,
                                  "executor": 2}
        client.close()
    pool.close()


def test_held_checkout_keeps_queries_off_the_loop(tmp_path):
    pool = _pool(tmp_path, max_connections=2)
    with ServerThread(pool=pool, port=0) as thread:
        client = thread.client()
        client.query(QUERY, [60])
        held = pool.acquire()
        try:
            assert len(client.query(QUERY, [60]).rows) == 2
            assert _paths(thread.server)["inline_miss"] == 0
        finally:
            held.close()
        client.query(QUERY, [60])
        assert _paths(thread.server)["inline_miss"] == 1
        client.close()
    pool.close()


def test_one_version_read_per_query(tmp_path):
    pool = _pool(tmp_path)
    with ServerThread(pool=pool, port=0) as thread:
        client = thread.client()
        before = client.metrics()["coordination"]["version_polls"]
        for threshold in range(10):
            client.query(QUERY, [threshold])
        after = client.metrics()["coordination"]["version_polls"]
        assert after - before == 10
        client.close()
    pool.close()


def test_concurrent_clients_keep_counters_exact(tmp_path):
    """More clients than cores, a short switch interval: every answer right,
    one version read and one path count per query, nothing lost."""
    best_guess = [("s1", 71), ("s2", 64)]  # s3 (p = 0.4) is not in it
    clients, steps = 8, 40
    failures = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    try:
        pool = _pool(tmp_path)
        with ServerThread(pool=pool, port=0) as thread:
            server = thread.server
            polls = server.coordinator.version_polls

            def reader(index):
                client = thread.client()
                try:
                    for step in range(steps):
                        threshold = (index * steps + step) % 100
                        rows = sorted(tuple(row) for row in client.query(
                            QUERY, [threshold]).rows)
                        if rows != [r for r in best_guess if r[1] > threshold]:
                            failures.append((threshold, rows))
                finally:
                    client.close()

            threads = [threading.Thread(target=reader, args=(index,))
                       for index in range(clients)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=60)
                assert not worker.is_alive()
            assert failures == []
            assert sum(_paths(server).values()) == clients * steps
            assert server.coordinator.version_polls - polls == clients * steps
        pool.close()
    finally:
        sys.setswitchinterval(previous)


def test_pool_counts_blocked_acquires():
    pool = ConnectionPool(max_connections=1)
    held = pool.acquire()
    releaser = threading.Timer(0.05, held.close)
    releaser.start()
    with pool.connection(timeout=5):
        pass
    releaser.join()
    assert pool.usage()["waits"] == 1
    assert pool.stats()["waits"] == 1
    pool.close()


def test_healthz_runs_no_catalog_query(tmp_path, monkeypatch):
    calls = []
    names = UADBStore.relation_names

    def counted(self):
        calls.append(1)
        return names(self)

    pool = _pool(tmp_path)
    with ServerThread(pool=pool, port=0) as thread:
        client = thread.client()
        monkeypatch.setattr(UADBStore, "relation_names", counted)
        for _ in range(10):
            assert client.healthz()["pool"]["max_connections"] == 8
        assert calls == []
        client.close()
    pool.close()


def test_fleet_aggregate_sums_query_paths():
    def snapshot(hit, miss, executor):
        return {"published_at": 0.0, "metrics": {"server": {"query_paths": {
            "inline_hit": hit, "inline_miss": miss, "executor": executor}}}}

    fleet = aggregate_fleet({0: snapshot(1, 2, 3), 1: snapshot(10, 20, 30)},
                            now=0.0)
    assert fleet["aggregate"]["query_paths"] == {
        "inline_hit": 11, "inline_miss": 22, "executor": 33}
