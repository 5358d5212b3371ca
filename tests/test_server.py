"""HTTP query-server tests: endpoint matrix, streaming, errors, concurrency.

The server is exercised end to end over real sockets -- a
:class:`~repro.server.app.ServerThread` per fixture, talked to through the
stdlib-based :class:`~repro.server.client.Client` (and, for protocol-level
malformed-request cases, a raw socket).  The endpoint matrix runs against
all three engines plus an on-disk store configuration, always comparing the
HTTP answer against direct pool access; the concurrency test pins ≥8
HTTP clients doing mixed reads/writes against a serial oracle.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from types import SimpleNamespace

import pytest

import repro
from repro.api.pool import ConnectionPool
from repro.db.schema import RelationSchema
from repro.incomplete.tidb import TIDatabase
from repro.server import Client, ServerError, ServerThread

ENGINE_CONFIGS = [
    ("row", False),
    ("columnar", False),
    ("sqlite", False),
    ("sqlite", True),
]

#: When set (the CI fleet smoke job exports REPRO_FLEET_WORKERS=2), the
#: ``served`` fixture boots a real pre-forked fleet subprocess instead of an
#: in-process ServerThread, so this whole endpoint matrix doubles as the
#: fleet conformance suite.  Every configuration is then disk-backed (fleet
#: workers coordinate over a shared store), and the oracle pool refreshes
#: from cross-process writes before each checkout.
FLEET_WORKERS = int(os.environ.get("REPRO_FLEET_WORKERS") or 0)


def _uncertain_source() -> TIDatabase:
    tidb = TIDatabase("readings")
    relation = tidb.create_relation(
        RelationSchema("readings", ["sensor", "temp"]))
    relation.add(("s1", 71), probability=1.0)
    relation.add(("s2", 64), probability=0.7)
    relation.add(("s3", 99), probability=0.4)
    return tidb


def _make_pool(engine: str, disk: bool, tmp_path, name: str,
               max_connections: int = 8) -> ConnectionPool:
    store = str(tmp_path / f"{name}.uadb") if disk else None
    pool = ConnectionPool(store, engine=engine, name=name,
                          max_connections=max_connections)
    with pool.connection() as conn:
        conn.register_tidb(_uncertain_source())
    return pool


class _CoordinatedOracle:
    """Fleet-mode oracle pool: adopt the workers' writes before each read.

    Wraps the test-local :class:`ConnectionPool` so ``connection()`` first
    runs the cross-process freshness protocol -- exactly what a fleet worker
    does per request -- making direct-pool oracle comparisons valid against
    writes that went through another process.
    """

    def __init__(self, pool: ConnectionPool) -> None:
        from repro.server.fleet import StoreCoordinator

        self._pool = pool
        self._coordinator = StoreCoordinator(pool)

    def connection(self, timeout=None):
        self._coordinator.ensure_fresh()
        return self._pool.connection(timeout=timeout)

    def __getattr__(self, name):
        return getattr(self._pool, name)


@pytest.fixture(params=ENGINE_CONFIGS,
                ids=["row", "columnar", "sqlite", "sqlite-disk"])
def served(request, tmp_path):
    """A running server (all configurations) plus a client and its pool.

    With ``REPRO_FLEET_WORKERS`` set, the server is a pre-forked fleet
    subprocess sharing a disk store; ``served.thread`` degrades to an
    address-only shim (the raw-socket tests need nothing else).
    """
    engine, disk = request.param
    if FLEET_WORKERS:
        from fleetlib import FleetProcess

        pool = _make_pool(engine, True, tmp_path,
                          f"srv-{engine}-{int(disk)}")
        fleet = FleetProcess(str(tmp_path / f"srv-{engine}-{int(disk)}.uadb"),
                             workers=FLEET_WORKERS, engine=engine)
        client = fleet.client()
        yield SimpleNamespace(pool=_CoordinatedOracle(pool),
                              thread=SimpleNamespace(address=fleet.address),
                              client=client, engine=engine, disk=disk)
        client.close()
        fleet.stop()
        if not pool.closed:
            pool.close()
        return
    pool = _make_pool(engine, disk, tmp_path, f"srv-{engine}-{int(disk)}")
    thread = ServerThread(pool=pool, port=0)
    thread.start()
    client = thread.client()
    yield SimpleNamespace(pool=pool, thread=thread, client=client,
                          engine=engine, disk=disk)
    client.close()
    thread.stop()
    if not pool.closed:
        pool.close()


# -- the endpoint matrix ----------------------------------------------------------


def test_healthz(served):
    health = served.client.healthz()
    assert health["status"] == "ok"
    assert health["engine"] == served.engine
    assert health["semiring"] == "N"
    assert health["pool"]["max_connections"] == 8
    # The body limit is advertised so SDKs can size /load chunks.
    assert health["limits"]["max_body_bytes"] > 0
    assert served.client.max_body_bytes() == health["limits"]["max_body_bytes"]
    if served.disk:
        assert health["store"].endswith(".uadb")


def test_query_labels_match_direct_pool_access(served):
    reply = served.client.query(
        "SELECT sensor, temp FROM readings WHERE temp >= ?", [60])
    with served.pool.connection() as conn:
        oracle = conn.query(
            "SELECT sensor, temp FROM readings WHERE temp >= ?", [60])
    assert reply.columns == ["sensor", "temp"]
    assert reply.labeled_rows() == oracle.labeled_rows()
    assert reply.certain_rows() == [("s1", 71)]
    # s3 (p=0.4) is not in the best-guess world; s2 (p=0.7) is, uncertainly.
    assert reply.uncertain_rows() == [("s2", 64)]
    assert reply.row_count == 2 and reply.certain_count == 1
    assert reply.elapsed_ms >= 0


def test_query_direct_mode_agrees_with_rewritten(served):
    """Theorem 7 over HTTP: both query paths serve identical labels."""
    sql = "SELECT sensor FROM readings WHERE temp < :max"
    rewritten = served.client.query(sql, {"max": 90})
    direct = served.client.query(sql, {"max": 90}, mode="direct")
    assert rewritten.labeled_rows() == direct.labeled_rows()


def test_explain_over_http(served):
    """EXPLAIN is read-only, so it flows through /query (not /execute)."""
    reply = served.client.query("EXPLAIN SELECT sensor FROM readings")
    lines = [line for _, line in reply.rows]
    assert any(line.startswith("Relation(") or "Relation(" in line
               for line in lines)
    assert any(line.startswith("engine:") for line in lines)
    with pytest.raises(ServerError) as excinfo:
        served.client.execute("EXPLAIN SELECT sensor FROM readings")
    assert excinfo.value.code == "invalid_statement"


def test_execute_and_query_roundtrip(served):
    client = served.client
    assert client.execute("CREATE TABLE t (a INT, b TEXT)") == 0
    assert client.execute("INSERT INTO t VALUES (?, ?)", [1, "x"]) == 1
    assert client.executemany("INSERT INTO t VALUES (?, ?)",
                              [[2, "y"], [3, "z"]]) == 2
    reply = client.query("SELECT a, b FROM t WHERE a >= ?", [2])
    # SQL-inserted tuples are deterministic facts: certain everywhere.
    assert reply.labeled_rows() == [((2, "y"), True), ((3, "z"), True)]
    # The write went through the shared pool: direct access sees it too.
    with served.pool.connection() as conn:
        assert sorted(conn.query("SELECT a, b FROM t").rows()) == \
            [(1, "x"), (2, "y"), (3, "z")]


def test_execute_params_seq_reports_total_rowcount(served):
    """Regression: /execute with params_seq reports rows across the whole
    batch, not whatever the final inner statement touched."""
    client = served.client
    client.execute("CREATE TABLE counted (a INT)")
    assert client.executemany("INSERT INTO counted VALUES (?)",
                              [[n] for n in range(17)]) == 17
    # Multi-row VALUES lists count every row of every parameter set.
    assert client.executemany("INSERT INTO counted VALUES (?), (?)",
                              [[100, 101], [102, 103]]) == 4
    with served.pool.connection() as conn:
        assert len(conn.query("SELECT a FROM counted").rows()) == 21


# -- bulk load --------------------------------------------------------------------


def test_load_endpoint_roundtrip(served):
    client = served.client
    reply = client.load("loaded", [
        {"id": 1, "score": 9.5},
        {"id": 2, "score": None},
        {"id": 3, "score": 7.0},
    ], uncertainty="flag")
    assert reply.rows == 3 and reply.created
    assert reply.uncertain_rows == 1
    assert reply.requests == 1 and reply.chunks == 1
    assert reply.reports[0]["table"] == "loaded"
    query = client.query("SELECT id FROM loaded WHERE id <= ?", [3])
    assert sorted(query.rows) == [(1,), (2,), (3,)]
    # The null-scored row loaded as an uncertain tuple.
    assert sorted(query.certain_rows()) == [(1,), (3,)]
    # Appending positional records into the now-existing table works too.
    more = client.load("loaded", [(4, 1.5)], columns=["id", "score"])
    assert more.rows == 1 and not more.created
    with served.pool.connection() as conn:
        assert len(conn.query("SELECT id FROM loaded").rows()) == 4


def test_load_splits_to_server_body_limit(tmp_path):
    pool = _make_pool("row", True, tmp_path, "chunked")
    with ServerThread(pool=pool, port=0, max_body_bytes=2048) as thread:
        client = thread.client()
        rows = [{"n": n, "tag": f"row-{n:05d}"} for n in range(400)]
        reply = client.load("bulk", rows, chunk_size=64)
        assert reply.rows == 400
        # The advertised 2 KiB limit forces many uploads; every request
        # stayed under it (none answered 413) and nothing was lost.
        assert reply.requests > 1
        assert sum(r["rows"] for r in reply.reports) == 400
        with pool.connection() as conn:
            assert len(conn.query("SELECT n FROM bulk").rows()) == 400
        client.close()
    pool.close()


def test_load_header_validation_errors(served):
    client = served.client

    def load_raw(body: bytes, code: str):
        with pytest.raises(ServerError) as info:
            client._json("POST", "/load", body=body,
                         content_type="application/x-ndjson")
        assert info.value.status == 400
        assert info.value.code == code

    load_raw(b"", "bad_request")
    load_raw(b"not json\n[1]", "bad_json")
    load_raw(b'{"table": ""}\n[1]', "bad_request")
    load_raw(b'{"table": "t", "chunk_size": 0}\n[1]', "bad_request")
    load_raw(b'{"table": "t", "uncertainty": "bogus"}\n[1]', "bad_request")
    load_raw(b'{"table": "t", "columns": []}\n[1]', "bad_request")
    # Body-level ingest failures map to the typed ingest_error.
    load_raw(b'{"table": "t2"}\n[1]\nnot json', "ingest_error")
    load_raw(b'{"table": "t3", "create": false}\n[1]', "ingest_error")


def test_tables_catalog(served):
    served.client.execute("CREATE TABLE catalogued (k INT, v TEXT)")
    tables = {table["name"]: table for table in served.client.tables()}
    assert set(tables) >= {"readings", "catalogued"}
    assert tables["readings"]["row_count"] == 2  # best-guess world size
    assert tables["catalogued"]["columns"] == [
        {"name": "k", "type": "integer"},
        {"name": "v", "type": "string"},
    ]


def test_metrics_counters_and_gauges(served):
    client = served.client
    client.query("SELECT sensor FROM readings")
    client.query("SELECT sensor FROM readings")  # warm plan-cache hit
    metrics = client.metrics()
    server = metrics["server"]
    assert server["requests_total"] >= 2
    assert server["endpoints"]["/query"]["requests"] >= 2
    assert server["endpoints"]["/query"]["latency_ms"]["p99"] >= \
        server["endpoints"]["/query"]["latency_ms"]["p50"] >= 0
    assert metrics["plan_cache"]["hit_rate"] > 0
    assert metrics["pool"]["saturation"] == 0.0
    assert metrics["pool"]["max_connections"] == 8
    # Engine dispatch counts cover the queries above.
    assert sum(metrics["engine_dispatch"].values()) >= 2
    if served.engine == "sqlite":
        # sqlite cannot compile round(): the engine it falls back to shows.
        columnar = metrics["engine_dispatch"].get("columnar", 0)
        client.query("SELECT round(temp) FROM readings")
        assert client.metrics()["engine_dispatch"]["columnar"] == columnar + 1
    if served.disk:
        assert metrics["store"]["appends"] >= 0


# -- streaming --------------------------------------------------------------------


def test_streaming_matches_buffered_query(served):
    client = served.client
    client.execute("CREATE TABLE big (n INT, label TEXT)")
    client.executemany("INSERT INTO big VALUES (?, ?)",
                       [[n, f"row{n}"] for n in range(150)])
    buffered = client.query("SELECT n, label FROM big")
    streamed = list(client.stream("SELECT n, label FROM big"))
    assert streamed == list(zip(buffered.rows, buffered.certain))
    assert len(streamed) == 150
    # The connection stays usable after a fully consumed stream.
    assert client.healthz()["status"] == "ok"
    assert client.metrics()["server"]["rows_streamed"] >= 150


def test_streaming_uncertain_labels(served):
    pairs = dict(served.client.stream("SELECT sensor, temp FROM readings"))
    assert pairs[("s1", 71)] is True
    assert pairs[("s2", 64)] is False


def test_abandoned_stream_resets_instead_of_draining(served):
    client = served.client
    client.execute("CREATE TABLE wide (n INT)")
    client.executemany("INSERT INTO wide VALUES (?)",
                       [[n] for n in range(500)])
    for row, certain in client.stream("SELECT n FROM wide"):
        break  # abandon mid-stream
    assert client._connection is None  # dropped, not drained into memory
    assert client.healthz()["status"] == "ok"  # reconnects transparently


def test_stream_of_bad_sql_raises(served):
    with pytest.raises(ServerError) as info:
        served.client.stream("SELEC sensor FROM readings")
    assert info.value.code == "parse_error"


# -- error handling ---------------------------------------------------------------


def _expect_error(client: Client, code: str, status: int, **payload):
    with pytest.raises(ServerError) as info:
        client._json("POST", payload.pop("_path", "/query"), payload)
    assert info.value.code == code
    assert info.value.status == status


def test_typed_error_mapping(served):
    client = served.client
    _expect_error(client, "parse_error", 400, sql="SELEC nope")
    _expect_error(client, "schema_error", 400, sql="SELECT x FROM missing")
    _expect_error(client, "parameter_error", 400,
                  sql="SELECT sensor FROM readings WHERE temp > ?", params=[])
    _expect_error(client, "bad_request", 400, sql="")
    _expect_error(client, "bad_request", 400, sql=42)
    _expect_error(client, "bad_request", 400,
                  sql="SELECT sensor FROM readings", mode="sideways")
    _expect_error(client, "bad_request", 400,
                  sql="SELECT sensor FROM readings", params="not-bindable")
    _expect_error(client, "invalid_statement", 400,
                  sql="SELECT sensor FROM readings", _path="/execute")
    _expect_error(client, "invalid_statement", 400,
                  sql="INSERT INTO readings VALUES (1, 2)")
    _expect_error(client, "bad_request", 400, _path="/execute",
                  sql="INSERT INTO readings VALUES (?, ?)",
                  params=[1, 2], params_seq=[[1, 2]])


def test_http_level_errors(served):
    client = served.client
    response = client._request("GET", "/nope")
    assert response.status == 404
    assert json.loads(response.read())["error"]["code"] == "not_found"
    response = client._request("GET", "/query")
    assert response.status == 405
    assert json.loads(response.read())["error"]["code"] == "method_not_allowed"
    response = client._request("POST", "/query")  # no body at all
    assert response.status == 400
    assert json.loads(response.read())["error"]["code"] == "bad_json"


def _raw_exchange(address, payload: bytes) -> bytes:
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while True:
            piece = sock.recv(65536)
            if not piece:
                return received
            received += piece


def test_malformed_http_framing(served):
    address = served.thread.address
    assert b"400 Bad Request" in _raw_exchange(address, b"GARBAGE\r\n\r\n")
    assert b"bad_request_line" in _raw_exchange(address, b"GET /healthz\r\n\r\n")
    body = b'{"sql": "SELECT sensor FROM readings"}'
    truncated = (b"POST /query HTTP/1.1\r\ncontent-length: 999\r\n\r\n" + body)
    assert b"truncated" in _raw_exchange(address, truncated)
    chunked = (b"POST /query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
    assert b"chunked_body" in _raw_exchange(address, chunked)
    assert b"not valid JSON" in _raw_exchange(
        address,
        b"POST /query HTTP/1.1\r\ncontent-length: 4\r\n\r\nnope")
    # Conflicting duplicate Content-Length is a smuggling vector: reject.
    smuggle = (b"POST /query HTTP/1.1\r\n"
               b"content-length: 4\r\ncontent-length: 200\r\n\r\nnope")
    assert b"conflicting Content-Length" in _raw_exchange(address, smuggle)


def test_unmatched_paths_share_one_metrics_bucket(served):
    client = served.client
    for index in range(5):
        response = client._request("GET", f"/scan-probe-{index}")
        response.read()
    endpoints = client.metrics()["server"]["endpoints"]
    assert "(unmatched)" in endpoints
    assert endpoints["(unmatched)"]["requests"] >= 5
    assert not any(path.startswith("/scan-probe") for path in endpoints)


def test_http10_client_gets_closing_unchunked_response(served):
    address = served.thread.address
    body = b'{"sql": "SELECT sensor FROM readings", "stream": true}'
    raw = _raw_exchange(
        address,
        b"POST /query HTTP/1.0\r\ncontent-length: %d\r\n\r\n%s"
        % (len(body), body))
    head, _, payload = raw.partition(b"\r\n\r\n")
    # No keep-alive and no chunked framing for a 1.0 client: the NDJSON
    # body is EOF-delimited plain lines.
    assert b"Connection: close" in head
    assert b"Transfer-Encoding" not in head
    assert b"Content-Length" not in head
    lines = payload.strip().split(b"\n")
    assert json.loads(lines[0])["columns"] == ["sensor"]
    assert json.loads(lines[1])["certain"] in (True, False)
    assert json.loads(lines[-1])["row_count"] == 2


def test_oversized_body_is_rejected(tmp_path):
    pool = _make_pool("row", False, tmp_path, "limits")
    with ServerThread(pool=pool, port=0, max_body_bytes=128) as thread:
        client = thread.client()
        with pytest.raises(ServerError) as info:
            client.query("SELECT sensor FROM readings WHERE sensor = ?",
                         ["x" * 4096])
        assert info.value.status == 413
        assert info.value.code == "payload_too_large"
        # The 413 body carries the limit machine-readably, and /healthz
        # advertises the same number, so a client never has to probe.
        response = client._request("POST", "/query",
                                   {"sql": "SELECT 1", "pad": "x" * 4096})
        error = json.loads(response.read())["error"]
        assert error["max_body_bytes"] == 128
        assert error["body_bytes"] > 128
        assert client.max_body_bytes() == 128
        client.close()
    pool.close()


def test_unknown_engine_maps_to_structured_error(tmp_path):
    pool = ConnectionPool(engine="warp-drive", max_connections=2, name="warp")
    with pool.connection() as conn:
        conn.execute("CREATE TABLE t (a INT)")
    with ServerThread(pool=pool, port=0) as thread:
        client = thread.client()
        assert thread.server._engine_name() == "warp-drive"  # unresolvable spec
        with pytest.raises(ServerError) as info:
            client.query("SELECT a FROM t")
        assert info.value.status == 400
        assert info.value.code == "unknown_engine"
        client.close()
    pool.close()


def test_pool_exhaustion_maps_to_503(tmp_path):
    pool = _make_pool("row", False, tmp_path, "exhausted", max_connections=1)
    with ServerThread(pool=pool, port=0, checkout_timeout=0.05) as thread:
        held = pool.acquire()  # hog the only slot from outside the server
        client = thread.client()
        with pytest.raises(ServerError) as info:
            client.query("SELECT sensor FROM readings")
        assert info.value.status == 503
        assert info.value.code == "pool_timeout"
        client.close()
        held.close()
    pool.close()


def test_idle_connections_are_dropped(tmp_path):
    """A connection that never sends a full request is reaped (slowloris)."""
    pool = _make_pool("row", False, tmp_path, "idle")
    with ServerThread(pool=pool, port=0, idle_timeout=0.2) as thread:
        with socket.create_connection(thread.address, timeout=5) as sock:
            sock.sendall(b"POST /query HT")  # trickle, then stall
            sock.settimeout(5)
            assert sock.recv(1024) == b""  # server closed on us
        # Legitimate clients are unaffected (they reconnect per request).
        client = thread.client()
        assert client.healthz()["status"] == "ok"
        client.close()
    pool.close()


def test_response_timeout_is_not_retried(tmp_path):
    """A slow server must not cause the client to silently re-send a query."""
    import time as _time

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    received = []

    def black_hole():
        conn, _ = listener.accept()
        received.append(conn.recv(65536))  # read the request, never answer
        _time.sleep(1.0)
        conn.close()

    worker = threading.Thread(target=black_hole)
    worker.start()
    host, port = listener.getsockname()
    client = Client(host, port, timeout=0.2)
    started = _time.monotonic()
    with pytest.raises(TimeoutError):
        client.query("SELECT 1 AS x FROM t")
    # One attempt only: well under two timeout periods.
    assert _time.monotonic() - started < 0.8
    worker.join()
    assert len(received) == 1
    client.close()
    listener.close()


def test_exception_inside_pool_context_is_not_masked(tmp_path):
    """__exit__ must not replace an in-flight exception with a drain error."""
    with pytest.raises(ValueError, match="the real bug"):
        with ConnectionPool(max_connections=2) as pool:
            handle = pool.acquire()  # held across the raise
            raise ValueError("the real bug")
    assert pool.closed
    handle.close()  # late release of the leaked handle is still safe


def test_cli_rejects_unknown_engine_and_semiring():
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH="src")
    for flag, value in (("--engine", "sqlte"), ("--semiring", "imaginary")):
        result = subprocess.run(
            [sys.executable, "-m", "repro.server", flag, value],
            capture_output=True, text=True, timeout=60, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert result.returncode == 2
        assert "available:" in result.stderr


def test_failed_startup_releases_owned_pool_and_store(tmp_path):
    """A bind failure must not leak the server-created pool (or its store)."""
    path = str(tmp_path / "leaky.uadb")
    with ServerThread(port=0) as occupant:
        taken_port = occupant.address[1]
        thread = ServerThread(store=path, engine="sqlite", port=taken_port)
        with pytest.raises(OSError):
            thread.start()
        assert thread.server.pool.closed
        assert thread.server.pool.store.closed
    # A caller-owned pool stays the caller's to close.
    pool = _make_pool("row", False, tmp_path, "caller-owned")
    with ServerThread(pool=pool, port=0) as occupant:
        thread = ServerThread(pool=pool, port=occupant.address[1])
        with pytest.raises(OSError):
            thread.start()
        assert not pool.closed
    pool.close()


# -- persistence through the server -----------------------------------------------


def test_server_owned_store_survives_restart(tmp_path):
    path = str(tmp_path / "served.uadb")
    with ServerThread(store=path, engine="sqlite", port=0) as thread:
        client = thread.client()
        client.execute("CREATE TABLE t (a INT, b TEXT)")
        client.executemany("INSERT INTO t VALUES (?, ?)",
                           [[1, "x"], [2, "y"]])
        client.close()
    # The server owned its pool: stop() drained and closed it, so a fresh
    # process-like reopen sees everything that was committed.
    conn = repro.connect(path, name="reopen")
    assert sorted(conn.query("SELECT a, b FROM t").rows()) == \
        [(1, "x"), (2, "y")]
    conn.close()

    with ServerThread(store=path, engine="sqlite", port=0) as thread:
        client = thread.client()
        assert sorted(client.query("SELECT a, b FROM t").rows) == \
            [(1, "x"), (2, "y")]
        client.close()


# -- concurrency ------------------------------------------------------------------


CLIENTS = 8
INSERTS_PER_CLIENT = 10


@pytest.mark.parametrize("engine", ["sqlite", "row"])
def test_concurrent_clients_match_serial_oracle(tmp_path, engine):
    """≥8 concurrent HTTP clients produce exactly the serial-oracle state."""
    store = (str(tmp_path / "concurrent.uadb") if engine == "sqlite" else None)
    pool = ConnectionPool(store, engine=engine, max_connections=CLIENTS,
                          name=f"http-stress-{engine}")
    with pool.connection() as conn:
        conn.execute("CREATE TABLE t (worker INT, seq INT)")
    errors = []
    gate = threading.Barrier(CLIENTS)

    with ServerThread(pool=pool, port=0) as thread:
        host, port = thread.address

        def worker(worker_id: int) -> None:
            try:
                client = Client(host, port)
                gate.wait()
                for seq in range(INSERTS_PER_CLIENT):
                    client.execute("INSERT INTO t VALUES (?, ?)",
                                   [worker_id, seq])
                    rows = client.query("SELECT worker, seq FROM t").rows
                    assert len(rows) <= CLIENTS * INSERTS_PER_CLIENT
                if worker_id == 0:
                    client.execute("CREATE TABLE mid (x INT)")
                    client.execute("INSERT INTO mid VALUES (1)")
                client.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        oracle = repro.connect(engine=engine, name=f"http-oracle-{engine}")
        oracle.execute("CREATE TABLE t (worker INT, seq INT)")
        for worker_id in range(CLIENTS):
            for seq in range(INSERTS_PER_CLIENT):
                oracle.execute("INSERT INTO t VALUES (?, ?)",
                               [worker_id, seq])

        client = thread.client()
        final = client.query("SELECT worker, seq FROM t")
        assert sorted(final.rows) == sorted(
            oracle.query("SELECT worker, seq FROM t").rows())
        assert all(final.certain)  # inserted facts stay certain everywhere
        assert client.query("SELECT x FROM mid").rows == [(1,)]
        metrics = client.metrics()
        assert metrics["server"]["endpoints"]["/execute"]["requests"] >= \
            CLIENTS * INSERTS_PER_CLIENT
        client.close()
        oracle.close()
    pool.close()


def test_graceful_stop_drains_inflight_requests(tmp_path):
    """stop() lets a request that already started finish before closing."""
    pool = _make_pool("row", False, tmp_path, "drain")
    thread = ServerThread(pool=pool, port=0)
    thread.start()
    client = thread.client()
    client.executemany("INSERT INTO readings VALUES (?, ?)",
                       [[f"s{i}", i] for i in range(4, 300)])
    results = []
    first_row_read = threading.Event()

    def slow_reader():
        rows = []
        for pair in client.stream("SELECT sensor, temp FROM readings"):
            rows.append(pair)
            first_row_read.set()
        results.append(rows)

    reader = threading.Thread(target=slow_reader)
    reader.start()
    assert first_row_read.wait(timeout=10)
    thread.stop()  # overlaps with the in-flight streaming response
    reader.join()
    # 2 best-guess source rows + 296 inserts arrive despite the overlap.
    assert len(results) == 1 and len(results[0]) == 298
    pool.close()
