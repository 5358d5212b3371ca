"""Fleet-serving tests: coordination, supervisor, cache, auth, typed errors.

Three tiers:

* **unit** -- the fleet building blocks in-process: the token bucket and
  security policy, the byte-bounded result cache, cross-worker metrics
  aggregation, the ``flock`` write lock (including crash release via a
  child that dies holding it), and two pools in one process coordinating
  over a shared store;
* **server** -- a :class:`ServerThread` with fleet middleware attached:
  401/429 with the right headers, result-cache hits and exact version
  invalidation, ``503 draining`` refusals, and the client's typed exception
  hierarchy with backoff retries;
* **fleet** -- a real ``python -m repro.server --workers N`` subprocess:
  readiness line, cross-process write visibility, crash restart with
  backoff, the zero-loss drain guarantee, mid-stream worker death, and a
  differential check of fleet answers against an in-process oracle.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from differential import build_source, random_query
from fleetlib import SRC, FleetProcess
from repro.api import session as session_module
from repro.api.pool import ConnectionPool
from repro.core.attribute_bounds import AttributeBoundsRelation
from repro.db.schema import RelationSchema
from repro.incomplete.tidb import TIDatabase
from repro.server import (AuthError, BadRequestError, Client, RateLimitedError,
                          ServerError, ServerThread, ServerUnavailableError,
                          StreamInterrupted)
from repro.server.fleet import (FleetWriteLock, MetricsExchange, ResultCache,
                                SecurityPolicy, StoreCoordinator, TokenBucket,
                                WriteLockTimeout, aggregate_fleet)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def _uncertain_source() -> TIDatabase:
    tidb = TIDatabase("readings")
    relation = tidb.create_relation(
        RelationSchema("readings", ["sensor", "temp"]))
    relation.add(("s1", 71), probability=1.0)
    relation.add(("s2", 64), probability=0.7)
    relation.add(("s3", 99), probability=0.4)
    return tidb


def _store_with_readings(tmp_path, name: str = "fleet") -> str:
    """A persisted .uadb store pre-loaded with the readings relation."""
    path = str(tmp_path / f"{name}.uadb")
    pool = ConnectionPool(path, engine="sqlite", name=name)
    with pool.connection() as conn:
        conn.register_tidb(_uncertain_source())
    pool.close()
    return path


# -- token bucket and security policy ---------------------------------------------


def test_token_bucket_burst_and_refill():
    bucket = TokenBucket(rate=100.0, burst=2.0)
    assert bucket.consume() == 0.0
    assert bucket.consume() == 0.0
    wait = bucket.consume()
    assert 0.0 < wait <= 0.01  # bucket empty: ~1/100s until the next token
    time.sleep(wait + 0.005)
    assert bucket.consume() == 0.0  # refilled


def test_token_bucket_zero_rate_never_refills():
    bucket = TokenBucket(rate=0.0, burst=1.0)
    assert bucket.consume() == 0.0
    assert bucket.consume() == float("inf")


def test_security_policy_from_file(tmp_path):
    config = tmp_path / "tokens.json"
    config.write_text(json.dumps({
        "tokens": {
            "s3cret": {"client": "alice", "rate": 100},
            "other": "bob",
        },
        "default_rate": 50,
    }))
    policy = SecurityPolicy.from_file(str(config))
    assert policy.requires_auth
    assert policy.tokens["s3cret"]["client"] == "alice"
    assert policy.tokens["other"]["client"] == "bob"
    assert policy.default_rate == 50
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        SecurityPolicy.from_file(str(bad))


def _policy_server(tmp_path, policy, name="authsrv", **kwargs):
    pool = ConnectionPool(None, engine="row", name=name)
    with pool.connection() as conn:
        conn.register_tidb(_uncertain_source())
    return ServerThread(pool=pool, port=0, policy=policy, **kwargs), pool


def test_bearer_auth_over_http(tmp_path):
    policy = SecurityPolicy({"s3cret": {"client": "alice"}})
    thread, pool = _policy_server(tmp_path, policy)
    with thread:
        host, port = thread.address
        with Client(host, port, max_retries=0) as anonymous:
            with pytest.raises(AuthError) as info:
                anonymous.query("SELECT sensor FROM readings")
            assert info.value.status == 401
            assert info.value.code == "unauthorized"
            assert not info.value.retryable
            # The liveness probe stays open: orchestrators carry no tokens.
            assert anonymous.healthz()["status"] == "ok"
            response = anonymous._request("GET", "/metrics")
            assert response.status == 401
            assert "Bearer" in response.getheader("WWW-Authenticate", "")
            response.read()
        with Client(host, port, token="wrong", max_retries=0) as impostor:
            with pytest.raises(AuthError):
                impostor.tables()
        with Client(host, port, token="s3cret") as alice:
            assert alice.query("SELECT sensor FROM readings").row_count == 2
            assert alice.metrics()["security"]["denied_auth"] >= 2
    pool.close()


def test_rate_limit_answers_429_with_retry_after(tmp_path):
    policy = SecurityPolicy(default_rate=2.0, default_burst=2.0)
    thread, pool = _policy_server(tmp_path, policy, name="ratesrv")
    with thread:
        host, port = thread.address
        with Client(host, port, max_retries=0) as client:
            client.healthz()  # exempt: never consumes budget
            client.query("SELECT sensor FROM readings")
            client.query("SELECT sensor FROM readings")
            with pytest.raises(RateLimitedError) as info:
                client.query("SELECT sensor FROM readings")
            assert info.value.status == 429
            assert info.value.retryable
            assert info.value.retry_after >= 1.0
        # A retrying client honors Retry-After and succeeds transparently.
        with Client(host, port, max_retries=3) as patient:
            started = time.monotonic()
            for _ in range(3):
                patient.query("SELECT sensor FROM readings")
            assert time.monotonic() - started >= 0.5  # it actually waited
            assert patient.metrics()["security"]["denied_rate"] >= 1
    pool.close()


# -- result cache -----------------------------------------------------------------


def test_result_cache_key_normalizes_sql_and_params():
    key_a = ResultCache.key("SELECT  a\nFROM t", [1], "rewritten", "row", 3, 4)
    key_b = ResultCache.key("SELECT a FROM t", [1], "rewritten", "row", 3, 4)
    assert key_a == key_b
    assert ResultCache.key("SELECT a FROM t", [2], "rewritten", "row", 3, 4) \
        != key_a
    assert ResultCache.key("SELECT a FROM t", [1], "rewritten", "row", 5, 4) \
        != key_a


def test_result_cache_lru_eviction_by_bytes():
    cache = ResultCache(max_bytes=300, max_entry_bytes=200)
    keys = [ResultCache.key(f"SELECT {n}", None, "rewritten", "row", 1, 1)
            for n in range(4)]
    for key in keys[:3]:
        cache.put(key, b"x" * 60)
    assert cache.get(keys[0]) is not None  # freshen 0: now 1 is the LRU
    cache.put(keys[3], b"x" * 60)
    assert cache.get(keys[1]) is None  # evicted as least recently used
    assert cache.get(keys[0]) is not None
    assert cache.stats()["evictions"] >= 1
    cache.put(keys[1], b"y" * 5000)  # larger than max_entry_bytes
    assert cache.get(keys[1]) is None
    assert cache.stats()["rejected"] == 1
    disabled = ResultCache(max_bytes=0)
    assert not disabled.enabled


def test_result_cache_over_http_with_exact_invalidation(tmp_path):
    pool = ConnectionPool(None, engine="row", name="cachesrv")
    with pool.connection() as conn:
        conn.register_tidb(_uncertain_source())
    cache = ResultCache(max_bytes=1 << 20)
    with ServerThread(pool=pool, port=0, result_cache=cache) as thread:
        client = thread.client()
        first = client.query("SELECT sensor FROM readings")
        again = client.query("SELECT  sensor\nFROM readings")  # same key
        assert again.labeled_rows() == first.labeled_rows()
        stats = client.metrics()["result_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        # Any write bumps the catalog/stats versions: the old key is dead.
        client.execute("CREATE TABLE t (a INT)")
        fresh = client.query("SELECT sensor FROM readings")
        assert fresh.labeled_rows() == first.labeled_rows()
        assert client.metrics()["result_cache"]["misses"] == 2
        # Streaming and direct mode bypass / key separately.
        direct = client.query("SELECT sensor FROM readings", mode="direct")
        assert direct.labeled_rows() == first.labeled_rows()
        client.close()
    pool.close()


# -- metrics aggregation ----------------------------------------------------------


def test_aggregate_fleet_recomputes_rates_from_summed_counters():
    now = 1000.0
    snapshots = {
        0: {"worker": 0, "pid": 11, "published_at": now - 1, "metrics": {
            "server": {"requests_total": 90, "errors_total": 1,
                       "rows_streamed": 0, "in_flight": 2},
            "plan_cache": {"hits": 90, "misses": 10, "hit_rate": 0.9},
            "result_cache": {"hits": 0, "misses": 10, "hit_rate": 0.0},
        }},
        1: {"worker": 1, "pid": 22, "published_at": now - 20, "metrics": {
            "server": {"requests_total": 10, "errors_total": 0,
                       "rows_streamed": 5, "in_flight": 0},
            "plan_cache": {"hits": 0, "misses": 10, "hit_rate": 0.0},
            "result_cache": {"hits": 10, "misses": 0, "hit_rate": 1.0},
        }},
    }
    fleet = aggregate_fleet(snapshots, now=now)
    aggregate = fleet["aggregate"]
    assert aggregate["requests_total"] == 100
    # 90/110 lookups hit -- NOT the 0.45 an average-of-averages would claim.
    assert aggregate["plan_cache_hit_rate"] == pytest.approx(90 / 110)
    assert aggregate["result_cache_hit_rate"] == pytest.approx(10 / 20)
    assert fleet["workers"]["0"]["stale"] is False
    assert fleet["workers"]["1"]["stale"] is True  # 20s old > STALE_AFTER


def test_metrics_exchange_atomic_publish_and_read(tmp_path):
    directory = str(tmp_path)
    a = MetricsExchange(directory, 0)
    b = MetricsExchange(directory, 1)
    a.publish({"server": {"requests_total": 1}})
    b.publish({"server": {"requests_total": 2}})
    (tmp_path / "worker-torn.json").write_text("{not json")  # skipped
    snapshots = a.read_all()
    assert set(snapshots) == {0, 1}
    assert snapshots[1]["metrics"]["server"]["requests_total"] == 2


# -- the cross-process write lock -------------------------------------------------


def test_write_lock_fencing_token_advances(tmp_path):
    path = str(tmp_path / "store.uadb.lock")
    lock = FleetWriteLock(path)
    with lock.hold() as token:
        assert token == 1
    with lock.hold() as token:
        assert token == 2
    assert lock.peek_token() == 2
    assert lock.acquisitions == 2


def test_write_lock_contention_times_out(tmp_path):
    path = str(tmp_path / "store.uadb.lock")
    holder = FleetWriteLock(path)
    release = threading.Event()
    held = threading.Event()

    def hold() -> None:
        with holder.hold():
            held.set()
            release.wait(5)

    thread = threading.Thread(target=hold)
    thread.start()
    try:
        assert held.wait(5)
        contender = FleetWriteLock(path, timeout=0.3, poll_interval=0.01)
        started = time.monotonic()
        with pytest.raises(WriteLockTimeout):
            with contender.hold():
                pass
        assert time.monotonic() - started >= 0.25
    finally:
        release.set()
        thread.join()
    with FleetWriteLock(path).hold():  # released cleanly afterwards
        pass


def test_crashed_writer_releases_lock_and_store_replays(tmp_path):
    """Satellite (c): a worker dies mid-INSERT **holding the write lock**.

    The child acquires the fleet write lock through the coordinator,
    appends a row through the ordinary write-ahead path, and ``os._exit``\\ s
    without releasing anything -- no unlock, no WAL checkpoint, no close.
    The kernel drops the ``flock`` with the process, so a fresh acquirer
    gets the lock immediately; the store must replay the committed WAL and
    serve un-torn version counters.
    """
    store_path = _store_with_readings(tmp_path, "crash")
    lock_path = FleetWriteLock.path_for(store_path)
    pool = ConnectionPool(store_path, engine="sqlite", name="crash-parent")
    with pool.connection() as conn:
        conn.execute("CREATE TABLE t (a INT, b TEXT)")
        conn.execute("INSERT INTO t VALUES (?, ?)", [1, "before"])
    coordinator = StoreCoordinator(pool)
    versions_before = pool.store.read_persisted_versions()
    token_before = FleetWriteLock(lock_path).peek_token()

    child_code = f"""
import os, sys
sys.path.insert(0, {SRC!r})
from repro.api.pool import ConnectionPool
from repro.server.fleet.coordination import StoreCoordinator
pool = ConnectionPool({store_path!r}, engine="sqlite", name="crash-child")
coordinator = StoreCoordinator(pool)
with coordinator.write():
    with pool.connection() as conn:
        conn.execute("INSERT INTO t VALUES (?, ?)", [2, "from-child"])
    print("INSERTED", flush=True)
    os._exit(1)  # dies holding the flock; nothing is released or closed
"""
    child = subprocess.run([sys.executable, "-c", child_code],
                           capture_output=True, text=True, timeout=60)
    assert "INSERTED" in child.stdout, child.stderr
    assert child.returncode == 1

    # Lock recovery: the kernel released the dead child's flock, so a new
    # writer acquires promptly -- and the fencing token shows the child's
    # acquisition happened.
    recovered = FleetWriteLock(lock_path, timeout=5.0)
    with recovered.hold() as token:
        assert token == token_before + 2  # child's hold + this one
    # No torn version counters: both parse as ints and moved forward.
    versions_after = pool.store.read_persisted_versions()
    assert versions_after >= versions_before
    # WAL replay: the committed row is visible to the surviving process
    # through the ordinary coordination path.
    assert coordinator.ensure_fresh() == versions_after
    with pool.connection() as conn:
        rows = sorted(conn.query("SELECT a, b FROM t").rows())
    assert rows == [(1, "before"), (2, "from-child")]
    pool.close()


# -- cross-process coordination (two pools, one process) --------------------------


def test_two_pools_coordinate_over_one_store(tmp_path):
    store_path = _store_with_readings(tmp_path, "coord")
    pool_a = ConnectionPool(store_path, engine="sqlite", name="proc-a")
    pool_b = ConnectionPool(store_path, engine="sqlite", name="proc-b")
    coordinator_a = StoreCoordinator(pool_a)
    coordinator_b = StoreCoordinator(pool_b)
    with coordinator_a.write():
        with pool_a.connection() as conn:
            conn.execute("CREATE TABLE shared (n INT)")
            conn.execute("INSERT INTO shared VALUES (?)", [7])
    # B has not seen the write yet; ensure_fresh adopts it.
    assert coordinator_b.ensure_fresh() == \
        pool_b.store.read_persisted_versions()
    assert coordinator_b.refreshes == 1
    with pool_b.connection() as conn:
        assert conn.query("SELECT n FROM shared").rows() == [(7,)]
    # B writes back; A refreshes and sees it -- versions converge.
    with coordinator_b.write():
        with pool_b.connection() as conn:
            conn.execute("INSERT INTO shared VALUES (?)", [8])
    coordinator_a.ensure_fresh()
    with pool_a.connection() as conn:
        assert sorted(conn.query("SELECT n FROM shared").rows()) == \
            [(7,), (8,)]
    # A second ensure_fresh is the fast path: no further refresh happened.
    refreshes = coordinator_a.refreshes
    coordinator_a.ensure_fresh()
    assert coordinator_a.refreshes == refreshes
    pool_a.close()
    pool_b.close()


def test_refresh_adopts_a_sibling_attribute_relation_decoding_nothing(
        tmp_path, monkeypatch):
    """A refresh loads every stored table the way reopening does: an
    attribute relation another pool registered stays attribute-level."""
    store_path = _store_with_readings(tmp_path, "attr")
    pool_a = ConnectionPool(store_path, engine="sqlite", name="attr-a")
    pool_b = ConnectionPool(store_path, engine="sqlite", name="attr-b")
    coordinator_a = StoreCoordinator(pool_a)
    coordinator_b = StoreCoordinator(pool_b)
    bounds = AttributeBoundsRelation(RelationSchema("r", ["k", "v"]))
    bounds.add_row((1, 5), lower=(1, 4), upper=(1, 9))
    bounds.add_row((2, 7), multiplicity=(0, 1, 1))
    with coordinator_a.write():
        with pool_a.connection() as conn:
            conn.register_attribute_relation(bounds)
    decoded = []
    for name in ("decode_relation", "decode_attribute_relation"):
        original = getattr(session_module, name)
        monkeypatch.setattr(session_module, name,
                            lambda *args, _f=original, **kwargs:
                            decoded.append(args) or _f(*args, **kwargs))
    coordinator_b.ensure_fresh()
    assert coordinator_b.refreshes == 1
    assert decoded == []
    sql = "SELECT k, v FROM r"
    with pool_a.connection() as a, pool_b.connection() as b:
        assert b.query_bounds(sql).bounded_rows() \
            == a.query_bounds(sql).bounded_rows()
        listed = [table for table in b.tables() if table["name"] == "r"]
        assert len(listed) == 1 and listed[0]["annotation"] == "attribute"
        assert [schema.name for schema in b.catalog] == ["readings"]
        assert not any("#" in name for schema in b.encoded_catalog
                       for name in schema.attribute_names)
    # A sibling's INSERT into the UA table: pool b adopts it and answers
    # in attribute mode from the ``Enc`` table, deriving nothing.
    derived = []
    for name in ("decode_relation", "encode_attribute_relation"):
        original = getattr(session_module, name)
        monkeypatch.setattr(session_module, name,
                            lambda *args, _f=original, **kwargs:
                            derived.append(args) or _f(*args, **kwargs))
    with coordinator_a.write():
        with pool_a.connection() as conn:
            conn.execute("INSERT INTO readings VALUES ('s4', 71)")
    coordinator_b.ensure_fresh()
    assert coordinator_b.refreshes == 2
    sql = "SELECT sensor, k, v FROM readings, r WHERE temp = 71 AND k = 1"
    with pool_a.connection() as a, pool_b.connection() as b:
        answer = b.query_bounds(sql).bounded_rows()
        assert answer == a.query_bounds(sql).bounded_rows()
        assert [row[0][1] for row, _ in answer] == ["s1", "s4"]
    assert derived == []
    pool_a.close()
    pool_b.close()


# -- typed errors and draining ----------------------------------------------------


def test_typed_client_error_hierarchy(tmp_path):
    pool = ConnectionPool(None, engine="row", name="typed")
    with pool.connection() as conn:
        conn.register_tidb(_uncertain_source())
    with ServerThread(pool=pool, port=0) as thread:
        client = Client(*thread.address, max_retries=0)
        with pytest.raises(BadRequestError) as info:
            client.query("SELEC nope")
        assert info.value.code == "parse_error"
        assert isinstance(info.value, ServerError)
        assert not info.value.retryable
        client.close()
    pool.close()


def test_draining_refusal_is_retryable_and_retried(tmp_path):
    pool = ConnectionPool(None, engine="row", name="drainsrv")
    with pool.connection() as conn:
        conn.register_tidb(_uncertain_source())
    with ServerThread(pool=pool, port=0) as thread:
        client = Client(*thread.address, max_retries=0)
        client.query("SELECT sensor FROM readings")  # establish keep-alive
        thread.server._draining = True
        with pytest.raises(ServerUnavailableError) as info:
            client.query("SELECT sensor FROM readings")
        assert info.value.code == "draining"
        assert info.value.retryable
        assert info.value.retry_after == 1.0  # Retry-After made it through
        assert client.healthz()["status"] == "draining"  # probe still open
        # A retrying client rides out the drain window transparently.
        flipped = threading.Timer(0.3, lambda: setattr(
            thread.server, "_draining", False))
        flipped.start()
        patient = Client(*thread.address, max_retries=4)
        assert patient.query("SELECT sensor FROM readings").row_count == 2
        flipped.join()
        patient.close()
        client.close()
    pool.close()


# -- the real fleet (subprocess) --------------------------------------------------


def test_fleet_ready_line_and_cross_process_visibility(tmp_path):
    """Router mode: connections alternate workers deterministically, so a
    write through one connection MUST be served by the other process."""
    store = _store_with_readings(tmp_path)
    with FleetProcess(store, workers=2, engine="sqlite",
                      router=True) as fleet:
        assert fleet.workers == 2
        assert fleet.mode == "router"
        writer, reader = fleet.client(), fleet.client()
        assert writer.execute("CREATE TABLE t (a INT, b TEXT)") == 0
        assert writer.execute("INSERT INTO t VALUES (?, ?)", [1, "x"]) == 1
        # The reader's connection round-robins to the *other* worker; the
        # write still shows because the coordinator refreshes from the WAL.
        reply = reader.query("SELECT a, b FROM t")
        assert reply.labeled_rows() == [((1, "x"), True)]
        assert reader.query("SELECT sensor FROM readings").row_count == 2
        time.sleep(1.5)  # one metrics publish interval
        metrics = reader.metrics()
        assert set(metrics["fleet"]["workers"]) == {"0", "1"}
        per_worker = [entry["requests_total"]
                      for entry in metrics["fleet"]["workers"].values()]
        assert metrics["fleet"]["aggregate"]["requests_total"] >= \
            max(per_worker)
        assert metrics["coordination"]["active"]
        writer.close()
        reader.close()
        assert fleet.stop() == 0


def test_fleet_worker_crash_is_restarted_with_service_alive(tmp_path):
    store = _store_with_readings(tmp_path)
    with FleetProcess(store, workers=2, engine="sqlite") as fleet:
        pids = fleet.wait_for_workers(2)
        victim = pids[0]
        os.kill(victim, signal.SIGKILL)
        # Service stays up throughout: fresh retrying clients keep getting
        # answers from the surviving worker while the slot restarts.
        for _ in range(5):
            with fleet.client(max_retries=5) as client:
                assert client.query("SELECT sensor FROM readings"
                                    ).row_count == 2
        reborn = fleet.wait_for_workers(2, exclude=(victim,))
        assert reborn[0] != victim
        assert reborn[1] == pids[1]  # the survivor kept its slot


def test_fleet_drain_loses_zero_accepted_requests(tmp_path):
    """The acceptance drain test: SIGTERM one worker mid-traffic; every
    client request must still succeed (retries ride the 503/connection
    errors onto live workers) -- zero accepted requests lost."""
    store = _store_with_readings(tmp_path)
    with FleetProcess(store, workers=2, engine="sqlite") as fleet:
        pids = fleet.wait_for_workers(2)
        threads_n, per_thread = 4, 30
        successes = []
        failures = []

        def hammer(index: int) -> None:
            with fleet.client(max_retries=8, timeout=30) as client:
                count = 0
                for n in range(per_thread):
                    try:
                        reply = client.query(
                            "SELECT sensor, temp FROM readings "
                            "WHERE temp >= ?", [0])
                        assert reply.row_count == 2
                        count += 1
                    except Exception as error:  # noqa: BLE001
                        failures.append((index, n, repr(error)))
                successes.append(count)

        workers = [threading.Thread(target=hammer, args=(index,))
                   for index in range(threads_n)]
        for thread in workers:
            thread.start()
        time.sleep(0.3)  # let traffic build, then drain one worker
        os.kill(pids[0], signal.SIGTERM)
        for thread in workers:
            thread.join(timeout=120)
        assert not failures, failures
        assert sum(successes) == threads_n * per_thread


def test_fleet_worker_death_mid_stream_raises_typed_error(tmp_path):
    store = _store_with_readings(tmp_path)
    with FleetProcess(store, workers=2, engine="sqlite") as fleet:
        with fleet.client() as loader:
            loader.execute("CREATE TABLE wide (n INT, pad TEXT)")
            pad = "p" * 2000
            for base in range(0, 12000, 500):
                loader.executemany(
                    "INSERT INTO wide VALUES (?, ?)",
                    [[n, pad] for n in range(base, base + 500)])
        client = fleet.client(max_retries=0)
        metrics = client.metrics()  # same keep-alive conn == same worker
        serving = int(metrics["fleet"]["workers"][str(metrics["worker"])]
                      ["pid"])
        rows = client.stream("SELECT n, pad FROM wide")
        first = next(rows)
        assert first[0][1] == pad
        os.kill(serving, signal.SIGKILL)
        with pytest.raises(StreamInterrupted) as info:
            for _ in rows:
                pass
        assert info.value.retryable
        client.close()
        # The fleet as a whole survives: a retrying client reconnects to a
        # live worker and re-runs the query in full.
        with fleet.client(max_retries=5) as retry_client:
            assert len(list(retry_client.stream(
                "SELECT n, pad FROM wide"))) == 12000


def test_fleet_differential_against_in_process_oracle(tmp_path):
    """The differential harness pointed at the fleet endpoint: random
    queries must return identical rows AND identical certain/uncertain
    labels over HTTP (either worker) as in-process evaluation."""
    rng = random.Random(20260807)
    uadb = build_source(rng)
    store = str(tmp_path / "diff.uadb")
    oracle = repro.connect(store, engine="sqlite", name="diff-fleet")
    oracle.register_ua_database(uadb)
    with FleetProcess(store, workers=2, engine="sqlite") as fleet:
        clients = [fleet.client(), fleet.client()]  # spread over workers
        checked = 0
        for index in range(12):
            query = random_query(rng)
            sql = query.to_sql()
            for mode in query.modes:
                run = (oracle.query if mode == "rewritten"
                       else oracle.query_direct)
                try:
                    expected = run(sql, query.params).labeled_rows()
                except Exception:  # noqa: BLE001 - outside the served fragment
                    continue
                client = clients[index % 2]
                reply = client.query(sql, query.params, mode=mode)
                assert reply.labeled_rows() == expected, \
                    f"fleet disagreed on {sql!r} ({mode})"
                checked += 1
        assert checked >= 10  # the sweep really exercised both paths
        for client in clients:
            client.close()
    oracle.close()


def test_fleet_bulk_load_with_concurrent_reader_sees_whole_chunks(tmp_path):
    """The acceptance ingest test: a bulk load through ``POST /load`` on a
    live fleet, while a concurrent reader hammers the other worker.  Every
    snapshot the reader observes may only contain *whole* chunks -- a torn
    chunk would mean a reader saw a WAL transaction half-applied -- and
    the final table must hold every row exactly once."""
    store = _store_with_readings(tmp_path, "bulk")
    chunk_size, chunks = 100, 30
    with FleetProcess(store, workers=2, engine="sqlite") as fleet:
        writer, reader = fleet.client(max_retries=8), fleet.client(max_retries=8)
        writer.execute("CREATE TABLE events (chunk INT, i INT)")
        torn = []
        observed = []
        stop = threading.Event()

        def watch() -> None:
            while not stop.is_set():
                rows = reader.query("SELECT chunk, i FROM events").rows
                seen = {}
                for chunk, i in rows:
                    seen.setdefault(chunk, set()).add(i)
                for chunk, members in seen.items():
                    if len(members) != chunk_size:
                        torn.append((chunk, len(members)))
                observed.append(len(rows))

        thread = threading.Thread(target=watch)
        thread.start()
        try:
            reply = writer.load(
                "events",
                ((chunk, i) for chunk in range(chunks)
                 for i in range(chunk_size)),
                columns=["chunk", "i"], chunk_size=chunk_size,
                max_request_bytes=8192)
        finally:
            stop.set()
            thread.join()
        assert reply.rows == chunk_size * chunks
        assert reply.chunks >= chunks  # one WAL transaction per chunk
        assert reply.requests > 1  # the body limit forced several uploads
        assert torn == [], f"reader observed torn chunks: {torn[:5]}"
        # The reader genuinely raced the load: it saw intermediate sizes.
        assert observed and observed[-1] <= chunk_size * chunks
        final = reader.query("SELECT chunk, i FROM events").rows
        assert len(final) == chunk_size * chunks
        assert len(set(final)) == len(final)  # no duplicated rows
        writer.close()
        reader.close()
