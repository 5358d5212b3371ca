"""Workloads ``served_cold`` and ``served_hot``: the fleet behind HTTP.

Both serve the ``bench_api`` three-way point join from a two-worker
``python -m repro.server`` fleet over a shop store that set-up bulk-loads.

* ``served_cold`` sends every order id at most once, through two
  :class:`repro.server.Client` connections, so the result cache never
  answers and the time goes to HTTP parsing, the version poll, the pool
  checkout, the plan-cache probe, labelling, JSON rendering and the
  client's codec.
* ``served_hot`` repeats 64 order ids over two raw pipelining sockets, so
  nearly every request is an inline result-cache hit and what is measured
  is that hit path and the fleet's coordination.

A change that makes hits cheaper by taxing misses shows as a loss on
``served_cold``; one that makes misses cheaper leaves ``served_hot`` flat.
"""

from __future__ import annotations

import io
import json
import random
import socket
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from unittest import mock

import repro
from repro.api.pool import ConnectionPool
from repro.server import Client
from repro.server.client import QueryReply

from .fleet import (
    PIPELINE_DEPTH, Fleet, Stub, closed_loop,
    pinned_clients, pinned_sockets, pipelined, render_request,
    warm_references,
)
from .harness import (
    Part, Report, Timer, Tracer, digest_of, in_parts, median,
)

ENGINE = "sqlite"
WORKERS = 2
QUERY = ("SELECT o.oid, c.name, p.label FROM orders o, customers c, products p "
         "WHERE o.cid = c.cid AND o.pid = p.pid AND o.oid = ?")
STREAM_QUERY = "SELECT oid, cid, pid, qty FROM orders WHERE oid < ?"
UNCERTAIN_SHARE = 0.1


class Shop:
    """The generated store contents; knows the right answer for every key."""

    def __init__(self, seed: int, orders: int, customers: int,
                 products: int) -> None:
        rng = random.Random(seed)
        self.customers = [(cid, f"customer_{cid}", f"city_{cid % 3}")
                          for cid in range(customers)]
        self.products = [(pid, f"product_{pid}", float(pid))
                         for pid in range(products)]
        self.orders = [(oid, rng.randrange(customers), rng.randrange(products),
                        rng.randrange(1, 10)) for oid in range(orders)]
        self.uncertain = [rng.random() < UNCERTAIN_SHARE
                          for _ in range(orders)]

    def build(self, path: Path) -> None:
        """Bulk-load the shop into a fresh ``.uadb`` store."""
        connection = repro.connect(str(path), engine=ENGINE, name="shop")
        connection.execute(
            "CREATE TABLE customers (cid INT, name STRING, city STRING)")
        connection.execute(
            "CREATE TABLE products (pid INT, label STRING, price FLOAT)")
        connection.execute(
            "CREATE TABLE orders (oid INT, cid INT, pid INT, qty INT)")
        connection.load("customers", self.customers)
        connection.load("products", self.products)
        flags = iter(self.uncertain)
        connection.load(
            "orders", self.orders,
            uncertainty=lambda rows, schema: (rows, [next(flags) for _ in rows]))
        connection.close()

    def answer(self, oid: int) -> List[Tuple[Tuple, bool]]:
        _, cid, pid, _ = self.orders[oid]
        return [((oid, f"customer_{cid}", f"product_{pid}"),
                 not self.uncertain[oid])]

    def check(self, oid: int, rows: Any) -> bool:
        return rows == self.answer(oid)


class Served:
    """Driver-facing workload object; ``kind`` is ``"cold"`` or ``"hot"``."""

    def __init__(self, kind: str, seed: int, smoke: bool, workdir: Path) -> None:
        self.kind = kind
        self.name = f"served_{kind}"
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        # 100k orders, each asked for at most once in a window, keep the
        # result cache out of served_cold; the issue's 200k would double a
        # set-up that the driver's time cap makes us repeat three times.
        self.sizes = (2_000, 50, 20) if smoke else (100_000, 2_000, 500)
        self.distinct_hot = 8 if smoke else 64
        self.store = workdir / "shop.uadb"
        self.fleet: Optional[Fleet] = None
        self.connections: List[Any] = []
        #: Hot only: per socket, key -> (request, cached response, body).
        self.references = None
        self.reconnects = 0

    # -- set-up -----------------------------------------------------------------

    def setup(self) -> None:
        """Generate, bulk-load, boot the fleet, pin, first verified answer."""
        self.shop = Shop(self.seed, *self.sizes)
        self.shop.build(self.store)
        self.fleet = Fleet(self.store, WORKERS, self.workdir, engine=ENGINE)
        rng = self.rng = random.Random(self.seed + 1)
        if self.kind == "cold":
            self.connections, self.reconnects = pinned_clients(self.fleet)
            order = list(range(len(self.shop.orders)))
            rng.shuffle(order)
            self.keys = [iter(order[i::WORKERS]) for i in range(WORKERS)]
            first = next(self.keys[0])
            rows = self.connections[0].query(QUERY, [first]).labeled_rows()
        else:
            self.connections, self.reconnects = pinned_sockets(self.fleet)
            self.hot_keys = rng.sample(range(len(self.shop.orders)),
                                       self.distinct_hot)
            first = self.hot_keys[0]
            _, body = self.connections[0].exchange(render_request(
                "POST", "/query", {"sql": QUERY, "params": [first]}))
            rows = QueryReply(json.loads(body)).labeled_rows()
        if not self.shop.check(first, rows):
            raise AssertionError(f"{self.name}: wrong first answer {rows!r}")

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        self.references = None
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
        for path in self.workdir.glob("shop.uadb*"):
            path.unlink()

    # -- windows ------------------------------------------------------------------

    def _direct(self, pool: ConnectionPool, key: int) -> Any:
        with pool.connection() as connection:
            return connection.query(QUERY, [key]).labeled_rows()

    def _part(self, seconds: float, pool: Optional[ConnectionPool] = None,
              span=None) -> Part:
        """One part of a window of this workload's traffic.

        With ``pool``, the same statement also runs in-process between the
        served requests -- the base of ``overhead_x``, under the same
        machine conditions -- and cold answers are checked against it.
        """
        if self.kind == "cold":
            baseline = None
            if pool is not None:
                def baseline(key: int, rows: Any) -> None:
                    if self._direct(pool, key) != rows:
                        self.mismatches += 1
            return closed_loop(self.connections, QUERY, self.keys, seconds,
                               self.shop.check, baseline=baseline, span=span)
        if self.references is None:
            self.references = [
                warm_references(connection, QUERY, self.hot_keys)
                for connection in self.connections]
            pipelined(self.connections, self.references, 0.0, self.seed)
        part = pipelined(self.connections, self.references, seconds,
                         self.seed, span=span)
        if pool is not None:
            for _ in range(200):
                with Timer() as timer:
                    self._direct(pool, self.rng.randrange(len(self.shop.orders)))
                part.base.append(timer.seconds)
        return part

    def _check_references(self, pool: ConnectionPool) -> List[Any]:
        """Hot: what the cache keeps answering with, decoded and checked
        against the pool; returns the ``(key, answer)`` pairs."""
        sample = []
        for known in self.references:
            for key, (_, _, body) in known.items():
                served = QueryReply(json.loads(body)).labeled_rows()
                sample.append((key, served))
                if self._direct(pool, key) != served:
                    self.mismatches += 1
        return sample

    def _counters(self) -> Dict[str, float]:
        """Fleet-wide counters: each pinned connection reads its own worker
        live, so nothing waits for the 1 Hz metrics spool."""
        totals: Dict[str, float] = {}
        for connection in self.connections:
            payload = connection.metrics()
            cache = payload.get("result_cache") or {}
            plans = payload.get("plan_cache") or {}
            coordination = payload.get("coordination") or {}
            query = (payload.get("server", {}).get("endpoints", {})
                     .get("/query", {}))
            for name, value in (
                    ("cache_hits", cache.get("hits", 0)),
                    ("cache_misses", cache.get("misses", 0)),
                    ("cache_evictions", cache.get("evictions", 0)),
                    ("plan_hits", plans.get("hits", 0)),
                    ("plan_misses", plans.get("misses", 0)),
                    ("refreshes", coordination.get("refreshes", 0)),
                    ("version_polls", coordination.get("version_polls", 0)),
                    ("pool_waits", payload.get("pool", {}).get("waits", 0))):
                totals[name] = totals.get(name, 0) + value
            totals["p99_ms"] = max(
                totals.get("p99_ms", 0.0),
                query.get("latency_ms", {}).get("p99", 0.0))
        return totals

    def measure(self, seconds: float, report: Report) -> None:
        pool = ConnectionPool(str(self.store), engine=ENGINE, name="shop")
        try:
            self._direct(pool, 0)  # absorb the compile miss
            self.mismatches = 0
            before = self._counters()
            parts = in_parts(seconds * 0.9,
                             lambda part: self._part(part, pool=pool))
            after = self._counters()
            sample = (self._check_references(pool) if self.kind == "hot"
                      else [pair for part in parts for pair in part.sample])
        finally:
            pool.close()
        report.window(parts)
        report.check("served replies equal the direct-pool answers",
                     self.mismatches == 0, f"{self.mismatches} differ")
        report.put("peak_rss_mb", self.fleet.peak_rss_mb(), "MB")
        report.notes["overhead_x_base"] = (
            "median in-process pool checkout + query + labelled rows for "
            "the same statement, interleaved with the served requests")
        report.notes["overhead_x_base_ms"] = median(
            [latency for part in parts for latency in part.base]) * 1e3
        report.notes["hit_rate"] = _rate(after, before, "cache_hits",
                                         "cache_misses")
        report.notes["reconnects_to_pin"] = self.reconnects
        report.notes["outstanding_requests"] = (
            WORKERS * PIPELINE_DEPTH if self.kind == "hot" else 1)
        report.notes["loadgen_cpu_share"] = (
            sum(part.cpu for part in parts) / sum(part.wall for part in parts))
        report.notes["digest"] = digest_of(sorted(sample[:200]))

    def _trace_direct(self, pool: ConnectionPool, seconds: float,
                          span) -> None:
        """Spans around the in-process path: checkout inside the whole."""
        rng = random.Random(self.seed + 3)
        deadline = time.perf_counter() + seconds
        count = 0
        while time.perf_counter() < deadline or count < 50:
            count += 1
            with span("api.pool.direct_query"):
                with span("api.pool.checkout"):
                    handle = pool.acquire()
                try:
                    handle.query(QUERY, [rng.randrange(len(self.shop.orders))]
                                 ).labeled_rows()
                finally:
                    handle.close()

    # -- traced run -----------------------------------------------------------------

    def trace(self, seconds: float, report: Report, tracer: Tracer) -> None:
        self._part(seconds * 0.05)
        plain = self._part(seconds * 0.2)
        before = self._counters()
        traced = self._part(seconds * 0.2, span=tracer.span)
        after = self._counters()
        report.count(len(plain.latencies) + len(traced.latencies),
                     plain.failed + traced.failed)
        report.put("trace.overhead_ratio",
                   median(traced.latencies) / median(plain.latencies), "x")
        report.put("server.fleet.cache.hit_rate",
                   _rate(after, before, "cache_hits", "cache_misses"), "ratio")
        report.put("api.cache.plan_hit_rate",
                   _rate(after, before, "plan_hits", "plan_misses"), "ratio")
        for metric, counter in (
                ("server.fleet.cache.evictions", "cache_evictions"),
                ("server.fleet.coordination.refreshes", "refreshes"),
                ("server.fleet.coordination.version_polls", "version_polls"),
                ("api.pool.wait_count", "pool_waits")):
            report.put(metric, after[counter] - before[counter], "count")
        report.put("server.metrics.p99_ms", after["p99_ms"], "ms")
        report.put("loadgen.cpu_share", traced.cpu / traced.wall, "ratio")
        report.put("loadgen.reconnects", self.reconnects, "count")

        with Client(self.fleet.host, self.fleet.port) as client:
            for _ in range(20 if self.smoke else 300):
                with tracer.span("server.http.healthz"):
                    client.healthz()
            streamed = 0
            with Timer() as timer:
                for _ in range(2 if self.smoke else 5):
                    streamed += sum(1 for _ in client.stream(
                        STREAM_QUERY, [len(self.shop.orders) // 20]))
        report.put("server.http.healthz_ms",
                   median(tracer.durations("server.http.healthz")) * 1e3, "ms")
        report.put("server.app.stream_rows_per_s", streamed / timer.seconds,
                   "1/s")

        pool = ConnectionPool(str(self.store), engine=ENGINE, name="shop")
        try:
            self._trace_direct(pool, seconds * 0.1, tracer.span)
            with pool.connection() as connection:
                for _ in range(20 if self.smoke else 300):
                    with tracer.span("api.session.plan_cache_probe"):
                        connection.prepare(QUERY)
        finally:
            pool.close()
        self_time = tracer.self_seconds()
        direct = median(tracer.durations("api.pool.direct_query"))
        report.put("api.pool.checkout_us",
                   median(self_time["api.pool.checkout"]) * 1e6, "us")
        report.put("api.pool.direct_query_us", direct * 1e6, "us")
        report.put("api.session.plan_cache_probe_us",
                   median(self_time["api.session.plan_cache_probe"]) * 1e6,
                   "us")
        codec = self._codec_seconds(tracer)
        report.put("server.client.codec_us", codec * 1e6, "us")
        # What is left of a client-observed query once the work the suite can
        # see from outside -- running it in-process, encoding and decoding it
        # -- is taken away: the server's own share.
        report.put("server.app.query_overhead_ms",
                   (median(traced.latencies) - direct - codec) * 1e3, "ms")
        if self.kind == "hot":
            self._generator_validity(seconds * 0.12, report)

    def _codec_seconds(self, tracer: Tracer) -> float:
        """``Client.query`` + labelled rows with the socket stubbed out."""
        key = 0
        canned = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" \
                 b"Connection: keep-alive\r\nContent-Length: %d\r\n\r\n%s"
        rows, certain = zip(*self.shop.answer(key))
        body = json.dumps({
            "columns": ["oid", "name", "label"], "types": ["int", "str", "str"],
            "rows": rows, "certain": certain, "row_count": 1,
            "certain_count": sum(certain), "elapsed_ms": 0.1}).encode()
        response = canned % (len(body), body)

        class CannedSocket:
            def sendall(self, data: bytes) -> None: pass
            def makefile(self, *args: Any, **kwargs: Any) -> io.BytesIO:
                return io.BytesIO(response)
            def setsockopt(self, *args: Any) -> None: pass
            def settimeout(self, value: Any) -> None: pass
            def close(self) -> None: pass

        with mock.patch.object(socket, "create_connection",
                               lambda *args, **kwargs: CannedSocket()):
            client = Client("stubbed.invalid", 80)
            for _ in range(20 if self.smoke else 300):
                with tracer.span("server.client.codec"):
                    client.query(QUERY, [key]).labeled_rows()
            client.close()
        return median(tracer.durations("server.client.codec"))

    def _generator_validity(self, seconds: float, report: Report) -> None:
        """Is the generator the limit?  And does a second worker pay?

        The ceiling is the same generator against a stub that does no work;
        scaling is the same window against fresh fleets of one and two
        workers.  Throughput above half the ceiling says the generator was
        the bottleneck, and the run's ``queries_per_s`` is not to be trusted.
        """
        body_bytes = len(next(iter(self.references[0].values()))[2])
        rates = {}
        for label, launch in (
                ("stub", lambda: Stub(self.workdir, body_bytes)),
                (1, lambda: Fleet(self.store, 1, self.workdir, engine=ENGINE)),
                (2, lambda: Fleet(self.store, 2, self.workdir, engine=ENGINE))):
            server = launch()
            try:
                connections, _ = pinned_sockets(server)
                references = [warm_references(c, QUERY, self.hot_keys)
                              for c in connections]
                pipelined(connections, references, 0.0, self.seed)
                rates[label] = pipelined(connections, references, seconds,
                                         self.seed).per_second
                for connection in connections:
                    connection.close()
            finally:
                server.stop()
        report.put("loadgen.ceiling_per_s", rates["stub"], "1/s")
        report.put("server.fleet.worker_scaling_x", rates[2] / rates[1], "x")
        report.notes["worker_scaling_base_per_s"] = rates[1]
        report.notes["loadgen_valid"] = rates[2] < rates["stub"] / 2


def _rate(after: Dict[str, float], before: Dict[str, float],
          hits: str, misses: str) -> float:
    hit = after[hits] - before[hits]
    total = hit + after[misses] - before[misses]
    return hit / total if total else 0.0
