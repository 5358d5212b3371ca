"""The asyncio HTTP/JSON query server fronting a :class:`ConnectionPool`.

:class:`UADBServer` binds a socket with :func:`asyncio.start_server` and
serves five endpoints over the pool:

* ``POST /query``    -- parameterized SQL ``SELECT``; returns UA-labeled rows
  (best-guess values plus a per-row certain flag), optionally streamed as
  NDJSON for large results; ``mode="attribute"`` answers with AU-DB range
  fragments whose ``bounds`` carry per-cell ``[lower, best, upper]``
  triples and ``[m_lb, m_bg, m_ub]`` multiplicities,
* ``POST /execute``  -- DDL/DML (``CREATE TABLE`` / ``INSERT``); serialized
  through the pool's writer lock,
* ``POST /load``     -- bulk ingest: an NDJSON body (header line + one
  record per line) committed in batched chunks under the cross-process
  write lock; see :mod:`repro.ingest`,
* ``GET /tables``    -- catalog metadata,
* ``GET /healthz``   -- liveness plus configuration,
* ``GET /metrics``   -- request counts, latency percentiles, plan-cache hit
  rate and pool saturation.

Statements run on a worker-thread executor sized to the pool, so a request
can always check a connection out; reads run concurrently under the pool's
shared lock and writes serialize behind its writer lock.  One exception
skips the thread hop: a result-cache miss of a non-streamed ``POST /query``
is answered on the event loop itself -- the way a cache hit already is --
when (a) the version poll the request makes says no refresh is due, (b) no
other request of this server is in flight and no pooled connection is
checked out (the loop then never waits on the pool, its lock or a refresh;
the checkout does not block, and a failed one falls back to the executor),
and (c) the same statement (normalized SQL and mode) last answered in under
``sys.getswitchinterval()`` -- no longer than a worker thread holding the
GIL may already keep the loop waiting.  A first-seen or slow statement, a
due refresh, a busy server, a streamed answer and every other endpoint take
the executor.  Typed exceptions from every layer -- SQL syntax and
translation errors, :class:`~repro.db.params.ParameterError`,
:class:`~repro.db.engine.base.UnknownEngineError`,
:class:`~repro.api.store.StoreError`, pool exhaustion -- map to structured
JSON error bodies ``{"error": {"code": ..., "message": ...}}`` with the
matching HTTP status.

Run one from the command line (``python -m repro.server --store app.uadb``),
inline in an asyncio program (:func:`serve`), or on a background thread for
tests and notebooks (:class:`ServerThread`).
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.api.pool import ConnectionPool, PoolError, PoolTimeout
from repro.api.session import SessionError
from repro.api.store import StoreError, UnstorableRelationError
from repro.core.attribute_bounds import fragment_certain
from repro.db.engine import dispatch_counts, get_engine
from repro.db.engine.base import EvaluationError, UnknownEngineError
from repro.db.params import ParameterError
from repro.db.schema import SchemaError
from repro.db.sql.lexer import SQLSyntaxError
from repro.db.sql.translator import TranslationError
from repro.ingest.sources import IngestError
from repro.server import http
from repro.server.fleet.auth import SecurityPolicy
from repro.server.fleet.cache import ResultCache, normalize_sql
from repro.server.fleet.coordination import StoreCoordinator, WriteLockTimeout
from repro.server.fleet.metrics_exchange import MetricsExchange, aggregate_fleet
from repro.server.http import HTTPError, Request, json_bytes
from repro.server.metrics import ServerMetrics

__all__ = ["UADBServer", "ServerThread", "serve"]

logger = logging.getLogger(__name__)

#: Typed exception -> (HTTP status, error code, retryable), checked in order
#: (subclasses first, so e.g. a PoolTimeout is reported as pool_timeout, not
#: pool_error).  ``retryable`` marks transient conditions -- lock contention,
#: pool saturation -- where re-sending the identical request can succeed.
ERROR_MAP: Tuple[Tuple[type, int, str, bool], ...] = (
    (HTTPError, 0, "", False),  # handled specially; carries its own status
    (SQLSyntaxError, 400, "parse_error", False),
    (TranslationError, 400, "translation_error", False),
    (ParameterError, 400, "parameter_error", False),
    (SchemaError, 400, "schema_error", False),
    (UnknownEngineError, 400, "unknown_engine", False),
    (UnstorableRelationError, 400, "unstorable_relation", False),
    (IngestError, 400, "ingest_error", False),
    (WriteLockTimeout, 503, "write_lock_timeout", True),
    (StoreError, 500, "store_error", False),
    (PoolTimeout, 503, "pool_timeout", True),
    (PoolError, 503, "pool_error", True),
    (SessionError, 400, "session_error", False),
    (EvaluationError, 500, "evaluation_error", False),
)

#: Rows are flushed to a streaming client once this many body bytes buffer up.
STREAM_FLUSH_BYTES = 32 * 1024

#: How often a fleet worker publishes its metrics snapshot for siblings.
METRICS_PUBLISH_INTERVAL = 1.0


def _map_exception(error: BaseException) -> HTTPError:
    """Translate a typed repro exception into the HTTPError to report."""
    if isinstance(error, HTTPError):
        return error
    for exc_type, status, code, retryable in ERROR_MAP[1:]:
        if isinstance(error, exc_type):
            return HTTPError(status, code, str(error), retryable=retryable)
    logger.exception("unhandled error while serving a request", exc_info=error)
    return HTTPError(500, "internal_error",
                     f"{type(error).__name__}: {error}")


class UADBServer:
    """An asyncio HTTP server answering UA-DB queries from a connection pool.

    Construct it over an existing :class:`~repro.api.pool.ConnectionPool`
    (``pool=``; the caller keeps ownership and closes it), or let the server
    build -- and on :meth:`stop` gracefully drain and close -- its own pool
    from ``store`` / ``semiring`` / ``engine`` / ``optimize`` /
    ``max_connections`` / ``cache_size``, which follow
    :class:`~repro.api.pool.ConnectionPool` semantics.  ``port=0`` binds an
    ephemeral port; read the bound address from :attr:`address` after
    :meth:`start`.

    ``checkout_timeout`` bounds how long a request waits for a pooled
    connection before answering ``503 pool_timeout``; ``drain_timeout``
    bounds how long :meth:`stop` waits for in-flight requests;
    ``idle_timeout`` drops connections that fail to deliver a complete
    request in time (keep-alive idling and slow-trickle bodies alike;
    None disables).

    Fleet-tier options (all default off, leaving the single-process
    behaviour untouched): ``reuse_port`` lets sibling worker processes bind
    the same address with ``SO_REUSEPORT``; ``policy`` enables bearer-token
    auth and per-client rate limits (``/healthz`` stays exempt so liveness
    probes never need credentials); ``result_cache`` memoizes rendered
    ``POST /query`` bodies keyed on the catalog/statistics versions;
    ``metrics_exchange`` publishes this worker's counters for -- and folds
    siblings' into -- ``GET /metrics``.  A store-backed server always gets a
    :class:`~repro.server.fleet.coordination.StoreCoordinator`, so writes
    from other processes over the same ``.uadb`` file become visible within
    one request even without the rest of the fleet machinery.
    """

    def __init__(self, pool: Optional[ConnectionPool] = None, *,
                 host: str = "127.0.0.1", port: int = 8080,
                 store: Optional[object] = None, semiring=None,
                 name: str = "uadb", engine: Optional[object] = None,
                 optimize: Optional[bool] = None, cache_size: int = 256,
                 max_connections: int = 8,
                 checkout_timeout: float = 30.0,
                 drain_timeout: float = 5.0,
                 idle_timeout: Optional[float] = 60.0,
                 max_body_bytes: int = http.DEFAULT_MAX_BODY_BYTES,
                 reuse_port: bool = False,
                 policy: Optional[SecurityPolicy] = None,
                 result_cache: Optional[ResultCache] = None,
                 metrics_exchange: Optional[MetricsExchange] = None) -> None:
        if pool is None:
            pool = ConnectionPool(store=store, semiring=semiring, name=name,
                                  engine=engine, optimize=optimize,
                                  cache_size=cache_size,
                                  max_connections=max_connections)
            self._owns_pool = True
        else:
            self._owns_pool = False
        self.pool = pool
        self.host = host
        self.port = port
        self.checkout_timeout = checkout_timeout
        self.drain_timeout = drain_timeout
        self.idle_timeout = idle_timeout
        self.max_body_bytes = max_body_bytes
        self.reuse_port = reuse_port
        self.policy = policy
        self.result_cache = result_cache
        self.metrics_exchange = metrics_exchange
        self.coordinator = StoreCoordinator(pool,
                                            lock_timeout=checkout_timeout)
        self.metrics = ServerMetrics()
        self._draining = False
        self._publish_task: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=pool.max_connections, thread_name_prefix="uadb-query")
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: set = set()
        self._busy: set = set()
        #: (normalized SQL, mode) -> seconds its last answer took; rule (c).
        self._answer_seconds: "OrderedDict[Tuple[str, str], float]" = (
            OrderedDict())
        self._answer_lock = threading.Lock()
        self._routes = {
            "/query": ("POST", self._handle_query),
            "/execute": ("POST", self._handle_execute),
            "/load": ("POST", self._handle_load),
            "/tables": ("GET", self._handle_tables),
            "/healthz": ("GET", self._handle_healthz),
            "/metrics": ("GET", self._handle_metrics),
        }

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket; :attr:`address` is valid afterwards."""
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port,
            reuse_port=self.reuse_port or None)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_exchange is not None:
            self._publish_task = asyncio.get_running_loop().create_task(
                self._publish_metrics_loop())

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` the server is (or will be) bound to."""
        return (self.host, self.port)

    async def serve_forever(self) -> None:
        """Accept connections until cancelled (call after :meth:`start`)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight requests.

        Idle keep-alive connections are dropped immediately; connections in
        the middle of a request get up to ``drain_timeout`` seconds to
        finish.  The worker executor is then shut down and, if the server
        created its own pool, the pool is drained and closed too.

        While draining, any *new* request on a surviving keep-alive
        connection answers ``503 draining`` with ``retryable: true`` --
        fleet clients re-send it, and the router or kernel steers the retry
        to a live worker.
        """
        self._draining = True
        if self._publish_task is not None:
            self._publish_task.cancel()
            try:
                await self._publish_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._publish_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._clients - self._busy):
            task.cancel()
        busy = list(self._busy)
        if busy:
            await asyncio.wait(busy, timeout=self.drain_timeout)
        for task in list(self._clients):
            task.cancel()
        if self._clients:
            await asyncio.gather(*list(self._clients), return_exceptions=True)
        # Cancelling a task does not stop an already-running worker thread,
        # so don't wait for the executor here -- a wedged query would hold
        # stop() (and the event loop) far past drain_timeout.
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.metrics_exchange is not None:
            try:  # final snapshot: siblings see this worker's last counters
                self.metrics_exchange.publish(self.metrics_payload())
            except Exception:  # noqa: BLE001 - shutdown is best-effort
                logger.debug("final metrics publish failed", exc_info=True)
        if self._owns_pool and not self.pool.closed:
            def close_pool() -> None:
                try:
                    self.pool.close(timeout=self.drain_timeout)
                except PoolTimeout:
                    logger.warning(
                        "pool still busy after %.1fs; forcing close with "
                        "requests in flight", self.drain_timeout)
                    self.pool.close(drain=False)

            # The drain blocks on a threading.Condition; keep it off the
            # event loop so an embedding application's other coroutines
            # keep running while the pool winds down.
            await asyncio.get_running_loop().run_in_executor(None, close_pool)

    # -- connection handling ------------------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._clients.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away, or server shutdown cancelled us
        finally:
            self._clients.discard(task)
            self._busy.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Serve requests on one connection until close or keep-alive ends."""
        task = asyncio.current_task()
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, (tuple, list)) else None
        while True:
            try:
                # One bound covers keep-alive idling and slow-trickle
                # request bodies: a connection that cannot produce a full
                # request within idle_timeout is dropped, so stalled
                # clients cannot pin tasks and file descriptors forever.
                request = await asyncio.wait_for(
                    http.read_request(reader, self.max_body_bytes),
                    timeout=self.idle_timeout)
            except asyncio.TimeoutError:
                return
            except HTTPError as error:
                writer.write(self._render_error(error, keep_alive=False))
                await writer.drain()
                return
            if request is None:
                return
            self._busy.add(task)
            self.metrics.begin()
            started = time.perf_counter()
            status = 500
            try:
                status = await self._dispatch(request, writer, peer)
            except Exception as error:  # noqa: BLE001 - mapped to JSON below
                if isinstance(error, (ConnectionResetError, BrokenPipeError,
                                      asyncio.CancelledError)):
                    raise
                mapped = _map_exception(error)
                status = mapped.status
                writer.write(self._render_error(mapped, request.keep_alive))
            finally:
                # Unknown paths share one bucket so URL scanners cannot grow
                # the per-endpoint metrics table without bound.
                endpoint = (request.path if request.path in self._routes
                            else "(unmatched)")
                self.metrics.record(endpoint, status,
                                    time.perf_counter() - started)
                self._busy.discard(task)
            await writer.drain()
            if not request.keep_alive:
                return

    async def _dispatch(self, request: Request, writer: asyncio.StreamWriter,
                        peer: Optional[str] = None) -> int:
        # The middleware layer every endpoint shares: drain refusal first
        # (a draining worker must not accept new work it may not finish),
        # then authentication and rate limiting.  /healthz stays exempt so
        # orchestrator liveness probes work unauthenticated and mid-drain.
        if request.path != "/healthz":
            if self._draining:
                raise HTTPError(503, "draining",
                                "server is draining for shutdown; retry "
                                "(another worker will answer)",
                                retryable=True,
                                headers={"Retry-After": "1"})
            if self.policy is not None:
                self.policy.check(request, peer)
        route = self._routes.get(request.path)
        if route is None:
            raise HTTPError(404, "not_found",
                            f"no such endpoint {request.path!r}; available: "
                            f"{', '.join(sorted(self._routes))}")
        method, handler = route
        if request.method != method:
            raise HTTPError(405, "method_not_allowed",
                            f"{request.path} expects {method}")
        return await handler(request, writer)

    def _render_error(self, error: HTTPError, keep_alive: bool) -> bytes:
        payload = {"code": error.code, "message": error.message,
                   "retryable": error.retryable}
        # Structured context (e.g. max_body_bytes on a 413) rides inside the
        # error object so SDKs never have to parse the prose message.
        payload.update(error.details)
        body = json_bytes({"error": payload})
        return http.render_response(error.status, body, keep_alive=keep_alive,
                                    extra_headers=error.headers or None)

    def _write_json(self, writer: asyncio.StreamWriter, status: int,
                    payload: Any, keep_alive: bool) -> None:
        writer.write(http.render_response(status, json_bytes(payload),
                                          keep_alive=keep_alive))

    # -- endpoint handlers --------------------------------------------------------

    async def _handle_query(self, request: Request,
                            writer: asyncio.StreamWriter) -> int:
        payload = request.json()
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise HTTPError(400, "bad_request", "'sql' must be a non-empty string")
        params = payload.get("params")
        if params is not None and not isinstance(params, (list, dict)):
            raise HTTPError(400, "bad_request",
                            "'params' must be an array (positional) or an "
                            "object (named)")
        mode = payload.get("mode", "rewritten")
        if mode not in ("rewritten", "direct", "attribute"):
            raise HTTPError(400, "bad_request",
                            f"unknown mode {mode!r}; use 'rewritten', "
                            "'direct' or 'attribute'")
        stream = bool(payload.get("stream", False))
        loop = asyncio.get_running_loop()
        if not stream:
            # One indexed SQLite read, safe on the loop; None = refresh due.
            versions = self.coordinator.poll()
            cache = self.result_cache
            answer = None
            if versions is not None and cache is not None and cache.enabled:
                body = cache.peek(ResultCache.key(
                    sql, params, mode, self._engine_name(), *versions))
                if body is not None:
                    answer, path = (body, True), "inline_hit"
            if answer is None and self._answers_inline(sql, mode, versions):
                try:
                    answer = self._answer(sql, params, mode, versions,
                                          timeout=0)
                    path = "inline_miss"
                except PoolTimeout:
                    pass  # a checkout raced in: the executor may wait
            if answer is None:
                answer = await loop.run_in_executor(
                    self._executor, self._answer, sql, params, mode,
                    versions, self.checkout_timeout)
                path = "executor"
            self.metrics.count_query_path(path)
            body, cached = answer
            extra = ({"X-UADB-Cache": "hit" if cached else "miss"}
                     if cache is not None else None)
            writer.write(http.render_response(200, body,
                                              keep_alive=request.keep_alive,
                                              extra_headers=extra))
            return 200
        columns, types, rows, certain, bounds, elapsed = (
            await loop.run_in_executor(
                self._executor, self._run_query, sql, params, mode))
        self.metrics.count_query_path("executor")
        summary = {
            "row_count": len(rows),
            "certain_count": sum(certain),
            "elapsed_ms": elapsed * 1e3,
        }
        await self._stream_rows(writer, request,
                                {"columns": columns, "types": types},
                                rows, certain, bounds, summary)
        return 200

    async def _stream_rows(self, writer: asyncio.StreamWriter,
                           request: Request, header: Dict[str, Any],
                           rows: List[Any], certain: List[bool],
                           bounds: Optional[List[Any]],
                           summary: Dict[str, Any]) -> None:
        """Send a query result as streamed NDJSON: header, rows, summary.

        HTTP/1.1 clients get chunked framing on a keep-alive connection;
        HTTP/1.0 clients (no chunked encoding in 1.0) get an EOF-delimited
        body on a closing connection.  The result itself is already
        materialized (the engines are not streaming); what streams is the
        encode-and-send, with backpressure via ``drain()`` every
        :data:`STREAM_FLUSH_BYTES`, so a slow client never balloons the
        server's write buffer.  Attribute-mode results (``bounds`` not
        ``None``) carry each fragment's per-cell range triples and
        multiplicity on its row line.
        """
        chunked = request.version != "HTTP/1.0"
        writer.write(http.render_response(
            200, b"", content_type="application/x-ndjson",
            keep_alive=request.keep_alive, chunked=chunked,
            eof_delimited=not chunked))
        buffer = bytearray(json_bytes(header) + b"\n")
        for index, (row, certain_flag) in enumerate(zip(rows, certain)):
            record = {"row": row, "certain": certain_flag}
            if bounds is not None:
                record["bounds"] = bounds[index]
            buffer += json_bytes(record) + b"\n"
            if len(buffer) >= STREAM_FLUSH_BYTES:
                writer.write(http.chunk(bytes(buffer)) if chunked
                             else bytes(buffer))
                buffer.clear()
                await writer.drain()
        buffer += json_bytes(summary) + b"\n"
        if chunked:
            writer.write(http.chunk(bytes(buffer)) + http.LAST_CHUNK)
        else:
            writer.write(bytes(buffer))
        await writer.drain()
        self.metrics.add_streamed_rows(len(rows))

    def _answers_inline(self, sql: str, mode: str, versions) -> bool:
        """Rules (a)-(c) of the module docstring for a cache miss."""
        if versions is None or len(self._busy) != 1:
            return False
        last = self._answer_seconds.get((normalize_sql(sql), mode))
        return (last is not None and last < sys.getswitchinterval()
                and self.pool.usage()["in_use"] == 0)

    def _answer(self, sql: str, params, mode: str, versions,
                timeout: float):
        """Answer one non-streamed ``POST /query``, on the loop or a thread.

        ``versions`` None (the loop's poll found a refresh due; only ever
        on a worker thread) first adopts cross-process writes.  Checks a
        connection out (``timeout=0`` on the loop, so it never waits),
        then answers from the result cache when the exact (SQL,
        params, mode, engine, catalog version, statistics version) body was
        rendered before -- the version pair makes invalidation exact: any
        write, local or foreign, changes the key -- or executes, labels,
        encodes and caches it, noting how long that took for rule (c).
        Returns ``(body bytes, served-from-cache flag)``.
        """
        if versions is None:
            versions = self.coordinator.ensure_fresh()
        with self.pool.connection(timeout=timeout) as conn:
            cache = self.result_cache
            key = None
            if cache is not None and cache.enabled:
                key = ResultCache.key(sql, params, mode, self._engine_name(),
                                      *versions)
                body = cache.get(key)
                if body is not None:
                    return body, True
            started = time.perf_counter()
            columns, types, rows, certain, bounds, elapsed = (
                self._execute_query(conn, sql, params, mode))
        payload: Dict[str, Any] = {
            "columns": columns, "types": types,
            "rows": rows, "certain": certain,
            "row_count": len(rows),
            "certain_count": sum(certain),
            "elapsed_ms": elapsed * 1e3,
        }
        if bounds is not None:
            payload["bounds"] = bounds
        body = json_bytes(payload)
        if key is not None:
            cache.put(key, body)
        statement = (normalize_sql(sql), mode)
        with self._answer_lock:
            self._answer_seconds[statement] = time.perf_counter() - started
            self._answer_seconds.move_to_end(statement)
            while len(self._answer_seconds) > self.pool.plan_cache.max_size:
                self._answer_seconds.popitem(last=False)
        return body, False

    def _run_query(self, sql: str, params, mode: str):
        """Worker-thread body of streamed ``POST /query`` (no result cache)."""
        self.coordinator.ensure_fresh()
        with self.pool.connection(timeout=self.checkout_timeout) as conn:
            return self._execute_query(conn, sql, params, mode)

    def _execute_query(self, conn, sql: str, params, mode: str):
        """Execute on a checked-out connection and label rows with certainty.

        Returns ``(columns, types, rows, certain, bounds, elapsed)``;
        ``bounds`` is ``None`` for the tuple-level modes and, in mode
        ``"attribute"``, a list parallel to ``rows`` carrying each
        fragment's per-cell ``[lower, best, upper]`` triples and its
        ``[m_lb, m_bg, m_ub]`` multiplicity.
        """
        if conn.statement_kind(sql, mode=mode) not in ("select", "explain"):
            raise HTTPError(400, "invalid_statement",
                            "/query only accepts SELECT/EXPLAIN "
                            "statements; use /execute for DDL/DML")
        if mode == "attribute":
            return self._execute_attribute_query(conn, sql, params)
        if mode == "rewritten":
            result = conn.query(sql, params)
        else:
            result = conn.query_direct(sql, params)
        attributes = result.schema.attributes
        columns = [attribute.name for attribute in attributes]
        types = [attribute.data_type.name.lower() for attribute in attributes]
        pairs = result.labeled_rows()
        rows = [row for row, _ in pairs]
        certain = [flag for _, flag in pairs]
        return columns, types, rows, certain, None, result.elapsed

    @staticmethod
    def _execute_attribute_query(conn, sql: str, params):
        """Attribute-mode body of ``/query``: one row per range fragment.

        Each fragment of the :class:`~repro.core.AttributeBoundsRelation`
        answer yields its best-guess row, a certainty flag
        (:func:`~repro.core.attribute_bounds.fragment_certain`), and a
        bounds record with the per-cell ``[lower, best, upper]`` triples
        plus the fragment's multiplicity triple -- so clients see the full
        AU-DB answer, not just the best-guess world.
        """
        result = conn.query_bounds(sql, params)
        columns = list(result.schema.attribute_names)
        types = [attribute.data_type.name.lower()
                 for attribute in result.schema.attributes]
        rows: List[Any] = []
        certain: List[bool] = []
        bounds: List[Dict[str, Any]] = []
        for ranges, multiplicity in result.bounded_rows():
            rows.append([r[1] for r in ranges])
            certain.append(fragment_certain(multiplicity[0], ranges))
            bounds.append({"cells": [list(r) for r in ranges],
                           "multiplicity": list(multiplicity)})
        return columns, types, rows, certain, bounds, result.elapsed

    async def _handle_execute(self, request: Request,
                              writer: asyncio.StreamWriter) -> int:
        payload = request.json()
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise HTTPError(400, "bad_request", "'sql' must be a non-empty string")
        params = payload.get("params")
        params_seq = payload.get("params_seq")
        if params is not None and params_seq is not None:
            raise HTTPError(400, "bad_request",
                            "pass either 'params' or 'params_seq', not both")
        if params is not None and not isinstance(params, (list, dict)):
            raise HTTPError(400, "bad_request",
                            "'params' must be an array or an object")
        if params_seq is not None and not (
                isinstance(params_seq, list)
                and all(isinstance(p, (list, dict)) for p in params_seq)):
            raise HTTPError(400, "bad_request",
                            "'params_seq' must be an array of arrays/objects")
        loop = asyncio.get_running_loop()
        rowcount, elapsed = await loop.run_in_executor(
            self._executor, self._run_execute, sql, params, params_seq)
        self._write_json(writer, 200,
                         {"rowcount": rowcount, "elapsed_ms": elapsed * 1e3},
                         request.keep_alive)
        return 200

    def _run_execute(self, sql: str, params, params_seq):
        """Worker-thread body of ``POST /execute``.

        Writes serialize at two levels, acquired strictly in this order: the
        cross-process ``flock`` (:meth:`StoreCoordinator.write` -- a no-op
        for storeless pools), then the pool's in-process writer lock inside
        ``conn.execute``.  The coordinator refreshes from foreign writes
        under the lock, so this statement applies to the latest catalog and
        its version bump supersedes every sibling's.
        """
        with self.coordinator.write(timeout=self.checkout_timeout):
            with self.pool.connection(timeout=self.checkout_timeout) as conn:
                if conn.statement_kind(sql) in ("select", "explain"):
                    raise HTTPError(400, "invalid_statement",
                                    "/execute is for DDL/DML statements; "
                                    "use /query for SELECT/EXPLAIN")
                started = time.perf_counter()
                if params_seq is not None:
                    cursor = conn.executemany(sql, params_seq)
                else:
                    cursor = conn.execute(sql, params)
                return cursor.rowcount, time.perf_counter() - started

    async def _handle_load(self, request: Request,
                           writer: asyncio.StreamWriter) -> int:
        """Bulk ingest one NDJSON batch.

        Body protocol: the first line is a JSON header object --
        ``{"table": ..., "columns": [...], "create": true, "chunk_size": N,
        "uncertainty": null | "certain" | "flag" | "impute"}`` -- and every
        following line is one record (JSON array or object).  The batch is
        committed in :mod:`repro.ingest` chunks, each one WAL transaction;
        the response is the load report with per-chunk breakdown.  Clients
        with more rows than fit under ``max_body_bytes`` send several
        ``/load`` requests (see ``Client.load``); each body is atomic per
        chunk, not per request.
        """
        body = request.body
        if not body:
            raise HTTPError(400, "bad_request",
                            "/load expects an NDJSON body: a JSON header "
                            "line, then one record per line")
        newline = body.find(b"\n")
        header_line = body if newline < 0 else body[:newline]
        records = b"" if newline < 0 else body[newline + 1:]
        try:
            header = json.loads(header_line)
        except ValueError as error:
            raise HTTPError(400, "bad_json",
                            f"/load header line is not valid JSON: {error}")
        if not isinstance(header, dict):
            raise HTTPError(400, "bad_request",
                            "/load header line must be a JSON object")
        table = header.get("table")
        if not isinstance(table, str) or not table.strip():
            raise HTTPError(400, "bad_request",
                            "'table' must be a non-empty string")
        columns = header.get("columns")
        if columns is not None and not (
                isinstance(columns, list)
                and columns
                and all(isinstance(name, str) for name in columns)):
            raise HTTPError(400, "bad_request",
                            "'columns' must be a non-empty array of strings")
        uncertainty = header.get("uncertainty")
        if uncertainty is not None and uncertainty not in (
                "certain", "flag", "impute"):
            raise HTTPError(400, "bad_request",
                            "'uncertainty' must be 'certain', 'flag' or "
                            "'impute'")
        create = header.get("create", True)
        if not isinstance(create, bool):
            raise HTTPError(400, "bad_request", "'create' must be a boolean")
        chunk_size = header.get("chunk_size")
        if chunk_size is not None and (
                not isinstance(chunk_size, int) or isinstance(chunk_size, bool)
                or chunk_size < 1):
            raise HTTPError(400, "bad_request",
                            "'chunk_size' must be a positive integer")
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            self._executor, self._run_load, table, records, columns,
            create, chunk_size, uncertainty)
        self._write_json(writer, 200, report, request.keep_alive)
        return 200

    def _run_load(self, table: str, records: bytes, columns, create: bool,
                  chunk_size, uncertainty) -> Dict[str, Any]:
        """Worker-thread body of ``POST /load``.

        Same locking order as ``/execute``: cross-process ``flock`` first,
        then the pool's writer lock inside each chunk's batched write.
        """
        from repro import ingest

        source = ingest.NDJSONSource(records.split(b"\n"), columns=columns)
        with self.coordinator.write(timeout=self.checkout_timeout):
            with self.pool.connection(timeout=self.checkout_timeout) as conn:
                report = ingest.load(
                    conn, table, source, create=create,
                    chunk_size=chunk_size or ingest.loader.DEFAULT_CHUNK_SIZE,
                    uncertainty=uncertainty)
        payload = report.to_dict()
        payload["elapsed_ms"] = report.seconds * 1e3
        return payload

    async def _handle_tables(self, request: Request,
                             writer: asyncio.StreamWriter) -> int:
        loop = asyncio.get_running_loop()
        tables = await loop.run_in_executor(self._executor, self._run_tables)
        self._write_json(writer, 200, {"tables": tables}, request.keep_alive)
        return 200

    def _run_tables(self):
        self.coordinator.ensure_fresh()
        with self.pool.connection(timeout=self.checkout_timeout) as conn:
            return conn.tables()

    async def _handle_healthz(self, request: Request,
                              writer: asyncio.StreamWriter) -> int:
        stats = self.pool.usage()
        store = self.pool.store
        self._write_json(writer, 200, {
            "status": "draining" if self._draining else "ok",
            "semiring": self.pool.semiring.name,
            "engine": self._engine_name(),
            "store": store.path if store is not None else None,
            "pool": {"in_use": stats["in_use"],
                     "max_connections": stats["max_connections"]},
            # Advertised so SDKs can size /load chunks without probing for
            # 413s (Client.load reads this before its first upload).
            "limits": {"max_body_bytes": self.max_body_bytes},
        }, request.keep_alive)
        return 200

    def _engine_name(self) -> str:
        """The resolved engine name (or the raw spec if it cannot resolve)."""
        try:
            return get_engine(self.pool.engine).name
        except EvaluationError:
            return str(self.pool.engine)

    def metrics_payload(self) -> Dict[str, Any]:
        """The full ``GET /metrics`` body for *this* process.

        Also what a fleet worker periodically publishes to its siblings
        through the :class:`MetricsExchange`.
        """
        pool_stats = self.pool.stats()
        cache = pool_stats.pop("plan_cache")
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
        store = pool_stats.pop("store", None)
        pool_stats["saturation"] = (pool_stats["in_use"]
                                    / pool_stats["max_connections"])
        payload: Dict[str, Any] = {
            "server": self.metrics.snapshot(),
            "plan_cache": cache,
            "pool": pool_stats,
            "store": store,
            # Per-engine dispatch counts: where evaluate() sent plans.  A
            # plan sqlite cannot compile counts twice, once under "sqlite"
            # and once under the engine it fell back to.
            "engine_dispatch": dispatch_counts(),
        }
        if self.result_cache is not None:
            payload["result_cache"] = self.result_cache.stats()
        if self.coordinator.active:
            payload["coordination"] = self.coordinator.stats()
        if self.policy is not None:
            payload["security"] = self.policy.stats()
        return payload

    async def _handle_metrics(self, request: Request,
                              writer: asyncio.StreamWriter) -> int:
        payload = self.metrics_payload()
        if self.metrics_exchange is not None:
            # Fold every sibling worker's published snapshot in, overlaying
            # this worker's *live* payload, so any one worker of the fleet
            # answers for all of them -- with hit rates recomputed from
            # summed counters, never a single process's view.
            snapshots = self.metrics_exchange.read_all()
            snapshots[self.metrics_exchange.worker_index] = {
                "worker": self.metrics_exchange.worker_index,
                "pid": os.getpid(),
                "published_at": time.time(),
                "metrics": payload,
            }
            payload["worker"] = self.metrics_exchange.worker_index
            payload["fleet"] = aggregate_fleet(snapshots)
        self._write_json(writer, 200, payload, request.keep_alive)
        return 200

    async def _publish_metrics_loop(self) -> None:
        """Periodically publish this worker's counters for its siblings."""
        loop = asyncio.get_running_loop()
        while True:
            try:
                await loop.run_in_executor(None, self.metrics_exchange.publish,
                                           self.metrics_payload())
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - publishing must never kill us
                logger.debug("metrics publish failed", exc_info=True)
            await asyncio.sleep(METRICS_PUBLISH_INTERVAL)

    def __repr__(self) -> str:
        state = "bound" if self._server is not None else "unbound"
        return f"<UADBServer http://{self.host}:{self.port} {state} over {self.pool!r}>"


async def serve(**kwargs: Any) -> UADBServer:
    """Construct a :class:`UADBServer`, start it, and return it.

    Convenience for asyncio programs::

        server = await serve(store="app.uadb", port=0)
        try:
            ...  # talk to server.address
        finally:
            await server.stop()
    """
    server = UADBServer(**kwargs)
    try:
        await server.start()
    except BaseException:
        await server.stop()  # release the server-owned pool (and store)
        raise
    return server


class ServerThread:
    """A :class:`UADBServer` running on a dedicated background event loop.

    The synchronous front door for tests, examples and benchmarks::

        with ServerThread(engine="sqlite", port=0) as server:
            client = server.client()
            client.execute("CREATE TABLE t (a INT)")
            print(client.query("SELECT a FROM t").rows)

    :meth:`start` blocks until the socket is bound (startup errors re-raise
    in the calling thread); :meth:`stop` runs the server's graceful shutdown
    and joins the loop thread.  Construction arguments are passed through to
    :class:`UADBServer` unchanged.
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self.server = UADBServer(**server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid once :meth:`start` returned)."""
        return self.server.address

    def client(self):
        """A new :class:`~repro.server.client.Client` for this server."""
        from repro.server.client import Client

        host, port = self.address
        return Client(host, port)

    def start(self) -> "ServerThread":
        """Start the loop thread and wait until the server accepts connections."""
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="uadb-server")
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # surface bind errors in start()
            self._startup_error = error
            try:
                await self.server.stop()  # release the owned pool/store
            except Exception:  # pragma: no cover - best-effort cleanup
                logger.exception("cleanup after failed startup")
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        """Gracefully stop the server and join its thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
