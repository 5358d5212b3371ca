"""Request-level observability for the HTTP server.

:class:`ServerMetrics` is a small, thread-safe aggregator: per-endpoint
request/error counters and a bounded sliding window of latencies from which
percentiles are computed on demand.  It deliberately knows nothing about the
pool or plan cache -- the server merges those in from
``ConnectionPool.stats()`` when serving ``GET /metrics`` -- so it can be
updated from both the event loop and worker threads without lock ordering
concerns.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List

__all__ = ["ServerMetrics", "percentile"]

#: Latencies retained per endpoint for percentile estimation.
LATENCY_WINDOW = 2048

#: Where a ``/query`` answer ran: a result-cache hit on the event loop, a
#: miss executed on the event loop, or a worker thread of the executor.
QUERY_PATHS = ("inline_hit", "inline_miss", "executor")


def percentile(samples: List[float], fraction: float) -> float:
    """The ``fraction`` (0..1) percentile of ``samples`` (nearest-rank).

    Returns 0.0 for an empty sample list, so a scrape of an idle server is
    still well-formed JSON.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class _EndpointStats:
    """Counters and a latency window for one endpoint."""

    __slots__ = ("requests", "errors", "latencies")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)


class ServerMetrics:
    """Thread-safe request counters and latency percentiles, per endpoint.

    :meth:`record` is called once per finished request with the endpoint
    path, response status and elapsed wall-clock seconds; :meth:`snapshot`
    renders everything as a JSON-ready dict (counts, error counts, mean and
    p50/p90/p99 latencies in milliseconds, rows streamed, ``/query``
    answers by path, uptime and in-flight gauge).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: Dict[str, _EndpointStats] = {}
        self._started = time.monotonic()
        self._in_flight = 0
        self._rows_streamed = 0
        self._query_paths = dict.fromkeys(QUERY_PATHS, 0)

    def begin(self) -> None:
        """Mark a request as in flight (gauge for ``snapshot()``)."""
        with self._lock:
            self._in_flight += 1

    def record(self, endpoint: str, status: int, elapsed: float) -> None:
        """Account one finished request against ``endpoint``.

        Statuses >= 400 count as errors; every request, error or not,
        contributes its latency to the percentile window.
        """
        with self._lock:
            stats = self._endpoints.get(endpoint)
            if stats is None:
                stats = self._endpoints[endpoint] = _EndpointStats()
            stats.requests += 1
            if status >= 400:
                stats.errors += 1
            stats.latencies.append(elapsed)
            self._in_flight -= 1

    def add_streamed_rows(self, count: int) -> None:
        """Account ``count`` rows sent over an NDJSON stream."""
        with self._lock:
            self._rows_streamed += count

    def count_query_path(self, path: str) -> None:
        """Count one ``/query`` answer by path (:data:`QUERY_PATHS`)."""
        with self._lock:
            self._query_paths[path] += 1

    def snapshot(self) -> Dict[str, Any]:
        """All counters as a JSON-ready dict (latencies in milliseconds)."""
        with self._lock:
            endpoints: Dict[str, Any] = {}
            total_requests = 0
            total_errors = 0
            for path in sorted(self._endpoints):
                stats = self._endpoints[path]
                samples = list(stats.latencies)
                total_requests += stats.requests
                total_errors += stats.errors
                endpoints[path] = {
                    "requests": stats.requests,
                    "errors": stats.errors,
                    "latency_ms": {
                        "mean": (sum(samples) / len(samples) * 1e3
                                 if samples else 0.0),
                        "p50": percentile(samples, 0.50) * 1e3,
                        "p90": percentile(samples, 0.90) * 1e3,
                        "p99": percentile(samples, 0.99) * 1e3,
                    },
                }
            return {
                "uptime_seconds": time.monotonic() - self._started,
                "in_flight": self._in_flight,
                "requests_total": total_requests,
                "errors_total": total_errors,
                "rows_streamed": self._rows_streamed,
                "query_paths": dict(self._query_paths),
                "endpoints": endpoints,
            }
