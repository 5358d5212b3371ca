"""Cross-worker metrics aggregation through per-worker snapshot files.

Pre-forked workers share no memory, so ``GET /metrics`` on any one worker
would otherwise report only that process's counters (the per-process
``hit_rate`` problem).  :class:`MetricsExchange` fixes this with the
simplest robust mechanism available to siblings on one host: each worker
periodically publishes its metrics payload to ``<dir>/worker-<index>.json``
via an atomic write (temp file + ``rename``), and whichever worker serves a
``/metrics`` request merges every sibling's latest snapshot into a ``fleet``
section -- per-worker payloads labeled by worker index plus an aggregate
whose rates are recomputed from *summed* counters, not averaged averages.

A crashed worker's file is overwritten when the supervisor restarts its
slot; a worker that has not published yet simply does not appear.  Readers
tolerate torn or missing files (the atomic rename makes them near
impossible) by skipping them.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, Optional

__all__ = ["MetricsExchange", "aggregate_fleet"]

#: Snapshot files older than this many seconds are reported as stale.
STALE_AFTER = 15.0


class MetricsExchange:
    """Publishes one worker's metrics and reads every sibling's.

    ``directory`` is shared by all workers of one fleet (the supervisor
    creates and owns it); ``worker_index`` names this worker's file, so a
    restarted worker in the same slot replaces its predecessor's snapshot.
    """

    def __init__(self, directory: str, worker_index: int) -> None:
        self.directory = directory
        self.worker_index = worker_index
        self.path = os.path.join(directory, f"worker-{worker_index}.json")
        self.publishes = 0

    def publish(self, payload: Dict[str, Any]) -> None:
        """Atomically replace this worker's snapshot file with ``payload``."""
        body = json.dumps({
            "worker": self.worker_index,
            "pid": os.getpid(),
            "published_at": time.time(),
            "metrics": payload,
        }, separators=(",", ":"), default=repr)
        fd, temp_path = tempfile.mkstemp(dir=self.directory,
                                         prefix=f".worker-{self.worker_index}-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(body)
            os.replace(temp_path, self.path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.publishes += 1

    def read_all(self) -> Dict[int, Dict[str, Any]]:
        """Every worker's latest snapshot, keyed by worker index.

        Includes this worker's own published file; the server overlays its
        *live* payload on top so the serving worker is never stale.
        """
        snapshots: Dict[int, Dict[str, Any]] = {}
        try:
            names = os.listdir(self.directory)
        except OSError:
            return snapshots
        for name in names:
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.directory, name),
                          encoding="utf-8") as handle:
                    snapshot = json.load(handle)
                index = int(snapshot["worker"])
            except (OSError, ValueError, KeyError, TypeError):
                continue  # torn write or foreign file: skip
            snapshots[index] = snapshot
        return snapshots

    def __repr__(self) -> str:
        return f"<MetricsExchange worker={self.worker_index} dir={self.directory!r}>"


def _rate(hits: float, misses: float) -> float:
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def aggregate_fleet(snapshots: Dict[int, Dict[str, Any]],
                    now: Optional[float] = None) -> Dict[str, Any]:
    """Merge per-worker snapshots into the ``fleet`` section of /metrics.

    Counters (requests, cache lookups, ``/query`` answers by path) are
    summed; rates (cache hit rates) are recomputed from summed counters
    across workers -- the whole point of the exchange: a per-process rate
    silently describes one worker, the aggregate describes the fleet.
    """
    now = time.time() if now is None else now
    workers: Dict[str, Any] = {}
    totals = {
        "requests_total": 0, "errors_total": 0, "rows_streamed": 0,
        "plan_cache_hits": 0, "plan_cache_misses": 0,
        "result_cache_hits": 0, "result_cache_misses": 0,
    }
    query_paths: Dict[str, int] = {}
    for index in sorted(snapshots):
        snapshot = snapshots[index]
        metrics = snapshot.get("metrics", {})
        server = metrics.get("server", {})
        plan_cache = metrics.get("plan_cache", {})
        result_cache = metrics.get("result_cache") or {}
        age = max(0.0, now - float(snapshot.get("published_at", now)))
        workers[str(index)] = {
            "pid": snapshot.get("pid"),
            "age_seconds": round(age, 3),
            "stale": age > STALE_AFTER,
            "requests_total": server.get("requests_total", 0),
            "errors_total": server.get("errors_total", 0),
            "in_flight": server.get("in_flight", 0),
            "plan_cache_hit_rate": plan_cache.get("hit_rate", 0.0),
            "result_cache_hit_rate": result_cache.get("hit_rate", 0.0),
        }
        totals["requests_total"] += server.get("requests_total", 0)
        totals["errors_total"] += server.get("errors_total", 0)
        totals["rows_streamed"] += server.get("rows_streamed", 0)
        totals["plan_cache_hits"] += plan_cache.get("hits", 0)
        totals["plan_cache_misses"] += plan_cache.get("misses", 0)
        totals["result_cache_hits"] += result_cache.get("hits", 0)
        totals["result_cache_misses"] += result_cache.get("misses", 0)
        for path, count in server.get("query_paths", {}).items():
            query_paths[path] = query_paths.get(path, 0) + count
    return {
        "workers": workers,
        "aggregate": {
            **totals,
            "query_paths": query_paths,
            "plan_cache_hit_rate": _rate(totals["plan_cache_hits"],
                                         totals["plan_cache_misses"]),
            "result_cache_hit_rate": _rate(totals["result_cache_hits"],
                                           totals["result_cache_misses"]),
        },
    }
