"""The suite's own helpers for serving workloads: fleet process, load generators.

Kept independent of ``tests/fleetlib.py`` and ``benchmarks/bench_*.py`` so a
later change may move or delete those.  The fleet is the real thing --
``python -m repro.server`` as a subprocess, parsed off its ``FLEET READY``
line -- and the load generators hold exactly one keep-alive connection per
worker: with ``SO_REUSEPORT`` the kernel may hand both connections of an
unpinned generator to one worker, which swings throughput by 2x run to run.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.server import Client

from .harness import (
    REPO_ROOT, SUITE_DIR, Part, child_env, process_tree, timed,
    tree_peak_rss_mb,
)

READY = re.compile(r"FLEET READY http://([\d.]+):(\d+) workers=(\d+)")
STUB_READY = re.compile(r"STUB READY (\d+)")

#: Requests outstanding per raw connection in the pipelined generator.
PIPELINE_DEPTH = 16


def _first_line(process: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([process.stdout], [], [], timeout)
    return process.stdout.readline() if ready else ""


class ServerProcess:
    """A subprocess that prints one readiness line and serves until SIGTERM."""

    def __init__(self, command: List[str], pattern: "re.Pattern[str]",
                 workdir: Path, label: str) -> None:
        self._stderr = open(workdir / f"{label}-stderr.log", "w+",
                            encoding="utf-8")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=child_env(workdir), cwd=REPO_ROOT)
        line = _first_line(self.process, 60.0)
        self.ready = pattern.match(line)
        if self.ready is None:
            self._stderr.seek(0)
            tail = self._stderr.read()[-2000:]
            self.stop()
            raise RuntimeError(
                f"{label} did not become ready: {line!r}\n{tail}")

    def stop(self) -> None:
        """SIGTERM, wait for the graceful drain, and only then move on."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                # The supervisor's workers with it; the end of the run
                # (harness.stop_descendants) waits for those.
                for pid in process_tree(self.process.pid):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                self.process.wait(timeout=10)
        self.process.stdout.close()
        self._stderr.close()


class Fleet(ServerProcess):
    """``python -m repro.server --store S --workers N`` ready to serve."""

    def __init__(self, store: Path, workers: int, workdir: Path,
                 engine: str = "sqlite", result_cache_mb: int = 64) -> None:
        super().__init__(
            [sys.executable, "-m", "repro.server", "--store", str(store),
             "--workers", str(workers), "--port", "0", "--engine", engine,
             "--result-cache-mb", str(result_cache_mb),
             "--log-level", "warning"],
            READY, workdir, f"fleet-{workers}")
        self.host = self.ready.group(1)
        self.port = int(self.ready.group(2))
        self.workers = int(self.ready.group(3))

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the supervisor and its workers."""
        return tree_peak_rss_mb(self.process.pid)


class Stub(ServerProcess):
    """The canned-response asyncio server the generator's ceiling is taken on."""

    def __init__(self, workdir: Path, body_bytes: int) -> None:
        super().__init__(
            [sys.executable, str(SUITE_DIR / "stub_server.py"),
             str(body_bytes)], STUB_READY, workdir, "stub")
        self.host = "127.0.0.1"
        self.port = int(self.ready.group(1))
        self.workers = 0  # nothing to pin to


# -- connections -------------------------------------------------------------------


class RawConnection:
    """A keep-alive socket speaking just enough HTTP/1.1 to pipeline."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def exchange(self, request: bytes) -> Tuple[bytes, bytes]:
        """One framed round trip: ``(whole raw response, its body)``."""
        self.sock.sendall(request)
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head_end = self._buffer.index(b"\r\n\r\n") + 4
        head = bytes(self._buffer[:head_end])
        match = re.search(rb"(?i)content-length:\s*(\d+)", head)
        if not head.startswith(b"HTTP/1.1 200") or match is None:
            raise ConnectionError(f"unexpected response head {head[:80]!r}")
        total = head_end + int(match.group(1))
        while len(self._buffer) < total:
            self._fill()
        raw = bytes(self._buffer[:total])
        del self._buffer[:total]
        return raw, raw[head_end:]

    def pipeline(self, requests: Sequence[bytes],
                 expected: Sequence[bytes]) -> Tuple[List[float], bool]:
        """Send a batch back to back; per-response latency from the send.

        Responses on a warm result cache are byte-identical to the verified
        reference captured for the same request, so the batch is checked
        with one comparison and a response is timed when its last byte has
        arrived.
        """
        started = time.perf_counter()
        self.sock.sendall(b"".join(requests))
        ends = []
        total = 0
        for reference in expected:
            total += len(reference)
            ends.append(total)
        received = self._buffer
        latencies: List[float] = []
        while len(latencies) < len(ends):
            if len(received) < ends[len(latencies)]:
                self._fill()
                continue
            now = time.perf_counter()
            while (len(latencies) < len(ends)
                   and ends[len(latencies)] <= len(received)):
                latencies.append(now - started)
        same = bytes(received[:total]) == b"".join(expected)
        del received[:total]
        return latencies, same

    def metrics(self) -> Dict[str, Any]:
        """This connection's worker's live ``GET /metrics`` payload."""
        _, body = self.exchange(render_request("GET", "/metrics"))
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


def render_request(method: str, path: str, payload: Any = None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    return (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body


def pinned(workers: int, connect: Callable[[], Any],
           worker_of: Callable[[Any], Optional[int]]) -> Tuple[List[Any], int]:
    """One connection per worker, reconnecting until each worker holds one.

    Returns the connections in worker order and how many extra connections
    had to be opened and dropped on the way.
    """
    held: Dict[int, Any] = {}
    opened = 0
    while len(held) < workers:
        if opened >= 64 * workers:
            raise RuntimeError(f"could not reach all {workers} workers; "
                               f"holding {sorted(held)}")
        connection = connect()
        opened += 1
        index = worker_of(connection)
        if index is None or index in held:
            connection.close()
        else:
            held[index] = connection
    return [held[index] for index in sorted(held)], opened - workers


def pinned_clients(fleet: Fleet) -> Tuple[List[Client], int]:
    return pinned(fleet.workers, lambda: Client(fleet.host, fleet.port),
                  lambda client: client.metrics().get("worker"))


def pinned_sockets(server: ServerProcess) -> Tuple[List[RawConnection], int]:
    if not server.workers:  # the stub: two plain connections
        return [RawConnection(server.host, server.port) for _ in range(2)], 0
    return pinned(server.workers,
                  lambda: RawConnection(server.host, server.port),
                  lambda connection: connection.metrics().get("worker"))


# -- load ----------------------------------------------------------------------------


def closed_loop(clients: List[Client], sql: str, keys: List[Iterator[int]],
                seconds: float, check: Callable[[int, Any], bool],
                baseline: Optional[Callable[[int, Any], None]] = None,
                span: Optional[Callable[[str], Any]] = None) -> Part:
    """One caller, one request outstanding, the connections taken in turn.

    ``keys[i]`` is connection ``i``'s key stream (a later window continues
    where this one stopped).  A latency covers the request, the reply and
    turning it into labelled rows, as the caller sees it.  ``baseline`` runs
    after every reply with the same key and is timed separately, so a ratio
    of the two sees the same machine conditions on both sides; its time is
    taken out of the window's wall time.

    Two client threads on this two-core box contend with the two workers
    and swing the numbers by 20 % run to run; one caller does not.
    """
    result = Part()
    cpu = time.process_time()
    started = time.perf_counter()
    deadline = started + seconds
    turn = 0
    while time.perf_counter() < deadline:
        index = turn % len(clients)
        turn += 1
        key = next(keys[index])
        with timed(span, "client.query") as timer:
            rows = clients[index].query(sql, [key]).labeled_rows()
        replied = time.perf_counter()
        result.latencies.append(timer.seconds)
        if not check(key, rows):
            result.failed += 1
        if len(result.sample) < 200:
            result.sample.append((key, rows))
        if baseline is not None:
            baseline(key, rows)
            result.base.append(time.perf_counter() - replied)
    result.wall = time.perf_counter() - started - sum(result.base)
    result.cpu = time.process_time() - cpu
    return result


def warm_references(connection: RawConnection, sql: str,
                    keys: Sequence[int]) -> Dict[int, Tuple[bytes, bytes, bytes]]:
    """Per key: the rendered request, the raw cached response and its body.

    Each key is asked twice: the second response is what a warm result
    cache keeps answering with, byte for byte.
    """
    references = {}
    for key in keys:
        request = render_request("POST", "/query",
                                 {"sql": sql, "params": [key]})
        connection.exchange(request)
        raw, body = connection.exchange(request)
        references[key] = (request, raw, body)
    return references


def pipelined(connections: List[RawConnection],
              references: List[Dict[int, Tuple[bytes, bytes, bytes]]],
              seconds: float, seed: int,
              span: Optional[Callable[[str], Any]] = None) -> Part:
    """One thread per socket keeping ``PIPELINE_DEPTH`` requests outstanding."""
    result = Part()
    lock = threading.Lock()
    errors: List[BaseException] = []

    def body(index: int) -> None:
        connection, known = connections[index], references[index]
        keys = sorted(known)
        rng = random.Random(seed * 1009 + index)
        latencies: List[float] = []
        failed = 0
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                batch = [known[rng.choice(keys)]
                         for _ in range(PIPELINE_DEPTH)]
                requests = [entry[0] for entry in batch]
                expected = [entry[1] for entry in batch]
                with timed(span, "socket.pipeline"):
                    batch_latencies, same = connection.pipeline(requests,
                                                                expected)
                latencies += batch_latencies
                if not same:
                    failed += len(batch)
        except (OSError, ConnectionError) as error:
            errors.append(error)  # raised in the caller, below
        with lock:
            result.latencies += latencies
            result.failed += failed

    threads = [threading.Thread(target=body, args=(index,))
               for index in range(len(connections))]
    cpu = time.process_time()
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall = time.perf_counter() - started
    result.cpu = time.process_time() - cpu
    if errors:
        raise errors[0]
    return result
