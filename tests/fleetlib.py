"""Shared helper for tests that drive a real fleet process.

:class:`FleetProcess` boots ``python -m repro.server --workers N`` as a
subprocess, parses the ``FLEET READY http://host:port workers=N mode=...``
line the supervisor prints, and exposes typed accessors (clients, worker
pids via ``/metrics``, SIGTERM/SIGKILL helpers).  Used by
``tests/test_fleet.py`` and by ``tests/test_server.py`` when
``REPRO_FLEET_WORKERS`` switches the endpoint-matrix fixture to fleet mode.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

READY_PATTERN = re.compile(
    r"FLEET READY http://([\d.]+):(\d+) workers=(\d+) mode=(\w+) pid=(\d+)")


class FleetProcess:
    """A ``python -m repro.server --workers N`` subprocess, ready to serve.

    The constructor blocks until the supervisor prints its readiness line
    (or raises with the process's stderr on failure).  Use as a context
    manager; :meth:`stop` SIGTERMs the supervisor and waits for the clean
    supervised shutdown.
    """

    def __init__(self, store: str, workers: int = 2,
                 engine: Optional[str] = None, router: bool = False,
                 tokens: Optional[str] = None, rate: Optional[float] = None,
                 result_cache_mb: float = 0.0, pool_size: int = 8,
                 port: int = 0, ready_timeout: float = 60.0) -> None:
        command = [sys.executable, "-m", "repro.server",
                   "--store", str(store), "--workers", str(workers),
                   "--port", str(port), "--pool-size", str(pool_size),
                   "--log-level", "warning"]
        if engine is not None:
            command += ["--engine", engine]
        if router:
            command += ["--router"]
        if tokens is not None:
            command += ["--tokens", tokens]
        if rate is not None:
            command += ["--rate", str(rate)]
        if result_cache_mb > 0:
            command += ["--result-cache-mb", str(result_cache_mb)]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # stderr goes to a file, not a pipe: worker tracebacks and supervisor
        # logs must never block the subprocess on a full pipe buffer.
        self._stderr_file = tempfile.NamedTemporaryFile(
            mode="w+", prefix="uadb-fleet-stderr-", suffix=".log", delete=False)
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr_file,
            text=True, env=env)
        line = self._read_ready_line(ready_timeout)
        match = READY_PATTERN.match(line or "")
        if match is None:
            stderr = self.stderr_tail()  # before kill() closes the file
            self.kill()
            raise RuntimeError(
                f"fleet did not become ready; first stdout line {line!r}; "
                f"stderr:\n{stderr}")
        self.ready_line = line
        self.host = match.group(1)
        self.port = int(match.group(2))
        self.workers = int(match.group(3))
        self.mode = match.group(4)
        self.supervisor_pid = int(match.group(5))

    def _read_ready_line(self, timeout: float) -> Optional[str]:
        holder: Dict[str, str] = {}

        def reader() -> None:
            holder["line"] = self.process.stdout.readline()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(timeout)
        return holder.get("line")

    @property
    def address(self) -> Tuple[str, int]:
        """The public ``(host, port)`` every worker answers on."""
        return (self.host, self.port)

    def client(self, **kwargs):
        """A new :class:`repro.server.client.Client` for the fleet."""
        from repro.server.client import Client

        return Client(self.host, self.port, **kwargs)

    def worker_pids(self, client=None) -> Dict[int, int]:
        """``{worker index: pid}`` from the ``/metrics`` fleet section."""
        own = client is None
        client = client or self.client()
        try:
            fleet = client.metrics()["fleet"]["workers"]
            return {int(index): entry["pid"] for index, entry in fleet.items()}
        finally:
            if own:
                client.close()

    def wait_for_workers(self, count: int, timeout: float = 30.0,
                         exclude: Tuple[int, ...] = ()) -> Dict[int, int]:
        """Poll ``/metrics`` until ``count`` workers (none in ``exclude``)."""
        deadline = time.monotonic() + timeout
        last: Dict[int, int] = {}
        while time.monotonic() < deadline:
            try:
                last = self.worker_pids()
            except Exception:
                last = {}
            if len(last) >= count and not (set(last.values()) & set(exclude)):
                return last
            time.sleep(0.2)
        raise TimeoutError(
            f"fleet did not reach {count} workers excluding {exclude}; "
            f"last seen {last}; stderr:\n{self.stderr_tail()}")

    def stderr_tail(self, limit: int = 4000) -> str:
        """The last ``limit`` characters of the supervisor's stderr."""
        try:
            self._stderr_file.flush()
            with open(self._stderr_file.name, "r", encoding="utf-8",
                      errors="replace") as handle:
                return handle.read()[-limit:]
        except OSError:
            return "<stderr unavailable>"

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM the supervisor; returns its exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=timeout)
        finally:
            self._cleanup()
        return code

    def kill(self) -> None:
        """SIGKILL the supervisor (workers are reparented and SIGTERMed by
        the kernel only on session teardown; tests use :meth:`stop`)."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)
        self._cleanup()

    def _cleanup(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
        try:
            self._stderr_file.close()
            os.unlink(self._stderr_file.name)
        except OSError:
            pass

    def __enter__(self) -> "FleetProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.process.poll() is None:
            self.stop()
        else:
            self._cleanup()


def fresh_clients(fleet: FleetProcess, count: int) -> List[object]:
    """``count`` clients, each on its own TCP connection (its own worker,
    deterministically alternating in router mode)."""
    return [fleet.client() for _ in range(count)]
