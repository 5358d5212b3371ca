"""Cross-process write coordination over one shared ``.uadb`` store.

The WAL store already lets many *threads* of one process share a catalog;
this module extends that to many **processes**.  Two cooperating pieces:

* :class:`FleetWriteLock` -- an advisory ``fcntl.flock`` lock file next to
  the store (``<store>.lock``).  Writers across all processes funnel through
  it (lock-and-retry), and because the kernel releases a ``flock`` when the
  holding process dies -- cleanly or not -- a crashed writer can never
  wedge the fleet.  Each successful acquisition increments a fencing token
  persisted inside the lock file, giving post-mortem tooling a total order
  of write sessions.

* :class:`StoreCoordinator` -- a per-process catalog watcher.  Every request
  polls the store's *persisted* ``(catalog_version, stats_version)`` pair
  (one indexed SQLite read); when another process advanced it, the
  coordinator takes the pool's writer lock, reloads the changed relations
  from the WAL, adopts the persisted versions into the store's in-memory
  mirrors, and bumps the shared plan cache so every stale prepared plan is
  recompiled.  Writes wrap :meth:`StoreCoordinator.write`: cross-process
  lock, refresh-under-lock (so the write applies to the latest catalog),
  then the session's ordinary write-ahead append protocol.

Consistency model: SQLite's WAL gives atomic, durable commits per
transaction, and each write -- rows, statistics, version counters -- is one
transaction; the flock serializes writers across processes; the version
poll bounds staleness of readers to one request.  A worker crashing
mid-INSERT leaves either a committed transaction (the rows are durable and
the version counters advance with them, so every sibling's next poll sees
them) or a rolled-back one (nothing of the write on disk -- the client never
got an acknowledgement); the next acquirer of the lock proceeds against a
consistent store in both cases.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

try:  # POSIX only; the fleet tier is Linux/macOS
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback, single-process
    fcntl = None  # type: ignore[assignment]

from repro.api.pool import ConnectionPool
from repro.api.store import StoreError

__all__ = ["FleetWriteLock", "StoreCoordinator", "WriteLockTimeout"]

#: Width of the fencing token stored in the lock file (zero-padded ASCII).
_TOKEN_WIDTH = 20


class WriteLockTimeout(StoreError):
    """The cross-process write lock stayed held past the acquire timeout.

    Maps to HTTP 503 with ``retryable: true``: the writer holding the lock
    is alive and making progress, the client should back off and retry.
    """


class FleetWriteLock:
    """An advisory cross-process write lock file with a fencing counter.

    ``path`` is the lock file (conventionally ``<store path>.lock``).
    Acquisition polls ``fcntl.flock(LOCK_EX | LOCK_NB)`` every
    ``poll_interval`` seconds up to ``timeout``; the kernel releases the
    lock automatically when the holding process exits or dies, so crash
    recovery needs no lease expiry or lock-breaking heuristics.

    The file body holds a monotonically increasing **fencing token**: each
    acquisition reads, increments and fsyncs it while holding the exclusive
    lock.  :attr:`last_token` exposes the token of the most recent hold.
    """

    def __init__(self, path: "str | os.PathLike", timeout: float = 30.0,
                 poll_interval: float = 0.01) -> None:
        self.path = os.fspath(path)
        self.timeout = timeout
        self.poll_interval = poll_interval
        #: Fencing token of this object's most recent acquisition (0 = never).
        self.last_token = 0
        #: Successful acquisitions through this object (observability).
        self.acquisitions = 0
        #: Total seconds spent waiting to acquire (observability).
        self.wait_seconds = 0.0

    @staticmethod
    def path_for(store_path: str) -> str:
        """The conventional lock-file path for a store file."""
        return store_path + ".lock"

    @contextmanager
    def hold(self, timeout: Optional[float] = None) -> Iterator[int]:
        """Acquire the lock, yield the new fencing token, release on exit.

        Raises :class:`WriteLockTimeout` when the lock cannot be acquired
        within ``timeout`` (default: the constructor's).  Release is
        guaranteed on exit, and by the kernel on process death.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield 0
            return
        bound = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + bound
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        waited_from = time.monotonic()
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError as exc:
                    if exc.errno not in (errno.EAGAIN, errno.EACCES):
                        raise
                    if time.monotonic() >= deadline:
                        raise WriteLockTimeout(
                            f"write lock {self.path!r} still held after "
                            f"{bound:.1f}s; another process is writing"
                        ) from None
                    time.sleep(self.poll_interval)
            self.wait_seconds += time.monotonic() - waited_from
            token = self._advance_token(fd)
            self.last_token = token
            self.acquisitions += 1
            try:
                yield token
            finally:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - close releases anyway
                    pass
        finally:
            os.close(fd)

    @staticmethod
    def _advance_token(fd: int) -> int:
        """Read, increment and durably rewrite the fencing token.

        Runs while the exclusive lock is held, so the read-modify-write is
        race-free.  A torn or garbled body (a writer crashed inside the
        ~20-byte write -- possible in principle, never observed) degrades to
        restarting the counter at 1: the token is diagnostic, correctness
        rests on SQLite's WAL.
        """
        raw = os.pread(fd, _TOKEN_WIDTH, 0)
        try:
            token = int(raw.decode("ascii").strip() or 0) + 1
        except (UnicodeDecodeError, ValueError):
            token = 1
        os.pwrite(fd, str(token).rjust(_TOKEN_WIDTH, "0").encode("ascii"), 0)
        os.fsync(fd)
        return token

    def peek_token(self) -> int:
        """The current fencing token on disk (0 for a fresh/absent file)."""
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read(_TOKEN_WIDTH)
        except FileNotFoundError:
            return 0
        try:
            return int(raw.decode("ascii").strip() or 0)
        except (UnicodeDecodeError, ValueError):
            return 0

    def __repr__(self) -> str:
        return (f"<FleetWriteLock {self.path!r} "
                f"token={self.last_token} acquisitions={self.acquisitions}>")


class StoreCoordinator:
    """Keeps one process's pool coherent with a store other processes write.

    Construct one over a store-backed :class:`~repro.api.pool.ConnectionPool`
    and call :meth:`ensure_fresh` at the start of every request (the HTTP
    server does) and :meth:`write` around every mutation.  Pools without a
    store get a no-op coordinator: both calls degrade to nothing, so the
    server code path stays uniform.
    """

    def __init__(self, pool: ConnectionPool,
                 lock_timeout: float = 30.0) -> None:
        self.pool = pool
        self.store = pool.store
        self._seen_lock = threading.Lock()
        #: Cross-process refreshes performed (observability and tests).
        self.refreshes = 0
        #: Persisted-version reads by poll / ensure_fresh / write.
        self.version_polls = 0
        if self.store is not None:
            self.write_lock: Optional[FleetWriteLock] = FleetWriteLock(
                FleetWriteLock.path_for(self.store.path), timeout=lock_timeout)
            self._seen: Tuple[int, int] = self.store.read_persisted_versions()
            # The pool loaded the store during construction, so what is in
            # memory corresponds to the versions just read.
            self.store.adopt_versions(*self._seen)
        else:
            self.write_lock = None
            self._seen = (0, 0)

    @property
    def active(self) -> bool:
        """True when the coordinator actually coordinates (store-backed)."""
        return self.store is not None

    # -- read path ----------------------------------------------------------------

    def versions(self) -> Tuple[int, int]:
        """The last ``(catalog_version, stats_version)`` seen (no I/O)."""
        if self.store is None:
            cache = self.pool.plan_cache
            return (cache.catalog_version, cache.stats_version)
        with self._seen_lock:
            return self._seen

    def poll(self) -> Optional[Tuple[int, int]]:
        """The current versions if already adopted, else None (refresh due).

        The non-blocking half of :meth:`ensure_fresh`: one indexed SQLite
        read and no locks beyond the version mirror's, so the server's event
        loop can probe freshness inline (a result-cache hit, or a miss it
        answers itself, reuses these versions) and fall back to a worker
        thread only when a real refresh -- which takes the pool's writer
        lock -- is needed.
        """
        if self.store is None:
            return self.versions()
        current = self._read_versions()
        with self._seen_lock:
            return current if current == self._seen else None

    def ensure_fresh(self) -> Tuple[int, int]:
        """Adopt any writes other processes committed; returns the versions.

        The fast path is one indexed SQLite read of the meta table.  On a
        version change the refresh itself runs under the pool's writer lock:
        relations are reloaded from the WAL, persisted statistics re-read,
        version mirrors fast-forwarded, and the shared plan cache bumped so
        every plan compiled against the old catalog misses.
        """
        if self.store is None:
            return self.versions()
        current = self._read_versions()
        with self._seen_lock:
            if current == self._seen:
                return current
        with self.pool.exclusive() as core:
            current = self._read_versions()
            with self._seen_lock:
                if current == self._seen:
                    return current
            self._refresh(core, current)
            with self._seen_lock:
                self._seen = current
        return current

    def _read_versions(self) -> Tuple[int, int]:
        """One persisted-version read, counted in :attr:`version_polls`."""
        current = self.store.read_persisted_versions()
        with self._seen_lock:
            self.version_polls += 1
        return current

    def _refresh(self, core, versions: Tuple[int, int]) -> None:
        """Reload the catalog from the store (caller holds the writer lock)."""
        self.store.adopt_versions(*versions)
        # Persisted statistics first: the loader's adopt() pins them to the
        # freshly loaded tables when the row counts still match.  Reopening
        # a store runs the same loader, attribute-level tables included.
        core.stats.reload()
        core._load_from_store()
        core.plan_cache.bump_catalog_version()
        core.plan_cache.bump_stats_version()
        self.refreshes += 1

    # -- write path ---------------------------------------------------------------

    @contextmanager
    def write(self, timeout: Optional[float] = None) -> Iterator[None]:
        """Serialize one mutation across every process sharing the store.

        Protocol: acquire the cross-process lock file, refresh from any
        writes that landed while waiting (so this write applies to -- and
        its version bump supersedes -- the latest catalog), run the body
        (the session's ordinary write-ahead append), then record the
        versions our own bump produced so the next :meth:`ensure_fresh`
        does not mistake them for foreign writes.
        """
        if self.store is None or self.write_lock is None:
            yield
            return
        with self.write_lock.hold(timeout=timeout):
            self.ensure_fresh()
            try:
                yield
            finally:
                fresh = self._read_versions()
                with self._seen_lock:
                    self._seen = fresh

    def stats(self) -> dict:
        """Coordination counters for ``GET /metrics``."""
        payload = {
            "active": self.active,
            "refreshes": self.refreshes,
            "version_polls": self.version_polls,
        }
        if self.write_lock is not None:
            payload["write_lock"] = {
                "acquisitions": self.write_lock.acquisitions,
                "last_token": self.write_lock.last_token,
                "wait_seconds": round(self.write_lock.wait_seconds, 6),
            }
        return payload

    def __repr__(self) -> str:
        backing = self.store.path if self.store is not None else "memory"
        return f"<StoreCoordinator {backing!r} refreshes={self.refreshes}>"
