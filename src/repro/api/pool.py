"""A thread-safe connection pool sharing one UA-database.

:class:`ConnectionPool` is the multi-client front door the session layer was
missing: where plain :func:`repro.connect` gives every caller a private copy
of the registered sources, a pool hands out bounded
:class:`PooledConnection` handles that all share

* **one set of sources** -- the same encoded
  :class:`~repro.db.database.Database` objects, so a
  registration or ``INSERT`` through any handle is immediately visible to
  all of them,
* **one prepared-plan cache** -- a pool-private, lock-guarded
  :class:`~repro.api.cache.SharedPlanCache`: each distinct statement is
  compiled once for the whole pool, and any DDL invalidates every handle's
  cached plans at once (no stale hits after catalog bumps),
* **one persistent store** (optional) -- pass a ``.uadb`` path and the pool
  opens a single WAL-mode :class:`~repro.api.store.UADBStore` whose
  per-thread ``sqlite3`` connections let pooled readers run in parallel.

Consistency model: statements take a readers-writer lock.  Queries
(``SELECT``) acquire it shared -- any number run concurrently; DDL/DML
(``CREATE TABLE`` / ``INSERT`` / source registration) acquire it exclusively,
so every write is atomic with respect to readers and other writers and the
interleaving is serializable (N threads hammering one pool produce exactly
the rows a serial run would).

Example::

    pool = ConnectionPool("inventory.uadb", engine="sqlite", max_connections=8)
    with pool.connection() as conn:
        conn.execute("CREATE TABLE t (a INT, b TEXT)")
        conn.execute("INSERT INTO t VALUES (?, ?)", [1, "x"])
    with pool.connection() as conn:              # any thread, same data
        print(conn.query("SELECT a, b FROM t").labeled_rows())
    pool.close()
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.semirings import Semiring
from repro.api.cache import SharedPlanCache
from repro.api.session import Connection, SessionError

__all__ = ["ConnectionPool", "PooledConnection", "PoolError", "PoolTimeout", "RWLock"]


class PoolError(SessionError):
    """Raised for misuse of a connection pool (closed pool, released handle)."""


class PoolTimeout(PoolError):
    """Raised when no pooled connection became available within the timeout."""


class RWLock:
    """A writer-preferring readers-writer lock (not reentrant).

    Any number of readers hold the lock together; writers are exclusive.
    Arriving writers block *new* readers, so a steady stream of queries
    cannot starve an ``INSERT``.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        """Hold the lock shared: blocks only while a writer is active/waiting."""
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if self._readers == 0:
                    self._condition.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Hold the lock exclusively: waits out readers and other writers."""
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._condition:
                self._writer = False
                self._condition.notify_all()


class PooledConnection:
    """A checkout handle on the pool's shared connection.

    Exposes the full :class:`~repro.api.session.Connection` surface by
    delegation; :meth:`close` (or leaving the ``with`` block) returns the
    handle to the pool instead of closing the underlying session, after
    which any further use raises :class:`PoolError`.
    """

    __slots__ = ("_pool", "_core", "_released", "_owner")

    def __init__(self, pool: "ConnectionPool", core: Connection) -> None:
        self._pool = pool
        self._core = core
        self._released = False
        self._owner = threading.get_ident()

    def close(self) -> None:
        """Return this handle to the pool (idempotent)."""
        if not self._released:
            self._released = True
            self._pool._release(self._owner)

    #: DB-API-agnostic alias for :meth:`close`.
    release = close

    @property
    def closed(self) -> bool:
        """True once the handle was returned (or the core session closed)."""
        return self._released or self._core.closed

    def __enter__(self) -> "PooledConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # A leaked handle (e.g. a thread that died between acquire() and
        # close()) is returned to the pool when it is garbage-collected, so
        # a draining ConnectionPool.close() is not blocked forever by it.
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def __getattr__(self, item: str):
        if object.__getattribute__(self, "_released"):
            raise PoolError(
                "pooled connection was already returned to the pool; "
                "acquire a new one"
            )
        return getattr(self._core, item)

    def __repr__(self) -> str:
        state = "released" if self._released else "acquired"
        return f"<PooledConnection {state} of {self._pool!r}>"


class ConnectionPool:
    """A bounded pool of thread-safe connections over one shared UA-DB.

    ``store`` may be a ``.uadb`` path (or an open
    :class:`~repro.api.store.UADBStore`) for durable data, or None for a
    purely in-memory pool.  ``max_connections`` bounds concurrent checkouts;
    :meth:`acquire` blocks (optionally with a timeout) once the pool is
    exhausted.  ``semiring``/``engine``/``optimize`` follow the same
    precedence rules as :func:`repro.connect`.
    """

    def __init__(self, store: Optional[object] = None,
                 semiring: Optional[Semiring] = None,
                 name: str = "uadb",
                 engine: Optional[object] = None,
                 optimize: Optional[bool] = None,
                 cache_size: int = 256,
                 max_connections: int = 8,
                 create: bool = True) -> None:
        if max_connections < 1:
            raise PoolError("max_connections must be at least 1")
        self.max_connections = max_connections
        self.plan_cache = SharedPlanCache(cache_size)
        self._rwlock = RWLock()
        self._semaphore = threading.BoundedSemaphore(max_connections)
        self._state = threading.Condition()
        self._in_use = 0
        #: Owner thread ids of outstanding handles (deadlock detection in
        #: close(drain=True): the closing thread cannot drain itself).
        self._owners: Dict[int, int] = {}
        self._acquired_total = 0
        self._waits = 0
        self._closed = False
        self._finalized = False
        self._core = Connection(
            semiring=semiring, name=name, engine=engine, optimize=optimize,
            store=store, create=create, plan_cache=self.plan_cache,
            locking=self._rwlock,
        )

    # -- checkout lifecycle -------------------------------------------------------

    def acquire(self, timeout: Optional[float] = None) -> PooledConnection:
        """Check out a pooled connection, blocking while the pool is full.

        With ``timeout`` (seconds), raises :class:`PoolTimeout` if no handle
        frees up in time.
        """
        if self._closed:
            raise PoolError("connection pool is closed")
        if not self._semaphore.acquire(blocking=False):
            with self._state:
                self._waits += 1
            if not self._semaphore.acquire(timeout=timeout):
                raise PoolTimeout(
                    f"no pooled connection became available within "
                    f"{timeout}s ({self.max_connections} in use)"
                )
        with self._state:
            # Re-checked under the state lock: close(drain=True) decides
            # "idle, safe to finalize" under this same lock, so a checkout
            # can never slip between its drain check and the session close.
            if self._closed:
                self._semaphore.release()
                raise PoolError("connection pool is closed")
            self._in_use += 1
            owner = threading.get_ident()
            self._owners[owner] = self._owners.get(owner, 0) + 1
            self._acquired_total += 1
        return PooledConnection(self, self._core)

    def _release(self, owner: int) -> None:
        with self._state:
            self._in_use -= 1
            count = self._owners.get(owner, 0) - 1
            if count > 0:
                self._owners[owner] = count
            else:
                self._owners.pop(owner, None)
            if self._in_use == 0:
                # Wake a close(drain=True) waiting for the pool to go idle.
                self._state.notify_all()
        self._semaphore.release()

    @contextmanager
    def connection(self, timeout: Optional[float] = None) -> Iterator[PooledConnection]:
        """``with pool.connection() as conn:`` -- acquire and auto-release."""
        handle = self.acquire(timeout)
        try:
            yield handle
        finally:
            handle.close()

    # -- shared state -------------------------------------------------------------

    @contextmanager
    def exclusive(self) -> Iterator[Connection]:
        """Hold the pool's writer lock and yield the shared core session.

        Everything a pooled statement does -- queries under the read lock,
        DDL/DML under the write lock -- waits while this context is held, so
        the caller may swap relations and invalidate caches atomically.  The
        fleet's cross-process refresh (reloading relations another process
        committed to the store) runs under it.  Do not call while the same
        thread is inside a statement: the lock is not reentrant.
        """
        with self._rwlock.write():
            yield self._core

    @property
    def store(self):
        """The shared persistent store, or None for an in-memory pool."""
        return self._core.store

    @property
    def semiring(self) -> Semiring:
        """The annotation semiring shared by every pooled handle."""
        return self._core.semiring

    @property
    def engine(self):
        """The execution-engine spec every pooled statement runs on."""
        return self._core.engine

    def usage(self) -> Dict[str, Any]:
        """Checkout counters only, read under the state lock (no I/O).

        ``waits`` counts acquires that found every connection checked out
        and so had to block (or, with ``timeout=0``, failed at once).
        """
        with self._state:
            return {
                "max_connections": self.max_connections,
                "in_use": self._in_use,
                "acquired_total": self._acquired_total,
                "waits": self._waits,
                "closed": self._closed,
            }

    def stats(self) -> Dict[str, Any]:
        """Pool, plan-cache and store counters in one snapshot."""
        stats = self.usage()
        stats["plan_cache"] = self.plan_cache.stats()
        if self.store is not None:
            stats["store"] = self.store.stats()
        return stats

    # -- lifecycle ----------------------------------------------------------------

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Close the pool: the shared session, its store, and the plan cache.

        New checkouts are refused from the moment close is called.  With
        ``drain`` (the default) the call waits for every checked-out handle
        to be returned before closing the shared session, so in-flight
        statements finish cleanly; ``timeout`` bounds that wait and raises
        :class:`PoolTimeout` (the pool stays acquirable-less but open, so a
        later ``close()`` -- or ``close(drain=False)`` to force -- can
        finish the job).  Handles leaked by dead threads release on garbage
        collection (``PooledConnection.__del__``); pass a ``timeout`` when
        a handle may be held hostage by live code.  Draining while the
        *calling* thread still holds a handle can never succeed, so that
        raises :class:`PoolError` immediately instead of deadlocking.
        Closing an already-closed pool is a no-op.
        """
        with self._state:
            self._closed = True
            if drain and not self._finalized:
                held = self._owners.get(threading.get_ident(), 0)
                if held:
                    raise PoolError(
                        f"cannot drain: the closing thread still holds "
                        f"{held} pooled connection(s); release them first "
                        f"or use close(drain=False)"
                    )
                deadline = None if timeout is None else time.monotonic() + timeout
                while self._in_use:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        raise PoolTimeout(
                            f"{self._in_use} pooled connection(s) still "
                            f"checked out after {timeout}s"
                        )
                    self._state.wait(remaining)
            if self._finalized:
                return
            self._finalized = True
        self._core.close()
        self.plan_cache.clear()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called; acquires are refused from then on."""
        return self._closed

    #: Drain bound used by ``__exit__`` while an exception is unwinding.
    EXIT_DRAIN_TIMEOUT = 5.0

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
            return
        # An exception is already unwinding: close without masking it with
        # drain errors or blocking the unwind forever on a wedged handle.
        try:
            self.close(timeout=self.EXIT_DRAIN_TIMEOUT)
        except Exception:
            try:
                self.close(drain=False)
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self._in_use}/{self.max_connections} in use"
        backing = self._core.store.path if self._core.store is not None else "memory"
        return f"<ConnectionPool {backing!r} {state}>"
