"""An LRU cache for prepared query plans.

The cache is what makes the session API cheap on hot paths: the parse ->
rewrite -> optimize front half of the pipeline runs once per distinct
statement, and every later execution is a dictionary hit plus parameter
binding.  Entries are keyed by the statement text (plus compilation mode and
optimizer toggle) and carry the catalog version they were compiled against;
a lookup under a newer catalog version is treated as a miss and the stale
entry is dropped, so registering or creating a relation transparently
invalidates every plan compiled before it.

An entry may additionally carry the *data version* it was compiled under
(its ``stats_version``); lookups that pass a ``stats_version`` treat a
mismatch as a miss.  The session's CREATE and INSERT entries carry it.  Its
SELECT entries carry ``None``: no statistics and no data enter a SELECT
plan, so a write leaves it cached and the read after it is one probe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple


class PlanCache:
    """A bounded mapping from statement keys to prepared plans.

    Not a general-purpose cache: :meth:`get` takes the *current* catalog
    version and discards entries compiled against an older catalog, counting
    them as invalidations.  ``max_size <= 0`` disables caching entirely
    (every lookup misses), which keeps the session code path uniform.
    """

    def __init__(self, max_size: int = 128) -> None:
        self.max_size = max_size
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: Hashable, catalog_version: int,
            stats_version: Optional[int] = None) -> Optional[Any]:
        """The cached entry for ``key``, or None on a miss/stale entry.

        ``stats_version`` is the caller's current data version; ``None``
        skips the check.  Entries whose own ``stats_version`` is ``None``
        (or missing) never invalidate on it.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stale = entry.catalog_version != catalog_version
        if not stale and stats_version is not None:
            entry_stats = getattr(entry, "stats_version", None)
            stale = entry_stats is not None and entry_stats != stats_version
        if stale:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, entry: Any) -> None:
        """Insert ``entry``, evicting the least recently used one if full."""
        if self.max_size <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        while len(self._entries) > self.max_size:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def stats(self) -> Dict[str, int]:
        """Counters for observability and tests."""
        return {
            "size": len(self._entries),
            "max_size": self.max_size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"<PlanCache {len(self._entries)}/{self.max_size} "
            f"hits={self.hits} misses={self.misses}>"
        )


class SharedPlanCache(PlanCache):
    """A :class:`PlanCache` safe to share across connections and threads.

    Every operation is guarded by an ``RLock``, and the cache additionally
    owns the *catalog version counter* for the connections sharing it: each
    registration / DDL on any sharing connection calls
    :meth:`bump_catalog_version`, so a plan compiled by one connection is
    transparently invalidated for all of them.  Two ways to get one:

    * :func:`shared_plan_cache` -- the process-wide registry, one cache per
      ``(catalog name, semiring)`` pair, used by
      ``repro.connect(..., shared_cache=True)``;
    * a private instance injected into every pooled connection by
      :class:`repro.api.pool.ConnectionPool` (``plan_cache=`` on
      ``Connection``), so one pool shares plans -- and invalidation --
      without leaking them to unrelated connections.
    """

    def __init__(self, max_size: int = 128) -> None:
        super().__init__(max_size)
        self._lock = threading.RLock()
        self._catalog_version = 0
        self._stats_version = 0

    @property
    def catalog_version(self) -> int:
        """The shared monotonic catalog version of the sharing connections."""
        with self._lock:
            return self._catalog_version

    def bump_catalog_version(self) -> int:
        """Advance the shared catalog version (any registration or DDL)."""
        with self._lock:
            self._catalog_version += 1
            return self._catalog_version

    @property
    def stats_version(self) -> int:
        """The shared monotonic data version of the sharing connections."""
        with self._lock:
            return self._stats_version

    def bump_stats_version(self) -> int:
        """Advance the shared data version (INSERTs, registrations)."""
        with self._lock:
            self._stats_version += 1
            return self._stats_version

    def get(self, key: Hashable, catalog_version: int,
            stats_version: Optional[int] = None) -> Optional[Any]:
        with self._lock:
            return super().get(key, catalog_version, stats_version)

    def put(self, key: Hashable, entry: Any) -> None:
        with self._lock:
            super().put(key, entry)

    def clear(self) -> None:
        with self._lock:
            super().clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return super().stats()

    def __len__(self) -> int:
        with self._lock:
            return super().__len__()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return super().__contains__(key)


#: Registry of shared caches, keyed by (catalog name, semiring name).
_SHARED_CACHES: Dict[Tuple[str, str], SharedPlanCache] = {}
_SHARED_CACHES_LOCK = threading.Lock()


def shared_plan_cache(catalog_name: str, semiring_name: str,
                      max_size: int = 128) -> SharedPlanCache:
    """The process-wide :class:`SharedPlanCache` for one logical catalog.

    Connections opened with the same ``name`` and semiring share one cache
    (and one catalog version counter), so a statement compiled on any of them
    is a warm hit on all of them.  The first caller fixes ``max_size``.
    """
    key = (catalog_name.lower(), semiring_name)
    with _SHARED_CACHES_LOCK:
        cache = _SHARED_CACHES.get(key)
        if cache is None:
            cache = SharedPlanCache(max_size)
            _SHARED_CACHES[key] = cache
        return cache
