"""Pluggable execution engines.

The engine package decouples *what* a plan computes (K-relational semantics,
defined once) from *how* it is computed.  Three engines ship by default,
under four names:

* ``"row"`` -- the tuple-at-a-time reference interpreter,
* ``"columnar"`` -- vectorized evaluation over column-major batches with
  numpy-accelerated annotation vectors,
* ``"sqlite"`` -- plans compiled to SQL (one CTE per operator, see
  :mod:`repro.db.engine.compiler`) and executed natively on an in-memory
  stdlib :mod:`sqlite3` database holding the relations in the ``Enc``
  layout; unsupported plans fall back to the columnar engine with a logged
  warning.  ``"auto"`` is a second name for this engine.

Engines are looked up by name through :func:`get_engine`; third parties can
add their own with :func:`register_engine`.  The process-wide default is
``"row"`` and can be overridden with the ``REPRO_ENGINE`` environment
variable, per database via ``Database(engine=...)``, or per call via
``evaluate(plan, db, engine=...)``.  Unknown names raise
:class:`UnknownEngineError` listing what is registered.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Optional, Tuple, Union

from repro.db.engine.base import EvaluationError, ExecutionEngine, UnknownEngineError
from repro.db.engine.columnar import ColumnarEngine
from repro.db.engine.row import Evaluator, RowEngine
from repro.db.engine.sqlite import SQLiteEngine

#: Environment variable naming the process-wide default engine.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Fallback engine when neither the caller nor the environment chooses one.
DEFAULT_ENGINE = "row"

EngineSpec = Union[None, str, ExecutionEngine]

_FACTORIES: Dict[str, Callable[[], ExecutionEngine]] = {}
_INSTANCES: Dict[str, ExecutionEngine] = {}


def register_engine(name: str, factory: Callable[[], ExecutionEngine]) -> None:
    """Register an engine factory under ``name`` (case-insensitive)."""
    _FACTORIES[name.lower()] = factory
    _INSTANCES.pop(name.lower(), None)


def available_engines() -> Tuple[str, ...]:
    """Names of all registered engines."""
    return tuple(sorted(_FACTORIES))


def get_engine(spec: EngineSpec = None) -> ExecutionEngine:
    """Resolve an engine name (or instance, or None for the default)."""
    if isinstance(spec, ExecutionEngine):
        return spec
    if spec is None:
        spec = os.environ.get(ENGINE_ENV_VAR) or DEFAULT_ENGINE
    name = spec.lower()
    if name not in _FACTORIES:
        raise UnknownEngineError(spec, available_engines())
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


# -- dispatch accounting ------------------------------------------------------
#
# Process-wide counters of how many plans each engine actually executed.
# ``evaluate`` records the engine it resolved; the sqlite engine
# additionally records the engine it falls back to for a plan it cannot
# compile, so the counters answer both "which engine was asked" and "where
# did the work really run".  Surfaced by the HTTP server under
# ``GET /metrics``.

_DISPATCH_LOCK = threading.Lock()
_DISPATCH_COUNTS: Dict[str, int] = {}


def record_dispatch(name: str) -> None:
    """Count one plan execution dispatched to engine ``name``."""
    with _DISPATCH_LOCK:
        _DISPATCH_COUNTS[name] = _DISPATCH_COUNTS.get(name, 0) + 1


def dispatch_counts() -> Dict[str, int]:
    """Per-engine dispatch counters (a snapshot copy, sorted by name)."""
    with _DISPATCH_LOCK:
        return {name: _DISPATCH_COUNTS[name]
                for name in sorted(_DISPATCH_COUNTS)}


def reset_dispatch_counts() -> None:
    """Zero the dispatch counters (test isolation)."""
    with _DISPATCH_LOCK:
        _DISPATCH_COUNTS.clear()


register_engine(RowEngine.name, RowEngine)
register_engine(ColumnarEngine.name, ColumnarEngine)
register_engine(SQLiteEngine.name, SQLiteEngine)
# "auto" is the sqlite engine itself, not a chooser: a cost-based choice
# never beat sqlite on any measured plan (CHANGES.md, PR 17).  The name stays
# because it is public API (``--engine auto``, ``engine="auto"``) and because
# BENCHMARK.json lists ``db.engine.auto.*`` per-layer metrics.
register_engine("auto", lambda: get_engine(SQLiteEngine.name))

__all__ = [
    "ColumnarEngine",
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "EvaluationError",
    "Evaluator",
    "ExecutionEngine",
    "RowEngine",
    "SQLiteEngine",
    "UnknownEngineError",
    "available_engines",
    "dispatch_counts",
    "get_engine",
    "record_dispatch",
    "register_engine",
    "reset_dispatch_counts",
]
