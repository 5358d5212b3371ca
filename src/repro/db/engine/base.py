"""The execution-engine interface.

Query evaluation is split into three stages: the SQL front-end builds a
logical :mod:`repro.db.algebra` plan, :mod:`repro.db.optimizer` rewrites it
into an equivalent cheaper plan, and an :class:`ExecutionEngine` evaluates the
plan against a :class:`~repro.db.database.Database`.  Engines are
interchangeable: every engine must produce the *same* :class:`KRelation` for
the same plan and database, so correctness properties (and the paper's
theorems) can be validated on one engine and performance measured on another.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db import algebra
    from repro.db.database import Database
    from repro.db.params import Params
    from repro.db.relation import KRelation, Row


class EvaluationError(RuntimeError):
    """Raised when a plan cannot be evaluated against a database."""


class UnknownEngineError(EvaluationError, LookupError):
    """An engine name (argument or ``REPRO_ENGINE``) matches no registered backend.

    Subclasses :class:`EvaluationError` so existing handlers keep working, and
    ``LookupError`` because it is fundamentally a failed registry lookup.  The
    message always lists the registered engine names so a typo'd
    ``REPRO_ENGINE`` is diagnosable from the traceback alone.
    """

    def __init__(self, name: object, available: "tuple[str, ...]") -> None:
        super().__init__(
            f"unknown execution engine {name!r}; registered engines: "
            + ", ".join(available)
        )
        self.name = name
        self.available = available


class ExecutionEngine(ABC):
    """Evaluates relational algebra plans over a database.

    Engines are stateless between calls; all per-query state lives in the
    executor objects they create internally.  ``name`` identifies the engine
    in the registry (see :func:`repro.db.engine.get_engine`).

    Plans may contain :class:`~repro.db.expressions.Parameter` placeholders;
    every engine binds them at execution time (via :meth:`bind`) so a prepared
    plan can be cached once and executed many times with different values.
    """

    #: Registry name of the engine (e.g. ``"row"`` or ``"columnar"``).
    name: str = "abstract"

    @abstractmethod
    def execute(self, plan: "algebra.Operator", database: "Database",
                params: "Params" = None) -> "KRelation":
        """Evaluate ``plan`` against ``database`` and return the result.

        ``params`` carries the values for the plan's placeholders (a sequence
        for positional ``?``, a mapping for named ``:name``); ``None`` for a
        plan without placeholders.
        """

    def appended(self, database: "Database", relation: "KRelation",
                 before: int, rows: "List[Row]") -> None:
        """A writer reports that adding ``rows``, each once (annotated with
        the semiring's one), took ``relation`` of ``database`` from
        mutation count ``before`` to its current one.

        An engine that mirrors the data applies them instead of reloading
        the relation at its next read; engines that read the relations in
        place (the default) have nothing to do.
        """

    @staticmethod
    def bind(plan: "algebra.Operator", params: "Params") -> "algebra.Operator":
        """Substitute placeholder values into ``plan`` (identity when none)."""
        from repro.db.params import bind_parameters

        return bind_parameters(plan, params)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
