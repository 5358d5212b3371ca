"""Abstract syntax tree for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.db.expressions import Expression


@dataclass(frozen=True)
class SelectItem:
    """One item of a SELECT list: an expression with an optional alias.

    ``expression is None`` encodes ``*`` (or ``alias.*`` when ``qualifier``
    is set).
    """

    expression: Optional[Expression]
    alias: Optional[str] = None
    qualifier: Optional[str] = None

    @property
    def is_star(self) -> bool:
        """True for ``*`` / ``alias.*`` items."""
        return self.expression is None


@dataclass(frozen=True)
class TableRef:
    """A FROM item referring to a stored relation."""

    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class SubqueryRef:
    """A FROM item that is a parenthesized sub-query with an alias."""

    query: "SelectStatement"
    alias: str


FromItem = Union[TableRef, SubqueryRef]


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class AggregateCall:
    """An aggregate function call appearing in a SELECT list."""

    func: str
    argument: Optional[Expression]  # None encodes COUNT(*)
    alias: Optional[str] = None


@dataclass(frozen=True)
class SelectStatement:
    """A (possibly compound) SELECT statement."""

    items: Tuple[SelectItem, ...]
    from_items: Tuple[FromItem, ...]
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    #: An integer literal, or a :class:`~repro.db.expressions.Parameter` for
    #: ``LIMIT ?`` / ``LIMIT :n``.
    limit: Optional[Union[int, Expression]] = None
    distinct: bool = False
    #: Aggregate calls, aligned with the positions recorded during parsing.
    aggregates: Tuple[Tuple[int, AggregateCall], ...] = ()
    #: UNION ALL continuation, if any.
    union_all: Optional["SelectStatement"] = None


@dataclass(frozen=True)
class ColumnDef:
    """One column of a ``CREATE TABLE`` statement.

    ``type_name`` is the raw (lower-cased) SQL type name; ``None`` means the
    dynamically typed ``ANY``.
    """

    name: str
    type_name: Optional[str] = None


@dataclass(frozen=True)
class CreateTableStatement:
    """``CREATE TABLE name (col type, ...)``."""

    name: str
    columns: Tuple[ColumnDef, ...]


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO name [(cols)] VALUES (exprs), ...``.

    Each row is a tuple of expressions (literals, parameters, or constant
    arithmetic) evaluated without any column context at execution time.
    """

    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Expression, ...], ...]


#: A statement EXPLAIN can wrap (anything except another EXPLAIN).
ExplainableStatement = Union["SelectStatement", "CreateTableStatement",
                             "InsertStatement"]


@dataclass(frozen=True)
class ExplainStatement:
    """``EXPLAIN <statement>``: describe the plan instead of running it.

    The session compiles the wrapped statement through the normal pipeline
    and reports the optimized plan, the estimated cardinalities from
    :mod:`repro.db.cost`, and the engine the query would dispatch to --
    without executing anything.
    """

    statement: ExplainableStatement


#: Any statement the SQL front-end can parse.
Statement = Union[SelectStatement, CreateTableStatement, InsertStatement,
                  ExplainStatement]
