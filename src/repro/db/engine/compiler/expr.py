"""Scalar expression -> SQLite SQL text.

The compiled text must evaluate exactly like
:meth:`repro.db.expressions.Expression.evaluate` for every row the engines
can agree on.  SQLite's three-valued logic matches the Python evaluator's
Kleene semantics for comparisons, AND/OR/NOT, BETWEEN, IN and CASE; the
places where SQLite's defaults differ are compiled around explicitly:

* ``/`` is true division returning NULL on a zero divisor, so the left
  operand is cast to REAL (SQLite would otherwise truncate integers),
* ordering comparisons (``<``/``<=``/``>``/``>=``/``BETWEEN``) whose
  operand types are not statically known are wrapped in a ``TYPEOF`` guard
  yielding NULL when one operand is numeric and the other is not -- the
  evaluator treats such comparisons as *unknown*, where SQLite would rank
  every number below every text value; typed columns compiled against a
  typed scope skip the runtime check entirely,
* ``least`` / ``greatest`` ignore NULL arguments (SQLite's scalar
  ``MIN``/``MAX`` return NULL if *any* argument is NULL), compiled as
  ``MIN(COALESCE(a, b, c), COALESCE(b, a, c), COALESCE(c, a, b))``,
* ``LIKE`` relies on ``PRAGMA case_sensitive_like = ON`` (set by the
  engine's connection setup) to match the evaluator's case-sensitive regex.

Scalar functions with no faithful SQLite counterpart (``round`` -- Python
uses banker's rounding, ``sqrt`` -- not in all builds and NULL-vs-NaN on
negatives, ``contains`` -- operates on tuple values SQLite cannot store)
raise :class:`NotSupportedError` so the engine falls back.  Parameter
placeholders are passed straight through as SQLite bind parameters
(``?N`` 1-based positional / ``:name``) and recorded with the collector so
the engine can validate bindings without re-walking the plan.
"""

from __future__ import annotations

import math
from typing import Any, List, NamedTuple

from repro.db.schema import DataType
from repro.db.expressions import (
    And,
    Arithmetic,
    Between,
    Case,
    Column,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    NameLookup,
    Negate,
    Not,
    Or,
    Parameter,
)
from repro.db.engine.compiler.errors import NotSupportedError


def sql_string(value: str) -> str:
    """A single-quoted SQL string literal."""
    return "'" + value.replace("'", "''") + "'"


def sql_literal(value: Any) -> str:
    """Render a Python constant as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NotSupportedError(f"non-finite float literal {value!r}")
        return repr(value)
    if isinstance(value, str):
        return sql_string(value)
    raise NotSupportedError(
        f"literal of type {type(value).__name__} has no SQL representation"
    )


def parameter_placeholder(parameter: Parameter) -> str:
    """The SQLite placeholder for a repro parameter.

    repro numbers positional parameters from 0, SQLite's ``?NNN`` from 1;
    named parameters map one-to-one (the parser lower-cases names, and the
    engine lower-cases the supplied mapping to match).
    """
    if isinstance(parameter.key, int):
        return f"?{parameter.key + 1}"
    return f":{parameter.key}"


class ColumnRef(NamedTuple):
    """A resolved column: its SQL identifier plus the declared data type.

    The type drives guard elision: comparisons between operands whose
    SQLite storage class is statically known need no runtime ``TYPEOF``
    check (typed relations validate their rows on insert).
    """

    sql: str
    data_type: DataType = DataType.ANY


#: Declared types whose values land in SQLite's numeric storage classes
#: (booleans are stored as 0/1 integers).
_NUMERIC_TYPES = (DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN)


def _extremum(func: str, parts: List[str]) -> str:
    """``least``/``greatest`` (NULLs ignored) over ``parts``, nest-free.

    Each operand of SQLite's scalar ``MIN``/``MAX`` is one part falling back
    to the others when NULL, so the text is quadratic in the number of
    parts (wide joins put one certainty column per input here).
    """
    if not parts:
        return "NULL"
    if len(parts) == 1:
        return parts[0]
    operands = (
        f"COALESCE({', '.join([part] + parts[:i] + parts[i + 1:])})"
        for i, part in enumerate(parts))
    return f"{func}({', '.join(operands)})"


class ExpressionCompiler:
    """Compiles expressions against one scope of named columns.

    ``lookup`` maps logical column names to SQL references (``c3`` /
    ``l.c0`` ...) with exactly the resolution rules of
    :class:`~repro.db.expressions.RowEnvironment`, so unknown or ambiguous
    references raise the same :class:`ExpressionError` the interpreting
    engines would.  ``parameters`` is the compilation-wide collector shared
    with the plan compiler.
    """

    def __init__(self, lookup: NameLookup,
                 parameters: List[Parameter]) -> None:
        self._lookup = lookup
        self._parameters = parameters

    def compile(self, expr: Expression) -> str:
        method = getattr(self, f"_compile_{type(expr).__name__.lower()}", None)
        if method is None:
            raise NotSupportedError(
                f"expression type {type(expr).__name__} is outside the "
                "SQL-compilable fragment"
            )
        return method(expr)

    # -- leaves ---------------------------------------------------------------

    def _compile_literal(self, expr: Literal) -> str:
        return sql_literal(expr.value)

    def _compile_column(self, expr: Column) -> str:
        payload = self._lookup.lookup(expr.name, expr.qualifier)
        if isinstance(payload, ColumnRef):
            return payload.sql
        return payload

    def _compile_parameter(self, expr: Parameter) -> str:
        self._parameters.append(expr)
        return parameter_placeholder(expr)

    # -- logic ----------------------------------------------------------------

    def _numericness(self, expr: Expression):
        """Static storage-class of ``expr``: 'num', 'text', 'null' or None.

        'num'/'text' mean every non-NULL value the expression can produce
        lands in that SQLite storage class (typed relations validate their
        rows on insert); 'null' marks a literal NULL; None is unknown (ANY
        columns, parameters, CASE, ...).
        """
        if isinstance(expr, Literal):
            value = expr.value
            if value is None:
                return "null"
            if isinstance(value, (bool, int, float)):
                return "num"
            if isinstance(value, str):
                return "text"
            return None
        if isinstance(expr, Column):
            payload = self._lookup.find(expr.name, expr.qualifier)
            if isinstance(payload, ColumnRef):
                if payload.data_type in _NUMERIC_TYPES:
                    return "num"
                if payload.data_type is DataType.STRING:
                    return "text"
            return None
        if isinstance(expr, (Negate, Arithmetic)):
            # SQLite arithmetic always yields a numeric value or NULL.
            return "num"
        if isinstance(expr, FunctionCall):
            name = expr.name.lower()
            if name in ("abs", "length"):
                return "num"
            if name in ("upper", "lower"):
                return "text"
        return None

    def _needs_type_guard(self, operands) -> bool:
        """True when an ordering comparison could cross the number/text divide.

        The evaluator turns such a comparison into *unknown*; SQLite would
        instead rank every number below every text value.  Statically
        same-class operands (and literal-NULL operands, whose comparison is
        NULL either way) skip the runtime check.
        """
        classes = [self._numericness(operand) for operand in operands]
        if "null" in classes:
            return False
        known = [c for c in classes if c is not None]
        if len(known) < len(classes):
            return True
        return any(c != known[0] for c in known)

    @staticmethod
    def _numeric_guard(*parts: str) -> str:
        """SQL for "all operands on the same side of the number/text divide"
        (NULL operands pass the guard and propagate NULL through the
        comparison itself)."""
        flags = [f"(TYPEOF({part}) IN ('integer', 'real'))" for part in parts]
        return " AND ".join(f"{flags[0]} = {flag}" for flag in flags[1:])

    def _range_operand(self, expr: Expression) -> str:
        """Compile an ordering-compared column with a ``+`` no-index hint.

        Unary ``+`` is the identity on every SQLite value but stops the
        planner from driving the scan off that column's index: range
        predicates on the workload columns are rarely selective enough to
        beat a scan, while equality (join) predicates keep full index use.
        (The ``TYPEOF``-guarded compilation path gets the same effect from
        its CASE wrapper.)
        """
        compiled = self.compile(expr)
        if isinstance(expr, Column):
            return f"+{compiled}"
        return compiled

    def _compile_comparison(self, expr: Comparison) -> str:
        if expr.op in ("=", "!=", "<>"):
            # Python's == / != never raise across types (they just answer
            # False / True), which is SQLite's cross-type behaviour too.
            return f"({self.compile(expr.left)} {expr.op} {self.compile(expr.right)})"
        if not self._needs_type_guard((expr.left, expr.right)):
            left = self._range_operand(expr.left)
            right = self._range_operand(expr.right)
            return f"({left} {expr.op} {right})"
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        guard = self._numeric_guard(left, right)
        return f"(CASE WHEN {guard} THEN {left} {expr.op} {right} END)"

    def _compile_and(self, expr: And) -> str:
        return "(" + " AND ".join(self.compile(op) for op in expr.operands) + ")"

    def _compile_or(self, expr: Or) -> str:
        return "(" + " OR ".join(self.compile(op) for op in expr.operands) + ")"

    def _compile_not(self, expr: Not) -> str:
        return f"(NOT {self.compile(expr.operand)})"

    # -- arithmetic -------------------------------------------------------------

    def _compile_arithmetic(self, expr: Arithmetic) -> str:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if expr.op == "/":
            # Python division is true division (int/int -> float) and yields
            # NULL on a zero divisor; SQLite does both once the dividend is
            # REAL (x / 0 and x / 0.0 are NULL).
            return f"(CAST({left} AS REAL) / {right})"
        return f"({left} {expr.op} {right})"

    def _compile_negate(self, expr: Negate) -> str:
        return f"(-{self.compile(expr.operand)})"

    # -- predicates -------------------------------------------------------------

    def _compile_between(self, expr: Between) -> str:
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        if not self._needs_type_guard((expr.operand, expr.low, expr.high)):
            operand = self._range_operand(expr.operand)
            return f"({operand} BETWEEN {low} AND {high})"
        operand = self.compile(expr.operand)
        guard = self._numeric_guard(operand, low, high)
        return f"(CASE WHEN {guard} THEN {operand} BETWEEN {low} AND {high} END)"

    def _compile_inlist(self, expr: InList) -> str:
        values = ", ".join(self.compile(value) for value in expr.values)
        return f"({self.compile(expr.operand)} IN ({values}))"

    def _compile_isnull(self, expr: IsNull) -> str:
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({self.compile(expr.operand)} {suffix})"

    def _compile_like(self, expr: Like) -> str:
        return f"({self.compile(expr.operand)} LIKE {sql_string(expr.pattern)})"

    def _compile_case(self, expr: Case) -> str:
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(self.compile(expr.operand))
        for condition, result in expr.whens:
            parts.append(f"WHEN {self.compile(condition)} THEN {self.compile(result)}")
        if expr.else_result is not None:
            parts.append(f"ELSE {self.compile(expr.else_result)}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"

    # -- scalar functions --------------------------------------------------------

    #: Functions that map 1:1 onto a SQLite builtin with identical NULL
    #: behaviour (SQLite upper/lower/length coerce numbers to text exactly
    #: like the evaluator's str() conversion).
    _DIRECT = {"abs": "ABS", "upper": "UPPER", "lower": "LOWER",
               "length": "LENGTH"}

    def _compile_functioncall(self, expr: FunctionCall) -> str:
        name = expr.name.lower()
        args = [self.compile(arg) for arg in expr.args]
        if name in self._DIRECT:
            return f"{self._DIRECT[name]}({', '.join(args)})"
        if name == "coalesce":
            if not args:
                return "NULL"
            if len(args) == 1:
                return args[0]
            return f"COALESCE({', '.join(args)})"
        if name == "least":
            return _extremum("MIN", args)
        if name == "greatest":
            return _extremum("MAX", args)
        raise NotSupportedError(
            f"scalar function {expr.name!r} has no faithful SQLite translation"
        )
