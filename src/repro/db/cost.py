"""Cardinality estimation.

This module turns the statistics of :mod:`repro.db.stats` into the number
join reordering and ``EXPLAIN`` need: :func:`estimate_cardinality`, the
estimated output rows of a plan node, using textbook System-R style
selectivity rules (equality ``1/NDV``, equi-join ``|L|*|R| / max(NDV)``,
range scans at a fixed default, AND as a product, OR by
inclusion-exclusion).

Estimates are deliberately cheap (one recursive walk, no data access) and
deliberately approximate: they only need to *rank* join orders, not predict
wall-clock time.  When statistics are missing the estimator falls back to
neutral defaults so the optimizer degrades to the rule-based behaviour
instead of guessing wildly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.db import algebra
from repro.db.expressions import (
    And,
    Between,
    Column,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from repro.db.stats import ColumnStats, TableStats

__all__ = [
    "DEFAULT_ROW_COUNT",
    "DEFAULT_SELECTIVITY",
    "PlanEstimate",
    "estimate_cardinality",
    "estimate_plan",
    "explain_rows",
    "join_cardinality",
    "predicate_selectivity",
]

#: Assumed row count for relations without statistics.
DEFAULT_ROW_COUNT = 1000.0

#: Selectivity of a predicate the estimator cannot analyse.
DEFAULT_SELECTIVITY = 0.25

#: Selectivity of an equality against a column without NDV statistics.
DEFAULT_EQ_SELECTIVITY = 0.1

#: Selectivity of a range predicate (``<``, ``>=``, BETWEEN, LIKE).
RANGE_SELECTIVITY = 1.0 / 3.0


class _Scope:
    """Column statistics visible at one plan node, keyed by name.

    Lookups accept bare and qualified names; a bare name shared by several
    relations in scope resolves to ``None`` (ambiguous), matching the
    conservative behaviour of the optimizer's name analysis.
    """

    __slots__ = ("_by_name", "_ambiguous")

    def __init__(self) -> None:
        self._by_name: Dict[str, ColumnStats] = {}
        self._ambiguous: set = set()

    def add(self, name: str, stats: ColumnStats) -> None:
        key = name.lower()
        if key in self._by_name or key in self._ambiguous:
            self._by_name.pop(key, None)
            self._ambiguous.add(key)
        else:
            self._by_name[key] = stats

    def lookup(self, column: Column) -> Optional[ColumnStats]:
        stats = self._by_name.get(column.full_name.lower())
        if stats is None and column.qualifier:
            stats = self._by_name.get(column.name.lower())
        return stats

    def merged(self, other: "_Scope") -> "_Scope":
        scope = _Scope()
        for source in (self, other):
            for key, stats in source._by_name.items():
                scope.add(key, stats)
            scope._ambiguous.update(source._ambiguous)
            for key in source._ambiguous:
                scope._by_name.pop(key, None)
        return scope


@dataclass
class PlanEstimate:
    """Estimated output of one plan node: rows plus visible column stats."""

    rows: float
    scope: _Scope


def _stats_lookup(stats: Any):
    """Normalize the ``stats`` argument to a ``name -> TableStats`` callable.

    Accepts a :class:`~repro.db.stats.StatsCatalog` (or anything with a
    ``table_stats`` method), a plain dict, a callable, or None.
    """
    if stats is None:
        return lambda name: None
    table_stats = getattr(stats, "table_stats", None)
    if callable(table_stats):
        return table_stats
    if isinstance(stats, dict):
        lowered = {key.lower(): value for key, value in stats.items()}
        return lambda name: lowered.get(name.lower())
    if callable(stats):
        return stats
    return lambda name: None


def _literal_side(expr: Expression) -> bool:
    """True when ``expr`` contains no column references (constant-ish)."""
    return not expr.columns()


def _column_operand(expr: Expression) -> Optional[Column]:
    """The expression itself when it is a bare column reference."""
    return expr if isinstance(expr, Column) else None


def _equality_selectivity(column: Optional[ColumnStats]) -> float:
    if column is None or column.ndv <= 0:
        return DEFAULT_EQ_SELECTIVITY
    return min(1.0, 1.0 / column.ndv)


def predicate_selectivity(predicate: Optional[Expression],
                          scope: _Scope) -> float:
    """Estimated fraction of rows that satisfy ``predicate``.

    Implements the classic rules: equality against a constant is
    ``1/NDV``; range comparisons and LIKE use fixed defaults; IS NULL uses
    the observed null fraction; IN sums equality selectivities; AND is a
    product (independence assumption); OR is inclusion-exclusion; NOT is
    the complement.  Anything else gets :data:`DEFAULT_SELECTIVITY`.
    """
    if predicate is None:
        return 1.0
    if isinstance(predicate, Literal):
        if predicate.value is True:
            return 1.0
        if predicate.value in (False, None):
            return 0.0
        return DEFAULT_SELECTIVITY
    if isinstance(predicate, And):
        result = 1.0
        for operand in predicate.operands:
            result *= predicate_selectivity(operand, scope)
        return result
    if isinstance(predicate, Or):
        result = 0.0
        for operand in predicate.operands:
            part = predicate_selectivity(operand, scope)
            result = result + part - result * part
        return min(1.0, result)
    if isinstance(predicate, Not):
        return max(0.0, 1.0 - predicate_selectivity(predicate.operand, scope))
    if isinstance(predicate, Comparison):
        left_col = _column_operand(predicate.left)
        right_col = _column_operand(predicate.right)
        if predicate.op == "=":
            if left_col is not None and _literal_side(predicate.right):
                return _equality_selectivity(scope.lookup(left_col))
            if right_col is not None and _literal_side(predicate.left):
                return _equality_selectivity(scope.lookup(right_col))
            if left_col is not None and right_col is not None:
                # Column = column inside one scope (e.g. a self-join key
                # after a cross product): treat like an equi-join key.
                left_stats = scope.lookup(left_col)
                right_stats = scope.lookup(right_col)
                ndv = max(
                    left_stats.ndv if left_stats else 0,
                    right_stats.ndv if right_stats else 0,
                )
                return min(1.0, 1.0 / ndv) if ndv > 0 else DEFAULT_EQ_SELECTIVITY
            return DEFAULT_EQ_SELECTIVITY
        if predicate.op in ("!=", "<>"):
            column = left_col if left_col is not None else right_col
            return max(0.0, 1.0 - _equality_selectivity(
                scope.lookup(column) if column is not None else None))
        return RANGE_SELECTIVITY
    if isinstance(predicate, Between):
        return RANGE_SELECTIVITY * 0.75
    if isinstance(predicate, InList):
        column = _column_operand(predicate.operand)
        per_value = _equality_selectivity(
            scope.lookup(column) if column is not None else None)
        return min(1.0, per_value * max(1, len(predicate.values)))
    if isinstance(predicate, IsNull):
        column = _column_operand(predicate.operand)
        stats = scope.lookup(column) if column is not None else None
        null_fraction = stats.null_fraction if stats is not None else 0.1
        return max(0.0, 1.0 - null_fraction) if predicate.negated else null_fraction
    if isinstance(predicate, Like):
        return RANGE_SELECTIVITY
    return DEFAULT_SELECTIVITY


def join_cardinality(left: PlanEstimate, right: PlanEstimate,
                     predicate: Optional[Expression]) -> float:
    """Estimated rows of ``left JOIN right ON predicate``.

    Each equi-join conjunct divides the cross-product cardinality by the
    larger key NDV (capped by the smaller input, which an FK join cannot
    exceed by much); remaining conjuncts contribute their plain
    selectivity against the merged scope.
    """
    rows = left.rows * right.rows
    if predicate is None:
        return rows
    merged = left.scope.merged(right.scope)
    conjuncts = (list(predicate.operands) if isinstance(predicate, And)
                 else [predicate])
    for conjunct in conjuncts:
        factor = None
        if isinstance(conjunct, Comparison) and conjunct.op == "=":
            left_col = _column_operand(conjunct.left)
            right_col = _column_operand(conjunct.right)
            if left_col is not None and right_col is not None:
                sides = []
                for column in (left_col, right_col):
                    stats = (left.scope.lookup(column)
                             or right.scope.lookup(column))
                    if stats is not None and stats.ndv > 0:
                        sides.append(stats.ndv)
                if sides:
                    factor = 1.0 / max(sides)
        if factor is None:
            factor = predicate_selectivity(conjunct, merged)
        rows *= factor
    return rows


def estimate_plan(plan: algebra.Operator, stats: Any = None) -> PlanEstimate:
    """Estimate rows and visible column statistics for ``plan``.

    ``stats`` is anything :func:`_stats_lookup` accepts (usually the
    session's :class:`~repro.db.stats.StatsCatalog`).  Missing statistics
    degrade to :data:`DEFAULT_ROW_COUNT` rows and default selectivities.
    """
    lookup = _stats_lookup(stats)
    return _estimate(plan, lookup, None)


def _estimate(plan: algebra.Operator, lookup, qualifier: Optional[str]
              ) -> PlanEstimate:
    if isinstance(plan, algebra.RelationRef):
        table: Optional[TableStats] = lookup(plan.name)
        scope = _Scope()
        rows = float(table.row_count) if table is not None else DEFAULT_ROW_COUNT
        if table is not None:
            prefix = qualifier or plan.effective_name
            for stats in table.columns.values():
                base = stats.name.split(".")[-1]
                scope.add(base, stats)
                scope.add(f"{prefix}.{base}", stats)
        return PlanEstimate(rows, scope)
    if isinstance(plan, algebra.Qualify):
        return _estimate(plan.child, lookup, plan.qualifier)
    if isinstance(plan, algebra.Selection):
        child = _estimate(plan.child, lookup, qualifier)
        selectivity = predicate_selectivity(plan.predicate, child.scope)
        return PlanEstimate(child.rows * selectivity, child.scope)
    if isinstance(plan, algebra.Projection):
        child = _estimate(plan.child, lookup, qualifier)
        scope = _Scope()
        for item, name in plan.items:
            if isinstance(item, Column):
                stats = child.scope.lookup(item)
                if stats is not None:
                    scope.add(name, stats)
        return PlanEstimate(child.rows, scope)
    if isinstance(plan, algebra.Join):
        left = _estimate(plan.left, lookup, qualifier)
        right = _estimate(plan.right, lookup, qualifier)
        rows = join_cardinality(left, right, plan.predicate)
        return PlanEstimate(rows, left.scope.merged(right.scope))
    if isinstance(plan, algebra.CrossProduct):
        left = _estimate(plan.left, lookup, qualifier)
        right = _estimate(plan.right, lookup, qualifier)
        return PlanEstimate(left.rows * right.rows,
                            left.scope.merged(right.scope))
    if isinstance(plan, algebra.Union):
        left = _estimate(plan.left, lookup, qualifier)
        right = _estimate(plan.right, lookup, qualifier)
        return PlanEstimate(left.rows + right.rows, left.scope)
    if isinstance(plan, (algebra.Difference, algebra.Intersection)):
        left = _estimate(plan.left, lookup, qualifier)
        right = _estimate(plan.right, lookup, qualifier)
        if isinstance(plan, algebra.Intersection):
            return PlanEstimate(min(left.rows, right.rows), left.scope)
        return PlanEstimate(left.rows, left.scope)
    if isinstance(plan, algebra.Distinct):
        child = _estimate(plan.child, lookup, qualifier)
        return PlanEstimate(child.rows, child.scope)
    if isinstance(plan, algebra.Aggregate):
        child = _estimate(plan.child, lookup, qualifier)
        if not plan.group_by:
            return PlanEstimate(min(child.rows, 1.0), _Scope())
        groups = 1.0
        for expr, _name in plan.group_by:
            stats = child.scope.lookup(expr) if isinstance(expr, Column) else None
            groups *= stats.ndv if stats is not None and stats.ndv > 0 else 10.0
        return PlanEstimate(min(child.rows, groups), _Scope())
    if isinstance(plan, algebra.OrderBy):
        child = _estimate(plan.child, lookup, qualifier)
        return PlanEstimate(child.rows, child.scope)
    if isinstance(plan, algebra.Limit):
        child = _estimate(plan.child, lookup, qualifier)
        count = plan.count
        if isinstance(count, Literal):
            count = count.value
        if isinstance(count, (int, float)) and not isinstance(count, bool):
            return PlanEstimate(min(child.rows, float(count)), child.scope)
        return PlanEstimate(child.rows, child.scope)
    # Unknown operator: be neutral.
    children = getattr(plan, "child", None)
    if children is not None:
        return _estimate(children, lookup, qualifier)
    return PlanEstimate(DEFAULT_ROW_COUNT, _Scope())


def estimate_cardinality(plan: algebra.Operator, stats: Any = None) -> float:
    """Estimated number of output rows of ``plan`` (see :func:`estimate_plan`)."""
    return estimate_plan(plan, stats).rows


def explain_rows(plan: algebra.Operator, stats: Any = None
                 ) -> List[Tuple[int, str, float]]:
    """Per-node ``(depth, description, estimated rows)`` in render order.

    The same pre-order walk as :meth:`algebra.Operator.render`, annotated
    with the cardinality estimate of each node -- the backbone of
    ``EXPLAIN`` output.
    """
    lookup = _stats_lookup(stats)
    lines: List[Tuple[int, str, float]] = []

    def walk(node: algebra.Operator, depth: int) -> None:
        estimate = _estimate(node, lookup, None)
        lines.append((depth, node.describe(), estimate.rows))
        for child in node.children():
            walk(child, depth + 1)

    walk(plan, 0)
    return lines
