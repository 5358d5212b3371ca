"""Vectorized columnar execution engine.

Plans are evaluated over :class:`_Batch` objects: column-major value vectors
plus an annotation vector (see :mod:`repro.db.engine.vectors`).  Compared to
the row engine, the batch representation removes the per-row costs that
dominate interpretation -- building a :class:`RowEnvironment` dict per tuple,
re-validating rows on every operator, and re-resolving column names row by
row.  Expressions are evaluated column-at-a-time with names resolved once per
batch, joins gather matched rows with index vectors, and annotation
combination runs over whole vectors (numpy-accelerated for N, B and the UA
pair semiring).

Both engines must return identical relations; semantics with latitude
(ordering ties, aggregate weights, union compatibility) are shared via
:mod:`repro.db.engine.common`.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.db import algebra
from repro.db.database import Database
from repro.db.expressions import (
    _ARITHMETIC,
    _COMPARATORS,
    SCALAR_FUNCTIONS,
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
    RowEnvironment,
)
from repro.db.relation import KRelation, Row
from repro.db.schema import Attribute, RelationSchema
from repro.db.engine.base import EvaluationError, ExecutionEngine
from repro.db.engine.common import (
    annotation_weight,
    check_union_compatible,
    combine_aggregate,
    equality_columns,
    resolve_limit_count,
    select_limit_rows,
)
from repro.db.engine.vectors import annotation_ops
from repro.semirings.boolean import BooleanSemiring
from repro.semirings.natural import NaturalSemiring
from repro.semirings.ua import UASemiring


class ColumnarEngine(ExecutionEngine):
    """Column-at-a-time evaluation with vectorized annotation arithmetic."""

    name = "columnar"

    def execute(self, plan: algebra.Operator, database: Database,
                params=None) -> KRelation:
        executor = _ColumnarExecutor(database)
        return executor.to_relation(executor.run(self.bind(plan, params)))


class _Batch:
    """A column-major slice of a relation.

    ``consolidated`` marks batches whose rows are distinct and whose
    annotations are non-zero -- the invariant a :class:`KRelation` maintains.
    Operators that merge duplicates (projection, union) clear it; operators
    that need it (distinct, aggregate, limit, difference) re-establish it.
    """

    __slots__ = ("schema", "columns", "ann", "length", "consolidated")

    def __init__(self, schema: RelationSchema, columns: List[List[Any]],
                 ann: Any, length: int, consolidated: bool) -> None:
        self.schema = schema
        self.columns = columns
        self.ann = ann
        self.length = length
        self.consolidated = consolidated

    def rows(self) -> List[Row]:
        """Materialize the batch's rows as tuples (row-major view)."""
        if not self.columns:
            return [()] * self.length
        return list(zip(*self.columns))


class _ColumnContext:
    """Per-batch column name resolution (the columnar RowEnvironment).

    Resolution follows :class:`NameLookup` -- the shared implementation of
    :meth:`RowEnvironment.lookup`'s precedence rules -- built once per batch
    and mapping names to whole column vectors instead of row values.
    """

    __slots__ = ("names", "columns", "length", "_lookup")

    def __init__(self, names: Sequence[str], columns: List[List[Any]],
                 length: int) -> None:
        self.names = tuple(names)
        self.columns = columns
        self.length = length
        self._lookup = NameLookup(names, columns)

    def column(self, ref: Column) -> List[Any]:
        return self._lookup.lookup(ref.name, ref.qualifier)


# ---------------------------------------------------------------------------
# Vectorized expression evaluation.
# ---------------------------------------------------------------------------

def _eval_vector(expr: Expression, ctx: _ColumnContext) -> List[Any]:
    """Evaluate ``expr`` over every row of the batch, returning a column."""
    handler = _VECTOR_HANDLERS.get(type(expr))
    if handler is not None:
        return handler(expr, ctx)
    # Unknown expression type: fall back to row-at-a-time evaluation.
    rows = zip(*ctx.columns) if ctx.columns else iter([()] * ctx.length)
    return [expr.evaluate(RowEnvironment(ctx.names, row)) for row in rows]


def _vec_literal(expr: Literal, ctx: _ColumnContext) -> List[Any]:
    return [expr.value] * ctx.length


def _vec_column(expr: Column, ctx: _ColumnContext) -> List[Any]:
    return ctx.column(expr)


def _vec_parameter(expr: Parameter, ctx: _ColumnContext) -> List[Any]:
    raise EvaluationError(
        f"unbound query parameter {expr.placeholder!r} reached the columnar "
        "engine; supply bindings via execute(plan, database, params=...)"
    )


def _vec_comparison(expr: Comparison, ctx: _ColumnContext) -> List[Any]:
    op = _COMPARATORS[expr.op]
    left = _eval_vector(expr.left, ctx)
    right = _eval_vector(expr.right, ctx)
    out: List[Any] = []
    append = out.append
    for a, b in zip(left, right):
        if a is None or b is None:
            append(None)
            continue
        try:
            append(op(a, b))
        except TypeError:
            # Mixed-type comparisons (e.g. string vs number) are unknown.
            append(None)
    return out


def _vec_and(expr: And, ctx: _ColumnContext) -> List[Any]:
    state: List[Any] = [True] * ctx.length
    for operand in expr.operands:
        column = _eval_vector(operand, ctx)
        for i, value in enumerate(column):
            if state[i] is False:
                continue
            if value is False:
                state[i] = False
            elif value is None:
                state[i] = None
    return state


def _vec_or(expr: Or, ctx: _ColumnContext) -> List[Any]:
    state: List[Any] = [False] * ctx.length
    for operand in expr.operands:
        column = _eval_vector(operand, ctx)
        for i, value in enumerate(column):
            if state[i] is True:
                continue
            if value is True:
                state[i] = True
            elif value is None:
                state[i] = None
    return state


def _vec_not(expr: Not, ctx: _ColumnContext) -> List[Any]:
    return [None if v is None else (not v) for v in _eval_vector(expr.operand, ctx)]


def _vec_arithmetic(expr: Arithmetic, ctx: _ColumnContext) -> List[Any]:
    op = _ARITHMETIC[expr.op]
    left = _eval_vector(expr.left, ctx)
    right = _eval_vector(expr.right, ctx)
    out: List[Any] = []
    append = out.append
    for a, b in zip(left, right):
        if a is None or b is None:
            append(None)
            continue
        try:
            append(op(a, b))
        except TypeError:
            append(None)
    return out


def _vec_negate(expr: Negate, ctx: _ColumnContext) -> List[Any]:
    return [None if v is None else -v for v in _eval_vector(expr.operand, ctx)]


def _vec_between(expr: Between, ctx: _ColumnContext) -> List[Any]:
    values = _eval_vector(expr.operand, ctx)
    lows = _eval_vector(expr.low, ctx)
    highs = _eval_vector(expr.high, ctx)
    out: List[Any] = []
    append = out.append
    for value, low, high in zip(values, lows, highs):
        if value is None or low is None or high is None:
            append(None)
            continue
        try:
            append(low <= value <= high)
        except TypeError:
            append(None)
    return out


def _vec_inlist(expr: InList, ctx: _ColumnContext) -> List[Any]:
    values = _eval_vector(expr.operand, ctx)
    candidates = [_eval_vector(candidate, ctx) for candidate in expr.values]
    out: List[Any] = []
    append = out.append
    for i, value in enumerate(values):
        if value is None:
            append(None)
            continue
        saw_unknown = False
        matched = False
        for candidate in candidates:
            other = candidate[i]
            if other is None:
                saw_unknown = True
            elif value == other:
                matched = True
                break
        append(True if matched else (None if saw_unknown else False))
    return out


def _vec_isnull(expr: IsNull, ctx: _ColumnContext) -> List[Any]:
    if expr.negated:
        return [v is not None for v in _eval_vector(expr.operand, ctx)]
    return [v is None for v in _eval_vector(expr.operand, ctx)]


def _vec_like(expr: Like, ctx: _ColumnContext) -> List[Any]:
    regex = re.compile(re.escape(expr.pattern).replace("%", ".*").replace("_", "."))
    out: List[Any] = []
    append = out.append
    for value in _eval_vector(expr.operand, ctx):
        if value is None:
            append(None)
        else:
            append(regex.fullmatch(str(value)) is not None)
    return out


def _vec_case(expr: Case, ctx: _ColumnContext) -> List[Any]:
    results = [_eval_vector(result, ctx) for _, result in expr.whens]
    else_column = (
        _eval_vector(expr.else_result, ctx) if expr.else_result is not None else None
    )
    out: List[Any] = [None] * ctx.length
    if expr.operand is not None:
        subjects = _eval_vector(expr.operand, ctx)
        whens = [_eval_vector(when_value, ctx) for when_value, _ in expr.whens]
        for i, subject in enumerate(subjects):
            chosen = else_column[i] if else_column is not None else None
            if subject is not None:
                for branch, when_column in enumerate(whens):
                    if subject == when_column[i]:
                        chosen = results[branch][i]
                        break
            out[i] = chosen
        return out
    conditions = [_eval_vector(condition, ctx) for condition, _ in expr.whens]
    for i in range(ctx.length):
        chosen = else_column[i] if else_column is not None else None
        for branch, condition in enumerate(conditions):
            if condition[i] is True:
                chosen = results[branch][i]
                break
        out[i] = chosen
    return out


def _vec_function(expr: FunctionCall, ctx: _ColumnContext) -> List[Any]:
    func = SCALAR_FUNCTIONS[expr.name.lower()]
    args = [_eval_vector(arg, ctx) for arg in expr.args]
    if not args:
        return [func() for _ in range(ctx.length)]
    return [func(*values) for values in zip(*args)]


_VECTOR_HANDLERS: Dict[type, Callable[[Any, _ColumnContext], List[Any]]] = {
    Literal: _vec_literal,
    Column: _vec_column,
    Parameter: _vec_parameter,
    Comparison: _vec_comparison,
    And: _vec_and,
    Or: _vec_or,
    Not: _vec_not,
    Arithmetic: _vec_arithmetic,
    Negate: _vec_negate,
    Between: _vec_between,
    InList: _vec_inlist,
    IsNull: _vec_isnull,
    Like: _vec_like,
    Case: _vec_case,
    FunctionCall: _vec_function,
}


# ---------------------------------------------------------------------------
# The executor.
# ---------------------------------------------------------------------------

class _ColumnarExecutor:
    """Evaluates one plan against one database, batch at a time."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.semiring = database.semiring
        self.ops = annotation_ops(database.semiring)
        # Without zero divisors a product of stored (non-zero) annotations can
        # never be zero, so join outputs keep the no-zeros invariant.
        base = database.semiring
        if isinstance(base, UASemiring):
            base = base.base
        self._zero_divisor_free = isinstance(base, (NaturalSemiring, BooleanSemiring))

    def run(self, plan: algebra.Operator) -> _Batch:
        method = getattr(self, f"_exec_{type(plan).__name__.lower()}", None)
        if method is None:
            raise EvaluationError(f"cannot evaluate operator {type(plan).__name__}")
        return method(plan)

    # -- batch plumbing -----------------------------------------------------

    def _context(self, batch: _Batch) -> _ColumnContext:
        return _ColumnContext(batch.schema.attribute_names, batch.columns, batch.length)

    def _from_mapping(self, schema: RelationSchema,
                      mapping: Dict[Row, Any]) -> _Batch:
        rows = list(mapping.keys())
        n = len(rows)
        if schema.arity and n:
            columns = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for _ in range(schema.arity)]
        ann = self.ops.from_annotations(mapping.values(), n)
        return _Batch(schema, columns, ann, n, consolidated=True)

    def _mapping(self, batch: _Batch) -> Dict[Row, Any]:
        """Collapse a batch to the KRelation invariant: distinct rows, no zeros."""
        rows = batch.rows()
        annotations = self.ops.annotations(batch.ann)
        if batch.consolidated:
            return dict(zip(rows, annotations))
        plus = self.semiring.plus
        is_zero = self.semiring.is_zero
        merged: Dict[Row, Any] = {}
        for row, annotation in zip(rows, annotations):
            if row in merged:
                merged[row] = plus(merged[row], annotation)
            else:
                merged[row] = annotation
        return {row: ann for row, ann in merged.items() if not is_zero(ann)}

    def _consolidate(self, batch: _Batch) -> _Batch:
        if batch.consolidated:
            return batch
        return self._from_mapping(batch.schema, self._mapping(batch))

    def to_relation(self, batch: _Batch) -> KRelation:
        return KRelation._from_validated(
            batch.schema, self.semiring, self._mapping(batch)
        )

    # -- leaves --------------------------------------------------------------

    def _exec_relationref(self, plan: algebra.RelationRef) -> _Batch:
        relation = self.database.relation(plan.name)
        schema = relation.schema
        if plan.alias and plan.alias.lower() != plan.name.lower():
            schema = schema.rename(plan.alias)
        rows = list(relation.rows())
        n = len(rows)
        if schema.arity and n:
            columns = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for _ in range(schema.arity)]
        ann = self.ops.from_annotations(
            (relation.annotation(row) for row in rows), n
        )
        return _Batch(schema, columns, ann, n, consolidated=True)

    # -- unary operators ------------------------------------------------------

    def _exec_qualify(self, plan: algebra.Qualify) -> _Batch:
        batch = self.run(plan.child)
        attributes = [
            Attribute(f"{plan.qualifier}.{attr.name.split('.')[-1]}", attr.data_type)
            for attr in batch.schema.attributes
        ]
        schema = RelationSchema(plan.qualifier, attributes)
        return _Batch(schema, batch.columns, batch.ann, batch.length,
                      batch.consolidated)

    def _exec_selection(self, plan: algebra.Selection) -> _Batch:
        batch = self.run(plan.child)
        return self._filter(batch, plan.predicate)

    def _filter(self, batch: _Batch, predicate: Expression) -> _Batch:
        ctx = self._context(batch)
        mask = [value is True for value in _eval_vector(predicate, ctx)]
        if all(mask):
            return batch
        columns = [
            [value for value, keep in zip(column, mask) if keep]
            for column in batch.columns
        ]
        ann = self.ops.compress(batch.ann, mask)
        return _Batch(batch.schema, columns, ann, sum(mask), batch.consolidated)

    def _exec_projection(self, plan: algebra.Projection) -> _Batch:
        batch = self.run(plan.child)
        ctx = self._context(batch)
        columns = [_eval_vector(expr, ctx) for expr, _ in plan.items]
        schema = RelationSchema(
            batch.schema.name,
            [Attribute(name) for _, name in plan.items],
        )
        return _Batch(schema, columns, batch.ann, batch.length, consolidated=False)

    def _exec_distinct(self, plan: algebra.Distinct) -> _Batch:
        batch = self._consolidate(self.run(plan.child))
        if isinstance(self.semiring, (NaturalSemiring, BooleanSemiring)):
            # delta of a consolidated (non-zero) N/B annotation is always 1:
            # keep the vectorized fast path.
            ann = self.ops.ones(batch.length)
        else:
            # Pair/vector semirings need the component-wise delta (a UA pair
            # [0, d] must stay uncertain after duplicate elimination).
            delta = self.semiring.delta
            ann = self.ops.from_annotations(
                [delta(annotation)
                 for annotation in self.ops.annotations(batch.ann)],
                batch.length,
            )
        return _Batch(batch.schema, batch.columns, ann,
                      batch.length, consolidated=True)

    # -- binary operators -----------------------------------------------------

    def _gather_join(self, left: _Batch, right: _Batch,
                     left_sel: List[int], right_sel: List[int]) -> _Batch:
        schema = left.schema.concat(right.schema)
        columns = [[column[i] for i in left_sel] for column in left.columns]
        columns += [[column[j] for j in right_sel] for column in right.columns]
        ann = self.ops.multiply(
            self.ops.take(left.ann, left_sel), self.ops.take(right.ann, right_sel)
        )
        consolidated = (
            left.consolidated and right.consolidated and self._zero_divisor_free
        )
        return _Batch(schema, columns, ann, len(left_sel), consolidated)

    def _cross_selectors(self, left: _Batch, right: _Batch) -> Tuple[List[int], List[int]]:
        left_sel = [i for i in range(left.length) for _ in range(right.length)]
        right_sel = list(range(right.length)) * left.length
        return left_sel, right_sel

    def _exec_crossproduct(self, plan: algebra.CrossProduct) -> _Batch:
        left = self.run(plan.left)
        right = self.run(plan.right)
        left_sel, right_sel = self._cross_selectors(left, right)
        return self._gather_join(left, right, left_sel, right_sel)

    def _exec_join(self, plan: algebra.Join) -> _Batch:
        left = self.run(plan.left)
        right = self.run(plan.right)
        predicate = plan.predicate
        equi = equality_columns(predicate, left.schema.attribute_names,
                                right.schema.attribute_names) if predicate else []
        if equi:
            left_key = [left.columns[left.schema.index_of(l)] for l, _ in equi]
            right_key = [right.columns[right.schema.index_of(r)] for _, r in equi]
            buckets: Dict[Tuple, List[int]] = {}
            for j, key in enumerate(zip(*right_key)):
                buckets.setdefault(key, []).append(j)
            left_sel: List[int] = []
            right_sel: List[int] = []
            for i, key in enumerate(zip(*left_key)):
                matches = buckets.get(key)
                if matches:
                    left_sel.extend([i] * len(matches))
                    right_sel.extend(matches)
        else:
            left_sel, right_sel = self._cross_selectors(left, right)
        batch = self._gather_join(left, right, left_sel, right_sel)
        if predicate is not None:
            # Re-check the full predicate (including equality conjuncts): hash
            # matching uses Python equality, but NULL join keys must compare
            # as unknown, exactly as the row engine evaluates them.
            batch = self._filter(batch, predicate)
        return batch

    def _exec_union(self, plan: algebra.Union) -> _Batch:
        left = self.run(plan.left)
        right = self.run(plan.right)
        # Batches all carry the executor's semiring (Database enforces one
        # semiring per instance), so only the arity check can fire here.
        check_union_compatible(left.schema, right.schema,
                               self.semiring, self.semiring, "UNION")
        columns = [
            left_column + right_column
            for left_column, right_column in zip(left.columns, right.columns)
        ]
        ann = self.ops.concat(left.ann, right.ann)
        return _Batch(left.schema, columns, ann, left.length + right.length,
                      consolidated=False)

    def _exec_difference(self, plan: algebra.Difference) -> _Batch:
        left = self.run(plan.left)
        right = self.run(plan.right)
        check_union_compatible(left.schema, right.schema,
                               self.semiring, self.semiring, "EXCEPT")
        semiring = self.semiring
        if not semiring.has_monus:
            raise EvaluationError(
                f"difference requires a semiring with a monus; {semiring.name} has none"
            )
        right_mapping = self._mapping(right)
        zero = semiring.zero
        result: Dict[Row, Any] = {}
        for row, annotation in self._mapping(left).items():
            remaining = semiring.monus(annotation, right_mapping.get(row, zero))
            if not semiring.is_zero(remaining):
                result[row] = remaining
        return self._from_mapping(left.schema, result)

    def _exec_intersection(self, plan: algebra.Intersection) -> _Batch:
        left = self.run(plan.left)
        right = self.run(plan.right)
        check_union_compatible(left.schema, right.schema,
                               self.semiring, self.semiring, "INTERSECT")
        semiring = self.semiring
        right_mapping = self._mapping(right)
        zero = semiring.zero
        result: Dict[Row, Any] = {}
        for row, annotation in self._mapping(left).items():
            shared = semiring.glb(annotation, right_mapping.get(row, zero))
            if not semiring.is_zero(shared):
                result[row] = shared
        return self._from_mapping(left.schema, result)

    # -- extended operators ----------------------------------------------------

    def _exec_aggregate(self, plan: algebra.Aggregate) -> _Batch:
        batch = self._consolidate(self.run(plan.child))
        ctx = self._context(batch)
        group_columns = [_eval_vector(expr, ctx) for expr, _ in plan.group_by]
        if group_columns:
            keys: List[Tuple] = list(zip(*group_columns))
        else:
            keys = [()] * batch.length
        groups: Dict[Tuple, List[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(key, []).append(index)
        weights = [
            annotation_weight(annotation)
            for annotation in self.ops.annotations(batch.ann)
        ]
        argument_columns: List[Optional[List[Any]]] = [
            _eval_vector(agg.argument, ctx) if agg.argument is not None else None
            for agg in plan.aggregates
        ]
        group_names = [name for _, name in plan.group_by]
        out_names = group_names + [agg.name for agg in plan.aggregates]
        schema = RelationSchema(batch.schema.name, [Attribute(n) for n in out_names])
        result: Dict[Row, Any] = {}
        one = self.semiring.one
        for key, indices in groups.items():
            values = list(key)
            for agg, column in zip(plan.aggregates, argument_columns):
                if column is None:
                    weighted = [(1, weights[i]) for i in indices]
                else:
                    weighted = [(column[i], weights[i]) for i in indices]
                values.append(
                    combine_aggregate(agg.func, agg.argument is not None, weighted)
                )
            result[tuple(values)] = one
        return self._from_mapping(schema, result)

    def _exec_orderby(self, plan: algebra.OrderBy) -> _Batch:
        # Relations are unordered; ordering matters only below a Limit.
        return self.run(plan.child)

    def _exec_limit(self, plan: algebra.Limit) -> _Batch:
        child_plan = plan.child
        keys: Tuple[Tuple[Expression, bool], ...] = ()
        if isinstance(child_plan, algebra.OrderBy):
            keys = child_plan.keys
            child_plan = child_plan.child
        batch = self.run(child_plan)
        mapping = self._mapping(batch)
        names = batch.schema.attribute_names
        kept = select_limit_rows(mapping.items(), names, keys,
                                 resolve_limit_count(plan.count))
        return self._from_mapping(batch.schema, dict(kept))
