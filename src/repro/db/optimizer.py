"""Logical plan optimizer.

Rewrites :mod:`repro.db.algebra` trees into equivalent plans that evaluate
faster on any execution engine.  Every rule preserves K-relational semantics
for arbitrary commutative semirings (the RA+ identities follow from
distributivity, exactly the argument behind the paper's Theorem 4), so the
optimized and unoptimized plans return identical :class:`KRelation` results.

Rules, applied in order by :func:`optimize_plan`:

* **constant folding** -- column-free subexpressions become literals;
  ``TRUE`` selections and join predicates disappear,
* **selection pushdown** -- conjuncts move through projections (with
  substitution), unions, order-by, distinct, the left input of
  difference/intersection, and into the matching side of a join,
* **cross-product elimination** -- products under selections become joins so
  equality conjuncts enable the engines' hash join,
* **projection pruning** -- columns nobody references upstream are cut at the
  scans, shrinking every intermediate tuple,
* **order-by elimination** -- ``OrderBy`` nodes that do not feed a ``Limit``
  are identities and are removed.

After the rule-based passes, a **cost-based join reordering** pass
(:func:`reorder_joins`) runs when table statistics are supplied: it
flattens each join tree, greedily rebuilds it smallest-intermediate-first
using the cardinality estimates of :mod:`repro.db.cost`, and wraps the
result in a projection restoring the original column order.  Reordering
is sound for every commutative semiring (annotation multiplication is
commutative and associative, the same argument as for the other rules)
and applies only when its estimate beats the written order.

The optimizer is bypassable for A/B testing: pass ``optimize=False`` to
:func:`repro.db.evaluator.evaluate` (or set ``REPRO_OPTIMIZE=0``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.db import algebra
from repro.db import cost as _cost
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
    RowEnvironment,
    conjunction,
)
from repro.db.schema import DatabaseSchema


def optimize_plan(plan: algebra.Operator,
                  catalog: Optional[DatabaseSchema] = None,
                  stats: Any = None) -> algebra.Operator:
    """Apply all rewrite rules to ``plan``.

    ``catalog`` (the database schema) enables the rules that need to know
    which columns a subplan produces; without it those rules degrade to
    no-ops rather than guessing.  ``stats`` (usually the session's
    :class:`~repro.db.stats.StatsCatalog`) additionally enables the
    cost-based join reordering pass; without statistics the optimizer
    stays purely rule-based.
    """
    plan = fold_constants(plan)
    plan = push_selections(plan, catalog)
    plan = reorder_joins(plan, catalog, stats)
    plan = prune_projections(plan, catalog)
    plan = drop_redundant_orderby(plan)
    return plan


# ---------------------------------------------------------------------------
# Generic plan rebuilding.
# ---------------------------------------------------------------------------

def _map_children(plan: algebra.Operator,
                  f: Callable[[algebra.Operator], algebra.Operator]) -> algebra.Operator:
    """Rebuild ``plan`` with every direct child replaced by ``f(child)``."""
    if isinstance(plan, algebra.Selection):
        return algebra.Selection(f(plan.child), plan.predicate)
    if isinstance(plan, algebra.Projection):
        return algebra.Projection(f(plan.child), plan.items)
    if isinstance(plan, algebra.Qualify):
        return algebra.Qualify(f(plan.child), plan.qualifier)
    if isinstance(plan, algebra.Distinct):
        return algebra.Distinct(f(plan.child))
    if isinstance(plan, algebra.Aggregate):
        return algebra.Aggregate(f(plan.child), plan.group_by, plan.aggregates)
    if isinstance(plan, algebra.OrderBy):
        return algebra.OrderBy(f(plan.child), plan.keys)
    if isinstance(plan, algebra.Limit):
        return algebra.Limit(f(plan.child), plan.count)
    if isinstance(plan, algebra.Join):
        return algebra.Join(f(plan.left), f(plan.right), plan.predicate)
    if isinstance(plan, algebra.CrossProduct):
        return algebra.CrossProduct(f(plan.left), f(plan.right))
    if isinstance(plan, algebra.Union):
        return algebra.Union(f(plan.left), f(plan.right))
    if isinstance(plan, algebra.Difference):
        return algebra.Difference(f(plan.left), f(plan.right))
    if isinstance(plan, algebra.Intersection):
        return algebra.Intersection(f(plan.left), f(plan.right))
    return plan


def _plan_columns(plan: algebra.Operator,
                  catalog: Optional[DatabaseSchema]) -> Optional[List[str]]:
    from repro.db.sql.translator import infer_columns

    return infer_columns(plan, catalog)


# ---------------------------------------------------------------------------
# Constant folding.
# ---------------------------------------------------------------------------

_EMPTY_ENV = RowEnvironment((), ())

#: Expression types safe to evaluate eagerly once they are column-free.
_FOLDABLE = (Comparison, Arithmetic, Negate, Between, InList, IsNull, Like,
             FunctionCall, Case)


def fold_expression(expr: Expression) -> Expression:
    """Fold column-free subexpressions of ``expr`` into literals.

    :class:`Parameter` placeholders are value-less leaves: they are never
    folded themselves, and a subexpression containing one stays symbolic (its
    eager evaluation raises, which the fold treats as "not constant"), so
    prepared plans optimize once and bind many times.
    """
    if isinstance(expr, (Literal, Column, Parameter)):
        return expr
    if isinstance(expr, And):
        operands = [fold_expression(op) for op in expr.operands]
        kept: List[Expression] = []
        for op in operands:
            if isinstance(op, Literal):
                if op.value is False:
                    return Literal(False)
                if op.value is True:
                    continue
            kept.append(op)
        if not kept:
            return Literal(True)
        if len(kept) == 1:
            return kept[0]
        return And(*kept)
    if isinstance(expr, Or):
        operands = [fold_expression(op) for op in expr.operands]
        kept = []
        for op in operands:
            if isinstance(op, Literal):
                if op.value is True:
                    return Literal(True)
                if op.value is False:
                    continue
            kept.append(op)
        if not kept:
            return Literal(False)
        if len(kept) == 1:
            return kept[0]
        return Or(*kept)
    if isinstance(expr, Not):
        operand = fold_expression(expr.operand)
        if isinstance(operand, Literal):
            value = operand.value
            return Literal(None if value is None else not value)
        return Not(operand)
    rebuilt = _rebuild_expression(expr)
    if isinstance(rebuilt, _FOLDABLE) and not rebuilt.columns():
        try:
            return Literal(rebuilt.evaluate(_EMPTY_ENV))
        except Exception:
            return rebuilt
    return rebuilt


def _rebuild_expression(expr: Expression) -> Expression:
    """Rebuild one expression node with folded children."""
    if isinstance(expr, Comparison):
        return Comparison(expr.op, fold_expression(expr.left), fold_expression(expr.right))
    if isinstance(expr, Arithmetic):
        return Arithmetic(expr.op, fold_expression(expr.left), fold_expression(expr.right))
    if isinstance(expr, Negate):
        return Negate(fold_expression(expr.operand))
    if isinstance(expr, Between):
        return Between(fold_expression(expr.operand), fold_expression(expr.low),
                       fold_expression(expr.high))
    if isinstance(expr, InList):
        return InList(fold_expression(expr.operand),
                      tuple(fold_expression(v) for v in expr.values))
    if isinstance(expr, IsNull):
        return IsNull(fold_expression(expr.operand), expr.negated)
    if isinstance(expr, Like):
        return Like(fold_expression(expr.operand), expr.pattern)
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(fold_expression(a) for a in expr.args))
    if isinstance(expr, Case):
        return Case(
            tuple((fold_expression(w), fold_expression(r)) for w, r in expr.whens),
            fold_expression(expr.else_result) if expr.else_result is not None else None,
            fold_expression(expr.operand) if expr.operand is not None else None,
        )
    return expr


def fold_constants(plan: algebra.Operator) -> algebra.Operator:
    """Fold constants in every expression of the plan tree."""
    plan = _map_children(plan, fold_constants)
    if isinstance(plan, algebra.Selection):
        predicate = fold_expression(plan.predicate)
        if isinstance(predicate, Literal) and predicate.value is True:
            return plan.child
        return algebra.Selection(plan.child, predicate)
    if isinstance(plan, algebra.Projection):
        return algebra.Projection(
            plan.child,
            tuple((fold_expression(expr), name) for expr, name in plan.items),
        )
    if isinstance(plan, algebra.Join) and plan.predicate is not None:
        predicate = fold_expression(plan.predicate)
        if isinstance(predicate, Literal) and predicate.value is True:
            return algebra.Join(plan.left, plan.right, None)
        return algebra.Join(plan.left, plan.right, predicate)
    if isinstance(plan, algebra.Aggregate):
        return algebra.Aggregate(
            plan.child,
            tuple((fold_expression(expr), name) for expr, name in plan.group_by),
            tuple(
                algebra.AggregateFunction(
                    agg.func,
                    fold_expression(agg.argument) if agg.argument is not None else None,
                    agg.name,
                )
                for agg in plan.aggregates
            ),
        )
    if isinstance(plan, algebra.OrderBy):
        return algebra.OrderBy(
            plan.child,
            tuple((fold_expression(expr), descending) for expr, descending in plan.keys),
        )
    return plan


# ---------------------------------------------------------------------------
# Name resolution helpers (NameLookup applies RowEnvironment's lookup rules).
# ---------------------------------------------------------------------------

def _name_lookup(columns: Sequence[str]) -> NameLookup:
    """A :class:`NameLookup` resolving references to lowered member names."""
    return NameLookup(columns, [name.lower() for name in columns])


def _resolve_all(columns: Sequence[Column],
                 available: Optional[Sequence[str]]) -> Optional[Set[str]]:
    """Resolve every column to a member of ``available`` (None on failure)."""
    if available is None:
        return None
    lookup = _name_lookup(available)
    resolved: Set[str] = set()
    for column in columns:
        name = lookup.find(column.name, column.qualifier)
        if name is None:
            return None
        resolved.add(name)
    return resolved


# ---------------------------------------------------------------------------
# Selection pushdown (including cross-product -> join conversion).
# ---------------------------------------------------------------------------

def push_selections(plan: algebra.Operator,
                    catalog: Optional[DatabaseSchema] = None) -> algebra.Operator:
    """Move selection conjuncts as close to the scans as possible."""
    return _push(plan, [], catalog)


def _split_predicate(predicate: Optional[Expression]) -> List[Expression]:
    if predicate is None:
        return []
    if isinstance(predicate, And):
        return list(predicate.operands)
    return [predicate]


def _wrap(plan: algebra.Operator, pending: List[Expression]) -> algebra.Operator:
    if not pending:
        return plan
    return algebra.Selection(plan, conjunction(pending))


def _classify_conjunct(conjunct: Expression,
                       left_columns: Optional[Sequence[str]],
                       right_columns: Optional[Sequence[str]]) -> str:
    """Which join input a conjunct can be evaluated on: left, right or keep."""
    if left_columns is None or right_columns is None:
        return "keep"
    columns = conjunct.columns()
    if not columns:
        return "keep"
    left_lookup = _name_lookup(left_columns)
    right_lookup = _name_lookup(right_columns)
    on_left = on_right = True
    for column in columns:
        resolves_left = left_lookup.find(column.name, column.qualifier) is not None
        resolves_right = right_lookup.find(column.name, column.qualifier) is not None
        if resolves_left and resolves_right:
            # Ambiguous between the two sides; leave the conjunct in place.
            return "keep"
        on_left = on_left and resolves_left
        on_right = on_right and resolves_right
    if on_left:
        return "left"
    if on_right:
        return "right"
    return "keep"


def _substitute(expr: Expression,
                resolve: Callable[[Column], Optional[Expression]]) -> Optional[Expression]:
    """Replace column references via ``resolve`` (None when not substitutable)."""
    if isinstance(expr, Column):
        return resolve(expr)
    if isinstance(expr, (Literal, Parameter)):
        return expr

    def sub(child: Expression) -> Optional[Expression]:
        return _substitute(child, resolve)

    if isinstance(expr, Comparison):
        left, right = sub(expr.left), sub(expr.right)
        if left is None or right is None:
            return None
        return Comparison(expr.op, left, right)
    if isinstance(expr, Arithmetic):
        left, right = sub(expr.left), sub(expr.right)
        if left is None or right is None:
            return None
        return Arithmetic(expr.op, left, right)
    if isinstance(expr, (And, Or)):
        operands = [sub(op) for op in expr.operands]
        if any(op is None for op in operands):
            return None
        return type(expr)(*operands)  # type: ignore[arg-type]
    if isinstance(expr, Not):
        operand = sub(expr.operand)
        return None if operand is None else Not(operand)
    if isinstance(expr, Negate):
        operand = sub(expr.operand)
        return None if operand is None else Negate(operand)
    if isinstance(expr, Between):
        operand, low, high = sub(expr.operand), sub(expr.low), sub(expr.high)
        if operand is None or low is None or high is None:
            return None
        return Between(operand, low, high)
    if isinstance(expr, InList):
        operand = sub(expr.operand)
        values = [sub(v) for v in expr.values]
        if operand is None or any(v is None for v in values):
            return None
        return InList(operand, tuple(values))
    if isinstance(expr, IsNull):
        operand = sub(expr.operand)
        return None if operand is None else IsNull(operand, expr.negated)
    if isinstance(expr, Like):
        operand = sub(expr.operand)
        return None if operand is None else Like(operand, expr.pattern)
    if isinstance(expr, FunctionCall):
        args = [sub(a) for a in expr.args]
        if any(a is None for a in args):
            return None
        return FunctionCall(expr.name, tuple(args))
    if isinstance(expr, Case):
        whens = []
        for when, result in expr.whens:
            new_when, new_result = sub(when), sub(result)
            if new_when is None or new_result is None:
                return None
            whens.append((new_when, new_result))
        else_result = None
        if expr.else_result is not None:
            else_result = sub(expr.else_result)
            if else_result is None:
                return None
        operand = None
        if expr.operand is not None:
            operand = sub(expr.operand)
            if operand is None:
                return None
        return Case(tuple(whens), else_result, operand)
    return None


def _push(plan: algebra.Operator, pending: List[Expression],
          catalog: Optional[DatabaseSchema]) -> algebra.Operator:
    if isinstance(plan, algebra.Selection):
        return _push(plan.child, pending + _split_predicate(plan.predicate), catalog)

    if isinstance(plan, algebra.CrossProduct):
        # A selection over a cross product is exactly a theta join; convert so
        # equality conjuncts can drive the engines' hash join.
        plan = algebra.Join(plan.left, plan.right, None)

    if isinstance(plan, algebra.Join):
        conjuncts = pending + _split_predicate(plan.predicate)
        left_columns = _plan_columns(plan.left, catalog)
        right_columns = _plan_columns(plan.right, catalog)
        to_left: List[Expression] = []
        to_right: List[Expression] = []
        kept: List[Expression] = []
        for conjunct in conjuncts:
            side = _classify_conjunct(conjunct, left_columns, right_columns)
            if side == "left":
                to_left.append(conjunct)
            elif side == "right":
                to_right.append(conjunct)
            else:
                kept.append(conjunct)
        left = _push(plan.left, to_left, catalog)
        right = _push(plan.right, to_right, catalog)
        predicate = conjunction(kept) if kept else None
        if isinstance(predicate, Literal) and predicate.value is True:
            predicate = None
        return algebra.Join(left, right, predicate)

    if isinstance(plan, algebra.Projection):
        substituted: List[Expression] = []
        above: List[Expression] = []
        if pending:
            lookup = NameLookup(
                [name for _, name in plan.items], [expr for expr, _ in plan.items]
            )

            def resolve(column: Column) -> Optional[Expression]:
                return lookup.find(column.name, column.qualifier)

            for conjunct in pending:
                replacement = _substitute(conjunct, resolve)
                if replacement is None:
                    above.append(conjunct)
                else:
                    substituted.append(replacement)
        child = _push(plan.child, substituted, catalog)
        return _wrap(algebra.Projection(child, plan.items), above)

    if isinstance(plan, algebra.Union):
        left_columns = _plan_columns(plan.left, catalog)
        right_columns = _plan_columns(plan.right, catalog)
        if pending and left_columns is not None and right_columns is not None and \
                [c.lower() for c in left_columns] == [c.lower() for c in right_columns]:
            return algebra.Union(
                _push(plan.left, list(pending), catalog),
                _push(plan.right, list(pending), catalog),
            )
        return _wrap(
            algebra.Union(_push(plan.left, [], catalog), _push(plan.right, [], catalog)),
            pending,
        )

    if isinstance(plan, (algebra.Difference, algebra.Intersection)):
        # Result rows are a subset of the left input's rows, and a row's right
        # annotation is unaffected by filtering the left side, so selections
        # commute with the left input (but not the right).
        left = _push(plan.left, pending, catalog)
        right = _push(plan.right, [], catalog)
        return type(plan)(left, right)

    if isinstance(plan, algebra.Distinct):
        return algebra.Distinct(_push(plan.child, pending, catalog))

    if isinstance(plan, algebra.OrderBy):
        return algebra.OrderBy(_push(plan.child, pending, catalog), plan.keys)

    if isinstance(plan, (algebra.Qualify, algebra.Aggregate, algebra.Limit)):
        rebuilt = _map_children(plan, lambda child: _push(child, [], catalog))
        return _wrap(rebuilt, pending)

    # Leaves (RelationRef) and anything unknown: apply the pending conjuncts.
    return _wrap(plan, pending)


# ---------------------------------------------------------------------------
# Projection pruning.
# ---------------------------------------------------------------------------

def prune_projections(plan: algebra.Operator,
                      catalog: Optional[DatabaseSchema] = None) -> algebra.Operator:
    """Drop columns that no upstream operator references.

    ``required`` names the output columns the parent observes (lowered);
    ``None`` means "all of them".  Pruning only happens below an absorbing
    projection, so duplicate-merging introduced by a narrower scan is always
    swallowed by an annotation sum -- sound for any commutative semiring.
    """
    return _prune(plan, None, catalog)


def _keep_columns(names: Sequence[str], required: Set[str]) -> List[str]:
    kept = [name for name in names if name.lower() in required]
    if not kept:
        # Keep one column so the schema stays non-degenerate; annotation
        # totals are preserved either way.
        kept = [names[0]] if names else []
    return kept


def _column_ref(name: str) -> Column:
    if "." in name:
        qualifier, base = name.rsplit(".", 1)
        return Column(base, qualifier=qualifier)
    return Column(name)


def _prune(plan: algebra.Operator, required: Optional[Set[str]],
           catalog: Optional[DatabaseSchema]) -> algebra.Operator:
    if isinstance(plan, algebra.RelationRef):
        if required is None:
            return plan
        columns = _plan_columns(plan, catalog)
        if columns is None:
            return plan
        kept = _keep_columns(columns, required)
        if len(kept) == len(columns):
            return plan
        return algebra.Projection(
            plan, tuple((_column_ref(name), name) for name in kept)
        )

    if isinstance(plan, algebra.Projection):
        items = plan.items
        if required is not None:
            kept_items = tuple(
                (expr, name) for expr, name in items if name.lower() in required
            )
            if not kept_items and items:
                kept_items = (items[0],)
            items = kept_items
        referenced = [column for expr, _ in items for column in expr.columns()]
        child_columns = _plan_columns(plan.child, catalog)
        child_required = _resolve_all(referenced, child_columns)
        return algebra.Projection(_prune(plan.child, child_required, catalog), items)

    if isinstance(plan, algebra.Selection):
        child_columns = _plan_columns(plan.child, catalog)
        child_required: Optional[Set[str]] = None
        if required is not None:
            predicate_columns = _resolve_all(plan.predicate.columns(), child_columns)
            if predicate_columns is not None:
                child_required = set(required) | predicate_columns
        return algebra.Selection(_prune(plan.child, child_required, catalog),
                                 plan.predicate)

    if isinstance(plan, algebra.OrderBy):
        child_columns = _plan_columns(plan.child, catalog)
        child_required = None
        if required is not None:
            key_columns = [c for expr, _ in plan.keys for c in expr.columns()]
            resolved = _resolve_all(key_columns, child_columns)
            if resolved is not None:
                child_required = set(required) | resolved
        return algebra.OrderBy(_prune(plan.child, child_required, catalog), plan.keys)

    if isinstance(plan, algebra.Qualify):
        child_columns = _plan_columns(plan.child, catalog)
        child_required = None
        if required is not None and child_columns is not None:
            required_bases = {name.split(".")[-1] for name in required}
            child_required = {
                name.lower() for name in child_columns
                if name.lower().split(".")[-1] in required_bases
            }
        return algebra.Qualify(_prune(plan.child, child_required, catalog),
                               plan.qualifier)

    if isinstance(plan, (algebra.Join, algebra.CrossProduct)):
        left_columns = _plan_columns(plan.left, catalog)
        right_columns = _plan_columns(plan.right, catalog)
        left_required: Optional[Set[str]] = None
        right_required: Optional[Set[str]] = None
        if required is not None and left_columns is not None and right_columns is not None:
            needed = set(required)
            predicate = plan.predicate if isinstance(plan, algebra.Join) else None
            resolvable = True
            if predicate is not None:
                predicate_columns = _resolve_all(
                    predicate.columns(), list(left_columns) + list(right_columns)
                )
                if predicate_columns is None:
                    resolvable = False
                else:
                    needed |= predicate_columns
            if resolvable:
                left_lower = {name.lower() for name in left_columns}
                right_lower = {name.lower() for name in right_columns}
                if not (left_lower & right_lower):
                    left_required = {n for n in needed if n in left_lower}
                    right_required = {n for n in needed if n in right_lower}
                    unattributed = needed - left_required - right_required
                    if unattributed:
                        left_required = right_required = None
        left = _prune(plan.left, left_required, catalog)
        right = _prune(plan.right, right_required, catalog)
        if isinstance(plan, algebra.Join):
            return algebra.Join(left, right, plan.predicate)
        return algebra.CrossProduct(left, right)

    # Aggregation weights, duplicate elimination, set operations and LIMIT all
    # observe whole rows (or non-additive annotation weights), so nothing may
    # be pruned beneath them.
    return _map_children(plan, lambda child: _prune(child, None, catalog))


# ---------------------------------------------------------------------------
# Order-by elimination.
# ---------------------------------------------------------------------------

def drop_redundant_orderby(plan: algebra.Operator) -> algebra.Operator:
    """Remove OrderBy nodes whose ordering no Limit consumes (identity ops)."""
    if isinstance(plan, algebra.Limit) and isinstance(plan.child, algebra.OrderBy):
        inner = drop_redundant_orderby(plan.child.child)
        return algebra.Limit(algebra.OrderBy(inner, plan.child.keys), plan.count)
    if isinstance(plan, algebra.OrderBy):
        return drop_redundant_orderby(plan.child)
    return _map_children(plan, drop_redundant_orderby)


# ---------------------------------------------------------------------------
# Cost-based join reordering.
# ---------------------------------------------------------------------------

#: A greedy order must beat the written order's estimated intermediate-row
#: total by this factor before it replaces the plan (hysteresis against
#: churn on estimation noise).
REORDER_GAIN = 0.95


def reorder_joins(plan: algebra.Operator,
                  catalog: Optional[DatabaseSchema],
                  stats: Any) -> algebra.Operator:
    """Greedily reorder join trees using cardinality estimates.

    Every maximal :class:`~repro.db.algebra.Join` /
    :class:`~repro.db.algebra.CrossProduct` tree with at least three inputs
    is flattened into its inputs and join conjuncts, then rebuilt left-deep
    by repeatedly joining the input that minimizes the estimated
    intermediate cardinality (preferring inputs connected by an applicable
    conjunct, so no new cross products appear).  The rebuilt tree is
    wrapped in a projection restoring the original column order, keeping
    the rewrite invisible to every operator above it.

    The pass is conservative: it requires inferable, unambiguous columns
    for every input, requires every conjunct to resolve over the combined
    scope, and keeps the written order unless the greedy order's estimated
    intermediate-row total is at least :data:`REORDER_GAIN` times smaller.
    Without ``stats`` it is a no-op.
    """
    if stats is None:
        return plan
    return _reorder(plan, catalog, stats)


def _reorder(plan: algebra.Operator,
             catalog: Optional[DatabaseSchema],
             stats: Any) -> algebra.Operator:
    if isinstance(plan, (algebra.Join, algebra.CrossProduct)):
        leaves, conjuncts = _flatten_join_tree(plan, catalog, stats)
        if len(leaves) >= 3:
            rebuilt = _greedy_join_order(leaves, conjuncts, catalog, stats)
            if rebuilt is not None:
                return rebuilt
    return _map_children(plan, lambda child: _reorder(child, catalog, stats))


def _flatten_join_tree(plan: algebra.Operator,
                       catalog: Optional[DatabaseSchema],
                       stats: Any) -> Tuple[List[algebra.Operator], List[Expression]]:
    """Flatten a Join/CrossProduct tree into (inputs, join conjuncts).

    Non-join subtrees become inputs, each recursively reordered first so
    nested join trees (e.g. under subqueries) still benefit.
    """
    if isinstance(plan, algebra.Join):
        left_leaves, left_conjuncts = _flatten_join_tree(plan.left, catalog, stats)
        right_leaves, right_conjuncts = _flatten_join_tree(plan.right, catalog, stats)
        return (left_leaves + right_leaves,
                left_conjuncts + right_conjuncts + _split_predicate(plan.predicate))
    if isinstance(plan, algebra.CrossProduct):
        left_leaves, left_conjuncts = _flatten_join_tree(plan.left, catalog, stats)
        right_leaves, right_conjuncts = _flatten_join_tree(plan.right, catalog, stats)
        return left_leaves + right_leaves, left_conjuncts + right_conjuncts
    return [_reorder(plan, catalog, stats)], []


def _conjunct_applicable(conjunct: Expression, lookup: NameLookup) -> bool:
    columns = conjunct.columns()
    if not columns:
        return False
    return all(lookup.find(column.name, column.qualifier) is not None
               for column in columns)


def _simulate_order(order: Sequence[int],
                    estimates: Sequence[Any],
                    columns: Sequence[Sequence[str]],
                    conjuncts: Sequence[Expression]) -> Optional[float]:
    """Total estimated intermediate rows of joining inputs in ``order``."""
    first = order[0]
    current = estimates[first]
    current_columns = list(columns[first])
    used: Set[int] = set()
    total = current.rows
    for index in order[1:]:
        combined = current_columns + list(columns[index])
        lookup = _name_lookup(combined)
        applicable = [i for i, conjunct in enumerate(conjuncts)
                      if i not in used and _conjunct_applicable(conjunct, lookup)]
        predicate = (conjunction([conjuncts[i] for i in applicable])
                     if applicable else None)
        rows = _cost.join_cardinality(current, estimates[index], predicate)
        used.update(applicable)
        current = _cost.PlanEstimate(
            rows, current.scope.merged(estimates[index].scope))
        current_columns = combined
        total += rows
    return total


def _greedy_join_order(leaves: List[algebra.Operator],
                       conjuncts: List[Expression],
                       catalog: Optional[DatabaseSchema],
                       stats: Any) -> Optional[algebra.Operator]:
    """Rebuild a flattened join tree greedily, or None to keep the original."""
    columns: List[List[str]] = []
    estimates = []
    for leaf in leaves:
        leaf_columns = _plan_columns(leaf, catalog)
        if leaf_columns is None:
            return None
        columns.append(leaf_columns)
        estimates.append(_cost.estimate_plan(leaf, stats))
    all_columns = [name for leaf_columns in columns for name in leaf_columns]
    lowered = [name.lower() for name in all_columns]
    if len(set(lowered)) != len(lowered):
        return None  # duplicate names: conjuncts cannot be reattached safely
    global_lookup = _name_lookup(all_columns)
    if not all(_conjunct_applicable(conjunct, global_lookup)
               for conjunct in conjuncts):
        return None  # a conjunct would dangle (or resolve ambiguously)

    n = len(leaves)
    written_order = list(range(n))
    baseline = _simulate_order(written_order, estimates, columns, conjuncts)

    # Greedy construction: start from the smallest input, then repeatedly
    # join the input minimizing the estimated intermediate size, preferring
    # inputs connected by a join conjunct over cross products.
    remaining = set(range(n))
    start = min(remaining, key=lambda i: (estimates[i].rows, i))
    remaining.discard(start)
    order = [start]
    current = estimates[start]
    current_columns = list(columns[start])
    used: Set[int] = set()
    total = current.rows
    while remaining:
        best = None
        for index in sorted(remaining):
            combined = current_columns + list(columns[index])
            lookup = _name_lookup(combined)
            applicable = [i for i, conjunct in enumerate(conjuncts)
                          if i not in used
                          and _conjunct_applicable(conjunct, lookup)]
            predicate = (conjunction([conjuncts[i] for i in applicable])
                         if applicable else None)
            rows = _cost.join_cardinality(current, estimates[index], predicate)
            key = (0 if applicable else 1, rows, index)
            if best is None or key < best[0]:
                best = (key, index, applicable, rows)
        _, index, applicable, rows = best
        remaining.discard(index)
        order.append(index)
        used.update(applicable)
        current = _cost.PlanEstimate(
            rows, current.scope.merged(estimates[index].scope))
        current_columns = current_columns + list(columns[index])
        total += rows

    if order == written_order:
        return None
    if baseline is None or total >= baseline * REORDER_GAIN:
        return None

    # Rebuild the tree in the chosen order, reattaching each conjunct at
    # the lowest join where it resolves.
    rebuilt = leaves[order[0]]
    rebuilt_columns = list(columns[order[0]])
    used = set()
    for index in order[1:]:
        rebuilt_columns = rebuilt_columns + list(columns[index])
        lookup = _name_lookup(rebuilt_columns)
        applicable = [i for i, conjunct in enumerate(conjuncts)
                      if i not in used and _conjunct_applicable(conjunct, lookup)]
        used.update(applicable)
        if applicable:
            rebuilt = algebra.Join(
                rebuilt, leaves[index],
                conjunction([conjuncts[i] for i in applicable]))
        else:
            rebuilt = algebra.CrossProduct(rebuilt, leaves[index])
    leftover = [conjunct for i, conjunct in enumerate(conjuncts) if i not in used]
    if leftover:  # unreachable given the global applicability check
        rebuilt = algebra.Selection(rebuilt, conjunction(leftover))

    # Restore the original column order so the rewrite stays invisible.
    return algebra.Projection(
        rebuilt, tuple((_column_ref(name), name) for name in all_columns))
