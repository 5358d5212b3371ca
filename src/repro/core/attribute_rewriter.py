"""Rewrite logical plans into range-propagating plans over attribute encodings.

The tuple-level rewriting (:mod:`repro.core.rewriter`) threads one extra
certainty column through a plan.  This module is its attribute-level
analogue: it compiles a logical RA plan into an ordinary plan over
attribute-encoded relations (see :mod:`repro.core.attribute_bounds`) whose
output rows carry, for every logical column, a ``[lower, best, upper]``
value triple and, per tuple, a ``(m_lb, m_bg, m_ub)`` multiplicity triple.
Because the produced plan is plain relational algebra over plain
annotated relations, every engine -- row, columnar, SQLite-compiled --
and the optimizer evaluate it unchanged.

Internally every rewritten operator normalizes its output to a canonical
column layout ``v0, v0_lb, v0_ub, v1, ..., m_lb, m_bg, m_ub`` via a
projection; the mapping from logical column names (and qualifiers) to
positions travels separately.  That keeps joins, unions and decoding
purely positional.  The final projection alone may be narrower: an output
column proved collapsed is carried once (``AttributeRewrite.widths``).

A relation whose schema is not attribute-encoded is a tuple-level ``Enc``
table, read as the degenerate case: each column its own lower, best and
upper bound, and the certainty column ``C`` the lower multiplicity bound.

Columns that cannot be uncertain compile by their best-guess column alone.
Every column of an ``Enc`` table is one by layout; for attribute-encoded
relations the caller passes the attributes whose every stored range is
collapsed.  Such a column resolves to one expression for lower, best
and upper, so a comparison of two of them is one plain predicate (an
equality join stays an equality join), ``*`` is one product, and the
multiplicity guards vanish where they repeat the filter.  The rule: *a
column may be flagged certain at an operator only if every row reaching
that operator has* ``lb = best = ub`` *or all NULL in it; false is always
safe and yields exactly the general range plan.*  The flag survives
qualification, selection, join and DISTINCT, holds for a projected
expression iff its triple is one expression, for a UNION ALL column iff
both arms have it, and never for an aggregate result.

Soundness contract (checked by the world-enumeration oracle in
``tests/differential.py``):

* every possible world's answer is contained in the produced bounds
  (range containment with ``m_ub`` capacities),
* a tuple with ``m_lb >= 1`` has at least ``m_lb`` in-range matches in
  every world,
* the best-guess components reproduce the best-guess world's answer
  exactly.

Supported fragment: selection / projection / join / union / distinct and
grouping aggregation with SUM / COUNT / MIN / MAX.  Value expressions may
use ``+``, ``-``, ``*``, unary minus, ``least`` / ``greatest`` /
``coalesce``; predicates may use comparisons, ``AND`` / ``OR`` / ``NOT``,
``BETWEEN``, ``IN`` and ``IS [NOT] NULL``.  Anything else raises
:class:`AttributeRewriteError`, which the session surfaces (there is no
tuple-level fallback -- the result types differ).  Aggregation bounds
assume arguments follow the uniform-nullability invariant; mixing NULL
arguments with uncertain group membership can make a world's SUM NULL
while the bounds are numeric, so harness sources keep aggregate argument
columns non-NULL (the AU-DB papers make the same simplification).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, List, Mapping, Optional, Sequence, Tuple

from repro.core.attribute_bounds import (
    LOWER_SUFFIX,
    MULTIPLICITY_COLUMNS,
    UPPER_SUFFIX,
    is_attribute_encoded,
    logical_schema_from_encoded,
)
from repro.core.encoding import CERTAINTY_COLUMN, decoded_schema
from repro.db import algebra
from repro.db.algebra import (
    Aggregate,
    AggregateFunction,
    CrossProduct,
    Distinct,
    Join,
    Operator,
    Projection,
    Qualify,
    RelationRef,
    Selection,
    Union,
)
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
    Literal,
    Negate,
    Not,
    Or,
    Parameter,
)
from repro.db.schema import DatabaseSchema, SchemaError

__all__ = ["AttributeRewrite", "AttributeRewriteError", "rewrite_attribute_plan"]

#: Canonical multiplicity column names of every rewritten operator's output.
M_LB, M_BG, M_UB = "m_lb", "m_bg", "m_ub"

_NULL = Literal(None)
_ZERO = Literal(0)
_ONE = Literal(1)


class AttributeRewriteError(ValueError):
    """The plan or an expression falls outside the attribute-level fragment."""


@dataclass(frozen=True)
class AttributeRewrite:
    """Result of :func:`rewrite_attribute_plan`.

    ``plan`` evaluates over the attribute-encoded database.  ``columns``
    names the logical output columns positionally and ``widths`` gives, in
    the same order (names may repeat), the encoded positions each occupies:
    3 for the canonical ``best, lower, upper`` triple, 1 for a column known
    collapsed, which leaves the plan as its best guess alone.
    ``range_joins`` counts the joins whose possible predicate still tests
    range overlap between the two sides (no engine can hash or index
    those); ``certain_columns`` names the output columns known to be
    collapsed on every row.
    """

    plan: Operator
    columns: Tuple[str, ...]
    range_joins: int = 0
    certain_columns: Tuple[str, ...] = ()
    widths: Tuple[int, ...] = ()


# A logical column visible at some point of the plan: its SQL name, the
# qualifier it resolves under, and whether it cannot be uncertain there.
# Soundness rule for ``certain``: the flag may be true only if every row
# reaching that operator has lb = best = ub, or all NULL, in the column;
# false is always safe and yields exactly the general range plan.
@dataclass(frozen=True)
class _Col:
    name: str
    qualifier: Optional[str]
    certain: bool = False


@dataclass
class _Context:
    """What one rewrite reads (catalog, per-relation certain attributes)
    and what it counts on the way."""

    catalog: DatabaseSchema
    certain: Mapping[str, Collection[str]]
    range_joins: int = 0


def _val(i: int) -> str:
    return f"v{i}"


def _vlb(i: int) -> str:
    return f"v{i}_lb"


def _vub(i: int) -> str:
    return f"v{i}_ub"


def _ge1(expr: Expression) -> Expression:
    return Comparison(">=", expr, _ONE)


def _nullsafe_eq(left: Expression, right: Expression) -> Expression:
    return Or(Comparison("=", left, right), And(IsNull(left), IsNull(right)))


def _least(*args: Expression) -> Expression:
    return FunctionCall("least", tuple(args))


def _greatest(*args: Expression) -> Expression:
    return FunctionCall("greatest", tuple(args))


def _when(condition: Expression, then: Expression,
          otherwise: Optional[Expression]) -> Expression:
    return Case(((condition, then),), otherwise)


def _collapsed(triple: Tuple[Expression, Expression, Expression]) -> bool:
    """One expression three times: the bounds cannot differ on any row."""
    return triple[0] == triple[1] == triple[2]


def _guard(condition: Expression, possible: Expression,
           multiplicity: Expression) -> Expression:
    """``multiplicity`` where ``condition`` holds, else 0 -- evaluated on rows
    already filtered on ``possible``, so a structurally equal condition
    needs no CASE."""
    if condition == possible:
        return multiplicity
    return _when(condition, multiplicity, _ZERO)


class _Compiler:
    """Compiles logical expressions against a canonical column layout.

    ``cols`` lists the logical columns in canonical order; ``sides`` maps
    a column index to the physical qualifier its canonical triple sits
    behind and ``physical`` to its position *within* that side (join
    children number their canonical columns locally from zero).
    """

    def __init__(self, cols: Sequence[_Col],
                 sides: Optional[Sequence[Optional[str]]] = None,
                 physical: Optional[Sequence[int]] = None) -> None:
        self.cols = list(cols)
        self.sides = list(sides) if sides is not None else [None] * len(self.cols)
        self.physical = (list(physical) if physical is not None
                         else list(range(len(self.cols))))
        #: Set when a comparison between the two sides of a join had to
        #: compile to its range form.
        self.range_test_across_sides = False

    def _resolve(self, column: Column) -> int:
        name = column.name.lower()
        if column.qualifier:
            qualifier = column.qualifier.lower()
            matches = [i for i, col in enumerate(self.cols)
                       if col.name.lower() == name and col.qualifier
                       and col.qualifier.lower() == qualifier]
            if not matches:
                matches = [i for i, col in enumerate(self.cols)
                           if col.name.lower() == name and col.qualifier is None]
        else:
            matches = [i for i, col in enumerate(self.cols)
                       if col.name.lower() == name]
        if len(matches) == 1:
            return matches[0]
        kind = "ambiguous" if matches else "unknown"
        raise AttributeRewriteError(
            f"{kind} column reference {column.full_name!r} in attribute rewrite")

    # -- value expressions -> (lower, best, upper) --------------------------

    def value(self, expr: Expression) -> Tuple[Expression, Expression, Expression]:
        """Bound triple of a value expression (interval arithmetic)."""
        if isinstance(expr, Column):
            index = self._resolve(expr)
            side = self.sides[index]
            local = self.physical[index]
            best = Column(_val(local), side)
            if self.cols[index].certain:
                return (best, best, best)
            return (Column(_vlb(local), side), best, Column(_vub(local), side))
        if isinstance(expr, (Literal, Parameter)):
            return (expr, expr, expr)
        if isinstance(expr, Negate):
            low, best, high = self.value(expr.operand)
            return (Negate(high), Negate(best), Negate(low))
        if isinstance(expr, Arithmetic):
            left = self.value(expr.left)
            right = self.value(expr.right)
            if expr.op == "+":
                return (Arithmetic("+", left[0], right[0]),
                        Arithmetic("+", left[1], right[1]),
                        Arithmetic("+", left[2], right[2]))
            if expr.op == "-":
                return (Arithmetic("-", left[0], right[2]),
                        Arithmetic("-", left[1], right[1]),
                        Arithmetic("-", left[2], right[0]))
            if expr.op == "*":
                if _collapsed(left) and _collapsed(right):
                    product = Arithmetic("*", left[1], right[1])
                    return (product, product, product)
                products = tuple(
                    Arithmetic("*", a, b)
                    for a in (left[0], left[2]) for b in (right[0], right[2]))
                return (_least(*products),
                        Arithmetic("*", left[1], right[1]),
                        _greatest(*products))
            raise AttributeRewriteError(
                f"operator {expr.op!r} is outside the attribute-level fragment")
        if isinstance(expr, FunctionCall):
            name = expr.name.lower()
            if name in ("least", "greatest", "coalesce"):
                triples = [self.value(arg) for arg in expr.args]
                builder = {"least": _least, "greatest": _greatest,
                           "coalesce": lambda *a: FunctionCall("coalesce", a)}[name]
                return (builder(*(t[0] for t in triples)),
                        builder(*(t[1] for t in triples)),
                        builder(*(t[2] for t in triples)))
            raise AttributeRewriteError(
                f"function {expr.name!r} is outside the attribute-level fragment")
        raise AttributeRewriteError(
            f"expression {expr.to_sql()} is outside the attribute-level fragment")

    # -- predicates -> (possible, certain, best) ----------------------------

    def predicate(self, expr: Expression) -> Tuple[Expression, Expression, Expression]:
        """Three-valued compilation of a predicate.

        Returns ``(possible, certain, best)``: the predicate may hold in
        some world, holds in every world, and holds in the best-guess
        world, respectively.
        """
        if isinstance(expr, Literal):
            return (expr, expr, expr)
        if isinstance(expr, Comparison):
            return self._comparison(expr)
        if isinstance(expr, And):
            parts = [self.predicate(op) for op in expr.operands]
            return (And(*(p[0] for p in parts)), And(*(p[1] for p in parts)),
                    And(*(p[2] for p in parts)))
        if isinstance(expr, Or):
            parts = [self.predicate(op) for op in expr.operands]
            return (Or(*(p[0] for p in parts)), Or(*(p[1] for p in parts)),
                    Or(*(p[2] for p in parts)))
        if isinstance(expr, Not):
            possible, certain, best = self.predicate(expr.operand)
            return (Not(certain), Not(possible), Not(best))
        if isinstance(expr, IsNull):
            # Nullability is uniform across worlds, so the test is certain.
            _, best, _ = self.value(expr.operand)
            test = IsNull(best, expr.negated)
            return (test, test, test)
        if isinstance(expr, Between):
            return self.predicate(And(
                Comparison("<=", expr.low, expr.operand),
                Comparison("<=", expr.operand, expr.high)))
        if isinstance(expr, InList):
            return self.predicate(Or(*(
                Comparison("=", expr.operand, value) for value in expr.values)))
        raise AttributeRewriteError(
            f"predicate {expr.to_sql()} is outside the attribute-level fragment")

    def _comparison(self, expr: Comparison) -> Tuple[Expression, Expression, Expression]:
        left = self.value(expr.left)
        right = self.value(expr.right)
        l_lb, l_bg, l_ub = left
        r_lb, r_bg, r_ub = right
        best = Comparison(expr.op, l_bg, r_bg)
        if _collapsed(left) and _collapsed(right):
            # The per-world truth: no range form, and none of its Kleene
            # unknowns on operands a plain comparison decides.
            return (best, best, best)
        if len({column.qualifier for column in best.columns()}) > 1:
            self.range_test_across_sides = True
        op = "<>" if expr.op == "!=" else expr.op
        if op in ("<", "<=", ">", ">="):
            if op in (">", ">="):
                flipped = {">": "<", ">=": "<="}[op]
                l_lb, l_ub, r_lb, r_ub = r_lb, r_ub, l_lb, l_ub
                op = flipped
            possible = Comparison(op, l_lb, r_ub)
            certain = Comparison(op, l_ub, r_lb)
            return (possible, certain, best)
        if op == "=":
            possible = And(Comparison("<=", l_lb, r_ub),
                           Comparison("<=", r_lb, l_ub))
            certain = And(Comparison("=", l_lb, r_ub),
                          Comparison("=", l_ub, r_lb))
            return (possible, certain, best)
        if op == "<>":
            certain_eq = And(Comparison("=", l_lb, r_ub),
                             Comparison("=", l_ub, r_lb))
            possible = Not(certain_eq)
            certain = Or(Comparison("<", l_ub, r_lb),
                         Comparison("<", r_ub, l_lb))
            return (possible, certain, best)
        raise AttributeRewriteError(
            f"comparison {expr.op!r} is outside the attribute-level fragment")


# ---------------------------------------------------------------------------
# Operator rewrites.
# ---------------------------------------------------------------------------

def rewrite_attribute_plan(
        plan: Operator, catalog: DatabaseSchema,
        certain: Optional[Mapping[str, Collection[str]]] = None,
) -> AttributeRewrite:
    """Compile a logical plan into a range-propagating physical plan.

    ``catalog`` holds the attribute-encoded or ``Enc``-encoded schemas the
    plan's relation references resolve against.  ``certain`` maps an
    attribute-encoded relation's name to the attributes whose every stored
    range is collapsed (see
    :meth:`AttributeBoundsRelation.certain_attributes`); such a column
    compares, joins and multiplies by its best-guess column alone, as does
    every ``Enc`` column; with nothing known every other column takes the
    general range forms.  Given
    a map, an output column still certain leaves the plan once
    (:attr:`AttributeRewrite.widths`); without one the output is the
    canonical triple layout.  Raises :class:`AttributeRewriteError` when
    the plan uses operators or expressions outside the supported fragment.
    """
    ctx = _Context(catalog, certain or {})
    rewritten, cols = _rewrite(plan, ctx)
    widths = tuple(1 if col.certain and certain is not None else 3
                   for col in cols)
    return AttributeRewrite(
        _carry_once(rewritten, widths), tuple(col.name for col in cols),
        ctx.range_joins, tuple(col.name for col in cols if col.certain), widths)


def _carry_once(plan: Operator, widths: Sequence[int]) -> Operator:
    """Drop the bound columns of the width-1 output columns.  Every rewrite
    ends in a canonical projection, or a UNION ALL of them; the bounds
    equal the best guess on every row, so no two rows become one."""
    if isinstance(plan, Union):
        return Union(_carry_once(plan.left, widths),
                     _carry_once(plan.right, widths))
    dropped = {name for i, width in enumerate(widths) if width == 1
               for name in (_vlb(i), _vub(i))}
    return Projection(plan.child, tuple(
        item for item in plan.items if item[1] not in dropped))


def _rewrite(plan: Operator, ctx: _Context) -> Tuple[Operator, List[_Col]]:
    if isinstance(plan, RelationRef):
        return _rewrite_relation(plan, ctx)
    if isinstance(plan, Qualify):
        child, cols = _rewrite(plan.child, ctx)
        return child, [_Col(col.name, plan.qualifier, col.certain)
                       for col in cols]
    if isinstance(plan, Selection):
        return _rewrite_selection(plan, ctx)
    if isinstance(plan, Projection):
        return _rewrite_projection(plan, ctx)
    if isinstance(plan, (Join, CrossProduct)):
        return _rewrite_join(plan, ctx)
    if isinstance(plan, Union):
        return _rewrite_union(plan, ctx)
    if isinstance(plan, Distinct):
        return _rewrite_distinct(plan, ctx)
    if isinstance(plan, Aggregate):
        return _rewrite_aggregate(plan, ctx)
    raise AttributeRewriteError(
        f"{type(plan).__name__} is outside the attribute-level fragment")


def _mult_items(qualifier: Optional[str] = None) -> List[Tuple[Expression, str]]:
    return [(Column(M_LB, qualifier), M_LB), (Column(M_BG, qualifier), M_BG),
            (Column(M_UB, qualifier), M_UB)]


def _value_items(count: int, qualifier: Optional[str] = None,
                 offset: int = 0) -> List[Tuple[Expression, str]]:
    items: List[Tuple[Expression, str]] = []
    for i in range(count):
        items.append((Column(_val(i), qualifier), _val(offset + i)))
        items.append((Column(_vlb(i), qualifier), _vlb(offset + i)))
        items.append((Column(_vub(i), qualifier), _vub(offset + i)))
    return items


def _rewrite_relation(ref: RelationRef,
                      ctx: _Context) -> Tuple[Operator, List[_Col]]:
    try:
        encoded = ctx.catalog.get(ref.name)
    except SchemaError as exc:
        raise AttributeRewriteError(str(exc)) from exc
    items: List[Tuple[Expression, str]] = []
    if is_attribute_encoded(encoded):
        logical = logical_schema_from_encoded(encoded)
        for i, attribute in enumerate(logical.attributes):
            items.append((Column(attribute.name), _val(i)))
            items.append((Column(attribute.name + LOWER_SUFFIX), _vlb(i)))
            items.append((Column(attribute.name + UPPER_SUFFIX), _vub(i)))
        multiplicity: List[Expression] = [
            Column(marker) for marker in MULTIPLICITY_COLUMNS]
        known = ctx.certain.get(encoded.name, ())
    else:
        # A tuple-level ``Enc`` table is the degenerate case: every range
        # collapses to the stored value, and a row ``(t, C)`` of annotation
        # ``n`` is ``n`` fragments of multiplicity ``(C, 1, 1)``, which sum
        # to ``from_ua_relation``'s ``(certain, det, det)``.
        try:
            logical = decoded_schema(encoded)
        except ValueError as exc:
            raise AttributeRewriteError(
                f"relation {ref.name!r} is neither attribute- nor "
                f"Enc-encoded") from exc
        for i, attribute in enumerate(logical.attributes):
            items.extend((Column(attribute.name), name)
                         for name in (_val(i), _vlb(i), _vub(i)))
        multiplicity = [Column(CERTAINTY_COLUMN), _ONE, _ONE]
        known = logical.attribute_names
    items.extend(zip(multiplicity, (M_LB, M_BG, M_UB)))
    plan = Projection(RelationRef(ref.name), tuple(items))
    qualifier = ref.effective_name
    cols = [_Col(attribute.name, qualifier, attribute.name in known)
            for attribute in logical.attributes]
    return plan, cols


def _rewrite_selection(node: Selection,
                       ctx: _Context) -> Tuple[Operator, List[_Col]]:
    child, cols = _rewrite(node.child, ctx)
    possible, certain, best = _Compiler(cols).predicate(node.predicate)
    items = _value_items(len(cols))
    items.append((_guard(certain, possible, Column(M_LB)), M_LB))
    items.append((_guard(best, possible, Column(M_BG)), M_BG))
    items.append((Column(M_UB), M_UB))
    return Projection(Selection(child, possible), tuple(items)), cols


def _rewrite_projection(node: Projection,
                        ctx: _Context) -> Tuple[Operator, List[_Col]]:
    child, cols = _rewrite(node.child, ctx)
    compiler = _Compiler(cols)
    items: List[Tuple[Expression, str]] = []
    out_cols: List[_Col] = []
    for index, (expr, name) in enumerate(node.items):
        low, best, high = triple = compiler.value(expr)
        items.append((best, _val(index)))
        items.append((low, _vlb(index)))
        items.append((high, _vub(index)))
        out_cols.append(_Col(name, None, _collapsed(triple)))
    items.extend(_mult_items())
    return Projection(child, tuple(items)), out_cols


def _rewrite_join(node: "Join | CrossProduct",
                  ctx: _Context) -> Tuple[Operator, List[_Col]]:
    left, lcols = _rewrite(node.left, ctx)
    right, rcols = _rewrite(node.right, ctx)
    cols = lcols + rcols
    sides = ["__l"] * len(lcols) + ["__r"] * len(rcols)
    physical = list(range(len(lcols))) + list(range(len(rcols)))
    compiler = _Compiler(cols, sides, physical)
    predicate = node.predicate if isinstance(node, Join) else None
    lm = [Column(M_LB, "__l"), Column(M_BG, "__l"), Column(M_UB, "__l")]
    rm = [Column(M_LB, "__r"), Column(M_BG, "__r"), Column(M_UB, "__r")]
    products = [Arithmetic("*", a, b) for a, b in zip(lm, rm)]
    if predicate is None:
        joined = Join(Qualify(left, "__l"), Qualify(right, "__r"), None)
        mult = list(zip(products, (M_LB, M_BG, M_UB)))
    else:
        possible, certain, best = compiler.predicate(predicate)
        if compiler.range_test_across_sides:
            ctx.range_joins += 1
        joined = Join(Qualify(left, "__l"), Qualify(right, "__r"), possible)
        mult = [(_guard(certain, possible, products[0]), M_LB),
                (_guard(best, possible, products[1]), M_BG),
                (products[2], M_UB)]
    items = (_value_items(len(lcols), "__l")
             + _value_items(len(rcols), "__r", offset=len(lcols))
             + mult)
    return Projection(joined, tuple(items)), cols


def _rewrite_union(node: Union,
                   ctx: _Context) -> Tuple[Operator, List[_Col]]:
    left, lcols = _rewrite(node.left, ctx)
    right, rcols = _rewrite(node.right, ctx)
    if len(lcols) != len(rcols):
        raise AttributeRewriteError(
            f"UNION arms have different arity ({len(lcols)} vs {len(rcols)})")
    return Union(left, right), [
        _Col(lcol.name, None, lcol.certain and rcol.certain)
        for lcol, rcol in zip(lcols, rcols)]


def _rewrite_distinct(node: Distinct,
                      ctx: _Context) -> Tuple[Operator, List[_Col]]:
    child, cols = _rewrite(node.child, ctx)
    count = len(cols)
    # Group fragments by their best-guess row; the output tuple spans the
    # group's range hull, so every world tuple a member fragment can
    # produce stays covered.
    group_by = tuple((Column(_val(i)), _val(i)) for i in range(count))
    collapsed = And(*(
        _nullsafe_eq(Column(_vlb(i)), Column(_vub(i))) for i in range(count))) \
        if count else Literal(True)
    certainly_present = And(collapsed, _ge1(Column(M_LB)))
    aggregates: List[AggregateFunction] = []
    for i in range(count):
        aggregates.append(AggregateFunction("min", Column(_vlb(i)), _vlb(i)))
        aggregates.append(AggregateFunction("max", Column(_vub(i)), _vub(i)))
    aggregates.append(AggregateFunction(
        "sum", _when(certainly_present, _ONE, _ZERO), "s_cert"))
    aggregates.append(AggregateFunction("sum", Column(M_BG), "s_bg"))
    aggregates.append(AggregateFunction("sum", Column(M_UB), "s_ub"))
    grouped = Aggregate(child, group_by, tuple(aggregates))
    # A hull wider than its certainly present collapsed member would hide
    # that member's certainty: such a group also emits the member itself,
    # (v, v, v) with m = (1, 1, 1), and the hull beside it is only possible.
    # Columns known collapsed cannot widen a hull.
    open_hull = [Not(_nullsafe_eq(Column(_vlb(i)), Column(_vub(i))))
                 for i, col in enumerate(cols) if not col.certain]
    split = And(_ge1(Column("s_cert")), Or(*open_hull)) if open_hull else None
    items = _value_items(count)
    for flag, name in ((_ge1(Column("s_cert")), M_LB),
                       (_ge1(Column("s_bg")), M_BG)):
        branches = ((flag, _ONE),) if split is None else \
            ((split, _ZERO), (flag, _ONE))
        items.append((Case(branches, _ZERO), name))
    items.append((Column("s_ub"), M_UB))
    hull = Projection(grouped, tuple(items))
    if split is None:
        return hull, cols
    member = [(Column(_val(i)), name) for i in range(count)
              for name in (_val(i), _vlb(i), _vub(i))]
    member += [(_ONE, M_LB), (_ONE, M_BG), (_ONE, M_UB)]
    return Union(hull, Projection(Selection(grouped, split),
                                  tuple(member))), cols


# -- aggregation -------------------------------------------------------------

def _rewrite_aggregate(node: Aggregate,
                       ctx: _Context) -> Tuple[Operator, List[_Col]]:
    child, ccols = _rewrite(node.child, ctx)
    compiler = _Compiler(ccols)
    n_groups = len(node.group_by)

    # Stage A: materialize group-key and argument bound triples.
    items: List[Tuple[Expression, str]] = []
    for i, (expr, _name) in enumerate(node.group_by):
        low, best, high = compiler.value(expr)
        items += [(best, f"g{i}"), (low, f"g{i}_lb"), (high, f"g{i}_ub")]
    for j, aggregate in enumerate(node.aggregates):
        if aggregate.func.lower() == "avg":
            raise AttributeRewriteError(
                "AVG is outside the attribute-level fragment (its bounds "
                "are not expressible with linear aggregates)")
        if aggregate.argument is not None:
            low, best, high = compiler.value(aggregate.argument)
            items += [(best, f"x{j}"), (low, f"x{j}_lb"), (high, f"x{j}_ub")]
    items.extend(_mult_items())
    source = Projection(child, tuple(items))

    if n_groups == 0:
        return _scalar_aggregate(node, source)
    return _grouped_aggregate(node, source, n_groups)


def _scalar_aggregate(node: Aggregate,
                      source: Operator) -> Tuple[Operator, List[_Col]]:
    certain = _ge1(Column(M_LB))
    bg_member = _ge1(Column(M_BG))
    aggregates, finals = _aggregate_specs(node.aggregates, certain, bg_member, None)
    aggregates.append(AggregateFunction("sum", Column(M_LB), "s_lb"))
    aggregates.append(AggregateFunction("sum", Column(M_BG), "s_bg"))
    aggregates.append(AggregateFunction("sum", Column(M_UB), "s_ub"))
    grouped = Aggregate(source, (), tuple(aggregates))
    items: List[Tuple[Expression, str]] = []
    out_cols: List[_Col] = []
    for j, aggregate in enumerate(node.aggregates):
        low, best, high = finals[j]
        items += [(best, _val(j)), (low, _vlb(j)), (high, _vub(j))]
        out_cols.append(_Col(aggregate.name, None))
    items.append((_when(_ge1(Column("s_lb")), _ONE, _ZERO), M_LB))
    items.append((_when(_ge1(Column("s_bg")), _ONE, _ZERO), M_BG))
    items.append((_when(_ge1(Column("s_ub")), _ONE, _ZERO), M_UB))
    return Projection(grouped, tuple(items)), out_cols


def _grouped_aggregate(node: Aggregate, source: Operator,
                       n_groups: int) -> Tuple[Operator, List[_Col]]:
    # Stage B: one row per best-guess group key, with the range hull of
    # every member fragment's key ranges.
    hull_aggs: List[AggregateFunction] = []
    for i in range(n_groups):
        hull_aggs.append(AggregateFunction("min", Column(f"g{i}_lb"), f"h{i}_lb"))
        hull_aggs.append(AggregateFunction("max", Column(f"g{i}_ub"), f"h{i}_ub"))
    hull = Aggregate(source,
                     tuple((Column(f"g{i}"), f"g{i}") for i in range(n_groups)),
                     tuple(hull_aggs))

    # Stage C: candidate join -- every fragment whose key ranges overlap a
    # hull may contribute to world groups keyed inside that hull.
    overlap = And(*(
        Or(And(Comparison("<=", Column(f"g{i}_lb", "__e"), Column(f"h{i}_ub", "__k")),
               Comparison("<=", Column(f"h{i}_lb", "__k"), Column(f"g{i}_ub", "__e"))),
           And(IsNull(Column(f"g{i}_lb", "__e")), IsNull(Column(f"h{i}_lb", "__k"))))
        for i in range(n_groups)))
    joined = Join(Qualify(hull, "__k"), Qualify(source, "__e"), overlap)

    # A fragment certainly contributes to *this* group when its key is
    # collapsed, the hull is collapsed, both coincide, and it certainly
    # exists.  (Weaker conditions are unsound: one output tuple can cover
    # several world groups.)
    certain = And(*(
        And(_nullsafe_eq(Column(f"g{i}_lb", "__e"), Column(f"g{i}_ub", "__e")),
            _nullsafe_eq(Column(f"h{i}_lb", "__k"), Column(f"h{i}_ub", "__k")),
            _nullsafe_eq(Column(f"g{i}_lb", "__e"), Column(f"h{i}_lb", "__k")))
        for i in range(n_groups)), _ge1(Column(M_LB, "__e")))
    bg_member = And(*(
        _nullsafe_eq(Column(f"g{i}", "__e"), Column(f"g{i}", "__k"))
        for i in range(n_groups)), _ge1(Column(M_BG, "__e")))

    aggregates, finals = _aggregate_specs(node.aggregates, certain, bg_member, "__e")
    aggregates.append(AggregateFunction(
        "sum", _when(certain, Column(M_LB, "__e"), _ZERO), "s_lb"))
    aggregates.append(AggregateFunction(
        "sum", _when(bg_member, Column(M_BG, "__e"), _ZERO), "s_bg"))
    aggregates.append(AggregateFunction("sum", Column(M_UB, "__e"), "s_ub"))
    group_by: List[Tuple[Expression, str]] = []
    for i in range(n_groups):
        group_by.append((Column(f"g{i}", "__k"), f"g{i}"))
        group_by.append((Column(f"h{i}_lb", "__k"), f"h{i}_lb"))
        group_by.append((Column(f"h{i}_ub", "__k"), f"h{i}_ub"))
    grouped = Aggregate(joined, tuple(group_by), tuple(aggregates))

    items: List[Tuple[Expression, str]] = []
    out_cols: List[_Col] = []
    for i, (_expr, name) in enumerate(node.group_by):
        items += [(Column(f"g{i}"), _val(i)),
                  (Column(f"h{i}_lb"), _vlb(i)),
                  (Column(f"h{i}_ub"), _vub(i))]
        out_cols.append(_Col(name, None))
    for j, aggregate in enumerate(node.aggregates):
        low, best, high = finals[j]
        index = n_groups + j
        items += [(best, _val(index)), (low, _vlb(index)), (high, _vub(index))]
        out_cols.append(_Col(aggregate.name, None))
    items.append((_when(_ge1(Column("s_lb")), _ONE, _ZERO), M_LB))
    items.append((_when(_ge1(Column("s_bg")), _ONE, _ZERO), M_BG))
    items.append((Column("s_ub"), M_UB))
    return Projection(grouped, tuple(items)), out_cols


def _aggregate_specs(
    functions: Sequence[AggregateFunction], certain: Expression,
    bg_member: Expression, qualifier: Optional[str],
) -> Tuple[List[AggregateFunction],
           List[Tuple[Expression, Expression, Expression]]]:
    """Helper aggregates plus final bound triples for every aggregate.

    The returned ``AggregateFunction`` list computes intermediate columns
    over the candidate rows of one group; ``finals[j]`` are expressions
    over those columns producing the ``(lower, best, upper)`` triple of
    aggregate ``j``.
    """
    m_lb = Column(M_LB, qualifier)
    m_bg = Column(M_BG, qualifier)
    m_ub = Column(M_UB, qualifier)
    aggregates: List[AggregateFunction] = []
    finals: List[Tuple[Expression, Expression, Expression]] = []
    for j, aggregate in enumerate(functions):
        func = aggregate.func.lower()
        best_col = Column(f"x{j}", qualifier)
        low_col = Column(f"x{j}_lb", qualifier)
        high_col = Column(f"x{j}_ub", qualifier)
        if func == "count":
            if aggregate.argument is None:
                low = _when(certain, m_lb, _ZERO)
                best = _when(bg_member, m_bg, _ZERO)
                high = m_ub
            else:
                present = _when(IsNull(best_col), _ZERO, _ONE)
                low = _when(certain, Arithmetic("*", m_lb, present), _ZERO)
                best = _when(bg_member, Arithmetic("*", m_bg, present), _ZERO)
                high = Arithmetic("*", m_ub, present)
            aggregates.append(AggregateFunction("sum", low, f"a{j}_lb"))
            aggregates.append(AggregateFunction("sum", best, f"a{j}"))
            aggregates.append(AggregateFunction("sum", high, f"a{j}_ub"))
            finals.append((Column(f"a{j}_lb"), Column(f"a{j}"), Column(f"a{j}_ub")))
        elif func == "sum":
            corners = tuple(Arithmetic("*", m, x)
                            for m in (m_lb, m_ub) for x in (low_col, high_col))
            uncertain_corners = (Arithmetic("*", m_ub, low_col),
                                 Arithmetic("*", m_ub, high_col))
            low = Case(((certain, _least(*corners)),
                        (IsNull(best_col), _NULL)),
                       _least(_ZERO, *uncertain_corners))
            high = Case(((certain, _greatest(*corners)),
                         (IsNull(best_col), _NULL)),
                        _greatest(_ZERO, *uncertain_corners))
            best = _when(bg_member, Arithmetic("*", m_bg, best_col), _NULL)
            aggregates.append(AggregateFunction("sum", low, f"a{j}_lb"))
            aggregates.append(AggregateFunction("sum", best, f"a{j}"))
            aggregates.append(AggregateFunction("sum", high, f"a{j}_ub"))
            # A group can exist in some world yet have no best-guess member
            # (every contributing fragment has m_bg = 0 or a different
            # best-guess group); its best-guess sum is then NULL while the
            # bounds are numeric, which would break the range invariant.
            # Fall back to zero clamped into [lb, ub] (no best-guess member
            # implies no certain member, so the bounds straddle zero);
            # all-NULL argument groups keep a uniformly NULL triple.
            clamp = Case(((IsNull(Column(f"a{j}_lb")), _NULL),),
                         _greatest(Column(f"a{j}_lb"),
                                   _least(Column(f"a{j}_ub"), _ZERO)))
            finals.append((
                Column(f"a{j}_lb"),
                FunctionCall("coalesce", (Column(f"a{j}"), clamp)),
                Column(f"a{j}_ub"),
            ))
        elif func == "min":
            aggregates.append(AggregateFunction("min", low_col, f"a{j}_lb"))
            aggregates.append(AggregateFunction(
                "min", _when(certain, high_col, _NULL), f"t{j}_cert"))
            aggregates.append(AggregateFunction("max", high_col, f"t{j}_any"))
            aggregates.append(AggregateFunction(
                "min", _when(bg_member, best_col, _NULL), f"a{j}"))
            # No best-guess member in the group -> NULL best guess; fall
            # back to the lower bound (a legal value of a world where the
            # group does exist).  All-NULL groups stay uniformly NULL.
            finals.append((
                Column(f"a{j}_lb"),
                FunctionCall("coalesce", (Column(f"a{j}"), Column(f"a{j}_lb"))),
                FunctionCall("coalesce", (Column(f"t{j}_cert"), Column(f"t{j}_any"))),
            ))
        elif func == "max":
            aggregates.append(AggregateFunction("max", high_col, f"a{j}_ub"))
            aggregates.append(AggregateFunction(
                "max", _when(certain, low_col, _NULL), f"t{j}_cert"))
            aggregates.append(AggregateFunction("min", low_col, f"t{j}_any"))
            aggregates.append(AggregateFunction(
                "max", _when(bg_member, best_col, _NULL), f"a{j}"))
            # Symmetric to MIN: a bg-memberless group falls back to the
            # upper bound to keep lower <= best <= upper.
            finals.append((
                FunctionCall("coalesce", (Column(f"t{j}_cert"), Column(f"t{j}_any"))),
                FunctionCall("coalesce", (Column(f"a{j}"), Column(f"a{j}_ub"))),
                Column(f"a{j}_ub"),
            ))
        else:  # pragma: no cover - AVG already rejected during stage A
            raise AttributeRewriteError(
                f"aggregate {aggregate.func!r} is outside the attribute-level fragment")
    return aggregates, finals
