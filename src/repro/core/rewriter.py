"""The Figure 8/9 query rewriting over the ``Enc`` encoding.

Given an RA+ plan ``Q`` over a UA-database, :func:`rewrite_plan` produces a
plan ``[[Q]]_UA`` over the encoded database (plain relations with an extra
``C`` column) such that::

    Q(D_UA)  ==  Enc⁻¹( [[Q]]_UA ( Enc(D_UA) ) )          (Theorem 7)

Rewrite rules:

* ``[[R]]``           -> ``R`` (already encoded),
* ``[[sigma_theta(Q)]]`` -> ``sigma_theta([[Q]])``,
* ``[[pi_A(Q)]]``     -> ``pi_{A, C}([[Q]])``,
* ``[[Q1 join Q2]]``  -> ``pi_{sch, min(C1, C2) -> C}([[Q1]] join [[Q2]])``,
* ``[[Q1 union Q2]]`` -> ``[[Q1]] union [[Q2]]``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.db import algebra
from repro.db.expressions import (
    And, Column, Comparison, Expression, FunctionCall, IsNull, Literal, Or,
)
from repro.db.schema import DatabaseSchema
from repro.core.encoding import CERTAINTY_COLUMN


class RewriteError(ValueError):
    """Raised when a plan contains operators outside the rewritable fragment."""


def rewrite_plan(plan: algebra.Operator,
                 catalog: Optional[DatabaseSchema] = None) -> algebra.Operator:
    """Rewrite an RA+ plan into its UA-encoded form (Figure 9).

    ``catalog`` should describe the *encoded* database (relations already
    carrying the ``C`` column); it is used to expand projections over base
    relations when needed, but is optional for the supported operators.
    """
    rewriter = _Rewriter(catalog)
    rewritten, markers = rewriter.rewrite(plan)
    # The final result must expose exactly one certainty column named ``C`` so
    # that the Enc⁻¹ decoding applies; normalize if a trailing join left more
    # than one marker in the schema.
    return rewriter._normalize_markers(rewritten, markers)


def _result_schema_name(plan: algebra.Operator) -> Optional[str]:
    """The name of the relation schema ``plan`` evaluates to (mirrors the evaluator)."""
    if isinstance(plan, algebra.RelationRef):
        return plan.alias or plan.name
    if isinstance(plan, algebra.Qualify):
        return plan.qualifier
    if isinstance(plan, (algebra.Join, algebra.CrossProduct)):
        left = _result_schema_name(plan.left)
        right = _result_schema_name(plan.right)
        if left is None or right is None:
            return None
        return f"{left}_{right}"
    if isinstance(plan, algebra.Union):
        return _result_schema_name(plan.left)
    children = plan.children()
    if len(children) == 1:
        return _result_schema_name(children[0])
    return None


class _Rewriter:
    def __init__(self, catalog: Optional[DatabaseSchema]) -> None:
        self.catalog = catalog

    def rewrite(self, plan: algebra.Operator) -> Tuple[algebra.Operator, List[str]]:
        """Return the rewritten plan and the names of certainty columns it exposes."""
        if isinstance(plan, algebra.RelationRef):
            return plan, [CERTAINTY_COLUMN]
        if isinstance(plan, algebra.Qualify):
            child, markers = self.rewrite(plan.child)
            qualified = algebra.Qualify(child, plan.qualifier)
            return qualified, [f"{plan.qualifier}.{m.split('.')[-1]}" for m in markers]
        if isinstance(plan, algebra.Selection):
            child, markers = self.rewrite(plan.child)
            return algebra.Selection(child, plan.predicate), markers
        if isinstance(plan, algebra.Projection):
            child, markers = self.rewrite(plan.child)
            certainty = self._certainty_expression(markers)
            items = tuple(plan.items) + ((certainty, CERTAINTY_COLUMN),)
            return algebra.Projection(child, items), [CERTAINTY_COLUMN]
        if isinstance(plan, (algebra.Join, algebra.CrossProduct)):
            predicate = plan.predicate if isinstance(plan, algebra.Join) else None
            left, left_markers = self.rewrite(plan.left)
            right, right_markers = self.rewrite(plan.right)
            joined = algebra.Join(left, right, predicate)
            # The joined schema carries both inputs' certainty columns; they
            # are combined lazily (at the next projection) via min().  This
            # mirrors the paper's rewrite, where the projection added for the
            # join computes min(Q1.C, Q2.C) AS C.  Right-side columns whose
            # names collide with a left-side column are disambiguated by the
            # engine's schema concatenation (``<right relation>.<column>``);
            # the right markers must be renamed the same way or the combined
            # certainty expression would read the left marker twice.
            right_markers = self._disambiguated_right_markers(
                left, right, right_markers
            )
            return joined, left_markers + right_markers
        if isinstance(plan, algebra.Union):
            left, left_markers = self.rewrite(plan.left)
            right, right_markers = self.rewrite(plan.right)
            left = self._normalize_markers(left, left_markers)
            right = self._normalize_markers(right, right_markers)
            return algebra.Union(left, right), [CERTAINTY_COLUMN]
        if isinstance(plan, algebra.Distinct):
            child, markers = self.rewrite(plan.child)
            child = self._normalize_markers(child, markers)
            return self._rewrite_distinct(child), [CERTAINTY_COLUMN]
        if isinstance(plan, (algebra.OrderBy,)):
            child, markers = self.rewrite(plan.child)
            return algebra.OrderBy(child, plan.keys), markers
        if isinstance(plan, algebra.Limit):
            return self._rewrite_limit(plan), [CERTAINTY_COLUMN]
        raise RewriteError(
            f"operator {type(plan).__name__} is outside the RA+ fragment supported "
            "by the UA-DB rewriting"
        )

    def _disambiguated_right_markers(self, left: algebra.Operator,
                                     right: algebra.Operator,
                                     right_markers: List[str]) -> List[str]:
        """Rename right-side markers the way schema concatenation would.

        The evaluator prefixes a right-hand column that collides with any
        left-hand column with the right input's relation name.  Without the
        rename, a plan whose two join inputs both expose a bare ``C`` column
        would combine the left marker with itself and over-report certainty.
        """
        from repro.db.sql.translator import infer_columns

        left_columns = infer_columns(left, self.catalog)
        if left_columns is None:
            return right_markers
        left_lower = {name.lower() for name in left_columns}
        right_name = _result_schema_name(right)
        renamed: List[str] = []
        for marker in right_markers:
            if marker.lower() in left_lower and right_name is not None:
                renamed.append(f"{right_name}.{marker}")
            else:
                renamed.append(marker)
        return renamed

    def _rewrite_distinct(self, child: algebra.Operator) -> algebra.Operator:
        """``[[delta(Q)]]``: one fragment per distinct payload row.

        A naive ``delta`` over the encoding is wrong: ``(t, 1)`` and
        ``(t, 0)`` are *distinct encoded rows*, so a tuple with both certain
        and uncertain copies would survive as two fragments and decode to
        ``[1, 2]`` instead of ``delta([c, d]) = [delta(c), delta(d)]`` (found
        by the randomized differential harness, ``tests/differential.py``).
        Group by the payload columns instead, keeping ``MAX(C)``: each
        distinct tuple yields exactly one fragment, annotated ``1_K``
        (gamma's group annotation -- exactly ``delta``'s output), marked
        certain iff *any* of its fragments was.
        """
        group_by = self._payload_columns(child, "DISTINCT")
        certainty = algebra.AggregateFunction(
            "max", self._marker_column(CERTAINTY_COLUMN), CERTAINTY_COLUMN
        )
        return algebra.Aggregate(child, tuple(group_by), (certainty,))

    def _payload_columns(self, plan: algebra.Operator,
                         operator_name: str) -> List[Tuple[Expression, str]]:
        """``(column expression, output name)`` for every non-``C`` column.

        Shared by the DISTINCT and LIMIT rewrites, which both need to
        address the payload (data) columns of an already-normalized encoded
        plan; colliding names from different inputs are disambiguated the
        same way :meth:`_normalize_markers` does.
        """
        from repro.db.sql.translator import infer_columns

        columns = infer_columns(plan, self.catalog)
        if columns is None:
            raise RewriteError(
                f"cannot rewrite {operator_name} without schema information; "
                "pass a catalog describing the encoded relations"
            )
        payload: List[Tuple[Expression, str]] = []
        used_names: set = set()
        for name in columns:
            if name.split(".")[-1].lower() == CERTAINTY_COLUMN.lower():
                continue
            output_name = name.split(".")[-1]
            if output_name.lower() in used_names:
                output_name = name.replace(".", "_")
            used_names.add(output_name.lower())
            payload.append((self._marker_column(name), output_name))
        return payload

    #: Qualifier naming the top-k payload subplan inside the LIMIT rewrite.
    _LIMIT_QUALIFIER = "uadb_limit"

    def _rewrite_limit(self, plan: algebra.Limit) -> algebra.Operator:
        """``[[LIMIT_k(Q)]]``: the top-k *tuples*, with all their fragments.

        A tuple whose annotation is partially certain (``0 < c < d``)
        occupies two rows of the encoding -- ``(t, 1)`` and ``(t, 0)`` -- so
        limiting the encoded relation directly counts fragments, not tuples,
        and returns fewer payload rows than the direct K_UA evaluation
        (found by the randomized differential harness).  Rewrite instead as

            T = LIMIT_k(ORDER BY keys(delta(pi_payload([[Q]]))))
            [[LIMIT_k(Q)]] = pi_{payload, C}([[Q]] join T on payload)

        ``T`` picks the same k tuples the direct evaluation picks (same sort
        keys over the same payload rows); the join -- null-safe, NULL payload
        values must match themselves -- then recovers every fragment of each
        chosen tuple, and delta-annotations of 1 leave the fragment
        multiplicities untouched.
        """
        child = plan.child
        keys: Tuple = ()
        if isinstance(child, algebra.OrderBy):
            keys = child.keys
            child = child.child
        inner, markers = self.rewrite(child)
        inner = self._normalize_markers(inner, markers)
        payload = self._payload_columns(inner, "LIMIT")
        top: algebra.Operator = algebra.Distinct(
            algebra.Projection(inner, tuple(payload))
        )
        if keys:
            top = algebra.OrderBy(top, keys)
        top = algebra.Qualify(
            algebra.Limit(top, plan.count), self._LIMIT_QUALIFIER
        )
        matches = [
            Or(
                Comparison("=", Column(name), Column(name, qualifier=self._LIMIT_QUALIFIER)),
                And(IsNull(Column(name)),
                    IsNull(Column(name, qualifier=self._LIMIT_QUALIFIER))),
            )
            for _, name in payload
        ]
        joined = algebra.Join(inner, top, And(*matches) if matches else None)
        items = tuple(
            [(Column(name), name) for _, name in payload]
            + [(Column(CERTAINTY_COLUMN), CERTAINTY_COLUMN)]
        )
        return algebra.Projection(joined, items)

    def _certainty_expression(self, markers: List[str]) -> Expression:
        """Combine certainty columns of the inputs: ``min(C1, ..., Cn)``."""
        if not markers:
            return Literal(1)
        columns = tuple(self._marker_column(m) for m in markers)
        return columns[0] if len(columns) == 1 else FunctionCall("least", columns)

    @staticmethod
    def _marker_column(marker: str) -> Column:
        if "." in marker:
            qualifier, name = marker.rsplit(".", 1)
            return Column(name, qualifier=qualifier)
        return Column(marker)

    def _normalize_markers(self, plan: algebra.Operator,
                           markers: List[str]) -> algebra.Operator:
        """Ensure the plan exposes exactly one certainty column named ``C``.

        Used before union (whose inputs must be union-compatible) and
        duplicate elimination.  If the plan already exposes a single marker
        named ``C`` it is returned unchanged; otherwise a projection keeping
        all payload columns plus a combined ``C`` is added on top -- which
        requires schema information from the catalog.
        """
        if markers == [CERTAINTY_COLUMN]:
            return plan
        from repro.db.sql.translator import infer_columns

        columns = infer_columns(plan, self.catalog)
        if columns is None:
            raise RewriteError(
                "cannot normalize certainty columns without schema information; "
                "pass a catalog describing the encoded relations"
            )
        marker_set = {m.lower() for m in markers}
        items: List[Tuple[Expression, str]] = []
        used_names: set = set()
        for name in columns:
            if name.lower() in marker_set:
                continue
            output_name = name.split(".")[-1]
            if output_name.lower() in used_names:
                # Disambiguate colliding payload columns from different inputs.
                output_name = name.replace(".", "_")
            used_names.add(output_name.lower())
            items.append((self._marker_column(name), output_name))
        items.append((self._certainty_expression(markers), CERTAINTY_COLUMN))
        return algebra.Projection(plan, tuple(items))
