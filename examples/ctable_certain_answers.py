"""C-tables: cheap UA-DB labels versus exact certain answers.

This example builds a small C-table database (tuples whose values and
presence depend on variables), queries it through the UA-DB front-end, and
contrasts the (c-sound, sometimes incomplete) UA-DB labeling with the exact
certain answers computed by symbolic evaluation plus tautology checking --
the trade-off Figure 10 of the paper quantifies.

Run with::

    python examples/ctable_certain_answers.py
"""

from __future__ import annotations

import repro
from repro.baselines.ctables_exact import CTableQueryEvaluator
from repro.db.sql import parse_query
from repro.db.schema import RelationSchema
from repro.incomplete import CTableDatabase, Variable
from repro.incomplete.conditions import ComparisonAtom
from repro.semirings import NATURAL


def build_inventory_ctable() -> CTableDatabase:
    """An inventory whose warehouse assignment depends on unresolved variables."""
    warehouse = Variable("warehouse")   # which site received the late shipment
    audit = Variable("audit")           # whether the audit confirmed item 104

    database = CTableDatabase("inventory")
    database.set_domain(warehouse, ["north", "south"])
    database.set_domain(audit, [0, 1])

    items = database.create_relation(
        RelationSchema("items", ["item_id", "product", "site"])
    )
    # Certain stock.
    items.add_tuple((101, "widget", "north"))
    items.add_tuple((102, "gadget", "south"))
    # The late shipment went to whichever site the variable resolves to.
    items.add_tuple((103, "widget", warehouse))
    # Item 104 exists only if the audit confirms it.
    items.add_tuple((104, "gizmo", "north"), ComparisonAtom("=", audit, 1))
    # Item 105 is recorded twice with complementary conditions -- it is
    # certain, but its local conditions are not individually tautologies.
    items.add_tuple((105, "cable", "north"), ComparisonAtom("=", audit, 1))
    items.add_tuple((105, "cable", "north"), ComparisonAtom("!=", audit, 1))
    return database


QUERY = "SELECT item_id, product FROM items WHERE site = 'north'"


def main() -> None:
    database = build_inventory_ctable()

    # UA-DB path: best-guess world + c-sound labeling, then ordinary SQL.
    conn = repro.connect(NATURAL, "inventory")
    conn.register_ctable(database)
    ua_result = conn.query(QUERY)
    print("UA-DB answer (lightweight, PTIME labels):\n")
    print(ua_result.pretty())

    # Exact path: symbolic evaluation + tautology checking per result tuple.
    plan = parse_query(QUERY, conn.catalog)
    evaluator = CTableQueryEvaluator(database)
    exact, elapsed = evaluator.certain_answers(plan)
    print(f"\nExact certain answers (symbolic evaluation, {elapsed * 1000:.1f} ms):")
    for row in sorted(exact):
        print(f"  {row}")

    labeled = set(ua_result.certain_rows())
    missed = [row for row in exact if row not in labeled]
    print("\nThe UA-DB labeling is c-sound: everything it marks certain is certain.")
    if missed:
        print("It under-approximates, missing the certain answers "
              f"{missed} (cf. Example 9 in the paper) -- the price of staying "
              "as fast as deterministic query processing.")


if __name__ == "__main__":
    main()
