"""Data cleaning with imputation as a source of uncertainty.

A survey table has missing values.  Imputation proposes several candidate
repairs per dirty row; the alternatives form an x-DB.  Queries over the UA-DB
then return the repaired (best-guess) answer while flagging which result rows
depend on imputed values -- and we compare the UA-DB answer against the
Libkin-style certain-answer under-approximation to show the utility gap the
paper measures in Figure 18.

Run with::

    python examples/data_cleaning_imputation.py
"""

from __future__ import annotations

import random

import repro
from repro.baselines.libkin import libkin_certain_answers
from repro.db.database import Database
from repro.db.relation import bag_relation
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.incomplete import XDatabase
from repro.metrics import precision_recall
from repro.semirings import NATURAL
from repro.workloads.imputation import impute_alternatives

SCHEMA = RelationSchema("survey", [
    Attribute("id", DataType.INTEGER),
    Attribute("age", DataType.INTEGER),
    Attribute("sector", DataType.STRING),
    Attribute("income", DataType.INTEGER),
])

QUERY = "SELECT sector, age FROM survey WHERE income >= 40000"


def generate_rows(count: int, seed: int = 1):
    rng = random.Random(seed)
    sectors = ["services", "manufacturing", "public", "technology"]
    return [
        (i, rng.randrange(20, 70), rng.choice(sectors), rng.randrange(15_000, 110_000, 1000))
        for i in range(count)
    ]


def inject_missing(rows, fraction: float, seed: int = 2):
    rng = random.Random(seed)
    dirty = []
    for row in rows:
        values = list(row)
        for position in (1, 2, 3):
            if rng.random() < fraction:
                values[position] = None
        dirty.append(tuple(values))
    return dirty


def main() -> None:
    ground_rows = generate_rows(300)
    dirty_rows = inject_missing(ground_rows, fraction=0.15)

    # 1. Impute: each dirty row becomes an x-tuple whose alternatives are the
    #    candidate repairs (the first one is the primary imputation).
    alternatives = impute_alternatives(dirty_rows, SCHEMA, max_alternatives=4)
    xdb = XDatabase("survey")
    relation = xdb.create_relation(SCHEMA)
    for options in alternatives:
        if len(options) == 1:
            relation.add_certain(options[0])
        else:
            relation.add_alternatives(options)

    # 2. Query through the UA-DB front-end.
    conn = repro.connect(NATURAL, "survey")
    conn.register_xdb(xdb)
    ua_result = conn.query(QUERY)
    print("Sample of the UA-DB answer:\n")
    print(ua_result.pretty(limit=10))

    # 3. Compare utility against the ground truth and the Libkin baseline.
    ground_db = Database(NATURAL, "ground")
    ground_db.add_relation(bag_relation(SCHEMA, ground_rows))
    truth, _ = libkin_certain_answers(ground_db, QUERY)

    null_db = Database(NATURAL, "nulls")
    null_db.add_relation(bag_relation(SCHEMA, dirty_rows))
    libkin_rows, _ = libkin_certain_answers(null_db, QUERY)

    ua_utility = precision_recall(ua_result.rows(), truth)
    libkin_utility = precision_recall(libkin_rows, truth)
    print("\nUtility against the ground-truth answer:")
    print(f"  UA-DB (best guess): precision={ua_utility.precision:.2f} "
          f"recall={ua_utility.recall:.2f}")
    print(f"  Certain answers only (Libkin): precision={libkin_utility.precision:.2f} "
          f"recall={libkin_utility.recall:.2f}")
    print(f"\n{len(ua_result.certain_rows())} of {len(ua_result)} UA-DB answers "
          "are certain; the rest depend on imputed values.")


if __name__ == "__main__":
    main()
