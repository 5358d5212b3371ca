"""Quickstart: build a UA-DB from an uncertain table and query it with SQL.

The scenario is the paper's running example (Section 1): street addresses
whose geocodings are ambiguous are joined against a lookup table of
neighborhoods.  The UA-DB returns the best-guess answer for every address and
marks the answers that are certain (hold no matter how the ambiguity is
resolved).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.db.schema import RelationSchema
from repro.incomplete import XDatabase
from repro.semirings import NATURAL


def build_geocoding_xdb() -> XDatabase:
    """The ADDR / LOC tables of Figure 2 as an x-DB (block-independent DB)."""
    xdb = XDatabase("geo")

    addresses = xdb.create_relation(RelationSchema("ADDR", ["id", "address", "geocoded"]))
    addresses.add_certain((1, "51 Comstock", (42.93, -78.81)))
    # The geocoder returned two candidate locations for this address.
    addresses.add_alternatives([
        (2, "Grant at Ferguson", (42.91, -78.89)),
        (2, "Grant at Ferguson", (32.25, -110.87)),
    ])
    addresses.add_alternatives([
        (3, "499 Woodlawn", (42.91, -78.84)),
        (3, "499 Woodlawn", (42.90, -78.85)),
    ])
    addresses.add_certain((4, "192 Davidson", (42.93, -78.80)))

    neighborhoods = xdb.create_relation(RelationSchema("LOC", ["locale", "state", "rect"]))
    neighborhoods.add_certain(("Lasalle", "NY", ((42.93, -78.83), (42.95, -78.81))))
    neighborhoods.add_certain(("Tucson", "AZ", ((31.99, -111.045), (32.32, -110.71))))
    neighborhoods.add_certain(("Grant Ferry", "NY", ((42.91, -78.91), (42.92, -78.88))))
    neighborhoods.add_certain(("Kingsley", "NY", ((42.90, -78.85), (42.91, -78.84))))
    neighborhoods.add_certain(("Kensington", "NY", ((42.93, -78.81), (42.96, -78.78))))
    return xdb


def main() -> None:
    xdb = build_geocoding_xdb()

    # Register the uncertain source: the connection extracts the best-guess
    # world and the c-correct x-DB labeling, then encodes both for querying.
    conn = repro.connect(NATURAL, "geo")
    conn.register_xdb(xdb)

    query = """
        SELECT a.id, l.locale, l.state
        FROM ADDR a, LOC l
        WHERE contains(l.rect, a.geocoded)
    """
    result = conn.query(query)

    print("UA-DB answer (best-guess rows, certain answers marked):\n")
    print(result.pretty())
    print()
    print(f"{len(result.certain_rows())} of {len(result)} answers are certain.")

    # The same query, answered deterministically over the best-guess world:
    deterministic, elapsed = conn.query_deterministic(query)
    print(f"\nDeterministic (BGQP) returns {len(deterministic)} rows "
          f"in {elapsed * 1000:.1f} ms -- the same rows, but without any "
          "indication of which ones can be trusted.")


if __name__ == "__main__":
    main()
