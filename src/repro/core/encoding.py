"""The ``Enc`` multiset encoding of N_UA-relations (Definition 8).

A bag UA-relation annotating tuple ``t`` with ``[c, d]`` is encoded as a
plain bag relation with one extra certainty attribute ``C``: the row
``(t, 1)`` appears with multiplicity ``c`` (the certain copies) and the row
``(t, 0)`` with multiplicity ``d - c`` (the remaining best-guess copies).
``Enc`` is invertible (``decode``), and the Figure 9 rewriting evaluates RA+
over the encoding; Theorem 7 states (and ``tests/test_rewriter.py`` checks)
that decode(rewritten query over Enc(D)) equals the direct K_UA evaluation.

The encoding generalizes to any UA-semiring whose base has a monus; the
boolean (set) variant is provided as well.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.db.database import Database
from repro.db.relation import KRelation, Row, _row_sort_key
from repro.db.schema import Attribute, DataType, RelationSchema, SchemaError
from repro.semirings import BOOLEAN, NATURAL, Semiring
from repro.semirings.ua import UAAnnotation, UASemiring
from repro.core.uadb import UADatabase, UARelation

#: Name of the certainty marker attribute added by the encoding.
CERTAINTY_COLUMN = "C"

#: Base semirings whose annotations have a stable on-disk (integer) form,
#: keyed by their ``name``.  The persistent store records the semiring by
#: name and resolves it back through this table on reopen.
STORABLE_SEMIRINGS: Dict[str, Semiring] = {
    NATURAL.name: NATURAL,
    BOOLEAN.name: BOOLEAN,
}


def _encoded_schema(schema: RelationSchema) -> RelationSchema:
    """The input schema extended with the certainty attribute."""
    if schema.has_attribute(CERTAINTY_COLUMN):
        raise SchemaError(
            f"relation {schema.name!r} has a column named "
            f"{CERTAINTY_COLUMN!r}, which tuple-level relations reserve for "
            f"their certainty column; rename it, or register the data as an "
            f"attribute-level relation (register_attribute_relation)")
    return RelationSchema(
        schema.name,
        tuple(schema.attributes) + (Attribute(CERTAINTY_COLUMN, DataType.INTEGER),),
    )


def decoded_schema(schema: RelationSchema) -> RelationSchema:
    """Remove the certainty attribute (it must be the last column)."""
    names = [a.name for a in schema.attributes]
    if not names or names[-1].split(".")[-1].lower() != CERTAINTY_COLUMN.lower():
        raise ValueError(
            f"relation {schema.name!r} does not end with a {CERTAINTY_COLUMN!r} column"
        )
    return RelationSchema(schema.name, tuple(schema.attributes[:-1]))


def encode_relation(relation: UARelation) -> KRelation:
    """``Enc``: map a UA-relation to a plain K-relation with a ``C`` column."""
    base = relation.base_semiring
    if not base.has_monus:
        raise ValueError(
            f"the Enc encoding requires a monus on the base semiring {base.name}"
        )
    schema = _encoded_schema(relation.schema)
    encoded = KRelation(schema, base)
    for row, annotation in relation.items():
        certain = annotation.certain
        uncertain = base.monus(annotation.determinized, certain)
        if not base.is_zero(certain):
            encoded.add(row + (1,), certain)
        if not base.is_zero(uncertain):
            encoded.add(row + (0,), uncertain)
    return encoded


def decode_relation(relation: KRelation,
                    ua_semiring: Optional[UASemiring] = None) -> UARelation:
    """``Enc⁻¹``: recover a UA-relation from its encoded form."""
    base = relation.semiring
    ua_semiring = ua_semiring or UASemiring(base)
    schema = decoded_schema(relation.schema)
    # Group by the projected row: certain = annotation of (t, 1),
    # determinized = annotation of (t, 0) + annotation of (t, 1).
    certain_parts: dict = {}
    uncertain_parts: dict = {}
    zero = base.zero
    plus = base.plus
    for row, annotation in relation.items():
        key = row[:-1]
        parts = certain_parts if row[-1] == 1 else uncertain_parts
        current = parts.get(key)
        parts[key] = annotation if current is None else plus(current, annotation)
    # The rows come out of an engine result (already schema-validated) and
    # ``certain <= certain + uncertain`` holds by construction, so the pairs
    # are assembled directly instead of per-row re-validation through
    # ``set_annotation`` / ``UASemiring.annotation``.
    data: dict = {}
    for key in certain_parts.keys() | uncertain_parts.keys():
        certain = certain_parts.get(key, zero)
        uncertain = uncertain_parts.get(key, zero)
        determinized = plus(uncertain, certain)
        if base.is_zero(determinized):
            continue
        data[key] = UAAnnotation(certain, determinized)
    return UARelation._from_validated(schema, ua_semiring, data)


def labeled_rows(encoded: KRelation) -> List[Tuple[Row, bool]]:
    """Sorted ``(row, certain?)`` pairs of an encoded answer, in one pass.

    Reads what :func:`decode_relation` reads without building annotations:
    ``t`` is present iff one of its fragments has a non-zero annotation (a
    sum in a semiring with a monus is zero only if every summand is) and
    certain iff its ``(t, 1)`` fragment has.
    """
    is_zero = encoded.semiring.is_zero
    labels: Dict[Row, bool] = {}
    for row, annotation in encoded.items():
        if is_zero(annotation):
            continue
        if row[-1] == 1:
            labels[row[:-1]] = True
        else:
            labels.setdefault(row[:-1], False)
    return [(row, labels[row]) for row in sorted(labels, key=_row_sort_key)]


# ---------------------------------------------------------------------------
# Schema / semiring metadata round-trip (persistent ``.uadb`` stores).
# ---------------------------------------------------------------------------

def semiring_from_name(name: str) -> Semiring:
    """Resolve a persisted semiring name back to the semiring instance.

    Only semirings with a stable on-disk annotation encoding participate
    (see :data:`STORABLE_SEMIRINGS`); anything else raises ``ValueError``.
    """
    try:
        return STORABLE_SEMIRINGS[name]
    except KeyError as exc:
        raise ValueError(
            f"no storable semiring named {name!r}; storable semirings: "
            f"{', '.join(sorted(STORABLE_SEMIRINGS))}"
        ) from exc


def schema_to_metadata(schema: RelationSchema) -> str:
    """Serialize a relation schema to the JSON form kept in a store catalog."""
    return json.dumps({
        "name": schema.name,
        "attributes": [
            {"name": attribute.name, "type": attribute.data_type.value}
            for attribute in schema.attributes
        ],
    })


def schema_from_metadata(text: str) -> RelationSchema:
    """Rebuild a relation schema from its persisted JSON form.

    Inverse of :func:`schema_to_metadata`: names, attribute order and
    declared data types all round-trip exactly.
    """
    try:
        document = json.loads(text)
        return RelationSchema(
            document["name"],
            tuple(
                Attribute(attribute["name"], DataType(attribute["type"]))
                for attribute in document["attributes"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed schema metadata: {text!r}") from exc


def encode(uadb: UADatabase) -> Database:
    """Encode every relation of a UA-database (``Enc`` lifted to databases)."""
    database = Database(uadb.base_semiring, f"{uadb.name}_enc")
    for relation in uadb:
        database.add_relation(encode_relation(relation))  # type: ignore[arg-type]
    return database


def decode(database: Database, name: str = "uadb") -> UADatabase:
    """Decode a database of encoded relations back into a UA-database."""
    uadb = UADatabase(database.semiring, name)
    for relation in database:
        uadb.add_relation(decode_relation(relation, uadb.ua_semiring))
    return uadb
