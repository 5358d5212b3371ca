"""The paper's primary contribution: Uncertainty Annotated Databases.

* :mod:`repro.core.labeling` -- labeling schemes (Section 4.1) producing
  under-approximations of certain annotations for TI-DBs, x-DBs and C-tables,
* :mod:`repro.core.bestguess` -- best-guess-world extraction (Section 4.2),
* :mod:`repro.core.uadb` -- UA-relations / UA-databases and direct query
  evaluation with K_UA semantics (Section 5),
* :mod:`repro.core.encoding` -- the ``Enc`` multiset encoding mapping
  N_UA-relations to plain bag relations with an extra certainty column
  (Definition 8),
* :mod:`repro.core.rewriter` -- the Figure 8/9 query rewriting over the
  encoded representation,
* :mod:`repro.core.attribute_bounds` / :mod:`repro.core.attribute_rewriter`
  -- the attribute-level (AU-DB) extension: relations carrying
  per-attribute ``[lower, best, upper]`` ranges, their triple-column
  encoding, and the rewriter that propagates bounds through the positive
  algebra, ``DISTINCT`` and grouping aggregation.
"""

from repro.core.attribute_bounds import (
    AttributeBoundsRelation,
    RangeError,
    attribute_encoded_schema,
    decode_attribute_relation,
    encode_attribute_relation,
    is_attribute_encoded,
    logical_schema_from_encoded,
)
from repro.core.attribute_rewriter import (
    AttributeRewrite,
    AttributeRewriteError,
    rewrite_attribute_plan,
)
from repro.core.uadb import UARelation, UADatabase
from repro.core.labeling import (
    label_tidb, label_xdb, label_ctable, label_ordb, label_kw_exact, Labeling,
)
from repro.core.bestguess import (
    best_guess_world_tidb, best_guess_world_xdb, best_guess_world_ctable,
    best_guess_world_ordb,
)
from repro.core.encoding import encode, decode, CERTAINTY_COLUMN
from repro.core.rewriter import rewrite_plan

__all__ = [
    "AttributeBoundsRelation",
    "AttributeRewrite",
    "AttributeRewriteError",
    "RangeError",
    "attribute_encoded_schema",
    "decode_attribute_relation",
    "encode_attribute_relation",
    "is_attribute_encoded",
    "logical_schema_from_encoded",
    "rewrite_attribute_plan",
    "UARelation",
    "UADatabase",
    "Labeling",
    "label_tidb",
    "label_xdb",
    "label_ctable",
    "label_ordb",
    "label_kw_exact",
    "best_guess_world_tidb",
    "best_guess_world_xdb",
    "best_guess_world_ctable",
    "best_guess_world_ordb",
    "encode",
    "decode",
    "CERTAINTY_COLUMN",
    "rewrite_plan",
]
