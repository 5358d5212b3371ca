"""Extensions beyond the paper's core contribution (its Section 12 future work).

The UA-DB paper closes by listing extensions it leaves open: attribute-level
annotations, larger query classes (negation and aggregation), and uncertain
versions of semirings beyond sets and bags.  This package implements those
extensions on top of the core library:

* :mod:`repro.extensions.possible` -- labeling schemes that over-approximate
  the *possible* annotations of tuples (the LUB across worlds), the
  complement of the paper's certain-annotation under-approximations,
* :mod:`repro.extensions.uapdb` -- UAP-DBs: databases annotated with triples
  ``[c, d, p]`` that additionally bound the possible annotation from above,
  which is exactly the information needed to evaluate difference (negation)
  while preserving sound bounds,
* :mod:`repro.extensions.aggregation` -- grouping and aggregation over
  UAP-DBs with per-aggregate lower/upper bounds and a sound certainty label.

Attribute-level annotations are not here: they are the AU-DB ranges of
:mod:`repro.core.attribute_bounds`, which every session engine evaluates
(:meth:`repro.api.session.Connection.query_bounds`); x-DB and OR-DB sources
enter them through ``AttributeBoundsRelation.from_xdb`` / ``from_ordb``.

The semirings the conclusion mentions (provenance polynomials, why/lineage
provenance, fuzzy confidences) live in :mod:`repro.semirings.provenance` and
:mod:`repro.semirings.fuzzy` since they are plain semirings usable by the
core as well.
"""

from repro.extensions.possible import (
    label_possible_tidb,
    label_possible_xdb,
    label_possible_ctable,
    label_possible_kw_exact,
    is_poss_complete,
)
from repro.extensions.uapdb import UAPAnnotation, UAPSemiring, UAPRelation, UAPDatabase
from repro.extensions.aggregation import AggregateBound, BoundedAggregateRow, ua_aggregate

__all__ = [
    "label_possible_tidb",
    "label_possible_xdb",
    "label_possible_ctable",
    "label_possible_kw_exact",
    "is_poss_complete",
    "UAPAnnotation",
    "UAPSemiring",
    "UAPRelation",
    "UAPDatabase",
    "AggregateBound",
    "BoundedAggregateRow",
    "ua_aggregate",
]
