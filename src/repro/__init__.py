"""repro: a reproduction of "Uncertainty Annotated Databases" (SIGMOD 2019).

The package is organized bottom-up:

* :mod:`repro.semirings` -- commutative semirings and annotation algebra,
* :mod:`repro.db`        -- the in-memory relational engine and SQL front-end,
* :mod:`repro.incomplete` -- incomplete / probabilistic data models,
* :mod:`repro.core`      -- UA-DBs: labelings, encodings, rewriting, and
  attribute-level AU-DB ranges (built from UA-relations, x-DBs or OR-DBs),
* :mod:`repro.api`       -- the DB-API-style session layer behind
  :func:`repro.connect`: connections, cursors, parameterized queries, the
  prepared-plan cache, the persistent ``.uadb`` store and the connection
  pool,
* :mod:`repro.server`    -- an asyncio HTTP/JSON query service over the
  pool (``python -m repro.server``) with a stdlib client,
* :mod:`repro.extensions` -- the paper's future-work items: possible-annotation
  bounds (UAP-DBs with difference/negation) and aggregation with certainty
  bounds,
* :mod:`repro.baselines` -- systems compared against in the evaluation,
* :mod:`repro.workloads` -- data and query generators used by the experiments,
* :mod:`repro.metrics`   -- quality metrics (FNR, precision/recall, ...),
* :mod:`repro.experiments` -- one module per table/figure of the paper.
"""

__version__ = "1.3.0"

from repro.core import AttributeBoundsRelation, RangeError, UADatabase, UARelation
from repro.api import (
    AttributeQueryResult,
    Connection,
    ConnectionPool,
    Cursor,
    PreparedStatement,
    StoreError,
    UADBStore,
    UAQueryResult,
    connect,
)

__all__ = [
    "AttributeBoundsRelation",
    "AttributeQueryResult",
    "Connection",
    "ConnectionPool",
    "Cursor",
    "PreparedStatement",
    "RangeError",
    "StoreError",
    "UADatabase",
    "UADBStore",
    "UAQueryResult",
    "UARelation",
    "connect",
    "__version__",
]
