"""An asyncio HTTP/JSON query service over the UA-DB connection pool.

The server is the repo's first multi-process-capable front door: where
:func:`repro.connect` requires an in-process import, ``repro.server`` puts a
socket in front of a :class:`~repro.api.pool.ConnectionPool` so any
HTTP-speaking client can run parameterized SQL against a (persistent or
in-memory) UA-database and get back best-guess rows annotated with the
paper's certain-answer under-approximation.

Three ways in, all stdlib-only (``asyncio`` streams, no web framework):

* ``python -m repro.server --store app.uadb --port 8080`` -- the CLI,
* :class:`UADBServer` / :func:`serve` -- inside an asyncio program,
* :class:`ServerThread` -- a background-thread server for tests, examples
  and notebooks, paired with the synchronous :class:`Client`.

Endpoints: ``POST /query`` (SELECT, optional NDJSON streaming),
``POST /execute`` (DDL/DML), ``GET /tables``, ``GET /healthz``,
``GET /metrics``.  Queries run on a worker-thread executor, concurrently
under the pool's shared read lock; writes serialize through its writer
lock.  A cheap ``/query`` cache miss on an otherwise idle server -- no
refresh due, nothing else in flight, the statement's last answer under
``sys.getswitchinterval()`` -- is answered on the event loop instead, as a
cache hit is (rule in :mod:`repro.server.app`).  Typed errors
from every layer map to JSON ``{"error": {"code", "message", "retryable"}}``
bodies -- see ``ERROR_MAP`` in :mod:`repro.server.app` -- which the client
raises as a typed exception hierarchy rooted at :class:`ServerError`.

``python -m repro.server --store app.uadb --workers 4`` scales the same
server to a pre-forked fleet: see :mod:`repro.server.fleet` for the
supervisor, cross-process write coordination, the HTTP result cache, and
authentication/rate limiting.
"""

from repro.server.app import ServerThread, UADBServer, serve
from repro.server.client import (AuthError, BadRequestError, Client,
                                 InternalServerError, QueryReply,
                                 RateLimitedError, ServerError,
                                 ServerUnavailableError, StreamInterrupted)
from repro.server.http import HTTPError, Request
from repro.server.metrics import ServerMetrics

__all__ = [
    "AuthError",
    "BadRequestError",
    "Client",
    "HTTPError",
    "InternalServerError",
    "QueryReply",
    "RateLimitedError",
    "Request",
    "ServerError",
    "ServerMetrics",
    "ServerThread",
    "ServerUnavailableError",
    "StreamInterrupted",
    "UADBServer",
    "serve",
]
