"""Canonical telemetry instrument names of the serving layer.

The in-process :class:`~repro.service.frontend.ServiceFrontend` and the
socket-path HTTP layer (:mod:`repro.service.http`) must emit the *same*
``service.*`` instruments for the same events — a dashboard built against
the in-process stats has to keep working unchanged when the deployment
moves behind the network server, and rejected / deadline-expired requests
must be countable from either side without name translation.  The
per-outcome ``service.*`` instruments are therefore emitted at one site,
:func:`repro.service.frontend.record_outcome`, which every serving path
calls once per answer: :meth:`~repro.service.ServiceFrontend.submit` for
what a frontend answers itself (in process, in a thread-mode shard or in
a process-mode worker), ``submit_batch`` for its followers, and
:class:`~repro.service.http.ShardPool` in the serving process for
cross-connection followers, every refusal (``overloaded`` and
``draining``), failed dispatches and the answers process-mode workers
return.  Every other instrumentation site imports its name from this
module instead of spelling a string literal; the regression suite
(``tests/service/test_counter_parity.py``) drives both paths through
degradation scenarios and asserts the emitted ``service.*`` name sets
are identical.

Instrument vocabulary
---------------------

``service.*``
    Emitted per *request outcome*, identically by both paths:
    :data:`SERVICE_REQUESTS` (labelled by response source),
    :data:`SERVICE_REJECTED` (labelled by rejection reason —
    ``overloaded`` / ``deadline`` / ``draining``), :data:`SERVICE_FAILED`
    (labelled by exception type) and the :data:`SERVICE_QUEUE_SECONDS` /
    :data:`SERVICE_EXECUTION_SECONDS` latency histograms.
    :data:`SERVICE_INVALIDATED` is the one write-path instrument, ticked
    by :meth:`~repro.service.ServiceFrontend.invalidate_dataset`.

``http.*``
    Emitted only by the socket path, *in addition to* the shared
    vocabulary: :data:`HTTP_REQUESTS` (labelled by route and HTTP
    status), :data:`HTTP_REJECTED` (labelled by reason — every
    ``overloaded`` and ``draining`` refusal of the pool),
    :data:`HTTP_SHARD_ROUTE` (labelled by shard — the consistent-hash
    routing decision) and the :data:`HTTP_LATENCY_SECONDS` histogram
    (full socket-path latency including parse and serialization).
    Failover adds :data:`HTTP_SHARD_EJECTED` / :data:`HTTP_RESPAWNED`
    (dead process-mode workers leaving and rejoining the live ring) and
    :data:`HTTP_CLIENT_RETRY` (client-side transparent retries).

``journal.*``
    The write-ahead journal's instruments live with the journal itself
    (:mod:`repro.core.journal` — the core layer cannot import this
    module), listed here for the dashboard inventory: ``journal.appends``,
    ``journal.fsyncs``, ``journal.rotations``, ``journal.snapshots``,
    ``journal.replayed_records``, ``journal.truncated_records``,
    ``journal.recovered_sessions``.
"""

from __future__ import annotations

__all__ = [
    "SERVICE_REQUESTS",
    "SERVICE_REJECTED",
    "SERVICE_FAILED",
    "SERVICE_INVALIDATED",
    "SERVICE_QUEUE_SECONDS",
    "SERVICE_EXECUTION_SECONDS",
    "HTTP_REQUESTS",
    "HTTP_REJECTED",
    "HTTP_SHARD_ROUTE",
    "HTTP_LATENCY_SECONDS",
    "HTTP_SHARD_EJECTED",
    "HTTP_RESPAWNED",
    "HTTP_CLIENT_RETRY",
]

#: Counter: one increment per answered request, labelled ``source=``.
SERVICE_REQUESTS = "service.requests"

#: Counter: structured rejections (nothing executed), labelled ``reason=``.
SERVICE_REJECTED = "service.rejected"

#: Counter: computations or shard dispatches that raised, labelled ``kind=``
#: (exception type).
SERVICE_FAILED = "service.failed"

#: Counter: cached responses purged on the live-serving write path.
SERVICE_INVALIDATED = "service.invalidated"

#: Histogram: per-request queue wait, labelled ``source=``.
SERVICE_QUEUE_SECONDS = "service.queue_seconds"

#: Histogram: per-request execution share, labelled ``source=``.
SERVICE_EXECUTION_SECONDS = "service.execution_seconds"

#: Counter: one increment per HTTP exchange, labelled ``route=``/``status=``.
HTTP_REQUESTS = "http.request"

#: Counter: socket-path rejections before dispatch, labelled ``reason=``.
HTTP_REJECTED = "http.rejected"

#: Counter: consistent-hash routing decisions, labelled ``shard=``.
HTTP_SHARD_ROUTE = "http.shard_route"

#: Histogram: full socket-path request latency, labelled ``route=``.
HTTP_LATENCY_SECONDS = "http.latency_seconds"

#: Counter: dead shards ejected from the live ring, labelled ``shard=``.
HTTP_SHARD_EJECTED = "http.shard_ejected"

#: Counter: ejected shards respawned and rejoined, labelled ``shard=``.
HTTP_RESPAWNED = "http.respawned"

#: Counter: client-side transparent retries, labelled ``kind=``
#: (``connect`` — the server was unreachable; ``transport`` — an
#: established connection died mid-exchange).
HTTP_CLIENT_RETRY = "http.client_retry"
