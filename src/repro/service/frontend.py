"""ServiceFrontend: batch, coalesce and cache aggregation requests.

The request-facing layer in front of the engine and the portfolio
scheduler.  A :class:`ServiceFrontend` accepts :class:`ServiceRequest`
objects (a dataset plus a priority / budget / optional pinned algorithm)
and answers with :class:`ServiceResponse` objects, applying three
serving-side optimisations:

* **result caching** — responses are stored under the same
  content-addressed keys the engine uses
  (:func:`repro.engine.fingerprint.run_key`, ``kind="service"``), in a
  two-tier cache: an in-memory LRU in front of the persistent disk store
  (:class:`repro.engine.TieredResultCache`) — a warm process answers
  repeated requests without touching the disk;
* **request coalescing** — a batch submitted through
  :meth:`ServiceFrontend.submit_batch` computes each distinct
  (dataset fingerprint, parameters) group once; identical concurrent
  requests share the one computation;
* **per-request accounting** — every response records its latency and
  source (``computed`` / ``memory`` / ``disk`` / ``coalesced``), and
  :meth:`ServiceFrontend.stats` aggregates hit rates and latency
  statistics for the whole session in constant memory (percentiles are
  bucket estimates);
* **graceful degradation** — per-request deadlines
  (:attr:`ServiceRequest.deadline_seconds`) reject work whose answer can
  no longer be useful, and a failed computation becomes a structured
  ``failed`` response — propagated to its coalesced followers — instead
  of an exception tearing the batch down.

The per-request decisions live here once, for the in-process batch path
and the socket path (:class:`~repro.service.http.ShardPool`) alike:
:func:`coalescing_key` says which requests share one computation,
:meth:`ServiceFrontend.submit` applies the deadline rule,
:func:`follower_response` and :func:`degraded_response` build the
answers that execute nothing, and :func:`record_outcome` accounts every
answer in a :class:`ServiceStats` registry and on the ``service.*``
telemetry instruments — :meth:`ServiceFrontend.submit` for what a
frontend answers itself, :meth:`ServiceFrontend.submit_batch` for its
coalesced followers, the pool for the rest.  Admission (``max_pending``)
and the ``overloaded`` / ``draining`` refusals are the pool's alone; a
frontend admits everything it is given.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from ..algorithms.anytime import run_anytime, supports_anytime
from ..algorithms.registry import make_algorithm
from ..core.ranking import Ranking
from ..datasets.dataset import Dataset
from ..datasets.normalization import ensure_complete
from ..engine.cache import ResultCache
from ..engine.fingerprint import dataset_fingerprint, run_key
from ..engine.tiering import TieredResultCache
from ..evaluation.guidance import Priority
from ..telemetry import runtime as _telemetry
from ..telemetry.metrics import Histogram, MetricsRegistry
from . import counters as _counters
from .portfolio import PortfolioScheduler

__all__ = [
    "ServiceRequest",
    "ServiceResponse",
    "ServiceStats",
    "ServiceFrontend",
    "coalescing_key",
    "degraded_response",
    "follower_response",
    "record_outcome",
]


@dataclass(frozen=True)
class ServiceRequest:
    """One aggregation request.

    Attributes
    ----------
    dataset:
        The dataset to aggregate (normalized by unification when not
        complete).
    priority:
        Guidance priority driving portfolio candidate selection.
    budget_seconds:
        Per-request time budget; ``None`` uses the frontend default.
    algorithm:
        Pin one registry algorithm instead of racing a portfolio.
    request_id:
        Caller-side correlation id, echoed on the response.
    deadline_seconds:
        Per-request deadline on total latency: a request whose queue wait
        is strictly greater than it is answered with a structured
        ``deadline`` rejection instead of starting a computation that can
        no longer be useful.  ``None`` waits indefinitely.
    """

    dataset: Dataset
    priority: str = Priority.BALANCED.value
    budget_seconds: float | None = None
    algorithm: str | None = None
    request_id: str | None = None
    deadline_seconds: float | None = None


@dataclass(frozen=True)
class ServiceResponse:
    """Answer to one :class:`ServiceRequest`.

    Attributes
    ----------
    request_id:
        Echo of the request's correlation id.
    consensus:
        The consensus ranking (``None`` on a degraded response).
    score:
        Its generalized Kemeny score (``None`` on a degraded response).
    algorithm:
        Name of the algorithm that produced it (empty when nothing ran).
    source:
        ``"computed"`` (executed now), ``"memory"`` / ``"disk"`` (cache
        tier that served it), ``"coalesced"`` (shared another identical
        request's computation in the same batch), ``"rejected"`` (refused
        before executing anything) or ``"error"`` (the computation
        failed).
    latency_seconds:
        Wall-clock time between submission and answer — always the sum of
        the queue and execution shares below.
    queue_seconds:
        Time the request waited before its own lookup/compute started: for
        batch submissions, the time spent behind earlier groups of the
        batch (and, for coalesced followers, behind their leader's
        computation); zero for direct :meth:`ServiceFrontend.submit`.
    execution_seconds:
        Time spent answering *this* request — cache lookup plus (for
        computed requests) the aggregation itself; zero for coalesced
        followers, which execute nothing.
    status:
        ``"ok"`` for an answered request; ``"overloaded"`` (bounded
        admission refused it), ``"deadline"`` (its per-request deadline
        expired before execution started), ``"draining"`` (the serving
        process is shutting down gracefully and stopped admitting work)
        or ``"failed"`` (the computation raised) for graceful
        degradation.
    error:
        Failure detail for non-``ok`` responses, ``None`` otherwise.
        Coalesced followers of a failed leader carry the leader's error.
    """

    request_id: str | None
    consensus: Ranking | None
    score: int | None
    algorithm: str
    source: str
    latency_seconds: float
    queue_seconds: float = 0.0
    execution_seconds: float = 0.0
    status: str = "ok"
    error: str | None = None

    @property
    def succeeded(self) -> bool:
        """Whether the request was answered with a consensus."""
        return self.status == "ok"

    @property
    def cache_hit(self) -> bool:
        """Whether the response was served from a cache tier."""
        return self.source in ("memory", "disk")


#: Answer status → outcome kind of a :class:`ServiceStats`; an answer with
#: any other status (``ok``) counts by its source, as ``computed`` when
#: no cache tier or coalescing served it.
_STATUS_KINDS = {
    "overloaded": "rejected",
    "draining": "rejected",
    "deadline": "deadline_misses",
    "failed": "failed",
}
_SOURCE_KINDS = {"memory": "memory_hits", "disk": "disk_hits", "coalesced": "coalesced"}


def _count(kind: str, doc: str) -> property:
    """A read-only view of one outcome kind of a :class:`ServiceStats`."""
    return property(lambda stats: int(stats._outcomes.value(kind=kind)), doc=doc)


def _timing(histogram: Histogram) -> tuple[int, float, float]:
    """Exact count, mean and maximum of a one-series histogram."""
    series = histogram.to_payload()["series"]
    if not series:
        return 0, 0.0, 0.0
    item = series[0]
    return item["count"], item["sum"] / item["count"], item["max"]


class ServiceStats:
    """Session accounting of a :class:`ServiceFrontend` or a serving shard.

    Constant memory however many answers it absorbs: one counter per
    outcome kind and one fixed-bucket
    :class:`~repro.telemetry.metrics.Histogram` each for the latency, the
    queue wait and the execution share of every answer.  Counts, means and
    maxima are exact; the p50/p95 latencies are estimated inside their
    bucket.  Thread-safe: a shard's executor and the event loop may record
    into one registry concurrently.
    """

    computed = _count("computed", "Requests that executed a fresh aggregation.")
    memory_hits = _count("memory_hits", "Requests served by the memory tier.")
    disk_hits = _count("disk_hits", "Requests served by the disk tier.")
    coalesced = _count("coalesced", "Requests that shared another's computation.")
    rejected = _count("rejected", "Requests refused (overloaded / draining).")
    deadline_misses = _count("deadline_misses", "Requests past their deadline.")
    failed = _count("failed", "Requests whose computation raised.")

    def __init__(self) -> None:
        self._metrics = MetricsRegistry()
        self._outcomes = self._metrics.counter("outcomes")
        self._latency = self._metrics.histogram("latency_seconds")
        self._queue = self._metrics.histogram("queue_seconds")
        self._execution = self._metrics.histogram("execution_seconds")

    @property
    def requests(self) -> int:
        """Total requests answered."""
        return self._latency.count()

    @property
    def cache_hits(self) -> int:
        """Requests served from either cache tier."""
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered without a fresh computation."""
        if not self.requests:
            return 0.0
        return (self.cache_hits + self.coalesced) / self.requests

    def record(self, outcome: ServiceResponse | Mapping[str, Any]) -> None:
        """Account one answer in the session counters (no telemetry).

        Parameters
        ----------
        outcome:
            The response, or its wire payload
            (:func:`~repro.service.http.protocol.response_payload`): the
            socket path accounts payloads without rebuilding responses.
        """
        fields = _outcome_fields(outcome)
        kind = _STATUS_KINDS.get(fields["status"]) or _SOURCE_KINDS.get(
            fields["source"], "computed"
        )
        self._outcomes.inc(kind=kind)
        self._latency.observe(fields["latency_seconds"])
        self._queue.observe(fields["queue_seconds"])
        self._execution.observe(fields["execution_seconds"])

    def merge(self, other: ServiceStats) -> None:
        """Fold another registry in: counts and histogram buckets add.

        Parameters
        ----------
        other:
            The registry to add (left unchanged).
        """
        self._metrics.merge_payload(other._metrics.to_payload())

    def describe(self) -> dict[str, Any]:
        """Flat dictionary form (CLI tables, benchmark payloads)."""
        requests, latency_mean, latency_max = _timing(self._latency)
        _, queue_mean, queue_max = _timing(self._queue)
        _, execution_mean, execution_max = _timing(self._execution)
        return {
            "requests": requests,
            "computed": self.computed,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "deadline_misses": self.deadline_misses,
            "failed": self.failed,
            "hit_rate": round(self.hit_rate, 4),
            "latency_mean_seconds": latency_mean,
            "latency_p50_seconds": self._latency.percentile(0.50),
            "latency_p95_seconds": self._latency.percentile(0.95),
            "latency_max_seconds": latency_max,
            "queue_mean_seconds": queue_mean,
            "queue_max_seconds": queue_max,
            "execution_mean_seconds": execution_mean,
            "execution_max_seconds": execution_max,
        }


def _outcome_fields(outcome: ServiceResponse | Mapping[str, Any]) -> Mapping[str, Any]:
    """A response's fields by name — the keys its wire payload uses too."""
    return vars(outcome) if isinstance(outcome, ServiceResponse) else outcome


def record_outcome(
    stats: ServiceStats, outcome: ServiceResponse | Mapping[str, Any]
) -> None:
    """Account one answer in a registry and on the ``service.*`` instruments.

    The one accounting path of the serving layer: every answer a frontend
    or shard gives — computed, cache hit, coalesced follower, refusal or
    failure — passes here exactly once.  Refusals (source ``rejected``)
    also tick ``service.rejected`` by status and failed computations
    (source ``error``) ``service.failed`` by exception type.

    Parameters
    ----------
    stats:
        The session registry to fold the answer into.
    outcome:
        The response, or its wire payload.
    """
    stats.record(outcome)
    if not _telemetry.is_enabled():
        return
    fields = _outcome_fields(outcome)
    source = fields["source"]
    if source == "rejected":
        _telemetry.count(_counters.SERVICE_REJECTED, reason=fields["status"])
    elif source == "error":
        kind = str(fields["error"]).split(":", 1)[0]
        _telemetry.count(_counters.SERVICE_FAILED, kind=kind)
    _telemetry.count(_counters.SERVICE_REQUESTS, source=source)
    _telemetry.observe(
        _counters.SERVICE_QUEUE_SECONDS, fields["queue_seconds"], source=source
    )
    _telemetry.observe(
        _counters.SERVICE_EXECUTION_SECONDS,
        fields["execution_seconds"],
        source=source,
    )


def _budget(request: ServiceRequest, default: float | None) -> float | None:
    """The request's compute budget, ``default`` when it carries none."""
    return default if request.budget_seconds is None else request.budget_seconds


def coalescing_key(
    request: ServiceRequest, default_budget_seconds: float | None
) -> tuple[Any, ...]:
    """Identity of the computation a request asks for.

    Two requests with equal keys have the same cached answer, so one
    computation serves both: content fingerprint (memoized on the
    dataset, so no new pass over it), budget with the default filled in,
    priority, pinned algorithm and dataset generation (the ``generation``
    metadata entry :class:`~repro.core.live.LiveDataset` snapshots carry,
    ``None`` otherwise — two snapshots that collide on content but
    straddle a mutation never share one computation).

    Parameters
    ----------
    request:
        The request to key.
    default_budget_seconds:
        The serving frontend's budget for requests that carry none.
    """
    return (
        request.dataset.content_fingerprint(),
        _budget(request, default_budget_seconds),
        Priority(request.priority).value,
        request.algorithm,
        request.dataset.metadata.get("generation"),
    )


def degraded_response(
    request_id: str | None,
    *,
    status: str,
    error: str,
    queue_seconds: float = 0.0,
    execution_seconds: float = 0.0,
) -> ServiceResponse:
    """A structured answer without a consensus.

    ``status="failed"`` (the computation raised) reports source
    ``error``; every other status (``overloaded`` / ``deadline`` /
    ``draining``) is a refusal that executed nothing and reports source
    ``rejected``.

    Parameters
    ----------
    request_id:
        Correlation id of the request being answered (``None`` when the
        body never got far enough to carry one).
    status:
        Degradation status.
    error:
        Human-readable detail; for failures ``"<ExceptionType>: <message>"``.
    queue_seconds:
        Wait the request accumulated before the answer.
    execution_seconds:
        Time spent executing before the failure (zero for refusals).
    """
    return ServiceResponse(
        request_id=request_id,
        consensus=None,
        score=None,
        algorithm="",
        source="error" if status == "failed" else "rejected",
        latency_seconds=queue_seconds + execution_seconds,
        queue_seconds=queue_seconds,
        execution_seconds=execution_seconds,
        status=status,
        error=error,
    )


def follower_response(
    request_id: str | None, leader: ServiceResponse, waited: float
) -> ServiceResponse:
    """A coalesced follower's answer: its leader's, under its own identity.

    The follower shares the leader's consensus, score, status and error;
    it executed nothing, so its whole latency is the wait for the leader.

    Parameters
    ----------
    request_id:
        The follower's own correlation id.
    leader:
        The answer of the computation it shared.
    waited:
        Time from the follower's arrival until the leader's answer.
    """
    return replace(
        leader,
        request_id=request_id,
        source="coalesced",
        latency_seconds=waited,
        queue_seconds=waited,
        execution_seconds=0.0,
    )


class ServiceFrontend:
    """Request-facing aggregation service over the portfolio scheduler.

    Parameters
    ----------
    cache:
        Result cache: a :class:`~repro.engine.TieredResultCache`, a plain
        :class:`~repro.engine.ResultCache` (disk only), a directory path
        (a tiered cache is created over it) or ``None`` to disable
        caching.
    default_budget_seconds:
        Budget applied to requests that do not carry one.
    seed:
        Seed forwarded to randomized algorithms (part of the cache key).
    memory_entries:
        LRU capacity when a tiered cache is created from a path.
    """

    def __init__(
        self,
        cache: TieredResultCache | ResultCache | str | Path | None = None,
        *,
        default_budget_seconds: float | None = 1.0,
        seed: int | None = None,
        memory_entries: int = 1024,
    ):
        if isinstance(cache, (str, Path)):
            cache = TieredResultCache(cache, memory_entries=memory_entries)
        self.cache = cache
        self.default_budget_seconds = default_budget_seconds
        self.seed = seed
        self._stats = ServiceStats()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self, request: ServiceRequest, *, queue_seconds: float = 0.0
    ) -> ServiceResponse:
        """Answer one request: deadline check, cache lookup, compute + store.

        A direct submission never queues on its own: by default its
        ``queue_seconds`` is zero and its latency is pure execution time.
        A caller that *did* queue the request first (:meth:`submit_batch`,
        the HTTP shard dispatch of :mod:`repro.service.http`) passes the
        wait it already accumulated, so the response's latency split stays
        honest — and a request whose wait is strictly greater than its
        ``deadline_seconds`` is answered ``deadline`` without executing.

        Parameters
        ----------
        request:
            The request to answer.
        queue_seconds:
            Wait the request accumulated before this call (folded into
            the response's ``queue_seconds`` and total latency).
        """
        deadline = request.deadline_seconds
        if deadline is not None and queue_seconds > deadline:
            response = degraded_response(
                request.request_id,
                status="deadline",
                error=(
                    f"deadline {deadline}s expired after "
                    f"{queue_seconds:.3f}s in queue"
                ),
                queue_seconds=queue_seconds,
            )
        else:
            response = self._answer(request, queue_seconds=queue_seconds)
        record_outcome(self._stats, response)
        return response

    def submit_batch(self, requests: list[ServiceRequest]) -> list[ServiceResponse]:
        """Answer a batch, coalescing identical requests.

        Requests with the same :func:`coalescing_key` (same dataset
        content and generation, same parameters) are computed once; the
        first request of each group is answered through :meth:`submit`
        and the others as ``coalesced``.  Responses come back in
        submission order.

        Every response separates queue wait from execution: a group
        leader's ``queue_seconds`` is the time it spent behind earlier
        groups of the batch, a coalesced follower's is the time until its
        leader's answer was ready (its ``execution_seconds`` is zero — it
        executed nothing).

        Graceful degradation: a request whose ``deadline_seconds``
        expired while it queued gets a ``deadline`` rejection (the next
        live request of its group is promoted to leader), and a leader
        whose computation fails propagates its structured error to every
        coalesced follower instead of raising.

        Parameters
        ----------
        requests:
            The batch, answered in submission order.
        """
        batch_start = time.perf_counter()
        groups: dict[tuple[Any, ...], list[int]] = {}
        for index, request in enumerate(requests):
            key = coalescing_key(request, self.default_budget_seconds)
            groups.setdefault(key, []).append(index)

        answers: dict[int, ServiceResponse] = {}
        for indices in groups.values():
            queue_wait = time.perf_counter() - batch_start
            for position, index in enumerate(indices):
                leader = self.submit(requests[index], queue_seconds=queue_wait)
                answers[index] = leader
                if leader.status != "deadline":
                    break
            else:
                continue  # every request of the group missed its deadline
            follower_wait = time.perf_counter() - batch_start
            for index in indices[position + 1 :]:
                follower = follower_response(
                    requests[index].request_id, leader, follower_wait
                )
                record_outcome(self._stats, follower)
                answers[index] = follower
        return [answers[index] for index in range(len(requests))]

    # ------------------------------------------------------------------ #
    # Invalidation
    # ------------------------------------------------------------------ #
    def invalidate_dataset(self, fingerprint: str) -> int:
        """Drop every cached response computed for one dataset content.

        Called on the write path of live serving
        (:class:`~repro.service.live.LiveAggregationSession`): after a
        mutation, responses cached under the pre-mutation fingerprint
        describe content that no longer exists and must not be re-served
        should the content ever reappear under a new generation.  Ticks
        the ``service.invalidated`` telemetry counter with the number of
        records dropped.

        Parameters
        ----------
        fingerprint:
            Content fingerprint of the dataset whose responses to purge
            (``Dataset.content_fingerprint()`` /
            ``LiveDataset.content_fingerprint()``).

        Returns
        -------
        int
            Number of persistent records removed.
        """
        if self.cache is None:
            return 0
        removed = int(self.cache.invalidate(dataset_fingerprint=fingerprint))
        if _telemetry.is_enabled():
            _telemetry.count(_counters.SERVICE_INVALIDATED, removed)
        return removed

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """Session accounting (requests, hit rates, latencies)."""
        return self._stats

    def describe(self) -> dict[str, Any]:
        """Session accounting plus the cache tiers' own statistics."""
        payload = self._stats.describe()
        if self.cache is not None:
            payload["cache"] = self.cache.stats().describe()
        return payload

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _prepare(self, request: ServiceRequest) -> tuple[Dataset, str, str]:
        """Normalize the request's dataset; compute its cache key and
        content fingerprint."""
        dataset = ensure_complete(request.dataset, None)
        budget = _budget(request, self.default_budget_seconds)
        name = request.algorithm or f"portfolio[{Priority(request.priority).value}]"
        fingerprint = dataset_fingerprint(dataset)
        key = run_key(
            dataset_fingerprint=fingerprint,
            algorithm_name=name,
            parameters={
                "priority": Priority(request.priority).value,
                "budget_seconds": budget,
                "seed": self.seed,
            },
            kind="service",
            time_limit=budget,
        )
        return dataset, key, fingerprint

    def _answer(
        self, request: ServiceRequest, *, queue_seconds: float
    ) -> ServiceResponse:
        """The one lookup/compute/store path behind :meth:`submit`.

        ``queue_seconds`` is how long the request already waited before
        this call; the time spent looking up or computing becomes the
        response's ``execution_seconds`` and the reported latency is their
        sum.
        """
        dataset, key, fingerprint = self._prepare(request)
        with _telemetry.span("service.request", dataset=dataset.name) as request_span:
            start = time.perf_counter()
            record, source = self._cache_lookup(key)
            if record is not None:
                response = self._response_from_record(
                    request,
                    record,
                    source,
                    queue_seconds,
                    time.perf_counter() - start,
                )
            else:
                try:
                    consensus, score, algorithm = self._compute(request, dataset)
                except Exception as error:  # noqa: BLE001 — degrade, don't abort
                    response = degraded_response(
                        request.request_id,
                        status="failed",
                        error=f"{type(error).__name__}: {error}",
                        queue_seconds=queue_seconds,
                        execution_seconds=time.perf_counter() - start,
                    )
                else:
                    self._cache_store(key, consensus, score, algorithm, fingerprint)
                    execution = time.perf_counter() - start
                    response = ServiceResponse(
                        request_id=request.request_id,
                        consensus=consensus,
                        score=score,
                        algorithm=algorithm,
                        source="computed",
                        latency_seconds=queue_seconds + execution,
                        queue_seconds=queue_seconds,
                        execution_seconds=execution,
                    )
            if _telemetry.is_enabled():
                request_span.set(source=response.source, algorithm=response.algorithm)
        return response

    def _cache_lookup(self, key: str) -> tuple[dict[str, Any] | None, str]:
        """Look ``key`` up, reporting which tier served it."""
        if self.cache is None:
            return None, "none"
        if isinstance(self.cache, TieredResultCache):
            return self.cache.lookup_with_source(key)
        record = self.cache.lookup(key)
        return record, "disk" if record is not None else "none"

    def _cache_store(
        self,
        key: str,
        consensus: Ranking,
        score: int,
        algorithm: str,
        fingerprint: str,
    ) -> None:
        if self.cache is None:
            return
        # Buckets are stored as typed JSON lists — a text round-trip through
        # the dataset format would coerce numeric-looking string elements
        # (e.g. '01' -> 1) and is not parse-stable for every str().  The
        # dataset fingerprint makes the record addressable by
        # invalidate(dataset_fingerprint=...) — the write path of live
        # serving purges stale consensuses through it.
        self.cache.store(
            key,
            {
                "kind": "service",
                "consensus_buckets": [list(bucket) for bucket in consensus.buckets],
                "score": int(score),
                "algorithm": algorithm,
                "dataset_fingerprint": fingerprint,
            },
        )

    @staticmethod
    def _response_from_record(
        request: ServiceRequest,
        record: dict[str, Any],
        source: str,
        queue_seconds: float,
        execution_seconds: float,
    ) -> ServiceResponse:
        return ServiceResponse(
            request_id=request.request_id,
            consensus=Ranking(record["consensus_buckets"]),
            score=int(record["score"]),
            algorithm=str(record["algorithm"]),
            source=source,
            latency_seconds=queue_seconds + execution_seconds,
            queue_seconds=queue_seconds,
            execution_seconds=execution_seconds,
        )

    def _compute(
        self, request: ServiceRequest, dataset: Dataset
    ) -> tuple[Ranking, int, str]:
        """Execute one request: pinned algorithm or portfolio race.

        Either path runs off the dataset's memoized preparation plan
        (:meth:`~repro.datasets.Dataset.prepared`): the pinned-algorithm
        branch through ``aggregate`` / the anytime protocol, the portfolio
        branch through the scheduler's shared plan — one O(m·n²) build per
        computed request, however many candidates end up racing.
        """
        budget = _budget(request, self.default_budget_seconds)
        if request.algorithm is not None:
            algorithm = make_algorithm(request.algorithm, seed=self.seed)
            if supports_anytime(algorithm) and budget is not None:
                result = run_anytime(algorithm, dataset, budget)
            else:
                result = algorithm.aggregate(dataset)
            return result.consensus, int(result.score), request.algorithm
        scheduler = PortfolioScheduler(
            budget_seconds=budget,
            priority=request.priority,
            seed=self.seed,
        )
        outcome = scheduler.run(dataset)
        return outcome.consensus, outcome.score, outcome.algorithm

    def __repr__(self) -> str:
        return (
            f"ServiceFrontend(cache={self.cache!r}, "
            f"default_budget_seconds={self.default_budget_seconds}, "
            f"requests={self._stats.requests})"
        )
