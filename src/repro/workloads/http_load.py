"""Load generator: one seeded schedule, driven in process or over a socket.

Real serving traffic is heavily repetitive — a few popular inputs account
for most requests.  :func:`build_http_schedule` turns the scenario catalog
into such a stream: the distinct datasets of one or more scenarios become
the request population, a Zipf-like popularity law decides how often each
is asked for, and every slot is pre-encoded as the exact ``POST
/aggregate`` body it sends.  Two drivers replay one schedule and return
one report shape:

* :func:`drive_http_load` drives a running
  :class:`~repro.service.http.HttpAggregationServer` through real
  connections, **closed loop** (``concurrency`` workers, each with its
  own keep-alive connection, firing its next request the moment the
  previous answer lands — saturated throughput) or **open loop**
  (requests fire at schedule-fixed offsets, seeded exponential
  inter-arrivals at ``rate`` req/s, regardless of how fast answers come
  back, so queueing delay shows up in the latency tail instead of
  silently throttling the offered load);
* :func:`run_inprocess_load` replays the schedule through an in-process
  :class:`~repro.service.ServiceFrontend`, ``concurrency`` consecutive
  slots per :meth:`~repro.service.ServiceFrontend.submit_batch`, so
  requests in flight together coalesce as they do across connections.
  The ``repro-rankagg serve`` command is a thin wrapper over it.

Everything about a run is **deterministic from the profile's seed**: the
request population, the Zipf popularity draw, the open-loop arrival
offsets and the per-request wire payloads are all fixed by
:func:`build_http_schedule`, and :meth:`HttpSchedule.fingerprint` digests
the whole schedule so a replay can assert byte-identical construction.
The report likewise digests every answer's content
(:func:`~repro.service.http.protocol.result_fingerprint`, in schedule
order) into ``results_fingerprint`` — two runs against the same server
state, or one schedule through either driver, must produce the same
value: the load generator's determinism contract, pinned by
``tests/workloads/test_{http_load,load_transports}.py``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from ..datasets.dataset import Dataset
from ..service.frontend import ServiceFrontend
from ..service.http.client import AsyncHttpClient
from ..service.http.protocol import (
    decode_aggregate_request,
    encode_aggregate_request,
    response_payload,
    result_fingerprint,
)
from .scenario import get_scenario

__all__ = [
    "HttpLoadProfile",
    "HttpSchedule",
    "ScheduledRequest",
    "build_http_schedule",
    "drive_http_load",
    "run_inprocess_load",
]


@dataclass(frozen=True)
class HttpLoadProfile:
    """Shape of one load run (either driver).

    Attributes
    ----------
    scenarios:
        Scenario names whose datasets form the request population.
    scale:
        Scenario scale preset the datasets are built at.
    num_requests:
        Total requests in the schedule.
    skew:
        Zipf exponent of the popularity law over the distinct datasets.
    priority:
        Guidance priority carried by every request.
    budget_seconds:
        Per-request compute budget.
    deadline_seconds:
        Per-request total-latency deadline (``None`` = no deadline).
    algorithm:
        Pin one registry algorithm on every request (``None`` races the
        guidance portfolio).
    loop:
        ``"closed"`` (concurrency-limited) or ``"open"``
        (arrival-rate-limited).
    concurrency:
        Closed-loop worker count (also the open-loop connection-pool
        floor); in process, the slots per ``submit_batch`` call.
    rate:
        Open-loop mean arrival rate in requests/second.
    seed:
        Base seed fixing the population, the popularity draw and the
        arrival offsets.
    """

    scenarios: tuple[str, ...] = ("mallows-ties-diffuse", "markov-similarity")
    scale: str = "smoke"
    num_requests: int = 50
    skew: float = 1.1
    priority: str = "balanced"
    budget_seconds: float = 0.25
    deadline_seconds: float | None = None
    algorithm: str | None = None
    loop: str = "closed"
    concurrency: int = 4
    rate: float = 50.0
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.loop not in ("closed", "open"):
            raise ValueError(f"loop must be 'closed' or 'open', got {self.loop!r}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def describe(self) -> dict[str, Any]:
        """Flat dictionary form (embedded in the load report)."""
        return {**asdict(self), "scenarios": list(self.scenarios)}


@dataclass(frozen=True)
class ScheduledRequest:
    """One slot of an HTTP load schedule.

    Attributes
    ----------
    position:
        Zero-based slot in the schedule (also the report order).
    offset_seconds:
        Open-loop arrival offset from the run start (0.0 throughout a
        closed-loop schedule, where workers self-pace).
    dataset_index:
        Index into the schedule's dataset population.
    wire:
        The exact JSON body this slot sends (pre-encoded, so a replay is
        byte-identical by construction).
    """

    position: int
    offset_seconds: float
    dataset_index: int
    wire: dict[str, Any]


@dataclass(frozen=True)
class HttpSchedule:
    """A fully materialised, seed-deterministic request schedule.

    Attributes
    ----------
    profile:
        The profile the schedule was built from.
    requests:
        The schedule slots, in firing order.
    num_datasets:
        Size of the distinct-dataset population behind the slots.
    """

    profile: HttpLoadProfile
    requests: tuple[ScheduledRequest, ...]
    num_datasets: int

    def fingerprint(self) -> str:
        """SHA-256 digest of the whole schedule (profile + every slot).

        Two calls to :func:`build_http_schedule` with equal profiles must
        produce equal fingerprints — the replay-determinism contract.
        """
        document = {
            "profile": self.profile.describe(),
            "num_datasets": self.num_datasets,
            "requests": [
                {
                    "position": slot.position,
                    "offset_seconds": round(slot.offset_seconds, 9),
                    "dataset_index": slot.dataset_index,
                    "wire": slot.wire,
                }
                for slot in self.requests
            ],
        }
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.requests)


def _population(profile: HttpLoadProfile) -> list[Dataset]:
    """The distinct datasets of the profile's scenarios, in catalog order."""
    datasets: list[Dataset] = []
    for name in profile.scenarios:
        datasets.extend(get_scenario(name).build(profile.scale, profile.seed))
    if not datasets:
        raise ValueError(f"http-load profile selects no dataset: {profile}")
    return datasets


def build_http_schedule(profile: HttpLoadProfile | None = None) -> HttpSchedule:
    """Materialise the deterministic schedule described by ``profile``.

    Dataset ``i`` of the population is drawn with probability
    proportional to ``1 / (i + 1) ** skew`` — the classic Zipf popularity
    law — so the stream repeats a few datasets often and the rest rarely,
    which is what makes cache tiers and coalescing observable; open-loop
    arrival offsets accumulate exponential inter-arrival gaps with mean
    ``1 / rate``.  Both draws come from one seeded generator, so the whole
    schedule — offsets, dataset choices, wire payloads — is a pure
    function of the profile.

    Parameters
    ----------
    profile:
        Load shape; defaults to :class:`HttpLoadProfile`'s defaults.
    """
    profile = profile or HttpLoadProfile()
    datasets = _population(profile)
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [profile.seed, len(datasets), profile.num_requests]
        )
    )
    weights = 1.0 / np.power(np.arange(1, len(datasets) + 1), profile.skew)
    weights /= weights.sum()
    choices = rng.choice(len(datasets), size=profile.num_requests, p=weights)
    if profile.loop == "open":
        gaps = rng.exponential(1.0 / profile.rate, size=profile.num_requests)
        offsets = np.cumsum(gaps)
    else:
        offsets = np.zeros(profile.num_requests)
    slots = []
    for position, index in enumerate(choices):
        dataset = datasets[int(index)]
        wire = encode_aggregate_request(
            dataset,
            priority=profile.priority,
            budget_seconds=profile.budget_seconds,
            deadline_seconds=profile.deadline_seconds,
            algorithm=profile.algorithm,
            request_id=f"http-{position:05d}",
        )
        slots.append(
            ScheduledRequest(
                position=position,
                offset_seconds=float(offsets[position]),
                dataset_index=int(index),
                wire=wire,
            )
        )
    return HttpSchedule(
        profile=profile, requests=tuple(slots), num_datasets=len(datasets)
    )


async def drive_http_load(
    schedule: HttpSchedule,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_socket: str | None = None,
) -> dict[str, Any]:
    """Drive one schedule against a running server (async form).

    Use this inside an existing event loop (the in-process test suite
    starts server and load generator on one loop), or wrap it in
    :func:`asyncio.run` for CLI / benchmark use.

    Parameters
    ----------
    schedule:
        The schedule to drive (:func:`build_http_schedule`).
    host:
        Server address (TCP transport).
    port:
        Server port (TCP transport).
    unix_socket:
        Connect over a unix domain socket at this path instead of TCP.

    Returns
    -------
    dict
        The load report: latency percentiles (p50/p99/p999), throughput,
        per-status and per-source tallies, the schedule fingerprint and
        the order-sensitive digest of every answer's content
        (``results_fingerprint``).
    """
    profile = schedule.profile
    records: list[dict[str, Any] | None] = [None] * len(schedule.requests)

    def _make_client() -> AsyncHttpClient:
        return AsyncHttpClient(host, port, unix_socket=unix_socket)

    started = time.perf_counter()
    if profile.loop == "closed":
        queue: asyncio.Queue[ScheduledRequest] = asyncio.Queue()
        for slot in schedule.requests:
            queue.put_nowait(slot)

        async def _worker() -> None:
            client = _make_client()
            try:
                while True:
                    try:
                        slot = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    records[slot.position] = await _fire(client, slot)
            finally:
                await client.close()

        await asyncio.gather(
            *(_worker() for _ in range(profile.concurrency))
        )
    else:
        pool: list[AsyncHttpClient] = [
            _make_client() for _ in range(profile.concurrency)
        ]

        async def _timed(slot: ScheduledRequest) -> None:
            delay = slot.offset_seconds - (time.perf_counter() - started)
            if delay > 0:
                await asyncio.sleep(delay)
            client = pool.pop() if pool else _make_client()
            try:
                records[slot.position] = await _fire(client, slot)
            finally:
                pool.append(client)

        try:
            await asyncio.gather(
                *(_timed(slot) for slot in schedule.requests)
            )
        finally:
            for client in pool:
                await client.close()
    wall_seconds = time.perf_counter() - started
    return _load_report(
        schedule, records, wall_seconds, unix_socket or f"{host}:{port}"
    )


def run_inprocess_load(
    schedule: HttpSchedule, frontend: ServiceFrontend
) -> dict[str, Any]:
    """Drive one schedule through an in-process frontend (no socket).

    Every slot's wire body is decoded with
    :func:`~repro.service.http.protocol.decode_aggregate_request` and its
    dataset fingerprinted (as the socket path does to route it) before
    the timed region; then each ``concurrency`` consecutive slots go in as
    one :meth:`~repro.service.ServiceFrontend.submit_batch`, so requests
    in flight together coalesce as they do across connections.  Open-loop
    offsets are not waited for; a slot's latency is the frontend's own.

    Parameters
    ----------
    schedule:
        The schedule to drive (:func:`build_http_schedule`).
    frontend:
        The serving frontend under load.

    Returns
    -------
    dict
        The :func:`drive_http_load` report (``transport`` is
        ``"in-process"``) plus ``distinct_datasets`` and the frontend's
        session statistics (``frontend``).
    """
    requests = [decode_aggregate_request(slot.wire) for slot in schedule.requests]
    for request in requests:
        request.dataset.content_fingerprint()
    step = schedule.profile.concurrency
    responses = []
    started = time.perf_counter()
    for begin in range(0, len(requests), step):
        responses.extend(frontend.submit_batch(requests[begin : begin + step]))
    wall_seconds = time.perf_counter() - started
    records = [
        _record(response_payload(response), response.latency_seconds)
        for response in responses
    ]
    report = _load_report(schedule, records, wall_seconds, "in-process")
    report["distinct_datasets"] = len(
        {slot.dataset_index for slot in schedule.requests}
    )
    report["frontend"] = frontend.describe()
    return report


def _load_report(
    schedule: HttpSchedule,
    records: list[dict[str, Any]],
    wall_seconds: float,
    transport: str,
) -> dict[str, Any]:
    """The one report shape of both drivers, from per-slot records."""
    by_status: dict[str, int] = {}
    by_source: dict[str, int] = {}
    for record in records:
        by_status[record["status"]] = by_status.get(record["status"], 0) + 1
        by_source[record["source"]] = by_source.get(record["source"], 0) + 1
    latencies = np.array(
        [record["latency_seconds"] for record in records] or [0.0]
    )
    digest = hashlib.sha256()
    for record in records:
        digest.update(record["result_fingerprint"].encode("ascii"))
    return {
        "report": "http-load",
        "profile": schedule.profile.describe(),
        "transport": transport,
        "num_requests": len(schedule.requests),
        "completed": len(records),
        "failed": int(by_status.get("failed", 0)),
        "by_status": dict(sorted(by_status.items())),
        "by_source": dict(sorted(by_source.items())),
        "latency_seconds": {
            "p50": float(np.percentile(latencies, 50)),
            "p99": float(np.percentile(latencies, 99)),
            "p999": float(np.percentile(latencies, 99.9)),
            "mean": float(latencies.mean()),
            "max": float(latencies.max()),
        },
        "wall_seconds": wall_seconds,
        "throughput_rps": (
            len(records) / wall_seconds if wall_seconds > 0 else 0.0
        ),
        "schedule_fingerprint": schedule.fingerprint(),
        "results_fingerprint": digest.hexdigest(),
        "result_fingerprints": [
            record["result_fingerprint"] for record in records
        ],
    }


async def _fire(
    client: AsyncHttpClient, slot: ScheduledRequest
) -> dict[str, Any]:
    """Send one scheduled request and distill its record.

    Transport-level trouble (connection refused mid-run, a drained
    server hanging up) becomes a ``failed`` record with
    ``source="transport"`` — the report's ``failed`` tally must count
    it, not a traceback.
    """
    sent = time.perf_counter()
    try:
        _code, payload = await client.request("POST", "/aggregate", slot.wire)
    except (OSError, asyncio.IncompleteReadError) as error:
        await client.close()
        payload = {
            "status": "failed",
            "source": "transport",
            "error": f"transport: {error}",
        }
    return _record(payload, time.perf_counter() - sent)


def _record(payload: dict[str, Any], latency_seconds: float) -> dict[str, Any]:
    """One slot's report record, distilled from its response wire payload."""
    return {
        "status": str(payload.get("status") or "failed"),
        "source": str(payload.get("source") or "unknown"),
        "latency_seconds": latency_seconds,
        "result_fingerprint": result_fingerprint(payload),
    }
