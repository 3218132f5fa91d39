"""Differential test: every serving path gives the same answers.

The same seeded requests (m=7, n=30; ``BordaCount`` and ``KwikSort``
pinned, one frontend seed) go through ``ServiceFrontend.submit``,
``ServiceFrontend.submit_batch`` (with duplicates, so some coalesce) and
``serve-http``'s server in thread and in process mode.  Every answer must
carry the result fingerprint of the direct in-process submission.

The socket runs also check the per-shard accounting: each shard's
``GET /stats`` registry must count exactly the coalesced followers and
``overloaded`` refusals its responses report.  The shard workers are
slowed by an injected ``shard.worker`` fault so that concurrent
duplicates coalesce and a two-slot admission queue refuses; the check
compares counts with responses, so it holds however the timing falls.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.generators import uniform_dataset
from repro.service import ServiceFrontend, ServiceRequest
from repro.service.http import (
    AsyncHttpClient,
    HttpAggregationServer,
    response_payload,
    result_fingerprint,
)
from repro.testing.faults import ENV_VAR, FaultInjector, FaultRule

SEED = 2015
ALGORITHMS = ("BordaCount", "KwikSort")
# Two datasets on each shard of a two-shard ring.
DATASETS = [uniform_dataset(7, 30, rng) for rng in (3, 6, 8, 9)]
COPIES = 2
# The count fields of a ``ServiceStats.describe()`` registry.
COUNTS = (
    "requests",
    "computed",
    "memory_hits",
    "disk_hits",
    "coalesced",
    "rejected",
    "deadline_misses",
    "failed",
)


def _requests(copies: int) -> list[ServiceRequest]:
    """One request per (copy, dataset, algorithm); copies share a key."""
    return [
        ServiceRequest(
            dataset, algorithm=algorithm, request_id=f"{index}:{algorithm}:{copy}"
        )
        for copy in range(copies)
        for index, dataset in enumerate(DATASETS)
        for algorithm in ALGORITHMS
    ]


def _computation(request_id: str) -> str:
    """The (dataset, algorithm) part of a request id."""
    return request_id.rsplit(":", 1)[0]


@pytest.fixture(scope="module")
def reference() -> dict[str, str]:
    """Result fingerprint per (dataset, algorithm), by direct submission."""
    frontend = ServiceFrontend(None, default_budget_seconds=None, seed=SEED)
    return {
        _computation(request.request_id): result_fingerprint(
            response_payload(frontend.submit(request))
        )
        for request in _requests(1)
    }


def test_submit_batch_matches_direct_submission(reference):
    frontend = ServiceFrontend(None, default_budget_seconds=None, seed=SEED)
    responses = frontend.submit_batch(_requests(COPIES))
    for response in responses:
        assert response.status == "ok"
        assert (
            result_fingerprint(response_payload(response))
            == reference[_computation(response.request_id)]
        )
    sources = Counter(response.source for response in responses)
    assert sources["coalesced"] == len(reference) * (COPIES - 1)
    assert frontend.stats().coalesced == sources["coalesced"]


async def _serve(server: HttpAggregationServer) -> list[dict]:
    """Send every request at once, then resend the refused ones in turn."""
    requests = _requests(COPIES)
    clients = [AsyncHttpClient(server.host, server.port) for _ in requests]
    try:
        answers = list(
            await asyncio.gather(
                *(
                    client.aggregate(
                        request.dataset,
                        algorithm=request.algorithm,
                        request_id=request.request_id,
                    )
                    for client, request in zip(clients, requests)
                )
            )
        )
        for request, client in zip(requests, clients):
            if any(
                payload["request_id"] == request.request_id
                and payload["status"] == "ok"
                for _, payload in answers
            ):
                continue
            answers.append(
                await client.aggregate(
                    request.dataset,
                    algorithm=request.algorithm,
                    request_id=request.request_id,
                )
            )
    finally:
        for client in clients:
            await client.close()
    return [payload for _, payload in answers]


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_socket_paths_match_and_shard_stats_count_every_answer(
    mode, reference, tmp_path, monkeypatch
):
    slow = FaultInjector(
        seed=1,
        rules=(FaultRule(site="shard.worker", kind="slow", delay_seconds=0.2),),
    )
    monkeypatch.setenv(ENV_VAR, slow.to_env())

    async def scenario():
        server = HttpAggregationServer(
            str(tmp_path / mode),
            shards=2,
            mode=mode,
            max_pending=2,
            default_budget_seconds=None,
            seed=SEED,
        )
        await server.start()
        try:
            payloads = await _serve(server)
            async with AsyncHttpClient(server.host, server.port) as client:
                _, stats = await client.server_stats()
        finally:
            await server.drain()
        return server, payloads, stats

    server, payloads, stats = asyncio.run(scenario())

    answered = [payload for payload in payloads if payload["status"] == "ok"]
    assert {payload["request_id"] for payload in answered} == {
        request.request_id for request in _requests(COPIES)
    }
    for payload in answered:
        assert result_fingerprint(payload) == reference[
            _computation(payload["request_id"])
        ]
    assert all(
        payload["status"] in ("ok", "overloaded") for payload in payloads
    ), payloads

    # Attribute every response (refusals carry no shard) by routing.
    shard_of = {
        request.request_id: server.pool.route(request.dataset.content_fingerprint())
        for request in _requests(COPIES)
    }
    for shard, entry in stats["pool"]["by_shard"].items():
        mine = [p for p in payloads if shard_of[p["request_id"]] == shard]
        registry = entry["frontend"]
        assert registry["requests"] == len(mine)
        assert registry["coalesced"] == sum(
            p["source"] == "coalesced" for p in mine
        )
        assert registry["rejected"] == sum(p["source"] == "rejected" for p in mine)
    # server.service is the field-wise sum of the shard registries.
    registries = [entry["frontend"] for entry in stats["pool"]["by_shard"].values()]
    service = stats["server"]["service"]
    assert service["requests"] == len(payloads)
    for key in COUNTS:
        assert service[key] == sum(registry[key] for registry in registries), key
    for key in ("latency_max_seconds", "queue_max_seconds", "execution_max_seconds"):
        assert service[key] == max(registry[key] for registry in registries), key
    for key in ("latency_mean_seconds", "queue_mean_seconds", "execution_mean_seconds"):
        assert service[key] == pytest.approx(
            sum(r[key] * r["requests"] for r in registries) / service["requests"]
        ), key
