"""Socket-path serving tests: an in-process server on an ephemeral port.

Every test starts a real :class:`~repro.service.http.HttpAggregationServer`
on ``127.0.0.1:0`` (the kernel picks a free port) and drives it through
real connections with :class:`~repro.service.http.AsyncHttpClient` — the
full wire path, no mocked transport.

Timing-sensitive behaviours (coalescing, deadline expiry, admission
refusal, the drain window) are made deterministic by wrapping a shard
frontend's ``submit`` in a fixed sleep: the shard is then *known* to be
busy when the next request arrives, instead of hoping a real compute is
slow enough.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.datasets.io import dumps, format_ranking
from repro.generators import uniform_dataset
from repro.service import counters
from repro.service.http import AsyncHttpClient, HttpAggregationServer
from repro.telemetry import runtime
from repro.testing.faults import ENV_VAR, FaultInjector, FaultRule


def _slow_down(server: HttpAggregationServer, shard: str, delay: float) -> None:
    """Make one shard's submit path take at least ``delay`` seconds."""
    frontend = server.pool.frontend_of(shard)
    original = frontend.submit

    def slow_submit(request, **kwargs):
        time.sleep(delay)
        return original(request, **kwargs)

    frontend.submit = slow_submit


async def _start(tmp_path, **kwargs) -> tuple[HttpAggregationServer, AsyncHttpClient]:
    defaults = dict(shards=2, seed=11, default_budget_seconds=0.05)
    defaults.update(kwargs)
    server = HttpAggregationServer(str(tmp_path / "cache"), **defaults)
    await server.start()
    return server, AsyncHttpClient(server.host, server.port)


def test_requests_route_by_dataset_fingerprint(tmp_path):
    async def scenario():
        server, client = await _start(tmp_path, shards=3)
        try:
            for index in range(6):
                dataset = uniform_dataset(4, 6, 100 + index)
                expected = server.pool.route(dataset.content_fingerprint())
                first = second = None
                for attempt in range(2):
                    code, payload = await client.aggregate(dataset)
                    assert code == 200 and payload["status"] == "ok"
                    if attempt == 0:
                        first = payload["shard"]
                    else:
                        second = payload["shard"]
                # Same fingerprint → same shard, and the shard the ring
                # predicts: routing is a pure function of content.
                assert first == second == expected
        finally:
            await client.close()
            await server.drain()

    asyncio.run(scenario())


def test_identical_requests_coalesce_across_connections(tmp_path):
    async def scenario():
        server, leader_client = await _start(tmp_path, shards=1)
        follower_client = AsyncHttpClient(server.host, server.port)
        try:
            _slow_down(server, "shard-0", 0.3)
            dataset = uniform_dataset(4, 6, 7)
            leader_task = asyncio.create_task(leader_client.aggregate(dataset))
            await asyncio.sleep(0.05)  # leader is now inside its 0.3s submit
            follower_code, follower = await follower_client.aggregate(dataset)
            leader_code, leader = await leader_task
            assert leader_code == follower_code == 200
            assert leader["source"] == "computed"
            assert follower["source"] == "coalesced"
            # The follower shares the leader's answer verbatim.
            assert follower["consensus"] == leader["consensus"]
            assert follower["score"] == leader["score"]
            assert follower["execution_seconds"] == 0.0
            # And both are accounted in the shard frontend's registry.
            stats = server.pool.frontend_of("shard-0").describe()
            assert stats["requests"] == 2
        finally:
            await leader_client.close()
            await follower_client.close()
            await server.drain()

    asyncio.run(scenario())


def test_omitted_budget_coalesces_with_the_explicit_default(tmp_path):
    # Both requests have the same cache key (the pool fills in its default
    # budget), so they must share one computation too.
    async def scenario():
        server, leader_client = await _start(tmp_path, shards=1)
        follower_client = AsyncHttpClient(server.host, server.port)
        try:
            _slow_down(server, "shard-0", 0.3)
            dataset = uniform_dataset(4, 6, 8)
            leader_task = asyncio.create_task(leader_client.aggregate(dataset))
            await asyncio.sleep(0.05)
            code, follower = await follower_client.aggregate(
                dataset, budget_seconds=server.default_budget_seconds
            )
            leader_code, leader = await leader_task
            assert leader_code == code == 200
            assert leader["source"] == "computed"
            assert follower["source"] == "coalesced"
            assert follower["consensus"] == leader["consensus"]
        finally:
            await leader_client.close()
            await follower_client.close()
            await server.drain()

    asyncio.run(scenario())


def test_failed_dispatch_answers_500_with_source_error(tmp_path, monkeypatch):
    injector = FaultInjector(
        seed=5, rules=(FaultRule(site="shard.worker", kind="exception"),)
    )
    monkeypatch.setenv(ENV_VAR, injector.to_env())

    async def scenario():
        server, client = await _start(tmp_path, shards=1)
        try:
            code, payload = await client.aggregate(uniform_dataset(4, 6, 9))
            assert code == 500
            assert payload["status"] == "failed"
            assert payload["source"] == "error"
            assert payload["consensus"] is None
            assert payload["error"].startswith("TransientRunError:")
            stats = server.pool.frontend_of("shard-0").describe()
            assert stats["failed"] == 1
            assert server.pool.stats().failed == 1
        finally:
            await client.close()
            await server.drain()

    asyncio.run(scenario())


def test_deadline_expires_in_shard_queue(tmp_path):
    async def scenario():
        server, blocker_client = await _start(tmp_path, shards=1)
        late_client = AsyncHttpClient(server.host, server.port)
        try:
            _slow_down(server, "shard-0", 0.3)
            blocker_task = asyncio.create_task(
                blocker_client.aggregate(uniform_dataset(4, 6, 1))
            )
            await asyncio.sleep(0.05)
            # A *different* dataset (no coalescing) with a deadline far
            # shorter than the 0.3s the shard will stay busy.
            code, payload = await late_client.aggregate(
                uniform_dataset(4, 6, 2), deadline_seconds=0.05
            )
            assert code == 504
            assert payload["status"] == "deadline"
            assert payload["consensus"] is None
            assert "deadline" in payload["error"]
            blocker_code, blocker = await blocker_task
            assert blocker_code == 200 and blocker["status"] == "ok"
            # The expiry is accounted in the shard frontend's registry.
            assert (
                server.pool.frontend_of("shard-0").describe()["deadline_misses"]
                == 1
            )
            assert server.pool.stats().deadline_misses == 1
        finally:
            await blocker_client.close()
            await late_client.close()
            await server.drain()

    asyncio.run(scenario())


def test_full_queue_answers_structured_overloaded(tmp_path):
    async def scenario():
        server, blocker_client = await _start(tmp_path, shards=1, max_pending=1)
        burst_client = AsyncHttpClient(server.host, server.port)
        try:
            _slow_down(server, "shard-0", 0.3)
            blocker_task = asyncio.create_task(
                blocker_client.aggregate(uniform_dataset(4, 6, 1))
            )
            await asyncio.sleep(0.05)  # the one admission slot is taken
            code, payload = await burst_client.aggregate(uniform_dataset(4, 6, 2))
            assert code == 503
            assert payload["status"] == "overloaded"
            assert payload["source"] == "rejected"
            assert "max_pending=1" in payload["error"]
            blocker_code, _ = await blocker_task
            assert blocker_code == 200
            assert server.pool.stats().rejected == 1
            assert server.pool.frontend_of("shard-0").describe()["rejected"] == 1
        finally:
            await blocker_client.close()
            await burst_client.close()
            await server.drain()

    asyncio.run(scenario())


def test_live_mutate_repair_republish_round_trip(tmp_path):
    async def scenario():
        server, client = await _start(tmp_path)
        try:
            dataset = uniform_dataset(5, 8, 3)
            text = dumps(dataset, include_header=False)
            code, opened = await client.request(
                "POST",
                "/live/rt/open",
                {"dataset": text, "budget_seconds": 0.05},
            )
            assert code == 200 and opened["num_rankings"] == 5

            line = format_ranking(dataset.rankings[0])
            code, mutated = await client.request(
                "POST", "/live/rt/mutate", {"op": "add", "ranking": line}
            )
            assert code == 200
            assert mutated["generation"] == 1
            assert mutated["num_rankings"] == 6
            assert mutated["stale"] is True

            code, repaired = await client.request("POST", "/live/rt/repair", {})
            assert code == 200
            assert repaired["generation"] == 1
            assert repaired["consensus"]

            # Re-publish contract: a request for the *mutated* content,
            # pinned to the session's algorithm and budget, must be a
            # cache hit on its shard — the repair already paid for it.
            from repro.core.live import LiveDataset

            live = LiveDataset(dataset.rankings, name="rt")
            live.add_ranking(dataset.rankings[0])
            code, served = await client.aggregate(
                live.snapshot(), algorithm="BioConsert", budget_seconds=0.05
            )
            assert code == 200
            assert served["source"] in ("disk", "memory"), served["source"]
            assert served["score"] == repaired["score"]

            # The serve endpoint agrees the session is fresh again.
            code, current = await client.request("GET", "/live/rt")
            assert code == 200
            assert current["generation"] == 1
            assert current["score"] == repaired["score"]
        finally:
            await client.close()
            await server.drain()

    asyncio.run(scenario())


def test_graceful_drain_completes_inflight_requests(tmp_path):
    async def scenario():
        server, slow_client = await _start(tmp_path, shards=1)
        bystander = AsyncHttpClient(server.host, server.port)
        try:
            code, _ = await bystander.healthz()  # establish the connection
            assert code == 200
            _slow_down(server, "shard-0", 0.3)
            inflight_task = asyncio.create_task(
                slow_client.aggregate(uniform_dataset(4, 6, 1))
            )
            await asyncio.sleep(0.05)
            drain_task = asyncio.create_task(server.drain())
            await asyncio.sleep(0.05)
            # New connections are refused: the listener is closed.
            with pytest.raises(OSError):
                probe = AsyncHttpClient(server.host, server.port)
                await probe.healthz()
            # The kept-alive connection gets a structured draining answer.
            code, payload = await bystander.aggregate(uniform_dataset(4, 6, 2))
            assert code == 503
            assert payload["status"] == "draining"
            # The request that was already executing completes normally.
            code, payload = await inflight_task
            assert code == 200
            assert payload["status"] == "ok"
            assert payload["consensus"] is not None
            await drain_task
            assert server.draining
            # The refusal is counted once, in the home shard's registry.
            assert server.pool.stats().rejected == 1
            assert server.pool.frontend_of("shard-0").stats().rejected == 1
        finally:
            await slow_client.close()
            await bystander.close()

    with runtime.session() as active:
        asyncio.run(scenario())
    # A drain refusal ticks the same instruments an overload refusal does.
    assert active.metrics.get(counters.HTTP_REJECTED).value(reason="draining") == 1
    assert (
        active.metrics.get(counters.SERVICE_REJECTED).value(reason="draining") == 1
    )


def test_process_mode_serves_and_caches(tmp_path):
    async def scenario():
        server, client = await _start(tmp_path, shards=2, mode="process")
        try:
            dataset = uniform_dataset(4, 6, 9)
            code, first = await client.aggregate(dataset)
            assert code == 200 and first["source"] == "computed"
            code, second = await client.aggregate(dataset)
            assert code == 200 and second["source"] in ("memory", "disk")
            assert second["score"] == first["score"]
            # /stats reaches across the process boundary for accounting.
            code, stats = await client.server_stats()
            frontends = stats["pool"]["by_shard"]
            assert sum(entry["frontend"]["requests"] for entry in frontends.values()) == 2
        finally:
            await client.close()
            await server.drain()

    asyncio.run(scenario())


def test_malformed_bodies_answer_structured_400(tmp_path):
    async def scenario():
        server, client = await _start(tmp_path)
        try:
            code, payload = await client.request("POST", "/aggregate", {})
            assert code == 400 and "dataset" in payload["error"]
            code, payload = await client.request(
                "POST", "/aggregate", {"dataset": "[[A],[B]]", "priority": "bogus"}
            )
            assert code == 400 and "priority" in payload["error"]
            code, payload = await client.request("GET", "/nowhere")
            assert code == 404
            assert server.stats.bad_requests == 2
        finally:
            await client.close()
            await server.drain()

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "field, value",
    [
        ("budget_seconds", float("nan")),
        ("budget_seconds", float("inf")),
        ("deadline_seconds", float("nan")),
        ("budget_seconds", True),
    ],
    ids=["budget-nan", "budget-infinity", "deadline-nan", "budget-true"],
)
def test_non_finite_and_boolean_numbers_answer_400(tmp_path, field, value):
    # json emits NaN/Infinity literals, which Python's json also parses.
    async def scenario():
        server, client = await _start(tmp_path, shards=1)
        try:
            code, payload = await client.request(
                "POST", "/aggregate", {"dataset": "[[A],[B]]", field: value}
            )
            assert code == 400
            assert payload["status"] == "invalid"
            assert field in payload["error"]
            assert "must be a finite number" in payload["error"]
            assert server.stats.bad_requests == 1
        finally:
            await client.close()
            await server.drain()

    asyncio.run(scenario())


def test_oversized_body_answers_structured_413(tmp_path):
    async def scenario():
        server, client = await _start(tmp_path)
        try:
            # Declare a body beyond the cap; the server must refuse on the
            # headers alone — reading 64 MiB it will then throw away would
            # be a memory-pressure attack surface.
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            declared = 64 * 1024 * 1024 + 1
            writer.write(
                (
                    "POST /aggregate HTTP/1.1\r\n"
                    f"Host: {server.host}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {declared}\r\n"
                    "\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            status_line = await reader.readline()
            assert b"413" in status_line
            headers = {}
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            # The connection is poisoned (unread body bytes may follow),
            # so the server closes it after answering.
            assert headers.get("connection", "").lower() == "close"
            body = await reader.readexactly(int(headers["content-length"]))
            import json as _json

            payload = _json.loads(body)
            assert payload["status"] == "too_large"
            writer.close()
            assert server.stats.too_large == 1
            # The server stays healthy for well-formed traffic.
            code, payload = await client.aggregate(uniform_dataset(4, 6, 41))
            assert code == 200 and payload["status"] == "ok"
        finally:
            await client.close()
            await server.drain()

    asyncio.run(scenario())


def test_stale_unix_socket_is_replaced_and_cleaned_up(tmp_path):
    async def scenario():
        socket_path = tmp_path / "repro.sock"
        # A crashed prior run left a dead socket file behind.
        socket_path.touch()
        server = HttpAggregationServer(
            str(tmp_path / "cache"),
            shards=1,
            seed=11,
            default_budget_seconds=0.05,
            unix_socket=socket_path,
        )
        await server.start()
        client = AsyncHttpClient(unix_socket=str(socket_path))
        try:
            code, payload = await client.healthz()
            assert code == 200 and payload["status"] == "ok"
            # A second server must refuse the *live* socket, not steal it.
            squatter = HttpAggregationServer(
                str(tmp_path / "cache2"),
                shards=1,
                seed=11,
                unix_socket=socket_path,
            )
            with pytest.raises(OSError, match="live server"):
                await squatter.start()
            await squatter.drain()
        finally:
            await client.close()
            await server.drain()
        # A clean shutdown removes its socket file.
        assert not socket_path.exists()

    asyncio.run(scenario())
