"""Telemetry counter parity between the in-process and socket paths.

Regression suite for a real bug class: the HTTP layer growing its own
rejection/deadline counters under different names than
:class:`~repro.service.ServiceFrontend`, so dashboards summing
``service.rejected`` silently miss everything rejected at the socket.
The contract: every serving surface records the *shared* instruments of
:mod:`repro.service.counters` into the same active telemetry session,
and HTTP-only instruments are additive (``http.*``), never replacements.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.generators import uniform_dataset
from repro.service import ServiceFrontend, ServiceRequest
from repro.service import counters
from repro.service.http import AsyncHttpClient, HttpAggregationServer
from repro.telemetry import runtime


@pytest.fixture(autouse=True)
def _no_ambient_session():
    assert runtime.get_active() is None
    yield
    runtime.disable()


def test_shared_counter_names_are_pinned():
    # Renaming any of these breaks every deployed dashboard: the literal
    # values are part of the telemetry contract, not an implementation
    # detail.
    assert counters.SERVICE_REQUESTS == "service.requests"
    assert counters.SERVICE_REJECTED == "service.rejected"
    assert counters.SERVICE_FAILED == "service.failed"
    assert counters.SERVICE_INVALIDATED == "service.invalidated"
    assert counters.SERVICE_QUEUE_SECONDS == "service.queue_seconds"
    assert counters.SERVICE_EXECUTION_SECONDS == "service.execution_seconds"
    assert counters.HTTP_REQUESTS == "http.request"
    assert counters.HTTP_REJECTED == "http.rejected"
    assert counters.HTTP_SHARD_ROUTE == "http.shard_route"
    assert counters.HTTP_LATENCY_SECONDS == "http.latency_seconds"


def _service_instruments(active) -> set[str]:
    return {
        item["name"]
        for item in active.metrics.to_payload()
        if item["name"].startswith("service.")
    }


def test_http_layer_records_into_the_same_service_instruments(tmp_path):
    """One rejected + one answered request, in-process vs over the socket.

    Both paths must produce the *same* ``service.*`` instrument names in
    their sessions, with the socket path adding (not substituting) its
    ``http.*`` vocabulary.
    """
    dataset = uniform_dataset(4, 6, 1)
    other = uniform_dataset(4, 6, 2)

    with runtime.session() as inprocess:
        frontend = ServiceFrontend(
            str(tmp_path / "inproc"), default_budget_seconds=0.05, seed=11
        )
        answered = frontend.submit(ServiceRequest(dataset))
        # Admission is the socket path's alone; the in-process refusal is
        # a deadline that expired in the queue.
        refused = frontend.submit(
            ServiceRequest(other, deadline_seconds=0.01), queue_seconds=0.02
        )
        assert answered.status == "ok" and refused.status == "deadline"
        inprocess_names = _service_instruments(inprocess)
    runtime.disable()

    async def scenario():
        server = HttpAggregationServer(
            str(tmp_path / "http"), shards=1, seed=11,
            default_budget_seconds=0.05, max_pending=1,
        )
        await server.start()
        client = AsyncHttpClient(server.host, server.port)
        blocker = AsyncHttpClient(server.host, server.port)
        try:
            slow_frontend = server.pool.frontend_of("shard-0")
            original = slow_frontend.submit

            def slow_submit(request, **kwargs):
                time.sleep(0.25)
                return original(request, **kwargs)

            slow_frontend.submit = slow_submit
            blocker_task = asyncio.create_task(blocker.aggregate(dataset))
            await asyncio.sleep(0.05)
            code, payload = await client.aggregate(other)  # queue is full
            assert code == 503 and payload["status"] == "overloaded"
            await blocker_task
        finally:
            await client.close()
            await blocker.close()
            await server.drain()

    with runtime.session() as socket_session:
        asyncio.run(scenario())
        socket_names = _service_instruments(socket_session)
        all_names = {
            item["name"] for item in socket_session.metrics.to_payload()
        }
        rejected = socket_session.metrics.get(counters.SERVICE_REJECTED)

    # The regression this file exists for: identical service.* names.
    assert socket_names == inprocess_names, (
        f"socket path diverged from in-process instruments: "
        f"{socket_names ^ inprocess_names}"
    )
    # The socket path's own vocabulary rides alongside.
    assert counters.HTTP_REQUESTS in all_names
    assert counters.HTTP_SHARD_ROUTE in all_names
    assert counters.HTTP_LATENCY_SECONDS in all_names
    # And the shared rejection counter carries the socket-path refusal.
    assert rejected is not None
    assert rejected.value(reason="overloaded") == 1.0


def test_deadline_expiry_lands_in_shared_rejection_counter(tmp_path):
    async def scenario():
        server = HttpAggregationServer(
            str(tmp_path / "cache"), shards=1, seed=11,
            default_budget_seconds=0.05,
        )
        await server.start()
        blocker = AsyncHttpClient(server.host, server.port)
        late = AsyncHttpClient(server.host, server.port)
        try:
            frontend = server.pool.frontend_of("shard-0")
            original = frontend.submit

            def slow_submit(request, **kwargs):
                time.sleep(0.25)
                return original(request, **kwargs)

            frontend.submit = slow_submit
            blocker_task = asyncio.create_task(
                blocker.aggregate(uniform_dataset(4, 6, 1))
            )
            await asyncio.sleep(0.05)
            code, payload = await late.aggregate(
                uniform_dataset(4, 6, 2), deadline_seconds=0.05
            )
            assert code == 504 and payload["status"] == "deadline"
            await blocker_task
            return server.pool.frontend_of("shard-0").describe()
        finally:
            await blocker.close()
            await late.close()
            await server.drain()

    with runtime.session() as active:
        stats = asyncio.run(scenario())
        rejected = active.metrics.get(counters.SERVICE_REJECTED)
        assert rejected is not None
        # Same instrument, labelled by reason — exactly what
        # ServiceFrontend records for an in-process deadline expiry.
        assert rejected.value(reason="deadline") == 1.0
    # ...and the shard frontend's describe() agrees with the registry.
    assert stats["deadline_misses"] == 1
