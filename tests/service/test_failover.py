"""Shard failover: dead process-mode workers are ejected, re-routed, respawned.

Two ways a worker dies here: a deterministic ``shard.worker`` crash fault
(the injected worker calls ``os._exit`` mid-request) and a real ``SIGKILL``
by pid.  Both must produce the same observable behaviour — the request
fails over to the ring successor and still gets an answer, the dead shard
leaves the live ring, and a background respawn brings it back.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.generators import uniform_dataset
from repro.service import counters
from repro.service.frontend import ServiceRequest
from repro.service.http import AsyncHttpClient, HttpAggregationServer
from repro.service.http.worker import ShardPool
from repro.telemetry import runtime
from repro.testing.faults import ENV_VAR, FaultInjector, FaultRule


async def _await_respawn(pool: ShardPool, *, timeout: float = 30.0) -> None:
    """Poll until every ejected shard has rejoined the live ring."""
    deadline = asyncio.get_running_loop().time() + timeout
    while len(pool.live_shard_names) < len(pool.shard_names):
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(
                f"respawn never completed; live={pool.live_shard_names}"
            )
        await asyncio.sleep(0.05)


def test_injected_worker_crash_fails_over_to_successor(tmp_path, monkeypatch):
    async def scenario():
        dataset = uniform_dataset(4, 6, 21)
        fingerprint = dataset.content_fingerprint()
        probe = ShardPool(None, shards=2)
        victim = probe.route(fingerprint)
        probe.shutdown()
        # Crash the first dispatch only (max_attempt=1): the failover
        # retry — attempt 1 — must get through on the successor shard.
        injector = FaultInjector(
            seed=9,
            rules=(
                FaultRule(
                    site="shard.worker",
                    kind="crash",
                    match=victim,
                    max_attempt=1,
                ),
            ),
        )
        monkeypatch.setenv(ENV_VAR, injector.to_env())
        pool = ShardPool(
            str(tmp_path / "cache"),
            shards=2,
            mode="process",
            default_budget_seconds=0.05,
            seed=3,
        )
        try:
            assert sorted(await pool.warm_up()) == ["shard-0", "shard-1"]
            payload, answered_by = await pool.submit(
                ServiceRequest(dataset=dataset, budget_seconds=0.05)
            )
            assert payload["status"] == "ok", payload
            assert answered_by != victim
            stats = await pool.describe()
            entry = stats["by_shard"][victim]
            assert entry["ejections"] == 1
            assert answered_by in pool.live_shard_names
            # The dead worker respawns in the background and rejoins.
            await _await_respawn(pool)
            stats = await pool.describe()
            assert stats["by_shard"][victim]["respawns"] == 1
            assert stats["by_shard"][victim]["pid"] is not None
            # Keys route back to their home shard after the respawn.
            assert pool.route(fingerprint) == victim
        finally:
            pool.shutdown()

    asyncio.run(scenario())


def test_sigkill_mid_pool_ejects_and_respawns(tmp_path):
    async def scenario():
        pool = ShardPool(
            str(tmp_path / "cache"),
            shards=2,
            mode="process",
            default_budget_seconds=0.05,
            seed=3,
        )
        try:
            await pool.warm_up()
            dataset = uniform_dataset(4, 6, 22)
            victim = pool.route(dataset.content_fingerprint())
            pid = pool.worker_pids()[victim]
            assert pid is not None and pid != os.getpid()
            os.kill(pid, signal.SIGKILL)
            payload, answered_by = await pool.submit(
                ServiceRequest(dataset=dataset, budget_seconds=0.05)
            )
            assert payload["status"] == "ok", payload
            assert answered_by != victim
            # The ring state is transient (the respawn may already have
            # landed); the ejection counter is not.
            stats = await pool.describe()
            assert stats["by_shard"][victim]["ejections"] == 1
            await _await_respawn(pool)
            refreshed = pool.worker_pids()[victim]
            assert refreshed is not None and refreshed != pid
        finally:
            pool.shutdown()

    asyncio.run(scenario())


def test_check_health_ejects_only_dead_workers(tmp_path):
    async def scenario():
        pool = ShardPool(
            str(tmp_path / "cache"),
            shards=2,
            mode="process",
            default_budget_seconds=0.05,
            seed=3,
        )
        try:
            await pool.warm_up()
            verdicts = await pool.check_health()
            assert verdicts == {"shard-0": "ok", "shard-1": "ok"}
            pid = pool.worker_pids()["shard-0"]
            os.kill(pid, signal.SIGKILL)
            # The pool has not noticed yet; the probe must.
            deadline = asyncio.get_running_loop().time() + 30.0
            while True:
                verdicts = await pool.check_health(timeout_seconds=5.0)
                if verdicts["shard-0"] in ("ejected", "dead"):
                    break
                if asyncio.get_running_loop().time() > deadline:
                    raise AssertionError(f"never ejected: {verdicts}")
                await asyncio.sleep(0.05)
            assert verdicts["shard-1"] == "ok"
            await _await_respawn(pool)
            verdicts = await pool.check_health()
            assert verdicts == {"shard-0": "ok", "shard-1": "ok"}
        finally:
            pool.shutdown()

    asyncio.run(scenario())


def test_all_shards_dead_answers_structured_overload(tmp_path):
    async def scenario():
        pool = ShardPool(
            str(tmp_path / "cache"),
            shards=1,
            mode="process",
            default_budget_seconds=0.05,
            seed=3,
        )
        try:
            await pool.warm_up()
            dataset = uniform_dataset(4, 6, 23)
            os.kill(pool.worker_pids()["shard-0"], signal.SIGKILL)
            payload, _ = await pool.submit(
                ServiceRequest(dataset=dataset, budget_seconds=0.05)
            )
            # The lone shard died and nothing remains to fail over to:
            # the caller still gets a structured answer, not a hang.
            assert payload["status"] == "failed"
            assert "no live shard" in payload["error"]
            assert pool.live_shard_names == ()
            # A second request while the ring is empty is refused
            # up-front (routing has nowhere to go).
            from repro.service.http.worker import ShardRejection

            with pytest.raises(ShardRejection) as excinfo:
                await pool.submit(
                    ServiceRequest(dataset=dataset, budget_seconds=0.05)
                )
            assert excinfo.value.status == "overloaded"
            await _await_respawn(pool)
            payload, _ = await pool.submit(
                ServiceRequest(dataset=dataset, budget_seconds=0.05)
            )
            assert payload["status"] == "ok"
            # Every answer, the refusal included, is counted once in the
            # home shard's registry.
            registry = (await pool.describe())["by_shard"]["shard-0"]["frontend"]
            assert registry["requests"] == 3
            assert registry["failed"] == 1
            assert registry["rejected"] == 1
            assert pool.stats().describe()["rejected"] == 1
        finally:
            pool.shutdown()

    with runtime.session() as active:
        asyncio.run(scenario())
    rejected = active.metrics.get(counters.SERVICE_REJECTED)
    assert rejected is not None
    assert rejected.value(reason="overloaded") == 1


def test_http_server_survives_worker_sigkill(tmp_path):
    """End to end over HTTP: kill a worker, the request still answers 200."""

    async def scenario():
        server = HttpAggregationServer(
            str(tmp_path / "cache"),
            shards=2,
            mode="process",
            seed=11,
            default_budget_seconds=0.05,
            health_interval_seconds=0.1,
        )
        await server.start()
        client = AsyncHttpClient(server.host, server.port)
        try:
            dataset = uniform_dataset(4, 6, 24)
            victim = server.pool.route(dataset.content_fingerprint())
            os.kill(server.pool.worker_pids()[victim], signal.SIGKILL)
            code, payload = await client.aggregate(dataset)
            assert code == 200
            assert payload["status"] == "ok"
            assert payload["shard"] != victim
            await _await_respawn(server.pool)
            code, stats = await client.server_stats()
            entry = stats["pool"]["by_shard"][victim]
            assert entry["ejections"] == 1 and entry["respawns"] == 1
            assert sorted(stats["pool"]["live_shards"]) == ["shard-0", "shard-1"]
            # Routed back home after the respawn, the shard keeps serving.
            code, payload = await client.aggregate(dataset)
            assert code == 200 and payload["status"] == "ok"
        finally:
            await client.close()
            await server.drain()

    asyncio.run(scenario())
