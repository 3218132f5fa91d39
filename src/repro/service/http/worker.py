"""Sharded workers: per-shard caches, admission control, coalescing.

A :class:`ShardPool` owns ``k`` shard workers.  Each shard is one
single-worker executor — so everything routed to a shard executes
serially, giving the shard exclusive ownership of its state — plus one
:class:`~repro.service.frontend.ServiceFrontend` whose
:class:`~repro.engine.TieredResultCache` layers a *private* memory tier
over a *shared* disk tier: shards never contend on hot in-memory
lookups, while every record any shard computes is visible to all of them
(and to other server processes) through the disk.

Requests are routed by dataset content fingerprint over a
:class:`~repro.service.http.hashring.ConsistentHashRing`, so all traffic
for one dataset lands on the shard whose memory tier is warm for it.

Two execution modes share one dispatch path:

* ``mode="thread"`` (default) — shards are single-thread executors over
  in-process frontends.  Cheap and fully introspectable.
* ``mode="process"`` — shards are single-worker process pools; each
  worker process lazily builds its shard's frontend on first use and
  keeps it for the pool's lifetime.  Real CPU parallelism across shards
  for compute-bound traffic, at the price of shipping request payloads
  across the process boundary.

The per-request decisions are the in-process ones of
:mod:`repro.service.frontend`: identical concurrent requests — *across
connections*, not just within one batch — share one computation when
their :func:`~repro.service.frontend.coalescing_key` matches, followers
reporting ``source="coalesced"``; a request whose ``deadline_seconds``
elapsed while queued inside its shard is answered ``deadline`` by
:meth:`~repro.service.frontend.ServiceFrontend.submit` itself.  The pool
is the one admission point of the serving layer: before anything
executes it refuses with a structured :class:`ShardRejection` —
``overloaded`` at ``max_pending`` leaders per shard or with every shard
ejected, ``draining`` once :attr:`ShardPool.draining` is set.

Each shard has one accounting registry (a
:class:`~repro.service.frontend.ServiceStats`): in thread mode the shard
frontend's own; in process mode one in the serving process, fed with every
payload the worker returns.  The pool records followers and failed
dispatches on the shard that answered, and refusals on the dataset's
home shard of the full ring, through
:func:`~repro.service.frontend.record_outcome`.  These registries are
the only place an ``/aggregate`` answer is counted;
:meth:`ShardPool.stats` sums them.

**Failover** (process mode): a worker process that dies — SIGKILL, OOM,
an injected ``shard.worker`` crash — surfaces driver-side as a
``BrokenProcessPool``.  The pool then *ejects* the shard from the live
routing ring (``http.shard_ejected``), re-routes the interrupted request
to the ring successor, and *respawns* the worker in the background: a
fresh process pool is warmed up and, once answering, the shard rejoins
the ring (``http.respawned``).  Respawned workers rebuild their memory
tier lazily from the shared disk cache — per-shard state is a cache, not
a source of truth; the durable truth for live sessions is the
write-ahead journal (:mod:`repro.core.journal`), replayed by the server
layer.  :meth:`ShardPool.check_health` provides the proactive probe the
server's health loop runs between requests — a worker that is merely
*slow* stays in the ring, one whose pool is broken is ejected without
waiting for a request to find out.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ...telemetry import runtime as _telemetry
from ...testing import faults as _faults
from .. import counters as _counters
from ..frontend import (
    ServiceFrontend,
    ServiceRequest,
    ServiceResponse,
    ServiceStats,
    coalescing_key,
    degraded_response,
    follower_response,
    record_outcome,
)
from .hashring import ConsistentHashRing
from .protocol import (
    decode_aggregate_request,
    decode_response_payload,
    encode_aggregate_request,
    response_payload,
)

__all__ = ["ShardPool", "ShardRejection", "DEFAULT_MAX_PENDING"]

#: Per-shard admission bound: leaders queued or executing beyond which new
#: work is refused with a structured ``overloaded`` payload.
DEFAULT_MAX_PENDING = 64

_DRAINING = "server is draining; retry against another worker"
_ALL_EJECTED = "every shard is ejected; retry after a respawn"


class ShardRejection(Exception):
    """A request refused before dispatch (admission control / draining).

    Attributes
    ----------
    response:
        The structured refusal, already recorded in the registry of the
        dataset's home shard.
    status:
        Degradation status (``overloaded`` / ``draining``).
    """

    def __init__(self, response: ServiceResponse):
        super().__init__(response.error)
        self.response = response
        self.status = response.status


@dataclass
class _Shard:
    """Runtime state of one shard worker (private to the pool)."""

    name: str
    executor: Executor
    frontend: ServiceFrontend | None  # thread mode only
    stats: ServiceStats  # the shard's registry: the frontend's own in thread mode
    pending: int = 0
    routed: int = 0
    pid: int | None = None  # worker process id (process mode, post warm-up)
    dead: bool = False  # ejected from the live ring, awaiting respawn
    ejections: int = 0
    respawns: int = 0
    inflight: dict[tuple[Any, ...], "asyncio.Future[dict[str, Any]]"] = field(
        default_factory=dict
    )


# --------------------------------------------------------------------------- #
# Executor-side entry points (module level: picklable for process pools)
# --------------------------------------------------------------------------- #
_PROCESS_FRONTENDS: dict[str, ServiceFrontend] = {}


def _process_frontend(config: dict[str, Any]) -> ServiceFrontend:
    """The worker process's long-lived frontend for one shard.

    Keyed by shard name: each shard's pool has exactly one worker
    process, so the frontend (and its memory cache tier) survives across
    requests exactly like a thread-mode shard's does.
    """
    frontend = _PROCESS_FRONTENDS.get(config["shard"])
    if frontend is None:
        frontend = ServiceFrontend(
            config["cache_dir"],
            default_budget_seconds=config["default_budget_seconds"],
            seed=config["seed"],
            memory_entries=config["memory_entries"],
        )
        _PROCESS_FRONTENDS[config["shard"]] = frontend
    return frontend


def _answer_with(
    frontend: ServiceFrontend,
    request: ServiceRequest,
    enqueued_wall: float,
    shard: str,
) -> dict[str, Any]:
    """Submit with the wait so far, on the shard's own executor.

    Wall-clock (not monotonic) stamps on purpose: the enqueue stamp and
    the dequeue may happen in different processes.
    """
    queue_seconds = max(0.0, time.time() - enqueued_wall)
    response = frontend.submit(request, queue_seconds=queue_seconds)
    return response_payload(response, shard=shard)


def _thread_answer(
    frontend: ServiceFrontend,
    request: ServiceRequest,
    enqueued_wall: float,
    shard: str,
    attempt: int = 0,
) -> dict[str, Any]:
    """Thread-mode executor entry point."""
    _faults.maybe_fire("shard.worker", key=shard, attempt=attempt)
    return _answer_with(frontend, request, enqueued_wall, shard)


def _process_answer(
    config: dict[str, Any],
    wire: dict[str, Any],
    enqueued_wall: float,
    attempt: int = 0,
) -> dict[str, Any]:
    """Process-mode executor entry point (receives the wire payload)."""
    # Fired inside the worker, so an injected crash is a *genuine* process
    # death (os._exit) the driver sees as BrokenProcessPool — the same
    # failure a SIGKILL produces.  ``attempt`` is the failover ordinal:
    # a rule with max_attempt=1 kills the first dispatch and lets the
    # re-routed retry through.
    _faults.maybe_fire("shard.worker", key=config["shard"], attempt=attempt)
    frontend = _process_frontend(config)
    request = decode_aggregate_request(wire)
    return _answer_with(frontend, request, enqueued_wall, config["shard"])


def _process_describe(config: dict[str, Any]) -> dict[str, Any]:
    """Fetch the worker-process frontend's session accounting."""
    return _process_frontend(config).describe()


def _process_warmup(config: dict[str, Any]) -> dict[str, Any]:
    """Force worker start + frontend construction; returns identity info.

    The pid travels back so the driver can expose it (``GET /stats``) —
    the hook the kill-restart harness uses to SIGKILL a real worker.
    """
    _process_frontend(config)
    return {"shard": config["shard"], "pid": os.getpid()}


def _process_ping() -> int:
    """Health-probe entry point: proves the worker answers at all."""
    return os.getpid()


class ShardPool:
    """Consistent-hash-routed pool of shard workers.

    Parameters
    ----------
    cache_dir:
        The shared disk cache tier every shard writes through to
        (``None`` disables caching entirely — each shard frontend
        computes every request).
    shards:
        Number of shard workers.
    mode:
        ``"thread"`` (in-process frontends, default) or ``"process"``
        (one worker process per shard).
    max_pending:
        Per-shard admission bound; requests arriving while a shard
        already has this many leaders queued/executing are refused with
        a structured ``overloaded`` payload.
    default_budget_seconds:
        Compute budget for requests that do not carry one.
    seed:
        Seed forwarded to every shard frontend (part of cache keys).
    memory_entries:
        Capacity of each shard's private memory cache tier.
    replicas:
        Virtual points per shard on the routing ring.

    Attributes
    ----------
    draining:
        Set when the server starts its graceful drain: from then on every
        request is refused with a structured ``draining`` answer.
    """

    def __init__(
        self,
        cache_dir: str | Path | None,
        *,
        shards: int = 2,
        mode: str = "thread",
        max_pending: int = DEFAULT_MAX_PENDING,
        default_budget_seconds: float | None = 0.25,
        seed: int | None = None,
        memory_entries: int = 256,
        replicas: int | None = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if mode == "process" and cache_dir is None:
            raise ValueError("process mode needs a cache_dir (shared disk tier)")
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.mode = mode
        self.max_pending = max_pending
        self.default_budget_seconds = default_budget_seconds
        self.seed = seed
        self.memory_entries = memory_entries
        names = [f"shard-{index}" for index in range(shards)]
        ring_kwargs = {} if replicas is None else {"replicas": replicas}
        self.ring = ConsistentHashRing(names, **ring_kwargs)
        self._shards: dict[str, _Shard] = {}
        for name in names:
            if mode == "thread":
                executor: Executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"repro-http-{name}"
                )
                frontend = ServiceFrontend(
                    cache_dir,
                    default_budget_seconds=default_budget_seconds,
                    seed=seed,
                    memory_entries=memory_entries,
                )
                stats = frontend.stats()
            else:
                executor = ProcessPoolExecutor(max_workers=1)
                frontend = None
                stats = ServiceStats()
            self._shards[name] = _Shard(name, executor, frontend, stats)
        # Routing happens on the *live* ring: the full ring minus ejected
        # shards.  They are the same object until a worker dies; ``None``
        # while every shard is ejected.
        self._live_ring: ConsistentHashRing | None = self.ring
        self._respawn_tasks: set[asyncio.Task[None]] = set()
        self._closing = False
        self.draining = False

    # ------------------------------------------------------------------ #
    @property
    def shard_names(self) -> tuple[str, ...]:
        """The shard names, in ring order."""
        return self.ring.shards

    @property
    def live_shard_names(self) -> tuple[str, ...]:
        """The shards currently in the routing ring (dead ones ejected)."""
        return () if self._live_ring is None else self._live_ring.shards

    def route(self, fingerprint: str) -> str:
        """The live shard owning one dataset content fingerprint.

        While a shard is ejected, its keys route to the ring successor;
        once it respawns, they route back.  Raises :class:`LookupError`
        while every shard is ejected.

        Parameters
        ----------
        fingerprint:
            A dataset content fingerprint
            (:meth:`~repro.datasets.Dataset.content_fingerprint`).
        """
        if self._live_ring is None:
            raise LookupError(_ALL_EJECTED)
        return self._live_ring.route(fingerprint)

    def worker_pids(self) -> dict[str, int | None]:
        """Worker process id per shard (``None`` in thread mode / pre-warm-up)."""
        return {shard.name: shard.pid for shard in self._shards.values()}

    def frontend_of(self, shard: str) -> ServiceFrontend | None:
        """The in-process frontend of one shard (``None`` in process mode).

        Parameters
        ----------
        shard:
            A shard name from :attr:`shard_names`.
        """
        return self._shards[shard].frontend

    async def warm_up(self) -> list[str]:
        """Start every shard worker (process-mode import/fork cost) now.

        Returns the shard names that answered, so callers can assert the
        whole pool is live before timing anything against it.
        """
        loop = asyncio.get_running_loop()
        jobs = []
        for shard in self._shards.values():
            if self.mode == "process":
                jobs.append(
                    loop.run_in_executor(
                        shard.executor, _process_warmup, self._config(shard.name)
                    )
                )
            else:
                jobs.append(
                    loop.run_in_executor(shard.executor, lambda s=shard: s.name)
                )
        answers = list(await asyncio.gather(*jobs))
        names = []
        for answer in answers:
            if isinstance(answer, dict):
                self._shards[answer["shard"]].pid = answer["pid"]
                names.append(answer["shard"])
            else:
                names.append(answer)
        return names

    # ------------------------------------------------------------------ #
    async def submit(
        self,
        request: ServiceRequest,
        *,
        wire: dict[str, Any] | None = None,
    ) -> tuple[dict[str, Any], str]:
        """Route, admit and answer one request; returns (payload, shard).

        The single dispatch path behind ``POST /aggregate``:

        1. refuse while :attr:`draining` or while every shard is ejected,
           else route by the dataset's content fingerprint;
        2. coalesce — a request with the same
           :func:`~repro.service.frontend.coalescing_key` already in
           flight on the shard makes this one a follower that awaits the
           leader's answer and reports ``coalesced``;
        3. admit — a shard at ``max_pending`` leaders refuses with a
           structured ``overloaded`` answer.  Every refusal is recorded
           in the home shard's registry and raised as
           :class:`ShardRejection` for the server to answer;
        4. execute through the shard frontend's
           :meth:`~repro.service.frontend.ServiceFrontend.submit`, which
           checks the request's deadline against its queue wait;
        5. fail over — a worker process that dies mid-request
           (``BrokenProcessPool``) is ejected from the live ring and the
           request retries on the ring successor; the dead worker
           respawns in the background.

        Parameters
        ----------
        request:
            The decoded request.
        wire:
            The original JSON body (process mode ships it to the worker
            instead of pickling the request; re-encoded when absent).
        """
        fingerprint = request.dataset.content_fingerprint()
        if self.draining:
            raise self._refusal(request, fingerprint, "draining", _DRAINING)
        if self._live_ring is None:
            raise self._refusal(request, fingerprint, "overloaded", _ALL_EJECTED)
        shard = self._shards[self._live_ring.route(fingerprint)]
        shard.routed += 1
        if _telemetry.is_enabled():
            _telemetry.count(_counters.HTTP_SHARD_ROUTE, shard=shard.name)
        key = coalescing_key(request, self.default_budget_seconds)
        arrived = time.perf_counter()
        while (existing := shard.inflight.get(key)) is not None:
            leader = await asyncio.shield(existing)
            if leader["status"] == "deadline":
                # The leader died waiting on its own deadline; promote
                # this follower to leader (as submit_batch does).
                continue
            follower = follower_response(
                request.request_id,
                decode_response_payload(leader),
                time.perf_counter() - arrived,
            )
            record_outcome(shard.stats, follower)
            return response_payload(follower, shard=shard.name), shard.name

        if shard.pending >= self.max_pending:
            raise self._refusal(
                request,
                fingerprint,
                "overloaded",
                f"{shard.name} admission queue full "
                f"({shard.pending} pending, max_pending={self.max_pending})",
            )

        loop = asyncio.get_running_loop()
        # One future for the whole failover episode: followers coalesced
        # onto this leader (on whichever shard) are resolved exactly once,
        # with the *final* payload — never an intermediate worker death.
        future: asyncio.Future[dict[str, Any]] = loop.create_future()
        registered = [shard]
        shard.pending += 1
        shard.inflight[key] = future
        enqueued_wall = time.time()
        attempt = 0
        try:
            while True:
                try:
                    payload = await self._dispatch(
                        shard, request, wire, enqueued_wall, attempt
                    )
                    if shard.frontend is None:
                        # The worker process recorded the answer in a
                        # registry the driver cannot read; record it here.
                        record_outcome(shard.stats, payload)
                    break
                except BrokenProcessPool:
                    # The worker died under this request (SIGKILL, OOM, an
                    # injected crash).  Eject it, re-route to the ring
                    # successor, keep the same leader future.
                    self._eject(shard)
                    attempt += 1
                    if self._live_ring is None or attempt > len(self._shards):
                        payload = self._fail(
                            shard,
                            request,
                            f"BrokenProcessPool: worker of {shard.name} died "
                            "and no live shard remains to fail over to",
                        )
                        break
                    shard.pending -= 1
                    shard = self._shards[self._live_ring.route(fingerprint)]
                    shard.routed += 1
                    shard.pending += 1
                    if _telemetry.is_enabled():
                        _telemetry.count(
                            _counters.HTTP_SHARD_ROUTE, shard=shard.name
                        )
                    if shard.inflight.get(key) is None:
                        shard.inflight[key] = future
                        registered.append(shard)
                except Exception as error:  # noqa: BLE001 — degrade, don't tear down
                    payload = self._fail(
                        shard, request, f"{type(error).__name__}: {error}"
                    )
                    break
        finally:
            shard.pending -= 1
            for owner in registered:
                if owner.inflight.get(key) is future:
                    del owner.inflight[key]
            future.set_result(payload)
        return payload, shard.name

    def _refusal(
        self, request: ServiceRequest, fingerprint: str, status: str, error: str
    ) -> ShardRejection:
        """A refusal before dispatch, recorded on the home shard."""
        refusal = degraded_response(request.request_id, status=status, error=error)
        record_outcome(self._shards[self.ring.route(fingerprint)].stats, refusal)
        return ShardRejection(refusal)

    @staticmethod
    def _fail(shard: _Shard, request: ServiceRequest, error: str) -> dict[str, Any]:
        """Answer a dispatch that raised: a ``failed`` payload, recorded."""
        response = degraded_response(
            request.request_id, status="failed", error=error
        )
        record_outcome(shard.stats, response)
        return response_payload(response, shard=shard.name)

    async def _dispatch(
        self,
        shard: _Shard,
        request: ServiceRequest,
        wire: dict[str, Any] | None,
        enqueued_wall: float,
        attempt: int,
    ) -> dict[str, Any]:
        """Run one request on one shard's executor (one failover attempt)."""
        loop = asyncio.get_running_loop()
        if self.mode == "thread":
            return await loop.run_in_executor(
                shard.executor,
                _thread_answer,
                shard.frontend,
                request,
                enqueued_wall,
                shard.name,
                attempt,
            )
        return await loop.run_in_executor(
            shard.executor,
            _process_answer,
            self._config(shard.name),
            wire
            if wire is not None
            else encode_aggregate_request(
                request.dataset,
                priority=request.priority,
                budget_seconds=request.budget_seconds,
                deadline_seconds=request.deadline_seconds,
                algorithm=request.algorithm,
                request_id=request.request_id,
            ),
            enqueued_wall,
            attempt,
        )

    # ------------------------------------------------------------------ #
    # Failover
    # ------------------------------------------------------------------ #
    def _rebuild_live_ring(self) -> None:
        survivors = [
            name for name in self.ring.shards if not self._shards[name].dead
        ]
        if len(survivors) == len(self.ring.shards):
            self._live_ring = self.ring
        elif survivors:
            self._live_ring = self.ring.with_shards(survivors)
        else:
            self._live_ring = None

    def _eject(self, shard: _Shard) -> None:
        """Remove a dead shard from the live ring and schedule its respawn."""
        if shard.dead:
            return
        shard.dead = True
        shard.pid = None
        shard.ejections += 1
        self._rebuild_live_ring()
        if _telemetry.is_enabled():
            _telemetry.count(_counters.HTTP_SHARD_EJECTED, shard=shard.name)
        # The broken pool cannot be reused; release it without waiting
        # (its worker is already gone).
        shard.executor.shutdown(wait=False)
        if not self._closing:
            task = asyncio.get_running_loop().create_task(self._respawn(shard))
            self._respawn_tasks.add(task)
            task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self, shard: _Shard) -> None:
        """Start a fresh worker for an ejected shard and rejoin the ring."""
        executor = ProcessPoolExecutor(max_workers=1)
        loop = asyncio.get_running_loop()
        try:
            info = await loop.run_in_executor(
                executor, _process_warmup, self._config(shard.name)
            )
        except Exception:  # noqa: BLE001 — a failed respawn leaves it dead
            executor.shutdown(wait=False)
            return
        if self._closing:
            executor.shutdown(wait=True)
            return
        shard.executor = executor
        shard.pid = info["pid"]
        shard.dead = False
        shard.respawns += 1
        self._rebuild_live_ring()
        if _telemetry.is_enabled():
            _telemetry.count(_counters.HTTP_RESPAWNED, shard=shard.name)

    async def check_health(
        self, *, timeout_seconds: float = 5.0
    ) -> dict[str, str]:
        """Probe every shard; eject the ones whose worker is gone.

        Returns a ``shard → verdict`` map: ``ok`` (answered), ``busy``
        (alive but did not answer within the timeout — slow is *not*
        dead, the shard stays in the ring), ``ejected`` (probe found the
        pool broken right now) or ``dead`` (already out, respawn
        pending).

        Parameters
        ----------
        timeout_seconds:
            How long a probe may wait before the shard is called busy.
        """
        loop = asyncio.get_running_loop()
        verdicts: dict[str, str] = {}
        for shard in self._shards.values():
            if shard.dead:
                verdicts[shard.name] = "dead"
                continue
            try:
                if self.mode == "process":
                    pid = await asyncio.wait_for(
                        loop.run_in_executor(shard.executor, _process_ping),
                        timeout_seconds,
                    )
                    shard.pid = pid
                else:
                    await asyncio.wait_for(
                        loop.run_in_executor(shard.executor, lambda: None),
                        timeout_seconds,
                    )
                verdicts[shard.name] = "ok"
            except BrokenProcessPool:
                self._eject(shard)
                verdicts[shard.name] = "ejected"
            except asyncio.TimeoutError:
                verdicts[shard.name] = "busy"
        return verdicts

    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """Every shard registry summed, ejected shards included.

        ``GET /stats`` reports it as ``server.service`` and ``serve-http``
        prints it when drained; it reads the serving process's state only.
        """
        total = ServiceStats()
        for shard in self._shards.values():
            total.merge(shard.stats)
        return total

    async def describe(self) -> dict[str, Any]:
        """Pool topology, per-shard routing counters and accounting.

        Each shard's ``frontend`` entry is its one registry (see the
        module docstring) plus its cache tiers' statistics.
        """
        loop = asyncio.get_running_loop()
        shards: dict[str, Any] = {}
        for shard in self._shards.values():
            entry: dict[str, Any] = {
                "routed": shard.routed,
                "pending": shard.pending,
                "pid": shard.pid,
                "dead": shard.dead,
                "ejections": shard.ejections,
                "respawns": shard.respawns,
            }
            if shard.dead:
                entry["frontend"] = None
            elif shard.frontend is not None:
                entry["frontend"] = shard.frontend.describe()
            else:
                try:
                    worker = await loop.run_in_executor(
                        shard.executor,
                        _process_describe,
                        self._config(shard.name),
                    )
                    # The worker's cache tiers, the driver's registry.
                    entry["frontend"] = {**worker, **shard.stats.describe()}
                except BrokenProcessPool:
                    # Stats discovered the death before a request did.
                    self._eject(shard)
                    entry["dead"] = True
                    entry["ejections"] = shard.ejections
                    entry["frontend"] = None
            shards[shard.name] = entry
        return {
            "mode": self.mode,
            "shards": len(self._shards),
            "live_shards": list(self.live_shard_names),
            "max_pending": self.max_pending,
            "cache_dir": self.cache_dir,
            "by_shard": shards,
        }

    def shutdown(self) -> None:
        """Release every shard executor (blocking until idle)."""
        self._closing = True
        for shard in self._shards.values():
            shard.executor.shutdown(wait=not shard.dead)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _config(self, shard: str) -> dict[str, Any]:
        """The picklable per-shard frontend recipe shipped to workers."""
        return {
            "shard": shard,
            "cache_dir": self.cache_dir,
            "default_budget_seconds": self.default_budget_seconds,
            "seed": self.seed,
            "memory_entries": self.memory_entries,
        }

    def __repr__(self) -> str:
        return (
            f"ShardPool(shards={len(self._shards)}, mode={self.mode!r}, "
            f"max_pending={self.max_pending})"
        )
