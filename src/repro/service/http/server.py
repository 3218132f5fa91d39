"""Asyncio HTTP/1.1 front door for the sharded aggregation service.

:class:`HttpAggregationServer` is a stdlib-only ``asyncio.start_server``
loop — no web framework — speaking just enough HTTP/1.1 (request line,
headers, ``Content-Length`` bodies, keep-alive) to put the serving stack
on a socket:

========================  =================================================
route                     behaviour
========================  =================================================
``POST /aggregate``       decode → route by dataset fingerprint → shard
                          pool dispatch (admission, coalescing, deadline)
``POST /live/{n}/open``   create a named
                          :class:`~repro.service.live.LiveAggregationSession`
``POST /live/{n}/mutate`` add/remove/update one ranking (delta-maintained
                          weights + cache invalidation)
``POST /live/{n}/repair`` warm-started consensus repair + re-publish
``GET  /live/{n}``        serve the session (repairing first when stale)
``GET  /healthz``         liveness + drain state
``GET  /stats``           server counters, pool topology, live sessions
========================  =================================================

Degradation statuses map onto HTTP codes via
:func:`~repro.service.http.protocol.status_code_for`: ``overloaded`` and
``draining`` answer 503, ``deadline`` 504, ``failed`` 500 — always with a
structured JSON body, never a bare error page.

**Graceful drain** (:meth:`HttpAggregationServer.drain`): the listener
closes, requests already executing run to completion and are answered,
requests arriving on kept-alive connections are refused with a
structured ``draining`` payload, and the call returns only once the last
in-flight response is flushed and the shard executors are released.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from ...core.journal import journal_exists
from ...core.live import LiveDataset
from ...datasets.io import loads as dataset_loads, parse_ranking
from ...telemetry import runtime as _telemetry
from .. import counters as _counters
from ..frontend import ServiceFrontend, degraded_response
from ..live import LiveAggregationSession
from .protocol import (
    AggregateRequestError,
    decode_aggregate_request,
    response_payload,
    status_code_for,
)
from .worker import ShardPool, ShardRejection

__all__ = ["HttpAggregationServer", "HttpServerStats"]

#: Upper bound on request bodies (64 MiB — far above any paper-scale
#: dataset, small enough to stop a hostile Content-Length from
#: exhausting memory).
MAX_BODY_BYTES = 64 * 1024 * 1024
_MAX_HEADERS = 100
_LIVE_NAME = re.compile(r"^[A-Za-z0-9_.-]{1,128}$")


class _BodyTooLarge(Exception):
    """A Content-Length beyond :data:`MAX_BODY_BYTES` (answered 413)."""

    def __init__(self, length: int):
        super().__init__(f"request body of {length} bytes exceeds the cap")
        self.length = length


@dataclass
class HttpServerStats:
    """Socket-path accounting of one :class:`HttpAggregationServer`.

    Counts what only the HTTP layer sees.  ``/aggregate`` answers are
    counted in the shard registries alone; ``GET /stats`` reports their
    sum (:meth:`~repro.service.http.worker.ShardPool.stats`) as
    ``server.service``.

    Attributes
    ----------
    requests:
        HTTP requests answered (any route, any status).
    bad_requests:
        Bodies refused as unparsable (HTTP 400).
    too_large:
        Bodies refused for exceeding :data:`MAX_BODY_BYTES` (HTTP 413).
    live_requests:
        Requests handled by the ``/live`` session endpoints.
    """

    requests: int = 0
    bad_requests: int = 0
    too_large: int = 0
    live_requests: int = 0

    def describe(self) -> dict[str, Any]:
        """Flat dictionary form (``GET /stats``, benchmark payloads)."""
        return asdict(self)


class HttpAggregationServer:
    """Async HTTP server over a :class:`~repro.service.http.worker.ShardPool`.

    Parameters
    ----------
    cache_dir:
        Shared disk cache tier for the shard pool and the live-session
        frontend (``None`` disables caching).
    host:
        TCP bind address (ignored with ``unix_socket``).
    port:
        TCP port; ``0`` binds an ephemeral port (read it back from
        :attr:`port` after :meth:`start` — how the test suite avoids
        collisions).
    unix_socket:
        Bind a unix domain socket at this path instead of TCP.
    shards:
        Number of shard workers in the pool.
    mode:
        Shard execution mode, ``"thread"`` or ``"process"``.
    max_pending:
        Per-shard admission bound.
    default_budget_seconds:
        Compute budget for requests that do not carry one.
    seed:
        Seed shared by every frontend in the topology (shards and the
        live lane) — part of cache keys, so it must match for live
        re-publishes to be visible as shard cache hits.
    memory_entries:
        Per-shard memory cache tier capacity.
    replicas:
        Virtual points per shard on the routing ring.
    max_requests:
        Drain automatically after answering this many HTTP requests
        (CI smoke runs use it to exit deterministically without signal
        choreography).
    journal_dir:
        Root directory for live-session write-ahead journals (one
        subdirectory per session).  Sessions opened while it is set are
        journaled, and :meth:`start` recovers every journaled session it
        finds there — replaying the log and warm-repairing any that were
        mutated after their last published consensus.  ``None`` disables
        durability (the pre-journal behaviour).
    journal_fsync:
        Fsync policy for session journals
        (:data:`~repro.core.journal.FSYNC_POLICIES`).
    compact_every:
        Auto-compaction threshold forwarded to each journaled session.
    health_interval_seconds:
        Period of the background worker health loop (process mode): each
        tick probes every shard and ejects the ones whose worker process
        died, without waiting for a request to hit the corpse.  ``None``
        (default) leaves health checking to the request path.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: str | Path | None = None,
        shards: int = 2,
        mode: str = "thread",
        max_pending: int = 64,
        default_budget_seconds: float | None = 0.25,
        seed: int | None = None,
        memory_entries: int = 256,
        replicas: int | None = None,
        max_requests: int | None = None,
        journal_dir: str | Path | None = None,
        journal_fsync: str = "batch",
        compact_every: int | None = None,
        health_interval_seconds: float | None = None,
    ):
        self.pool = ShardPool(
            cache_dir,
            shards=shards,
            mode=mode,
            max_pending=max_pending,
            default_budget_seconds=default_budget_seconds,
            seed=seed,
            memory_entries=memory_entries,
            replicas=replicas,
        )
        self.journal_dir = None if journal_dir is None else Path(journal_dir)
        self.journal_fsync = journal_fsync
        self.compact_every = compact_every
        self.health_interval_seconds = health_interval_seconds
        self.recovered_sessions: tuple[str, ...] = ()
        self._health_task: asyncio.Task[None] | None = None
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.default_budget_seconds = default_budget_seconds
        self.seed = seed
        self.stats = HttpServerStats()
        self.max_requests = max_requests
        self._host = host
        self._port = port
        self._unix_socket = None if unix_socket is None else str(unix_socket)
        self._server: asyncio.AbstractServer | None = None
        self._drained = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._drained_event = asyncio.Event()
        self._connections: set[asyncio.StreamWriter] = set()
        self._sessions: dict[str, LiveAggregationSession] = {}
        # One serialized lane for live mutations/repairs: sessions are
        # stateful, so their operations must never interleave.
        self._live_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-http-live"
        )
        self._live_frontend = ServiceFrontend(
            cache_dir,
            default_budget_seconds=default_budget_seconds,
            seed=seed,
            memory_entries=memory_entries,
        )
        self._drain_task: asyncio.Task[None] | None = None

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        """Bound address (resolved after :meth:`start`)."""
        return self._host

    @property
    def port(self) -> int:
        """Bound TCP port (the real one, after an ephemeral bind)."""
        return self._port

    @property
    def unix_socket(self) -> str | None:
        """Bound unix-socket path (``None`` on TCP)."""
        return self._unix_socket

    @property
    def draining(self) -> bool:
        """Whether the server has started (or finished) its drain."""
        return self.pool.draining

    @property
    def live_sessions(self) -> tuple[str, ...]:
        """Names of the open live sessions."""
        return tuple(sorted(self._sessions))

    async def start(self) -> None:
        """Bind the socket, recover journaled sessions, accept connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self._unix_socket is not None:
            await self._remove_stale_unix_socket()
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self._unix_socket
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self._host, port=self._port
            )
            sockname = self._server.sockets[0].getsockname()
            self._host, self._port = sockname[0], sockname[1]
        await self.pool.warm_up()
        await self._recover_sessions()
        if self.health_interval_seconds is not None:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop()
            )

    async def _health_loop(self) -> None:
        """Periodically probe the shard workers and eject dead ones."""
        try:
            while not self.draining:
                await asyncio.sleep(self.health_interval_seconds)
                if self.draining:
                    return
                await self.pool.check_health()
        except asyncio.CancelledError:
            pass

    async def _remove_stale_unix_socket(self) -> None:
        """Unlink a socket file a crashed prior run left behind.

        A live server still answers on its socket, so the probe connects
        first: refusal (or a non-socket path error) means nobody is
        listening and the file is a stale leftover safe to remove; a
        successful connect means the address is genuinely taken.
        """
        path = Path(self._unix_socket)
        if not path.exists():
            return
        try:
            _, writer = await asyncio.open_unix_connection(self._unix_socket)
        except OSError:
            path.unlink(missing_ok=True)
            return
        writer.close()
        raise OSError(
            f"unix socket {self._unix_socket} is in use by a live server"
        )

    async def _recover_sessions(self) -> None:
        """Rebuild every journaled live session found under ``journal_dir``.

        Each session directory is replayed into a byte-identical dataset;
        sessions whose journal recorded mutations after the last published
        consensus are stale and get one warm-started repair immediately,
        so the first request they serve is already fresh.
        """
        if self.journal_dir is None or not self.journal_dir.is_dir():
            return
        recovered: list[str] = []
        loop = asyncio.get_running_loop()
        for directory in sorted(self.journal_dir.iterdir()):
            if not directory.is_dir() or not journal_exists(directory):
                continue
            name = directory.name
            session = await loop.run_in_executor(
                self._live_executor,
                lambda d=directory: LiveAggregationSession.recover(
                    d,
                    frontend=self._live_frontend,
                    budget_seconds=self.default_budget_seconds,
                    seed=self.seed,
                    journal_fsync=self.journal_fsync,
                    compact_every=self.compact_every,
                ),
            )
            if session.is_stale or session.consensus is None:
                await loop.run_in_executor(self._live_executor, session.repair)
            self._sessions[name] = session
            recovered.append(name)
        self.recovered_sessions = tuple(recovered)

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, release every executor.

        Idempotent; concurrent callers all wait for the same drain to
        complete.
        """
        self.pool.draining = True
        if self._drained:
            return
        if self._health_task is not None:
            self._health_task.cancel()
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        if self._drained:  # a concurrent drain finished while we waited
            return
        self._drained = True
        for writer in list(self._connections):
            writer.close()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.pool.shutdown)
        await loop.run_in_executor(None, self._live_executor.shutdown)
        for session in self._sessions.values():
            session.close()  # flush + fsync journals
        if self._unix_socket is not None:
            Path(self._unix_socket).unlink(missing_ok=True)
        self._drained_event.set()

    async def wait_drained(self) -> None:
        """Block until a drain (signal- or ``max_requests``-triggered) ends."""
        await self._drained_event.wait()

    # ------------------------------------------------------------------ #
    # Connection loop
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _BodyTooLarge as error:
                    # The oversized body was never read off the socket, so
                    # the connection cannot be reused: answer and close.
                    self.stats.requests += 1
                    self.stats.too_large += 1
                    if _telemetry.is_enabled():
                        _telemetry.count(
                            _counters.HTTP_REQUESTS, route="too_large", code=413
                        )
                    await self._write_response(
                        writer,
                        status_code_for("too_large"),
                        response_payload(
                            degraded_response(
                                None, status="too_large", error=str(error)
                            )
                        ),
                        keep_alive=False,
                    )
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                self._inflight += 1
                self._idle.clear()
                started = time.perf_counter()
                try:
                    code, payload = await self._dispatch(method, path, body)
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                self.stats.requests += 1
                latency = time.perf_counter() - started
                if _telemetry.is_enabled():
                    route = self._route_label(method, path)
                    _telemetry.count(
                        _counters.HTTP_REQUESTS, route=route, code=code
                    )
                    _telemetry.observe(
                        _counters.HTTP_LATENCY_SECONDS, latency, route=route
                    )
                keep_alive = (
                    not self.draining
                    and headers.get("connection", "").lower() != "close"
                )
                if (
                    self.max_requests is not None
                    and self.stats.requests >= self.max_requests
                ):
                    keep_alive = False
                    self._schedule_drain()
                await self._write_response(
                    writer, code, payload, keep_alive=keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # peer went away mid-request; nothing to answer
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Parse one request; ``None`` when the peer closed the connection."""
        try:
            request_line = await reader.readline()
        except (ConnectionResetError, asyncio.LimitOverrunError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0:
            return None
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(length)
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        payload: dict[str, Any],
        *,
        keep_alive: bool,
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  500: "Internal Server Error",
                  503: "Service Unavailable", 504: "Gateway Timeout"}
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {code} {reason.get(code, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    def _schedule_drain(self) -> None:
        """Kick off the graceful drain once (``max_requests`` reached)."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self.drain()
            )

    @staticmethod
    def _route_label(method: str, path: str) -> str:
        """Low-cardinality telemetry label for one request target."""
        if path.startswith("/live/"):
            suffix = path.split("/")[-1]
            kind = suffix if suffix in ("open", "mutate", "repair") else "serve"
            return f"{method} /live/:{kind}"
        return f"{method} {path}"

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        try:
            if path == "/healthz" and method == "GET":
                return 200, {
                    "status": "draining" if self.draining else "ok",
                    "shards": len(self.pool.shard_names),
                    "mode": self.pool.mode,
                }
            if path == "/stats" and method == "GET":
                return 200, await self._stats_payload()
            if path == "/aggregate" and method == "POST":
                return await self._handle_aggregate(body)
            if path.startswith("/live/"):
                return await self._handle_live(method, path, body)
            return 404, {"error": f"no route for {method} {path}"}
        except Exception as error:  # noqa: BLE001 — never tear the loop down
            return 500, {
                "status": "failed",
                "error": f"{type(error).__name__}: {error}",
            }

    async def _stats_payload(self) -> dict[str, Any]:
        live: dict[str, Any] = {}
        for name, session in sorted(self._sessions.items()):
            live[name] = {
                "generation": session.dataset.generation,
                "num_rankings": session.dataset.num_rankings,
                "stale": session.is_stale,
                "algorithm": session.algorithm_name,
                "score": session.score,
                "journaled": session.journal is not None,
                "recovered": name in self.recovered_sessions,
            }
        return {
            "server": {
                **self.stats.describe(),
                "service": self.pool.stats().describe(),
            },
            "pool": await self.pool.describe(),
            "live": live,
        }

    def _decode_body(self, body: bytes) -> dict[str, Any]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as error:
            raise AggregateRequestError(f"body is not JSON: {error}") from error
        if not isinstance(payload, dict):
            raise AggregateRequestError("body must be a JSON object")
        return payload

    async def _handle_aggregate(
        self, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        try:
            wire = self._decode_body(body)
            request = decode_aggregate_request(wire)
        except AggregateRequestError as error:
            self.stats.bad_requests += 1
            return 400, {"status": "invalid", "error": str(error)}
        try:
            payload, _shard = await self.pool.submit(request, wire=wire)
        except ShardRejection as rejection:
            if _telemetry.is_enabled():
                _telemetry.count(
                    _counters.HTTP_REJECTED, reason=rejection.status
                )
            return (
                status_code_for(rejection.status),
                response_payload(rejection.response),
            )
        return status_code_for(str(payload.get("status") or "ok")), payload

    # ------------------------------------------------------------------ #
    # Live sessions
    # ------------------------------------------------------------------ #
    async def _handle_live(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        segments = [part for part in path.split("/") if part]
        # segments: ["live", name] or ["live", name, action]
        if len(segments) < 2 or not _LIVE_NAME.match(segments[1]):
            return 404, {"error": f"bad live-session path {path!r}"}
        name = segments[1]
        action = segments[2] if len(segments) > 2 else None
        self.stats.live_requests += 1
        if self.draining:
            return 503, response_payload(
                degraded_response(None, status="draining", error="server is draining")
            )
        try:
            wire = self._decode_body(body)
        except AggregateRequestError as error:
            self.stats.bad_requests += 1
            return 400, {"status": "invalid", "error": str(error)}
        if method == "POST" and action == "open":
            return await self._live_open(name, wire)
        session = self._sessions.get(name)
        if session is None:
            return 404, {"error": f"no live session named {name!r}"}
        if method == "GET" and action is None:
            return await self._live_serve(session)
        if method == "POST" and action == "mutate":
            return await self._live_mutate(session, wire)
        if method == "POST" and action == "repair":
            return await self._live_repair(session, wire)
        return 405, {"error": f"no live action {method} {path}"}

    async def _live_open(
        self, name: str, wire: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        if name in self._sessions:
            return 400, {"error": f"live session {name!r} already open"}
        text = wire.get("dataset")
        if not isinstance(text, str) or not text.strip():
            self.stats.bad_requests += 1
            return 400, {
                "status": "invalid",
                "error": "live open needs a non-empty 'dataset' string",
            }
        algorithm = str(wire.get("algorithm") or "BioConsert")
        budget = wire.get("budget_seconds", self.default_budget_seconds)
        try:
            dataset = dataset_loads(text, name=name)
            session = LiveAggregationSession(
                LiveDataset(dataset.rankings, name=name),
                algorithm=algorithm,
                frontend=self._live_frontend,
                budget_seconds=None if budget is None else float(budget),
                seed=self.seed,
                journal_dir=(
                    None if self.journal_dir is None else self.journal_dir / name
                ),
                journal_fsync=self.journal_fsync,
                compact_every=self.compact_every,
            )
        except Exception as error:  # bad dataset / algorithm → 400
            self.stats.bad_requests += 1
            return 400, {
                "status": "invalid",
                "error": f"{type(error).__name__}: {error}",
            }
        self._sessions[name] = session
        return 200, {
            "session": name,
            "algorithm": algorithm,
            "num_rankings": session.dataset.num_rankings,
            "generation": session.dataset.generation,
            "fingerprint": session.dataset.content_fingerprint(),
        }

    async def _live_serve(
        self, session: LiveAggregationSession
    ) -> tuple[int, dict[str, Any]]:
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(self._live_executor, session.serve)
        return 200, self._report_payload(session, report)

    async def _live_mutate(
        self, session: LiveAggregationSession, wire: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        op = wire.get("op")
        if op not in ("add", "remove", "update"):
            self.stats.bad_requests += 1
            return 400, {
                "status": "invalid",
                "error": f"'op' must be add/remove/update, got {op!r}",
            }
        index = wire.get("index")

        def _apply() -> None:
            if op == "add":
                session.add_ranking(
                    parse_ranking(str(wire.get("ranking") or "")),
                    None if index is None else int(index),
                )
            elif op == "remove":
                session.remove_ranking(int(index))
            else:
                session.update_ranking(
                    int(index), parse_ranking(str(wire.get("ranking") or ""))
                )

        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._live_executor, _apply)
        except Exception as error:  # bad ranking / index → 400
            self.stats.bad_requests += 1
            return 400, {
                "status": "invalid",
                "error": f"{type(error).__name__}: {error}",
            }
        return 200, {
            "session": session.dataset.name,
            "op": op,
            "generation": session.dataset.generation,
            "num_rankings": session.dataset.num_rankings,
            "fingerprint": session.dataset.content_fingerprint(),
            "stale": session.is_stale,
        }

    async def _live_repair(
        self, session: LiveAggregationSession, wire: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        budget = wire.get("budget_seconds")
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            self._live_executor,
            lambda: session.repair(None if budget is None else float(budget)),
        )
        return 200, self._report_payload(session, report)

    @staticmethod
    def _report_payload(
        session: LiveAggregationSession, report: Any
    ) -> dict[str, Any]:
        payload = report.describe()
        payload["session"] = session.dataset.name
        payload["fingerprint"] = report.fingerprint  # undo describe()'s crop
        payload["consensus"] = [
            list(bucket) for bucket in report.consensus.buckets
        ]
        payload["num_rankings"] = session.dataset.num_rankings
        return payload

    def __repr__(self) -> str:
        bind = (
            self._unix_socket
            if self._unix_socket is not None
            else f"{self._host}:{self._port}"
        )
        return (
            f"HttpAggregationServer({bind}, shards={len(self.pool.shard_names)}, "
            f"mode={self.pool.mode!r}, draining={self.draining})"
        )
