"""The benchmark's own HTTP/1.1 client and load loops.

A deliberately small keep-alive client, so the load generator does not
share code with the program it measures.  Two loops drive it:

* ``closed_loop`` — each connection sends its next request when the
  previous answer arrived (callers that wait for replies);
* ``open_loop`` — requests are due at seeded times whatever the server is
  doing (independent users).  Latency is measured from the *due* time, so a
  stall also delays every request scheduled behind it, and each request
  records how late the generator sent it.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: A request that got no answer within this many seconds is failed and
#: counted at this latency.
REQUEST_TIMEOUT = 30.0


def now() -> float:
    """CLOCK_MONOTONIC, the clock the traced program stamps spans with."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class HttpError(Exception):
    """Transport-level failure (connection lost, malformed response)."""


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=64 * 1024 * 1024
        )
        return self

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, dict[str, Any]]:
        if self._writer is None:
            await self.open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise HttpError("connection closed before the response")
        code = int(status_line.split()[1])
        length = 0
        keep_alive = True
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        payload = json.loads(await self._reader.readexactly(length)) if length else {}
        if not keep_alive:
            await self.close()
        return code, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None


@dataclass
class Sample:
    """One request as the client saw it."""

    key: Any  # caller's label (member index, op dict, ...)
    request_id: str
    code: int
    payload: dict[str, Any]
    latency: float  # seconds (open loop: from the due time)
    late: float = 0.0  # open loop: send time minus due time
    start: float = 0.0  # CLOCK_MONOTONIC the latency counts from
    body_bytes: int = 0
    path: str = ""

    @property
    def ok(self) -> bool:
        return self.code == 200


async def timed_request(
    conn: Connection, method: str, path: str, body: bytes, key: Any, request_id: str,
    start: float | None = None,
) -> Sample:
    sent = now()
    origin = sent if start is None else start
    try:
        code, payload = await asyncio.wait_for(
            conn.request(method, path, body), REQUEST_TIMEOUT
        )
        latency = now() - origin
    except (asyncio.TimeoutError, HttpError, ConnectionError, OSError, ValueError) as error:
        await conn.close()
        code, payload, latency = 0, {"error": repr(error)}, REQUEST_TIMEOUT
    return Sample(key, request_id, code, payload, latency,
                  late=sent - origin, start=origin, body_bytes=len(body), path=path)


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.ended - self.started


async def closed_loop(
    connections: list[Connection],
    next_request: Callable[[int], tuple[str, str, bytes, Any, str] | None],
    seconds: float,
) -> LoopResult:
    """Each connection sends back to back until ``seconds`` elapsed.

    ``next_request(i)`` returns the i-th request as (method, path, body,
    key, request_id), or ``None`` when the inputs are exhausted.
    """
    result = LoopResult(started=now())
    deadline = result.started + seconds
    counter = iter(range(1 << 62))

    async def worker(conn: Connection) -> None:
        while now() < deadline:
            request = next_request(next(counter))
            if request is None:
                return
            method, path, body, key, request_id = request
            result.samples.append(
                await timed_request(conn, method, path, body, key, request_id)
            )

    await asyncio.gather(*(worker(conn) for conn in connections))
    result.ended = now()
    return result


async def open_loop(
    connections: list[Connection],
    arrivals: list[tuple[float, bytes, Any, str]],
) -> LoopResult:
    """Send each request at its due offset on the first idle connection.

    ``arrivals`` holds (due offset in seconds, body, key, request_id).
    A request due while every connection is busy waits for one; that wait
    counts in its latency and in its lateness.
    """
    idle: asyncio.Queue[Connection] = asyncio.Queue()
    for conn in connections:
        idle.put_nowait(conn)
    result = LoopResult(started=now())
    tasks = []

    async def send(due: float, body: bytes, key: Any, request_id: str) -> None:
        conn = await idle.get()
        try:
            result.samples.append(
                await timed_request(conn, "POST", "/aggregate", body, key,
                                    request_id, start=due)
            )
        finally:
            idle.put_nowait(conn)

    for offset, body, key, request_id in arrivals:
        due = result.started + offset
        delay = due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(send(due, body, key, request_id)))
    await asyncio.gather(*tasks)
    result.ended = now()
    return result
