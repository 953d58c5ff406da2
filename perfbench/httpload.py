"""Load generation against the gateway: a keep-alive HTTP/1.1 client on asyncio.

The client sends pre-encoded request documents and keeps the raw response
bodies; parsing and checking happen after the timed window so the client
takes as little CPU as possible from the server it shares the box with.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Optional

clock = time.perf_counter


@dataclass
class Exchange:
    """One request as the client saw it (all times on ``perf_counter``)."""

    kind: str
    key: str
    due: float  # when the request was due (closed loop: when it was sent)
    sent: float
    done: float = 0.0
    status: int = 0  # 0: transport error, no response
    body: bytes = b""
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from due to complete response (open loop counts queueing)."""
        return self.done - self.due


class Connection:
    """One keep-alive connection to the gateway."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._reader = None
        self._writer = None

    async def _ensure_open(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                "127.0.0.1", self.port, limit=1 << 20
            )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def call(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        await self._ensure_open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        header = await self._reader.readuntil(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and "close" in value.lower():
                close = True
        payload = await self._reader.readexactly(length)
        if close:
            await self.close()
        return status, payload

    async def exchange(self, request, due: Optional[float] = None) -> Exchange:
        sent = clock()
        record = Exchange(request.kind, request.key, sent if due is None else due, sent)
        try:
            record.status, record.body = await self.call("POST", request.path, request.body)
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError) as error:
            record.error = f"{type(error).__name__}: {error}"
            await self.close()
        record.done = clock()
        return record


async def closed_loop(port: int, requests: list, seconds: float = math.inf) -> list:
    """One client that sends its next request when the previous one returns.

    It stops at the end of ``requests`` or, with ``seconds``, at the first
    request that would start after that deadline.
    """
    connection = Connection(port)
    records = []
    started = clock()
    # Take a request only when it will be sent: a shared iterator loses none.
    pending = iter(requests)
    try:
        while clock() - started < seconds:
            request = next(pending, None)
            if request is None:
                break
            records.append(await connection.exchange(request))
    finally:
        await connection.close()
    return records


async def open_loop(port: int, schedule: list, connections: int) -> list:
    """Send ``schedule`` on time, regardless of completions.

    ``schedule`` is a list of ``(due offset, request)``.  Requests go out in
    order on whichever of the ``connections`` is free first, so a stalled
    server makes later requests wait, and that wait counts in their latency.
    """
    started = clock() + 0.02
    records: list = []
    queue: asyncio.Queue = asyncio.Queue()

    async def dispatch():
        for offset, request in schedule:
            delay = started + offset - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((started + offset, request))
        for _ in range(connections):
            queue.put_nowait(None)

    async def worker():
        connection = Connection(port)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                due, request = item
                records.append(await connection.exchange(request, due=due))
        finally:
            await connection.close()

    await asyncio.gather(dispatch(), *(worker() for _ in range(connections)))
    records.sort(key=lambda record: record.due)
    return records


async def call(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    """One request on a connection of its own."""
    connection = Connection(port)
    try:
        return await connection.call(method, path, body)
    finally:
        await connection.close()
