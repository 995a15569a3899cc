"""Client connection layer of the asyncio runtime.

Two pieces:

- :class:`AioConnection` — the asyncio-native engine: one TCP stream,
  a negotiated pipelining envelope (falling back to sequential framing
  against legacy listeners), and a request-id → future table so any
  number of concurrent ``await request()`` calls multiplex over the one
  socket and complete out of order.  Lives entirely on one event loop.
- :class:`AioChannel` — the synchronous :class:`~repro.net.transport.
  Channel` facade over an :class:`AioConnection` running on the shared
  background loop.  It is thread-safe *without* serializing round trips:
  N threads calling :meth:`AioChannel.request` share the connection and
  their requests pipeline.  This is what lets every existing sync layer
  — ``RMIClient``, ``create_batch``, plan reuse — run over the asyncio
  transport untouched.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import threading
import time

from repro.aio.frames import (
    MAGIC,
    MAGIC_ACK,
    framed_envelope_views,
    read_frame_async,
    split_envelope,
)
from repro.net.tcp import parse_tcp_address
from repro.net.transport import (
    Channel,
    ConnectError,
    ConnectionClosedError,
    TransportError,
)
from repro.wire.framing import frame_views

#: Seconds allowed for TCP connect plus the pipelining handshake.
CONNECT_TIMEOUT = 10.0


class AioConnection:
    """A multiplexed framed connection; every method runs on its loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop, address: str):
        self._loop = loop
        self._address = address
        self._reader = None
        self._writer = None
        self._write_lock = asyncio.Lock()
        self._pending = {}
        self._ids = itertools.count(1)
        self._read_task = None
        self._closed = False
        self.pipelined = False

    async def open(self) -> "AioConnection":
        host, port = parse_tcp_address(self._address)
        self._reader, self._writer = await asyncio.open_connection(host, port)
        self._writer.writelines(frame_views(MAGIC))
        await self._writer.drain()
        ack = await read_frame_async(self._reader)
        if ack == b"":
            raise ConnectionClosedError(
                f"server at {self._address!r} closed during the aio handshake"
            )
        # A legacy listener answers the hello with an ordinary (error)
        # response instead of the ack; consume it and fall back to
        # sequential framing on the same socket.
        self.pipelined = ack == MAGIC_ACK
        if self.pipelined:
            self._read_task = self._loop.create_task(self._read_loop())
        return self

    async def request(self, payload: bytes) -> bytes:
        if self._closed:
            raise ConnectionClosedError(
                f"connection to {self._address!r} is closed"
            )
        if not self.pipelined:
            return await self._request_sequential(payload)
        request_id = next(self._ids)
        # Build the scatter list (frame header, envelope, payload — no
        # concatenation copies) before registering the future: an
        # oversized payload must raise without leaking a pending entry.
        views = framed_envelope_views(request_id, payload)
        future = self._loop.create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                self._writer.writelines(views)
                await self._writer.drain()
        except (OSError, ConnectionError) as exc:
            self._pending.pop(request_id, None)
            await self._teardown(exc)
            raise ConnectionClosedError(
                f"i/o failure talking to {self._address!r}: {exc}"
            ) from exc
        try:
            return await future
        finally:
            # Cancelled while waiting (the sync facade's timeout): no
            # response may ever come to take the entry out.
            self._pending.pop(request_id, None)

    async def _request_sequential(self, payload: bytes) -> bytes:
        # Legacy peer: one round trip at a time; the lock spans the whole
        # exchange, exactly like TcpChannel's io lock.
        async with self._write_lock:
            try:
                self._writer.writelines(frame_views(payload))
                await self._writer.drain()
                response = await read_frame_async(self._reader)
            except (OSError, ConnectionError) as exc:
                await self._teardown(exc)
                raise ConnectionClosedError(
                    f"i/o failure talking to {self._address!r}: {exc}"
                ) from exc
        if response == b"":
            await self._teardown(None)
            raise ConnectionClosedError(
                f"server at {self._address!r} closed the connection"
            )
        return response

    async def _read_loop(self):
        error = None
        try:
            while True:
                frame_body = await read_frame_async(self._reader)
                if frame_body == b"":
                    break
                request_id, payload = split_envelope(frame_body)
                future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(payload)
        except asyncio.CancelledError:
            return  # close() settles the pending futures
        except Exception as exc:  # noqa: BLE001 - every reason fails the conn
            error = exc
        await self._teardown(error, cancel_reader=False)

    async def _teardown(self, error, cancel_reader: bool = True):
        if self._closed:
            return
        self._closed = True
        if cancel_reader and self._read_task is not None:
            self._read_task.cancel()
        reason = (
            f"connection to {self._address!r} lost: {error}"
            if error is not None
            else f"connection to {self._address!r} closed"
        )
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ConnectionClosedError(reason))
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def close(self):
        await self._teardown(None)


class AioChannel(Channel):
    """Sync :class:`Channel` facade over a pipelined :class:`AioConnection`.

    Concurrent :meth:`request` calls from any number of threads
    multiplex over the single connection — no per-channel serialization
    (unless the peer is a legacy listener, where round trips serialize
    to keep the unenveloped stream coherent).

    *request_timeout* bounds each round trip (seconds); ``None`` waits
    forever.  A timed-out pipelined request abandons only itself — the
    correlation id keeps the stream consistent, so the channel stays
    open, unlike the sequential transports.
    """

    #: Capability probe for wrappers (see FaultyChannel.supports_async):
    #: this channel natively exposes an awaitable request path.
    supports_async = True

    def __init__(self, loop_thread, address: str, request_timeout: float = None,
                 trace=None, from_host: str = "client"):
        super().__init__()
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(f"request_timeout must be positive: {request_timeout}")
        self._loop_thread = loop_thread
        self._address = address
        self._request_timeout = request_timeout
        self._trace = trace
        self._from_host = from_host
        self._close_lock = threading.Lock()
        self._open = False
        connection = AioConnection(loop_thread.loop, address)
        try:
            self._conn = loop_thread.run(connection.open(), timeout=CONNECT_TIMEOUT)
        except TransportError:
            raise
        except Exception as exc:
            raise ConnectError(address) from exc
        self._open = True

    @property
    def address(self) -> str:
        return self._address

    @property
    def pipelined(self) -> bool:
        """Whether the peer accepted the multiplexing envelope."""
        return self._conn.pipelined

    def request(self, payload: bytes) -> bytes:
        """Send *payload*, block until the peer's response arrives."""
        if not self._open:
            raise ConnectionClosedError(
                f"channel to {self._address!r} is closed"
            )
        started = time.monotonic() if self._trace is not None else 0.0
        future = self._loop_thread.submit(self._conn.request(payload))
        try:
            response = future.result(self._request_timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            if not self._conn.pipelined:
                # The unenveloped response stream is now desynchronized.
                self.close()
            raise TransportError(
                f"request to {self._address!r} timed out after "
                f"{self._request_timeout}s"
            ) from None
        except TransportError:
            raise
        except Exception as exc:
            raise ConnectionClosedError(
                f"i/o failure talking to {self._address!r}: {exc}"
            ) from exc
        self.stats.record_request(len(payload), len(response))
        self._trace_round_trip(started, len(payload), len(response))
        return response

    def _trace_round_trip(self, started, bytes_up, bytes_down) -> None:
        if self._trace is None:
            return
        from repro.net.trace import MessageEvent

        self._trace.record(MessageEvent(
            started, time.monotonic(), self._from_host, self._address,
            bytes_up, bytes_down, False,
        ))

    def request_async(self, payload: bytes):
        """Awaitable round trip, usable from *any* event loop.

        The coroutine runs on the channel's background loop; the returned
        future is awaitable where the caller lives.  Stats are recorded on
        completion.
        """
        return asyncio.wrap_future(
            self._loop_thread.submit(self._recorded_request(payload))
        )

    async def _recorded_request(self, payload: bytes) -> bytes:
        started = time.monotonic() if self._trace is not None else 0.0
        response = await self._conn.request(payload)
        self.stats.record_request(len(payload), len(response))
        self._trace_round_trip(started, len(payload), len(response))
        return response

    def close(self) -> None:
        with self._close_lock:
            if not self._open:
                return
            self._open = False
        if self._loop_thread.alive:
            try:
                self._loop_thread.run(self._conn.close(), timeout=5.0)
            except Exception:
                pass
