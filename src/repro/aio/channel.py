"""Client connection layer of the asyncio runtime.

Two pieces:

- :class:`AioConnection` — an ``asyncio.Protocol`` on the shared
  background loop: one TCP transport, the correlation envelope opened
  by the hello handshake (a listener that does not acknowledge it fails
  the connect), and a request-id → ``concurrent.futures.Future`` table
  so any number of in-flight requests multiplex over the one socket
  and complete out of order.  A round trip is handed over twice on
  this side: the caller frames the request in its own thread and
  passes it to the loop with its waiter; ``data_received`` settles the
  waiter with the response.
- :class:`AioChannel` — the synchronous :class:`~repro.net.transport.
  Channel` facade.  It is thread-safe *without* serializing round trips:
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

from repro.aio.frames import (
    MAGIC,
    MAGIC_ACK,
    framed_envelope_views,
    split_envelope,
)
from repro.net.tcp import parse_tcp_address
from repro.net.transport import (
    Channel,
    ConnectError,
    ConnectionClosedError,
    TransportError,
)
from repro.wire.errors import DecodeError
from repro.wire.framing import FrameBuffer, frame_views

#: Seconds allowed for TCP connect plus the pipelining handshake.
CONNECT_TIMEOUT = 10.0


def _settle(setter, value) -> None:
    """Complete a waiter that its caller may have just abandoned: losing
    that race to a timeout's ``cancel()`` is not a connection failure."""
    try:
        setter(value)
    except concurrent.futures.InvalidStateError:
        pass


class AioConnection(asyncio.Protocol):
    """A multiplexed framed connection; only :meth:`submit` and
    :meth:`forget` may be called off its loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop, address: str):
        self._loop = loop
        self._address = address
        self._transport = None
        self._frames = FrameBuffer()
        self._pending = {}                    # request id -> waiter
        self._ids = itertools.count(1)
        self._hello = loop.create_future()    # settled by the first frame
        self._lost = loop.create_future()     # settled by connection_lost
        self._closed = False

    async def open(self) -> "AioConnection":
        host, port = parse_tcp_address(self._address)
        await self._loop.create_connection(lambda: self, host, port)
        self._transport.writelines(frame_views(MAGIC))
        await self._hello
        return self

    def submit(self, payload: bytes):
        """Frame *payload* and hand it to the loop, from any thread;
        returns ``(request_id, waiter)``.  The scatter list is built
        here, so an oversized payload raises in the caller, before
        anything reaches the loop or the waiter table."""
        request_id = next(self._ids)
        views = framed_envelope_views(request_id, payload)
        waiter = concurrent.futures.Future()
        try:
            self._loop.call_soon_threadsafe(self._send, request_id, views, waiter)
        except RuntimeError as exc:  # the loop is closed
            raise ConnectionClosedError(
                f"connection to {self._address!r} is closed"
            ) from exc
        return request_id, waiter

    def forget(self, request_id) -> None:
        """Drop an abandoned request's table entry — no response may ever
        come to take it out."""
        try:
            self._loop.call_soon_threadsafe(self._pending.pop, request_id, None)
        except RuntimeError:
            pass  # the loop is closed, and the table with it

    # -- event loop side -------------------------------------------------

    def _send(self, request_id, views, waiter) -> None:
        if self._closed:
            return _settle(waiter.set_exception, ConnectionClosedError(
                f"connection to {self._address!r} is closed"
            ))
        self._pending[request_id] = waiter
        self._transport.writelines(views)

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self._frames.feed(data)
        try:
            for body in self._frames.frames():
                if not self._hello.done():
                    if body != MAGIC_ACK:
                        raise DecodeError("the hello was answered without its ack")
                    self._hello.set_result(None)
                    continue
                request_id, payload = split_envelope(body)
                waiter = self._pending.pop(request_id, None)
                if waiter is not None:  # else: forgotten by its caller
                    _settle(waiter.set_result, payload)
        except DecodeError as exc:
            self._teardown(exc)

    def eof_received(self) -> None:
        try:
            self._frames.eof()
        except DecodeError as exc:
            self._teardown(exc)

    def connection_lost(self, exc) -> None:
        self._teardown(exc)
        self._lost.set_result(None)

    def _teardown(self, error) -> None:
        if self._closed:
            return
        self._closed = True
        reason = f"connection to {self._address!r} " + (
            "closed" if error is None else f"lost: {error}")
        if not self._hello.done():
            self._hello.set_exception(ConnectionClosedError(
                f"aio handshake with {self._address!r} failed: "
                + ("the server closed" if error is None else str(error))
            ))
        for waiter in self._pending.values():
            _settle(waiter.set_exception, ConnectionClosedError(reason))
        self._pending.clear()
        self._transport.close()

    async def close(self):
        self._teardown(None)
        await self._lost  # the socket is closed, not merely closing


class AioChannel(Channel):
    """Sync :class:`Channel` facade over a multiplexed :class:`AioConnection`.

    Concurrent :meth:`request` calls from any number of threads
    multiplex over the single connection — no per-channel serialization.

    *request_timeout* bounds each round trip (seconds); ``None`` waits
    forever.  A timed-out request abandons only itself — the
    correlation id keeps the stream consistent, so the channel stays
    open, unlike :class:`~repro.net.tcp.TcpChannel`.
    """

    #: Capability probe for wrappers (see FaultyChannel.supports_async):
    #: this channel natively exposes an awaitable request path.
    supports_async = True

    def __init__(self, loop_thread, address: str, request_timeout: float = None):
        super().__init__()
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(f"request_timeout must be positive: {request_timeout}")
        self._loop_thread = loop_thread
        self._address = address
        self._request_timeout = request_timeout
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

    def _submit(self, payload: bytes):
        if not self._open:
            raise ConnectionClosedError(f"channel to {self._address!r} is closed")
        return self._conn.submit(payload)

    def request(self, payload: bytes) -> bytes:
        """Send *payload*, block until the peer's response arrives."""
        request_id, waiter = self._submit(payload)
        try:
            response = waiter.result(self._request_timeout)
        except concurrent.futures.TimeoutError:
            waiter.cancel()
            self._conn.forget(request_id)
            raise self._timed_out() from None
        self.stats.record_request(len(payload), len(response))
        return response

    def _timed_out(self) -> TransportError:
        """The error for a round trip past *request_timeout*."""
        return TransportError(
            f"request to {self._address!r} timed out after "
            f"{self._request_timeout}s"
        )

    def request_async(self, payload: bytes):
        """Awaitable round trip, usable from *any* event loop.

        The same hand-off as :meth:`request`; the waiter is wrapped for
        the caller's loop instead of blocked on.  Stats are recorded on
        completion; cancelling the awaitable abandons the request, and
        so does *request_timeout*, with :meth:`request`'s error.
        """
        request_id, waiter = self._submit(payload)

        def done(waiter, bytes_up=len(payload)):  # not the payload itself
            if waiter.cancelled():
                self._conn.forget(request_id)
            elif waiter.exception() is None:
                self.stats.record_request(bytes_up, len(waiter.result()))

        waiter.add_done_callback(done)
        response = asyncio.wrap_future(waiter)
        if self._request_timeout is None:
            return response
        return self._bounded(response)

    async def _bounded(self, response):
        try:
            return await asyncio.wait_for(response, self._request_timeout)
        except asyncio.TimeoutError:
            # wait_for cancelled the waiter, which forgot the request.
            raise self._timed_out() from None

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
