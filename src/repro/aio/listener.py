"""The asyncio server runtime: accept loop, pipelining, worker pool.

:class:`AioListener` serves the same ``handler(bytes) -> bytes`` contract
as the threaded :class:`~repro.net.tcp.TcpListener`, with a different
serving model:

- **accept loop** — one ``asyncio.Protocol`` object per connection
  instead of one thread (and no task or coroutine per connection or per
  request); thousands of idle connections cost almost nothing;
- **pipelining** — a correlation envelope, opened by a hello frame
  (see :mod:`repro.aio.frames`), lets one connection keep many
  requests in flight and receive responses out of order; a peer whose
  first frame is not the hello is dropped;
- **bounded worker pool** — the handler (RMI dispatch plus user code)
  blocks, so the listener's request step (:meth:`~repro.net.transport.
  Listener.answer`) runs on a ``ThreadPoolExecutor`` off the event loop;
  ``max_workers`` bounds concurrent execution.  A request is handed
  over twice: ``pool.submit`` in, one ``call_soon_threadsafe`` from the
  worker back to the loop, which writes the response — or, when the
  step failed, drops the connection, as every driver does;
- **admission control** — at most ``max_workers + queue_depth`` requests
  may be admitted; beyond that the listener sheds load instantly with a
  pre-encoded :class:`~repro.rmi.exceptions.ServerBusyError` response
  instead of letting queues grow without bound.  Shedding happens before
  dispatch, so a shed request never has side effects and is always safe
  to retry;
- **graceful drain** — :meth:`close` stops accepting, lets admitted
  requests finish (bounded by ``drain_timeout``), then closes
  connections and the pool;
- **live metrics** — :attr:`metrics` snapshots in-flight/queued/served/
  shed counts and service-time percentiles.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from repro.aio.frames import (
    MAGIC,
    MAGIC_ACK,
    framed_envelope_views,
    split_envelope,
)
from repro.aio.metrics import MetricsRecorder, ServerMetrics
from repro.net.tcp import parse_tcp_address
from repro.obs.hints import note_queue_wait
from repro.obs.tracer import current_tracer
from repro.net.transport import ConnectionClosedError, Listener
from repro.rmi.exceptions import ServerBusyError
from repro.rmi.protocol import CallResponse
from repro.wire import encode
from repro.wire.errors import DecodeError
from repro.wire.framing import FrameBuffer, FrameTooLargeError, frame_views

#: Default number of worker threads executing handlers.
DEFAULT_MAX_WORKERS = 16

#: Default number of admitted requests allowed to wait for a worker.
DEFAULT_QUEUE_DEPTH = 64

#: Default seconds close() waits for in-flight requests to finish.
DEFAULT_DRAIN_TIMEOUT = 5.0


class _ServerConnection(asyncio.Protocol):
    """One accepted socket; every method runs on the event loop.

    The first frame must be :data:`MAGIC`, which is acknowledged; every
    later frame is an enveloped request, dispatched as it arrives.  Any
    other first frame drops the connection.
    """

    def __init__(self, listener: "AioListener"):
        self._listener = listener
        self._transport = None
        self._frames = FrameBuffer()
        self._greeted = False        # the hello arrived and was acknowledged
        self._write_paused = False   # transport buffer above its high-water
        self._input_ended = False    # EOF or garbage: answer, then close
        self.outstanding = 0         # admitted from this socket, unanswered

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._listener._transports.add(transport)
        if self._listener._closing:
            transport.close()

    def connection_lost(self, exc) -> None:
        self._listener._transports.discard(self._transport)

    def data_received(self, data: bytes) -> None:
        self._frames.feed(data)
        self.pump()

    def eof_received(self) -> bool:
        # A half-closed peer still gets its in-flight replies: keep the
        # write side open; pump() closes once nothing is outstanding.
        self._input_ended = True
        self.pump()
        return True

    def pause_writing(self) -> None:
        # Reached from inside pump()'s own writes too: only flag it there.
        self._write_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self.pump()

    def pump(self) -> None:
        """Dispatch buffered requests, then set the socket to match."""
        transport, listener = self._transport, self._listener
        if transport.is_closing():
            return  # dropped or lost: what is still buffered has no reader
        try:
            for body in self._frames.frames():
                if not self._greeted:
                    if body != MAGIC:
                        raise DecodeError("first frame is not the aio hello")
                    self._greeted = True
                    transport.writelines(frame_views(MAGIC_ACK))
                    continue
                listener._dispatch(self, *split_envelope(body))
                if self._write_paused:
                    break  # the rest waits in the frame buffer
        except DecodeError:
            # No hello, short envelope or oversized prefix: drop this
            # connection, once what it already had admitted is answered.
            self._frames = FrameBuffer()
            self._input_ended = True
        if self._write_paused or (self.outstanding and self._input_ended):
            # Write flow control lives here: a peer that does not read
            # its responses is neither read from nor dispatched for.
            transport.pause_reading()
        elif self._input_ended:
            transport.close()  # nothing buffered, nothing outstanding
        else:
            transport.resume_reading()

    def reply(self, request_id, request_bytes: int, response) -> None:
        """Write one response, enveloped with its request's id."""
        transport = self._transport
        if response is None:
            # The request step failed: drop the whole connection, every
            # request multiplexed on it included, as every driver does.
            transport.close()
        elif not transport.is_closing():  # else the reply has no home
            try:
                transport.writelines(
                    framed_envelope_views(request_id, response))
            except FrameTooLargeError:
                return transport.close()
            self._listener.stats.record_request(request_bytes, len(response))


class AioListener(Listener):
    """A multiplexing asyncio listener serving ``handler(bytes) -> bytes``."""

    def __init__(self, loop_thread, address: str, handler, *,
                 max_workers: int = DEFAULT_MAX_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
                 reuse_port: bool = False):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1: {max_workers}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0: {queue_depth}")
        host, port = parse_tcp_address(address)
        super().__init__(address, handler)
        self._loop_thread = loop_thread
        self._loop = loop_thread.loop
        self._capacity = max_workers + queue_depth
        self._drain_timeout = drain_timeout
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="aio-worker"
        )
        self._recorder = MetricsRecorder()
        self._in_flight = 0          # touched only on the event loop
        self._closing = False
        self._closed = False
        self._drained = None         # close() waiting for _in_flight == 0
        self._transports = set()
        # Shed responses are identical and hot by definition: encode once.
        self._busy_payload = encode(
            CallResponse(ServerBusyError(self._capacity), True)
        )
        try:
            # reuse_port joins the port's kernel listener group so N
            # worker processes (or N listeners) share one address — the
            # multi-core serving model; see repro.aio.supervisor.
            self._server = loop_thread.run(
                self._loop.create_server(
                    lambda: _ServerConnection(self), host, port,
                    reuse_port=reuse_port or None,
                )
            )
        except Exception:
            self._pool.shutdown(wait=False)
            raise
        sockname = self._server.sockets[0].getsockname()
        self.address = f"tcp://{sockname[0]}:{sockname[1]}"

    # -- observability ---------------------------------------------------

    @property
    def metrics(self) -> ServerMetrics:
        """A consistent snapshot of the runtime's live gauges/counters."""
        return self._recorder.snapshot()

    @property
    def ready(self) -> bool:
        """True while the listener accepts new connections (what the
        admin endpoint's ``health`` readiness reports)."""
        return not self._closing and not self._closed

    # -- serving (event loop side) ---------------------------------------

    def _trace_shed(self) -> None:
        """Force-record a shed marker: overload must be visible in traces
        at any sample rate (the request was never decoded, so there is no
        context to parent under — sheds are roots)."""
        current_tracer().event("server.shed", parent=None, force=True,
                               capacity=self._capacity)

    def _dispatch(self, conn, request_id, payload: bytes) -> None:
        """Admit one request onto the pool, or shed it on the spot."""
        # Only the event loop mutates _in_flight, so this needs no lock.
        if self._closing or self._in_flight >= self._capacity:
            self._recorder.on_shed()
            self._trace_shed()
            conn.reply(request_id, len(payload), self._busy_payload)
            return
        self._in_flight += 1
        self._recorder.on_admit()
        conn.outstanding += 1
        self._pool.submit(
            self._serve, conn, request_id, payload, time.monotonic()
        ).add_done_callback(self._note_abandoned)

    def _note_abandoned(self, job) -> None:
        # close() cancels work no worker ever started; its on_start/on_done
        # pair will never run, so release the admission here.
        if job.cancelled():
            self._recorder.on_abandoned()

    def _finish(self, conn, request_id, request_bytes, response):
        """Loop side of a finished request: books, response, drain."""
        self._in_flight -= 1
        conn.outstanding -= 1
        conn.reply(request_id, request_bytes, response)
        conn.pump()
        if self._drained is not None and not self._in_flight:
            self._drained.set_result(None)
            self._drained = None

    # -- serving (worker pool side) --------------------------------------

    def _serve(self, conn, request_id, payload, admitted_at):
        response = self._invoke(payload, admitted_at)
        try:
            self._loop.call_soon_threadsafe(
                self._finish, conn, request_id, len(payload), response
            )
        except RuntimeError:
            pass  # close() gave up on this handler and the loop is gone

    def _invoke(self, payload: bytes, admitted_at: float):
        """Worker-pool side: the request step, or ``None`` when it
        failed (the writer side then drops the connection).

        Metrics are recorded here, on the worker, so a request's
        start/done accounting cannot be split from its execution.
        """
        self._recorder.on_start()
        # Deposit the admitted->started wait for the dispatch core to
        # attach to this request's server span (same worker thread).
        note_queue_wait(time.monotonic() - admitted_at)
        try:
            return self.answer(payload)
        except ConnectionClosedError:
            return None
        finally:
            self._recorder.on_done(time.monotonic() - admitted_at)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, tear down.

        Idempotent and bounded by ``drain_timeout``.  Call from any
        thread except the event loop itself.
        """
        if self._closed:
            return
        self._closed = True
        if self._loop_thread.alive:
            try:
                self._loop_thread.run(
                    self._shutdown(), timeout=self._drain_timeout + 10.0
                )
            except Exception:
                pass  # drain is best-effort; the pool shutdown below is not
        self._pool.shutdown(wait=False, cancel_futures=True)

    async def _shutdown(self):
        self._closing = True
        self._server.close()
        if self._in_flight:
            self._drained = self._loop.create_future()
            await asyncio.wait([self._drained], timeout=self._drain_timeout)
            self._drained = None
        for transport in list(self._transports):
            transport.close()
        await self._server.wait_closed()
