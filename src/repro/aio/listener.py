"""The asyncio server runtime: accept loop, pipelining, worker pool.

:class:`AioListener` serves the same ``handler(bytes) -> bytes`` contract
as the threaded :class:`~repro.net.tcp.TcpListener`, with a different
serving model:

- **accept loop** — one asyncio server task per connection instead of
  one thread; thousands of idle connections cost almost nothing;
- **pipelining** — a negotiated correlation envelope (see
  :mod:`repro.aio.frames`) lets one connection keep many requests in
  flight and receive responses out of order; legacy clients that skip
  the handshake get strict sequential service on the same port;
- **bounded worker pool** — the handler (RMI dispatch plus user code)
  blocks, so it runs on a ``ThreadPoolExecutor`` off the event loop;
  ``max_workers`` bounds concurrent execution;
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
    read_frame_async,
    split_envelope,
)
from repro.aio.metrics import MetricsRecorder, ServerMetrics
from repro.net.tcp import parse_tcp_address
from repro.obs.hints import note_queue_wait
from repro.obs.tracer import current_tracer
from repro.net.transport import FaultInjectedError, Listener
from repro.rmi.exceptions import RemoteError, ServerBusyError
from repro.rmi.protocol import CallResponse
from repro.wire import encode
from repro.wire.errors import DecodeError
from repro.wire.framing import frame_views

#: Default number of worker threads executing handlers.
DEFAULT_MAX_WORKERS = 16

#: Default number of admitted requests allowed to wait for a worker.
DEFAULT_QUEUE_DEPTH = 64

#: Default seconds close() waits for in-flight requests to finish.
DEFAULT_DRAIN_TIMEOUT = 5.0


class AioListener(Listener):
    """A pipelined asyncio listener serving ``handler(bytes) -> bytes``."""

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
        super().__init__(address)
        self._loop_thread = loop_thread
        self._loop = loop_thread.loop
        self._handler = handler
        self._capacity = max_workers + queue_depth
        self._drain_timeout = drain_timeout
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="aio-worker"
        )
        self._recorder = MetricsRecorder()
        self._in_flight = 0          # touched only on the event loop
        self._closing = False
        self._closed = False
        self._request_tasks = set()
        self._writers = set()
        # Shed responses are identical and hot by definition: encode once.
        self._busy_payload = encode(
            CallResponse(ServerBusyError(self._capacity), True)
        )
        try:
            # reuse_port joins the port's kernel listener group so N
            # worker processes (or N listeners) share one address — the
            # multi-core serving model; see repro.aio.supervisor.
            self._server = loop_thread.run(
                asyncio.start_server(
                    self._on_connection, host, port,
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

    def charge(self, kind: str, count: int = 1) -> None:
        """Record middleware charges for statistics only (real CPU time
        is already spent for real on this transport)."""
        self.stats.record_charge(kind, count)

    # -- serving (event loop side) ---------------------------------------

    async def _on_connection(self, reader, writer):
        if self._closing:
            writer.close()
            return
        self._writers.add(writer)
        conn_tasks = set()
        try:
            first = await read_frame_async(reader)
            if first == b"":
                return
            if first == MAGIC:
                writer.writelines(frame_views(MAGIC_ACK))
                await writer.drain()
                await self._serve_pipelined(reader, writer, conn_tasks)
            else:
                await self._serve_sequential(first, reader, writer)
        except (DecodeError, OSError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # Let this connection's in-flight responses go out before the
            # socket closes under them.
            if conn_tasks:
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _serve_pipelined(self, reader, writer, conn_tasks):
        """Many in-flight requests per connection, out-of-order replies."""
        write_lock = asyncio.Lock()
        while True:
            frame_body = await read_frame_async(reader)
            if frame_body == b"":
                return
            request_id, payload = split_envelope(frame_body)
            if not self._admit():
                self._recorder.on_shed()
                self._trace_shed()
                async with write_lock:
                    writer.writelines(
                        framed_envelope_views(request_id, self._busy_payload)
                    )
                    await writer.drain()
                self.stats.record_request(len(payload), len(self._busy_payload))
                continue
            task = self._loop.create_task(
                self._run_pipelined(request_id, payload, writer, write_lock)
            )
            conn_tasks.add(task)
            task.add_done_callback(conn_tasks.discard)
            self._track(task)

    async def _run_pipelined(self, request_id, payload, writer, write_lock):
        response = await self._execute_admitted(payload)
        if response is None:
            # Injected server-side fault: drop the whole connection, the
            # same observable failure the threaded listener produces.
            writer.close()
            return
        try:
            async with write_lock:
                # Scatter-gather: the response is framed and enveloped
                # without being re-copied into a staging buffer.
                writer.writelines(framed_envelope_views(request_id, response))
                await writer.drain()
            self.stats.record_request(len(payload), len(response))
        except (OSError, ConnectionError):
            pass  # peer vanished; the work is done, the reply has no home

    async def _serve_sequential(self, first, reader, writer):
        """Legacy mode: strict one-request-one-response, in order."""
        payload = first
        while True:
            if not self._admit():
                self._recorder.on_shed()
                self._trace_shed()
                response = self._busy_payload
            else:
                task = self._loop.create_task(self._execute_admitted(payload))
                self._track(task)
                response = await task
            if response is None:
                return  # injected server-side fault: drop the connection
            writer.writelines(frame_views(response))
            await writer.drain()
            self.stats.record_request(len(payload), len(response))
            payload = await read_frame_async(reader)
            if payload == b"":
                return

    def _trace_shed(self) -> None:
        """Force-record a shed marker: overload must be visible in traces
        at any sample rate (the request was never decoded, so there is no
        context to parent under — sheds are roots)."""
        current_tracer().event("server.shed", parent=None, force=True,
                               capacity=self._capacity)

    def _admit(self) -> bool:
        # Only the event loop mutates _in_flight, so this needs no lock.
        if self._closing or self._in_flight >= self._capacity:
            return False
        self._in_flight += 1
        self._recorder.on_admit()
        return True

    async def _execute_admitted(self, payload: bytes) -> bytes:
        admitted_at = time.monotonic()
        worker_future = self._pool.submit(self._invoke, payload, admitted_at)
        try:
            return await asyncio.wrap_future(worker_future)
        except asyncio.CancelledError:
            # Teardown cancelled us.  If the worker never started, its
            # on_start/on_done pair will never run — release the
            # admission so the books balance (a request that did start
            # keeps running on its worker thread and settles itself).
            if worker_future.cancel():
                self._recorder.on_abandoned()
            raise
        finally:
            self._in_flight -= 1

    def _invoke(self, payload: bytes, admitted_at: float):
        """Worker-pool side: run the handler, never let it raise.

        The RMI core already encodes its own failures; a raw exception
        here means the handler itself is broken.  Unlike the threaded
        transport we cannot just drop the connection — other requests
        are multiplexed on it — so degrade to an encoded error response.
        Metrics are recorded here, on the worker, so a request's
        start/done accounting cannot be split from its execution.
        """
        self._recorder.on_start()
        # Deposit the admitted->started wait for the dispatch core to
        # attach to this request's server span (same worker thread).
        note_queue_wait(time.monotonic() - admitted_at)
        try:
            try:
                return self._handler(payload)
            except FaultInjectedError:
                # A fault-injecting wrapper asked for a dropped connection
                # (None tells the writer side to close it) — the chaos
                # harness's stand-in for a server crashing mid-exchange.
                return None
            except Exception as exc:  # noqa: BLE001 - must not kill the worker
                return encode(
                    CallResponse(
                        RemoteError(f"server handler failure: {exc}"), True
                    )
                )
        finally:
            self._recorder.on_done(time.monotonic() - admitted_at)

    def _track(self, task) -> None:
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)

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
        self._pool.shutdown(wait=False)

    async def _shutdown(self):
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        pending = list(self._request_tasks)
        if pending:
            await asyncio.wait(pending, timeout=self._drain_timeout)
        for writer in list(self._writers):
            writer.close()
