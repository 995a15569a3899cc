"""`AioNetwork`: the asyncio runtime as a drop-in transport.

Implements the :class:`~repro.net.transport.Network` contract, so the
entire existing stack — ``RMIServer``, ``RMIClient``, ``create_batch``,
plan reuse — runs over the multiplexing asyncio runtime by swapping one
constructor argument::

    network = AioNetwork(max_workers=32, queue_depth=128)
    server = RMIServer(network, "tcp://127.0.0.1:0").start()
    client = RMIClient(network, server.address)   # multiplexed facade

One background event loop (one thread) carries all listeners and
channels of the network; handlers execute on each listener's bounded
worker pool.  Both ends must be aio: the hello handshake (see
:mod:`repro.aio.frames`) fails a ``TcpChannel`` against an
``AioListener``, and an ``AioChannel`` against a ``TcpListener``, with
a typed error instead of a hang.
"""

from __future__ import annotations

import threading

from repro.aio.channel import AioChannel
from repro.aio.listener import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_MAX_WORKERS,
    DEFAULT_QUEUE_DEPTH,
    AioListener,
)
from repro.aio.runtime import EventLoopThread
from repro.net.transport import Network


class AioNetwork(Network):
    """Factory for multiplexing asyncio listeners and channels.

    *max_workers*, *queue_depth* and *drain_timeout* configure every
    listener created through :meth:`listen`; *request_timeout* bounds
    each client round trip on channels from :meth:`connect`.
    """

    #: Tells RMICore that handlers run on a bounded pool: loopback stubs
    #: must dispatch in-process instead of consuming a second worker
    #: (re-entrant requests would deadlock a saturated pool otherwise).
    direct_loopback = True

    def __init__(self, *, max_workers: int = DEFAULT_MAX_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
                 request_timeout: float = None,
                 reuse_port: bool = False):
        self._max_workers = max_workers
        self._queue_depth = queue_depth
        self._drain_timeout = drain_timeout
        self._request_timeout = request_timeout
        self._reuse_port = reuse_port
        self._lock = threading.Lock()
        self._loop_thread = None
        self._listeners = []
        self._channels = []
        self._closed = False

    @property
    def loop_thread(self) -> EventLoopThread:
        """The shared background event loop (started on first use)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("network is closed")
            if self._loop_thread is None:
                self._loop_thread = EventLoopThread()
            return self._loop_thread

    def listen(self, address: str, handler) -> AioListener:
        listener = AioListener(
            self.loop_thread, address, handler,
            max_workers=self._max_workers,
            queue_depth=self._queue_depth,
            drain_timeout=self._drain_timeout,
            reuse_port=self._reuse_port,
        )
        with self._lock:
            self._listeners.append(listener)
        return listener

    def connect(self, address: str, from_host: str = "client") -> AioChannel:
        channel = AioChannel(
            self.loop_thread, address, request_timeout=self._request_timeout,
        )
        with self._lock:
            self._channels.append(channel)
        return channel

    def close(self) -> None:
        """Drain listeners, close channels, stop the event loop thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            listeners = list(self._listeners)
            channels = list(self._channels)
            loop_thread = self._loop_thread
            self._listeners.clear()
            self._channels.clear()
        for listener in listeners:
            listener.close()
        for channel in channels:
            channel.close()
        if loop_thread is not None:
            loop_thread.stop()
