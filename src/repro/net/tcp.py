"""Real TCP transport over loopback sockets.

Functionally identical to :class:`repro.net.sim.SimNetwork` from the RMI
layer's point of view; used by integration tests and the runnable examples
to prove the middleware works over an actual byte stream, concurrent
clients and all — not just the in-process simulator.

One thread per accepted connection; requests on a single connection are
processed in order (matching the synchronous RMI call model), while
separate connections proceed concurrently.  A failed request step
(:meth:`~repro.net.transport.Listener.answer`) drops the connection.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.wire.errors import DecodeError
from repro.wire.framing import FrameReceiver, write_frame
from repro.net.transport import (
    Channel,
    ConnectError,
    ConnectionClosedError,
    Listener,
    Network,
)


def parse_tcp_address(address: str):
    """Split ``tcp://host:port`` into (host, port)."""
    if address.startswith("tcp://"):
        address = address[len("tcp://") :]
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad tcp address {address!r}; want tcp://host:port")
    return host, int(port)


#: Whether this platform can shard one listening port across processes.
#: Linux and the BSDs have ``SO_REUSEPORT``; where it is missing the
#: supervisor falls back to a single acceptor (see repro.aio.supervisor).
HAS_REUSEPORT = hasattr(socket, "SO_REUSEPORT")


def set_reuseport(sock: socket.socket) -> None:
    """Enable SO_REUSEPORT on *sock* (must run before ``bind``).

    Raises :class:`OSError`/:class:`AttributeError` where the option is
    unavailable; gate call sites on :data:`HAS_REUSEPORT`.
    """
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)


def reserve_reuseport(host: str = "127.0.0.1", port: int = 0):
    """Reserve a port for a reuseport listener group.

    Binds (without listening) a SO_REUSEPORT socket to *host*:*port* and
    returns ``(sock, port)``.  A bound-but-not-listening socket never
    receives SYNs, so it holds the port against unrelated binders while
    every listener that *does* set SO_REUSEPORT can still join the
    group.  The caller keeps the socket open for the lifetime of the
    group and closes it afterwards.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        set_reuseport(sock)
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock, sock.getsockname()[1]


class TcpNetwork(Network):
    """Factory for real socket listeners/channels."""

    def __init__(self, reuse_port: bool = False):
        self._listeners = []
        self._channels = []
        self._lock = threading.Lock()
        self._reuse_port = reuse_port

    def listen(self, address: str, handler) -> "TcpListener":
        listener = TcpListener(address, handler, reuse_port=self._reuse_port)
        with self._lock:
            self._listeners.append(listener)
        return listener

    def connect(self, address: str, from_host: str = "client") -> "TcpChannel":
        channel = TcpChannel(address)
        with self._lock:
            self._channels.append(channel)
        return channel

    def close(self) -> None:
        with self._lock:
            channels = list(self._channels)
            listeners = list(self._listeners)
            self._channels.clear()
            self._listeners.clear()
        for channel in channels:
            channel.close()
        for listener in listeners:
            listener.close()


class TcpListener(Listener):
    """Threaded accept loop serving ``handler(bytes-like) -> bytes``.

    The handler receives a ``memoryview`` of the connection's reusable
    receive buffer (valid for the duration of the call); handlers that
    keep or rewrite the payload must take their own ``bytes()`` copy.
    The RMI core decodes in place and retains nothing.
    """

    def __init__(self, address: str, handler, reuse_port: bool = False):
        host, port = parse_tcp_address(address)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            # Join (or found) the port's reuseport listener group: the
            # kernel load-balances incoming connections across every
            # listening member — the process-shard serving model.
            set_reuseport(self._sock)
        self._sock.bind((host, port))
        self._sock.listen(64)
        actual_host, actual_port = self._sock.getsockname()
        super().__init__(f"tcp://{actual_host}:{actual_port}", handler)
        self._closed = threading.Event()
        self._conn_lock = threading.Lock()
        self._threads = []
        self._conns = set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"tcp-accept-{actual_port}", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self):
        while not self._closed.is_set():
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return  # listener socket closed
            with self._conn_lock:
                if self._closed.is_set():
                    conn.close()
                    return
                self._conns.add(conn)
                # Reap finished connection threads so a long-lived listener
                # serving many short connections doesn't accumulate them.
                self._threads = [t for t in self._threads if t.is_alive()]
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket):
        # One reusable receive buffer per connection: requests decode
        # straight from it (the handler runs before the next receive
        # overwrites the view), responses go out via sendmsg — neither
        # direction stages a contiguous copy.
        receiver = FrameReceiver()
        try:
            with conn:
                while not self._closed.is_set():
                    try:
                        payload = receiver.receive(conn)
                    except Exception:
                        return  # peer vanished mid-frame; drop the connection
                    if payload == b"":
                        return  # clean EOF
                    try:
                        response = self.answer(payload)
                        write_frame(conn, response)
                    except (ConnectionClosedError, OSError):
                        return  # a broken handler or peer: drop the connection
                    self.stats.record_request(len(payload), len(response))
        finally:
            with self._conn_lock:
                self._conns.discard(conn)

    def close(self) -> None:
        """Stop serving, idempotently.

        Closes the listening socket, force-closes every live
        per-connection socket (unblocking their ``recv``), and joins the
        accept thread and connection threads, so repeated start/stop
        cycles leak neither daemon threads nor ports.  Joins are bounded:
        a handler stuck in user code cannot wedge shutdown.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does (EINVAL), so the join below can succeed.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        with self._conn_lock:
            conns = list(self._conns)
            threads = list(self._threads)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=2.0)
        deadline = time.monotonic() + 2.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._conn_lock:
            self._threads = [t for t in self._threads if t.is_alive()]


class TcpChannel(Channel):
    """Client socket issuing framed request/response pairs.

    *request_timeout* bounds each round trip (seconds); ``None`` waits
    forever.  A timeout closes the channel — the response stream would
    be desynchronized if a late reply arrived for an abandoned request.
    """

    def __init__(self, address: str, request_timeout: float = None):
        super().__init__()
        host, port = parse_tcp_address(address)
        self._address = address
        self._io_lock = threading.Lock()
        self._receiver = FrameReceiver()
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(f"request_timeout must be positive: {request_timeout}")
        self._request_timeout = request_timeout
        try:
            self._sock = socket.create_connection((host, port), timeout=10.0)
            self._sock.settimeout(request_timeout)
        except OSError as exc:
            raise ConnectError(address) from exc
        self._open = True

    @property
    def address(self) -> str:
        return self._address

    def request(self, payload: bytes) -> bytes:
        with self._io_lock:
            if not self._open:
                raise ConnectionClosedError(
                    f"channel to {self._address!r} is closed"
                )
            try:
                # An oversized payload raises FrameTooLargeError here,
                # before a byte is sent: the channel stays usable.
                write_frame(self._sock, payload)
            except OSError as exc:
                raise self._broken(exc) from exc
            try:
                # Detach from the reusable receive buffer: the Channel
                # API promises bytes that outlive the next round trip.
                # (This folds the empty frame into the clean-EOF b"" —
                # the codec never emits one.)
                response = bytes(self._receiver.receive(self._sock))
            except (OSError, DecodeError) as exc:
                # A peer gone mid-frame or an oversized length prefix
                # leaves the stream desynchronized, like an i/o error.
                raise self._broken(exc) from exc
        if response == b"":
            self._open = False
            raise ConnectionClosedError(
                f"server at {self._address!r} closed the connection"
            )
        self.stats.record_request(len(payload), len(response))
        return response

    def _broken(self, exc) -> ConnectionClosedError:
        """Mark the channel closed after a failed exchange; the error
        for the caller."""
        self._open = False
        return ConnectionClosedError(
            f"i/o failure talking to {self._address!r}: {exc}"
        )

    def close(self) -> None:
        with self._io_lock:
            self._open = False
            try:
                self._sock.close()
            except OSError:
                pass
