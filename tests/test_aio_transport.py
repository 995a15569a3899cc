"""The asyncio transport layer: framing, pipelining, interop, lifecycle.

Everything here drives raw ``handler(bytes) -> bytes`` listeners —
protocol-level behavior, below the RMI stack.
"""

import asyncio
import threading
import time

import pytest

from repro.aio import AioNetwork, EventLoopThread
from repro.aio.frames import MAGIC, MAGIC_ACK, pack_envelope, split_envelope
from repro.net import TcpNetwork
from repro.net.transport import ConnectError, ConnectionClosedError, TransportError
from repro.wire.errors import DecodeError


@pytest.fixture
def net():
    network = AioNetwork(max_workers=4, queue_depth=16)
    yield network
    network.close()


class TestEnvelope:
    def test_round_trip(self):
        rid, body = split_envelope(pack_envelope(77, b"payload"))
        assert (rid, body) == (77, b"payload")

    def test_empty_payload(self):
        rid, body = split_envelope(pack_envelope(1, b""))
        assert (rid, body) == (1, b"")

    def test_short_frame_rejected(self):
        with pytest.raises(DecodeError):
            split_envelope(b"\x00\x00\x00")

    def test_magic_and_ack_differ(self):
        assert MAGIC != MAGIC_ACK


class TestEventLoopThread:
    def test_run_and_stop(self):
        loop_thread = EventLoopThread()

        async def answer():
            return 42

        assert loop_thread.run(answer()) == 42
        loop_thread.stop()
        loop_thread.stop()  # idempotent
        assert not loop_thread.alive

    def test_submit_after_stop_rejected(self):
        loop_thread = EventLoopThread()
        loop_thread.stop()

        async def nothing():
            pass

        with pytest.raises(RuntimeError):
            loop_thread.submit(nothing())

    def test_run_from_loop_thread_rejected(self):
        loop_thread = EventLoopThread()

        async def reenter():
            async def inner():
                pass

            coro = inner()
            try:
                loop_thread.run(coro)
            finally:
                coro.close()

        with pytest.raises(RuntimeError):
            loop_thread.run(reenter())
        loop_thread.stop()


class TestAioEcho:
    def test_request_response(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p + b"!")
        channel = net.connect(listener.address)
        assert channel.pipelined
        assert channel.request(b"hello") == b"hello!"
        assert listener.stats.requests == 1

    def test_concurrent_requests_multiplex(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        channel = net.connect(listener.address)
        results = {}

        def worker(i):
            results[i] = channel.request(f"msg{i}".encode())

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {i: f"msg{i}".encode() for i in range(8)}

    def test_out_of_order_completion(self, net):
        def handler(payload):
            if payload == b"slow":
                time.sleep(0.3)
            return payload

        listener = net.listen("tcp://127.0.0.1:0", handler)
        channel = net.connect(listener.address)
        order = []

        def call(payload):
            channel.request(payload)
            order.append(payload)

        slow = threading.Thread(target=call, args=(b"slow",))
        fast = threading.Thread(target=call, args=(b"fast",))
        slow.start()
        time.sleep(0.05)
        fast.start()
        slow.join()
        fast.join()
        # The fast request overtook the slow one on the same connection.
        assert order == [b"fast", b"slow"]

    def test_request_async_from_foreign_loop(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p.upper())
        channel = net.connect(listener.address)

        async def drive():
            replies = await asyncio.gather(
                *(channel.request_async(f"m{i}".encode()) for i in range(5))
            )
            return replies

        assert asyncio.run(drive()) == [f"M{i}".encode() for i in range(5)]

    def test_handler_exception_becomes_error_response(self, net):
        def broken(payload):
            raise RuntimeError("handler bug")

        listener = net.listen("tcp://127.0.0.1:0", broken)
        channel = net.connect(listener.address)
        # Unlike the threaded transport (which drops the connection), the
        # pipelined listener must keep the multiplexed stream alive: the
        # broken handler degrades to an encoded error response.
        response = channel.request(b"x")
        assert b"handler failure" in response
        assert channel.request(b"y")  # connection still usable


class TestInterop:
    def test_tcp_channel_against_aio_listener(self, net):
        """Legacy sequential clients are served on the same port."""
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p + b"?")
        tcp = TcpNetwork()
        try:
            channel = tcp.connect(listener.address)
            assert channel.request(b"legacy") == b"legacy?"
            assert channel.request(b"again") == b"again?"
        finally:
            tcp.close()

    def test_aio_channel_against_tcp_listener(self, net):
        """The pipelining handshake falls back against a legacy server."""
        tcp = TcpNetwork()
        try:
            listener = tcp.listen("tcp://127.0.0.1:0", lambda p: bytes(p) + b".")
            channel = net.connect(listener.address)
            assert not channel.pipelined
            assert channel.request(b"fallback") == b"fallback."
            assert channel.request(b"works") == b"works."
        finally:
            tcp.close()


class TestLifecycle:
    def test_connect_refused(self, net):
        with pytest.raises(ConnectError):
            net.connect("tcp://127.0.0.1:1")  # port 1: never listening

    def test_request_after_close(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        channel = net.connect(listener.address)
        channel.close()
        with pytest.raises(ConnectionClosedError):
            channel.request(b"x")

    def test_listener_close_ends_service(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        channel = net.connect(listener.address)
        assert channel.request(b"warm") == b"warm"
        listener.close()
        listener.close()  # idempotent
        with pytest.raises((ConnectionClosedError, TransportError)):
            channel.request(b"x")
        with pytest.raises(ConnectError):
            net.connect(listener.address)

    def test_network_close_is_idempotent(self):
        network = AioNetwork()
        network.listen("tcp://127.0.0.1:0", lambda p: p)
        network.close()
        network.close()
        with pytest.raises(RuntimeError):
            network.connect("tcp://127.0.0.1:1")

    def test_request_timeout_keeps_pipelined_channel_open(self):
        network = AioNetwork(max_workers=4, queue_depth=4,
                             request_timeout=0.2)
        try:
            gate = threading.Event()

            def handler(payload):
                if payload == b"stall":
                    gate.wait(5.0)
                return payload

            listener = network.listen("tcp://127.0.0.1:0", handler)
            channel = network.connect(listener.address)
            with pytest.raises(TransportError):
                channel.request(b"stall")
            gate.set()
            # Correlation ids keep the stream coherent: the channel
            # survives an abandoned request, unlike the sequential
            # transports.
            assert channel.request(b"after") == b"after"
        finally:
            network.close()

    def test_timed_out_request_leaves_no_pending_entry(self):
        """Against a peer that never answers, an abandoned request must
        not stay in the connection's request-id table (the regression:
        one retained future per timeout, until teardown)."""
        network = AioNetwork(max_workers=4, queue_depth=4,
                             request_timeout=0.2)
        gate = threading.Event()
        try:
            def handler(payload):
                if payload == b"stall":
                    gate.wait(10.0)  # not released while the test looks
                return payload

            listener = network.listen("tcp://127.0.0.1:0", handler)
            channel = network.connect(listener.address)
            with pytest.raises(TransportError):
                channel.request(b"stall")
            # The cancellation reaches the loop before this request
            # does, so its round trip is the synchronization point.
            assert channel.request(b"after") == b"after"
            assert channel._conn._pending == {}
        finally:
            gate.set()
            network.close()
