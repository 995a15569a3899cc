"""The asyncio transport layer: framing, pipelining, the one wire mode,
lifecycle.

Everything here drives raw ``handler(bytes) -> bytes`` listeners —
protocol-level behavior, below the RMI stack.
"""

import asyncio
import contextlib
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.aio import AioNetwork, EventLoopThread
from repro.aio.frames import (
    MAGIC,
    MAGIC_ACK,
    framed_envelope_views,
    split_envelope,
)
from repro.net import TcpNetwork
from repro.net.transport import ConnectError, ConnectionClosedError, TransportError
from repro.rmi import CommunicationError, RMIClient
from repro.wire.errors import DecodeError
from repro.wire.framing import FrameReceiver, frame_views, write_frame

from tests.support import wait_until


@pytest.fixture
def net():
    network = AioNetwork(max_workers=4, queue_depth=16)
    yield network
    network.close()


def envelope(request_id, payload):
    """The body of one enveloped frame (its length prefix dropped)."""
    return b"".join(framed_envelope_views(request_id, payload))[4:]


#: Answers that are not a whole frame: a 100-byte body cut short, and a
#: length prefix over the cap.
CUT_SHORT = (100).to_bytes(4, "big") + b"only this"
OVERSIZED = (2 ** 31).to_bytes(4, "big")


@contextlib.contextmanager
def broken_answer(answer: bytes):
    """A raw peer that reads one request — after the aio hello, if one
    comes — then sends *answer*, which is not a whole frame, and hangs
    up.  Yields its address."""
    accepting = socket.create_server(("127.0.0.1", 0))

    def serve():
        peer, _ = accepting.accept()
        with peer:
            receiver = FrameReceiver()
            if receiver.receive(peer) == MAGIC:
                write_frame(peer, MAGIC_ACK)
                receiver.receive(peer)
            peer.sendall(answer)

    server = threading.Thread(target=serve)
    server.start()
    try:
        yield f"tcp://127.0.0.1:{accepting.getsockname()[1]}"
    finally:
        server.join(timeout=5.0)
        accepting.close()


class TestEnvelope:
    def test_round_trip(self):
        rid, body = split_envelope(envelope(77, b"payload"))
        assert (rid, body) == (77, b"payload")

    def test_empty_payload(self):
        rid, body = split_envelope(envelope(1, b""))
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

    def test_handler_exception_drops_the_connection(self, net):
        def broken(payload):
            if payload == b"x":
                raise RuntimeError("handler bug")
            return bytes(payload)

        listener = net.listen("tcp://127.0.0.1:0", broken)
        channel = net.connect(listener.address)
        # Every driver's answer to a broken handler: the connection
        # drops, whatever else is multiplexed on it, and the listener
        # keeps serving new ones.
        with pytest.raises(ConnectionClosedError):
            channel.request(b"x")
        with pytest.raises(ConnectionClosedError):
            channel.request(b"y")
        assert net.connect(listener.address).request(b"y") == b"y"


class TestInterop:
    """The envelope is the aio pair's only wire mode: a threaded peer on
    either end is a typed failure, never a hang or a second mode."""

    def test_tcp_channel_against_aio_listener(self, net):
        """A first frame that is not the hello drops that connection,
        before anything is dispatched; aio connections are unaffected."""
        calls = []
        listener = net.listen("tcp://127.0.0.1:0",
                              lambda p: calls.append(p) or p + b"?")
        tcp = TcpNetwork()
        try:
            channel = tcp.connect(listener.address)
            with pytest.raises(ConnectionClosedError):
                channel.request(b"no hello")
            assert net.connect(listener.address).request(b"aio") == b"aio?"
            assert calls == [b"aio"]
        finally:
            tcp.close()

    def test_aio_channel_against_tcp_listener(self, net):
        """A hello answered without the ack fails the connect."""
        tcp = TcpNetwork()
        try:
            listener = tcp.listen("tcp://127.0.0.1:0", lambda p: bytes(p) + b".")
            with pytest.raises(TransportError, match="aio handshake"):
                net.connect(listener.address)
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

    @pytest.mark.parametrize("network, answer, reason", [
        pytest.param(TcpNetwork, CUT_SHORT,
                     r"closed mid-frame \(9/100 bytes read\)", id="tcp"),
        pytest.param(AioNetwork, CUT_SHORT,
                     r"closed mid-frame \(13/104 bytes read\)", id="aio"),
        pytest.param(TcpNetwork, OVERSIZED,
                     "frame of 2147483648 bytes exceeds", id="tcp-oversized"),
        pytest.param(AioNetwork, OVERSIZED,
                     "frame of 2147483648 bytes exceeds", id="aio-oversized"),
    ])
    def test_peer_closing_mid_frame_fails_the_waiter_with_the_reason(
            self, network, answer, reason):
        """A broken answer is a communication failure that closes the
        channel, on both transports (the threaded one used to raise the
        reader's DecodeError and keep a desynchronized stream open)."""
        network = network()
        try:
            with broken_answer(answer) as at:
                channel = network.connect(at)
                with pytest.raises(ConnectionClosedError, match=reason):
                    channel.request(b"x")
            with pytest.raises(ConnectionClosedError):
                channel.request(b"y")
        finally:
            network.close()

    def test_fail_fast_client_sees_a_communication_error(self):
        network = TcpNetwork()
        try:
            with broken_answer(CUT_SHORT) as at:
                client = RMIClient(network, at)
                with pytest.raises(CommunicationError,
                                   match="closed mid-frame"):
                    client.list_names()
        finally:
            network.close()

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
            # survives an abandoned request, unlike TcpChannel.
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

    def test_request_async_is_bounded_like_request(self):
        """``request_timeout`` "bounds each round trip" — the awaited
        one too (the regression: ``request_async`` waited out the whole
        stall and answered)."""
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

            async def awaited_request(payload):
                return await channel.request_async(payload)

            with pytest.raises(TransportError) as blocking:
                channel.request(b"stall")
            started = time.monotonic()
            with pytest.raises(TransportError) as awaited:
                asyncio.run(awaited_request(b"stall"))
            assert time.monotonic() - started < 5.0
            assert type(awaited.value) is type(blocking.value)
            assert str(awaited.value) == str(blocking.value)
            assert "timed out after 0.2s" in str(awaited.value)
            # The timed-out request abandoned only itself: the channel
            # is open, its table empty, and nothing was counted.
            assert asyncio.run(awaited_request(b"after")) == b"after"
            assert channel._conn._pending == {}
            assert channel.stats.requests == 1
        finally:
            gate.set()
            network.close()

class TestHopShape:
    """The hop does per request only what it needs: one hand-off in and
    one out on each side — no task, coroutine or stream in between."""

    def test_warm_round_trips_create_no_tasks_and_four_hand_offs(
            self, monkeypatch):
        server_net = AioNetwork(max_workers=4, queue_depth=16)
        client_net = AioNetwork()
        try:
            listener = server_net.listen("tcp://127.0.0.1:0", lambda p: p)
            channel = client_net.connect(listener.address)
            for _ in range(20):
                channel.request(b"warm")  # pool threads started, caches hot

            counts = {"client_tasks": 0, "server_tasks": 0,
                      "into_client_loop": 0, "into_server_loop": 0,
                      "pool_submits": 0}

            def count(key, real):
                def counted(*args, **kwargs):
                    counts[key] += 1
                    return real(*args, **kwargs)
                return counted

            for side, net in (("client", client_net), ("server", server_net)):
                loop = net.loop_thread.loop
                loop.set_task_factory(count(
                    f"{side}_tasks",
                    lambda loop, coro, **kw: asyncio.Task(coro, loop=loop, **kw),
                ))
                monkeypatch.setattr(
                    loop, "call_soon_threadsafe",
                    count(f"into_{side}_loop", loop.call_soon_threadsafe))
            monkeypatch.setattr(
                ThreadPoolExecutor, "submit",
                count("pool_submits", ThreadPoolExecutor.submit))

            for i in range(20):
                assert channel.request(b"echo%d" % i) == b"echo%d" % i

            assert counts == {"client_tasks": 0, "server_tasks": 0,
                              "into_client_loop": 20, "into_server_loop": 20,
                              "pool_submits": 20}
        finally:
            monkeypatch.undo()  # before close() goes through the loops
            client_net.close()
            server_net.close()

    def test_cancelled_request_async_leaves_no_pending_entry(self, net):
        """The awaitable twin of the timeout test above."""
        gate = threading.Event()

        def handler(payload):
            if payload == b"stall":
                gate.wait(10.0)  # not released while the test looks
            return payload

        listener = net.listen("tcp://127.0.0.1:0", handler)
        channel = net.connect(listener.address)

        async def drive():
            stalled = asyncio.ensure_future(channel.request_async(b"stall"))
            await asyncio.sleep(0)
            stalled.cancel()
            with pytest.raises(asyncio.CancelledError):
                await stalled
            # The forget reaches the loop before this request does.
            return await channel.request_async(b"after")

        try:
            assert asyncio.run(drive()) == b"after"
            assert channel._conn._pending == {}
        finally:
            gate.set()

    def test_response_for_a_forgotten_id_is_ignored(self):
        network = AioNetwork(max_workers=4, queue_depth=4,
                             request_timeout=0.2)
        gate = threading.Event()
        try:
            def handler(payload):
                if payload == b"stall":
                    gate.wait(10.0)
                return payload

            listener = network.listen("tcp://127.0.0.1:0", handler)
            channel = network.connect(listener.address)
            with pytest.raises(TransportError):
                channel.request(b"stall")
            gate.set()  # now the abandoned request's response is sent
            assert wait_until(lambda: listener.stats.requests == 1)
            assert channel.request(b"after") == b"after"
            assert channel._conn._pending == {}
            assert channel.stats.requests == 1  # the late one never counted
        finally:
            gate.set()
            network.close()

    def test_losing_the_race_to_a_cancel_is_not_a_connection_failure(self):
        """A response can arrive between a caller's timeout and the loop
        learning of it: the waiter is still in the table, but cancelled.
        Settling it must not raise into ``data_received`` — that would
        tear down a connection other threads share."""
        from concurrent.futures import Future

        from repro.aio import AioConnection

        loop = asyncio.new_event_loop()
        try:
            conn = AioConnection(loop, "tcp://127.0.0.1:1")
            conn.data_received(b"".join(frame_views(MAGIC_ACK)))
            abandoned, live = Future(), Future()
            abandoned.cancel()
            conn._pending.update({5: abandoned, 6: live})
            conn.data_received(b"".join(
                part for rid in (5, 6)
                for part in framed_envelope_views(rid, b"late")))
            assert live.result(0) == b"late"
            assert conn._pending == {} and not conn._closed
        finally:
            loop.close()

    def test_threads_sharing_a_channel_never_cross_wires(self, net):
        """8 threads x 200 requests, each answered with its own nonce."""
        listener = net.listen("tcp://127.0.0.1:0", lambda p: b"re:" + p)
        channel = net.connect(listener.address)
        crossed = []

        def worker(thread_no):
            for i in range(200):
                nonce = b"%d/%d" % (thread_no, i)
                if channel.request(nonce) != b"re:" + nonce:
                    crossed.append(nonce)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert crossed == []
        assert channel.stats.requests == 1600
        assert channel._conn._pending == {}
