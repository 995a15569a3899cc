"""The RMI stack over the asyncio runtime: serving model and lifecycle.

The dispatch core is the same object the threaded transports use, so
these tests focus on what the runtime adds: pipelined batches, worker
pool + admission control, graceful drain, metrics, and the idempotent
``stop()`` contract.
"""

import socket
import threading
import time

import pytest

from repro.aio import AioNetwork, AioRMIClient, LoadTargetImpl
from repro.aio.frames import (
    MAGIC,
    MAGIC_ACK,
    framed_envelope_views,
    split_envelope,
)
from repro.aio.listener import AioListener, _ServerConnection
from repro.core import create_batch
from repro.net.tcp import parse_tcp_address
from repro.rmi import RMIClient, RMIServer, ServerBusyError
from repro.wire.framing import MAX_FRAME_SIZE, FrameReceiver, write_frame

from tests.support import (
    BoomError,
    CounterImpl,
    IdentityServiceImpl,
    make_container,
    wait_until,
)


@pytest.fixture
def aio():
    network = AioNetwork(max_workers=4, queue_depth=16)
    server = RMIServer(network, "tcp://127.0.0.1:0").start()
    server.bind("counter", CounterImpl())
    server.bind("container", make_container())
    server.bind("identity", IdentityServiceImpl())
    server.bind("load", LoadTargetImpl())
    client = RMIClient(network, server.address)
    yield network, server, client
    client.close()
    network.close()


class TestRmiOverAio:
    def test_basic_calls(self, aio):
        _net, _server, client = aio
        stub = client.lookup("counter")
        assert stub.increment(3) == 3
        assert stub.current() == 3

    def test_exceptions_cross_the_runtime(self, aio):
        _net, _server, client = aio
        with pytest.raises(BoomError):
            client.lookup("counter").boom("over aio")

    def test_remote_references(self, aio):
        _net, _server, client = aio
        item = client.lookup("container").get_item("item1")
        assert item.score() == 1

    def test_batched_calls(self, aio):
        _net, _server, client = aio
        batch = create_batch(client.lookup("counter"))
        futures = [batch.increment(1) for _ in range(5)]
        batch.flush()
        assert [f.get() for f in futures] == [1, 2, 3, 4, 5]

    def test_identity_preserved(self, aio):
        _net, _server, client = aio
        batch = create_batch(client.lookup("identity"))
        created = batch.create()
        outcome = batch.use(created)
        batch.flush()
        assert outcome.get() is True

    def test_chained_batches(self, aio):
        _net, _server, client = aio
        batch = create_batch(client.lookup("counter"))
        first = batch.increment(10)
        batch.flush_and_continue()
        assert first.get() == 10
        second = batch.increment(5)
        batch.flush()
        assert second.get() == 15

    def test_loopback_stub_call_cannot_deadlock_the_pool(self):
        """A handler invoking a stub that points back at this server
        (§4.4) must not consume a second worker: with one worker and a
        nested transport hop this would deadlock forever."""
        network = AioNetwork(max_workers=1, queue_depth=4)
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            server.bind("identity", IdentityServiceImpl())
            client = RMIClient(network, server.address)
            stub = client.lookup("identity")
            created = stub.create()
            created.increment(7)
            # poke() calls current() on its stub argument server-side.
            assert stub.poke(created) == 7
            client.close()
        finally:
            network.close()

    def test_concurrent_batches_one_connection(self, aio):
        """Flushes from many threads pipeline over the shared channel."""
        _net, server, client = aio
        stub = client.lookup("counter")
        amounts = list(range(1, 9))

        def flush_one(amount):
            batch = create_batch(stub)
            future = batch.increment(amount)
            batch.flush()
            return future.get()

        results = []
        threads = [
            threading.Thread(target=lambda a=a: results.append(flush_one(a)))
            for a in amounts
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Interleaving order is free; the final value is not.
        assert max(results) == sum(amounts)
        assert server.objects.lookup(
            client.lookup("counter").remote_ref.object_id
        ).value == sum(amounts)


class TestMetrics:
    def test_served_and_percentiles(self, aio):
        _net, server, client = aio
        stub = client.lookup("load")
        for _ in range(5):
            stub.work(0.01)
        metrics = server.metrics
        assert metrics.served >= 6  # lookup + 5 works
        assert metrics.shed == 0
        assert metrics.in_flight == 0
        assert metrics.queued == 0
        assert metrics.p99_ms >= metrics.p50_ms > 0.0
        assert "served=" in str(metrics)

    def test_threaded_transports_expose_none(self):
        from repro.net import TcpNetwork

        network = TcpNetwork()
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            assert server.metrics is None
            server.stop()
        finally:
            network.close()


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self):
        network = AioNetwork(max_workers=1, queue_depth=1)
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            server.bind("load", LoadTargetImpl())
            client = RMIClient(network, server.address)
            stub = client.lookup("load")
            outcomes = []

            def call():
                try:
                    outcomes.append(("ok", stub.work(0.3)))
                except ServerBusyError as exc:
                    outcomes.append(("shed", exc.capacity))

            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            served = [o for o in outcomes if o[0] == "ok"]
            shed = [o for o in outcomes if o[0] == "shed"]
            # Capacity is workers + queue = 2: at least one burst request
            # must have been shed, and every shed carries the capacity.
            assert shed and all(capacity == 2 for _, capacity in shed)
            assert served  # admitted requests completed normally
            assert server.metrics.shed == len(shed)
            client.close()
        finally:
            network.close()

    def test_shed_batch_flush_is_retryable(self):
        """A shed request never executed: retrying cannot double-apply."""
        network = AioNetwork(max_workers=1, queue_depth=0)
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            counter = CounterImpl()
            server.bind("counter", counter)
            server.bind("load", LoadTargetImpl())
            client = RMIClient(network, server.address)
            load_stub = client.lookup("load")
            counter_stub = client.lookup("counter")

            hold = threading.Thread(target=lambda: load_stub.work(0.5))
            hold.start()
            time.sleep(0.1)  # let the slow call occupy the only worker
            attempts = 0
            while True:
                attempts += 1
                try:
                    batch = create_batch(counter_stub)
                    future = batch.increment(1)
                    batch.flush()
                    break
                except ServerBusyError:
                    time.sleep(0.1)
            hold.join()
            assert future.get() == 1
            assert counter.value == 1  # exactly once, despite retries
            assert attempts >= 2  # the first attempt was genuinely shed
            client.close()
        finally:
            network.close()


class TestLoadHarness:
    def test_failed_connect_closes_the_clients_already_opened(self, aio):
        from repro.aio import run_load
        from repro.net.transport import ConnectError

        network, server, _client = aio

        class ThirdConnectFails:
            def __init__(self):
                self.opened = []
                self.closed = []

            def connect(self, address, from_host="client"):
                if len(self.opened) == 2:
                    raise ConnectError(address)
                channel = network.connect(address, from_host)
                self.opened.append(channel)
                real_close = channel.close
                channel.close = lambda: (self.closed.append(channel),
                                         real_close())
                return channel

        flaky = ThirdConnectFails()
        with pytest.raises(ConnectError):
            run_load(flaky, server.address, clients=3, streams=1,
                     duration=0.1, delay=0.0, warmup=0.0)
        assert len(flaky.opened) == 2
        assert flaky.closed == flaky.opened


class TestLifecycle:
    def test_stop_is_idempotent_and_stats_survive(self):
        network = AioNetwork()
        server = RMIServer(network, "tcp://127.0.0.1:0").start()
        server.bind("counter", CounterImpl())
        client = RMIClient(network, server.address)
        client.lookup("counter").increment(1)
        requests_before = server.stats.requests
        server.stop()
        server.stop()
        server.close()  # alias, also idempotent
        assert server.stats.requests == requests_before
        client.close()
        network.close()

    def test_stats_before_start_raise(self):
        network = AioNetwork()
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0")
            with pytest.raises(RuntimeError):
                _ = server.stats
        finally:
            network.close()

    def test_graceful_drain_completes_in_flight(self):
        network = AioNetwork(max_workers=2, queue_depth=4, drain_timeout=5.0)
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            server.bind("load", LoadTargetImpl())
            client = RMIClient(network, server.address)
            stub = client.lookup("load")
            result = {}

            def slow_call():
                result["value"] = stub.work(0.4)

            worker = threading.Thread(target=slow_call)
            worker.start()
            time.sleep(0.1)  # the request is in flight now
            server.stop()
            worker.join(timeout=5.0)
            # The drain let the admitted request finish and ship its reply.
            assert result.get("value") == 1
            with pytest.raises(Exception):
                RMIClient(network, server.address)  # no longer accepting
            client.close()
        finally:
            network.close()

    def test_restart_after_stop(self):
        network = AioNetwork()
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            server.bind("counter", CounterImpl())
            address = server.address
            server.stop()
            server.start()
            client = RMIClient(network, server.address)
            assert client.lookup("counter").increment(2) == 2
            client.close()
            server.stop()
        finally:
            network.close()


class TestAsyncClient:
    def test_gathered_calls(self, aio):
        import asyncio

        net, _server, _client = aio
        aclient = AioRMIClient(net, _server.address)

        async def drive():
            stub = await aclient.lookup("counter")
            results = []
            for amount in (1, 2, 3):
                results.append(await aclient.call_stub(stub, "increment", (amount,)))
            currents = await asyncio.gather(
                *(aclient.call_stub(stub, "current") for _ in range(4))
            )
            return results, currents

        results, currents = asyncio.run(drive())
        assert results == [1, 3, 6]
        assert currents == [6, 6, 6, 6]
        aclient.close()

    def test_sync_facade_shares_connection(self, aio):
        net, _server, _client = aio
        aclient = AioRMIClient(net, _server.address)
        stub = aclient.sync.lookup("counter")
        batch = create_batch(stub)
        future = batch.increment(9)
        batch.flush()
        assert future.get() == 9
        assert aclient.stats.requests >= 2
        aclient.close()

    def test_awaited_timeout_is_retried_like_any_transport_error(self):
        """``request_timeout`` bounds the awaited round trip too, and
        the retrying client treats it as the TransportError it is: drop,
        reconnect, resend the same token — executed exactly once."""
        import asyncio

        from repro.obs import Tracer, install_tracer, uninstall_tracer
        from repro.rmi import RetryPolicy

        class StallsOnce(CounterImpl):
            stalled = False

            def increment(self, amount: int) -> int:
                if not self.stalled:
                    self.stalled = True
                    time.sleep(0.5)  # past the client's 0.2 s bound
                return super().increment(amount)

        network = AioNetwork(max_workers=4, queue_depth=16,
                             request_timeout=0.2)
        server = RMIServer(network, "tcp://127.0.0.1:0").start()
        impl = StallsOnce()
        server.bind("counter", impl)
        aclient = AioRMIClient(
            network, server.address,
            retry=RetryPolicy(max_attempts=6, backoff_s=0.01, jitter=False),
        )
        tracer = install_tracer(Tracer())
        try:
            async def drive():
                stub = await aclient.lookup("counter")
                return await aclient.call_stub(stub, "increment", (5,))

            assert asyncio.run(drive()) == 5
        finally:
            uninstall_tracer()
            aclient.close()
            network.close()
        assert impl.value == 5  # the resends were replays, not re-runs
        assert server.dedup.hits >= 1
        errors = [s.attrs.get("error", "") for s in tracer.spans()
                  if s.name == "client.send"]
        assert len(errors) >= 3  # lookup, the timed-out send, a resend
        assert "timed out after 0.2s" in errors[1]
        assert errors[-1] == ""

    def test_requires_aio_network(self):
        from repro.net import TcpNetwork

        network = TcpNetwork()
        try:
            listener = network.listen("tcp://127.0.0.1:0", lambda p: p)
            with pytest.raises(TypeError):
                AioRMIClient(network, listener.address)
        finally:
            network.close()


class TestMetricsPercentiles:
    """Regression coverage for the percentile math behind ServerMetrics.

    Nearest-rank percentiles over a bounded sample window: the edge
    shapes (empty, single sample, saturated window) have all broken
    naive implementations before, so each is pinned here directly
    against MetricsRecorder rather than through a live server.
    """

    @staticmethod
    def _serve(recorder, service_seconds):
        recorder.on_admit()
        recorder.on_start()
        recorder.on_done(service_seconds)

    def test_empty_window_reports_zero_not_nan(self):
        from repro.aio.metrics import MetricsRecorder

        snapshot = MetricsRecorder().snapshot()
        assert snapshot.p50_ms == 0.0
        assert snapshot.p99_ms == 0.0
        assert snapshot.served == 0

    def test_single_sample_is_every_percentile(self):
        from repro.aio.metrics import MetricsRecorder

        recorder = MetricsRecorder()
        self._serve(recorder, 0.040)
        snapshot = recorder.snapshot()
        assert snapshot.p50_ms == pytest.approx(40.0)
        assert snapshot.p99_ms == pytest.approx(40.0)

    def test_two_samples_nearest_rank(self):
        from repro.aio.metrics import MetricsRecorder

        recorder = MetricsRecorder()
        self._serve(recorder, 0.010)
        self._serve(recorder, 0.030)
        snapshot = recorder.snapshot()
        # Nearest-rank: ceil(0.5 * 2) = rank 1 -> the smaller sample.
        assert snapshot.p50_ms == pytest.approx(10.0)
        assert snapshot.p99_ms == pytest.approx(30.0)

    def test_known_distribution(self):
        from repro.aio.metrics import MetricsRecorder

        recorder = MetricsRecorder()
        for ms in range(1, 101):  # 1ms..100ms
            self._serve(recorder, ms / 1000.0)
        snapshot = recorder.snapshot()
        assert snapshot.p50_ms == pytest.approx(50.0)
        assert snapshot.p99_ms == pytest.approx(99.0)

    def test_saturated_window_keeps_only_the_tail(self):
        from repro.aio.metrics import MetricsRecorder

        recorder = MetricsRecorder(window=4)
        self._serve(recorder, 10.0)  # will be evicted by the next four
        for _ in range(4):
            self._serve(recorder, 0.020)
        snapshot = recorder.snapshot()
        assert snapshot.p50_ms == pytest.approx(20.0)
        assert snapshot.p99_ms == pytest.approx(20.0)  # the 10s outlier is gone
        assert snapshot.served == 5  # counters are not windowed

    def test_percentiles_are_order_insensitive(self):
        from repro.aio.metrics import MetricsRecorder

        ascending = MetricsRecorder()
        shuffled = MetricsRecorder()
        samples = [0.005, 0.010, 0.015, 0.020, 0.200]
        for value in samples:
            self._serve(ascending, value)
        for value in (0.200, 0.010, 0.020, 0.005, 0.015):
            self._serve(shuffled, value)
        assert ascending.snapshot().p99_ms == shuffled.snapshot().p99_ms
        assert ascending.snapshot().p50_ms == shuffled.snapshot().p50_ms

    def test_queued_gauge_never_goes_negative(self):
        from repro.aio.metrics import MetricsRecorder

        recorder = MetricsRecorder()
        recorder.on_admit()
        recorder.on_start()
        assert recorder.snapshot().queued == 0
        recorder.on_done(0.001)
        assert recorder.snapshot().queued == 0
        assert recorder.snapshot().in_flight == 0


class RawPipelinedPeer:
    """A hand-driven pipelined client: nothing is read unless asked."""

    def __init__(self, address, rcvbuf=None):
        host, port = parse_tcp_address(address)
        self.sock = socket.socket()
        if rcvbuf is not None:  # before connect, so the window honours it
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(10.0)
        self.sock.connect((host, port))
        self.receiver = FrameReceiver()
        write_frame(self.sock, MAGIC)
        assert self.receiver.receive(self.sock) == MAGIC_ACK

    def send(self, request_id, payload=b"ping"):
        self.sock.sendall(b"".join(framed_envelope_views(request_id, payload)))

    def read_ids(self, count):
        """Ids of the next *count* responses; fewer if EOF comes first."""
        ids = []
        while len(ids) < count:
            body = self.receiver.receive(self.sock)
            if body == b"":
                break
            ids.append(split_envelope(body)[0])
        return ids

    def close(self):
        self.sock.close()


class TestFlowControlAndTeardown:
    """What ``drain()`` and a task per request used to give for free."""

    def test_unread_responses_stop_the_reads_of_that_socket_only(
            self, monkeypatch):
        paused = threading.Event()
        real_pause = _ServerConnection.pause_writing

        def spying_pause(conn):
            paused.set()
            real_pause(conn)

        monkeypatch.setattr(_ServerConnection, "pause_writing", spying_pause)
        network = AioNetwork(max_workers=2, queue_depth=254)
        peer = None
        try:
            listener = network.listen(
                "tcp://127.0.0.1:0", lambda p: b"r" * 65536)
            peer = RawPipelinedPeer(listener.address, rcvbuf=4096)

            def served():
                return listener.metrics.served

            # One request at a time, so admission can never be what
            # stops the count: the peer reads nothing, the kernel's
            # buffers fill, then the transport's passes its high-water.
            sent = 0
            while not paused.is_set():
                assert sent < 256, "reached capacity without a pause"
                peer.send(sent)
                sent += 1
                assert wait_until(lambda: served() == sent)
            stalled_at = sent
            # Requests sent now are not even read...
            for _ in range(8):
                peer.send(sent)
                sent += 1
            # ...while another connection is served as usual (its round
            # trip is also the sync point: the loop has been around).
            other = network.connect(listener.address)
            assert len(other.request(b"x")) == 65536
            assert wait_until(lambda: listener.metrics.in_flight == 0)
            assert served() == stalled_at + 1
            # The peer drains: everything it ever sent is answered once.
            assert sorted(peer.read_ids(sent)) == list(range(sent))
            assert wait_until(lambda: served() == sent + 1)
        finally:
            if peer is not None:
                peer.close()
            network.close()

    def test_half_closed_peer_still_gets_its_replies(self):
        network = AioNetwork(max_workers=2, queue_depth=16)
        try:
            listener = network.listen("tcp://127.0.0.1:0", lambda p: p)
            peer = RawPipelinedPeer(listener.address)
            for request_id in range(8):
                peer.send(request_id)
            peer.sock.shutdown(socket.SHUT_WR)
            assert sorted(peer.read_ids(9)) == list(range(8))  # then EOF
            peer.close()
        finally:
            network.close()

    def test_close_abandons_queued_work_and_survives_a_late_handler(
            self, monkeypatch, caplog):
        network = AioNetwork(max_workers=1, queue_depth=8, drain_timeout=0.2)
        gate, parked, finished = (threading.Event() for _ in range(3))

        def handler(payload):
            if payload == b"park":
                parked.set()
                gate.wait(10.0)
                finished.set()
            return payload

        worker_errors = []
        real_serve = AioListener._serve

        def spying_serve(listener, *args):
            try:
                return real_serve(listener, *args)
            except BaseException as exc:
                worker_errors.append(exc)
                raise

        monkeypatch.setattr(AioListener, "_serve", spying_serve)
        try:
            listener = network.listen("tcp://127.0.0.1:0", handler)
            peer = RawPipelinedPeer(listener.address)
            peer.send(0, b"park")
            assert parked.wait(5.0)
            for request_id in (1, 2, 3):
                peer.send(request_id, b"queued")
            assert wait_until(lambda: listener.metrics.queued == 3)
            listener.close()  # gives up on the parked one after 0.2 s
            metrics = listener.metrics
            assert (metrics.queued, metrics.in_flight) == (0, 1)
            assert peer.read_ids(1) == []  # closed; nothing was written
            peer.close()
            gate.set()  # the parked handler finishes after the close
            assert finished.wait(5.0)
            assert wait_until(lambda: listener.metrics.in_flight == 0)
            # admitted (4) == served (1) + abandoned (3)
            metrics = listener.metrics
            assert (metrics.served, metrics.queued, metrics.shed) == (1, 0, 0)
            # The loop outlived the listener, so the late _finish ran: a
            # round trip through the same loop is the sync point.
            other = network.listen("tcp://127.0.0.1:0", lambda p: p)
            assert network.connect(other.address).request(b"x") == b"x"
            assert listener.stats.requests == 0  # and it wrote nothing
        finally:
            gate.set()
            network.close()
        assert worker_errors == []
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    @pytest.mark.parametrize("garbage", [
        (4).to_bytes(4, "big") + b"\x00\x00\x00\x01",   # envelope < 8 bytes
        (MAX_FRAME_SIZE + 1).to_bytes(4, "big"),        # prefix over the cap
    ])
    def test_decode_error_drops_that_connection_only(self, garbage):
        network = AioNetwork(max_workers=2, queue_depth=16)
        try:
            listener = network.listen("tcp://127.0.0.1:0", lambda p: p)
            bystander = network.connect(listener.address)
            peer = RawPipelinedPeer(listener.address)
            peer.send(7)
            assert peer.read_ids(1) == [7]
            peer.sock.sendall(garbage)
            assert peer.read_ids(1) == []  # EOF: dropped
            peer.close()
            assert bystander.request(b"still here") == b"still here"
        finally:
            network.close()
