"""Unit tests for the real TCP transport (loopback sockets)."""

import threading

import pytest

from repro.net.tcp import TcpNetwork, parse_tcp_address
from repro.net.transport import ConnectError, ConnectionClosedError


@pytest.fixture
def net():
    network = TcpNetwork()
    yield network
    network.close()


class TestParse:
    def test_scheme_and_port(self):
        assert parse_tcp_address("tcp://127.0.0.1:8080") == ("127.0.0.1", 8080)

    def test_without_scheme(self):
        assert parse_tcp_address("127.0.0.1:9") == ("127.0.0.1", 9)

    @pytest.mark.parametrize("bad", ["tcp://nohost", "tcp://h:port", ":80"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_tcp_address(bad)


class TestRoundTrip:
    def test_request_response(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: bytes(p).upper())
        channel = net.connect(listener.address)
        assert channel.request(b"hello") == b"HELLO"

    def test_ephemeral_port_resolved(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        assert not listener.address.endswith(":0")

    def test_multiple_requests_same_connection(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        channel = net.connect(listener.address)
        for i in range(10):
            payload = f"msg{i}".encode()
            assert channel.request(payload) == payload

    def test_large_payload(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        channel = net.connect(listener.address)
        blob = bytes(range(256)) * 4096  # 1 MiB
        assert channel.request(blob) == blob

    def test_concurrent_clients(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: bytes(p) * 2)
        results = {}
        errors = []

        def worker(i):
            try:
                channel = net.connect(listener.address)
                for j in range(20):
                    payload = f"{i}-{j}".encode()
                    assert channel.request(payload) == payload * 2
                results[i] = True
                channel.close()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 8

    def test_stats_counted(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: b"12")
        channel = net.connect(listener.address)
        channel.request(b"1234")
        assert channel.stats.requests == 1
        assert channel.stats.bytes_sent == 4
        assert channel.stats.bytes_received == 2


class TestTimeouts:
    def test_request_timeout_on_stalled_server(self, net):
        import time

        from repro.net.tcp import TcpChannel

        def stall(payload):
            time.sleep(1.0)
            return payload

        listener = net.listen("tcp://127.0.0.1:0", stall)
        channel = TcpChannel(listener.address, request_timeout=0.1)
        with pytest.raises(ConnectionClosedError):
            channel.request(b"x")

    def test_timeout_not_triggered_by_fast_server(self, net):
        from repro.net.tcp import TcpChannel

        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        channel = TcpChannel(listener.address, request_timeout=5.0)
        assert channel.request(b"quick") == b"quick"

    def test_invalid_timeout_rejected(self, net):
        from repro.net.tcp import TcpChannel

        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        with pytest.raises(ValueError):
            TcpChannel(listener.address, request_timeout=0)


class TestFailureModes:
    def test_connect_nobody_listening(self, net):
        with pytest.raises(ConnectError):
            net.connect("tcp://127.0.0.1:1")  # port 1: never listening

    def test_request_after_close(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        channel = net.connect(listener.address)
        channel.close()
        with pytest.raises(ConnectionClosedError):
            channel.request(b"x")

    def test_handler_exception_drops_connection(self, net):
        def broken(payload):
            raise RuntimeError("handler bug")

        listener = net.listen("tcp://127.0.0.1:0", broken)
        channel = net.connect(listener.address)
        with pytest.raises(ConnectionClosedError):
            channel.request(b"x")

    def test_listener_close_ends_service(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        address = listener.address
        channel = net.connect(address)
        listener.close()
        with pytest.raises((ConnectionClosedError, ConnectError)):
            channel.request(b"x")
            net.connect(address)


class TestListenerShutdown:
    """close() must join its threads and sockets, not abandon them."""

    def test_close_is_idempotent(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        listener.close()
        listener.close()

    def test_close_joins_accept_and_connection_threads(self, net):
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        channels = [net.connect(listener.address) for _ in range(3)]
        for i, channel in enumerate(channels):
            assert channel.request(f"warm{i}".encode()) == f"warm{i}".encode()
        listener.close()
        assert not listener._accept_thread.is_alive()
        assert all(not t.is_alive() for t in listener._threads)

    def test_close_unblocks_idle_connections(self, net):
        """A connection parked in recv() is force-closed, not leaked."""
        listener = net.listen("tcp://127.0.0.1:0", lambda p: p)
        channel = net.connect(listener.address)
        channel.request(b"warm")  # the serving thread is now in recv()
        listener.close()
        with pytest.raises(ConnectionClosedError):
            channel.request(b"denied")

    def test_repeated_start_stop_leaks_no_threads(self):
        """The satellite case: start/stop cycles in tests must be clean."""
        baseline = threading.active_count()
        for _ in range(5):
            network = TcpNetwork()
            listener = network.listen("tcp://127.0.0.1:0", lambda p: p)
            channels = [network.connect(listener.address) for _ in range(2)]
            for channel in channels:
                assert channel.request(b"ping") == b"ping"
            network.close()
        assert threading.active_count() <= baseline + 1

    def test_port_is_reusable_after_close(self):
        network = TcpNetwork()
        listener = network.listen("tcp://127.0.0.1:0", lambda p: p)
        address = listener.address
        listener.close()
        relisten = network.listen(address, lambda p: bytes(p) + b"2")
        channel = network.connect(address)
        assert channel.request(b"x") == b"x2"
        network.close()
