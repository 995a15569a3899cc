"""Unit tests for the simulated network."""

import pytest

from repro.net.conditions import DEFAULT_HOSTS, FREE_CPU, HostCosts, NetworkConditions
from repro.net.sim import SimNetwork
from repro.net.transport import (
    ConnectError,
    ConnectionClosedError,
    host_of,
)


def flat_conditions(latency=0.001):
    return NetworkConditions("test", latency_s=latency, bandwidth_bps=8e9,
                             loopback_latency_s=1e-6)


def echo(payload: bytes) -> bytes:
    return payload


class TestAddressing:
    def test_host_of(self):
        assert host_of("sim://server:1099") == "server"
        assert host_of("tcp://127.0.0.1:80") == "127.0.0.1"
        assert host_of("server") == "server"
        assert host_of("sim://server:1099/name") == "server"


class TestListenConnect:
    def test_request_response(self):
        net = SimNetwork(flat_conditions(), FREE_CPU)
        net.listen("sim://s:1", lambda p: p + b"!")
        channel = net.connect("sim://s:1")
        assert channel.request(b"hi") == b"hi!"

    def test_connect_unknown_address(self):
        net = SimNetwork(flat_conditions(), FREE_CPU)
        with pytest.raises(ConnectError):
            net.connect("sim://nobody:1")

    def test_duplicate_listen_rejected(self):
        net = SimNetwork(flat_conditions(), FREE_CPU)
        net.listen("sim://s:1", echo)
        with pytest.raises(ValueError):
            net.listen("sim://s:1", echo)

    def test_listener_close_breaks_channel(self):
        net = SimNetwork(flat_conditions(), FREE_CPU)
        listener = net.listen("sim://s:1", echo)
        channel = net.connect("sim://s:1")
        listener.close()
        with pytest.raises(ConnectError):
            channel.request(b"x")

    def test_channel_close(self):
        net = SimNetwork(flat_conditions(), FREE_CPU)
        net.listen("sim://s:1", echo)
        channel = net.connect("sim://s:1")
        channel.close()
        with pytest.raises(ConnectionClosedError):
            channel.request(b"x")

    def test_network_close_severs_everything(self):
        net = SimNetwork(flat_conditions(), FREE_CPU)
        net.listen("sim://s:1", echo)
        channel = net.connect("sim://s:1")
        net.close()
        with pytest.raises(ConnectionClosedError):
            channel.request(b"x")
        with pytest.raises(ConnectionClosedError):
            net.listen("sim://t:1", echo)

    def test_non_bytes_handler_result_rejected(self):
        net = SimNetwork(flat_conditions(), FREE_CPU)
        net.listen("sim://s:1", lambda p: "not-bytes")
        channel = net.connect("sim://s:1")
        # Dropped, as a real server drops the connection: typed, chained.
        with pytest.raises(ConnectionClosedError, match="returned str") as info:
            channel.request(b"x")
        assert isinstance(info.value.__cause__, TypeError)
        with pytest.raises(ConnectionClosedError, match="is closed"):
            channel.request(b"x")

    def test_reuse_address_after_close(self):
        net = SimNetwork(flat_conditions(), FREE_CPU)
        net.listen("sim://s:1", echo).close()
        net.listen("sim://s:1", echo)  # must not raise


class TestCostModel:
    def test_clock_advances_by_two_latencies(self):
        net = SimNetwork(flat_conditions(latency=0.01), FREE_CPU)
        net.listen("sim://s:1", echo)
        channel = net.connect("sim://s:1")
        channel.request(b"")
        assert net.clock.now() == pytest.approx(0.02)

    def test_bandwidth_cost_proportional_to_bytes(self):
        conditions = NetworkConditions("t", latency_s=0, bandwidth_bps=8e3)
        net = SimNetwork(conditions, FREE_CPU)
        net.listen("sim://s:1", lambda p: b"")
        channel = net.connect("sim://s:1")
        channel.request(b"x" * 1000)  # 1000 bytes at 1 kB/s = 1 s
        assert net.clock.now() == pytest.approx(1.0)

    def test_host_overheads_added(self):
        hosts = HostCosts(request_overhead_s=0.1, dispatch_overhead_s=0.2,
                          per_byte_cpu_s=0.0, charges={})
        net = SimNetwork(flat_conditions(latency=0), hosts)
        net.listen("sim://s:1", echo)
        net.connect("sim://s:1").request(b"")
        assert net.clock.now() == pytest.approx(0.3)

    def test_loopback_skips_propagation(self):
        net = SimNetwork(flat_conditions(latency=0.5), FREE_CPU)
        net.listen("sim://s:1", echo)
        loop = net.connect("sim://s:1", from_host="s")
        assert loop.is_loopback
        loop.request(b"")
        assert net.clock.now() < 0.01

    def test_charge_advances_clock(self):
        hosts = HostCosts(request_overhead_s=0, dispatch_overhead_s=0,
                          per_byte_cpu_s=0, charges={"thing": 0.25})
        net = SimNetwork(flat_conditions(0), hosts)
        net.listen("sim://s:1", echo)
        channel = net.connect("sim://s:1")
        channel.charge("thing", 2)
        assert net.clock.now() == pytest.approx(0.5)

    def test_nested_requests_accumulate(self):
        """A handler that itself issues a request (loopback stub calls)."""
        net = SimNetwork(flat_conditions(latency=0.01), FREE_CPU)

        def outer_handler(payload):
            inner = net.connect("sim://inner:1", from_host="outer")
            return inner.request(payload)

        net.listen("sim://inner:1", echo)
        net.listen("sim://outer:1", outer_handler)
        net.connect("sim://outer:1").request(b"")
        # Two full round trips between distinct hosts.
        assert net.clock.now() == pytest.approx(0.04)


class TestStats:
    def test_channel_and_listener_counters(self):
        net = SimNetwork(flat_conditions(), FREE_CPU)
        listener = net.listen("sim://s:1", lambda p: b"yy")
        channel = net.connect("sim://s:1")
        channel.request(b"xxx")
        channel.request(b"x")
        snap = channel.stats.snapshot()
        assert snap.requests == 2
        assert snap.bytes_sent == 4
        assert snap.bytes_received == 4
        assert listener.stats.requests == 2
        assert snap.total_bytes == 8

    def test_charges_recorded(self):
        net = SimNetwork(flat_conditions(), DEFAULT_HOSTS)
        net.listen("sim://s:1", echo)
        channel = net.connect("sim://s:1")
        channel.charge("k", 3)
        assert channel.stats.snapshot().charges == {"k": 3}
