"""Fault-injecting transport wrappers: every event, every transport.

The chaos layer must produce *typed* transport failures at exactly the
boundary each event names — before delivery (server never executed) or
after (side effects applied, response lost) — on the simulator, the
threaded TCP transport, and the pipelined asyncio runtime alike.
"""

import pytest

from repro.net import (
    FaultSchedule,
    FaultyNetwork,
    SimNetwork,
    TcpNetwork,
)
from repro.net.conditions import FREE_CPU, LOCALHOST
from repro.net.transport import (
    ConnectError,
    ConnectionClosedError,
    FaultInjectedError,
)
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.rmi import CommunicationError, RMIClient, RMIServer

from tests.support import CounterImpl, chaos_client


class TestFaultSchedule:
    def test_same_seed_same_history(self):
        def run(seed):
            schedule = FaultSchedule(seed=seed, rate=0.5)
            return [schedule.decide("request") for _ in range(64)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_rate_zero_never_injects(self):
        schedule = FaultSchedule(seed=1, rate=0.0)
        assert all(
            schedule.decide("request") is None for _ in range(50)
        )
        assert schedule.injected == 0

    def test_scripted_replays_then_goes_clean(self):
        schedule = FaultSchedule.scripted(["drop-request", None, "delay"])
        got = [schedule.decide("request") for _ in range(5)]
        assert got == ["drop-request", None, "delay", None, None]
        assert schedule.injected == 2
        assert schedule.history == ("drop-request", None, "delay", None, None)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule.scripted(["explode"])
        with pytest.raises(ValueError):
            FaultSchedule(kinds=("drop-request", "explode"))
        with pytest.raises(ValueError):
            FaultSchedule(rate=1.5)

    def test_connect_rate_fails_connects_only(self):
        schedule = FaultSchedule(seed=0, rate=0.0, connect_rate=1.0)
        assert schedule.decide("connect") == "connect-fail"
        assert schedule.decide("request") is None


@pytest.fixture
def sim_world():
    """A sim server plus its raw network (the chaos wrapper goes on top)."""
    network = SimNetwork(LOCALHOST, FREE_CPU)
    server = RMIServer(network, "sim://server:1099").start()
    impl = CounterImpl()
    server.bind("counter", impl)
    yield network, server, impl
    server.close()
    network.close()


class TestFaultyChannelSim:
    def test_drop_request_never_reaches_server(self, sim_world):
        network, server, impl = sim_world
        client = chaos_client(network, server.address,
                              [None, "drop-request"])
        stub = client.lookup("counter")
        with pytest.raises(CommunicationError):
            stub.increment(1)
        assert impl.value == 0  # the frame was never delivered

    def test_drop_response_executes_then_severs(self, sim_world):
        network, server, impl = sim_world
        client = chaos_client(network, server.address,
                              [None, "drop-response"])
        stub = client.lookup("counter")
        with pytest.raises(CommunicationError):
            stub.increment(1)
        assert impl.value == 1  # delivered and executed; the reply died

    def test_severed_channel_stays_down_until_reconnect(self, sim_world):
        network, server, impl = sim_world
        chaos = FaultyNetwork(
            network, FaultSchedule.scripted(["drop-request"])
        )
        channel = chaos.connect(server.address)
        with pytest.raises(ConnectionClosedError):
            channel.request(b"x")
        with pytest.raises(ConnectionClosedError):
            channel.request(b"x")  # still down: no silent self-healing
        fresh = chaos.connect(server.address)  # script exhausted -> clean
        assert fresh.request(_ping(server)) != b""

    def test_corrupt_response_is_a_typed_decode_failure(self, sim_world):
        network, server, impl = sim_world
        client = chaos_client(network, server.address,
                              [None, "corrupt-response"])
        stub = client.lookup("counter")
        with pytest.raises(CommunicationError, match="cannot decode"):
            stub.increment(1)
        assert impl.value == 1  # executed; only the reply was damaged

    def test_truncate_response_is_a_typed_decode_failure(self, sim_world):
        network, server, impl = sim_world
        client = chaos_client(network, server.address,
                              [None, "truncate-response"])
        stub = client.lookup("counter")
        with pytest.raises(CommunicationError, match="cannot decode"):
            stub.increment(1)
        assert impl.value == 1

    def test_delay_still_delivers(self, sim_world):
        network, server, impl = sim_world
        client = chaos_client(network, server.address, ["delay", "delay"])
        stub = client.lookup("counter")
        assert stub.increment(3) == 3

    def test_connect_fault_is_a_typed_connect_error(self, sim_world):
        network, server, _ = sim_world
        chaos = FaultyNetwork(
            network, FaultSchedule(seed=0, connect_rate=1.0)
        )
        with pytest.raises(ConnectError):
            chaos.connect(server.address)

    def test_connect_fault_is_marked_and_chained_to_the_injection(
        self, sim_world
    ):
        """Like every request-boundary event: a forced trace marker, and
        an error that says it was injected (a listener is there)."""
        network, server, _ = sim_world
        chaos = FaultyNetwork(
            network, FaultSchedule(seed=0, connect_rate=1.0)
        )
        tracer = install_tracer(Tracer(sample_rate=0.0))
        try:
            with pytest.raises(ConnectError) as info:
                chaos.connect(server.address)
        finally:
            uninstall_tracer()
        assert isinstance(info.value.__cause__, FaultInjectedError)
        assert "injected connect failure" in str(info.value.__cause__)
        markers = [(s.attrs["kind"], s.attrs["address"])
                   for s in tracer.spans() if s.name == "fault.injected"]
        assert markers == [("connect-fail", server.address)]

    def test_closing_the_wrapper_leaves_the_inner_network_alive(
        self, sim_world
    ):
        network, server, _ = sim_world
        chaos = FaultyNetwork(network, FaultSchedule())
        chaos.connect(server.address)
        chaos.close()
        # The wrapped network still serves fresh (unwrapped) clients.
        client = RMIClient(network, server.address)
        assert client.lookup("counter") is not None
        client.close()


class TestServerScheduleSim:
    def test_server_drop_request_skips_dispatch(self, sim_world):
        network, _, _ = sim_world
        chaos = FaultyNetwork(
            network,
            server_schedule=FaultSchedule.scripted([None, "drop-request"]),
        )
        server = RMIServer(chaos, "sim://chaos-server:1099").start()
        impl = CounterImpl()
        server.bind("counter", impl)
        client = RMIClient(network, "sim://chaos-server:1099")
        stub = client.lookup("counter")
        with pytest.raises(CommunicationError):
            stub.increment(1)
        assert impl.value == 0
        client.close()
        server.close()

    def test_server_drop_response_applies_side_effects(self, sim_world):
        network, _, _ = sim_world
        chaos = FaultyNetwork(
            network,
            server_schedule=FaultSchedule.scripted([None, "drop-response"]),
        )
        server = RMIServer(chaos, "sim://chaos-server2:1099").start()
        impl = CounterImpl()
        server.bind("counter", impl)
        client = RMIClient(network, "sim://chaos-server2:1099")
        stub = client.lookup("counter")
        with pytest.raises(CommunicationError):
            stub.increment(1)
        assert impl.value == 1
        client.close()
        server.close()


def _ping(server):
    """A registry list_names request, encoded for raw channel use."""
    from repro.rmi.protocol import REGISTRY_OBJECT_ID, CallRequest
    from repro.wire import encode

    return encode(CallRequest(REGISTRY_OBJECT_ID, "list_names", ()))


class TestFaultyChannelTcp:
    """The same wrapper over real sockets (and the asyncio runtime)."""

    @pytest.fixture(params=["tcp", "aio"])
    def real_world(self, request):
        if request.param == "tcp":
            network = TcpNetwork()
        else:
            from repro.aio import AioNetwork

            network = AioNetwork()
        server = RMIServer(network, "tcp://127.0.0.1:0").start()
        impl = CounterImpl()
        server.bind("counter", impl)
        yield network, server, impl
        server.close()
        network.close()

    def test_drop_response_executes_once_then_severs(self, real_world):
        network, server, impl = real_world
        client = chaos_client(network, server.address,
                              [None, "drop-response"])
        stub = client.lookup("counter")
        with pytest.raises(CommunicationError):
            stub.increment(1)
        assert impl.value == 1
        client.close()

    def test_corrupt_response_fails_decode_not_silence(self, real_world):
        network, server, impl = real_world
        client = chaos_client(network, server.address,
                              [None, "corrupt-response"])
        stub = client.lookup("counter")
        with pytest.raises(CommunicationError, match="cannot decode"):
            stub.increment(1)
        client.close()

    def test_async_capability_probe_through_wrappers(self, real_world):
        """A chaos wrapper answers supports_async from the channel it
        wraps, so AioRMIClient rejects a wrapped sync-only transport
        with a typed constructor error (not a late AttributeError)."""
        from repro.aio import AioRMIClient

        network, server, _ = real_world
        chaos = FaultyNetwork(network, FaultSchedule())
        channel = chaos.connect(server.address)
        is_aio = type(network).__name__ == "AioNetwork"
        assert channel.supports_async is is_aio
        channel.close()
        if not is_aio:
            with pytest.raises(TypeError):
                AioRMIClient(FaultyNetwork(network), server.address)

    def test_handshake_boundary_connect_fault(self, real_world):
        network, server, _ = real_world
        chaos = FaultyNetwork(
            network, FaultSchedule(seed=0, connect_rate=1.0)
        )
        with pytest.raises(ConnectError):
            chaos.connect(server.address)

    def test_server_side_drop_request_drops_the_connection(self):
        """Server-side injection must behave identically on the threaded
        and asyncio listeners: connection dropped, nothing dispatched."""
        for make in (TcpNetwork, _aio_network):
            inner = make()
            chaos = FaultyNetwork(
                inner,
                server_schedule=FaultSchedule.scripted(
                    [None, "drop-request"]
                ),
            )
            server = RMIServer(chaos, "tcp://127.0.0.1:0").start()
            impl = CounterImpl()
            server.bind("counter", impl)
            client = RMIClient(inner, server.address)
            stub = client.lookup("counter")
            with pytest.raises(CommunicationError):
                stub.increment(1)
            assert impl.value == 0
            client.close()
            server.close()
            inner.close()


def _aio_network():
    from repro.aio import AioNetwork

    return AioNetwork()
