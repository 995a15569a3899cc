"""Tests for message-flow tracing: Figure 1 drawn from ``client.send`` spans.

Every round trip of every transport passes one ``client.send`` span, so
the tracer is the message recorder; on the simulated network its clock
is the network's virtual one.
"""

import pytest

from repro.apps.simulation import SimulationImpl
from repro.core import create_batch
from repro.net import LAN, SimNetwork
from repro.obs import (
    Tracer,
    install_tracer,
    render_message_chart,
    uninstall_tracer,
)
from repro.rmi import RMIClient, RMIServer

from tests.support import CounterImpl, IdentityServiceImpl


@pytest.fixture
def traced():
    network = SimNetwork(conditions=LAN)
    trace = install_tracer(Tracer(clock=network.clock.now))
    server = RMIServer(network, "sim://server:1099").start()
    server.bind("counter", CounterImpl())
    server.bind("identity", IdentityServiceImpl())
    server.bind("sim", SimulationImpl())
    client = RMIClient(network, "sim://server:1099")
    yield network, client, trace
    uninstall_tracer()
    network.close()


def sends(trace):
    """The recorded round trips, in completion order."""
    return [s for s in trace.spans() if s.name == "client.send"]


def total_bytes(trace):
    return sum(s.attrs["bytes_up"] + s.attrs["bytes_down"]
               for s in sends(trace))


def trips_line(trace):
    return render_message_chart(trace.spans()).splitlines()[-1].strip()


class TestRecording:
    def test_one_event_per_round_trip(self, traced):
        _network, client, trace = traced
        stub = client.lookup("counter")
        trace.clear()
        stub.increment(1)
        stub.current()
        assert len(sends(trace)) == 2
        assert trips_line(trace).startswith("2 network round trip(s)")

    def test_event_fields(self, traced):
        network, client, trace = traced
        stub = client.lookup("counter")
        trace.clear()
        stub.current()
        (event,) = sends(trace)
        (call,) = [s for s in trace.spans() if s.name == "client.call"]
        assert event.parent_id == call.span_id
        assert call.attrs["address"] == "sim://server:1099"
        assert event.attrs["bytes_up"] > 0 and event.attrs["bytes_down"] > 0
        assert "loopback" not in render_message_chart(trace.spans())
        assert event.duration > 0  # virtual seconds: the sim's clock
        assert event.ended_at <= network.clock.now()

    def test_batch_is_single_event(self, traced):
        _network, client, trace = traced
        batch = create_batch(client.lookup("counter"))
        trace.clear()
        for _ in range(6):
            batch.increment(1)
        batch.flush()
        assert len(sends(trace)) == 1

    def test_loopback_events_flagged(self, traced):
        _network, client, trace = traced
        service = client.lookup("identity")
        created = service.create()
        trace.clear()
        service.use(created)
        # One client->server trip; the server unmarshals a loopback stub
        # but does not call through it here, so exactly one event.
        assert len(sends(trace)) == 1
        assert "loopback" not in render_message_chart(trace.spans())

        sim = client.lookup("sim")
        balancer = sim.create_balancer()
        trace.clear()
        sim.perform_simulation_step(3, balancer)  # calls its own stub
        text = render_message_chart(trace.spans())
        assert len(sends(trace)) == 4
        assert text.count("loopback") == 3
        assert trips_line(trace).startswith("1 network round trip(s)")

    def test_total_bytes_and_clear(self, traced):
        _network, client, trace = traced
        client.lookup("counter").current()
        assert total_bytes(trace) > 0
        assert trips_line(trace).endswith(f"{total_bytes(trace)} bytes total")
        trace.clear()
        assert len(trace) == 0


class TestRendering:
    def test_sequence_diagram_shape(self, traced):
        _network, client, trace = traced
        stub = client.lookup("counter")
        trace.clear()
        stub.increment(1)
        text = render_message_chart(trace.spans())
        assert "client" in text and "server" in text
        assert "[1]" in text
        assert "1 network round trip(s)" in text

    def test_loopback_rendering(self):
        def span(name, span_id, parent_id, **attrs):
            return {"name": name, "trace_id": "t", "span_id": span_id,
                    "parent_id": parent_id, "start": 0.0, "end": 0.001,
                    "attrs": attrs}

        text = render_message_chart([
            span("server.handle", "h", ""),
            span("server.op", "o", "h"),
            span("client.call", "c", "o"),
            span("client.send", "s", "c", bytes_up=10, bytes_down=5),
        ])
        assert "loopback (10B)" in text
        assert "0 network round trip(s), 15 bytes total" in text

    def test_rmi_vs_brmi_trip_counts(self, traced):
        """The Figure 1 contrast, measured: n pairs vs one pair."""
        _network, client, trace = traced
        stub = client.lookup("counter")
        trace.clear()
        for _ in range(4):
            stub.current()
        rmi_trips = len(sends(trace))
        trace.clear()
        batch = create_batch(stub)
        for _ in range(4):
            batch.current()
        batch.flush()
        assert (rmi_trips, len(sends(trace))) == (4, 1)
