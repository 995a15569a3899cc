"""Tracing under chaos: a retried, dedup-replayed call tells one story.

The scenario every assertion circles: a scripted ``drop-response`` fault
lets the server execute a tokened call and then kills the connection, so
the retrying client resends the *same* encoded request and the dedup
window replays the recorded answer.  The trace of that exchange must be
a single connected tree containing both ``client.send`` attempts and a
``server.dedup`` span marked ``replayed`` — on the threaded TCP
transport and the pipelined asyncio transport alike.
"""

import asyncio

import pytest

from repro.core.executor import BatchExecutor
from repro.core.policies import ContinuePolicy
from repro.core.recording import ArgRef, InvocationData
from repro.net import FaultSchedule, FaultyNetwork, TcpNetwork
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.obs.export import check_spans
from repro.rmi import RMIClient, RMIServer, RetryPolicy

from tests.support import CounterImpl


@pytest.fixture
def tracer():
    installed = install_tracer(Tracer(sample_rate=1.0))
    yield installed
    uninstall_tracer()


@pytest.fixture
def tcp_world():
    network = TcpNetwork()
    server = RMIServer(network, "tcp://127.0.0.1:0").start()
    impl = CounterImpl()
    server.bind("counter", impl)
    yield network, server, impl
    server.close()
    network.close()


def recorded(tracer):
    """Everything recorded so far, as plain span dicts."""
    return [span.to_dict() for span in tracer.spans()]


def spans_by_trace(tracer):
    """``{trace_id: [span dicts]}`` for everything recorded so far."""
    traces = {}
    for span in recorded(tracer):
        traces.setdefault(span["trace_id"], []).append(span)
    return traces


def the_increment_trace(tracer):
    """The one trace holding the retried increment call's spans."""
    for spans in spans_by_trace(tracer).values():
        methods = {s["attrs"].get("method") for s in spans}
        if "increment" in methods:
            return spans
    raise AssertionError("no trace contains the increment call")


def assert_retry_replay_story(tracer, server):
    """The shared postcondition: one trace, two attempts, one replay."""
    assert check_spans(tracer.spans()) == []
    spans = the_increment_trace(tracer)

    sends = sorted(
        s["attrs"]["attempt"] for s in spans if s["name"] == "client.send"
    )
    assert sends == [0, 1]  # the duplicate attempt is visible, in order

    dedups = [s for s in spans if s["name"] == "server.dedup"]
    replays = [s for s in dedups if s["attrs"].get("replayed")]
    assert len(dedups) == 2  # both deliveries consulted the window
    assert len(replays) == 1  # exactly one was a replay, and it's marked

    faults = [s for s in spans if s["name"] == "fault.injected"]
    assert [f["attrs"]["kind"] for f in faults] == ["drop-response"]

    # The trace agrees with the counters: exactly one replay happened
    # (the lookup was tokened and executed too, hence not == 1 here).
    assert server.dedup.hits == 1


class TestTcpRetryTrace:
    def test_drop_response_yields_one_trace_with_replay_marker(
        self, tracer, tcp_world
    ):
        network, server, impl = tcp_world
        client = RMIClient(
            FaultyNetwork(
                network, FaultSchedule.scripted([None, "drop-response"])
            ),
            server.address,
            retry=RetryPolicy(max_attempts=5, backoff_s=0.0),
            sleep=lambda _s: None,
        )
        stub = client.lookup("counter")
        assert stub.increment(1) == 1
        assert impl.value == 1  # executed once despite two deliveries
        client.close()
        assert_retry_replay_story(tracer, server)

    def test_unsampled_trace_still_records_the_failure(self, tcp_world):
        """At sample rate zero the retry is a *forced* span: the client
        side of the story must survive, and the replay marker must be
        recorded server-side (in its own trace — the resent payload was
        encoded before the upgrade, so it carries no context)."""
        tracer = install_tracer(Tracer(sample_rate=0.0))
        try:
            network, server, _ = tcp_world
            client = RMIClient(
                FaultyNetwork(
                    network, FaultSchedule.scripted([None, "drop-response"])
                ),
                server.address,
                retry=RetryPolicy(max_attempts=5, backoff_s=0.0),
                sleep=lambda _s: None,
            )
            stub = client.lookup("counter")
            assert stub.increment(1) == 1
            client.close()
        finally:
            uninstall_tracer()
        names = [s["name"] for s in recorded(tracer)]
        attempts = [
            s["attrs"]["attempt"] for s in recorded(tracer)
            if s["name"] == "client.send"
        ]
        assert 1 in attempts  # the forced retry attempt recorded
        assert "client.call" in names  # ...and upgraded its whole trace
        assert "fault.injected" in names
        replays = [
            s for s in recorded(tracer)
            if s["name"] == "server.dedup" and s["attrs"].get("replayed")
        ]
        assert len(replays) == 1


class TestAioRetryTrace:
    def test_drop_response_yields_one_trace_with_replay_marker(self, tracer):
        from repro.aio import AioNetwork, AioRMIClient

        network = AioNetwork()
        server = RMIServer(network, "tcp://127.0.0.1:0").start()
        impl = CounterImpl()
        server.bind("counter", impl)
        try:
            client = AioRMIClient(
                FaultyNetwork(
                    network, FaultSchedule.scripted([None, "drop-response"])
                ),
                server.address,
                retry=RetryPolicy(max_attempts=5, backoff_s=0.001,
                                  backoff_cap_s=0.01),
            )

            async def drive():
                stub = await client.lookup("counter")
                return await client.call_stub(stub, "increment", (1,))

            assert asyncio.run(drive()) == 1
            assert impl.value == 1
            client.sync.close()
            assert_retry_replay_story(tracer, server)
        finally:
            server.close()
            network.close()


class BrokenPolicy(ContinuePolicy):
    """A policy whose own decision blows up."""

    def decide(self, exc, method, index):
        raise RuntimeError("policy bug")


class TestHandClosedSpansAlwaysEnd:
    """``client.send`` and ``server.op`` are not ``with`` blocks (they
    must not become the ambient parent), so every exit path has to end
    them itself.  An exception outside the expected set used to strand
    the span in the flight recorder's in-flight table for the life of
    the process — and ``--admin-port`` alone installs the tracer that
    feeds that table.  The real trigger is ``FrameTooLargeError`` (a
    ``DecodeError``, not a ``TransportError``) on a > 64 MiB request; a
    ``ValueError`` out of the channel stands in for it here."""

    @staticmethod
    def assert_send_closed_with_error(tracer):
        assert tracer.flight.inflight(tracer.now()) == []
        sends = [s for s in recorded(tracer) if s["name"] == "client.send"]
        assert "ValueError" in sends[-1]["attrs"]["error"]

    @pytest.mark.parametrize("retry", [None, RetryPolicy(max_attempts=3)])
    def test_sync_client_send(self, tracer, tcp_world, retry):
        network, server, _impl = tcp_world
        client = RMIClient(network, server.address, retry=retry)
        try:
            stub = client.lookup("counter")

            def broken(_payload):
                raise ValueError("frame too large")

            client.channel.request = broken
            with pytest.raises(ValueError):
                stub.increment(1)
        finally:
            client.close()
        self.assert_send_closed_with_error(tracer)

    @pytest.mark.parametrize("retry", [None, RetryPolicy(max_attempts=3)])
    def test_aio_client_send(self, tracer, retry):
        from repro.aio import AioNetwork, AioRMIClient

        network = AioNetwork()
        server = RMIServer(network, "tcp://127.0.0.1:0").start()
        server.bind("counter", CounterImpl())
        try:
            client = AioRMIClient(network, server.address, retry=retry)

            async def broken(_payload):
                raise ValueError("frame too large")

            async def drive():
                stub = await client.lookup("counter")
                client.sync.channel.request_async = broken
                return await client.call_stub(stub, "increment", (1,))

            try:
                with pytest.raises(ValueError):
                    asyncio.run(drive())
            finally:
                client.close()
        finally:
            server.close()
            network.close()
        self.assert_send_closed_with_error(tracer)

    def test_server_op_when_the_policy_itself_raises(self, tracer, tcp_world):
        _network, server, impl = tcp_world
        executor = BatchExecutor(server, exec_workers=0)
        boom = InvocationData(
            seq=1, target=ArgRef(0), method="boom", args=("x",), kwargs={},
            returns_kind="value",
        )
        with pytest.raises(RuntimeError, match="policy bug"):
            executor.invoke_batch(impl, (boom,), BrokenPolicy(),
                                  validated=True)
        assert tracer.flight.inflight(tracer.now()) == []
        (op,) = [s for s in recorded(tracer) if s["name"] == "server.op"]
        assert "policy bug" in op["attrs"]["error"]
