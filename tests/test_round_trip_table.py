"""One client round trip, blocking and awaited: the two must not differ.

A logical call — ``client.call`` span, token, encode, the attempt loop
with its ``client.send`` spans, decode — is reachable two ways:
``RMIClient.call`` blocks, ``AioRMIClient.call`` awaits.  Each scenario
below runs once per way against a fresh server over the same stack
(probe → chaos wrapper → asyncio transport) and the observations must be
*equal*, as well as match the row: exception type and text, attempts
made, backoff delays requested, channels dropped, what the dedup window
executed and replayed, and the shape of every ``client.send`` span.

The chaos channel is held to the same standard: its five events through
``request`` and ``request_async`` under one seeded schedule, and the
same five fired inside a server.
"""

import asyncio
from dataclasses import dataclass, field

import pytest

from repro.aio import AioNetwork, AioRMIClient
from repro.net import (
    FAULT_KINDS,
    Channel,
    FaultSchedule,
    FaultyNetwork,
    Network,
    SimNetwork,
)
from repro.net.transport import (
    ConnectionClosedError,
    FaultInjectedError,
    TransportError,
)
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.rmi import (
    CommunicationError,
    RMIClient,
    RMIServer,
    RetryPolicy,
    ServerBusyError,
)
from repro.rmi.protocol import CallResponse
from repro.wire import encode

from tests.support import CounterImpl

BUSY = bytes(encode(CallResponse(ServerBusyError(1), True)))
BUSY_TEXT = "server busy: admission queue full (1 requests in flight)"
LOST_REQUEST = ("injected fault: connection lost before the request was "
                "delivered")


@dataclass(frozen=True)
class RecordingPolicy(RetryPolicy):
    """A policy that remembers every backoff delay asked of it."""

    requested: list = field(default_factory=list, compare=False)

    def delay_after(self, attempt: int) -> float:
        delay = super().delay_after(attempt)
        self.requested.append(delay)
        return delay


class ProbeNetwork(Network):
    """Counts what a client does to its transport, and can shed.

    Sits *above* the chaos wrapper, so a close counted here is the
    client dropping a channel — not the wrapper severing its inner one.
    """

    def __init__(self, inner, shed: int = 0):
        self.inner = inner
        self.shed = shed  # answer this many requests with ServerBusyError
        self.connects = 0
        self.requests = 0
        self.closes = 0

    def connect(self, address, from_host="client"):
        self.connects += 1
        return ProbeChannel(self.inner.connect(address, from_host), self)


class ProbeChannel(Channel):
    supports_async = True

    def __init__(self, inner, probe):
        super().__init__()
        self._inner = inner
        self._probe = probe

    def _shed(self) -> bool:
        probe = self._probe
        probe.requests += 1
        if probe.shed:
            probe.shed -= 1
            return True
        return False

    def request(self, payload):
        return BUSY if self._shed() else self._inner.request(payload)

    async def request_async(self, payload):
        if self._shed():
            return BUSY
        return await self._inner.request_async(payload)

    def close(self):
        self._probe.closes += 1
        self._inner.close()


@dataclass(frozen=True)
class Scenario:
    name: str
    retry: bool
    faults: tuple = ()
    shed: int = 0
    close_first: bool = False
    # what both columns must observe
    raises: type = None
    message: str = ""
    attempts: int = 1
    delays: tuple = ()
    dropped: int = 0
    connects: int = 1
    executed: int = 0
    hits: int = 0
    errors: tuple = (None,)  # per client.send span: error class name


SCENARIOS = [
    Scenario("drop-request", retry=True, faults=("drop-request",),
             attempts=2, delays=(0.001,), dropped=1, connects=2, executed=1,
             errors=("ConnectionClosedError", None)),
    Scenario("drop-response", retry=True, faults=("drop-response",),
             attempts=2, delays=(0.001,), dropped=1, connects=2, executed=1,
             hits=1, errors=("ConnectionClosedError", None)),
    Scenario("corrupt-response", retry=True, faults=("corrupt-response",),
             attempts=2, delays=(0.001,), executed=1, hits=1,
             errors=("CommunicationError", None)),
    Scenario("shed", retry=True, shed=1,
             attempts=2, delays=(0.001,), executed=1,
             errors=("ServerBusyError", None)),
    Scenario("budget exhausted", retry=True, faults=("drop-request",) * 3,
             raises=CommunicationError,
             message=f"failed after 3 attempts: {LOST_REQUEST}",
             attempts=3, delays=(0.001, 0.002), dropped=3, connects=3,
             errors=("ConnectionClosedError",) * 3),
    Scenario("closed client", retry=True, close_first=True,
             raises=CommunicationError, message="failed: client is closed",
             errors=("ConnectionClosedError",)),
    Scenario("fail-fast TransportError", retry=False,
             faults=("drop-request",),
             raises=CommunicationError, message=f"failed: {LOST_REQUEST}",
             errors=("ConnectionClosedError",)),
    Scenario("fail-fast shed", retry=False, shed=1,
             raises=ServerBusyError, message=BUSY_TEXT),
    Scenario("fail-fast corrupt", retry=False, faults=("corrupt-response",),
             raises=CommunicationError, message="cannot decode response"),
]


def run_cell(scenario, awaited: bool, sample_rate: float):
    """One scenario, one way of calling; returns the observations."""
    network = AioNetwork()
    server = RMIServer(network, "tcp://127.0.0.1:0").start()
    impl = CounterImpl()
    server.bind("counter", impl)
    object_id = RMIClient(network, server.address).lookup(
        "counter").remote_ref.object_id
    probe = ProbeNetwork(
        FaultyNetwork(network, FaultSchedule.scripted(scenario.faults)),
        shed=scenario.shed,
    )
    policy = RecordingPolicy(
        max_attempts=3, backoff_s=0.001, backoff_cap_s=0.002, jitter=False,
    ) if scenario.retry else None
    slept = []
    if awaited:
        client = AioRMIClient(probe, server.address, retry=policy)
        call = lambda: asyncio.run(  # noqa: E731
            client.call(object_id, "increment", (1,)))
    else:
        client = RMIClient(probe, server.address, retry=policy,
                           sleep=slept.append)
        call = lambda: client.call(object_id, "increment", (1,))  # noqa: E731
    if scenario.close_first:
        client.close()
        probe.closes = 0  # the close itself is not a drop
    tracer = install_tracer(Tracer(sample_rate=sample_rate))
    try:
        try:
            outcome = ("returned", call())
        except Exception as exc:  # noqa: BLE001 - the observation itself
            # Each cell has its own server, so its own port.
            outcome = (type(exc), str(exc).replace(server.address, "SERVER"))
    finally:
        uninstall_tracer()
    sends = [s for s in tracer.spans() if s.name == "client.send"]
    observed = {
        "outcome": outcome,
        # The flight recorder sees every span, sampled or not.
        "attempts": sum(s.name == "client.send"
                        for s in tracer.flight.completed()),
        # A closed client may or may not ask its dead channel first.
        "reached": None if scenario.close_first else probe.requests,
        "connects": probe.connects,
        "delays": tuple(policy.requested) if policy else (),
        "dropped": probe.closes,
        "executed": server.dedup.executed,
        "hits": server.dedup.hits,
        "value": impl.value,
        "sends": sorted(
            (s.attrs["attempt"], tuple(sorted(s.attrs)),
             s.attrs.get("error", "None(").split("(")[0])
            for s in sends
        ),
        "inflight": tracer.flight.inflight(tracer.now()),
    }
    if not awaited and policy is not None:
        assert tuple(slept) == observed["delays"]  # slept what was asked
    client.close()
    server.close()
    network.close()
    return observed


@pytest.mark.parametrize("sample_rate", [1.0, 0.0])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_blocking_and_awaited_calls_agree(scenario, sample_rate):
    blocking = run_cell(scenario, awaited=False, sample_rate=sample_rate)
    awaited = run_cell(scenario, awaited=True, sample_rate=sample_rate)
    assert blocking == awaited

    kind, detail = blocking["outcome"]
    if scenario.raises is None:
        assert (kind, detail) == ("returned", 1)
        assert blocking["value"] == 1  # executed exactly once
    else:
        assert kind is scenario.raises  # exact: a shed stays unwrapped
        assert scenario.message in detail
    assert blocking["attempts"] == scenario.attempts
    assert blocking["reached"] in (None, scenario.attempts)
    assert blocking["delays"] == scenario.delays
    assert blocking["dropped"] == scenario.dropped
    assert blocking["connects"] == scenario.connects
    assert (blocking["executed"], blocking["hits"]) == (
        scenario.executed, scenario.hits)
    assert blocking["inflight"] == []  # every hand-closed span ended

    errors = [error for _attempt, _keys, error in blocking["sends"]]
    if sample_rate == 1.0:
        assert errors == [e or "None" for e in scenario.errors]
        for index, (attempt, keys, error) in enumerate(blocking["sends"]):
            assert attempt == index
            assert keys == (
                ("attempt", "bytes_down", "bytes_up") if error == "None"
                else ("attempt", "error") if error.endswith("ClosedError")
                else ("attempt", "bytes_down", "bytes_up", "error"))
    else:
        # Unsampled: a resend forces the trace on, so every attempt past
        # the first is on record whatever else is.
        assert set(range(1, len(errors))) <= {
            attempt for attempt, _keys, _error in blocking["sends"]}


# -- the chaos channel: five events, two ways, one schedule -----------------


def echo(payload):
    return b"echo:" + bytes(payload)


def drive_channel(awaited: bool, exchanges: int = 60):
    """Push *exchanges* round trips through a seeded chaos channel,
    reconnecting after each sever; returns everything observable."""
    network = AioNetwork()
    listener = network.listen("tcp://127.0.0.1:0", echo)
    schedule = FaultSchedule(seed=11, rate=0.6, delay_s=0.0005)
    faulty = FaultyNetwork(network, schedule)
    tracer = install_tracer(Tracer(sample_rate=0.0))
    outcomes = []
    requests = 0
    channel = faulty.connect(listener.address)
    try:
        for index in range(exchanges):
            payload = b"message %d" % index
            try:
                if awaited:
                    response = asyncio.run(channel.request_async(payload))
                else:
                    response = channel.request(payload)
                outcomes.append(bytes(response))
            except TransportError as exc:
                outcomes.append((type(exc), str(exc)))
                # Severed: the wrapper stays down until reconnected.
                with pytest.raises(ConnectionClosedError, match="is down"):
                    if awaited:
                        asyncio.run(channel.request_async(payload))
                    else:
                        channel.request(payload)
                requests += channel.stats.requests
                channel = faulty.connect(listener.address)
        requests += channel.stats.requests
    finally:
        uninstall_tracer()
        faulty.close()
        network.close()
    markers = [s.attrs["kind"] for s in tracer.spans()
               if s.name == "fault.injected"]
    return {"history": schedule.history, "outcomes": outcomes,
            "requests": requests, "markers": markers,
            "served": listener.stats.requests}


def test_chaos_channel_request_and_request_async_agree():
    blocking = drive_channel(awaited=False)
    awaited = drive_channel(awaited=True)
    assert blocking == awaited
    history = blocking["history"]
    assert set(FAULT_KINDS) <= set(history)  # all five events fired
    assert blocking["markers"] == [e for e in history if e is not None]
    severed = sum(e in ("drop-request", "drop-response") for e in history)
    # A severed exchange records nothing; a dropped request is not served.
    assert blocking["requests"] == len(history) - severed
    assert blocking["served"] == len(history) - history.count("drop-request")
    for event, outcome in zip(history, blocking["outcomes"]):
        if event in ("drop-request", "drop-response"):
            assert outcome[0] is ConnectionClosedError
            assert outcome[1].startswith("injected fault: connection lost")
        elif event == "corrupt-response":
            assert outcome[:1] == b"\xff" and outcome[1:].startswith(b"cho:")
        elif event == "truncate-response":
            assert b"echo:message".startswith(outcome[:12]) and len(outcome) < 14
        else:
            assert outcome.startswith(b"echo:message ")


def test_chaos_events_fired_inside_a_server():
    """The server-side schedule: same five events, same vocabulary."""
    network = SimNetwork()
    served = []

    def handler(payload):
        served.append(bytes(payload))
        return echo(payload)

    events = list(FAULT_KINDS) + [None]
    faulty = FaultyNetwork(
        network, server_schedule=FaultSchedule.scripted(events, delay_s=0.0))
    faulty.listen("sim://server:1", handler)
    tracer = install_tracer(Tracer(sample_rate=0.0))
    outcomes = {}
    try:
        for event in events:
            channel = faulty.connect("sim://server:1")
            try:
                outcomes[event] = channel.request(b"ping")
            except ConnectionClosedError as exc:
                # Dropped by the listener's request step, chained from
                # the injected fault, as on every transport.
                assert isinstance(exc.__cause__, FaultInjectedError)
                outcomes[event] = str(exc.__cause__)
    finally:
        uninstall_tracer()
        faulty.close()
        network.close()
    assert outcomes == {
        "drop-request":
            "injected server fault: request dropped before dispatch",
        "drop-response":
            "injected server fault: connection dropped before reply",
        "corrupt-response": b"\xffcho:ping",
        "truncate-response": b"echo",
        "delay": b"echo:ping",
        None: b"echo:ping",
    }
    assert served == [b"ping"] * 5  # all but the dropped request ran
    markers = [(s.attrs["kind"], s.attrs["address"]) for s in tracer.spans()
               if s.name == "fault.injected"]
    assert markers == [(event, "server") for event in FAULT_KINDS]


# -- guards: the path exists once --------------------------------------------


def test_the_round_trip_is_written_once():
    import ast
    import pathlib
    import re

    import repro
    from repro.net import FaultyChannel

    retired = {
        AioRMIClient: ("_send_once", "_call_with_retry"),
        RMIClient: ("_send_once", "_call_with_retry", "_connect_with_retry"),
        FaultyChannel: ("_request_async", "_sever_async"),
    }
    for owner, names in retired.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"

    src = pathlib.Path(repro.__file__).parent
    sources = {path: path.read_text() for path in src.rglob("*.py")}

    def call_sites(pattern):
        return [f"{path.relative_to(src)}:{number}"
                for path, text in sources.items()
                if path.relative_to(src).as_posix() != "rmi/retry.py"
                for number, line in enumerate(text.splitlines(), 1)
                if re.search(pattern, line)]

    assert len(call_sites(r"\.delay_after\(")) == 1
    assert len(call_sites(r"\.decide\(\"request\"\)")) == 1

    # One blocking and one awaiting driver: nothing else sends into a
    # generator, and the aio client awaits only through its public calls.
    assert [site.split(":")[0] for site in call_sites(r"\.send\(")] == [
        "net/transport.py", "net/transport.py"]
    tree = ast.parse(sources[src / "aio" / "client.py"])
    assert sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, ast.AsyncFunctionDef)) == [
        "call", "call_stub", "list_names", "lookup"]
