"""One server request step, three drivers: the same row, three columns.

``handler(bytes) -> bytes`` is driven three ways: the simulator calls
it inline from ``SimChannel.request``, the threaded TCP listener from
its per-connection loop, the asyncio listener from its worker pool.
Each row below misbehaves on the *first* request of a raw channel and
then behaves; each column runs it over one transport.  Per cell the
table pins what the caller saw (the response, or the exception class
and text), whether a second request on the same channel was served,
the listener's request count, which payloads reached the handler, and
whatever escaped to ``threading.excepthook`` or to the event loop's
exception handler.

The step is written once (``Listener.answer``), so every row but the
shed one reads alike in all three columns: a broken handler, an
injected drop and an answer no frame can carry all drop the connection.
Only the aio listener bounds admission, so only it sheds.
"""

import threading

import pytest

from repro.aio import AioNetwork
from repro.net import FaultSchedule, FaultyNetwork, SimNetwork, TcpNetwork
from repro.net.conditions import FREE_CPU, LOCALHOST
from repro.rmi import ServerBusyError
from repro.rmi.protocol import CallResponse
from repro.wire import encode

#: The frame cap the "oversized" row lowers the wire to.
CAP = 1024

#: What a shed request is answered with (capacity 1: one worker, no queue).
BUSY = bytes(encode(CallResponse(ServerBusyError(1), True)))

TRANSPORTS = ("sim", "tcp", "aio")

SERVED = b"echo:second"


def echo(payload):
    return b"echo:" + bytes(payload)


class Released:
    """The shed row's occupier: holds the only worker until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()


def misbehaving(row, occupier):
    """The row's handler: misbehaves on b"first", echoes the rest."""

    def handler(payload):
        payload = bytes(payload)
        if payload == b"occupy":
            occupier.entered.set()
            occupier.release.wait(5.0)
        elif payload == b"first":
            if row == "raises":
                raise RuntimeError("handler bug")
            if row == "non-bytes":
                return "not bytes"
            if row == "oversized":
                return b"x" * (2 * CAP)
        return echo(payload)

    return handler


def open_network(transport):
    if transport == "sim":
        return SimNetwork(LOCALHOST, FREE_CPU), "sim://server:1"
    if transport == "tcp":
        return TcpNetwork(), "tcp://127.0.0.1:0"
    # A request that is never answered must not hang the table.
    network = AioNetwork(max_workers=1, queue_depth=0, request_timeout=0.5)
    return network, "tcp://127.0.0.1:0"


def request(channel, payload, address):
    try:
        return bytes(channel.request(payload))
    except Exception as exc:  # noqa: BLE001 - the observation itself
        return type(exc).__name__, str(exc).replace(address, "SERVER")


def run_cell(row, transport, monkeypatch):
    """One row over one transport; returns the observations."""
    leaked = []
    monkeypatch.setattr(threading, "excepthook",
                        lambda args: leaked.append(args.exc_type.__name__))
    network, address = open_network(transport)
    if transport == "aio":
        network.loop_thread.loop.set_exception_handler(
            lambda loop, context: leaked.append(
                type(context.get("exception")).__name__))
    calls = []
    occupier = Released()
    handler = misbehaving(row, occupier)

    def recorded(payload):
        calls.append(bytes(payload))
        return handler(payload)

    server_side = network
    if row == "injected drop":
        server_side = FaultyNetwork(
            network, server_schedule=FaultSchedule.scripted(["drop-request"]))
    try:
        listener = server_side.listen(address, recorded)
        channel = network.connect(listener.address)
        if row == "oversized":
            monkeypatch.setattr("repro.wire.framing.MAX_FRAME_SIZE", CAP)
            monkeypatch.setattr("repro.aio.frames.MAX_FRAME_SIZE", CAP)
        if row == "shed":
            busy = network.connect(listener.address)
            held = threading.Thread(target=busy.request, args=(b"occupy",))
            held.start()
            assert occupier.entered.wait(5.0)
            first = request(channel, b"first", listener.address)
            occupier.release.set()
            held.join(5.0)
        else:
            first = request(channel, b"first", listener.address)
        second = request(channel, b"second", listener.address)
    finally:
        occupier.release.set()
        network.close()  # joins the server threads: their books are final
    return {
        "first": first,
        "second": second,
        "served": listener.stats.requests,
        "calls": tuple(calls),
        "leaked": tuple(leaked),
    }


def cell(first, second=SERVED, served=2, calls=(b"first", b"second"),
         leaked=()):
    return {"first": first, "second": second, "served": served,
            "calls": calls, "leaked": leaked}


CLOSED = "ConnectionClosedError"
CLOSED_TCP = (CLOSED, "server at 'SERVER' closed the connection")
CLOSED_AIO = (CLOSED, "connection to 'SERVER' closed")
DOWN_TCP = (CLOSED, "channel to 'SERVER' is closed")
DOWN_AIO = (CLOSED, "connection to 'SERVER' is closed")
DOWN_SIM = DOWN_TCP
DROPPED = "server at 'SERVER' dropped the connection: "
SHED_CALLS = (b"occupy", b"first", b"second")

EXPECTED = {
    "ok": {
        "sim": cell(b"echo:first"),
        "tcp": cell(b"echo:first"),
        "aio": cell(b"echo:first"),
    },
    "raises": {
        "sim": cell((CLOSED, DROPPED + "handler bug"), DOWN_SIM,
                    served=0, calls=(b"first",)),
        "tcp": cell(CLOSED_TCP, DOWN_TCP, served=0, calls=(b"first",)),
        "aio": cell(CLOSED_AIO, DOWN_AIO, served=0, calls=(b"first",)),
    },
    "injected drop": {
        "sim": cell((CLOSED, DROPPED + "injected server fault: request "
                     "dropped before dispatch"), DOWN_SIM, served=0, calls=()),
        "tcp": cell(CLOSED_TCP, DOWN_TCP, served=0, calls=()),
        "aio": cell(CLOSED_AIO, DOWN_AIO, served=0, calls=()),
    },
    "non-bytes": {
        "sim": cell((CLOSED, DROPPED + "handler returned str, expected "
                     "bytes"), DOWN_SIM, served=0, calls=(b"first",)),
        "tcp": cell(CLOSED_TCP, DOWN_TCP, served=0, calls=(b"first",)),
        "aio": cell(CLOSED_AIO, DOWN_AIO, served=0, calls=(b"first",)),
    },
    "oversized": {
        "sim": cell((CLOSED, DROPPED + "frame of 2048 bytes exceeds limit "
                     "1024"), DOWN_SIM, served=0, calls=(b"first",)),
        "tcp": cell(CLOSED_TCP, DOWN_TCP, served=0, calls=(b"first",)),
        "aio": cell(CLOSED_AIO, DOWN_AIO, served=0, calls=(b"first",)),
    },
    "shed": {
        "sim": cell(b"echo:first", served=3, calls=SHED_CALLS),
        "tcp": cell(b"echo:first", served=3, calls=SHED_CALLS),
        "aio": cell(BUSY, served=3, calls=(b"occupy", b"second")),
    },
}

#: Rows whose columns do not read alike (class of the first outcome,
#: second request served, request count, handler calls, leaks).
DIVERGENT = {"shed"}


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("row", list(EXPECTED))
def test_server_step(row, transport, monkeypatch):
    assert run_cell(row, transport, monkeypatch) == EXPECTED[row][transport]


def _reading(observed):
    first = observed["first"]
    return (first[0] if isinstance(first, tuple) else "answered",
            observed["second"] == SERVED, observed["served"],
            observed["calls"], observed["leaked"])


@pytest.mark.parametrize("row", list(EXPECTED))
def test_columns_agree(row):
    readings = {_reading(EXPECTED[row][t]) for t in TRANSPORTS}
    assert (len(readings) == 1) == (row not in DIVERGENT)
