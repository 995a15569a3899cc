"""Transport abstraction: everything above this line is network-agnostic.

A *transport* provides synchronous request/response channels between named
endpoints.  Two implementations exist:

- :class:`repro.net.sim.SimNetwork` — in-process, virtual-clock,
  deterministic (benchmarks and most tests);
- :class:`repro.net.tcp.TcpNetwork` — real threaded sockets over loopback
  (integration tests and examples).

The RMI layer additionally reports *charges* — middleware CPU events such
as "exported a remote object" — through :meth:`Channel.charge`.  Real
transports ignore them (real CPUs charge themselves); the simulator prices
them into virtual time so the benchmark figures include middleware costs,
not just wire time.
"""

from __future__ import annotations

import asyncio
import functools

from repro.net.stats import TrafficStats
from repro.wire import framing


class TransportError(Exception):
    """Base class for transport-level failures (mirrors RemoteException
    causes in RMI: refused connections, resets, injected faults)."""


class ConnectError(TransportError):
    """No listener at the requested address."""

    def __init__(self, address):
        self.address = address
        super().__init__(f"cannot connect: no listener at {address!r}")


class ConnectionClosedError(TransportError):
    """The channel was closed (locally or by the peer) mid-conversation."""


class FaultInjectedError(TransportError):
    """A deliberately injected fault dropped this request."""


class Channel:
    """A client's synchronous request/response pipe to one listener."""

    def __init__(self):
        self.stats = TrafficStats()

    def request(self, payload: bytes) -> bytes:
        """Send *payload*, block until the peer's response arrives."""
        raise NotImplementedError

    def charge(self, kind: str, count: int = 1) -> None:
        """Report a middleware CPU event (no-op on real transports)."""
        self.stats.record_charge(kind, count)

    def close(self) -> None:
        """Release the channel; further requests raise ConnectionClosedError."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class Listener:
    """A server's presence at an address, and the one request step its
    driver (sim channel, threaded connection loop, aio worker) runs."""

    #: Live runtime metrics; only a listener that keeps some overrides it.
    metrics = None

    def __init__(self, address: str, handler):
        self.address = address
        self.stats = TrafficStats()
        self._handler = handler

    def answer(self, payload):
        """Run the handler on one request: its bytes-like response.

        A handler that raises (an injected :class:`FaultInjectedError`
        included), answers with something other than bytes, or answers
        more than a frame can carry raises :class:`ConnectionClosedError`
        chained from the cause, and every driver drops the connection.
        """
        try:
            response = self._handler(payload)
            if not isinstance(response, (bytes, bytearray, memoryview)):
                raise TypeError(
                    f"handler returned {type(response).__name__}, "
                    "expected bytes"
                )
            if len(response) > framing.MAX_FRAME_SIZE:
                raise framing.FrameTooLargeError(len(response))
        except Exception as exc:
            raise ConnectionClosedError(
                f"server at {self.address!r} dropped the connection: {exc}"
            ) from exc
        return response

    def charge(self, kind: str, count: int = 1) -> None:
        """Record a middleware charge (a real CPU charges itself)."""
        self.stats.record_charge(kind, count)

    def close(self) -> None:
        """Stop accepting requests at this address."""
        raise NotImplementedError


class Network:
    """Factory for listeners and channels within one address space."""

    def listen(self, address: str, handler) -> Listener:
        """Serve ``handler(payload: bytes) -> bytes`` at *address*."""
        raise NotImplementedError

    def connect(self, address: str) -> Channel:
        """Open a channel to the listener at *address*."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear down all listeners and channels."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


# -- sans-io round trips -----------------------------------------------------
#
# Whatever decides *what* a round trip does — the client's attempt loop,
# the chaos channel's exchange — is written once, as a generator that
# yields ``(effect, argument)`` pairs and is sent each effect's outcome
# or thrown its exception.  How an effect is performed (blocking, or
# awaited) is a table handed to one of the two drivers below.  The
# vocabulary: ``sleep`` seconds, ``connect``, ``send`` (channel, payload),
# ``drop`` channel.


def send_blocking(pair):
    """The blocking ``send`` effect: one round trip on a channel."""
    channel, payload = pair
    return channel.request(payload)


def awaiting(effects) -> dict:
    """The awaited twin of a blocking effect table: the pause and the
    round trip belong to the caller's event loop, everything else (a
    dial, a teardown) blocks, so it runs on a worker thread."""
    table = {
        name: functools.partial(asyncio.to_thread, perform)
        for name, perform in effects.items()
    }
    table["sleep"] = asyncio.sleep
    table["send"] = lambda pair: pair[0].request_async(pair[1])
    return table


def drive(steps, effects):
    """Run the sans-io generator *steps* to its return value, performing
    each effect it yields with the blocking table *effects*."""
    try:
        effect, argument = next(steps)
        while True:
            try:
                outcome = effects[effect](argument)
            except BaseException as exc:  # handed to steps, which re-raises
                effect, argument = steps.throw(exc)
            else:
                effect, argument = steps.send(outcome)
    except StopIteration as done:
        return done.value


async def drive_async(steps, effects):
    """:func:`drive`, awaiting each effect of an :func:`awaiting` table."""
    try:
        effect, argument = next(steps)
        while True:
            try:
                outcome = await effects[effect](argument)
            except BaseException as exc:  # handed to steps, which re-raises
                effect, argument = steps.throw(exc)
            else:
                effect, argument = steps.send(outcome)
    except StopIteration as done:
        return done.value


def host_of(address: str) -> str:
    """Extract the host part of an ``scheme://host:port`` address.

    Used by the simulator to decide whether a channel is loopback (same
    host talking to itself, e.g. a server invoking a stub that points back
    at its own object — the §4.4 identity scenario).
    """
    if "://" in address:
        address = address.split("://", 1)[1]
    host = address.split("/", 1)[0]
    return host.rsplit(":", 1)[0] if ":" in host else host
