"""Fault injection: one chaos wrapper around any transport.

The paper's model routes all communication failures through ``flush()``
(§3.3: "network and communication errors are raised by flush, since it is
the only call that performs remote communication").  This module lets
tests prove exactly that — and prove the *retry* layer built on top — on
every transport alike, the simulator included:

- :class:`FaultSchedule` — a seeded (or scripted) stream of fault
  events, one decision per connect or request exchange;
- :class:`FaultyNetwork` / :class:`FaultyChannel` — the wrapper around
  *any* :class:`~repro.net.transport.Network` (simulated, threaded TCP
  or asyncio) that turns those decisions into drop/delay/corrupt/
  truncate/connect-fail events at frame boundaries.  Server-side
  events fire inside the wrapped handler: a drop raises
  :class:`~repro.net.transport.FaultInjectedError` into the listener's
  request step, which drops the connection on every transport.

Every injected fault — client or server side, connect or request —
records a forced ``fault.injected`` trace marker naming its kind.

The wrapper's event vocabulary distinguishes the two failure moments that
matter for exactly-once semantics: a fault *before* delivery (the server
never executed — a blind retry is safe) versus a fault *after* delivery
(the server executed and only the response was lost — a blind retry
doubles side effects, which is exactly what the idempotency-token dedup
protocol exists to prevent).
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque

from repro.net.transport import (
    Channel,
    ConnectError,
    ConnectionClosedError,
    FaultInjectedError,
    Listener,
    Network,
    awaiting,
    drive,
    drive_async,
    send_blocking,
)
from repro.obs.tracer import current_tracer


def _trace_fault(event: str, address: str) -> None:
    """Force-record an injected-fault marker so chaos runs are legible in
    traces at any sample rate.  Parented under the ambient span (the
    client's send, or the server's handle) when one is live."""
    current_tracer().event("fault.injected", force=True,
                           kind=event, address=address)


#: Request-boundary events a schedule may emit.
#:
#: - ``drop-request``    — the connection dies before the frame is
#:   delivered: the server never executes;
#: - ``drop-response``   — the frame is delivered and executed, then the
#:   connection dies before the response arrives: the dangerous half;
#: - ``corrupt-response``— the response arrives bit-flipped (undecodable);
#: - ``truncate-response`` — the response arrives cut off mid-frame;
#: - ``delay``           — the exchange completes after an extra pause.
FAULT_KINDS = (
    "drop-request",
    "drop-response",
    "corrupt-response",
    "truncate-response",
    "delay",
)

#: Connect-boundary event: the dial (including any transport handshake,
#: e.g. the asyncio pipelining hello) fails outright.
CONNECT_FAIL = "connect-fail"

#: Most recent request-boundary decisions a schedule retains for
#: :attr:`FaultSchedule.history`.
HISTORY_LIMIT = 4096


class FaultSchedule:
    """A seeded, thread-safe stream of fault decisions.

    One schedule drives every channel and listener of a
    :class:`FaultyNetwork`, so a single seed reproduces the whole run's
    fault pattern.  Two modes:

    - **random** — each request-boundary decision injects with
      probability *rate* (uniform over *kinds*); each connect-boundary
      decision fails with probability *connect_rate*;
    - **scripted** — :meth:`scripted` fixes the exact per-request event
      sequence (``None`` entries deliver cleanly; an exhausted script
      delivers cleanly forever), for deterministic unit tests.
    """

    def __init__(self, seed: int = 0, rate: float = 0.0,
                 kinds=FAULT_KINDS, connect_rate: float = 0.0,
                 delay_s: float = 0.001):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1]: {rate}")
        if not 0.0 <= connect_rate <= 1.0:
            raise ValueError(f"connect_rate must be in [0, 1]: {connect_rate}")
        unknown = sorted(set(kinds) - set(FAULT_KINDS))
        if unknown:
            raise ValueError(
                f"unknown fault kind(s) {', '.join(unknown)}; "
                f"choose from {', '.join(FAULT_KINDS)}"
            )
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._rate = rate
        self._kinds = tuple(kinds)
        self._connect_rate = connect_rate
        self._script = None
        self._injected = 0
        # Bounded: history is a debugging aid, and a soak-length corpus
        # reusing one schedule must not grow a list per exchange forever.
        self._history = deque(maxlen=HISTORY_LIMIT)
        self.delay_s = delay_s

    @classmethod
    def scripted(cls, events, delay_s: float = 0.001) -> "FaultSchedule":
        """A schedule replaying *events* for successive request exchanges."""
        events = list(events)
        # The constructor's kinds check vets the script's events.
        schedule = cls(kinds=[e for e in events if e is not None],
                       delay_s=delay_s)
        schedule._script = events
        return schedule

    @property
    def injected(self) -> int:
        """Fault events emitted so far (clean deliveries excluded)."""
        with self._lock:
            return self._injected

    @property
    def history(self):
        """Recent events in order (``None`` for clean exchanges), bounded
        to the last :data:`HISTORY_LIMIT` request decisions."""
        with self._lock:
            return tuple(self._history)

    def decide(self, op: str):
        """The fault event (or None) for one ``connect``/``request`` op."""
        with self._lock:
            if op == "connect":
                event = None
                if (
                    self._connect_rate
                    and self._rng.random() < self._connect_rate
                ):
                    event = CONNECT_FAIL
            elif self._script is not None:
                event = self._script.pop(0) if self._script else None
            elif self._rate and self._rng.random() < self._rate:
                event = self._rng.choice(self._kinds)
            else:
                event = None
            if op != "connect":
                self._history.append(event)
            if event is not None:
                self._injected += 1
            return event


def _corrupt(response: bytes) -> bytes:
    """Deterministically damage a response so it cannot decode."""
    if not response:
        return b"\xff"
    first = b"\x00" if response[:1] == b"\xff" else b"\xff"
    return first + response[1:]


def _exchange(schedule, address, peer, payload):
    """One round trip with *peer* under *schedule*, sans-io (see
    :func:`~repro.net.transport.drive`): decide, mark the fault, sever
    or delay, the inner round trip, sever or damage the response.  Both
    sides of the wire run it; what ``drop`` does to a connection (and
    which error reports it) is the side's own effect."""
    event = schedule.decide("request")
    if event is not None:
        _trace_fault(event, address)
    if event == "drop-request":
        yield "drop", event
    if event == "delay":
        yield "sleep", schedule.delay_s
    response = yield "send", (peer, payload)
    if event == "drop-response":
        yield "drop", event
    if event == "corrupt-response":
        return _corrupt(response)
    if event == "truncate-response":
        return response[: len(response) // 2]
    return response


class FaultyChannel(Channel):
    """A channel wrapper injecting schedule-driven faults per exchange.

    Severing events (``drop-request``/``drop-response``) close the
    wrapped channel for real — on a multiplexed asyncio connection that
    also fails every other request in flight, exactly like a genuine
    disconnect — and leave this wrapper broken until the owner
    reconnects through the network.
    """

    def __init__(self, inner, schedule: FaultSchedule):
        super().__init__()
        self._inner = inner
        self._schedule = schedule
        self._broken = False
        self._effects = {
            "sleep": time.sleep, "send": send_blocking, "drop": self._sever,
        }

    @property
    def address(self) -> str:
        return getattr(self._inner, "address", "?")

    @property
    def inner(self):
        """The wrapped transport channel."""
        return self._inner

    def request(self, payload: bytes) -> bytes:
        return drive(self._round_trip(payload), self._effects)

    def _round_trip(self, payload: bytes):
        if self._broken:
            raise ConnectionClosedError(
                f"channel to {self.address!r} is down (injected fault)"
            )
        response = yield from _exchange(
            self._schedule, self.address, self._inner, payload
        )
        self.stats.record_request(len(payload), len(response))
        return response

    @property
    def supports_async(self) -> bool:
        """Whether an awaitable request path exists under the wrapper.

        Answered by the wrapped channel (a nested wrapper answers through
        this same property); a sync-only channel (e.g. TcpChannel)
        answers False even though this wrapper class always defines
        :meth:`request_async` — callers must probe this, not ``hasattr``.
        """
        return getattr(self._inner, "supports_async", False)

    def request_async(self, payload: bytes):
        """Awaitable faulty round trip (wrapping an aio channel).

        The aio channel's close blocks on its background loop; severing
        on a worker thread keeps the caller's event loop responsive.
        """
        if not hasattr(self._inner, "request_async"):
            raise AttributeError(
                f"wrapped channel {type(self._inner).__name__} has no "
                "async request path"
            )
        return drive_async(self._round_trip(payload), awaiting(self._effects))

    def _sever(self, event: str):
        self._broken = True
        try:
            self._inner.close()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
        raise ConnectionClosedError(
            "injected fault: connection lost before the "
            + ("request was delivered" if event == "drop-request"
               else "response arrived")
        )

    def charge(self, kind: str, count: int = 1) -> None:
        # Book on this wrapper (the channel whose stats the client
        # reads), then delegate so the simulator still prices middleware
        # CPU into virtual time when it is the wrapped transport.
        super().charge(kind, count)
        self._inner.charge(kind, count)

    def close(self) -> None:
        self._broken = True
        self._inner.close()


class FaultyNetwork(Network):
    """Wrap any :class:`~repro.net.transport.Network` with fault injection.

    ``connect`` hands out :class:`FaultyChannel` wrappers driven by the
    client-side *schedule* (consulted at the connect boundary too, which
    covers handshake-time failures); ``listen`` returns the wrapped
    network's own listener, serving the handler wrapped with the
    optional *server_schedule*, whose events fire inside the server:
    ``drop-request`` kills the connection before dispatch,
    ``drop-response`` after (side effects applied), ``corrupt-response``
    and ``truncate-response`` damage the reply, ``delay`` stalls it.

    Closing a FaultyNetwork closes only the channels and listeners it
    created — never the wrapped network, which the caller owns (chaos
    clients routinely wrap a long-lived shared network per run).
    """

    #: Forwarded so RMICore still opts pool-served transports into
    #: in-process loopback when the wrapped network asks for it.
    @property
    def direct_loopback(self) -> bool:
        return getattr(self._inner, "direct_loopback", False)

    def __init__(self, inner, schedule: FaultSchedule = None,
                 server_schedule: FaultSchedule = None):
        self._inner = inner
        self._schedule = schedule if schedule is not None else FaultSchedule()
        self._server_schedule = server_schedule
        self._lock = threading.Lock()
        self._channels = []
        self._listeners = []

    @property
    def schedule(self) -> FaultSchedule:
        """The client-side fault schedule."""
        return self._schedule

    def listen(self, address: str, handler) -> Listener:
        listener = self._inner.listen(address, self._wrap_handler(handler))
        with self._lock:
            self._listeners.append(listener)
        return listener

    def connect(self, address: str, from_host: str = "client") -> FaultyChannel:
        if self._schedule.decide("connect") is not None:
            _trace_fault(CONNECT_FAIL, address)
            raise ConnectError(address) from FaultInjectedError(
                f"injected connect failure to {address!r}"
            )
        channel = FaultyChannel(
            self._inner.connect(address, from_host), self._schedule
        )
        with self._lock:
            self._channels.append(channel)
        return channel

    def close(self) -> None:
        with self._lock:
            channels = list(self._channels)
            listeners = list(self._listeners)
            self._channels.clear()
            self._listeners.clear()
        for channel in channels:
            channel.close()
        for listener in listeners:
            listener.close()

    def _wrap_handler(self, handler):
        schedule = self._server_schedule
        if schedule is None:
            return handler

        def dropped(event):
            raise FaultInjectedError(
                "injected server fault: "
                + ("request dropped before dispatch"
                   if event == "drop-request"
                   else "connection dropped before reply")
            )

        effects = {
            "sleep": time.sleep,
            "send": lambda pair: pair[0](pair[1]),
            "drop": dropped,
        }
        return lambda payload: drive(
            _exchange(schedule, "server", handler, payload), effects
        )
