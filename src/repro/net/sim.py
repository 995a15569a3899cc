"""Deterministic in-process network with a virtual clock.

This is the testbed substitute for the paper's two physical machines.  A
request is executed by directly invoking the listener's handler, while the
virtual clock advances by the modelled cost:

    uplink propagation + payload/bandwidth        (NetworkConditions)
  + client request overhead + per-byte codec CPU  (HostCosts)
  + server dispatch overhead + per-byte codec CPU
  + [any charges the middleware reports while handling]
  + downlink propagation + response/bandwidth

Because the handler runs inline, nested calls (a server invoking a stub
that points back at itself — the §4.4 loopback scenario) recurse naturally
and their cost lands inside the outer request's interval, exactly as it
would on real hardware.  A broken handler closes the channel (see
:meth:`~repro.net.transport.Listener.answer`), as a real server would.

Loopback detection: a channel whose originating host equals the listener's
host pays ``loopback_latency_s`` instead of propagation latency.
"""

from __future__ import annotations

import threading

from repro.net.clock import SimClock
from repro.net.conditions import DEFAULT_HOSTS, LOCALHOST, HostCosts, NetworkConditions
from repro.net.transport import (
    Channel,
    ConnectError,
    ConnectionClosedError,
    Listener,
    Network,
    host_of,
)


class SimNetwork(Network):
    """One simulated address space: listeners, channels and a clock.

    It injects no faults of its own: wrap it in a ``FaultyNetwork``
    driven by a ``FaultSchedule`` (``net/faults.py``), exactly like the
    real transports.
    """

    def __init__(
        self,
        conditions: NetworkConditions = LOCALHOST,
        hosts: HostCosts = DEFAULT_HOSTS,
        clock: SimClock = None,
    ):
        self.conditions = conditions
        self.hosts = hosts
        self.clock = clock if clock is not None else SimClock()
        self._listeners = {}
        self._channels = []
        self._lock = threading.Lock()
        self._closed = False

    def listen(self, address: str, handler) -> "SimListener":
        if not callable(handler):
            raise TypeError("handler must be callable")
        with self._lock:
            if self._closed:
                raise ConnectionClosedError("network is closed")
            if address in self._listeners:
                raise ValueError(f"address already in use: {address!r}")
            listener = SimListener(self, address, handler)
            self._listeners[address] = listener
            return listener

    def connect(self, address: str, from_host: str = "client") -> "SimChannel":
        with self._lock:
            if self._closed:
                raise ConnectionClosedError("network is closed")
            if address not in self._listeners:
                raise ConnectError(address)
            channel = SimChannel(self, address, from_host)
            self._channels.append(channel)
            return channel

    def close(self) -> None:
        with self._lock:
            self._closed = True
            listeners = list(self._listeners.values())
            channels = list(self._channels)
            self._listeners.clear()
            self._channels.clear()
        for listener in listeners:
            listener._open = False
        for channel in channels:
            channel._open = False

    def _drop_listener(self, address: str) -> None:
        with self._lock:
            self._listeners.pop(address, None)

    def _lookup(self, address: str):
        with self._lock:
            listener = self._listeners.get(address)
        if listener is None or not listener._open:
            raise ConnectError(address)
        return listener

    def charge_cpu(self, kind: str, count: int = 1) -> None:
        """Advance the clock by the host cost of *count* charge events."""
        self.clock.advance(self.hosts.charge_cost(kind, count))


class SimListener(Listener):
    """A handler registered at a simulated address."""

    def __init__(self, network: SimNetwork, address: str, handler):
        super().__init__(address, handler)
        self._network = network
        self._open = True
        self.host = host_of(address)

    def charge(self, kind: str, count: int = 1) -> None:
        """Report server-side middleware CPU (prices into virtual time)."""
        super().charge(kind, count)
        self._network.charge_cpu(kind, count)

    def close(self) -> None:
        self._open = False
        self._network._drop_listener(self.address)


class SimChannel(Channel):
    """Client end of a simulated connection."""

    def __init__(self, network: SimNetwork, address: str, from_host: str):
        super().__init__()
        self._network = network
        self._address = address
        self._loopback = from_host == host_of(address)
        self._open = True

    @property
    def address(self) -> str:
        return self._address

    @property
    def is_loopback(self) -> bool:
        return self._loopback

    def request(self, payload: bytes) -> bytes:
        if not self._open:
            raise ConnectionClosedError(f"channel to {self._address!r} is closed")
        network = self._network
        listener = network._lookup(self._address)

        conditions = network.conditions
        hosts = network.hosts
        clock = network.clock

        clock.advance(
            hosts.request_overhead_s
            + hosts.per_byte_cpu_s * len(payload)
            + conditions.transmission_time(len(payload), self._loopback)
            + hosts.dispatch_overhead_s
        )
        try:
            response = listener.answer(payload)
        except ConnectionClosedError:
            self._open = False  # as a socket the server closed
            raise
        # Byte accounting charges len() of whatever buffer the handler
        # returned — a zero-copy view prices identically to its bytes.
        clock.advance(
            hosts.per_byte_cpu_s * len(response)
            + conditions.transmission_time(len(response), self._loopback)
        )
        self.stats.record_request(len(payload), len(response))
        listener.stats.record_request(len(payload), len(response))
        return response

    def charge(self, kind: str, count: int = 1) -> None:
        """Report client-side middleware CPU (prices into virtual time)."""
        super().charge(kind, count)
        self._network.charge_cpu(kind, count)

    def close(self) -> None:
        self._open = False
