"""Traffic accounting shared by both transports, and the counter
primitive every stat source is built on.

Round-trip counts are load-bearing for the reproduction: §5.1 of the paper
argues applicability in terms of remote calls saved (e.g. the file listing
drops from ``1 + 4N`` calls to one).  Tests assert those exact counts via
these counters rather than eyeballing timings.

:class:`CounterSet` lives here, below :mod:`repro.obs`, because anything
under ``repro.obs`` imports back into this module
(``obs/__init__ → obs.live → net.tcp → net.transport → net.stats``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


class CounterSet:
    """Named additive counters behind one lock: the stat-source shape.

    *names* are present (at 0) from construction and after
    :meth:`reset`; any other name appears on its first :meth:`add`.
    :meth:`as_dict` is the one read every consumer shares — a flat
    ``{name: number}`` copy taken atomically, additive across processes.
    Subclasses that must move several counters in one step do so under
    ``self._lock`` on ``self._values`` directly.
    """

    def __init__(self, *names: str):
        self._names = names
        self._lock = threading.Lock()
        self._values = dict.fromkeys(names, 0)

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._values.get(name, 0)

    def as_dict(self) -> dict:
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        """Back to the declared names at 0 (benchmark harnesses reuse
        connections)."""
        with self._lock:
            self._values = dict.fromkeys(self._names, 0)


@dataclass(frozen=True)
class TrafficSnapshot:
    """Immutable view of the counters at one instant."""

    requests: int
    bytes_sent: int
    bytes_received: int
    charges: dict

    @property
    def total_bytes(self) -> int:
        """Payload bytes in both directions."""
        return self.bytes_sent + self.bytes_received


class TrafficStats(CounterSet):
    """Thread-safe request/byte/charge counters.

    One instance per client or listener; a client points every channel
    it opens at its one instance.  Charges are the ``charge.<kind>``
    counters (see the conditions module).
    """

    def __init__(self):
        super().__init__("requests", "bytes_sent", "bytes_received")

    def record_request(self, bytes_sent: int, bytes_received: int) -> None:
        """Count one completed round trip."""
        if bytes_sent < 0 or bytes_received < 0:
            raise ValueError("byte counts cannot be negative")
        with self._lock:
            values = self._values
            values["requests"] += 1
            values["bytes_sent"] += bytes_sent
            values["bytes_received"] += bytes_received

    def record_charge(self, kind: str, count: int = 1) -> None:
        """Count middleware-level charge events (see conditions module)."""
        self.add("charge." + kind, count)

    def snapshot(self) -> TrafficSnapshot:
        """Copy the counters into an immutable snapshot."""
        values = self.as_dict()
        return TrafficSnapshot(
            values.pop("requests"), values.pop("bytes_sent"),
            values.pop("bytes_received"),
            charges={name.partition(".")[2]: n for name, n in values.items()},
        )

    @property
    def requests(self) -> int:
        return self.get("requests")

    @property
    def bytes_sent(self) -> int:
        return self.get("bytes_sent")

    @property
    def bytes_received(self) -> int:
        return self.get("bytes_received")
