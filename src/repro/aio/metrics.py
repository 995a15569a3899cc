"""Live server metrics for the asyncio runtime.

The threaded transports only count traffic (:class:`~repro.net.stats.
TrafficStats`).  A pipelined server with admission control needs more to
be operable under load: how many requests are in flight right now, how
many are queued behind the worker pool, how many were shed, and what the
service-time distribution looks like.  :class:`MetricsRecorder` keeps
those gauges/counters (thread-safe — transport code on the event loop and
pool threads both report in) and :meth:`MetricsRecorder.snapshot` freezes
them into an immutable :class:`ServerMetrics`.

Service time is measured admission→completion, so it *includes* queue
wait: p99 rising while p50 holds is the classic early-overload signature
this is meant to surface.

The sample reservoir and percentile math are the shared
:class:`~repro.obs.metrics.Histogram` — one implementation serves this
recorder, the metrics registry, and anything else that needs windowed
percentiles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.metrics import Histogram

#: Service-time samples retained for the percentile estimates.
DEFAULT_WINDOW = 2048


@dataclass(frozen=True)
class ServerMetrics:
    """One consistent snapshot of a running asyncio server."""

    in_flight: int      #: requests admitted and not yet completed
    queued: int         #: admitted but still waiting for a worker
    served: int         #: requests completed since start
    shed: int           #: requests rejected by admission control
    p50_ms: float       #: median service time (admission→completion)
    p99_ms: float       #: tail service time over the sample window

    def __str__(self):
        return (
            f"in_flight={self.in_flight} queued={self.queued} "
            f"served={self.served} shed={self.shed} "
            f"p50={self.p50_ms:.2f}ms p99={self.p99_ms:.2f}ms"
        )


class MetricsRecorder:
    """Thread-safe collector behind :class:`ServerMetrics` snapshots."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self._lock = threading.Lock()
        self._admitted = 0
        self._running = 0
        self._served = 0
        self._shed = 0
        self._samples = Histogram("service_time", window=window)

    def on_admit(self) -> None:
        """A request passed admission control (now queued or running)."""
        with self._lock:
            self._admitted += 1

    def on_start(self) -> None:
        """A worker picked the request up (no longer queued)."""
        with self._lock:
            self._running += 1

    def on_done(self, service_seconds: float) -> None:
        """The request completed; *service_seconds* spans admission→now."""
        with self._lock:
            self._admitted -= 1
            self._running -= 1
            self._served += 1
        self._samples.observe(service_seconds)

    def on_shed(self) -> None:
        """Admission control rejected a request."""
        with self._lock:
            self._shed += 1

    def on_abandoned(self) -> None:
        """An admitted request was cancelled before any worker ran it
        (server teardown); it was never served, only un-admitted."""
        with self._lock:
            self._admitted -= 1

    @property
    def service_times(self) -> Histogram:
        """The service-time histogram (shareable with a MetricsRegistry)."""
        return self._samples

    def snapshot(self) -> ServerMetrics:
        p50, p99 = self._samples.percentiles((0.50, 0.99))
        with self._lock:
            return ServerMetrics(
                in_flight=self._admitted,
                queued=max(0, self._admitted - self._running),
                served=self._served,
                shed=self._shed,
                p50_ms=p50 * 1e3,
                p99_ms=p99 * 1e3,
            )
