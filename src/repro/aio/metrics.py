"""Live server metrics for the asyncio runtime.

The threaded transports only count traffic (:class:`~repro.net.stats.
TrafficStats`).  A multiplexing server with admission control needs more to
be operable under load: how many requests are in flight right now, how
many are queued behind the worker pool, how many were shed, and what the
service-time distribution looks like.  :class:`MetricsRecorder` keeps
those counts on a :class:`~repro.net.stats.CounterSet` (thread-safe —
transport code on the event loop and pool threads both report in) and
:meth:`MetricsRecorder.snapshot` freezes them into an immutable
:class:`ServerMetrics`.

Service time is measured admission→completion, so it *includes* queue
wait: p99 rising while p50 holds is the classic early-overload signature
this is meant to surface.

The sample reservoir and percentile math are the shared
:class:`~repro.obs.metrics.Histogram` — one implementation serves this
recorder, the metrics registry, and anything else that needs windowed
percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.stats import CounterSet
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
    #: The live ``service_seconds`` histogram the percentiles were read
    #: from: the form that merges across processes (windows concatenate;
    #: percentiles do not add).
    histograms: dict = field(default_factory=dict, repr=False,
                             compare=False)

    #: ``as_dict`` fields that read this process's distribution only.
    local = ("p50_ms", "p99_ms")

    def __str__(self):
        return (
            f"in_flight={self.in_flight} queued={self.queued} "
            f"served={self.served} shed={self.shed} "
            f"p50={self.p50_ms:.2f}ms p99={self.p99_ms:.2f}ms"
        )

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in (
            "in_flight", "queued", "served", "shed", "p50_ms", "p99_ms")}


class MetricsRecorder:
    """Thread-safe collector behind :class:`ServerMetrics` snapshots.

    Every event is one monotonic count; the in-flight and queued gauges
    are differences taken from one atomic read, so a snapshot is
    consistent without any event holding a lock across two counters.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        self._counts = CounterSet("admitted", "started", "served",
                                  "abandoned", "shed")
        self._samples = Histogram("service_time", window=window)

    def on_admit(self) -> None:
        """A request passed admission control (now queued or running)."""
        self._counts.add("admitted")

    def on_start(self) -> None:
        """A worker picked the request up (no longer queued)."""
        self._counts.add("started")

    def on_done(self, service_seconds: float) -> None:
        """The request completed; *service_seconds* spans admission→now."""
        self._counts.add("served")
        self._samples.observe(service_seconds)

    def on_shed(self) -> None:
        """Admission control rejected a request."""
        self._counts.add("shed")

    def on_abandoned(self) -> None:
        """An admitted request was cancelled before any worker ran it
        (server teardown); it was never served, only un-admitted."""
        self._counts.add("abandoned")

    @property
    def service_times(self) -> Histogram:
        """The service-time histogram (shared with a MetricsRegistry
        through :attr:`ServerMetrics.histograms`)."""
        return self._samples

    def snapshot(self) -> ServerMetrics:
        p50, p99 = self._samples.percentiles((0.50, 0.99))
        n = self._counts.as_dict()
        waiting = n["admitted"] - n["abandoned"]
        return ServerMetrics(
            in_flight=waiting - n["served"],
            queued=max(0, waiting - n["started"]),
            served=n["served"],
            shed=n["shed"],
            p50_ms=p50 * 1e3,
            p99_ms=p99 * 1e3,
            histograms={"service_seconds": self._samples},
        )
