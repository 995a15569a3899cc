"""Unified metrics: named counters, gauges, histograms; mergeable registries.

Before this module the repo's telemetry was fragmented — ``TrafficStats``
here, aio-only ``ServerMetrics`` there, plan-cache/dedup/scheduler
counters each with their own ad-hoc snapshot shape.  A
:class:`MetricsRegistry` gives them one namespace, one text exposition,
and one dump format that **merges across processes**: counters and
gauges sum, histogram windows concatenate (bounded), which is the
aggregation primitive the ROADMAP's multi-process items need.

Percentile math lives here, in :func:`percentile` and
:class:`Histogram`, and nowhere else — ``repro.aio.metrics`` is backed
by this histogram type.
"""

from __future__ import annotations

import math
import threading
from collections import deque

#: Samples a histogram window retains for percentile estimates.
DEFAULT_WINDOW = 2048


class MetricsKindError(ValueError):
    """One name requested as two instrument kinds (counter vs gauge vs
    histogram) — in one process or across merged dumps.

    Summing a counter into a gauge (or concatenating either into a
    histogram window) silently corrupts the books, so the registry
    fails loudly instead: the conflict is always a naming bug in the
    publisher, never a legitimate aggregation.
    """

    def __init__(self, name: str, wanted: str, existing: str):
        self.name = name
        self.wanted = wanted
        self.existing = existing
        super().__init__(
            f"metric {name!r} already registered as a {existing}; "
            f"cannot also use it as a {wanted}"
        )


def percentile(ordered, q):
    """Nearest-rank percentile of an already-sorted sample list."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Counter:
    """A thread-safe monotonic counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up: {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe point-in-time value."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def add(self, amount) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value


class Histogram:
    """A windowed sample reservoir with nearest-rank percentiles.

    ``count``/``total`` cover every observation ever made; percentiles
    are estimated over the last *window* samples (matching the
    pre-existing ``ServerMetrics`` semantics).  :meth:`merge_samples`
    folds another histogram's dump in, for cross-process aggregation.
    """

    __slots__ = ("name", "_lock", "_samples", "_count", "_total")

    def __init__(self, name: str = "", window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1: {window}")
        self.name = name
        self._lock = threading.Lock()
        self._samples = deque(maxlen=window)
        self._count = 0
        self._total = 0.0

    def observe(self, value) -> None:
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._total += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def samples(self) -> list:
        """Snapshot of the current window, in observation order."""
        with self._lock:
            return list(self._samples)

    def percentile(self, q: float) -> float:
        return self.percentiles((q,))[0]

    def percentiles(self, qs) -> tuple:
        """Several percentiles from one sort of the window."""
        with self._lock:
            ordered = sorted(self._samples)
        return tuple(percentile(ordered, q) for q in qs)

    def merge_samples(self, values, count: int = None,
                      total: float = None) -> None:
        """Fold another histogram's dump into this one.

        *count*/*total* default to the obvious sums over *values*; pass
        them explicitly when merging a dump whose window undercounts its
        lifetime observations.
        """
        values = list(values)
        with self._lock:
            self._samples.extend(values)
            self._count += len(values) if count is None else count
            self._total += (
                float(sum(values)) if total is None else float(total)
            )

    def summary(self) -> dict:
        """Percentile/count summary (the exposition's histogram shape)."""
        with self._lock:
            ordered = sorted(self._samples)
            count, total = self._count, self._total
        return {
            "count": count,
            "sum": total,
            "p50": percentile(ordered, 0.50),
            "p90": percentile(ordered, 0.90),
            "p99": percentile(ordered, 0.99),
            "max": ordered[-1] if ordered else 0.0,
        }

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._total,
                "samples": list(self._samples),
            }


class Collected(dict):
    """A collector's output when not all of it is additive.

    The names in ``local`` are one process's readings of a distribution
    published alongside as a :class:`Histogram` (its percentiles):
    :meth:`MetricsRegistry.collected` and ``snapshot`` show them,
    ``to_dict`` leaves them out, because a merge would sum them.
    """

    local = frozenset()


class MetricsRegistry:
    """A namespace of counters/gauges/histograms plus pluggable collectors.

    Accessors are get-or-create (two calls with one name return the one
    instrument).  *Collectors* are zero-argument callables returning
    ``{name: value}``, evaluated at snapshot/render time — how the stat
    sources (``TrafficStats``, ``ServerMetrics``, plan cache, dedup,
    scheduler) publish without holding a registry reference; see
    :mod:`repro.obs.bridge`.  A value is a number — additive: duplicate
    names across collectors **sum**, so N connections can publish under
    one metric, and dumps carry it as a gauge — or a live
    :class:`Histogram`, dumped as one; see :class:`Collected` for the
    numbers that are neither.

    :meth:`to_dict` / :meth:`merge` / :meth:`from_dict` implement the
    cross-process contract: counters and gauges sum, histogram windows
    concatenate.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._collectors = []

    # -- instruments -----------------------------------------------------

    def _check_kind(self, name: str, wanted: str) -> None:
        """Raise :class:`MetricsKindError` when *name* already exists as
        another kind (the merge-conflict guard; lock held by caller)."""
        for existing, store in (("counter", self._counters),
                                ("gauge", self._gauges),
                                ("histogram", self._histograms)):
            if existing != wanted and name in store:
                raise MetricsKindError(name, wanted, existing)

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_kind(name, "counter")
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_kind(name, "gauge")
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str, window: int = DEFAULT_WINDOW) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_kind(name, "histogram")
                instrument = self._histograms[name] = Histogram(name, window)
            return instrument

    def add_collector(self, collect) -> None:
        """Register ``collect() -> {name: number}`` (evaluated lazily)."""
        if not callable(collect):
            raise TypeError("collector must be callable")
        with self._lock:
            self._collectors.append(collect)

    # -- reading ---------------------------------------------------------

    def _read(self) -> tuple:
        """One pass over everything: instrument values, then every
        collector evaluated once — ``(counters, gauges, histograms,
        collected, local)``, *collected* being the collectors' numbers
        (duplicate names summed) and *local* the names among them that
        do not merge."""
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            histograms = dict(self._histograms)
            collectors = list(self._collectors)
        collected, local = {}, set()
        for collect in collectors:
            fields = collect()
            local.update(getattr(fields, "local", ()))
            for name, value in fields.items():
                if not isinstance(value, Histogram):
                    collected[name] = collected.get(name, 0) + value
                elif histograms.setdefault(name, value) is not value:
                    raise ValueError(
                        f"histogram {name!r} is published twice")
        return counters, gauges, histograms, collected, local

    def collected(self) -> dict:
        """Evaluate every collector; the flat numeric outputs, duplicate
        names summed."""
        *_instruments, collected, _local = self._read()
        return collected

    def snapshot(self) -> dict:
        """Flat ``{name: number-or-summary}`` view of everything."""
        counters, gauges, histograms, collected, _local = self._read()
        return {**counters, **gauges, **collected,
                **{name: h.summary() for name, h in histograms.items()}}

    def to_dict(self) -> dict:
        """The mergeable dump.  Collectors' additive numbers land under
        ``gauges`` (they are instantaneous reads of external counters;
        summing them across processes is the aggregate a cluster wants)
        and their histograms under ``histograms``."""
        counters, gauges, histograms, collected, local = self._read()
        for name, value in collected.items():
            if name not in local:
                gauges[name] = gauges.get(name, 0) + value
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {
                name: h.to_dict() for name, h in histograms.items()
            },
        }

    def merge(self, dump: dict) -> "MetricsRegistry":
        """Fold a :meth:`to_dict` dump (another process's registry) in.

        Raises :class:`MetricsKindError` when *dump* uses a name this
        registry holds as a different instrument kind — counter-vs-gauge
        conflicts must never sum silently.  The merge is not atomic:
        entries processed before the conflict are already folded in, so
        callers that must stay consistent validate with
        :meth:`from_dict` on a scratch registry first (what the
        supervisor's per-file merge does).
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).add(value)
        for name, hist in dump.get("histograms", {}).items():
            self.histogram(name).merge_samples(
                hist.get("samples", ()),
                count=hist.get("count"),
                total=hist.get("sum"),
            )
        return self

    @classmethod
    def from_dict(cls, dump: dict) -> "MetricsRegistry":
        return cls().merge(dump)

    def render_text(self) -> str:
        """One deterministic text exposition: ``name value`` per line,
        histograms expanded to ``name.count/.sum/.p50/.p90/.p99/.max``."""
        lines = []
        snapshot = self.snapshot()
        for name in sorted(snapshot):
            value = snapshot[name]
            if isinstance(value, dict):
                for key in ("count", "sum", "p50", "p90", "p99", "max"):
                    lines.append(f"{name}.{key} {_fmt(value[key])}")
            else:
                lines.append(f"{name} {_fmt(value)}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
