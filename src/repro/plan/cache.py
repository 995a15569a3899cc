"""The server-side plan cache: bounded LRU keyed by content hash.

Follows the shape of :class:`~repro.core.session.SessionStore` (bounded,
LRU, thread-safe) and keeps its books like
:class:`~repro.net.stats.TrafficStats` (a
:class:`~repro.net.stats.CounterSet` with an immutable typed snapshot):
tests and dashboards read ``cache.stats.snapshot()`` instead of poking
internals.

``bytes_saved`` is the cache's headline metric: for every hit it credits
the difference between what the inline path would have shipped (the full
invocation list, measured once at install time) and what the plan path
actually ships (hash + parameters, also measured at install time).  It
is an estimate — parameter sizes can drift between invocations of the
same shape — but it is computed from real encodings, not guesses, and
the benchmarks cross-check it against the transport's byte counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.net.stats import CounterSet

#: Default maximum number of cached plans per server.
DEFAULT_PLAN_CAPACITY = 256


@dataclass(frozen=True)
class PlanCacheSnapshot:
    """Immutable view of the plan-cache counters at one instant."""

    hits: int
    misses: int
    installs: int
    evictions: int
    bytes_saved: int
    size: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up yet)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class PlanCacheStats(CounterSet):
    """Hit/miss/install/eviction/bytes-saved counters, plus the live
    ``size`` read through *size_reader* (the owning cache's ``len``)."""

    def __init__(self, size_reader):
        super().__init__("hits", "misses", "installs", "evictions",
                         "bytes_saved")
        self._size_reader = size_reader

    def record_hit(self, bytes_saved: int = 0) -> None:
        with self._lock:
            self._values["hits"] += 1
            self._values["bytes_saved"] += max(0, bytes_saved)

    def as_dict(self) -> dict:
        # Read the size outside our own lock: the cache calls into these
        # counters while holding its lock, so taking the locks in the
        # opposite order here could deadlock.
        return dict(super().as_dict(), size=self._size_reader())

    def snapshot(self) -> PlanCacheSnapshot:
        return PlanCacheSnapshot(**self.as_dict())


@dataclass
class PlanEntry:
    """One cached plan plus its byte-accounting baseline.

    ``inline_cost`` is the encoded size of the fully bound invocation
    list at install time (what a flush would ship without the cache);
    ``invoke_cost`` is the encoded size of ``(hash, params)`` at install
    time (what a plan invocation ships instead).  ``dag`` is the
    scheduler's :class:`~repro.core.dag.BatchDag` for the plan shape,
    computed once at install validation so plan hits pay zero
    per-invocation analysis.
    """

    plan: object
    digest: str
    inline_cost: int
    invoke_cost: int
    dag: object = None

    @property
    def saving_per_hit(self) -> int:
        return max(0, self.inline_cost - self.invoke_cost)


class PlanCache:
    """Thread-safe bounded LRU of installed plans, keyed by content hash."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        self.stats = PlanCacheStats(self.__len__)

    @property
    def capacity(self) -> int:
        return self._capacity

    def install(self, digest: str, plan, inline_cost: int,
                invoke_cost: int, dag=None) -> PlanEntry:
        """Insert (or refresh) a plan; evicts LRU entries past capacity.

        Re-installing an existing hash is a no-op apart from recency —
        content addressing makes the upload idempotent, which is what
        lets the miss protocol be retried blindly.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                entry = PlanEntry(
                    plan=plan,
                    digest=digest,
                    inline_cost=inline_cost,
                    invoke_cost=invoke_cost,
                    dag=dag,
                )
                self._entries[digest] = entry
                self.stats.add("installs")
            self._entries.move_to_end(digest)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.stats.add("evictions")
            return entry

    def get(self, digest: str):
        """Fetch an entry (refreshing recency and counting hit/miss).

        Returns ``None`` on a miss; the runtime turns that into the typed
        :class:`~repro.rmi.exceptions.PlanNotFoundError` of the protocol.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self.stats.add("misses")
                return None
            self._entries.move_to_end(digest)
            self.stats.record_hit(entry.saving_per_hit)
            return entry

    def peek(self, digest: str) -> bool:
        """Whether *digest* is cached, without touching recency or stats."""
        with self._lock:
            return digest in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest):
        return self.peek(digest)
