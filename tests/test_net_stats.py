"""Unit tests for traffic statistics counters and the stat-source shape."""

import sys
import threading
from numbers import Number

import pytest

from repro.net.stats import CounterSet, TrafficStats


class TestCounters:
    def test_initial_state(self):
        stats = TrafficStats()
        snap = stats.snapshot()
        assert (snap.requests, snap.bytes_sent, snap.bytes_received) == (0, 0, 0)
        assert snap.charges == {}

    def test_record_request(self):
        stats = TrafficStats()
        stats.record_request(10, 20)
        stats.record_request(1, 2)
        snap = stats.snapshot()
        assert snap.requests == 2
        assert snap.bytes_sent == 11
        assert snap.bytes_received == 22
        assert snap.total_bytes == 33

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TrafficStats().record_request(-1, 0)

    def test_charges_accumulate(self):
        stats = TrafficStats()
        stats.record_charge("a", 2)
        stats.record_charge("a")
        stats.record_charge("b")
        assert stats.snapshot().charges == {"a": 3, "b": 1}

    def test_reset(self):
        stats = TrafficStats()
        stats.record_request(5, 5)
        stats.record_charge("x")
        stats.reset()
        snap = stats.snapshot()
        assert snap.requests == 0
        assert snap.charges == {}

    def test_snapshot_is_immutable_copy(self):
        stats = TrafficStats()
        stats.record_charge("x")
        snap = stats.snapshot()
        stats.record_charge("x")
        assert snap.charges == {"x": 1}

    def test_properties(self):
        stats = TrafficStats()
        stats.record_request(3, 7)
        assert stats.requests == 1
        assert stats.bytes_sent == 3
        assert stats.bytes_received == 7

    def test_thread_safety(self):
        stats = TrafficStats()

        def hammer():
            for _ in range(500):
                stats.record_request(1, 1)
                stats.record_charge("k")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = stats.snapshot()
        assert snap.requests == 2000
        assert snap.charges["k"] == 2000


class TestCounterSet:
    def test_declared_names_start_at_zero(self):
        counts = CounterSet("a", "b")
        assert counts.as_dict() == {"a": 0, "b": 0}
        assert counts.get("a") == 0

    def test_undeclared_name_appears_on_first_add(self):
        counts = CounterSet("a")
        assert "late" not in counts.as_dict()
        assert counts.get("late") == 0
        counts.add("late", 3)
        counts.add("a")
        assert counts.as_dict() == {"a": 1, "late": 3}

    def test_reset_restores_the_declared_set(self):
        counts = CounterSet("a")
        counts.add("a", 5)
        counts.add("late")
        counts.reset()
        assert counts.as_dict() == {"a": 0}

    def test_as_dict_is_a_copy(self):
        counts = CounterSet("a")
        view = counts.as_dict()
        view["a"] = 99
        counts.add("a")
        assert counts.as_dict() == {"a": 1}
        assert view == {"a": 99}


HAMMER_THREADS, HAMMER_ROUNDS = 4, 500
HAMMERED = HAMMER_THREADS * HAMMER_ROUNDS


def _traffic():
    stats = TrafficStats()

    def write():
        stats.record_request(2, 3)
        stats.record_charge("k")

    return stats, write, {"requests": HAMMERED, "bytes_sent": 2 * HAMMERED,
                          "bytes_received": 3 * HAMMERED,
                          "charge.k": HAMMERED}


def _plan_cache():
    from repro.plan.cache import PlanCache

    cache = PlanCache()
    cache.install("d", plan=object(), inline_cost=10, invoke_cost=4)

    def write():
        cache.get("d")
        cache.get("absent")

    return cache.stats, write, {"hits": HAMMERED, "misses": HAMMERED,
                                "installs": 1, "evictions": 0,
                                "bytes_saved": 6 * HAMMERED, "size": 1}


def _scheduler():
    from repro.core.dag import REASON_POLICY, SchedulerStats

    stats = SchedulerStats()

    def write():
        stats.record_parallel(chains=3)
        stats.record_serial(REASON_POLICY)

    return stats, write, {"parallel_batches": HAMMERED,
                          "chains": 3 * HAMMERED,
                          "serial_batches": HAMMERED,
                          "fallback.policy": HAMMERED,
                          "fallback.session": 0, "elements": 0}


def _dedup():
    from repro.rmi.dispatch import DedupWindow

    window = DedupWindow(capacity=4 * HAMMERED)
    tokens = iter(range(HAMMERED))
    lock = threading.Lock()

    def write():
        with lock:
            token = str(next(tokens))
        window.execute(token, lambda: b"response")  # the owner executes
        window.execute(token, lambda: b"never")     # the duplicate replays

    return window, write, {"executed": HAMMERED, "hits": HAMMERED,
                           "entries": HAMMERED}


def _memo():
    from repro.plan.client import HIT, INSTALL, PlanMemo

    memo = PlanMemo()

    def write():
        state, _route = memo.route(object())  # a first sighting: inline
        memo.settle(state, HIT)
        memo.settle(state, INSTALL, "d")

    return memo, write, {"inline_flushes": HAMMERED,
                         "invocations": HAMMERED, "installs": HAMMERED}


def _server_metrics():
    from repro.aio.metrics import MetricsRecorder

    recorder = MetricsRecorder()

    def write():
        recorder.on_admit()
        recorder.on_start()
        recorder.on_done(0.001)
        recorder.on_shed()

    class Source:  # the snapshot is the source; take it at read time
        def as_dict(self):
            return recorder.snapshot().as_dict()

    return Source(), write, {"served": HAMMERED, "shed": HAMMERED,
                             "in_flight": 0, "queued": 0, "p50_ms": 1.0}


class TestStatSourceContract:
    """Every stat source answers ``as_dict()`` with a flat
    ``str -> number`` dict, and loses no update under concurrent writers:
    the one shape ``obs.bridge.bind`` publishes."""

    @pytest.mark.parametrize("make", [
        _traffic, _plan_cache, _scheduler, _dedup, _memo, _server_metrics,
    ])
    def test_flat_numeric_and_exact_under_a_hammer(self, make):
        source, write, expected = make()
        before = source.as_dict()
        assert before and all(
            isinstance(name, str) and isinstance(value, Number)
            and not isinstance(value, bool)
            for name, value in before.items()
        )

        def hammer():
            for _ in range(HAMMER_ROUNDS):
                write()

        threads = [threading.Thread(target=hammer)
                   for _ in range(HAMMER_THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaving inside updates
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        after = source.as_dict()
        assert set(after) >= set(before)
        assert {name: after[name] for name in expected} == pytest.approx(
            expected)
