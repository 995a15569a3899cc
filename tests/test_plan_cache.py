"""Plan cache: LRU eviction, stats, concurrency, and byte accounting."""

import threading

import pytest

from repro.core import create_batch
from repro.core.policies import AbortPolicy
from repro.core.recording import ArgRef, InvocationData
from repro.plan import PlanCache, compile_plan, plan_hash
from repro.plan.runtime import plan_runtime_of
from repro.rmi import RMIClient, RMIServer
from repro.net import LAN, SimNetwork

from tests.support import CounterImpl


def make_plan(method="m", nargs=1):
    invocations = (
        InvocationData(
            seq=1,
            target=ArgRef(0),
            method=method,
            args=tuple(f"v{i}" for i in range(nargs)),
        ),
    )
    return compile_plan(invocations, AbortPolicy())


class TestLRU:
    def test_install_get_hit_and_miss_counting(self):
        cache = PlanCache(capacity=4)
        plan, _params = make_plan()
        digest = plan_hash(plan)
        assert cache.get(digest) is None
        cache.install(digest, plan, inline_cost=500, invoke_cost=100)
        entry = cache.get(digest)
        assert entry.plan is plan
        snap = cache.stats.snapshot()
        assert (snap.hits, snap.misses, snap.installs) == (1, 1, 1)
        assert snap.bytes_saved == 400
        assert snap.size == 1

    def test_reinstall_is_idempotent(self):
        cache = PlanCache(capacity=4)
        plan, _ = make_plan()
        digest = plan_hash(plan)
        first = cache.install(digest, plan, 500, 100)
        second = cache.install(digest, plan, 999, 999)
        assert second is first
        assert cache.stats.snapshot().installs == 1

    def test_lru_eviction_order_under_small_capacity(self):
        cache = PlanCache(capacity=2)
        plans = [make_plan(method=f"m{i}")[0] for i in range(3)]
        digests = [plan_hash(p) for p in plans]
        cache.install(digests[0], plans[0], 10, 1)
        cache.install(digests[1], plans[1], 10, 1)
        assert cache.get(digests[0]) is not None  # refresh 0; 1 becomes LRU
        cache.install(digests[2], plans[2], 10, 1)
        assert digests[1] not in cache
        assert digests[0] in cache and digests[2] in cache
        assert cache.stats.snapshot().evictions == 1

    def test_peek_does_not_touch_stats_or_recency(self):
        cache = PlanCache(capacity=1)
        plan, _ = make_plan()
        digest = plan_hash(plan)
        assert not cache.peek(digest)
        cache.install(digest, plan, 10, 1)
        assert cache.peek(digest)
        snap = cache.stats.snapshot()
        assert (snap.hits, snap.misses) == (0, 0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_hit_rate(self):
        cache = PlanCache()
        plan, _ = make_plan()
        digest = plan_hash(plan)
        cache.get(digest)
        cache.install(digest, plan, 10, 1)
        cache.get(digest)
        cache.get(digest)
        assert cache.stats.snapshot().hit_rate == pytest.approx(2 / 3)


class TestConcurrency:
    def test_parallel_clients_share_one_installed_plan(self, network, server):
        """Many clients replaying the same shape: one install, the rest
        hits, every result correct."""
        impl = CounterImpl()
        server.bind("plan-counter", impl)
        rounds, workers = 6, 4
        errors = []
        lock = threading.Lock()
        totals = []

        def worker():
            try:
                client = RMIClient(network, "sim://server:1099")
                for _ in range(rounds):
                    batch = create_batch(
                        client.lookup("plan-counter"), reuse_plans=True
                    )
                    future = batch.increment(1)
                    batch.flush()
                    with lock:
                        totals.append(future.get())
                client.close()
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert impl.value == rounds * workers
        assert sorted(totals)[-1] == rounds * workers
        snap = plan_runtime_of(server).cache.stats.snapshot()
        # Each client's second sighting installs directly (no lookup);
        # every later flush is a plan invocation that hits, because the
        # client's own install already populated the shared cache.
        assert snap.size == 1
        assert snap.hits == workers * (rounds - 2)
        assert snap.misses == 0
        assert snap.installs >= 1

    def test_concurrent_install_and_evict_stay_consistent(self):
        cache = PlanCache(capacity=4)
        plans = [make_plan(method=f"m{i}") for i in range(16)]
        digests = [plan_hash(p) for p, _ in plans]
        errors = []

        def hammer(offset):
            try:
                for _ in range(50):
                    for i in range(offset, 16, 2):
                        cache.install(digests[i], plans[i][0], 10, 1)
                        cache.get(digests[i])
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 4
        snap = cache.stats.snapshot()
        assert snap.evictions > 0
        assert snap.size <= 4


class TestByteAccounting:
    def test_miss_install_hit_round_trip_bytes(self):
        """The full miss protocol, with every leg measured off the real
        transport counters (net/stats.py)."""
        network = SimNetwork(conditions=LAN)
        try:
            server = RMIServer(network, "sim://server:1099").start()
            server.bind("counter", CounterImpl())
            client = RMIClient(network, "sim://server:1099")
            stub = client.lookup("counter")

            def flush_once():
                before_sent = client.stats.bytes_sent
                before_requests = client.stats.requests
                batch = create_batch(stub, reuse_plans=True)
                future = batch.increment(5)
                batch.flush()
                assert future.get() > 0
                return (
                    client.stats.bytes_sent - before_sent,
                    client.stats.requests - before_requests,
                )

            inline_bytes, inline_requests = flush_once()     # first sighting
            install_bytes, install_requests = flush_once()   # direct install
            hit_bytes, hit_requests = flush_once()           # cached hit
            hit_bytes2, _ = flush_once()

            assert inline_requests == 1
            # The first repeat installs in a single round trip (the plan
            # upload is slightly larger than the inline script).
            assert install_requests == 1
            assert install_bytes > inline_bytes
            # Steady state: one round trip, far fewer bytes than inline.
            assert hit_requests == 1
            assert hit_bytes < inline_bytes / 2
            assert hit_bytes2 == hit_bytes

            snap = plan_runtime_of(server).cache.stats.snapshot()
            assert (snap.hits, snap.misses, snap.installs) == (2, 0, 1)
            assert snap.bytes_saved > 0
        finally:
            network.close()
