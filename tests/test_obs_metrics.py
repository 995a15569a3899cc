"""The unified metrics surface: instruments, registry, merge, exposition."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsKindError,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_nearest_rank(self):
        ordered = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(ordered, 0.50) == 5
        assert percentile(ordered, 0.90) == 9
        assert percentile(ordered, 0.99) == 10
        assert percentile(ordered, 1.0) == 10

    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample(self):
        assert percentile([7], 0.01) == 7
        assert percentile([7], 0.99) == 7


class TestInstruments:
    def test_counter_goes_up_only(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets_and_adds(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_histogram_counts_every_observation(self):
        hist = Histogram("h", window=4)
        for v in range(10):
            hist.observe(v)
        assert hist.count == 10          # lifetime
        assert hist.total == sum(range(10))
        assert hist.samples() == [6, 7, 8, 9]  # windowed

    def test_histogram_percentiles_over_window(self):
        hist = Histogram("h")
        for v in (5, 1, 3, 2, 4):
            hist.observe(v)
        assert hist.percentiles((0.5, 1.0)) == (3, 5)
        assert hist.percentile(0.5) == 3

    def test_histogram_summary_shape(self):
        hist = Histogram("h")
        hist.observe(2.0)
        summary = hist.summary()
        assert set(summary) == {"count", "sum", "p50", "p90", "p99", "max"}
        assert summary["count"] == 1
        assert summary["max"] == 2.0

    def test_histogram_merge_preserves_lifetime_counts(self):
        hist = Histogram("h", window=4)
        hist.observe(1.0)
        # A dump whose window (2 samples) undercounts its lifetime (100).
        hist.merge_samples([9.0, 10.0], count=100, total=950.0)
        assert hist.count == 101
        assert hist.total == 951.0
        assert hist.samples() == [1.0, 9.0, 10.0]

    def test_histogram_window_validation(self):
        with pytest.raises(ValueError):
            Histogram(window=0)


class TestRegistry:
    def test_accessors_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_collectors_sum_duplicate_names(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda: {"client.requests": 3})
        registry.add_collector(lambda: {"client.requests": 4, "other": 1})
        assert registry.collected() == {"client.requests": 7, "other": 1}

    def test_collector_must_be_callable(self):
        with pytest.raises(TypeError):
            MetricsRegistry().add_collector(42)

    def test_snapshot_is_flat_with_histogram_summaries(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(2)
        registry.gauge("depth").set(5)
        registry.histogram("latency").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["hits"] == 2
        assert snapshot["depth"] == 5
        assert snapshot["latency"]["count"] == 1

    def test_merge_sums_counters_and_gauges(self):
        a = MetricsRegistry()
        a.counter("n").inc(1)
        a.gauge("g").set(10)
        a.histogram("h").observe(1.0)
        b = MetricsRegistry()
        b.counter("n").inc(2)
        b.gauge("g").set(4)
        b.histogram("h").observe(3.0)
        merged = MetricsRegistry.from_dict(a.to_dict()).merge(b.to_dict())
        assert merged.counter("n").value == 3
        assert merged.gauge("g").value == 14
        assert merged.histogram("h").count == 2
        assert sorted(merged.histogram("h").samples()) == [1.0, 3.0]

    def test_collector_outputs_merge_as_gauges(self):
        source = MetricsRegistry()
        source.add_collector(lambda: {"client.requests": 9})
        merged = MetricsRegistry.from_dict(source.to_dict())
        assert merged.gauge("client.requests").value == 9


class TestMergeKindConflicts:
    """One name, two instrument kinds: the merge must fail loudly.

    Summing a counter into a gauge (or folding either into a histogram
    window) silently corrupts the books, so cross-kind reuse raises
    :class:`MetricsKindError` — in-process at the accessor, and across
    processes when merging dumps.  Pinned here so it can never regress
    to a silent sum.
    """

    def test_accessor_rejects_cross_kind_reuse(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsKindError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(MetricsKindError):
            registry.histogram("x")
        # Same-kind re-access still returns the one instrument.
        assert registry.counter("x") is registry.counter("x")

    def test_error_names_both_kinds(self):
        registry = MetricsRegistry()
        registry.gauge("server.requests")
        with pytest.raises(MetricsKindError) as excinfo:
            registry.counter("server.requests")
        assert excinfo.value.name == "server.requests"
        assert excinfo.value.existing == "gauge"
        assert excinfo.value.wanted == "counter"
        assert isinstance(excinfo.value, ValueError)  # catchable broadly

    def test_merge_counter_vs_gauge_fails_loudly(self):
        a = MetricsRegistry()
        a.counter("n").inc(1)
        b = MetricsRegistry()
        b.gauge("n").set(5)
        with pytest.raises(MetricsKindError):
            MetricsRegistry.from_dict(a.to_dict()).merge(b.to_dict())

    def test_merge_counter_vs_histogram_fails_loudly(self):
        a = MetricsRegistry()
        a.counter("n").inc(1)
        b = MetricsRegistry()
        b.histogram("n").observe(1.0)
        with pytest.raises(MetricsKindError):
            MetricsRegistry.from_dict(a.to_dict()).merge(b.to_dict())

    def test_merge_gauge_vs_histogram_fails_loudly(self):
        a = MetricsRegistry()
        a.gauge("n").set(2)
        b = MetricsRegistry()
        b.histogram("n").observe(1.0)
        with pytest.raises(MetricsKindError):
            MetricsRegistry.from_dict(a.to_dict()).merge(b.to_dict())

    def test_conflicting_dump_validates_on_a_scratch_registry(self):
        """The supervisor's pattern: validate each file with from_dict
        before folding it into the real merge, so a bad dump cannot
        half-apply (merge is documented as non-atomic)."""
        good = MetricsRegistry()
        good.counter("n").inc(3)
        bad = {"counters": {"n": 1}, "gauges": {"n": 5}, "histograms": {}}
        with pytest.raises(MetricsKindError):
            MetricsRegistry.from_dict(bad)
        merged = MetricsRegistry.from_dict(good.to_dict())
        assert merged.counter("n").value == 3  # untouched by the reject

    def test_render_text_is_sorted_and_expands_histograms(self):
        registry = MetricsRegistry()
        registry.counter("zebra").inc()
        registry.histogram("alpha").observe(1.5)
        text = registry.render_text()
        lines = text.splitlines()
        # Metric names sort; a histogram's suffixes keep their fixed order.
        assert lines[0].startswith("alpha.") and lines[-1] == "zebra 1"
        assert "alpha.count 1" in lines
        assert "alpha.p99 1.5" in lines
        assert "zebra 1" in lines


class TestSharedHistogramBacksServerMetrics:
    """Satellite check: one percentile implementation, everywhere."""

    def test_server_metrics_uses_the_shared_type(self):
        from repro.aio.metrics import MetricsRecorder

        metrics = MetricsRecorder(window=8)
        assert isinstance(metrics.service_times, Histogram)

    def test_snapshot_percentiles_match_shared_math(self):
        from repro.aio.metrics import MetricsRecorder

        metrics = MetricsRecorder(window=64)
        for ms in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
            metrics.on_admit()
            metrics.on_start()
            metrics.on_done(ms / 1000.0)
        snapshot = metrics.snapshot()
        assert snapshot.p50_ms == pytest.approx(5.0)
        assert snapshot.p99_ms == pytest.approx(10.0)

    def test_merged_percentiles_concatenate_instead_of_summing(self):
        """Four workers at a 10 ms median merge to a 10 ms median: the
        distribution travels as a histogram; the per-process p50/p99
        readings stay out of the mergeable dump (they used to sum to
        ``server.runtime.p50_ms 40``)."""
        from repro.aio.metrics import MetricsRecorder
        from repro.obs.bridge import bind

        merged = MetricsRegistry()
        for _worker in range(4):
            recorder = MetricsRecorder()
            for _request in range(10):
                recorder.on_admit()
                recorder.on_start()
                recorder.on_done(0.010)
            registry = MetricsRegistry()
            bind(registry, "server.runtime", recorder.snapshot)
            collected = registry.collected()   # one process: still flat
            assert collected["server.runtime.p50_ms"] == pytest.approx(10.0)
            assert collected["server.runtime.served"] == 10
            assert all(isinstance(v, (int, float))
                       for v in collected.values())
            merged.merge(json.loads(json.dumps(registry.to_dict())))

        dump = merged.to_dict()
        assert "server.runtime.p50_ms" not in dump["gauges"]
        assert "server.runtime.p99_ms" not in dump["gauges"]
        assert dump["gauges"]["server.runtime.served"] == 40
        summary = merged.snapshot()["server.runtime.service_seconds"]
        assert summary["count"] == 40
        assert summary["p50"] == pytest.approx(0.010)
        assert "server.runtime.service_seconds.p50 0.01" in (
            merged.render_text().splitlines())


class TestBridgeNames:
    """The names ``obs.bridge`` publishes are an interface: CI gates,
    ``repro.obs top`` and ``benchmarks/e2e/server.py`` read them."""

    def test_bound_server_and_client_publish_exactly_these_names(self):
        import threading
        import time

        from repro.aio import AioNetwork
        from repro.aio.loadgen import LoadTargetImpl
        from repro.core import create_batch
        from repro.obs.bridge import bind_client, bind_server
        from repro.rmi import RMIClient, RMIServer, ServerBusyError
        from tests.support import CounterImpl

        # One worker, no queue: a second request while the first runs
        # is shed, so the shed count below is exact.
        network = AioNetwork(max_workers=1, queue_depth=0)
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            server.bind("counter", CounterImpl())
            server.bind("load", LoadTargetImpl())
            client = RMIClient(network, server.address)
            registry = MetricsRegistry()
            bind_server(registry, server)
            bind_client(registry, client)

            counter = client.lookup("counter")
            load = client.lookup("load")

            batch = create_batch(counter)           # one inline flush
            future = batch.increment(1)
            batch.flush()
            assert future.get() == 1
            for amount in (2, 3, 4):    # inline, then install, then hit
                batch = create_batch(counter, reuse_plans=True)
                future = batch.increment(amount)
                batch.flush()
                future.get()

            hold = threading.Thread(target=load.work, args=(0.5,))
            hold.start()
            deadline = time.monotonic() + 10.0
            while server.metrics.in_flight == 0:    # the worker is taken
                assert time.monotonic() < deadline
                time.sleep(0.005)
            with pytest.raises(ServerBusyError):
                counter.current()                   # one shed
            hold.join()

            snap = registry.snapshot()
            client.close()
        finally:
            network.close()

        assert sorted(snap) == [
            "client.bytes_received",
            "client.bytes_sent",
            "client.charge.batch_record",
            "client.charge.proxy_create",
            "client.charge.stub_create",
            "client.plan.inline_flushes",
            "client.plan.installs",
            "client.plan.invocations",
            "client.requests",
            "server.bytes_received",
            "server.bytes_sent",
            "server.charge.batch_op",
            "server.charge.batch_setup",
            "server.charge.remote_export",
            "server.dedup.entries",
            "server.dedup.executed",
            "server.dedup.hits",
            "server.plan_cache.bytes_saved",
            "server.plan_cache.evictions",
            "server.plan_cache.hits",
            "server.plan_cache.installs",
            "server.plan_cache.misses",
            "server.plan_cache.size",
            "server.requests",
            "server.runtime.in_flight",
            "server.runtime.p50_ms",
            "server.runtime.p99_ms",
            "server.runtime.queued",
            "server.runtime.served",
            "server.runtime.service_seconds",
            "server.runtime.shed",
            "server.scheduler.chains",
            "server.scheduler.elements",
            "server.scheduler.fallback.disabled",
            "server.scheduler.fallback.policy",
            "server.scheduler.fallback.session",
            "server.scheduler.fallback.shape",
            "server.scheduler.fallback.single_chain",
            "server.scheduler.fallback.unsafe_method",
            "server.scheduler.helpers",
            "server.scheduler.parallel_batches",
            "server.scheduler.serial_batches",
        ]
        counts = {name: value for name, value in snap.items()
                  if "bytes" not in name
                  and not name.endswith(("_ms", "_seconds"))}
        assert counts == {
            "client.charge.batch_record": 4,
            "client.charge.proxy_create": 4,
            "client.charge.stub_create": 2,
            "client.plan.inline_flushes": 1,
            "client.plan.installs": 1,
            "client.plan.invocations": 1,
            "client.requests": 8,       # 2 lookups, 4 flushes, work, shed
            "server.charge.batch_op": 4,
            "server.charge.batch_setup": 4,
            "server.charge.remote_export": 2,
            "server.dedup.entries": 0,  # no retry tokens were sent
            "server.dedup.executed": 0,
            "server.dedup.hits": 0,
            "server.plan_cache.evictions": 0,
            "server.plan_cache.hits": 1,
            "server.plan_cache.installs": 1,
            "server.plan_cache.misses": 0,
            "server.plan_cache.size": 1,
            "server.requests": 8,
            "server.runtime.in_flight": 0,
            "server.runtime.queued": 0,
            "server.runtime.served": 7,
            "server.runtime.shed": 1,
            "server.scheduler.chains": 0,
            "server.scheduler.elements": 0,
            "server.scheduler.fallback.disabled": 0,
            "server.scheduler.fallback.policy": 4,
            "server.scheduler.fallback.session": 0,
            "server.scheduler.fallback.shape": 0,
            "server.scheduler.fallback.single_chain": 0,
            "server.scheduler.fallback.unsafe_method": 0,
            "server.scheduler.helpers": 0,
            "server.scheduler.parallel_batches": 0,
            "server.scheduler.serial_batches": 4,
        }
        assert snap["server.plan_cache.bytes_saved"] > 0
        # The distribution behind p50_ms/p99_ms: one sample per served.
        assert snap["server.runtime.service_seconds"]["count"] == 7
