"""Cluster scatter-gather scaling: 2 shards vs a single server.

The sharded deployment's claim is capacity, not latency: a cross-shard
batch splits its rows over N independent serve processes, so the
per-batch service time drops to the largest per-shard slice and the
cluster's aggregate worker capacity doubles.  Both lanes run the exact
same client code — a :class:`~repro.cluster.ClusterClient` recording
``ops`` delay-bound calls per scatter-gather batch, spread round-robin
over the shard-homed load targets — against the serve processes of a
``Supervisor(shards=N)`` group; the only variable is the shard count.

The workload is service-time dominated (``work(delay)`` sleeps
server-side), so with enough concurrent clients the expected scaling is
~``shards``x; the acceptance bar is 1.5x at full scale.  The merged
per-shard metrics dumps must account for at least 99% of the requests
the clients observed — the accounting bar that pins the cluster-wide
metrics merge.

Results land in ``benchmarks/results/BENCH_throughput.json`` (a run
artifact) under the ``cluster_scaling`` key.  The default
``BENCH_SCALE=smoke`` shrinks the run and keeps the accounting bar; the
ratio bar holds at ``BENCH_SCALE=full``.
"""

from __future__ import annotations

import threading
import time

import pytest
from conftest import (
    MIN_ACCOUNTING, SCALE, accounted, ratio, record_results,
)

from repro.aio import SERVICE_NAME, AioNetwork, Supervisor
from repro.cluster import ClusterClient

pytestmark = pytest.mark.slow

CLUSTER_SCALES = {
    # Server-bound on both lanes: capacity is workers/(ops_per_shard *
    # delay) batches/s, and 32 clients outrun both, so the ratio
    # measures what sharding adds.
    "full": dict(shards=2, clients=32, ops=6, delay=0.05, duration=2.5,
                 warmup=1.0, workers=24, queue_depth=256, min_scaling=1.5),
    # Smoke: same shape, small enough for any runner; records, no bar.
    "smoke": dict(shards=2, clients=8, ops=4, delay=0.05, duration=1.0,
                  warmup=0.4, workers=8, queue_depth=128),
}


class _Worker(threading.Thread):
    """One closed-loop client: record a scatter-gather batch, flush, wait."""

    def __init__(self, addresses, cfg, stop_event):
        super().__init__(daemon=True)
        self._addresses = addresses
        self._cfg = cfg
        self._halt = stop_event
        self.batches = 0
        self.requests = 0
        self.error = None

    def run(self):
        cfg = self._cfg
        network = AioNetwork()
        try:
            cluster = ClusterClient(network, self._addresses)
            targets = [
                cluster.lookup(
                    cluster.shard_map.homed_name(SERVICE_NAME, index)
                )
                for index in range(cluster.shards)
            ]
            while not self._halt.is_set():
                batch = cluster.create_batch()
                proxies = [batch.on(target) for target in targets]
                futures = [
                    proxies[op % len(proxies)].work(cfg["delay"])
                    for op in range(cfg["ops"])
                ]
                batch.flush()
                for future in futures:
                    future.get()
                self.batches += 1
            self.requests = sum(
                cluster.client_for(index).stats.requests
                for index in range(cluster.shards)
            )
            cluster.close()
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            self.error = exc
        finally:
            network.close()


def _measure_cluster(shards: int, cfg: dict):
    """One load run against a *shards*-sized cluster deployment.

    Returns ``(throughput, client_requests, merged_snapshot, errors)``:
    batches/s over the steady-state window, total client-observed
    requests, and the cluster-wide metrics merge from the supervisor.
    """
    supervisor = Supervisor(
        shards=shards, transport="aio",
        workers=cfg["workers"], queue_depth=cfg["queue_depth"],
    ).start()
    stop_event = threading.Event()
    workers = [
        _Worker(supervisor.addresses, cfg, stop_event)
        for _ in range(cfg["clients"])
    ]
    try:
        for worker in workers:
            worker.start()
        time.sleep(cfg["warmup"])
        start_batches = sum(w.batches for w in workers)
        start_time = time.monotonic()
        time.sleep(cfg["duration"])
        window_batches = sum(w.batches for w in workers) - start_batches
        window = time.monotonic() - start_time
        stop_event.set()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        stop_event.set()
        merged = supervisor.stop()
    errors = [w.error for w in workers if w.error is not None]
    client_requests = sum(w.requests for w in workers)
    return window_batches / window, client_requests, merged.snapshot(), errors


class TestClusterScaling:
    def test_two_shards_beat_a_single_server(self, results_dir):
        cfg = CLUSTER_SCALES[SCALE]

        single, single_reqs, single_merged, single_errors = _measure_cluster(
            1, cfg
        )
        multi, multi_reqs, multi_merged, multi_errors = _measure_cluster(
            cfg["shards"], cfg
        )

        scaling = ratio(multi, single)
        single_accounted = accounted(single_merged, single_reqs)
        multi_accounted = accounted(multi_merged, multi_reqs)
        payload = {
            "benchmark": "cluster scatter-gather shards (aio, localhost)",
            "scale": SCALE,
            "config": {
                "shards": cfg["shards"],
                "clients": cfg["clients"],
                "ops_per_batch": cfg["ops"],
                "service_delay_s": cfg["delay"],
                "window_s": cfg["duration"],
                "workers_per_shard": cfg["workers"],
                "queue_depth_per_shard": cfg["queue_depth"],
            },
            "single_server": {"shards": 1, "throughput": round(single, 1)},
            "cluster": {"shards": cfg["shards"],
                        "throughput": round(multi, 1)},
            "scaling": round(scaling, 2),
            "metrics_accounted": round(multi_accounted, 4),
        }
        record_results("BENCH_throughput.json", {"cluster_scaling": payload})
        print()
        print(
            f"[{SCALE}] 1 shard {single:7.1f} batches/s | "
            f"{cfg['shards']} shards {multi:7.1f} batches/s | "
            f"scaling {scaling:.2f}x | merged-metrics accounting "
            f"{multi_accounted:.2%}"
        )

        assert single_errors == [] and multi_errors == []
        assert single > 0 and multi > 0
        # The cluster-wide metrics merge must account for (at least)
        # every request the clients observed completing, on both lanes.
        assert single_accounted >= MIN_ACCOUNTING
        assert multi_accounted >= MIN_ACCOUNTING
        if SCALE == "full":
            assert scaling >= cfg["min_scaling"], (
                f"{cfg['shards']} shards sustained only {scaling:.2f}x a "
                f"single server (need {cfg['min_scaling']}x): {payload}"
            )
