"""Multi-client load benchmark: asyncio runtime vs thread-per-connection.

The paper's BRMI layer amortizes latency within one client's batch; this
benchmark measures the axis the ROADMAP cares about — *server* batch
throughput under many concurrent clients.  Both runs use the identical
client stack (``RMIClient`` + ``create_batch`` streams driven by
:func:`repro.aio.loadgen.run_load`) against the identical dispatch core,
served by a separate server process (``python -m repro.aio serve``) so
client and server don't share a GIL.  The only variable is the serving
model:

- **thread-per-connection** (``TcpNetwork``): requests on a connection
  are strictly sequential, so each client's concurrent batch streams
  serialize on its channel — throughput is bounded by connection count;
- **aio pipelined** (``AioNetwork``): the same streams multiplex over
  each connection and execute on the server's bounded worker pool —
  throughput is bounded by requests in flight.

The workload's ``work(delay)`` call sleeps server-side, modelling a
backend touch; with service time dominating, the pipelined runtime must
sustain at least 3x the sequential baseline at 32 clients (the
acceptance bar; measured ~5x on a single-core container).  Results are
written to ``benchmarks/results/BENCH_throughput.json``, a run artifact
CI uploads.

The default ``BENCH_SCALE=smoke`` shrinks the run (fewer clients,
shorter window) and asserts correctness only; the ratio bars hold at
``BENCH_SCALE=full``.
"""

from __future__ import annotations

import pytest
from conftest import (
    MIN_ACCOUNTING, SCALE, accounted, drive, ratio, record_results,
    serve_child,
)

from repro.aio import AioNetwork
from repro.net import TcpNetwork
from repro.net.tcp import HAS_REUSEPORT


# Wall-clock load generation against a separate server process: real
# time, real scheduling jitter.  Marked slow so `-m "not slow"` gives a
# fully deterministic tier-1 run on noisy machines.
pytestmark = pytest.mark.slow

SCALES = {
    # 32 clients x 6 streams: the acceptance-criteria scenario.
    "full": dict(clients=32, streams=6, delay=0.2, duration=2.0,
                 warmup=0.7, workers=224, queue_depth=512, min_speedup=3.0),
    # Smoke: same shape, small enough for any runner; records, no bar.
    "smoke": dict(clients=8, streams=4, delay=0.1, duration=1.0,
                  warmup=0.5, workers=48, queue_depth=128),
}

# The process-sharding lane: N reuseport workers vs one, *same pool size
# per process*, so the ratio isolates what sharding adds.  The workload
# is delay-bound, so capacity per process is workers/delay and the
# client drives enough streams to saturate every shard — which is what
# makes the bar meaningful on a single-core container too.
PROC_SCALES = {
    "full": dict(procs=4, clients=64, streams=6, delay=0.2, duration=2.5,
                 warmup=1.0, workers=64, queue_depth=512, min_scaling=3.0),
    "smoke": dict(procs=2, clients=16, streams=4, delay=0.1, duration=1.0,
                  warmup=0.5, workers=24, queue_depth=128),
}


def _measure(transport: str, make_network, cfg: dict):
    with serve_child(
        "--transport", transport, "--workers", str(cfg["workers"]),
        "--queue-depth", str(cfg["queue_depth"]),
    ) as (address, _):
        return drive(address, cfg, make_network)


class TestThroughput:
    def test_aio_pipelining_beats_thread_per_connection(self, results_dir):
        cfg = SCALES[SCALE]
        baseline = _measure("tcp", TcpNetwork, cfg)
        pipelined = _measure("aio", AioNetwork, cfg)

        speedup = ratio(pipelined.throughput, baseline.throughput)
        payload = {
            "benchmark": "multi-client batch throughput (localhost)",
            "scale": SCALE,
            "config": {
                "clients": cfg["clients"],
                "streams_per_client": cfg["streams"],
                "service_delay_s": cfg["delay"],
                "window_s": cfg["duration"],
                "server_workers": cfg["workers"],
                "server_queue_depth": cfg["queue_depth"],
            },
            "thread_per_connection": baseline.as_dict(),
            "aio_pipelined": pipelined.as_dict(),
            "speedup": round(speedup, 2),
        }
        record_results("BENCH_throughput.json", payload)
        print()
        print(
            f"[{SCALE}] thread-per-connection {baseline.throughput:7.1f} "
            f"batches/s | aio pipelined {pipelined.throughput:7.1f} "
            f"batches/s | speedup {speedup:.2f}x"
        )

        assert baseline.batches > 0
        assert pipelined.batches > 0
        assert baseline.errors == () and pipelined.errors == ()
        # Neither run may have been propped up by shed-retry loops.
        assert baseline.shed_retries == 0
        assert pipelined.shed_retries == 0
        if SCALE == "full":
            assert speedup >= cfg["min_speedup"], (
                f"aio runtime sustained only {speedup:.2f}x the "
                f"thread-per-connection baseline (need {cfg['min_speedup']}x): "
                f"{payload}"
            )


def _measure_procs(procs: int, cfg: dict):
    """One aio load run against *procs* supervised reuseport workers.

    Returns ``(report, client_requests, merged_snapshot)`` where the
    request counts feed the metrics-accounting bar: everything the
    clients saw complete must reappear in the merged per-pid dumps.
    """
    from repro.aio import Supervisor
    from repro.obs.metrics import MetricsRegistry

    supervisor = Supervisor(
        procs=procs, workers=cfg["workers"], queue_depth=cfg["queue_depth"],
    ).start()
    registry = MetricsRegistry()
    try:
        report = drive(supervisor.address, cfg, registry=registry)
    finally:
        merged = supervisor.stop()
    client_requests = registry.snapshot().get("client.requests", 0)
    return report, client_requests, merged.snapshot()


class TestProcsScaling:
    @pytest.mark.skipif(not HAS_REUSEPORT,
                        reason="platform has no SO_REUSEPORT")
    def test_reuseport_shards_scale_aio_throughput(self, results_dir):
        cfg = PROC_SCALES[SCALE]

        single, single_client_reqs, single_merged = _measure_procs(1, cfg)
        multi, multi_client_reqs, multi_merged = _measure_procs(
            cfg["procs"], cfg
        )

        scaling = ratio(multi.throughput, single.throughput)
        single_accounted = accounted(single_merged, single_client_reqs)
        multi_accounted = accounted(multi_merged, multi_client_reqs)
        payload = {
            "benchmark": "reuseport process shards (aio, localhost)",
            "scale": SCALE,
            "config": {
                "procs": cfg["procs"],
                "clients": cfg["clients"],
                "streams_per_client": cfg["streams"],
                "service_delay_s": cfg["delay"],
                "window_s": cfg["duration"],
                "workers_per_proc": cfg["workers"],
                "queue_depth_per_proc": cfg["queue_depth"],
            },
            "single_proc": dict(single.as_dict(), procs=1),
            "multi_proc": dict(multi.as_dict(), procs=cfg["procs"]),
            "scaling": round(scaling, 2),
            "metrics_accounted": round(multi_accounted, 4),
        }
        record_results("BENCH_throughput.json", {"procs_scaling": payload})
        print()
        print(
            f"[{SCALE}] 1 proc {single.throughput:7.1f} batches/s | "
            f"{cfg['procs']} procs {multi.throughput:7.1f} batches/s | "
            f"scaling {scaling:.2f}x | merged-metrics accounting "
            f"{multi_accounted:.2%}"
        )

        for report in (single, multi):
            assert report.batches > 0
            assert report.errors == ()
        # The merged per-pid dumps must account for (at least) every
        # request the clients observed completing — on both lanes, so a
        # broken merge can't hide behind the single-proc baseline.
        assert single_accounted >= MIN_ACCOUNTING
        assert multi_accounted >= MIN_ACCOUNTING
        # Every shard reported in: one up-gauge per worker pid.
        up = [name for name in multi_merged
              if name.startswith("proc.") and name.endswith(".up")]
        assert len(up) == cfg["procs"]
        assert multi_merged.get("procs.up") == cfg["procs"]
        if SCALE == "full":
            assert scaling >= cfg["min_scaling"], (
                f"{cfg['procs']} reuseport workers sustained only "
                f"{scaling:.2f}x one process (need {cfg['min_scaling']}x): "
                f"{payload}"
            )
