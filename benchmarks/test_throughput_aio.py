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
written to ``benchmarks/results/BENCH_throughput.json`` so CI can track
the trajectory.

``BENCH_THROUGHPUT_SCALE=smoke`` shrinks the run for CI smoke jobs
(fewer clients, shorter window, no ratio assertion — CI machines vary).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest
from conftest import record_results

from repro.aio import AioNetwork, run_load
from repro.net import TcpNetwork
from repro.net.tcp import HAS_REUSEPORT


# Wall-clock load generation against a separate server process: real
# time, real scheduling jitter.  Marked slow so `-m "not slow"` gives a
# fully deterministic tier-1 run on noisy machines.
pytestmark = pytest.mark.slow

#: Seconds allowed for the server subprocess to exit after stdin closes.
#: Generous on purpose: a loaded CI runner draining hundreds of worker
#: threads legitimately takes a while, and a flaky kill here used to
#: shadow real results.
SHUTDOWN_TIMEOUT = 120.0

SCALES = {
    # 32 clients x 6 streams: the acceptance-criteria scenario.
    "full": dict(clients=32, streams=6, delay=0.2, duration=2.0,
                 warmup=0.7, workers=224, queue_depth=512, min_speedup=3.0),
    # CI smoke: same shape, small enough for any runner; records, no bar.
    "smoke": dict(clients=8, streams=4, delay=0.1, duration=1.0,
                  warmup=0.5, workers=48, queue_depth=128, min_speedup=None),
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
                  warmup=0.5, workers=24, queue_depth=128, min_scaling=None),
}

#: Fraction of client-observed requests the merged per-pid server dumps
#: must account for (the metrics-accounting acceptance bar).
MIN_ACCOUNTING = 0.99


def _scale() -> str:
    name = os.environ.get("BENCH_THROUGHPUT_SCALE", "full")
    if name not in SCALES:
        raise ValueError(f"unknown BENCH_THROUGHPUT_SCALE {name!r}")
    return name


def _serve(transport: str, workers: int, queue_depth: int):
    """Start a load-target server process; returns (proc, address)."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.aio", "serve",
         "--transport", transport,
         "--workers", str(workers), "--queue-depth", str(queue_depth)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("ADDRESS "):
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    return proc, line.split(" ", 1)[1]


def _measure(transport: str, make_network, cfg: dict):
    proc, address = _serve(transport, cfg["workers"], cfg["queue_depth"])
    network = make_network()
    try:
        report = run_load(
            network, address,
            clients=cfg["clients"], streams=cfg["streams"],
            duration=cfg["duration"], delay=cfg["delay"],
            warmup=cfg["warmup"],
        )
    finally:
        network.close()
        proc.stdin.close()
        try:
            proc.wait(timeout=SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    return report


class TestThroughput:
    def test_aio_pipelining_beats_thread_per_connection(self, results_dir):
        scale = _scale()
        cfg = SCALES[scale]
        baseline = _measure("tcp", TcpNetwork, cfg)
        pipelined = _measure("aio", AioNetwork, cfg)

        speedup = (
            pipelined.throughput / baseline.throughput
            if baseline.throughput else float("inf")
        )
        payload = {
            "benchmark": "multi-client batch throughput (localhost)",
            "scale": scale,
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
            f"[{scale}] thread-per-connection {baseline.throughput:7.1f} "
            f"batches/s | aio pipelined {pipelined.throughput:7.1f} "
            f"batches/s | speedup {speedup:.2f}x"
        )

        assert baseline.batches > 0
        assert pipelined.batches > 0
        assert baseline.errors == () and pipelined.errors == ()
        # Neither run may have been propped up by shed-retry loops.
        assert baseline.shed_retries == 0
        assert pipelined.shed_retries == 0
        if cfg["min_speedup"] is not None:
            assert speedup >= cfg["min_speedup"], (
                f"aio runtime sustained only {speedup:.2f}x the "
                f"thread-per-connection baseline (need {cfg['min_speedup']}x): "
                f"{payload}"
            )


def _procs_scale() -> str:
    name = os.environ.get("BENCH_THROUGHPUT_SCALE", "full")
    if name not in PROC_SCALES:
        raise ValueError(f"unknown BENCH_THROUGHPUT_SCALE {name!r}")
    return name


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
    network = AioNetwork()
    try:
        report = run_load(
            network, supervisor.address,
            clients=cfg["clients"], streams=cfg["streams"],
            duration=cfg["duration"], delay=cfg["delay"],
            warmup=cfg["warmup"], registry=registry,
        )
    finally:
        network.close()
        merged = supervisor.stop()
    client_requests = registry.snapshot().get("client.requests", 0)
    return report, client_requests, merged.snapshot()


class TestProcsScaling:
    @pytest.mark.skipif(not HAS_REUSEPORT,
                        reason="platform has no SO_REUSEPORT")
    def test_reuseport_shards_scale_aio_throughput(self, results_dir):
        scale = _procs_scale()
        cfg = PROC_SCALES[scale]

        single, single_client_reqs, single_merged = _measure_procs(1, cfg)
        multi, multi_client_reqs, multi_merged = _measure_procs(
            cfg["procs"], cfg
        )

        scaling = (
            multi.throughput / single.throughput
            if single.throughput else float("inf")
        )
        single_accounted = (
            single_merged.get("server.requests", 0) / single_client_reqs
            if single_client_reqs else 0.0
        )
        multi_accounted = (
            multi_merged.get("server.requests", 0) / multi_client_reqs
            if multi_client_reqs else 0.0
        )
        payload = {
            "benchmark": "reuseport process shards (aio, localhost)",
            "scale": scale,
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
            f"[{scale}] 1 proc {single.throughput:7.1f} batches/s | "
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
        if cfg["min_scaling"] is not None:
            assert scaling >= cfg["min_scaling"], (
                f"{cfg['procs']} reuseport workers sustained only "
                f"{scaling:.2f}x one process (need {cfg['min_scaling']}x): "
                f"{payload}"
            )
