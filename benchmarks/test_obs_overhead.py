"""Observability overhead: near-free when off, bounded when live.

Two lanes over the aio throughput scenario (separate server process,
same shape as ``test_throughput_aio``), each writing its own keys into
``BENCH_obs.json`` read-modify-write (the ``procs_scaling`` pattern):

**Tracing lane** — varying only the tracing switch:

- **off**     — no tracer installed anywhere: the instrumented hot paths
  open their spans on the null tracer (one no-op method call per site);
- **sampled** — tracer installed in both processes at a 10% head rate:
  the production configuration;
- **full**    — sample rate 1.0: every span of every batch records.

The acceptance bar rides the *off* run: with tracing disabled the
harness must stay within 5% of the recorded
``BENCH_throughput.json`` aio result (full scale only — the stored
result and this run use identical config, and the sleep-dominated
workload makes throughput scheduling-bound, so the comparison is
stable).  The traced runs get lenient sanity bars, not SLOs: they exist
to *measure* the overhead, which EXPERIMENTS.md records.

**Admin-polled lane** — the live introspection plane's cost: the same
server with ``--admin-port`` (which also means a rate-0 tracer feeding
the flight recorder, a live registry, and a side-port listener) while a
client polls one full ``snapshot`` per second for the whole run.  The
acceptance bar: the polled server stays within 5% of the untraced lane
measured in the same session (full scale only).

``BENCH_OBS_SCALE=smoke`` shrinks everything for CI (no bars, still
records).  Results land in ``benchmarks/results/BENCH_obs.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest
from conftest import record_results

from repro.aio import AioNetwork, run_load
from repro.obs import Tracer, install_tracer, uninstall_tracer

THROUGHPUT_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_throughput.json"
)

pytestmark = pytest.mark.slow

SHUTDOWN_TIMEOUT = 120.0

SCALES = {
    # Identical to the full throughput-benchmark config, so the "off"
    # run is directly comparable to the stored aio_pipelined result.
    "full": dict(clients=32, streams=6, delay=0.2, duration=2.0,
                 warmup=0.7, workers=224, queue_depth=512,
                 max_off_regression=0.05),
    "smoke": dict(clients=8, streams=4, delay=0.1, duration=1.0,
                  warmup=0.5, workers=48, queue_depth=128,
                  max_off_regression=None),
}


def _scale() -> str:
    name = os.environ.get("BENCH_OBS_SCALE", "full")
    if name not in SCALES:
        raise ValueError(f"unknown BENCH_OBS_SCALE {name!r}")
    return name


def _serve(cfg: dict, trace_sample: float = None, admin: bool = False):
    """Start an aio load-target server process.

    Returns ``(proc, address, admin_address)`` — the admin address is
    ``None`` unless *admin* asked for the endpoint.
    """
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "repro.aio", "serve", "--transport", "aio",
            "--workers", str(cfg["workers"]),
            "--queue-depth", str(cfg["queue_depth"])]
    if trace_sample is not None:
        argv += ["--trace", os.devnull, "--trace-sample", str(trace_sample)]
    if admin:
        argv += ["--admin-port", "auto"]
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("ADDRESS "):
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    address = line.split(" ", 1)[1]
    admin_address = None
    if admin:
        line = proc.stdout.readline().strip()
        if not line.startswith("ADMIN "):
            proc.kill()
            raise RuntimeError(f"server printed no admin address: {line!r}")
        admin_address = line.split(" ", 1)[1]
    return proc, address, admin_address


class _SnapshotPoller(threading.Thread):
    """Polls one full admin snapshot per *interval* over a persistent
    connection — the ops workload the admin-polled lane prices in."""

    def __init__(self, admin_address: str, interval: float = 1.0):
        super().__init__(name="admin-poller", daemon=True)
        self._address = admin_address
        self._interval = interval
        # Not named _stop: threading.Thread owns an internal _stop().
        self._halt = threading.Event()
        self.polls = 0
        self.errors = 0

    def run(self):
        from repro.obs.live import AdminClient, AdminError

        try:
            client = AdminClient(self._address)
        except AdminError:
            self.errors += 1
            return
        try:
            while not self._halt.is_set():
                try:
                    client.request("snapshot")
                    self.polls += 1
                except AdminError:
                    self.errors += 1
                    return
                self._halt.wait(self._interval)
        finally:
            client.close()

    def stop(self):
        self._halt.set()
        self.join(timeout=10.0)


def _measure(cfg: dict, trace_sample: float = None, admin: bool = False,
             poll_interval: float = 1.0):
    """One load run; *trace_sample* None means tracing fully off.

    With *admin*, the server exposes its live admin endpoint and a
    poller thread pulls one full snapshot per *poll_interval* for the
    whole window.  Returns ``(report, client_spans, polls)``.
    """
    proc, address, admin_address = _serve(cfg, trace_sample, admin=admin)
    tracer = None
    if trace_sample is not None:
        tracer = install_tracer(Tracer(sample_rate=trace_sample))
    poller = None
    if admin:
        poller = _SnapshotPoller(admin_address, interval=poll_interval)
        poller.start()
    network = AioNetwork()
    try:
        report = run_load(
            network, address,
            clients=cfg["clients"], streams=cfg["streams"],
            duration=cfg["duration"], delay=cfg["delay"],
            warmup=cfg["warmup"],
        )
    finally:
        if poller is not None:
            poller.stop()
        if tracer is not None:
            uninstall_tracer()
        network.close()
        proc.stdin.close()
        try:
            proc.wait(timeout=SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    spans = len(tracer) if tracer is not None else 0
    polls = poller.polls if poller is not None else 0
    if poller is not None:
        assert poller.errors == 0, "admin poller lost its endpoint mid-run"
        assert polls > 0, "admin poller never completed a snapshot"
    return report, spans, polls


class TestObsOverhead:
    def test_tracing_overhead_is_bounded(self, results_dir):
        scale = _scale()
        cfg = SCALES[scale]

        # Best-of-two for the gated lane: a single short window carries
        # scheduling noise on the same order as the bar it enforces.
        off = max(
            (_measure(cfg, trace_sample=None)[0] for _ in range(2)),
            key=lambda r: r.throughput,
        )
        sampled, sampled_spans, _ = _measure(cfg, trace_sample=0.1)
        full, full_spans, _ = _measure(cfg, trace_sample=1.0)

        def overhead(report):
            if off.throughput <= 0:
                return 0.0
            return 1.0 - report.throughput / off.throughput

        payload = {
            "benchmark": "tracing overhead (aio throughput scenario)",
            "scale": scale,
            "config": {
                "clients": cfg["clients"],
                "streams_per_client": cfg["streams"],
                "service_delay_s": cfg["delay"],
                "window_s": cfg["duration"],
            },
            "off": off.as_dict(),
            "sampled_10pct": dict(sampled.as_dict(),
                                  client_spans=sampled_spans),
            "full": dict(full.as_dict(), client_spans=full_spans),
            "overhead_sampled": round(overhead(sampled), 4),
            "overhead_full": round(overhead(full), 4),
        }
        record_results("BENCH_obs.json", payload)
        print()
        print(
            f"[{scale}] off {off.throughput:7.1f} b/s | "
            f"10% sampled {sampled.throughput:7.1f} b/s "
            f"({overhead(sampled):+.1%}) | "
            f"full {full.throughput:7.1f} b/s ({overhead(full):+.1%})"
        )

        for report in (off, sampled, full):
            assert report.batches > 0
            assert report.errors == ()
        assert full_spans > 0  # full tracing actually recorded client spans

        bar = cfg["max_off_regression"]
        if bar is not None and THROUGHPUT_PATH.exists():
            stored = json.loads(THROUGHPUT_PATH.read_text())
            if stored.get("scale") == scale:
                baseline = stored["aio_pipelined"]["throughput"]
                assert off.throughput >= (1.0 - bar) * baseline, (
                    f"tracing-disabled run regressed past {bar:.0%} of the "
                    f"recorded aio throughput ({off.throughput:.1f} vs "
                    f"{baseline:.1f} batches/s)"
                )
        if bar is not None:
            # Lenient sanity bars on the traced lanes: measuring, not
            # gating — but an order-of-magnitude collapse is a bug.
            assert sampled.throughput >= 0.5 * off.throughput
            assert full.throughput >= 0.5 * off.throughput

    def test_admin_polled_overhead_is_bounded(self, results_dir):
        """The live introspection plane priced under load: admin
        endpoint up, flight recorder fed at rate 0, one full snapshot
        polled per second — versus the same server with nothing on."""
        scale = _scale()
        cfg = SCALES[scale]
        poll_interval = 1.0

        # Best-of-two on both sides of the gated comparison: the bar is
        # the same order as single-window scheduling noise.
        off = max(
            (_measure(cfg, trace_sample=None)[0] for _ in range(2)),
            key=lambda r: r.throughput,
        )
        admin, _, polls = max(
            (_measure(cfg, trace_sample=None, admin=True,
                      poll_interval=poll_interval) for _ in range(2)),
            key=lambda result: result[0].throughput,
        )

        overhead = 0.0
        if off.throughput > 0:
            overhead = 1.0 - admin.throughput / off.throughput
        record_results("BENCH_obs.json", {
            "admin_polled_1hz": {
                "off": off.as_dict(),
                "admin": dict(admin.as_dict(), snapshot_polls=polls),
                "poll_interval_s": poll_interval,
                "overhead": round(overhead, 4),
                "scale": scale,
            },
        })
        print()
        print(
            f"[{scale}] off {off.throughput:7.1f} b/s | "
            f"admin+1Hz poll {admin.throughput:7.1f} b/s "
            f"({overhead:+.1%}, {polls} snapshots)"
        )

        for report in (off, admin):
            assert report.batches > 0
            assert report.errors == ()

        bar = cfg["max_off_regression"]
        if bar is not None:
            assert admin.throughput >= (1.0 - bar) * off.throughput, (
                f"admin endpoint + {poll_interval:.0f} Hz polling cost more "
                f"than {bar:.0%} ({admin.throughput:.1f} vs "
                f"{off.throughput:.1f} batches/s)"
            )
