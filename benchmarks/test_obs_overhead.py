"""Observability overhead: near-free when off, bounded when live.

Two lanes over the aio throughput scenario (separate server process,
same shape as ``test_throughput_aio``), each writing its own keys into
the ``BENCH_obs.json`` run artifact:

**Tracing lane** — varying only the tracing switch:

- **off**     — no tracer installed anywhere: the instrumented hot paths
  open their spans on the null tracer (one no-op method call per site);
- **sampled** — tracer installed in both processes at a 10% head rate:
  the production configuration;
- **full**    — sample rate 1.0: every span of every batch records.

"Off" is not a separate code path (the null tracer runs the same
instrumented code), so there is no off-vs-history bar: every bar here
compares runs of one session.  The traced runs get lenient sanity bars
(full scale only), not SLOs: they exist to *measure* the overhead,
which EXPERIMENTS.md records.  The authoritative tracing-cost number is
``benchmarks/e2e/run.py --trace 0|1`` (``obs.overhead_share``): delay-0,
interleaved slices, per-flush CPU rather than a delay-bound throughput
ratio.

**Admin-polled lane** — the live introspection plane's cost: the same
server with ``--admin-port`` (which also means a rate-0 tracer feeding
the flight recorder, a live registry, and a side-port listener) while a
client polls one full ``snapshot`` per second for the whole run.  The
acceptance bar: the polled server stays within 5% of the untraced lane
measured in the same session (full scale only).

The default ``BENCH_SCALE=smoke`` shrinks everything (no bars, still
records): what it asserts is that no stream failed, spans were recorded
when tracing was on, and the poller never lost its endpoint.
"""

from __future__ import annotations

import os
import threading

import pytest
from conftest import SCALE, drive, record_results, serve_child

from repro.obs import Tracer, install_tracer, uninstall_tracer

pytestmark = pytest.mark.slow

SCALES = {
    # The full throughput-benchmark config (``test_throughput_aio``).
    "full": dict(clients=32, streams=6, delay=0.2, duration=2.0,
                 warmup=0.7, workers=224, queue_depth=512,
                 max_off_regression=0.05),
    "smoke": dict(clients=8, streams=4, delay=0.1, duration=1.0,
                  warmup=0.5, workers=48, queue_depth=128),
}


class _SnapshotPoller(threading.Thread):
    """Polls one full admin snapshot per *interval* over a persistent
    connection — the ops workload the admin-polled lane prices in."""

    def __init__(self, admin_address: str, interval: float):
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


#: Seconds between the admin-polled lane's snapshot polls.
POLL_INTERVAL = 1.0


def _measure(cfg: dict, trace_sample: float = None, admin: bool = False):
    """One load run; *trace_sample* None means tracing fully off.

    With *admin*, the server exposes its live admin endpoint and a
    poller thread pulls one full snapshot per :data:`POLL_INTERVAL` for
    the whole window.  Returns ``(report, client_spans, polls)``.
    """
    flags = ["--transport", "aio", "--workers", str(cfg["workers"]),
             "--queue-depth", str(cfg["queue_depth"])]
    if trace_sample is not None:
        flags += ["--trace", os.devnull, "--trace-sample", str(trace_sample)]
    if admin:
        flags += ["--admin-port", "auto"]
    tracer = poller = None
    with serve_child(*flags) as (address, admin_address):
        if trace_sample is not None:
            tracer = install_tracer(Tracer(sample_rate=trace_sample))
        if admin:
            poller = _SnapshotPoller(admin_address, POLL_INTERVAL)
            poller.start()
        try:
            report = drive(address, cfg)
        finally:
            if poller is not None:
                poller.stop()
            if tracer is not None:
                uninstall_tracer()
    spans = len(tracer) if tracer is not None else 0
    polls = poller.polls if poller is not None else 0
    if poller is not None:
        assert poller.errors == 0, "admin poller lost its endpoint mid-run"
        assert polls > 0, "admin poller never completed a snapshot"
    return report, spans, polls


def _best_of_two(cfg: dict, **switches):
    """The better of two :func:`_measure` runs: a single short window
    carries scheduling noise on the order of the bars below."""
    return max((_measure(cfg, **switches) for _ in range(2)),
               key=lambda result: result[0].throughput)


class TestObsOverhead:
    def test_tracing_overhead_is_bounded(self, results_dir):
        cfg = SCALES[SCALE]

        off, _, _ = _best_of_two(cfg)  # every overhead's denominator
        sampled, sampled_spans, _ = _measure(cfg, trace_sample=0.1)
        full, full_spans, _ = _measure(cfg, trace_sample=1.0)

        def overhead(report):
            if off.throughput <= 0:
                return 0.0
            return 1.0 - report.throughput / off.throughput

        payload = {
            "benchmark": "tracing overhead (aio throughput scenario)",
            "scale": SCALE,
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
            f"[{SCALE}] off {off.throughput:7.1f} b/s | "
            f"10% sampled {sampled.throughput:7.1f} b/s "
            f"({overhead(sampled):+.1%}) | "
            f"full {full.throughput:7.1f} b/s ({overhead(full):+.1%})"
        )

        for report in (off, sampled, full):
            assert report.batches > 0
            assert report.errors == ()
        assert full_spans > 0  # full tracing actually recorded client spans

        if SCALE == "full":
            # Lenient sanity bars on the traced lanes: measuring, not
            # gating — but an order-of-magnitude collapse is a bug.
            assert sampled.throughput >= 0.5 * off.throughput
            assert full.throughput >= 0.5 * off.throughput

    def test_admin_polled_overhead_is_bounded(self, results_dir):
        """The live introspection plane priced under load: admin
        endpoint up, flight recorder fed at rate 0, one full snapshot
        polled per second — versus the same server with nothing on."""
        cfg = SCALES[SCALE]
        # Best-of-two on both sides of the gated comparison.
        off, _, _ = _best_of_two(cfg)
        admin, _, polls = _best_of_two(cfg, admin=True)

        overhead = 0.0
        if off.throughput > 0:
            overhead = 1.0 - admin.throughput / off.throughput
        record_results("BENCH_obs.json", {
            "admin_polled_1hz": {
                "off": off.as_dict(),
                "admin": dict(admin.as_dict(), snapshot_polls=polls),
                "poll_interval_s": POLL_INTERVAL,
                "overhead": round(overhead, 4),
                "scale": SCALE,
            },
        })
        print()
        print(
            f"[{SCALE}] off {off.throughput:7.1f} b/s | "
            f"admin+1Hz poll {admin.throughput:7.1f} b/s "
            f"({overhead:+.1%}, {polls} snapshots)"
        )

        for report in (off, admin):
            assert report.batches > 0
            assert report.errors == ()

        if SCALE == "full":
            bar = cfg["max_off_regression"]
            assert admin.throughput >= (1.0 - bar) * off.throughput, (
                f"admin endpoint + {1 / POLL_INTERVAL:.0f} Hz polling cost "
                f"more than {bar:.0%} ({admin.throughput:.1f} vs "
                f"{off.throughput:.1f} batches/s)"
            )
