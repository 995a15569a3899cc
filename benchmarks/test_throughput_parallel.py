"""DAG-scheduler benchmark: parallel batch execution vs serial replay.

The batch executor analyzes each CONTINUE-policy batch into independent
chains and runs them concurrently on the server worker pool.  This lane
measures exactly that axis and nothing else: the identical client stack
flushes a fan-out batch of ``work(delay)`` calls — *fan* independent
one-op chains, every one delay-bound — against two server processes that
differ only in ``--exec-workers``:

- **serial** (``--exec-workers 0``): the scheduler is disabled, the
  batch replays in seq order, one flush costs ~``fan * delay``;
- **parallel** (default): the chains run concurrently, one flush costs
  ~``delay`` plus scheduling overhead.

At full scale the parallel server must sustain at least 2x the serial
one (acceptance bar; the theoretical ceiling is ``fan``x).  A second
lane times a scheduler-*ineligible* workload (the same fan-out under the
default abort policy, which the analyzer rejects) on both servers, kept
up side by side and timed flush by flush in alternating order: the
parallel-enabled server's flush must stay within 5% of the serial
one's taken right beside it (median of the paired ratios), i.e. the DAG
analysis a fallback batch pays is noise.

Results land under the ``exec_parallel`` key of
``benchmarks/results/BENCH_throughput.json`` (a run artifact).  The
default ``BENCH_SCALE=smoke`` shrinks the run and replaces both bars by
what is deterministic: each server's own ``server.scheduler.*`` books
say the fan-out batches ran parallel on one (``parallel_batches``, and
``helpers`` — pool tasks that took a chain) and serial on the other.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import pytest
from conftest import SCALE, ratio, record_results, serve_child

from repro.aio import AioNetwork
from repro.core import ContinuePolicy, create_batch
from repro.rmi import RMIClient


# Wall-clock timing against separate server processes; marked slow so
# `-m "not slow"` keeps tier-1 deterministic.
pytestmark = pytest.mark.slow

SCALES = {
    # fan=8 delay-bound chains per batch, 30 flushes: serial pays
    # ~fan*delay per flush (~12s total), parallel ~delay (+overhead).
    "full": dict(fan=8, delay=0.05, flushes=30, workers=64,
                 min_speedup=2.0, max_fallback_overhead=0.05),
    # Smoke: same shape, short window, no bar.
    "smoke": dict(fan=4, delay=0.02, flushes=10, workers=32),
}

#: Rounds of the ineligible lane; each times ``flushes`` back-to-back
#: pairs of flushes, one per server, and the rounds alternate which
#: server goes first.
FALLBACK_REPEATS = 5
FALLBACK_OPS = 32


def _fanout_flush(stub, fan: int, delay: float, policy=None) -> None:
    """One fan-out batch: *fan* independent ``work(delay)`` chains."""
    batch = (create_batch(stub, policy=policy) if policy is not None
             else create_batch(stub))
    futures = [batch.work(delay) for _ in range(fan)]
    batch.flush()
    for future in futures:
        future.get()


@contextlib.contextmanager
def _load_stub(cfg, books, *serve_flags):
    """A server child and a connected client; yields the load stub.
    The child leaves its metrics registry in *books* when it exits."""
    with serve_child("--transport", "aio", "--workers", str(cfg["workers"]),
                     "--metrics-json", str(books),
                     *serve_flags) as (address, _):
        network = AioNetwork()
        client = RMIClient(network, address)
        try:
            yield client.lookup("load")
        finally:
            client.close()
            network.close()


def _gauges(books) -> dict:
    """The metrics a stopped child left in *books*."""
    return json.loads(books.read_text())["gauges"]


class TestParallelExecutor:
    def test_parallel_chains_beat_serial_replay(self, results_dir, tmp_path):
        cfg = SCALES[SCALE]
        serial_books = tmp_path / "serial.json"
        parallel_books = tmp_path / "parallel.json"

        def measure(stub):
            _fanout_flush(stub, cfg["fan"], cfg["delay"],
                          policy=ContinuePolicy())  # warm the path
            start = time.monotonic()
            for _ in range(cfg["flushes"]):
                _fanout_flush(stub, cfg["fan"], cfg["delay"],
                              policy=ContinuePolicy())
            return time.monotonic() - start

        with _load_stub(cfg, serial_books, "--exec-workers", "0") as stub:
            serial_s = measure(stub)
        with _load_stub(cfg, parallel_books) as stub:
            parallel_s = measure(stub)
        speedup = ratio(serial_s, parallel_s)

        payload = {
            "exec_parallel": {
                "benchmark": "DAG-scheduler fan-out batches (aio, localhost)",
                "scale": SCALE,
                "config": {
                    "fan": cfg["fan"],
                    "service_delay_s": cfg["delay"],
                    "flushes": cfg["flushes"],
                    "server_workers": cfg["workers"],
                },
                "serial_s": round(serial_s, 4),
                "parallel_s": round(parallel_s, 4),
                "speedup": round(speedup, 2),
            }
        }
        record_results("BENCH_throughput.json", payload)
        print()
        print(
            f"[{SCALE}] serial replay {serial_s:6.2f}s | parallel chains "
            f"{parallel_s:6.2f}s | speedup {speedup:.2f}x "
            f"(fan={cfg['fan']}, ceiling {cfg['fan']:.1f}x)"
        )
        # Every flush (and the warm-up) fanned out on the width-N
        # server and on none of the width-1 one: scheduled on the DAG
        # path, and — the ops block — run by pool helpers beside the
        # caller, at least one per flush.
        wide, narrow = _gauges(parallel_books), _gauges(serial_books)
        assert wide["server.scheduler.parallel_batches"] == cfg["flushes"] + 1
        assert wide["server.scheduler.helpers"] >= cfg["flushes"]
        assert narrow["server.scheduler.parallel_batches"] == 0
        assert narrow["server.scheduler.helpers"] == 0
        if SCALE == "full":
            assert speedup >= cfg["min_speedup"], (
                f"DAG scheduler sustained only {speedup:.2f}x over serial "
                f"replay (need {cfg['min_speedup']}x): {payload}"
            )

    def test_ineligible_batches_pay_no_scheduler_tax(self, results_dir,
                                                     tmp_path):
        cfg = SCALES[SCALE]
        serial_books = tmp_path / "serial.json"
        parallel_books = tmp_path / "parallel.json"

        def timed(stub):
            start = time.monotonic()
            _fanout_flush(stub, FALLBACK_OPS, 0.0)
            return time.monotonic() - start

        # Default abort policy: the analyzer rejects the batch (reason
        # "policy") and both servers replay serially; the only
        # difference left is the analysis itself.
        #
        # The host's speed drifts by tens of percent within a second (a
        # busy sibling vCPU), far more than the 5% bar, and it drifts
        # for both servers alike — so the two stay up together and every
        # flush on one is paired with the flush on the other taken right
        # beside it; the median of the pairs' ratios is the overhead.
        # Timing one server to completion and then the other, or taking
        # each server's best round, compares two different moments of
        # the host: two *identical* servers then came out up to 14%
        # apart within 8 trials (best rounds, interleaved: 10% within
        # 20), against at most 2.3% over 35 trials with pairs.
        with _load_stub(cfg, serial_books, "--exec-workers", "0") as serial, \
                _load_stub(cfg, parallel_books) as parallel:
            serial_samples, parallel_samples = [], []
            lanes = [(serial, serial_samples), (parallel, parallel_samples)]
            for stub, _ in lanes:
                _fanout_flush(stub, FALLBACK_OPS, 0.0)  # warm the path
            for round_index in range(FALLBACK_REPEATS):
                order = lanes if round_index % 2 == 0 else lanes[::-1]
                for _ in range(cfg["flushes"]):
                    for stub, samples in order:
                        samples.append(timed(stub))
        overhead = statistics.median(
            on / off for off, on in zip(serial_samples, parallel_samples)
        ) - 1.0
        # Reported as mean seconds per round of ``flushes`` flushes.
        serial_s = sum(serial_samples) / FALLBACK_REPEATS
        parallel_s = sum(parallel_samples) / FALLBACK_REPEATS

        payload = {
            "exec_parallel_fallback": {
                "benchmark": "scheduler-ineligible batches (abort policy)",
                "scale": SCALE,
                "config": {
                    "ops": FALLBACK_OPS,
                    "flushes": cfg["flushes"],
                    "repeats": FALLBACK_REPEATS,
                },
                "serial_s": round(serial_s, 4),
                "parallel_enabled_s": round(parallel_s, 4),
                "overhead": round(overhead, 4),
            }
        }
        record_results("BENCH_throughput.json", payload)
        print()
        print(
            f"[{SCALE}] ineligible batches: scheduler off {serial_s:6.3f}s "
            f"| scheduler on {parallel_s:6.3f}s | overhead "
            f"{overhead * 100:+.1f}%"
        )
        # The lane's premise: no batch fanned out on either server.
        flushes = 1 + FALLBACK_REPEATS * cfg["flushes"]
        for books in (serial_books, parallel_books):
            gauges = _gauges(books)
            assert gauges["server.scheduler.parallel_batches"] == 0
            assert gauges["server.scheduler.serial_batches"] == flushes
        if SCALE == "full":
            assert overhead <= cfg["max_fallback_overhead"], (
                f"serial-fallback batches got {overhead * 100:.1f}% slower "
                f"with the scheduler enabled (allowed "
                f"{cfg['max_fallback_overhead'] * 100:.0f}%): {payload}"
            )
