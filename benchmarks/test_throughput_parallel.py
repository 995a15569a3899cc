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
``benchmarks/results/BENCH_throughput.json``.  ``BENCH_THROUGHPUT_SCALE=
smoke`` shrinks the run for CI and relaxes the bars (CI machines vary).
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import statistics
import subprocess
import sys
import time

import pytest
from conftest import record_results

from repro.aio import AioNetwork
from repro.core import ContinuePolicy, create_batch
from repro.rmi import RMIClient


# Wall-clock timing against separate server processes; marked slow so
# `-m "not slow"` keeps tier-1 deterministic.
pytestmark = pytest.mark.slow

SHUTDOWN_TIMEOUT = 120.0

SCALES = {
    # fan=8 delay-bound chains per batch, 30 flushes: serial pays
    # ~fan*delay per flush (~12s total), parallel ~delay (+overhead).
    "full": dict(fan=8, delay=0.05, flushes=30, workers=64,
                 min_speedup=2.0, max_fallback_overhead=0.05),
    # CI smoke: same shape, short window, weak bar.
    "smoke": dict(fan=4, delay=0.02, flushes=10, workers=32,
                  min_speedup=1.2, max_fallback_overhead=None),
}

#: Rounds of the ineligible lane; each times ``flushes`` back-to-back
#: pairs of flushes, one per server, and the rounds alternate which
#: server goes first.
FALLBACK_REPEATS = 5
FALLBACK_OPS = 32


def _scale() -> str:
    name = os.environ.get("BENCH_THROUGHPUT_SCALE", "full")
    if name not in SCALES:
        raise ValueError(f"unknown BENCH_THROUGHPUT_SCALE {name!r}")
    return name


def _serve(workers: int, exec_workers=None):
    """Start a load-target server process; returns (proc, address)."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro.aio", "serve",
           "--transport", "aio", "--workers", str(workers)]
    if exec_workers is not None:
        cmd.extend(["--exec-workers", str(exec_workers)])
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("ADDRESS "):
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    return proc, line.split(" ", 1)[1]


def _fanout_flush(stub, fan: int, delay: float, policy=None) -> None:
    """One fan-out batch: *fan* independent ``work(delay)`` chains."""
    batch = (create_batch(stub, policy=policy) if policy is not None
             else create_batch(stub))
    futures = [batch.work(delay) for _ in range(fan)]
    batch.flush()
    for future in futures:
        future.get()


@contextlib.contextmanager
def _served(exec_workers, cfg):
    """A server process and a connected client; yields the load stub."""
    proc, address = _serve(cfg["workers"], exec_workers=exec_workers)
    network = AioNetwork()
    client = RMIClient(network, address)
    try:
        yield client.lookup("load")
    finally:
        client.close()
        network.close()
        proc.stdin.close()
        try:
            proc.wait(timeout=SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


class TestParallelExecutor:
    def test_parallel_chains_beat_serial_replay(self, results_dir):
        scale = _scale()
        cfg = SCALES[scale]

        def measure(stub):
            _fanout_flush(stub, cfg["fan"], cfg["delay"],
                          policy=ContinuePolicy())  # warm the path
            start = time.monotonic()
            for _ in range(cfg["flushes"]):
                _fanout_flush(stub, cfg["fan"], cfg["delay"],
                              policy=ContinuePolicy())
            return time.monotonic() - start

        with _served(0, cfg) as stub:
            serial_s = measure(stub)
        with _served(None, cfg) as stub:
            parallel_s = measure(stub)
        speedup = serial_s / parallel_s if parallel_s else float("inf")

        payload = {
            "exec_parallel": {
                "benchmark": "DAG-scheduler fan-out batches (aio, localhost)",
                "scale": scale,
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
            f"[{scale}] serial replay {serial_s:6.2f}s | parallel chains "
            f"{parallel_s:6.2f}s | speedup {speedup:.2f}x "
            f"(fan={cfg['fan']}, ceiling {cfg['fan']:.1f}x)"
        )
        assert speedup >= cfg["min_speedup"], (
            f"DAG scheduler sustained only {speedup:.2f}x over serial "
            f"replay (need {cfg['min_speedup']}x): {payload}"
        )

    def test_ineligible_batches_pay_no_scheduler_tax(self, results_dir):
        scale = _scale()
        cfg = SCALES[scale]

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
        with _served(0, cfg) as serial, _served(None, cfg) as parallel:
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
                "scale": scale,
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
            f"[{scale}] ineligible batches: scheduler off {serial_s:6.3f}s "
            f"| scheduler on {parallel_s:6.3f}s | overhead "
            f"{overhead * 100:+.1f}%"
        )
        if cfg["max_fallback_overhead"] is not None:
            assert overhead <= cfg["max_fallback_overhead"], (
                f"serial-fallback batches got {overhead * 100:.1f}% slower "
                f"with the scheduler enabled (allowed "
                f"{cfg['max_fallback_overhead'] * 100:.0f}%): {payload}"
            )
