"""Shared helpers for the benchmark suite.

Each ``test_figXX_*`` module does two things:

1. regenerates the corresponding paper figure on the virtual clock,
   asserts its qualitative shape, and writes the rendered table to
   ``benchmarks/results/<figure>.txt`` (the reproduction artifact that
   EXPERIMENTS.md records);
2. times one representative workload with pytest-benchmark, so the
   harness also reports real wall-clock throughput of the middleware
   stack itself.

The wall-clock lanes (``test_throughput_*``, ``test_obs_overhead``,
``test_codec_micro``) share the harness below: one scale knob
(:data:`SCALE`), one server child (:func:`serve_child`), one results
writer (:func:`record_results`).  A lane asserts what is deterministic
at every scale and its wall-clock ratio bars at ``SCALE == "full"``
only, so the tier-1 command (smoke scale) is red only for a bug.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.aio import AioNetwork, run_load

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SCALE_NAMES = ("smoke", "full")

#: ``BENCH_SCALE``: ``smoke`` (the default; small runs, correctness
#: assertions only) or ``full`` (the EXPERIMENTS.md configurations with
#: their ratio bars; ``BENCH_SCALE=full python -m pytest benchmarks -m
#: slow -s`` on a quiet machine).
SCALE = os.environ.get("BENCH_SCALE", "smoke")
if SCALE not in SCALE_NAMES:
    raise pytest.UsageError(
        f"unknown BENCH_SCALE {SCALE!r}: "
        f"choose one of {', '.join(SCALE_NAMES)}"
    )

#: The load-target server every lane's child runs.
SERVE = (sys.executable, "-m", "repro.aio", "serve")

#: Seconds allowed for a server child to exit after stdin closes.
#: Generous on purpose: a loaded CI runner draining hundreds of worker
#: threads legitimately takes a while, and a flaky kill here used to
#: shadow real results.
SHUTDOWN_TIMEOUT = 120.0


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_experiment(results_dir):
    """Render an experiment, persist it, and hand it back for asserts."""
    from repro.bench.reporting import render_experiment

    def _record(experiment):
        text = render_experiment(experiment)
        (results_dir / f"{experiment.exp_id}.txt").write_text(text + "\n")
        print()
        print(text)
        return experiment

    return _record


@contextlib.contextmanager
def serve_child(*serve_flags):
    """One ``python -m repro.aio serve`` child for the ``with`` body.

    Yields ``(address, admin_address)`` read from the child's ``ADDRESS``
    line and — when *serve_flags* ask for ``--admin-port`` — its
    ``ADMIN`` line (``None`` otherwise).  Leaving the block closes the
    child's stdin (its stop signal), waits :data:`SHUTDOWN_TIMEOUT` for
    the drain and kills what outlives it; the child is always reaped.
    """
    proc = subprocess.Popen(
        [*SERVE, *serve_flags],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )

    def handshake(tag):
        line = proc.stdout.readline().strip()
        if not line.startswith(tag + " "):
            proc.kill()
            raise RuntimeError(
                f"server child said {line!r} instead of a {tag} line"
            )
        return line.split(" ", 1)[1]

    try:
        address = handshake("ADDRESS")
        admin = handshake("ADMIN") if "--admin-port" in serve_flags else None
        yield address, admin
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()


def drive(address: str, cfg: dict, make_network=AioNetwork, registry=None):
    """One :func:`repro.aio.run_load` window of a scale row's client
    shape against *address*, on a fresh network closed afterwards."""
    network = make_network()
    try:
        return run_load(
            network, address,
            clients=cfg["clients"], streams=cfg["streams"],
            duration=cfg["duration"], delay=cfg["delay"],
            warmup=cfg["warmup"], registry=registry,
        )
    finally:
        network.close()


def ratio(value: float, base: float) -> float:
    """*value* over *base*; a zero base (nothing measured) reads ``inf``
    so the lane's own ``> 0`` assertions report it."""
    return value / base if base else float("inf")


#: Fraction of client-observed requests the merged server dumps must
#: account for (the metrics-accounting acceptance bar, every scale).
MIN_ACCOUNTING = 0.99


def accounted(merged: dict, client_requests: int) -> float:
    """Share of the requests the clients saw complete that a merged
    server metrics snapshot accounts for."""
    if not client_requests:
        return 0.0
    return merged.get("server.requests", 0) / client_requests


def record_results(filename: str, update: dict) -> None:
    """Read-modify-write ``results/<filename>``: each lane updates only
    its own keys, so lanes sharing one ``BENCH_*.json`` never clobber
    each other.  The files are run artifacts (git-ignored; CI uploads
    them) — the numbers of record are EXPERIMENTS.md's tables."""
    path = RESULTS_DIR / filename
    data = {}
    if path.exists():
        data = json.loads(path.read_text())
    data.update(update)
    path.write_text(json.dumps(data, indent=2) + "\n")


def slope(series):
    """Average slope of a series across its sweep."""
    (x0, y0), (x1, y1) = series.points[0], series.points[-1]
    return (y1 - y0) / (x1 - x0)
