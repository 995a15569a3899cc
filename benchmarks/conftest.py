"""Shared helpers for the benchmark suite.

Each ``test_figXX_*`` module does two things:

1. regenerates the corresponding paper figure on the virtual clock,
   asserts its qualitative shape, and writes the rendered table to
   ``benchmarks/results/<figure>.txt`` (the reproduction artifact that
   EXPERIMENTS.md records);
2. times one representative workload with pytest-benchmark, so the
   harness also reports real wall-clock throughput of the middleware
   stack itself.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


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


def record_results(filename: str, update: dict) -> None:
    """Read-modify-write ``results/<filename>``: each lane updates only
    its own keys, so lanes sharing one ``BENCH_*.json`` (which
    ``test_obs_overhead`` also reads back) never clobber each other."""
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
