"""Benchmark harness and per-figure experiment generators."""

from repro.bench.experiments import (
    run_ablation_identity,
    run_ablation_latency,
    run_baseline_comparison,
    run_all_figures,
    run_applicability,
    run_figure,
    run_model_comparison,
)
from repro.bench.reporting import (
    render_applicability,
    render_chart,
    render_experiment,
    render_table,
    summarize_speedups,
)

__all__ = [
    "render_applicability",
    "render_chart",
    "render_experiment",
    "render_table",
    "run_ablation_identity",
    "run_ablation_latency",
    "run_all_figures",
    "run_baseline_comparison",
    "run_applicability",
    "run_figure",
    "run_model_comparison",
    "summarize_speedups",
]
