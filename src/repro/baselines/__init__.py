"""Comparison baselines beyond plain RMI."""

from repro.baselines.naive import (
    NaiveBatch,
    list_directory_naive,
    naive_wrap,
    run_noop_naive,
    traverse_naive,
)

__all__ = [
    "list_directory_naive",
    "NaiveBatch",
    "naive_wrap",
    "run_noop_naive",
    "traverse_naive",
]
