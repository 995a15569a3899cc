"""Differential conformance fuzzing for the batching middleware.

The paper's central claim — an explicit batch is semantically
equivalent to the same sequence of individual RMI calls — becomes an
executable property here: randomized, well-typed batch programs are run
through naive RMI (the oracle), one-shot batches, and plan-reusing
batches across simulated and real transports under every exception
policy, and every observable (results, exception types and positions,
cursor geometry, server post-state, round-trip counts) is compared.

Public surface:

- :func:`generate_program` / :func:`generate_corpus` — seeded programs
  (``roots=1`` for one server, more for a cluster's independent chains)
- :func:`run_corpus` + :class:`FuzzConfig` — the differential matrix;
  ``shards`` picks the :class:`World` layout it runs on
- :func:`run_oracle` / :func:`run_batched` / :func:`compare_runs` —
  single-program building blocks
- :func:`shrink_program` — minimal-repro reduction
- ``python -m repro.fuzz`` — the CLI (seeded replay, bug injection)
"""

from repro.fuzz.execute import (
    CursorOutcome,
    FuzzHarnessError,
    RunResult,
    StepOutcome,
    compare_runs,
    drop_call_injection,
    exc_key,
    run_batched,
    run_oracle,
)
from repro.fuzz.generate import generate_corpus, generate_program, policies_for
from repro.fuzz.program import Program, Reg, Step, validate_program
from repro.fuzz.runner import (
    Divergence,
    FuzzConfig,
    FuzzReport,
    World,
    run_corpus,
)
from repro.fuzz.shrink import shrink_program

__all__ = [
    "CursorOutcome",
    "Divergence",
    "FuzzConfig",
    "FuzzHarnessError",
    "FuzzReport",
    "Program",
    "Reg",
    "RunResult",
    "Step",
    "StepOutcome",
    "World",
    "compare_runs",
    "drop_call_injection",
    "exc_key",
    "generate_corpus",
    "generate_program",
    "policies_for",
    "run_batched",
    "run_corpus",
    "run_oracle",
    "shrink_program",
    "validate_program",
]
