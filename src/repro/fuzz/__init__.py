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
  ``shards`` picks the :class:`~repro.fuzz.runner.World` layout it runs on
- :mod:`repro.fuzz.execute`'s ``run_oracle`` / ``run_batched`` /
  ``compare_runs`` — single-program building blocks
- :func:`shrink_program` — minimal-repro reduction
- ``python -m repro.fuzz`` — the CLI (seeded replay, bug injection)
"""

from repro.fuzz.execute import FuzzHarnessError
from repro.fuzz.generate import generate_corpus, generate_program, policies_for
from repro.fuzz.program import Program, Reg, Step, validate_program
from repro.fuzz.runner import FuzzConfig, run_corpus
from repro.fuzz.shrink import shrink_program

__all__ = [
    "FuzzConfig",
    "FuzzHarnessError",
    "Program",
    "Reg",
    "Step",
    "generate_corpus",
    "generate_program",
    "policies_for",
    "run_corpus",
    "shrink_program",
    "validate_program",
]
