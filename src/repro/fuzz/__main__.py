"""Command-line driver for the differential conformance fuzzer.

Usage::

    python -m repro.fuzz --seed 0 --programs 50     # the smoke corpus
    python -m repro.fuzz --seed 7 --programs 500    # a nightly corpus
    python -m repro.fuzz --seed 0 --faults          # chaos conformance
    python -m repro.fuzz --seed 0 --inject-bug drop-call   # must fail
    python -m repro.fuzz --seed 0 --programs 5 --show      # print programs

Exit status 0 means every run of every program matched the naive-RMI
oracle on every transport, policy, and execution mode; 1 means a
divergence was found (the shrunk repro is printed, and written as JSON
when ``--repro-out`` is given).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fuzz.execute import FuzzHarnessError
from repro.fuzz.generate import POLICY_NAMES, generate_program
from repro.fuzz.runner import (
    INJECTIONS,
    MODES,
    TRANSPORTS,
    FuzzConfig,
    roots_for,
    run_corpus,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential conformance fuzzing: randomized batch "
        "programs checked against a naive-RMI oracle.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="corpus seed (default 0)")
    parser.add_argument("--programs", type=int, default=20,
                        help="number of programs to generate (default 20)")
    parser.add_argument("--max-steps", type=int, default=14,
                        help="maximum steps per program (default 14)")
    parser.add_argument("--transports", default=",".join(TRANSPORTS),
                        help="comma list of transports "
                        f"(default {','.join(TRANSPORTS)})")
    parser.add_argument("--policies", default=",".join(POLICY_NAMES),
                        help="comma list of exception policies "
                        f"(default {','.join(POLICY_NAMES)})")
    parser.add_argument("--modes", default=",".join(MODES),
                        help="comma list of execution modes "
                        f"(default {','.join(MODES)})")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="run the corpus through an N-shard cluster: "
                        "multi-root programs, scatter-gather batches, and "
                        "a sharded per-chain oracle (default 1 = single "
                        "server)")
    parser.add_argument("--parallel", action="store_true",
                        help="differentially check the DAG scheduler: run "
                        "every clean batch/plan cell a second time against "
                        "a width-1 (exec_workers=0) twin server and require "
                        "identical observables")
    parser.add_argument("--faults", action="store_true",
                        help="replay every batch/plan run through a seeded "
                        "fault-injecting transport behind exactly-once "
                        "retries; runs must match the oracle or fail with "
                        "a typed transport error")
    parser.add_argument("--fault-rate", type=float, default=0.12,
                        metavar="P", help="per-exchange fault probability "
                        "under --faults (default 0.12)")
    parser.add_argument("--inject-bug", default="", metavar="NAME",
                        choices=[""] + sorted(INJECTIONS),
                        help="plant a deliberate defect "
                        f"({', '.join(sorted(INJECTIONS))}); the fuzzer "
                        "must then find and shrink it")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report divergences without shrinking")
    parser.add_argument("--repro-out", metavar="PATH",
                        help="write shrunk repros as JSON to PATH on failure")
    parser.add_argument("--show", action="store_true",
                        help="print each generated program instead of "
                        "executing the corpus")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.show:
        for index in range(args.programs):
            program = generate_program(
                args.seed, index, args.max_steps, roots_for(args.shards)
            )
            print(program.describe())
            print()
        return 0

    config = FuzzConfig(
        seed=args.seed,
        programs=args.programs,
        max_steps=args.max_steps,
        transports=tuple(args.transports.split(",")),
        policies=tuple(args.policies.split(",")),
        modes=tuple(args.modes.split(",")),
        inject=args.inject_bug,
        shrink=not args.no_shrink,
        faults=args.faults,
        fault_rate=args.fault_rate,
        shards=args.shards,
        parallel=args.parallel,
    )
    log = None if args.quiet else lambda line: print(line, flush=True)
    try:
        report = run_corpus(config, log=log)
    except FuzzHarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    if report.ok:
        print("conformance: every run matched the naive-RMI oracle")
        return 0
    for divergence in report.divergences:
        print()
        print(divergence.describe())
    if args.repro_out:
        with open(args.repro_out, "w", encoding="utf-8") as fh:
            json.dump(
                [d.to_json() for d in report.divergences], fh, indent=2
            )
        print(f"\nrepros written to {args.repro_out}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
