"""Greedy program shrinking: the smallest repro that still diverges.

Given a diverging program and a ``diverges(candidate)`` predicate that
re-runs the oracle comparison, the shrinker repeatedly tries cheaper
candidates and keeps any that still diverge:

1. merge all segments into one unchained batch;
2. drop one step (plus its dependency closure) at a time;
3. simplify literal arguments (shorter lists, unit amounts).

Every candidate is a structurally *valid* program by construction —
``Program.without_steps`` removes dependents transitively — so the
predicate never sees a malformed script.  Candidates of a multi-root
program that break the cross-chain invariant (merging segments can pull
a cross-chain argument into its producer's segment, where the per-chain
oracle is unsound) are skipped, so the shrinker keeps the last sound
repro instead.  The loop restarts after every
successful reduction and stops at a fixpoint or when the attempt budget
runs out; fuzzing is only as useful as its repros are small.
"""

from __future__ import annotations

from dataclasses import replace

from repro.fuzz.program import CrossChainError, Program, validate_program

#: Upper bound on predicate evaluations for one shrink.
DEFAULT_BUDGET = 300


def shrink_program(program: Program, diverges, budget: int = DEFAULT_BUDGET):
    """Return ``(smallest_program, attempts_used)``.

    *diverges* is any callable returning a truthy value while the
    candidate still reproduces the original divergence.
    """
    current = program
    attempts = 0

    def try_candidate(candidate):
        nonlocal attempts, current
        if attempts >= budget or not candidate.steps:
            return False
        try:
            validate_program(candidate)
        except CrossChainError:
            return False
        attempts += 1
        if diverges(candidate):
            current = candidate
            return True
        return False

    progressed = True
    while progressed and attempts < budget:
        progressed = False
        if current.segments > 1 and try_candidate(current.merged_segments()):
            progressed = True
            continue
        for step in list(current.steps):
            if try_candidate(current.without_steps({step.seq})):
                progressed = True
                break
        if progressed:
            continue
        for candidate in _argument_simplifications(current):
            if try_candidate(candidate):
                progressed = True
                break
    return current, attempts


def _argument_simplifications(program: Program):
    """One-change-at-a-time literal simplifications."""
    for position, step in enumerate(program.steps):
        simplified = tuple(_simplify(arg) for arg in step.args)
        if simplified != step.args:
            steps = list(program.steps)
            steps[position] = replace(step, args=simplified)
            yield replace(program, steps=tuple(steps))


def _simplify(value):
    if isinstance(value, float) and value != 1.0:
        return 1.0
    if isinstance(value, (list, tuple)) and len(value) > 1:
        head = value[:1]
        return list(head) if isinstance(value, list) else tuple(head)
    return value
