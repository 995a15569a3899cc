"""Unit tests for the fuzz program model and generator."""

import hashlib

import pytest

from repro.fuzz import (
    Program,
    Reg,
    Step,
    generate_corpus,
    generate_program,
    policies_for,
    shrink_program,
    validate_program,
)
from repro.fuzz.generate import DOMAINS

#: sha256 over describe() of seeds 0-3 x indices 0-299 x max_steps 14/25,
#: per root count.  A (seed, index) pair names a program forever — CI
#: seeds, EXPERIMENTS.md tables and every repro report rely on it — so a
#: generator refactor must leave these digests alone.
PINNED_STREAMS = {
    1: "8d369ee4fc2563f94ef821e02d3b87b3063818f28da494520b8dcce4144c6242",
    2: "7c7dc6f2a53ef2133c0170b5c0b16fb32cf4ca406ea8ae979aa556a1e73d90bb",
    3: "dff9ff9b1e85afe5f0fa93e4b11907cf6ce725fff5f83b6f88d2f9df6fd5ce53",
    4: "d75df1009b9c4ec297a5d23d8fa18d80713d933b9058393e3cbd941a13091d9a",
}


def test_generator_streams_are_pinned():
    for roots, pinned in PINNED_STREAMS.items():
        digest = hashlib.sha256()
        for seed in range(4):
            for index in range(300):
                for max_steps in (14, 25):
                    program = generate_program(seed, index, max_steps, roots)
                    digest.update(program.describe().encode("utf-8") + b"\n")
        assert digest.hexdigest() == pinned, f"roots={roots} stream moved"


class TestGenerator:
    def test_deterministic_for_seed_and_index(self):
        first = generate_program(7, 3)
        second = generate_program(7, 3)
        assert first == second

    def test_different_indices_differ(self):
        corpus = generate_corpus(0, 12)
        assert len({program.describe() for program in corpus}) > 1

    def test_every_program_is_valid(self):
        for program in generate_corpus(1, 40):
            validate_program(program)  # raises on violation

    def test_corpus_covers_every_domain(self):
        domains = {program.domain for program in generate_corpus(0, 40)}
        assert domains == set(DOMAINS)

    def test_policies_are_deterministic_and_complete(self):
        program = generate_program(0, 0)
        first = policies_for(program)
        second = policies_for(program)
        assert set(first) == {
            "abort", "continue", "custom-break", "custom-continue"
        }
        assert first["custom-break"].rules == second["custom-break"].rules

    def test_max_steps_is_respected(self):
        for program in generate_corpus(2, 30, max_steps=6):
            assert len(program.steps) <= 6


class TestProgramModel:
    def _program(self):
        steps = (
            Step(seq=1, target=0, method="find_credit_account",
                 args=("alice",), kind="remote"),
            Step(seq=2, target=1, method="get_credit_line"),
            Step(seq=3, target=0, method="credit_line_of", args=(Reg(1),)),
            Step(seq=4, target=0, method="find_credit_account",
                 args=("bob",), kind="remote"),
        )
        return Program(domain="bank", steps=steps)

    def test_without_steps_drops_dependents(self):
        reduced = self._program().without_steps({1})
        assert [step.seq for step in reduced.steps] == [4]

    def test_without_steps_keeps_independents(self):
        reduced = self._program().without_steps({2})
        assert [step.seq for step in reduced.steps] == [1, 3, 4]

    def test_validate_rejects_undefined_target(self):
        program = Program(
            domain="bank",
            steps=(Step(seq=1, target=9, method="get_credit_line"),),
        )
        with pytest.raises(ValueError):
            validate_program(program)

    def test_validate_rejects_interleaved_cursor(self):
        steps = (
            Step(seq=1, target=0, method="list_files", kind="cursor"),
            Step(seq=2, target=0, method="get_name"),
            Step(seq=3, target=1, method="length", cursor=1),
        )
        with pytest.raises(ValueError):
            validate_program(Program(domain="fileserver", steps=steps))

    def test_describe_names_seed_and_steps(self):
        text = generate_program(5, 2).describe()
        assert "seed=5" in text and "r1 = " in text


class TestShrinker:
    def test_reaches_minimal_step_count(self):
        program = generate_program(0, 0, max_steps=14)

        def diverges(candidate):
            return len(candidate.steps) >= 2

        shrunk, attempts = shrink_program(program, diverges)
        assert len(shrunk.steps) == 2
        assert attempts > 0

    def test_returns_original_when_nothing_smaller_diverges(self):
        program = generate_program(0, 1, max_steps=5)
        shrunk, _ = shrink_program(program, lambda candidate: False)
        assert shrunk == program

    def test_candidates_stay_valid(self):
        program = generate_program(4, 6, max_steps=14)
        seen = []

        def diverges(candidate):
            validate_program(candidate)
            seen.append(candidate)
            return True  # drive the shrinker as deep as it can go

        shrunk, _ = shrink_program(program, diverges)
        assert seen
        assert len(shrunk.steps) == 1
