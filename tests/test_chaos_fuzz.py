"""The chaos conformance harness: differential fuzzing under faults.

Every generated batch program replays against the clean naive-RMI oracle
while its own transport injects a seeded fault schedule behind the
exactly-once retry layer.  The contract: match the oracle exactly, or
fail the flush with a typed transport error — never diverge silently.
These are bounded smoke corpora; CI runs larger ones across 3 seeds.
"""

import pytest

from repro.fuzz.runner import (
    CLEAN_FAULT_ERRORS,
    CLUSTER_FAULT_ERRORS,
    FuzzConfig,
    World,
    run_corpus,
)


class TestChaosConformance:
    def test_sim_corpus_survives_faults(self):
        report = run_corpus(FuzzConfig(
            seed=3, programs=5, transports=("lan",),
            faults=True, fault_rate=0.15,
        ))
        assert report.ok, "\n".join(
            d.describe() for d in report.divergences
        )
        # The run must actually have been chaotic to prove anything.
        assert report.coverage["fault_events"] > 0
        # Lost responses must have been healed by dedup replays, not by
        # re-execution (re-execution would have shown up as post-state
        # divergences above).
        assert report.coverage["dedup_replays"] > 0

    def test_tcp_corpus_survives_faults(self):
        report = run_corpus(FuzzConfig(
            seed=5, programs=3, transports=("tcp",),
            faults=True, fault_rate=0.15,
        ))
        assert report.ok, "\n".join(
            d.describe() for d in report.divergences
        )
        assert report.coverage["fault_events"] > 0

    def test_heavy_fault_rate_fails_cleanly_not_silently(self):
        """At a fault rate beyond the retry budget, runs are allowed to
        fail — but only with the typed errors of the batch contract."""
        report = run_corpus(FuzzConfig(
            seed=11, programs=4, transports=("lan",), modes=("batch",),
            faults=True, fault_rate=0.55, shrink=False,
        ))
        assert report.ok, "\n".join(
            d.describe() for d in report.divergences
        )
        assert report.coverage["fault_events"] > 0

    def test_drop_call_teeth_still_bite_under_faults(self):
        """The planted wire bug must not hide behind the fault schedule:
        a run that completes must still be compared against the oracle."""
        report = run_corpus(FuzzConfig(
            seed=0, programs=6, transports=("lan",), modes=("batch",),
            faults=True, fault_rate=0.1, inject="drop-call", shrink=False,
        ))
        assert not report.ok

    def test_clean_fault_errors_are_the_typed_contract(self):
        """The allowed-failure set is exactly the typed transport errors;
        a refactor renaming one must consciously update the contract."""
        for name in CLEAN_FAULT_ERRORS | CLUSTER_FAULT_ERRORS:
            module, _, cls_name = name.rpartition(".")
            mod = __import__(module, fromlist=[cls_name])
            assert hasattr(mod, cls_name), name
        # ... and each layout's world carries exactly its own contract.
        for shards, expected in (
            (None, CLEAN_FAULT_ERRORS),
            (2, CLEAN_FAULT_ERRORS | CLUSTER_FAULT_ERRORS),
        ):
            world = World("lan", shards=shards)
            try:
                assert world.clean_errors == expected
            finally:
                world.close()

    def test_faults_off_is_the_old_harness(self):
        config = FuzzConfig(seed=1, programs=2, transports=("lan",))
        report = run_corpus(config)
        assert report.ok
        assert report.coverage["fault_events"] == 0
