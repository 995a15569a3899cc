"""Cluster conformance: the sharded scatter-gather path is observably
identical to the paper's single-server semantics.

Four pins:

- a **1-shard cluster is the single-server path exactly** — same
  per-step outcomes, same cursor geometry, same post-state, and the
  same number of round trips, for the existing single-root corpus;
- the **batch lifecycle is the single-server one** — any chain root's
  ``flush()`` is the batch's flush, and a flush that failed with a
  transport error can be retried;
- **multi-shard runs match the sharded naive-RMI oracle** with zero
  divergences across seeds, shard counts, policies, sim and TCP
  transports, and both execution modes (one-shot batch and
  plan-reusing batch);
- a **hand-written split-point program** pins the cross-shard argument
  semantics to concrete values (the fallback executes a real nested
  call, never a wrong answer).
"""

import dataclasses

import pytest

from repro.cluster import ClusterClient
from repro.core import BatchClosedError, FutureNotReadyError, create_batch
from repro.core.policies import AbortPolicy, ContinuePolicy
from repro.fuzz.execute import compare_runs, run_batched, run_oracle
from repro.fuzz.generate import generate_program, policies_for
from repro.fuzz.program import Program, Reg, Step, validate_program
from repro.fuzz.runner import FuzzConfig, World, run_corpus
from repro.rmi import CommunicationError

from tests.support import ONE_ATTEMPT, chaos_client

PROGRAMS_PER_SEED = 4


# -- 1-shard cluster == single server, exactly --------------------------------


def test_one_shard_cluster_is_single_server_exactly():
    """Outcome-for-outcome AND round-trip-for-round-trip identical."""
    single = World("lan")
    cluster_world = World("lan", shards=1)
    try:
        single_client = single.fresh_client()
        cluster = cluster_world.fresh_client()
        checked = 0
        for index in range(6):
            program = generate_program(0, index, max_steps=12)
            for policy_name, policy in policies_for(program).items():
                names, read_state = single.bind_roots(program)
                stubs = {0: single_client.lookup(names[0])}
                expected = run_batched(program, stubs, policy)
                expected.post_state = read_state()

                names, read_state = cluster_world.bind_roots(program)
                stubs = {0: cluster.lookup(names[0])}
                got = run_batched(program, stubs, policy, cluster=cluster)
                got.post_state = read_state()

                diffs = compare_runs(expected, got, check_traffic=False)
                assert not diffs, (
                    f"#{index}/{policy_name}: {diffs}\n{program.describe()}"
                )
                # The strongest claim: the exact same number of round
                # trips, not just the batch traffic bound.
                assert got.requests == expected.requests, (
                    f"#{index}/{policy_name}: 1-shard cluster used "
                    f"{got.requests} requests, single server "
                    f"{expected.requests}"
                )
                checked += 1
        assert checked >= 20
    finally:
        cluster_world.close()
        single.close()


def test_chain_root_flush_is_the_batch_flush():
    """``root.flush()`` on one chain flushes the whole batch, exactly as
    ``batch.flush()`` would; it never ships that chain behind the
    batch's back."""
    world = World("lan", shards=2)
    try:
        cluster = world.fresh_client()
        names, _ = world.bind_roots(_split_program())
        batch = cluster.create_batch()
        roots = [batch.on(cluster.lookup(name)) for name in names.values()]
        lines = [root.create_credit_account("zoe").get_credit_line()
                 for root in roots]
        roots[0].flush()
        assert [line.get() for line in lines] == [1000.0, 1000.0]
        # Flushed for good, like a plain batch's second flush.
        with pytest.raises(BatchClosedError):
            batch.flush()
        assert lines[0].get() == 1000.0
    finally:
        world.close()


def test_failed_flush_retries_like_a_single_server():
    """One injected fault, then a retry: the plain world and a 1-shard
    cluster both keep the batch open and read the same value."""

    def flush_twice(world):
        client = chaos_client(world.network, world.addresses[0],
                              [None, "drop-request"], retry=ONE_ATTEMPT)
        if world.clustered:
            client = ClusterClient(addresses=world.addresses,
                                   clients=[client], concurrent_flush=False)
        names, _ = world.bind_roots(Program(domain="bank", steps=()))
        stub = client.lookup(names[0])
        if world.clustered:
            batch = client.create_batch()
            root = batch.on(stub)
        else:
            batch = root = create_batch(stub)
        line = root.create_credit_account("zoe").get_credit_line()
        with pytest.raises(CommunicationError):
            batch.flush()
        with pytest.raises(FutureNotReadyError):
            line.get()
        batch.flush()  # fault cleared; the retry ships the same rows
        return line.get()

    values = []
    for shards in (None, 1):
        world = World("lan", shards=shards)
        try:
            values.append(flush_twice(world))
        finally:
            world.close()
    assert values == [1000.0, 1000.0]


# -- multi-shard corpora: zero divergences ------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multi_shard_sim_corpus_matches_oracle(seed):
    config = FuzzConfig(
        seed=seed, programs=PROGRAMS_PER_SEED, shards=2,
        transports=("lan",), shrink=False,
    )
    report = run_corpus(config)
    assert report.ok, "\n\n".join(d.describe() for d in report.divergences)
    assert report.programs == PROGRAMS_PER_SEED
    assert report.runs > 0


def test_three_shard_sim_corpus_matches_oracle():
    config = FuzzConfig(
        seed=0, programs=PROGRAMS_PER_SEED, shards=3,
        transports=("lan",), shrink=False,
    )
    report = run_corpus(config)
    assert report.ok, "\n\n".join(d.describe() for d in report.divergences)
    # The corpus must actually exercise split points and plan reuse.
    assert report.coverage["cross_chain_steps"] > 0
    assert report.coverage["plan_invocations"] > 0
    assert report.coverage["plan_cache_hits"] > 0


def test_multi_shard_tcp_corpus_matches_oracle():
    config = FuzzConfig(
        seed=1, programs=3, shards=2, transports=("tcp",),
        policies=("abort", "continue"), shrink=False,
    )
    report = run_corpus(config)
    assert report.ok, "\n\n".join(d.describe() for d in report.divergences)


def test_multi_shard_parallel_corpus_runs_the_width_one_twin():
    """``parallel`` is not a no-op on a cluster: every clean batch/plan
    run repeats on a twin cluster whose shard servers are pinned to
    width 1, and the two must agree."""
    config = FuzzConfig(
        seed=0, programs=3, shards=2, transports=("lan",), shrink=False,
    )
    plain = run_corpus(config)
    twinned = run_corpus(dataclasses.replace(config, parallel=True))
    assert twinned.ok, "\n\n".join(d.describe() for d in twinned.divergences)
    oracle_runs = plain.programs * len(config.policies)
    assert twinned.runs == plain.runs + (plain.runs - oracle_runs)
    # The scheduler counters are summed over every shard server.
    coverage = twinned.coverage
    assert coverage["parallel_batches"] + coverage["parallel_fallbacks"] > 0


def test_cluster_corpus_programs_always_have_cross_chain_coverage():
    """Across a whole corpus, split points appear (and validate)."""
    total = 0
    for index in range(12):
        program = generate_program(0, index, max_steps=18, roots=3)
        validate_program(program)
        total += len(program.cross_chain_steps())
    assert total > 0


# -- the split point, pinned to concrete values -------------------------------


def _split_program() -> Program:
    """Two bank chains; chain 1 consumes chain 0's card across shards."""
    steps = (
        Step(seq=1, target=0, method="create_credit_account",
             args=("dana",), kind="remote", result_iface="card"),
        Step(seq=2, target=1, method="make_purchase", args=(75.0,)),
        # New segment: the cross-chain consumer reads while the
        # producer chain stays stepless (the oracle invariant).
        Step(seq=3, target=-1, method="credit_line_of", args=(Reg(1),),
             segment=1),
        # Later segments may mutate the producer again freely.
        Step(seq=4, target=0, method="credit_line_of", args=(Reg(1),),
             segment=2),
        Step(seq=5, target=1, method="make_purchase", args=(100.0,),
             segment=2),
    )
    program = Program(domain="bank+bank", steps=steps, roots=2)
    validate_program(program)
    return program


def test_split_point_values_and_post_state():
    program = _split_program()
    world = World("lan", shards=2)
    try:
        cluster = world.fresh_client()
        names, read_state = world.bind_roots(program)
        stubs = {reg: cluster.lookup(name) for reg, name in names.items()}
        result = run_batched(
            program, stubs, AbortPolicy(), cluster=cluster
        )
        # 1000 limit - 75 purchase = 925, read across shards (r3) and
        # locally one segment later (r4); the final purchase lands last.
        assert result.outcomes[3].value == 925.0
        assert result.outcomes[4].value == 925.0
        assert result.outcomes[5].status == "ok"
        post = read_state()
        assert post[0]["dana"] == (175.0, 1000.0)

        # And the oracle agrees wholesale.
        names, read_state = world.bind_roots(program)
        stubs = {reg: cluster.lookup(name) for reg, name in names.items()}
        oracle = run_oracle(program, stubs, AbortPolicy())
        oracle.post_state = read_state()
        result.post_state = post
        assert not compare_runs(oracle, result, check_traffic=False)
    finally:
        world.close()


def test_validator_rejects_producer_steps_in_consumer_segment():
    """The shape the oracle cannot model: shard sub-batches of one
    segment flush in unspecified order, so a producer-chain mutation in
    the consumer's segment may execute before or after the cross-shard
    read.  The generator never emits it; the validator must refuse it
    (on either side of the consumer)."""
    for producer_seq in (3, 5):
        steps = (
            Step(seq=1, target=0, method="create_credit_account",
                 args=("dana",), kind="remote", result_iface="card"),
            Step(seq=2, target=1, method="make_purchase", args=(75.0,)),
            Step(seq=3, target=1 if producer_seq == 3 else -1,
                 method="make_purchase" if producer_seq == 3
                 else "credit_line_of",
                 args=(50.0,) if producer_seq == 3 else (Reg(1),),
                 segment=1),
            Step(seq=4, target=-1 if producer_seq == 3 else 1,
                 method="credit_line_of" if producer_seq == 3
                 else "make_purchase",
                 args=(Reg(1),) if producer_seq == 3 else (50.0,),
                 segment=1),
        )
        program = Program(domain="bank+bank", steps=steps, roots=2)
        with pytest.raises(ValueError, match="also records"):
            validate_program(program)


def test_failed_register_kills_cross_chain_consumer_at_record_time():
    """Exporting a dead register propagates its verdict, not a crash."""
    steps = (
        Step(seq=1, target=0, method="find_credit_account",
             args=("mallory",), kind="remote", result_iface="card"),
        Step(seq=2, target=-1, method="credit_line_of", args=(Reg(1),),
             segment=1),
        Step(seq=3, target=-1, method="credit_line_of",
             args=(Reg(1),), segment=1),
    )
    program = Program(domain="bank+bank", steps=steps, roots=2)
    validate_program(program)
    world = World("lan", shards=2)
    try:
        cluster = world.fresh_client()
        for policy in (AbortPolicy(), ContinuePolicy()):
            names, _ = world.bind_roots(program)
            stubs = {reg: cluster.lookup(name)
                     for reg, name in names.items()}
            result = run_batched(program, stubs, policy, cluster=cluster)
            assert result.outcomes[1].status == "raise"
            assert "AccountNotFound" in result.outcomes[1].error
            assert result.outcomes[2] == result.outcomes[1]
            assert result.outcomes[3] == result.outcomes[1]

            names, _ = world.bind_roots(program)
            stubs = {reg: cluster.lookup(name)
                     for reg, name in names.items()}
            oracle = run_oracle(program, stubs, policy)
            assert not compare_runs(oracle, result, check_traffic=False)
    finally:
        world.close()


def test_cursor_state_cannot_cross_shards():
    """Passing a cursor (or element proxy) across chains is a typed error."""
    from repro.core.errors import UnsupportedBatchOperationError

    world = World("lan", shards=2)
    try:
        cluster = world.fresh_client()
        program = Program(
            domain="fileserver+bank",
            steps=(Step(seq=1, target=0, method="list_files",
                        kind="cursor", result_iface="file"),),
            roots=2,
        )
        names, _ = world.bind_roots(program)
        batch = cluster.create_batch()
        fs = batch.on(cluster.lookup(names[0]))
        bank = batch.on(cluster.lookup(names[-1]))
        cursor = fs.list_files()
        with pytest.raises(UnsupportedBatchOperationError):
            bank.credit_line_of(cursor)
    finally:
        world.close()
