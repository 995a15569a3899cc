"""Cluster chaos: shard death, retry storms, restarts, misrouted refs.

The failure semantics the scatter-gather batch promises:

- losing a shard mid-flush fails **that shard's rows only**, with the
  flush raising a typed :class:`ShardFailedError` naming the dead
  shards; surviving shards' rows stay readable;
- losing every shard is a single server's failure: the raw error, the
  rows still pending and the batch open for a retry;
- retried requests stay exactly-once **per shard** — every shard keeps
  its own dedup table keyed by call id, so a fault-induced resend
  replays the cached reply instead of re-executing side effects;
- a restarted shard (same address, fresh process/state) serves new
  clients and new batches normally, while the failed chain of the old
  batch stays typed-failed — no zombie rows silently resolving;
- a misrouted ref — stamped for the wrong shard, the wrong cluster
  size, or an endpoint the cluster does not serve — raises a typed
  :class:`WrongShardError` at the client boundary, and a name looked
  up or bound on the wrong server raises it from the server's registry
  home guard.
"""

import dataclasses

import pytest

from repro.cluster import ClusterClient, ShardFailedError
from repro.core import FutureNotReadyError
from repro.fuzz.runner import World, _build_domain
from repro.net import FaultSchedule
from repro.rmi import CommunicationError, RMIClient
from repro.rmi.exceptions import WrongShardError


def _bind_bank(world, index, base):
    """A fresh bank impl bound under a name homed on shard *index*."""
    name = world.shard_map.homed_name(base, index)
    impl, reader = _build_domain("bank")
    world.servers[index].bind(name, impl)
    return name, reader


# -- shard death mid scatter-gather -------------------------------------------


def test_shard_death_fails_only_that_shards_rows_tcp():
    world = World("tcp", shards=2)
    try:
        cluster = world.fresh_client()
        try:
            names = [_bind_bank(world, i, "bank-death")[0] for i in range(2)]
            batch = cluster.create_batch()
            roots = [batch.on(cluster.lookup(name)) for name in names]
            cards = [root.create_credit_account("zoe") for root in roots]
            lines = [card.get_credit_line() for card in cards]

            world.servers[1].close()  # the shard dies mid scatter-gather
            with pytest.raises(ShardFailedError) as info:
                batch.flush()
            assert set(info.value.causes) == {"1/2"}
            assert info.value.__cause__ is info.value.causes["1/2"]

            # Surviving shard: fully resolved, fully readable.
            assert lines[0].get() == 1000.0
            cards[0].ok()

            # Dead shard: every row carries the underlying failure.
            cause = info.value.causes["1/2"]
            with pytest.raises(type(cause)):
                lines[1].get()
            with pytest.raises(type(cause)):
                cards[1].ok()
        finally:
            cluster.close()
    finally:
        world.close()


def test_all_shards_dead_reraises_the_raw_error():
    """No survivors -> behave like a single server: the original error."""
    world = World("lan", shards=2)
    try:
        cluster = world.fresh_client()
        try:
            name = _bind_bank(world, 1, "bank-solo")[0]
            batch = cluster.create_batch()
            root = batch.on(cluster.lookup(name))
            line = root.create_credit_account("ada").get_credit_line()
            world.servers[1].close()
            with pytest.raises(Exception) as info:
                batch.flush()
            assert not isinstance(info.value, ShardFailedError)
            # Like a single server: the rows stay pending and the batch
            # stays open, so a retry meets the transport error again.
            with pytest.raises(FutureNotReadyError):
                line.get()
            with pytest.raises(CommunicationError):
                batch.flush()
        finally:
            cluster.close()
    finally:
        world.close()


# -- exactly-once retries per shard -------------------------------------------


def test_fault_retries_stay_exactly_once_per_shard():
    """Chaos transport + retrying client: side effects apply once.

    Fault seed 8 (rate 0.25) is known to force resends against *both*
    shards; the dedup tables must replay the cached replies, so the
    purchase charges exactly once per card (a re-execution would read
    880, not 940).
    """
    world = World("lan", shards=2)
    try:
        schedule = FaultSchedule(seed=8, rate=0.25, delay_s=0.0005)
        cluster = world.fresh_client(schedule)
        try:
            names = [_bind_bank(world, i, "bank-dedup")[0] for i in range(2)]
            batch = cluster.create_batch()
            roots = [batch.on(cluster.lookup(name)) for name in names]
            cards = [root.create_credit_account(f"z{i}")
                     for i, root in enumerate(roots)]
            batch.flush_and_continue()
            for card in cards:
                card.make_purchase(60.0)
            batch.flush_and_continue()
            lines = [card.get_credit_line() for card in cards]
            batch.flush()
            assert [line.get() for line in lines] == [940.0, 940.0]
            assert schedule.injected > 0
            hits = [server.dedup.hits for server in world.servers]
            assert all(h >= 1 for h in hits), hits
        finally:
            cluster.close()
    finally:
        world.close()


# -- shard restart ------------------------------------------------------------


def test_restarted_shard_serves_new_batches_old_chain_stays_failed():
    from repro.cluster.shardmap import shard_label
    from repro.rmi import RMIServer

    world = World("lan", shards=2)
    try:
        cluster = world.fresh_client()
        names = [_bind_bank(world, i, "bank-restart")[0] for i in range(2)]
        batch = cluster.create_batch()
        roots = [batch.on(cluster.lookup(name)) for name in names]
        cards = [root.create_credit_account("kim") for root in roots]
        address = world.servers[1].address
        world.servers[1].close()
        with pytest.raises(ShardFailedError):
            batch.flush()
        cluster.close()

        # Same address, fresh server (state gone — a true process
        # restart), same shard identity and home guard.
        world.servers[1] = RMIServer(
            world.network, address, shard=shard_label(1, 2),
            shard_home=world.shard_map.home_of,
        ).start()
        fresh_name = _bind_bank(world, 1, "bank-restarted")[0]

        cluster = world.fresh_client()
        try:
            cluster.verify_shards()
            batch2 = cluster.create_batch()
            root = batch2.on(cluster.lookup(fresh_name))
            line = root.create_credit_account("kim").get_credit_line()
            batch2.flush()
            assert line.get() == 1000.0
            # The old batch's dead rows never silently resolve.
            with pytest.raises(Exception):
                cards[1].ok()
            cards[0].ok()  # the survivor is still fine
        finally:
            cluster.close()
    finally:
        world.close()


# -- misrouted refs ----------------------------------------------------------


def test_forged_shard_stamp_is_rejected_client_side():
    world = World("lan", shards=2)
    try:
        cluster = world.fresh_client()
        try:
            name = _bind_bank(world, 0, "bank-stamp")[0]
            ref = cluster.lookup(name).remote_ref
            assert cluster.shard_index_of(ref) == 0

            wrong_shard = dataclasses.replace(ref, shard="1/2")
            with pytest.raises(WrongShardError):
                cluster.shard_index_of(wrong_shard)

            wrong_size = dataclasses.replace(ref, shard="0/3")
            with pytest.raises(WrongShardError):
                cluster.shard_index_of(wrong_size)

            foreign = dataclasses.replace(
                ref, shard="", endpoint="sim://elsewhere:1099"
            )
            with pytest.raises(WrongShardError):
                cluster.shard_index_of(foreign)
        finally:
            cluster.close()
    finally:
        world.close()


def test_misrouted_name_is_rejected_by_the_server_home_guard():
    world = World("lan", shards=2)
    try:
        name = _bind_bank(world, 0, "bank-home")[0]
        wrong = RMIClient(world.network, world.servers[1].address)
        try:
            with pytest.raises(WrongShardError):
                wrong.lookup(name)
            # Rebinding an existing stub under a foreign-homed name hits
            # the same guard on the bind path.
            stub = RMIClient(world.network, world.servers[0].address)
            try:
                misplaced = world.shard_map.homed_name("bank-home-new", 0)
                with pytest.raises(WrongShardError):
                    wrong.bind(misplaced, stub.lookup(name))
            finally:
                stub.close()
        finally:
            wrong.close()
        # The routed path resolves the same name without complaint.
        cluster = world.fresh_client()
        try:
            cluster.lookup(name)
        finally:
            cluster.close()
    finally:
        world.close()


def test_verify_shards_catches_swapped_connections():
    world = World("lan", shards=2)
    try:
        good = world.fresh_client()
        try:
            good.verify_shards()
        finally:
            good.close()
        swapped = ClusterClient(
            world.network, tuple(reversed(world.addresses)),
            concurrent_flush=False,
        )
        try:
            with pytest.raises(WrongShardError):
                swapped.verify_shards()
        finally:
            swapped.close()
    finally:
        world.close()
