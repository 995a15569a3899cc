"""Transparent plan adoption: ``create_batch(..., reuse_plans=True)``.

The planning proxy must be behaviorally indistinguishable from the plain
one — results, exception-policy behavior and cursor geometry — while
shipping repeated shapes as plan invocations.
"""

import pytest

from repro.core import BatchProxy, ContinuePolicy, create_batch
from repro.core.cursor import cursor_length
from repro.plan import PlanMemo, PlanningBatchRecorder
from repro.plan.client import (
    HIT, INLINE, INSTALL, INVOKE, MISS, MISS_LIMIT, RETRY_INTERVAL,
)
from repro.plan.runtime import plan_runtime_of
from repro.rmi import RMIClient, RMIServer
from repro.net import LAN, SimNetwork

from tests.support import BoomError, CounterImpl, make_container


@pytest.fixture
def plan_env(network):
    server = RMIServer(network, "sim://planhost:2000", plan_capacity=2).start()
    server.bind("counter", CounterImpl())
    server.bind("container", make_container())
    client = RMIClient(network, "sim://planhost:2000")
    yield server, client
    client.close()
    server.close()


class TestAdoption:
    def test_planning_proxy_type_and_api(self, plan_env):
        _server, client = plan_env
        batch = create_batch(client.lookup("counter"), reuse_plans=True)
        assert type(batch) is BatchProxy
        assert isinstance(batch._recorder, PlanningBatchRecorder)
        future = batch.increment(2)
        batch.flush()
        assert future.get() == 2

    def test_first_flush_inline_then_install_then_invoke(self, plan_env):
        server, client = plan_env
        stub = client.lookup("counter")
        memo = client.plan_memo

        for expected in range(1, 5):
            batch = create_batch(stub, reuse_plans=True)
            future = batch.increment(1)
            batch.flush()
            assert future.get() == expected

        assert memo.inline_flushes == 1
        assert memo.plan_installs == 1
        assert memo.plan_invocations == 2
        snap = plan_runtime_of(server).cache.stats.snapshot()
        # The first repeat installs directly — no guaranteed-miss probe.
        assert (snap.hits, snap.misses, snap.installs) == (2, 0, 1)

    def test_memo_is_shared_across_batches_and_shapes_distinct(self, plan_env):
        server, client = plan_env
        stub = client.lookup("counter")
        for amount, repeats in ((1, 3), (2, 3)):
            for _ in range(repeats):
                batch = create_batch(stub, reuse_plans=True)
                batch.increment(amount)
                batch.flush()
        # Same shape regardless of the amount value: one plan total.
        assert len(plan_runtime_of(server).cache) == 1
        assert client.plan_memo.inline_flushes == 1

        batch = create_batch(stub, reuse_plans=True)
        batch.increment(1)
        batch.current()  # an extra call changes the shape
        batch.flush()
        assert client.plan_memo.inline_flushes == 2

    def test_exception_policy_behavior_matches_inline(self, plan_env):
        _server, client = plan_env
        stub = client.lookup("counter")

        def run(reuse):
            batch = create_batch(stub, policy=ContinuePolicy(), reuse_plans=reuse)
            boom = batch.boom("pow")
            after = batch.increment(1)
            batch.flush()
            outcomes = []
            for future in (boom, after):
                try:
                    outcomes.append(("ok", future.get()))
                except Exception as exc:  # noqa: BLE001 - comparing behavior
                    outcomes.append(("exc", type(exc).__name__, str(exc)))
            return outcomes

        inline = run(False)
        plans = [run(True) for _ in range(3)]
        assert inline[0] == ("exc", "BoomError", "pow")
        for outcome in plans:
            assert outcome[0] == inline[0]
            assert outcome[1][0] == "ok"

    def test_cursor_geometry_matches_inline(self, plan_env):
        _server, client = plan_env
        stub = client.lookup("container")

        def run(reuse):
            batch = create_batch(stub, reuse_plans=reuse)
            cursor = batch.all_items()
            names = cursor.name()
            batch.flush()
            collected = []
            while cursor.next():
                collected.append(names.get())
            return cursor_length(cursor), collected

        inline = run(False)
        warm = run(True)
        hot = run(True)
        assert warm == inline
        assert hot == inline

    def test_chained_batches_stay_inline(self, plan_env):
        server, client = plan_env
        stub = client.lookup("counter")
        batch = create_batch(stub, reuse_plans=True)
        batch.increment(1)
        batch.flush_and_continue()
        batch.increment(1)
        batch.flush()
        # Run the chained shape again: still no plan traffic.
        batch = create_batch(stub, reuse_plans=True)
        batch.increment(1)
        batch.flush_and_continue()
        final = batch.increment(1)
        batch.flush()
        assert final.get() == 4
        assert len(plan_runtime_of(server).cache) == 0
        assert client.plan_memo.plan_invocations == 0

    def test_memo_is_bounded_lru(self):
        memo = PlanMemo(capacity=2)
        assert memo.route("a")[1] == INLINE
        assert memo.route("b")[1] == INLINE
        assert memo.route("a")[1] == INSTALL  # refresh a; b becomes LRU
        assert memo.route("c")[1] == INLINE   # evicts b
        assert len(memo) == 2
        assert memo.route("b")[1] == INLINE   # forgotten: inline again
        # c survived (this is its second sighting); a was evicted.
        state, route = memo.route("c")
        assert (state.sightings, route) == (2, INSTALL)
        state, route = memo.route("a")
        assert (state.sightings, route) == (1, INLINE)

    def test_persistent_misses_demote_a_shape_to_inline(self, network):
        """Cache thrash must be a bounded cost, not a permanent 2-round-trip
        pessimization: after MISS_LIMIT consecutive misses the client
        reverts that shape to the plain inline path."""
        server = RMIServer(network, "sim://thrash:1", plan_capacity=1).start()
        server.bind("counter", CounterImpl())
        client = RMIClient(network, "sim://thrash:1")
        stub = client.lookup("counter")

        def flush(calls):
            batch = create_batch(stub, reuse_plans=True)
            for _ in range(calls):
                batch.increment(1)
            batch.flush()
            return client.stats.requests

        # Two hot shapes, capacity one: every plan invocation misses.
        for _ in range(8):
            flush(1)
            flush(2)
        installs_after_thrash = client.plan_memo.plan_installs
        assert installs_after_thrash >= 3  # the thrash was real

        # Both shapes are demoted now: single-round-trip inline flushes,
        # no further install traffic.
        before = client.stats.requests
        flush(1)
        flush(2)
        assert client.stats.requests - before == 2
        assert client.plan_memo.plan_installs == installs_after_thrash
        client.close()
        server.close()

    def test_demotion_is_temporary(self):
        """A demoted shape retries the plan path after RETRY_INTERVAL
        inline flushes — transient cache pressure is a bounded detour,
        not a permanent loss of the optimization."""
        memo = PlanMemo()
        state, _ = memo.route("d")
        for _ in range(MISS_LIMIT):
            memo.settle(state, MISS)
        for _ in range(RETRY_INTERVAL - 1):
            assert memo.route("d")[1] == INLINE
        # The RETRY_INTERVAL-th inline flush probes again.
        assert memo.route("d")[1] == INSTALL
        # A hit on the probe keeps the shape on the plan path for good.
        memo.settle(state, HIT)
        assert memo.route("d")[1] == INVOKE
        # Another full miss streak is needed to re-demote.
        memo.settle(state, MISS)
        assert memo.route("d")[1] == INVOKE

    def test_eviction_triggers_transparent_reinstall(self, plan_env):
        server, client = plan_env  # plan_capacity=2
        stub = client.lookup("counter")

        def hot_shape(method_args):
            for _ in range(2):
                batch = create_batch(stub, reuse_plans=True)
                batch.increment(method_args)
                batch.flush()

        hot_shape(1)
        # Two different shapes (different call counts) evict the first.
        for calls in (2, 3):
            for _ in range(2):
                batch = create_batch(stub, reuse_plans=True)
                for _ in range(calls):
                    batch.increment(1)
                batch.flush()
        assert plan_runtime_of(server).cache.stats.snapshot().evictions >= 1

        # The evicted shape still works: miss -> reinstall -> hit.
        batch = create_batch(stub, reuse_plans=True)
        future = batch.increment(1)
        batch.flush()
        assert future.get() > 0
        installs = client.plan_memo.plan_installs
        batch = create_batch(stub, reuse_plans=True)
        batch.increment(1)
        batch.flush()
        assert client.plan_memo.plan_installs == installs
        assert client.plan_memo.plan_invocations >= 1


class TestProtocolHardening:
    def test_invoke_batch_arity_is_pinned(self, plan_env):
        """Regression: a hostile 5th positional must not reach the
        executor's internal ``validated`` flag and skip validation."""
        from repro.core.policies import AbortPolicy
        from repro.rmi.exceptions import MarshalError
        from repro.rmi.protocol import INVOKE_BATCH

        _server, client = plan_env
        object_id = client.lookup("counter").remote_ref.object_id
        with pytest.raises(MarshalError):
            client.call(
                object_id,
                INVOKE_BATCH,
                (["not-invocations"], AbortPolicy(), -1, False, True),
            )

    def test_plan_pseudo_methods_arity_is_pinned(self, plan_env):
        from repro.rmi.exceptions import MarshalError
        from repro.rmi.protocol import INSTALL_PLAN, INVOKE_PLAN

        _server, client = plan_env
        object_id = client.lookup("counter").remote_ref.object_id
        with pytest.raises(MarshalError):
            client.call(object_id, INVOKE_PLAN, ("digest",))
        with pytest.raises(MarshalError):
            client.call(object_id, INSTALL_PLAN, ("x", (), "extra"))
