"""Stale references in the plan path.

Plans are content-addressed scripts, never bindings to live objects:
the root object and every RemoteRef parameter must be re-resolved on
each invocation.  A vanished root raises the typed
:class:`PlanInvalidatedError`; a vanished parameter fails op-level,
exactly as it would inline.
"""

import pytest

from repro.core import ContinuePolicy, create_batch
from repro.plan.runtime import plan_runtime_of
from repro.rmi.exceptions import NoSuchObjectError, PlanInvalidatedError

from tests.support import CounterImpl, IdentityServiceImpl


def warm_plan(stub, amount=1):
    """Flush the same shape twice so the plan is installed and hot."""
    for _ in range(2):
        batch = create_batch(stub, reuse_plans=True)
        future = batch.increment(amount)
        batch.flush()
        assert future.get() > 0


class TestRootInvalidation:
    def test_unexported_root_raises_typed_error(self, network, server):
        """Regression: a cached plan whose root object was unexported must
        fail with PlanInvalidatedError, not a generic middleware error."""
        from repro.rmi import RMIClient

        impl = CounterImpl()
        server.bind("doomed", impl)
        client = RMIClient(network, "sim://server:1099")
        stub = client.lookup("doomed")
        warm_plan(stub)
        assert len(plan_runtime_of(server).cache) == 1

        server.objects.unexport(impl)

        batch = create_batch(stub, reuse_plans=True)
        batch.increment(1)
        with pytest.raises(PlanInvalidatedError) as excinfo:
            batch.flush()
        assert excinfo.value.plan_hash != "?"
        # The plan itself stays cached — it is a script, not a binding —
        # so a fresh export of the same shape can reuse it.
        assert len(plan_runtime_of(server).cache) == 1
        client.close()

    def test_install_with_stale_root_keeps_ordinary_error(self, network, server):
        """Only __invoke_plan__ converts a missing root into
        PlanInvalidatedError; an install carries the full script (nothing
        cached went stale) so it fails like the inline path would."""
        from repro.core.policies import AbortPolicy
        from repro.core.recording import ArgRef, InvocationData
        from repro.plan import compile_plan
        from repro.rmi import RMIClient
        from repro.rmi.protocol import INSTALL_PLAN

        impl = CounterImpl()
        server.bind("gone", impl)
        client = RMIClient(network, "sim://server:1099")
        stub = client.lookup("gone")
        server.objects.unexport(impl)

        plan, params = compile_plan(
            (InvocationData(seq=1, target=ArgRef(0), method="increment",
                            args=(1,)),),
            AbortPolicy(),
        )
        with pytest.raises(NoSuchObjectError):
            client.call(stub.remote_ref.object_id, INSTALL_PLAN, (plan, params))
        client.close()

    def test_fresh_root_reuses_the_cached_plan(self, network, server):
        from repro.rmi import RMIClient

        old = CounterImpl()
        server.bind("rotating", old)
        client = RMIClient(network, "sim://server:1099")
        warm_plan(client.lookup("rotating"))
        hits_before = plan_runtime_of(server).cache.stats.snapshot().hits

        server.objects.unexport(old)
        replacement = CounterImpl()
        server.bind("rotating", replacement)

        batch = create_batch(client.lookup("rotating"), reuse_plans=True)
        future = batch.increment(1)
        batch.flush()
        assert future.get() == 1
        assert replacement.value == 1
        assert plan_runtime_of(server).cache.stats.snapshot().hits == hits_before + 1
        client.close()


class TestRestartRetryPaths:
    """Plan reuse meeting the retry layer: a restarted server's empty
    plan cache must cost exactly one re-install — never a double
    execution, never a stuck client."""

    def test_plan_not_found_mid_retry_reinstalls_exactly_once(
        self, network, server
    ):
        """The server dies with a hot plan confirmed in the client memo
        and comes back (mid-retry) with a wiped plan cache.  The flush
        must ride its retries into __invoke_plan__, take the typed
        PlanNotFoundError, fall back to one __install_plan__, and apply
        the batch exactly once."""
        from repro.rmi import RMIClient, RetryPolicy

        restarted = []

        def restart_between_attempts(_delay):
            # Simulated process restart: listener bounced, volatile plan
            # cache gone, durable app state (the counter) intact.
            if not restarted:
                plan_runtime_of(server).cache.clear()
                server.start()
                restarted.append(True)

        client = RMIClient(
            network, "sim://server:1099",
            retry=RetryPolicy(max_attempts=4, backoff_s=0.0),
            sleep=restart_between_attempts,
        )
        impl = CounterImpl()
        server.bind("persistent", impl)
        stub = client.lookup("persistent")
        warm_plan(stub)
        assert impl.value == 2
        installs_before = client.plan_memo.plan_installs
        assert len(plan_runtime_of(server).cache) == 1

        server.stop()

        batch = create_batch(stub, reuse_plans=True)
        future = batch.increment(1)
        batch.flush()

        assert restarted, "the flush never exercised the retry path"
        assert future.get() == 3
        assert impl.value == 3  # exactly once, across retry + reinstall
        assert client.plan_memo.plan_installs == installs_before + 1
        assert len(plan_runtime_of(server).cache) == 1  # the re-install repopulated it
        client.close()

    def test_hot_plan_after_reinstall_hits_again(self, network, server):
        """After the one-trip re-install, the very next flush of the
        same shape must be a plan-cache hit again (the memo was not
        poisoned by the restart)."""
        from repro.rmi import RMIClient, RetryPolicy

        client = RMIClient(
            network, "sim://server:1099",
            retry=RetryPolicy(max_attempts=4, backoff_s=0.0),
            sleep=lambda _s: None,
        )
        impl = CounterImpl()
        server.bind("rewarmed", impl)
        stub = client.lookup("rewarmed")
        warm_plan(stub)
        plan_runtime_of(server).cache.clear()  # restart-shaped cache loss, server up

        batch = create_batch(stub, reuse_plans=True)
        batch.increment(1)
        batch.flush()  # PlanNotFoundError -> reinstall
        hits_before = plan_runtime_of(server).cache.stats.snapshot().hits

        batch = create_batch(stub, reuse_plans=True)
        batch.increment(1)
        batch.flush()
        assert plan_runtime_of(server).cache.stats.snapshot().hits == hits_before + 1
        assert impl.value == 4
        client.close()


class TestParameterRefResolution:
    def test_remote_ref_params_resolve_per_invocation(self, network, server):
        """A stub argument is lifted as a RemoteRef parameter; each plan
        invocation must resolve it against the server's *current* object
        table, never replay a capture from install time."""
        from repro.rmi import RMIClient

        server.bind("identity", IdentityServiceImpl())
        target = CounterImpl()
        server.bind("target", target)
        client = RMIClient(network, "sim://server:1099")
        identity = client.lookup("identity")
        target_stub = client.lookup("target")

        def flush_once():
            batch = create_batch(identity, reuse_plans=True,
                                 policy=ContinuePolicy())
            future = batch.poke(target_stub)
            batch.flush()
            return future

        flush_once()
        ok = flush_once()  # plan path from here on
        assert ok.get() is not None

        server.objects.unexport(target)
        stale = flush_once()
        with pytest.raises(NoSuchObjectError):
            stale.get()
