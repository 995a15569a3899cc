"""Cross-cutting scenarios combining multiple subsystems at once."""

import pytest

from repro.core import ContinuePolicy, CustomPolicy, ExceptionAction, create_batch
from repro.rmi import RMIClient, RMIServer, Stub

from tests.support import (
    ONE_ATTEMPT,
    BoomError,
    CounterImpl,
    ItemImpl,
    chaos_client,
    make_container,
)


class TestMultiServer:
    def test_stub_from_other_server_as_batch_argument(self, network):
        """A batch on server A may pass a stub of server B's object; the
        executor unmarshals it as a cross-server stub and calls through."""
        server_a = RMIServer(network, "sim://a:1").start()
        server_b = RMIServer(network, "sim://b:1").start()
        container = make_container()
        server_a.bind("container", container)
        counter = CounterImpl()
        server_b.bind("counter", counter)

        client_a = RMIClient(network, "sim://a:1")
        client_b = RMIClient(network, "sim://b:1")
        foreign = client_b.lookup("counter")

        batch = create_batch(client_a.lookup("container"))
        adopted = batch.adopt(foreign)
        batch.flush()
        assert adopted.get() == "stub"
        stored = container.adopted[0]
        assert isinstance(stored, Stub)
        assert stored.increment(2) == 2
        assert counter.value == 2
        client_a.close()
        client_b.close()

    def test_batches_against_two_servers_interleaved(self, network):
        server_a = RMIServer(network, "sim://a:1").start()
        server_b = RMIServer(network, "sim://b:1").start()
        server_a.bind("counter", CounterImpl())
        server_b.bind("counter", CounterImpl())
        client = RMIClient(network, "sim://a:1")
        peer = RMIClient(network, "sim://b:1")

        batch_a = create_batch(client.lookup("counter"))
        batch_b = create_batch(peer.lookup("counter"))
        future_a = batch_a.increment(1)
        future_b = batch_b.increment(10)
        batch_b.flush()
        batch_a.flush()
        assert (future_a.get(), future_b.get()) == (1, 10)
        client.close()
        peer.close()


class TestCallbacksInBatches:
    def test_client_object_passed_by_reference_in_batch(self, network, server):
        """A client-exported object inside a batched argument becomes a
        callback stub on the server."""
        callback_server = RMIServer(network, "sim://clienthost:7000").start()
        client = RMIClient(
            network,
            "sim://server:1099",
            from_host="clienthost",
            callback_server=callback_server,
        )
        container = make_container()
        server.bind("cb-container", container)
        local = CounterImpl()
        batch = create_batch(client.lookup("cb-container"))
        adopted = batch.adopt(local)
        batch.flush()
        assert adopted.get() == "stub"
        stored = container.adopted[0]
        assert isinstance(stored, Stub)
        assert stored.increment(5) == 5
        assert local.value == 5
        client.close()
        callback_server.close()


class TestPoliciesInsideCursors:
    def test_repeat_policy_per_element(self, env):
        """REPEAT retries the failing element's sub-op in place."""
        flaky_item = ItemImpl("flaky", 1)
        calls = {"n": 0}

        def sometimes_fail():
            calls["n"] += 1
            if calls["n"] == 1:
                raise BoomError("first attempt")
            return "recovered"

        flaky_item.maybe_fail = sometimes_fail
        from tests.support import ContainerImpl

        env.server.bind("retry-items", ContainerImpl([flaky_item]))
        policy = CustomPolicy().set_action(BoomError, ExceptionAction.REPEAT)
        batch = create_batch(env.client.lookup("retry-items"), policy=policy)
        cursor = batch.all_items()
        status = cursor.maybe_fail()
        batch.flush()
        cursor.next()
        assert status.get() == "recovered"
        assert calls["n"] == 2

    def test_restart_policy_from_inside_cursor(self, env):
        attempts = {"n": 0}
        item = ItemImpl("fragile", 1)

        def fail_once():
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise BoomError("cold start")
            return "warm"

        item.maybe_fail = fail_once
        from tests.support import ContainerImpl

        env.server.bind("restart-items", ContainerImpl([item]))
        policy = CustomPolicy().set_action(BoomError, ExceptionAction.RESTART)
        batch = create_batch(env.client.lookup("restart-items"), policy=policy)
        cursor = batch.all_items()
        status = cursor.maybe_fail()
        batch.flush()
        cursor.next()
        assert status.get() == "warm"

    def test_custom_policy_matches_element_index(self, env):
        """Rules with index restrictions see the *element* index for
        cursor sub-ops."""
        env.server.bind(
            "indexed-items",
            make_container(failing_names={"item1", "item3"}),
        )
        policy = CustomPolicy()  # default BREAK...
        policy.set_action(BoomError, ExceptionAction.CONTINUE, index=1)
        batch = create_batch(env.client.lookup("indexed-items"), policy=policy)
        cursor = batch.all_items()
        status = cursor.maybe_fail()
        batch.flush()
        outcomes = []
        while cursor.next():
            try:
                outcomes.append(status.get()[:5])
            except Exception as exc:
                outcomes.append(type(exc).__name__)
        # Element 1's failure continues (rule), element 3's breaks (default).
        assert outcomes[0] == "item0"
        assert outcomes[1] == "BoomError"
        assert outcomes[2] == "item2"
        assert outcomes[3] == "BoomError"
        assert outcomes[4] == "BatchAbortedError"


class TestFaultsDuringChains:
    def test_fault_mid_chain_preserves_session_for_retry(self, env):
        from repro.rmi import CommunicationError

        # Lookup and the first flush deliver; the second flush drops.
        client = chaos_client(env.network, env.server.address,
                              [None, None, "drop-request"],
                              retry=ONE_ATTEMPT)
        batch = create_batch(client.lookup("counter"))
        batch.increment(1)
        batch.flush_and_continue()
        batch.increment(2)
        with pytest.raises(CommunicationError):
            batch.flush()
        final = batch.current()  # can keep recording after the fault...
        batch.flush()  # ...and retry the flush
        assert final.get() == 3

    def test_everything_still_consistent_after_faults(self, env):
        impl = CounterImpl()
        env.server.bind("fault-counter", impl)
        client = chaos_client(env.network, env.server.address,
                              [None, "drop-request"], retry=ONE_ATTEMPT)
        batch = create_batch(client.lookup("fault-counter"),
                             policy=ContinuePolicy())
        for i in range(5):
            batch.increment(1)
        with pytest.raises(Exception):
            batch.flush()
        batch.flush()
        assert impl.value == 5
