"""Exception semantics of explicit batches (paper §3.3)."""

import pytest

from repro.core import (
    BatchAbortedError,
    ContinuePolicy,
    CustomPolicy,
    ExceptionAction,
    create_batch,
)

from tests.support import ONE_ATTEMPT, BoomError, CounterImpl, chaos_client


class TestAbortPolicy:
    def test_failing_call_rethrows_on_get(self, env):
        batch = create_batch(env.client.lookup("counter"))
        boom = batch.boom("pow")
        batch.flush()
        with pytest.raises(BoomError, match="pow"):
            boom.get()

    def test_calls_before_failure_succeed(self, env):
        batch = create_batch(env.client.lookup("counter"))
        good = batch.increment(5)
        batch.boom("pow")
        batch.flush()
        assert good.get() == 5

    def test_calls_after_failure_not_executed(self, env):
        impl = CounterImpl()
        env.server.bind("counter2", impl)
        batch = create_batch(env.client.lookup("counter2"))
        batch.increment(1)
        batch.boom("pow")
        batch.increment(1)
        batch.flush()
        assert impl.value == 1  # second increment never ran

    def test_independent_aborted_future_gets_aborted_error(self, env):
        batch = create_batch(env.client.lookup("counter"))
        batch.boom("pow")
        later = batch.current()  # independent of the failing call
        batch.flush()
        with pytest.raises(BatchAbortedError) as info:
            later.get()
        assert isinstance(info.value.__cause__, BoomError)

    def test_dependent_future_rethrows_original(self, env):
        """'the get method of a future rethrows any exception on which
        the future's value depends' — the getFile example."""
        batch = create_batch(env.client.lookup("container"))
        item = batch.get_item("nope")  # raises KeyError on the server
        name = item.name()  # depends on the failed lookup
        batch.flush()
        with pytest.raises(KeyError):
            name.get()

    def test_dependent_proxy_ok_rethrows(self, env):
        batch = create_batch(env.client.lookup("container"))
        item = batch.get_item("nope")
        batch.flush()
        with pytest.raises(KeyError):
            item.ok()

    def test_transitively_dependent_future(self, env):
        batch = create_batch(env.client.lookup("container"))
        item = batch.get_item("nope")
        partner = item.partner()
        name = partner.name()
        batch.flush()
        with pytest.raises(KeyError):
            name.get()

    def test_recording_on_failed_proxy_raises_immediately(self, env):
        batch = create_batch(env.client.lookup("container"))
        item = batch.get_item("nope")
        batch.flush_and_continue()
        with pytest.raises(KeyError):
            item.name()

    def test_argument_dependency_fails_future(self, env):
        batch = create_batch(env.client.lookup("container"))
        bad_item = batch.get_item("nope")
        adopted = batch.adopt(bad_item)  # argument depends on failed call
        batch.flush()
        with pytest.raises(KeyError):
            adopted.get()


class TestContinuePolicy:
    def test_execution_continues_after_failure(self, env):
        impl = CounterImpl()
        env.server.bind("counter3", impl)
        batch = create_batch(env.client.lookup("counter3"), policy=ContinuePolicy())
        batch.increment(1)
        boom = batch.boom("x")
        after = batch.increment(1)
        batch.flush()
        with pytest.raises(BoomError):
            boom.get()
        assert after.get() == 2
        assert impl.value == 2

    def test_dependents_of_failure_still_fail(self, env):
        batch = create_batch(env.client.lookup("container"), policy=ContinuePolicy())
        bad = batch.get_item("nope")
        name = bad.name()
        good = batch.get_item("item0")
        good_name = good.name()
        batch.flush()
        with pytest.raises(KeyError):
            name.get()
        assert good_name.get() == "item0"


class TestCustomPolicy:
    def test_break_rule_stops_batch(self, env):
        impl = CounterImpl()
        env.server.bind("counter4", impl)
        policy = CustomPolicy().set_default_action(ExceptionAction.CONTINUE)
        policy.set_action(BoomError, ExceptionAction.BREAK, method="boom")
        batch = create_batch(env.client.lookup("counter4"), policy=policy)
        batch.increment(1)
        batch.boom("stop")
        batch.increment(1)
        batch.flush()
        assert impl.value == 1

    def test_continue_rule_overrides_default_break(self, env):
        impl = CounterImpl()
        env.server.bind("counter5", impl)
        policy = CustomPolicy()  # default BREAK
        policy.set_action(BoomError, ExceptionAction.CONTINUE)
        batch = create_batch(env.client.lookup("counter5"), policy=policy)
        batch.boom("meh")
        after = batch.increment(3)
        batch.flush()
        assert after.get() == 3

    def test_repeat_rule_retries_flaky_call(self, env):
        impl = CounterImpl()
        env.server.bind("counter6", impl)
        policy = CustomPolicy().set_action(BoomError, ExceptionAction.REPEAT)
        batch = create_batch(env.client.lookup("counter6"), policy=policy)
        outcome = batch.flaky(2)  # fails twice, succeeds on 3rd attempt
        batch.flush()
        assert outcome.get() == 3

    def test_repeat_exhaustion_escalates_to_break(self, env):
        from repro.core import MAX_REPEATS

        impl = CounterImpl()
        env.server.bind("counter7", impl)
        policy = CustomPolicy().set_action(BoomError, ExceptionAction.REPEAT)
        batch = create_batch(env.client.lookup("counter7"), policy=policy)
        outcome = batch.flaky(MAX_REPEATS + 5)  # never succeeds in budget
        after = batch.increment(1)
        batch.flush()
        with pytest.raises(BoomError):
            outcome.get()
        with pytest.raises(BatchAbortedError):
            after.get()
        assert impl.value == 0

    def test_restart_reruns_batch(self, env):
        impl = CounterImpl()
        env.server.bind("counter8", impl)
        policy = CustomPolicy().set_action(BoomError, ExceptionAction.RESTART)
        batch = create_batch(env.client.lookup("counter8"), policy=policy)
        first = batch.increment(1)
        outcome = batch.flaky(1)  # fails once; restart reruns everything
        batch.flush()
        assert outcome.get() == 2  # second run's flaky call
        # increment ran twice: once per batch execution (documented
        # semantics: RESTART assumes a transactional/idempotent server).
        assert impl.value == 2
        assert first.get() == 2

    def test_restart_exhaustion_breaks(self, env):
        impl = CounterImpl()
        env.server.bind("counter9", impl)
        policy = CustomPolicy().set_action(BoomError, ExceptionAction.RESTART)
        batch = create_batch(env.client.lookup("counter9"), policy=policy)
        outcome = batch.flaky(100)  # always fails
        batch.flush()
        with pytest.raises(BoomError):
            outcome.get()


class TestCommunicationErrors:
    def test_network_errors_surface_at_flush(self, env):
        """§3.3: network errors are raised by flush, the only call that
        performs remote communication."""
        from repro.rmi import CommunicationError

        client = chaos_client(env.network, env.server.address,
                              [None, "drop-request"], retry=ONE_ATTEMPT)
        batch = create_batch(client.lookup("counter"))
        batch.increment(1)  # recording: no network, no error
        with pytest.raises(CommunicationError):
            batch.flush()

    def test_flush_can_be_retried_after_transport_error(self, env):
        from repro.rmi import CommunicationError

        client = chaos_client(env.network, env.server.address,
                              [None, "drop-request"], retry=ONE_ATTEMPT)
        batch = create_batch(client.lookup("counter"))
        future = batch.increment(2)
        with pytest.raises(CommunicationError):
            batch.flush()
        batch.flush()  # fault cleared; retry succeeds
        assert future.get() == 2
