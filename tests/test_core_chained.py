"""Chained batches and server-side sessions (paper §3.5)."""

import pytest

from repro.core import (
    BatchClosedError,
    CursorStateError,
    SessionExpiredError,
    create_batch,
)
from repro.core.executor import executor_of
from repro.core.session import SessionStore

from tests.support import make_container


class TestChaining:
    def test_values_available_between_segments(self, env):
        batch = create_batch(env.client.lookup("counter"))
        first = batch.increment(5)
        batch.flush_and_continue()
        assert first.get() == 5  # decided before the chain ends
        second = batch.increment(1)
        batch.flush()
        assert second.get() == 6

    def test_remote_results_usable_across_segments(self, env):
        """The delete-if-old example shape: inspect, decide, act."""
        batch = create_batch(env.client.lookup("container"))
        item = batch.get_item("item2")
        score = item.score()
        batch.flush_and_continue()
        if score.get() > 3:
            name = item.name()
            batch.flush()
            assert name.get() == "item2"

    def test_many_segments(self, env):
        batch = create_batch(env.client.lookup("counter"))
        total = None
        for i in range(5):
            total = batch.increment(i + 1)
            batch.flush_and_continue()
        batch.flush()
        assert total.get() == 15

    def test_round_trip_per_segment(self, env):
        batch = create_batch(env.client.lookup("counter"))
        before = env.client.stats.requests
        batch.increment(1)
        batch.flush_and_continue()
        batch.increment(1)
        batch.flush()
        assert env.client.stats.requests == before + 2

    def test_closed_after_final_flush(self, env):
        batch = create_batch(env.client.lookup("counter"))
        batch.increment(1)
        batch.flush_and_continue()
        batch.flush()
        with pytest.raises(BatchClosedError):
            batch.increment(1)

    def test_empty_continue_is_free(self, env):
        batch = create_batch(env.client.lookup("counter"))
        before = env.client.stats.requests
        batch.flush_and_continue()  # nothing recorded: no round trip
        assert env.client.stats.requests == before
        future = batch.increment(1)
        batch.flush()
        assert future.get() == 1

    def test_session_discarded_after_final_flush(self, env):
        executor = executor_of(env.server)
        batch = create_batch(env.client.lookup("counter"))
        batch.increment(1)
        batch.flush_and_continue()
        assert len(executor.sessions) == 1
        batch.increment(1)
        batch.flush()
        assert len(executor.sessions) == 0

    def test_final_flush_with_no_new_ops_still_discards_session(self, env):
        executor = executor_of(env.server)
        batch = create_batch(env.client.lookup("counter"))
        batch.increment(1)
        batch.flush_and_continue()
        assert len(executor.sessions) == 1
        batch.flush()  # empty segment, but the session must die
        assert len(executor.sessions) == 0


class TestChainedCursor:
    def test_operate_on_current_element(self, env):
        """The paper's delete-all-old-files loop, on items: touch every
        item whose score exceeds a cutoff, in exactly two batches."""
        container = make_container()  # scores 3 1 4 1 5
        env.server.bind("selectable", container)
        batch = create_batch(env.client.lookup("selectable"))
        cursor = batch.all_items()
        score = cursor.score()
        batch.flush_and_continue()
        while cursor.next():
            if score.get() > 2:
                cursor.touch()
        batch.flush()
        assert [item.touches for item in container.items] == [1, 0, 1, 0, 1]

    def test_two_round_trips_total(self, env):
        env.server.bind("selectable2", make_container())
        batch = create_batch(env.client.lookup("selectable2"))
        before = env.client.stats.requests
        cursor = batch.all_items()
        score = cursor.score()
        batch.flush_and_continue()
        while cursor.next():
            if score.get() > 2:
                cursor.touch()
        batch.flush()
        assert env.client.stats.requests == before + 2

    def test_element_op_before_first_next_rejected(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        cursor.score()
        batch.flush_and_continue()
        with pytest.raises(CursorStateError):
            cursor.touch()  # no current element yet

    def test_derived_proxy_current_element_in_chain(self, env):
        """Operating on a cursor-derived proxy after flush targets the
        derivation for the *current* element."""
        container = make_container()
        env.server.bind("derived", container)
        batch = create_batch(env.client.lookup("derived"))
        cursor = batch.all_items()
        partner = cursor.partner()
        batch.flush_and_continue()
        cursor.next()  # element 0; partner is item1
        touched = partner.touch()
        batch.flush()
        assert touched.get() == 1
        assert container.items[1].touches == 1

    def test_exhausted_cursor_rejects_element_ops(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        cursor.score()
        batch.flush_and_continue()
        while cursor.next():
            pass
        with pytest.raises(CursorStateError):
            cursor.touch()


class TestSessionStore:
    def test_create_get_update_discard(self):
        store = SessionStore()
        sid = store.create({0: "root"})
        assert store.get(sid) == {0: "root"}
        store.update(sid, {0: "root", 1: "x"})
        assert store.get(sid)[1] == "x"
        store.discard(sid)
        with pytest.raises(SessionExpiredError):
            store.get(sid)

    def test_discard_is_idempotent(self):
        store = SessionStore()
        store.discard(12345)  # unknown: no error

    def test_update_unknown_session(self):
        with pytest.raises(SessionExpiredError):
            SessionStore().update(7, {})

    def test_capacity_eviction_lru(self):
        store = SessionStore(capacity=2)
        first = store.create({})
        second = store.create({})
        store.get(first)  # refresh first: second is now LRU
        third = store.create({})
        assert first in store and third in store
        assert second not in store
        assert store.evictions == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SessionStore(capacity=0)

    def test_expired_session_error_reaches_client(self, env):
        executor = executor_of(env.server)
        batch = create_batch(env.client.lookup("counter"))
        batch.increment(1)
        batch.flush_and_continue()
        # Simulate server-side eviction of the session.
        executor.sessions.discard(batch._recorder.session_id)
        batch.increment(1)
        with pytest.raises(SessionExpiredError):
            batch.flush()
