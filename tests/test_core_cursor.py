"""Cursor semantics: bulk operations over arrays (paper §3.4)."""

import pytest

from repro.core import (
    BatchStateError,
    ContinuePolicy,
    CursorInterleavingError,
    CursorProxy,
    UnsupportedBatchOperationError,
    create_batch,
    cursor_index,
    cursor_length,
)

from tests.support import BoomError, ContainerImpl, make_container


class TestBasicIteration:
    def test_cursor_returned_for_list_of_remote(self, env):
        batch = create_batch(env.client.lookup("container"))
        assert isinstance(batch.all_items(), CursorProxy)

    def test_iterates_every_element(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        name = cursor.name()
        score = cursor.score()
        batch.flush()
        collected = []
        while cursor.next():
            collected.append((name.get(), score.get()))
        assert collected == [
            ("item0", 3), ("item1", 1), ("item2", 4), ("item3", 1),
            ("item4", 5),
        ]

    def test_single_round_trip(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        cursor.name()
        before = env.client.stats.requests
        batch.flush()
        assert env.client.stats.requests == before + 1

    def test_next_exhausts_and_stays_false(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        cursor.name()
        batch.flush()
        count = sum(1 for _ in iter(cursor.next, False))
        assert count == 5
        assert cursor.next() is False

    def test_python_iteration_protocol(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        name = cursor.name()
        batch.flush()
        names = [name.get() for _ in cursor]
        assert names == [f"item{i}" for i in range(5)]

    def test_length_and_index_helpers(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        cursor.name()
        batch.flush()
        assert cursor_length(cursor) == 5
        assert cursor_index(cursor) == -1
        cursor.next()
        assert cursor_index(cursor) == 0

    def test_empty_collection(self, env):
        env.server.bind("empty", ContainerImpl([]))
        batch = create_batch(env.client.lookup("empty"))
        cursor = batch.all_items()
        cursor.name()
        batch.flush()
        assert cursor_length(cursor) == 0
        assert cursor.next() is False

    def test_next_before_flush_rejected(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        with pytest.raises(BatchStateError):
            cursor.next()

    def test_length_before_flush_rejected(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        with pytest.raises(BatchStateError):
            cursor_length(cursor)

    def test_server_side_effects_applied_per_element(self, env):
        container = make_container()
        env.server.bind("touchable", container)
        batch = create_batch(env.client.lookup("touchable"))
        cursor = batch.all_items()
        cursor.touch()
        batch.flush()
        assert [item.touches for item in container.items] == [1] * 5


class TestContiguity:
    def test_non_cursor_op_closes_sub_batch(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        cursor.name()
        batch.item_count()  # non-cursor op: sub-batch closes
        with pytest.raises(CursorInterleavingError):
            cursor.score()

    def test_ops_before_cursor_are_fine(self, env):
        batch = create_batch(env.client.lookup("container"))
        count = batch.item_count()
        cursor = batch.all_items()
        name = cursor.name()
        batch.flush()
        assert count.get() == 5
        cursor.next()
        assert name.get() == "item0"

    def test_two_cursors_sequential(self, env):
        batch = create_batch(env.client.lookup("container"))
        first = batch.all_items()
        first_name = first.name()
        second = batch.all_items()
        second_score = second.score()
        batch.flush()
        first.next()
        second.next()
        assert first_name.get() == "item0"
        assert second_score.get() == 3
        # Returning to the first cursor's sub-batch is interleaving.
        # (Recording, not iteration, is what the constraint governs.)

    def test_nested_cursor_rejected(self, env):
        """A cursor method on a cursor (list-of-list) is unsupported."""
        from typing import List

        from repro.rmi import RemoteInterface, RemoteObject

        class Deep(RemoteInterface):
            def groups(self) -> List["Deep"]: ...

        class DeepImpl(RemoteObject, Deep):
            def groups(self):
                return [DeepImpl()]

        env.server.bind("deep", DeepImpl())
        batch = create_batch(env.client.lookup("deep"))
        cursor = batch.groups()
        with pytest.raises(UnsupportedBatchOperationError):
            cursor.groups()


class TestCursorResults:
    def test_remote_results_per_element(self, env):
        """A remote-returning method on a cursor yields per-element
        derived objects usable within the same sub-batch."""
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        partner = cursor.partner()
        partner_name = partner.name()
        batch.flush()
        names = []
        while cursor.next():
            names.append(partner_name.get())
        assert names == ["item1", "item2", "item3", "item4", "item0"]

    def test_cursor_as_argument_repeats_per_element(self, env):
        """'Any operation that uses the cursor as a target or argument is
        repeated for each array element' (§3.4)."""
        container = make_container()
        env.server.bind("adopting", container)
        batch = create_batch(env.client.lookup("adopting"))
        cursor = batch.all_items()
        adopted = batch.adopt(cursor)
        batch.flush()
        assert len(container.adopted) == 5
        results = []
        while cursor.next():
            results.append(adopted.get())
        assert results == [f"item{i}" for i in range(5)]


class TestCursorExceptions:
    def test_element_failure_with_continue_policy(self, env):
        env.server.bind(
            "flaky-items", make_container(failing_names={"item1", "item3"})
        )
        batch = create_batch(
            env.client.lookup("flaky-items"), policy=ContinuePolicy()
        )
        cursor = batch.all_items()
        status = cursor.maybe_fail()
        name = cursor.name()
        batch.flush()
        outcomes = []
        while cursor.next():
            try:
                outcomes.append(status.get())
            except BoomError:
                outcomes.append(f"failed:{name.get()}")
        assert outcomes == [
            "item0 ok", "failed:item1", "item2 ok", "failed:item3",
            "item4 ok",
        ]

    def test_element_failure_with_abort_policy_stops_batch(self, env):
        env.server.bind(
            "fatal-items", make_container(failing_names={"item2"})
        )
        batch = create_batch(env.client.lookup("fatal-items"))
        cursor = batch.all_items()
        status = cursor.maybe_fail()
        batch.flush()
        results = []
        while cursor.next():
            try:
                results.append(status.get())
            except Exception as exc:
                results.append(type(exc).__name__)
        assert results[:3] == ["item0 ok", "item1 ok", "BoomError"]
        # Elements after the break never executed.
        from repro.core import BatchAbortedError

        assert results[3:] == ["BatchAbortedError", "BatchAbortedError"]

    def test_cursor_creation_failure_propagates(self, env):
        from repro.rmi import RemoteInterface, RemoteObject
        from typing import List
        from tests.support import Item

        class Broken(RemoteInterface):
            def all_items(self) -> List[Item]: ...

        class BrokenImpl(RemoteObject, Broken):
            def all_items(self):
                raise BoomError("cannot list")

        env.server.bind("broken", BrokenImpl())
        batch = create_batch(env.client.lookup("broken"))
        cursor = batch.all_items()
        name = cursor.name()
        partner = cursor.partner()
        batch.flush()
        with pytest.raises(BoomError):
            cursor.next()
        # The sub-batch depends on the cursor: it re-raises its failure.
        with pytest.raises(BoomError):
            name.get()
        with pytest.raises(BoomError):
            partner.ok()

    def test_failed_cursor_fails_its_sub_batch_under_continue(self, env):
        from repro.apps import make_directory

        env.server.bind("dir", make_directory(3, 300))
        batch = create_batch(env.client.lookup("dir"), policy=ContinuePolicy())
        missing = batch.get_file("nope")
        cursor = missing.list_files()
        sub = cursor.get_file("x")
        name = cursor.get_name()
        batch.flush()
        with pytest.raises(FileNotFoundError):
            cursor.ok()
        with pytest.raises(FileNotFoundError):
            sub.ok()
        with pytest.raises(FileNotFoundError):
            name.get()

    def test_aborted_cursor_fails_its_sub_batch(self, env):
        from repro.core import BatchAbortedError

        batch = create_batch(env.client.lookup("container"))
        batch.get_item("nope")  # raises; AbortPolicy stops the batch
        cursor = batch.all_items()
        name = cursor.name()
        partner = cursor.partner()
        batch.flush()
        for row in (cursor.ok, name.get, partner.ok):
            with pytest.raises(BatchAbortedError):
                row()

    def test_dependent_sub_op_fails_with_cause(self, env):
        """partner() fails for one element: name-of-partner for that
        element re-raises the partner failure."""
        from typing import List

        from repro.rmi import RemoteInterface, RemoteObject
        from tests.support import Item, ItemImpl

        class Flaky(RemoteInterface):
            def all_items(self) -> List[Item]: ...

        class FlakyImpl(RemoteObject, Flaky):
            def all_items(self):
                lonely = ItemImpl("lonely", 0)  # no partner: raises
                paired = ItemImpl("paired", 1, partner=lonely)
                return [paired, lonely]

        env.server.bind("flaky-partners", FlakyImpl())
        batch = create_batch(
            env.client.lookup("flaky-partners"), policy=ContinuePolicy()
        )
        cursor = batch.all_items()
        partner = cursor.partner()
        partner_name = partner.name()
        batch.flush()
        cursor.next()
        assert partner_name.get() == "lonely"
        cursor.next()
        with pytest.raises(LookupError):
            partner_name.get()
