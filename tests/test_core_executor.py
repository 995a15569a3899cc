"""Direct unit tests of the server-side batch executor."""

import pytest

from repro.core.executor import BatchExecutor
from repro.core.policies import AbortPolicy, ContinuePolicy
from repro.core.recording import ArgRef, BatchResponse, InvocationData
from repro.rmi import MarshalError, NoSuchMethodError, RMIServer
from repro.rmi.protocol import INVOKE_BATCH
from repro.rmi.remote import interface_names

from repro.rmi import RemoteInterface, RemoteObject

from tests.support import (
    Counter,
    CounterImpl,
    IdentityServiceImpl,
    Item,
    make_container,
    make_sneaky_counter,
)


class Pair(RemoteInterface):
    def pair_item(self) -> Item: ...

    def pair_counter(self) -> Counter: ...


class PairImpl(RemoteObject, Pair):
    """Hands out an item and a counter, to be called in one batch."""

    def __init__(self, counter):
        self.item = make_container().items[0]
        self.counter = counter

    def pair_item(self):
        return self.item

    def pair_counter(self):
        return self.counter


@pytest.fixture
def executor(network):
    server = RMIServer(network, "sim://exec:1").start()
    yield BatchExecutor(server)
    server.close()


def inv(seq, method, target=0, args=(), kwargs=None, kind="value",
        cursor_seq=-1):
    return InvocationData(
        seq=seq,
        target=ArgRef(target),
        method=method,
        args=args,
        kwargs=kwargs or {},
        returns_kind=kind,
        cursor_seq=cursor_seq,
    )


class TestValidation:
    def test_rejects_non_policy(self, executor):
        with pytest.raises(MarshalError):
            executor.invoke_batch(CounterImpl(), (), policy="abort")

    def test_rejects_non_invocation_entries(self, executor):
        with pytest.raises(MarshalError):
            executor.invoke_batch(CounterImpl(), ("junk",), AbortPolicy())

    def test_rejects_non_increasing_seqs(self, executor):
        batch = (inv(2, "current"), inv(1, "current"))
        with pytest.raises(MarshalError):
            executor.invoke_batch(CounterImpl(), batch, AbortPolicy())

    def test_rejects_undeclared_method(self, executor):
        response = executor.invoke_batch(
            CounterImpl(), (inv(1, "_sneaky"),), AbortPolicy()
        )
        # Validation of the method happens per-op: the op fails.
        assert isinstance(response, BatchResponse)


class TestExecution:
    def test_results_for_value_ops(self, executor):
        target = CounterImpl()
        response = executor.invoke_batch(
            target,
            (inv(1, "increment", args=(4,)), inv(2, "current")),
            AbortPolicy(),
        )
        assert response.results == {1: 4, 2: 4}
        assert response.exceptions == {}

    def test_remote_results_not_in_response(self, executor):
        service = IdentityServiceImpl()
        response = executor.invoke_batch(
            service,
            (inv(1, "create", kind="remote"),
             inv(2, "use", args=(ArgRef(1),))),
            AbortPolicy(),
        )
        assert 1 not in response.results  # remote result stays server-side
        assert response.results[2] is True  # identity held

    def test_undeclared_method_recorded_as_failure(self, executor):
        response = executor.invoke_batch(
            CounterImpl(), (inv(1, "quack"),), AbortPolicy()
        )
        assert isinstance(response.exceptions[1], NoSuchMethodError)

    @pytest.mark.parametrize("method", ["backdoor", "_private", "name"])
    def test_only_declared_methods_are_replayed(self, executor, method):
        """Same three refusals as plain dispatch (undeclared public,
        private, declared only on a sibling's interface), cold and warm."""
        target, reached = make_sneaky_counter()
        for _ in range(2):
            response = executor.invoke_batch(
                target, (inv(1, method), inv(2, "increment", args=(1,))),
                ContinuePolicy(),
            )
            assert isinstance(response.exceptions[1], NoSuchMethodError)
            assert response.exceptions[1].interfaces == interface_names(target)
            assert response.results[2] > 0
        assert reached == []

    @pytest.mark.parametrize("sneaky_first", [False, True])
    def test_method_checks_are_per_class(self, executor, sneaky_first):
        """A batch checks each (class, name) once: ``name`` declared on
        an item does not open ``name`` on a counter in the same batch,
        whichever of the two is called first."""
        target, reached = make_sneaky_counter()
        ops = [("pair_item", "remote"), ("pair_counter", "remote")]
        if sneaky_first:
            ops.reverse()
        batch = []
        for method, kind in ops:
            seq = len(batch) + 1
            batch += [inv(seq, method, kind=kind),
                      inv(seq + 1, "name", target=seq)]
        response = executor.invoke_batch(
            PairImpl(target), tuple(batch), ContinuePolicy())
        item_seq = 2 if not sneaky_first else 4
        counter_seq = 6 - item_seq
        assert response.results == {item_seq: "item0"}
        assert isinstance(response.exceptions[counter_seq], NoSuchMethodError)
        assert reached == []

    def test_instance_level_override_is_the_one_replayed(self, executor):
        target = CounterImpl()
        batch = (inv(1, "current"),)
        assert executor.invoke_batch(target, batch, AbortPolicy()).results[1] == 0
        target.current = lambda: 41
        assert executor.invoke_batch(target, batch, AbortPolicy()).results[1] == 41

    def test_break_marks_rest_not_executed(self, executor):
        target = CounterImpl()
        response = executor.invoke_batch(
            target,
            (
                inv(1, "boom", args=("x",)),
                inv(2, "increment", args=(1,)),
                inv(3, "increment", args=(1,)),
            ),
            AbortPolicy(),
        )
        assert response.break_seq == 1
        assert response.not_executed == (2, 3)
        assert target.value == 0

    def test_dependency_on_missing_result(self, executor):
        service = IdentityServiceImpl()
        response = executor.invoke_batch(
            service,
            (
                inv(1, "create", kind="remote", args=("bad-arg",)),  # fails
                inv(2, "use", args=(ArgRef(1),)),
            ),
            AbortPolicy(),
        )
        assert 1 in response.exceptions

    def test_remote_kind_with_value_result_rejected(self, executor):
        from repro.core.errors import UnsupportedBatchOperationError

        response = executor.invoke_batch(
            CounterImpl(),
            (inv(1, "current", kind="remote"),),
            AbortPolicy(),
        )
        assert isinstance(
            response.exceptions[1], UnsupportedBatchOperationError
        )


class TestSessions:
    def test_keep_session_returns_id(self, executor):
        response = executor.invoke_batch(
            CounterImpl(), (inv(1, "current"),), AbortPolicy(),
            keep_session=True,
        )
        assert response.session_id > 0
        assert len(executor.sessions) == 1

    def test_session_objects_survive(self, executor):
        service = IdentityServiceImpl()
        first = executor.invoke_batch(
            service,
            (inv(1, "create", kind="remote"),),
            AbortPolicy(),
            keep_session=True,
        )
        second = executor.invoke_batch(
            service,
            (inv(2, "use", args=(ArgRef(1),)),),
            AbortPolicy(),
            session_id=first.session_id,
            keep_session=False,
        )
        assert second.results[2] is True
        assert len(executor.sessions) == 0

    def test_unknown_session_raises(self, executor):
        from repro.core import SessionExpiredError

        with pytest.raises(SessionExpiredError):
            executor.invoke_batch(
                CounterImpl(), (), AbortPolicy(), session_id=404
            )


class TestViaServerDispatch:
    def test_invoke_batch_reachable_on_any_object(self, env):
        """__invoke_batch__ works through the normal dispatch path, like
        the paper's invokeBatch on UnicastRemoteObject."""
        counter_ref = env.client.lookup("counter").remote_ref
        response = env.client.call(
            counter_ref.object_id,
            INVOKE_BATCH,
            ((inv(1, "increment", args=(7,)),), AbortPolicy(), -1, False),
        )
        assert isinstance(response, BatchResponse)
        assert response.results[1] == 7


def test_warm_flush_does_no_introspection(network, monkeypatch):
    """The perf lane that needs no clock: once the dispatch tables are
    compiled, a cursor flush (1 + 2 * 32 op executions, DAG-parallel)
    resolves no annotation, reads no docstring and walks no MRO — on
    the server or on the client that builds its stubs and proxies."""
    import inspect
    import typing

    from repro.apps import make_directory
    from repro.core import create_batch
    from repro.rmi import RMIClient
    from repro.rmi import remote

    server = RMIServer(network, "sim://files:1").start()
    server.bind("dir", make_directory(32, 64))
    client = RMIClient(network, "sim://files:1")

    def flush():
        root = create_batch(client.lookup("dir"), policy=ContinuePolicy())
        cursor = root.list_files()
        name, length = cursor.get_name(), cursor.length()
        root.flush()
        listing = []
        while cursor.next():
            listing.append((name.get(), length.get()))
        assert len(listing) == 32

    calls = []

    def counted(module, attribute):
        original = getattr(module, attribute)

        def wrapper(*args, **kwargs):
            calls.append(attribute)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attribute, wrapper)

    try:
        for _ in range(3):
            flush()
        counted(typing, "get_type_hints")
        counted(inspect, "getdoc")
        counted(remote, "remote_interfaces")
        for _ in range(20):
            flush()
    finally:
        client.close()
        server.close()
    assert calls == []
