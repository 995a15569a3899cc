"""Integration tests for the RMI substrate over the simulated network."""

import pytest

from repro.rmi import (
    AlreadyBoundError,
    CommunicationError,
    MarshalError,
    NoSuchMethodError,
    NoSuchObjectError,
    NotBoundError,
    RMIClient,
    RMIServer,
    Stub,
)
from repro.net.transport import ConnectionClosedError
from repro.rmi.naming import bind as naming_bind
from repro.rmi.naming import lookup as naming_lookup
from repro.rmi.naming import split_url

from tests.support import (
    BoomError,
    Counter,
    ONE_ATTEMPT,
    CounterImpl,
    Point,
    chaos_client,
    make_container,
    make_sneaky_counter,
)


class TestBasicCalls:
    def test_call_and_return(self, env):
        stub = env.client.lookup("counter")
        assert stub.increment(5) == 5
        assert stub.increment(2) == 7
        assert stub.current() == 7

    def test_application_exception_propagates_as_itself(self, env):
        stub = env.client.lookup("counter")
        with pytest.raises(BoomError, match="pow"):
            stub.boom("pow")

    def test_builtin_exception_propagates(self, env):
        stub = env.client.lookup("counter")
        with pytest.raises(TypeError):
            stub.increment("not-an-int")

    def test_serializable_arguments_pass_by_copy(self, env):
        container = make_container()
        env.server.bind("c2", container)
        stub = env.client.lookup("c2")
        name = stub.adopt(Point(1, 2))
        # Server received a copy, not the client's object.
        assert container.adopted[0] == Point(1, 2)
        assert name == "stub"

    def test_unknown_method_rejected(self, env):
        stub = env.client.lookup("counter")
        with pytest.raises(NoSuchMethodError):
            stub.does_not_exist()

    @pytest.mark.parametrize("method", ["backdoor", "_private", "name"])
    def test_only_declared_methods_reach_the_implementation(self, env, method):
        """An undeclared public method, a private name and a name only a
        sibling implementation's interface declares (``Item.name``) are
        refused by the server itself, cold and once the table is warm."""
        sneaky, reached = make_sneaky_counter()
        ref = env.server.bind("sneaky", sneaky)
        for _ in range(2):
            with pytest.raises(NoSuchMethodError) as info:
                env.client.call(ref.object_id, method)
            assert info.value.interfaces == ref.interfaces
            assert env.client.call(ref.object_id, "increment", (1,)) > 0
        assert reached == []

    def test_instance_level_override_is_the_one_called(self, env):
        impl = CounterImpl()
        ref = env.server.bind("patched", impl)
        assert env.client.call(ref.object_id, "current") == 0  # table warm
        impl.current = lambda: 41
        assert env.client.call(ref.object_id, "current") == 41

    def test_call_on_dead_object_id(self, env):
        with pytest.raises(NoSuchObjectError):
            env.client.call(9999, "anything")

    def test_kwargs_supported(self, env):
        stub = env.client.lookup("counter")
        assert stub.increment(amount=3) == 3


class TestRemoteReferences:
    def test_remote_return_becomes_stub(self, env):
        container = env.client.lookup("container")
        item = container.get_item("item0")
        assert isinstance(item, Stub)
        assert item.name() == "item0"

    def test_stub_equality_by_remote_identity(self, env):
        container = env.client.lookup("container")
        first = container.get_item("item0")
        second = container.get_item("item0")
        assert first == second
        assert hash(first) == hash(second)
        assert first != container.get_item("item1")

    def test_remote_list_return(self, env):
        container = env.client.lookup("container")
        items = container.all_items()
        assert len(items) == 5
        assert all(isinstance(item, Stub) for item in items)
        assert [item.score() for item in items] == [3, 1, 4, 1, 5]

    def test_stub_provides(self, env):
        stub = env.client.lookup("counter")
        assert stub.provides(Counter)
        assert not stub.provides("nothing.Else")


class TestRegistry:
    def test_lookup_unknown_name(self, env):
        with pytest.raises(NotBoundError):
            env.client.lookup("ghost")

    def test_list_names(self, env):
        names = env.client.list_names()
        assert {"counter", "container", "identity"} <= set(names)

    def test_remote_bind_of_stub(self, env):
        item = env.client.lookup("container").get_item("item0")
        env.client.bind("favorite", item)
        assert env.client.lookup("favorite").name() == "item0"

    def test_remote_bind_duplicate(self, env):
        item = env.client.lookup("container").get_item("item0")
        env.client.bind("dup", item)
        with pytest.raises(AlreadyBoundError):
            env.client.bind("dup", item)

    def test_server_side_rebind(self, env):
        env.server.bind("counter", CounterImpl())  # rebind semantics
        assert env.client.lookup("counter").current() == 0


class TestNaming:
    def test_split_url(self):
        assert split_url("sim://h:1/name") == ("sim://h:1", "name")
        with pytest.raises(ValueError):
            split_url("no-scheme/name")
        with pytest.raises(ValueError):
            split_url("sim://h:1")

    def test_lookup_by_url(self, env):
        stub = naming_lookup(env.network, "sim://server:1099/counter")
        assert stub.current() == 0

    def test_bind_by_url_closes_every_channel_it_opened(self, env,
                                                        monkeypatch):
        """Only the binder's own dials count: the server's loopback
        client for the bound stub is the server's to keep."""
        opened = []
        connect = env.network.connect

        def recording_connect(address, from_host="client"):
            channel = connect(address, from_host)
            if from_host == "binder":
                opened.append(channel)
            return channel

        stub = env.client.lookup("counter")
        monkeypatch.setattr(env.network, "connect", recording_connect)
        naming_bind(env.network, "sim://server:1099/again", stub,
                    from_host="binder")
        assert opened
        for channel in opened:
            with pytest.raises(ConnectionClosedError):
                channel.request(b"")
        assert env.client.lookup("again").increment(3) == 3
        assert stub.current() == 3


class TestTransportFailures:
    def test_fault_becomes_communication_error(self, env):
        client = chaos_client(env.network, env.server.address,
                              [None, "drop-request"], retry=ONE_ATTEMPT)
        stub = client.lookup("counter")
        with pytest.raises(CommunicationError):
            stub.current()
        assert stub.current() == 0  # recovers afterwards

    def test_unencodable_argument_raises_marshal_error(self, env):
        stub = env.client.lookup("counter")
        with pytest.raises(MarshalError):
            stub.increment(object())

    def test_unencodable_return_reported(self, env):
        from repro.rmi import RemoteInterface, RemoteObject

        class Evil(RemoteInterface):
            def make(self) -> object: ...

        class EvilImpl(RemoteObject, Evil):
            def make(self):
                return object()  # not serializable, not remote

        env.server.bind("evil", EvilImpl())
        with pytest.raises(MarshalError):
            env.client.lookup("evil").make()


class TestServerLifecycle:
    def test_double_start_rejected(self, network):
        server = RMIServer(network, "sim://x:1").start()
        with pytest.raises(RuntimeError):
            server.start()

    def test_stats_require_started(self, network):
        server = RMIServer(network, "sim://y:1")
        with pytest.raises(RuntimeError):
            _ = server.stats

    def test_two_servers_and_cross_references(self, network):
        """A stub from server A passed to server B comes back callable."""
        server_a = RMIServer(network, "sim://a:1").start()
        server_b = RMIServer(network, "sim://b:1").start()
        counter = CounterImpl()
        server_a.bind("counter", counter)
        container = make_container()
        server_b.bind("container", container)

        client_a = RMIClient(network, "sim://a:1")
        client_b = RMIClient(network, "sim://b:1")
        counter_stub = client_a.lookup("counter")
        # Pass server-A's stub to server B; B stores it and calls through.
        client_b.lookup("container").adopt(counter_stub)
        adopted = container.adopted[0]
        assert isinstance(adopted, Stub)
        assert adopted.increment(4) == 4
        assert counter.value == 4
