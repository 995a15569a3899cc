"""Unit tests for stubs as dynamic proxies."""

import pytest

from repro.rmi.exceptions import NoSuchMethodError
from repro.rmi.remote import qualified_name
from repro.rmi.stub import Stub
from repro.wire.refs import RemoteRef

from tests.support import Counter


def make_stub(recorded, interfaces=(qualified_name(Counter),), object_id=3):
    ref = RemoteRef("sim://srv:1", object_id, interfaces)

    def invoker(object_id, method, args, kwargs):
        recorded.append((object_id, method, args, kwargs))
        return len(recorded)

    return Stub(ref, invoker)


class TestInvocation:
    def test_forwards_to_invoker(self):
        calls = []
        stub = make_stub(calls)
        stub.increment(5)
        assert calls == [(3, "increment", (5,), {})]

    def test_kwargs_forwarded(self):
        calls = []
        stub = make_stub(calls)
        stub.increment(amount=2)
        assert calls == [(3, "increment", (), {"amount": 2})]

    def test_returns_invoker_result(self):
        stub = make_stub([])
        assert stub.current() == 1

    def test_undeclared_method_rejected_locally(self):
        stub = make_stub([])
        with pytest.raises(NoSuchMethodError):
            stub.quack()

    def test_unknown_interface_allows_calls(self):
        """Refs whose interfaces aren't registered locally can't be
        validated — the server will enforce its side."""
        calls = []
        stub = make_stub(calls, interfaces=("unknown.Iface",))
        stub.mystery(1)
        assert calls[0][1] == "mystery"

    def test_underscore_attributes_are_not_remote(self):
        stub = make_stub([])
        with pytest.raises(AttributeError):
            stub._secret

    def test_method_spec_lookup(self):
        stub = make_stub([])
        assert stub.method_spec("increment").returns_kind == "value"
        with pytest.raises(NoSuchMethodError):
            stub.method_spec("quack")

    def test_method_specs_copy(self):
        stub = make_stub([])
        specs = stub.method_specs()
        specs.clear()
        assert stub.method_specs()  # internal dict unharmed

    def test_stubs_for_one_ref_share_a_table(self):
        first, second = make_stub([]), make_stub([])
        assert first._methods is second._methods
        assert first.method_specs() is not second.method_specs()
        assert first.method_specs() == dict(first._methods)


class TestIdentity:
    def test_equality_by_ref(self):
        a = make_stub([], object_id=1)
        b = make_stub([], object_id=1)
        c = make_stub([], object_id=2)
        assert a == b
        assert a != c
        assert a != "not-a-stub"

    def test_hashable(self):
        a = make_stub([], object_id=1)
        b = make_stub([], object_id=1)
        assert len({a, b}) == 1

    def test_repr_mentions_ref(self):
        assert "#3" in repr(make_stub([]))
