"""Unit tests for the batch wire data model."""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recording import (
    NONE_ID,
    ROOT_SEQ,
    ArgRef,
    BatchResponse,
    InvocationData,
)
from repro.wire import decode, encode


class TestArgRef:
    def test_defaults(self):
        ref = ArgRef(3)
        assert ref.seq == 3
        assert not ref.is_element

    def test_element_ref(self):
        ref = ArgRef(3, 7)
        assert ref.is_element
        assert ref.cursor_index == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ArgRef(-1)
        with pytest.raises(ValueError):
            ArgRef(1, -5)

    def test_wire_roundtrip(self):
        assert decode(encode(ArgRef(2, 4))) == ArgRef(2, 4)


class TestInvocationData:
    def test_construction(self):
        inv = InvocationData(1, ArgRef(ROOT_SEQ), "m", (1, "a"), {"k": 2})
        assert inv.args == (1, "a")
        assert not inv.in_cursor

    def test_cursor_membership(self):
        inv = InvocationData(
            2, ArgRef(1), "m", returns_kind="value", cursor_seq=1
        )
        assert inv.in_cursor

    def test_validation(self):
        with pytest.raises(ValueError):
            InvocationData(0, ArgRef(0), "m")  # seq must be positive
        with pytest.raises(TypeError):
            InvocationData(1, 0, "m")  # target must be ArgRef
        with pytest.raises(ValueError):
            InvocationData(1, ArgRef(0), "")
        with pytest.raises(ValueError):
            InvocationData(1, ArgRef(0), "m", returns_kind="weird")
        with pytest.raises(ValueError):
            InvocationData(1, ArgRef(0), "m", cursor_seq=0)

    def test_wire_roundtrip(self):
        inv = InvocationData(
            5, ArgRef(2), "method", (ArgRef(1), "x"), {"n": 3},
            returns_kind="remote", cursor_seq=NONE_ID,
        )
        assert decode(encode(inv)) == inv


class TestBatchResponse:
    def test_defaults(self):
        response = BatchResponse()
        assert response.results == {}
        assert response.break_seq == NONE_ID
        assert response.break_exception() is None

    def test_break_exception_from_top_level(self):
        exc = ValueError("x")
        response = BatchResponse(exceptions={3: exc}, break_seq=3)
        assert response.break_exception() is exc

    def test_break_exception_from_cursor_matrix(self):
        exc = ValueError("x")
        response = BatchResponse(
            cursor_exceptions={4: {2: exc}}, break_seq=4
        )
        assert response.break_exception() is exc

    def test_wire_roundtrip(self):
        response = BatchResponse(
            results={1: "a"},
            exceptions={2: ValueError("v")},
            cursor_lengths={3: 2},
            cursor_results={4: ["x", None]},
            cursor_exceptions={4: {1: KeyError("k")}},
            not_executed=(5, 6),
            break_seq=2,
            session_id=9,
            restarts=1,
        )
        rebuilt = decode(encode(response))
        assert rebuilt.results == {1: "a"}
        assert isinstance(rebuilt.exceptions[2], ValueError)
        assert rebuilt.cursor_lengths == {3: 2}
        assert rebuilt.cursor_results == {4: ["x", None]}
        assert isinstance(rebuilt.cursor_exceptions[4][1], KeyError)
        assert rebuilt.not_executed == (5, 6)
        assert rebuilt.session_id == 9


# -- the recorder's constructor against the checked one ------------------------


class _Pick:
    """A proxy argument, resolved at recording time to a live proxy."""

    def __init__(self, index):
        self.index = index


def _resolve(value, proxies):
    if isinstance(value, _Pick):
        return proxies[value.index % len(proxies)]
    if isinstance(value, list):
        return [_resolve(item, proxies) for item in value]
    if isinstance(value, tuple):
        return tuple(_resolve(item, proxies) for item in value)
    if isinstance(value, dict):
        return {key: _resolve(item, proxies) for key, item in value.items()}
    return value


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False), st.text(max_size=4), st.binary(max_size=4),
)
_arguments = st.recursive(
    st.one_of(_scalars, st.integers(0, 50).map(_Pick)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)
#: ``(proxy to call on, method choice, args, kwargs)``.
_steps = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 3),
              st.lists(_arguments, max_size=3),
              st.dictionaries(st.sampled_from("abc"), _arguments,
                              max_size=2)),
    min_size=1, max_size=10,
)

#: Per kind of proxy, the methods a step picks from.
_ROOT_METHODS = ("adopt", "get_item", "all_items", "item_count")
_ITEM_METHODS = ("name", "partner", "score", "partner")


def _record_steps(roots, targets, picks, steps):
    """Record *steps*: each calls a method of one of *targets*, with
    arguments whose picks resolve into *picks*; a proxy or cursor an op
    returns joins both.  A recording error (two cursors in one op, a
    closed sub-batch) only drops its step."""
    from repro.core import (
        BatchProxy,
        CursorInterleavingError,
        CursorStateError,
        UnsupportedBatchOperationError,
    )

    for target, choice, args, kwargs in steps:
        proxy = targets[target % len(targets)]
        names = _ROOT_METHODS if proxy in roots else _ITEM_METHODS
        method = getattr(proxy, names[choice])
        try:
            result = method(*_resolve(args, picks), **_resolve(kwargs, picks))
        except (CursorInterleavingError, CursorStateError,
                UnsupportedBatchOperationError):
            continue
        if isinstance(result, BatchProxy):  # a cursor is one too
            targets.append(result)
            picks.append(result)


def _assert_recorded_like_checked(recorded):
    from dataclasses import fields

    for recorder, op in recorded:
        checked = InvocationData(**{f.name: getattr(op, f.name)
                                    for f in fields(InvocationData)})
        assert op == checked
        assert type(op.args) is tuple and type(op.kwargs) is dict
        assert encode(op) == encode(checked)
        deps = set()
        for seq in op.referenced_seqs():
            deps.update(recorder._deps.get(seq, ()))
            if seq > ROOT_SEQ:
                deps.add(seq)
        assert recorder._deps[op.seq] == frozenset(deps)


@contextlib.contextmanager
def recorded_ops():
    """``(recorder, op)`` of every op recorded inside the block."""
    from repro.core.proxy import BatchRecorder

    log = []
    record = BatchRecorder.record

    def logged(self, proxy, spec, args, kwargs):
        result = record(self, proxy, spec, args, kwargs)
        log.append((self, self._segment[-1]))
        return result

    with mock.patch.object(BatchRecorder, "record", logged):
        yield log


class TestRecordedConstructor:
    """Every op the recorder builds without ``__post_init__`` equals
    the op the checked constructor builds from the same fields, encodes
    to the same bytes, and got the dependency edges ``referenced_seqs``
    gives."""

    def test_plain_batch(self):
        from repro.core import ContinuePolicy, create_batch
        from repro.net import SimNetwork
        from repro.rmi import RMIClient, RMIServer
        from tests.support import make_container

        network = SimNetwork()
        server = RMIServer(network, "sim://recorded:1").start()
        server.bind("container", make_container())
        client = RMIClient(network, server.address)

        @settings(max_examples=60, deadline=None)
        @given(steps=_steps)
        def check(steps):
            root = create_batch(client.lookup("container"),
                                policy=ContinuePolicy())
            # A flushed cursor and a proxy of its sub-batch: as targets
            # or arguments they address the current element.
            cursor = root.all_items()
            partner = cursor.partner()
            root.flush_and_continue()
            assert cursor.next()
            proxies = [root, cursor, partner]
            with recorded_ops() as recorded:
                _record_steps([root], proxies, list(proxies), steps)
            _assert_recorded_like_checked(recorded)

        try:
            check()
        finally:
            client.close()
            server.close()

    def test_cluster_batch_with_exports(self):
        """Steps record on one shard's chain and pick arguments from the
        other's as well, so a picked proxy is exported: its chain
        records an ``__export__`` op and flushes."""
        from repro.fuzz.runner import World
        from tests.support import make_container

        world = World("lan", shards=2)
        cluster = world.fresh_client()
        names = [world.shard_map.homed_name("recorded", index)
                 for index in range(2)]
        for index, name in enumerate(names):
            world.servers[index].bind(name, make_container())

        @settings(max_examples=25, deadline=None)
        @given(steps=_steps)
        def check(steps):
            batch = cluster.create_batch()
            source, sink = (batch.on(cluster.lookup(name)) for name in names)
            with recorded_ops() as recorded:
                exported = [source.get_item(f"item{i}") for i in range(3)]
                sink.adopt([exported[0]], extra={"k": (exported[1],)})
                _record_steps([sink], [sink], [source, sink] + exported,
                              steps)
            assert any(op.method == "__export__" for _r, op in recorded)
            _assert_recorded_like_checked(recorded)

        try:
            check()
        finally:
            cluster.close()
            world.close()

    def test_a_decoded_op_is_still_checked(self):
        """The wire is outside input: decoding an op with a bad
        ``returns_kind`` raises DecodeError (``TestDecoderContract``
        covers malformed structure, not a field's value)."""
        from repro.wire import DecodeError

        bad = InvocationData.recorded(1, ArgRef(ROOT_SEQ), "m", (), {},
                                      "weird", NONE_ID)
        with pytest.raises(DecodeError, match="bad returns_kind"):
            decode(encode(bad))
