"""Property-based tests: the codec is a faithful round trip."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recording import ArgRef, BatchResponse, InvocationData
from repro.rmi.protocol import CallRequest
from repro.wire import DecodeError, canonical_set_order, decode, encode
from repro.wire.encoder import (
    TAG_DICT,
    TAG_FROZENSET,
    TAG_OBJECT,
    TAG_REMOTE_REF,
    TAG_SET,
    TAG_SHARDED_REF,
)
from repro.wire.plans import ParamSlot
from repro.wire.refs import RemoteRef
from repro.wire.registry import object_to_wire

from tests.support import Point

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=False),
    st.text(max_size=64),
    st.binary(max_size=64),
)

refs = st.builds(
    RemoteRef,
    endpoint=st.text(min_size=1, max_size=16).map(lambda s: f"sim://{s}:1"),
    object_id=st.integers(min_value=0, max_value=2**31),
    interfaces=st.tuples(st.text(min_size=1, max_size=12)),
)

points = st.builds(Point, x=st.integers(), y=st.integers())

slots = st.builds(ParamSlot, index=st.integers(min_value=0, max_value=2**20))

hashables = st.one_of(
    scalars, st.tuples(st.integers(), st.text(max_size=8))
)


def trees(leaves, set_leaves=hashables):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.tuples(children, children),
            st.dictionaries(hashables, children, max_size=4),
            st.sets(set_leaves, max_size=4),
            st.frozensets(set_leaves, max_size=4),
        ),
        max_leaves=25,
    )


@given(trees(st.one_of(scalars, refs, points)))
@settings(max_examples=300, deadline=None)
def test_roundtrip_identity(value):
    assert decode(encode(value)) == value


@given(st.floats())
@settings(max_examples=200, deadline=None)
def test_float_roundtrip_bitexact(value):
    decoded = decode(encode(value))
    if math.isnan(value):
        assert math.isnan(decoded)
    else:
        assert decoded == value


@given(st.integers())
@settings(max_examples=300, deadline=None)
def test_int_roundtrip_unbounded(value):
    decoded = decode(encode(value))
    assert decoded == value
    assert type(decoded) is int


@given(trees(scalars))
@settings(max_examples=150, deadline=None)
def test_encoding_is_deterministic(value):
    assert encode(value) == encode(value)


@given(trees(
    st.one_of(scalars, refs, points, slots),
    # ParamSlot and RemoteRef are frozen/hashable, so they belong inside
    # the generated sets too — decode of a slot/ref inside a set is
    # exactly the shape plan parameters take.
    set_leaves=st.one_of(hashables, refs, slots),
))
@settings(max_examples=300, deadline=None)
def test_plan_leaves_roundtrip_in_any_container(value):
    """ParamSlot and RemoteRef survive arbitrary nesting in lists,
    tuples, dicts, sets and frozensets — the shapes plan compilation
    produces when lifting arguments out of recorded batches."""
    assert decode(encode(value)) == value


@given(
    # Unique by equality (not by type+repr): False == 0, so a list with
    # both would build a one-element set whose surviving representative —
    # and therefore its encoding — depends on insertion order.
    st.lists(st.one_of(slots, refs, hashables), min_size=1, max_size=8,
             unique=True),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_set_encoding_ignores_insertion_order(elements, rng):
    """Plan hashing depends on this: the same set contents must encode
    to the same bytes (and canonicalize to the same element order) no
    matter how the set was built."""
    shuffled = list(elements)
    rng.shuffle(shuffled)
    assert encode(set(shuffled)) == encode(set(elements))
    assert encode(frozenset(shuffled)) == encode(frozenset(elements))
    assert canonical_set_order(set(shuffled)) == canonical_set_order(
        set(elements)
    )


@given(st.sets(st.one_of(hashables, slots), max_size=8))
@settings(max_examples=200, deadline=None)
def test_canonical_order_is_a_permutation(value):
    ordered = canonical_set_order(value)
    assert len(ordered) == len(value)
    assert set(ordered) == value


@given(st.binary(max_size=256))
@settings(max_examples=300, deadline=None)
def test_decoder_never_crashes_on_garbage(data):
    """Arbitrary bytes either decode to something or raise DecodeError —
    never any other exception type."""
    try:
        decode(data)
    except DecodeError:
        pass
    except RecursionError:
        raise AssertionError("decoder recursed unboundedly")


small_ints = st.integers(min_value=0, max_value=2**20)
argrefs = st.builds(ArgRef, seq=small_ints,
                    cursor_index=st.integers(min_value=-1, max_value=64))
method_names = st.text(min_size=1, max_size=12)
wire_objects = st.one_of(
    argrefs,
    st.builds(
        InvocationData,
        seq=st.integers(min_value=1, max_value=2**20),
        target=argrefs,
        method=method_names,
        args=st.tuples(scalars, argrefs),
        kwargs=st.dictionaries(st.text(max_size=6), scalars, max_size=2),
        returns_kind=st.sampled_from(("value", "remote", "cursor")),
        cursor_seq=st.sampled_from((-1, 1, 7)),
    ),
    st.builds(CallRequest, object_id=small_ints, method=method_names,
              args=st.tuples(scalars), call_id=st.text(max_size=36)),
    st.builds(
        BatchResponse,
        results=st.dictionaries(small_ints, scalars, max_size=3),
        not_executed=st.tuples(small_ints),
        break_seq=st.integers(min_value=-1, max_value=99),
        restarts=st.integers(min_value=0, max_value=3),
    ),
)
#: The class names a mutation may swap in: the four wire classes and
#: one that no process registers.
WIRE_CLASS_NAMES = sorted(
    object_to_wire(value)[0]
    for value in (ArgRef(1), InvocationData(1, ArgRef(0), "m"),
                  CallRequest(0, "m"), BatchResponse())
) + ["no.such.Class"]


@given(wire_objects, st.sampled_from(("rename", "negative", "reclass")),
       st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_registered_objects_raise_only_decode_errors(
        value, mutation, data):
    """Well-formed bytes whose fields the class rejects — a key renamed,
    an int field made negative, the class name swapped — decode to
    something or raise DecodeError, never the constructor's TypeError
    or ValueError."""
    name, fields = object_to_wire(value)
    fields = dict(fields)
    if mutation == "rename":
        key = data.draw(st.sampled_from(sorted(fields)))
        suffix = data.draw(st.text(min_size=1, max_size=3))
        fields[key + suffix] = fields.pop(key)
    elif mutation == "negative":
        key = data.draw(st.sampled_from(sorted(
            key for key, field in fields.items()
            if type(field) is int)))
        fields[key] = -data.draw(st.integers(min_value=2, max_value=2**40))
    else:
        name = data.draw(st.sampled_from(
            [other for other in WIRE_CLASS_NAMES if other != name]))
    try:
        decode(TAG_OBJECT + encode(name) + encode(fields))
    except DecodeError:
        pass


def _u32(count):
    return count.to_bytes(4, "big")


def _wrapped(tag, values):
    """Well-framed bytes: a set, frozenset, dict or ref header around the
    encodings of *values* (a dict takes them pairwise, a ref as its
    interface names)."""
    if tag in (TAG_SET, TAG_FROZENSET):
        return tag + _u32(len(values)) + b"".join(map(encode, values))
    if tag == TAG_DICT:
        pairs = len(values) // 2
        return tag + _u32(pairs) + b"".join(map(encode, values[:2 * pairs]))
    ref = encode("sim://h:1") + encode(1) + encode(tuple(values))
    return tag + ref + (encode("0/2") if tag == TAG_SHARDED_REF else b"")


@given(st.sampled_from((TAG_SET, TAG_FROZENSET, TAG_DICT, TAG_REMOTE_REF,
                        TAG_SHARDED_REF)),
       st.lists(trees(st.one_of(scalars, refs, points, wire_objects)),
                max_size=4))
@settings(deadline=None)
def test_well_framed_headers_raise_only_decode_errors(tag, values):
    """Set members, dict keys and ref interface names that the codec
    cannot hold (a list, a dict, an object holding a dict, an int name)
    raise DecodeError; anything decoded is a usable value."""
    try:
        value = decode(_wrapped(tag, values))
    except DecodeError:
        return
    repr(value)
