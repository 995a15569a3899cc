"""Tagged binary encoder for the wire format.

The format is a simple self-describing TLV scheme: every value starts with
a one-byte tag, followed by a fixed or length-prefixed payload.  It exists
so the simulated network can account for bytes honestly and so the TCP
transport has a real codec — the same role Java serialization plays under
Java RMI in the paper.

Supported values: ``None``, ``bool``, ``int`` (arbitrary precision),
``float``, ``str``, ``bytes``, ``list``, ``tuple``, ``dict``, ``set``,
``frozenset``, registered serializable objects (see
:mod:`repro.wire.registry`), exceptions, and :class:`~repro.wire.refs.RemoteRef`.

All multi-byte integers are big-endian.  Container lengths are u32.

:func:`encode` is the one entry point.  The byte layout is frozen
(golden-bytes tests pin it), but the implementation is built for
throughput:

- type dispatch is a ``dict[type, handler]`` lookup with an
  ``isinstance`` fallback for subclasses (exceptions, IntEnums,
  RemoteRef subclasses) — no if/elif chain walk per value; container
  handlers dispatch their items inline, one lookup + one call per item;
- the core operates on a bare ``bytearray``: no encoder-object state on
  the hot path, and tag + fixed payload (or tag + u32 length) are packed
  in a single ``struct`` call — small non-negative ints come from a
  pre-packed cache;
- ``bytes``/``bytearray``/``memoryview`` payloads append straight into
  the message buffer — no intermediate ``bytes(value)`` staging copy;
- each message is built in a fresh ``bytearray`` and copied once, into
  the immutable ``bytes`` the caller gets.  Transports frame those bytes
  by scatter-gather (:mod:`repro.wire.framing`), never by concatenation.
"""

from __future__ import annotations

import struct

from repro.wire import registry
from repro.wire.errors import EncodeError
from repro.wire.refs import RemoteRef

# One tag byte per supported shape.  Kept as module constants so the
# decoder and tests can reference them by name.
TAG_NONE = b"N"
TAG_TRUE = b"T"
TAG_FALSE = b"F"
TAG_INT64 = b"I"
TAG_BIGINT = b"J"
TAG_FLOAT = b"D"
TAG_STR = b"S"
TAG_BYTES = b"B"
TAG_LIST = b"L"
TAG_TUPLE = b"U"
TAG_DICT = b"M"
TAG_SET = b"E"
TAG_FROZENSET = b"G"
TAG_OBJECT = b"O"
TAG_EXCEPTION = b"X"
TAG_REMOTE_REF = b"R"
TAG_SHARDED_REF = b"r"

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_MAX_DEPTH = 100

# Combined tag+payload headers: one C pack call instead of two appends.
_tag_i64 = struct.Struct(">cq")
_tag_f64 = struct.Struct(">cd")
_tag_u32 = struct.Struct(">cI")

_pack_i64 = _tag_i64.pack
_pack_f64 = _tag_f64.pack
_pack_u32 = _tag_u32.pack

# Small non-negative ints dominate real traffic (object ids, counts,
# cursor indices); their 9-byte encodings are immutable — pre-pack them.
_INT_CACHE = tuple(_pack_i64(TAG_INT64, i) for i in range(256))

# Container headers for small item counts, one per container tag.
_LIST_HDRS = tuple(_pack_u32(TAG_LIST, n) for n in range(256))
_TUPLE_HDRS = tuple(_pack_u32(TAG_TUPLE, n) for n in range(256))
_DICT_HDRS = tuple(_pack_u32(TAG_DICT, n) for n in range(256))
_SET_HDRS = tuple(_pack_u32(TAG_SET, n) for n in range(256))
_FROZENSET_HDRS = tuple(_pack_u32(TAG_FROZENSET, n) for n in range(256))

# Short strings repeat heavily (method names, field keys, account ids):
# memoize their full TLV encoding.  str hashes are memoized per object,
# so a hit is one dict probe + one append.  Bounded: wiped when full.
_STR_CACHE: dict = {}
_STR_CACHE_MAX = 4096
_STR_CACHE_MAX_LEN = 64


# -- the function core: every handler appends to a bare bytearray --------


def _encode_value(buf, value, depth):
    """Append one value's encoding to *buf* (the dispatch entry point)."""
    if depth > _MAX_DEPTH:
        raise EncodeError(value, f"nesting deeper than {_MAX_DEPTH}")
    handler = _DISPATCH.get(type(value))
    if handler is not None:
        handler(buf, value, depth)
    else:
        _encode_fallback(buf, value, depth)


def _encode_fallback(buf, value, depth):
    """Subclass / registered-object path, off the exact-type table.

    Exactly one ``isinstance(value, RemoteRef)`` check lives in the
    encoder: exact refs hit the dispatch table, subclasses land here and
    are encoded as plain refs (the wire has no subclass notion), ahead
    of the registry so a ref cannot be shadowed by a registration.
    """
    if isinstance(value, BaseException):
        _encode_exception(buf, value, depth)
    elif isinstance(value, RemoteRef):
        _encode_remote_ref(buf, value, depth)
    elif registry.is_serializable(value):
        # First encounter of a registered class: bake its handler (class
        # name and field keys pre-encoded) into the dispatch table, so
        # every later instance is one table hit away.
        handler = _make_object_handler(type(value))
        _DISPATCH[type(value)] = handler
        handler(buf, value, depth)
    elif isinstance(value, int):  # bool is table-dispatched; IntEnum etc.
        _encode_int(buf, int(value), depth)
    else:
        raise EncodeError(
            value,
            "not a wire-native type and not registered via "
            "repro.wire.registry.serializable",
        )


def _encode_none(buf, value, depth):
    buf += TAG_NONE


def _encode_bool(buf, value, depth):
    buf += TAG_TRUE if value else TAG_FALSE


def _encode_int(buf, value, depth):
    if 0 <= value < 256:
        buf += _INT_CACHE[value]
    elif _INT64_MIN <= value <= _INT64_MAX:
        buf += _pack_i64(TAG_INT64, value)
    else:
        sign = 1 if value < 0 else 0
        magnitude = abs(value)
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
        buf += _pack_u32(TAG_BIGINT, len(raw))
        buf.append(sign)
        buf += raw


def _encode_float(buf, value, depth):
    buf += _pack_f64(TAG_FLOAT, value)


def _encode_str(buf, value, depth):
    pre = _STR_CACHE.get(value)
    if pre is not None:
        buf += pre
        return
    raw = value.encode("utf-8")
    if len(raw) <= _STR_CACHE_MAX_LEN:
        if len(_STR_CACHE) >= _STR_CACHE_MAX:
            _STR_CACHE.clear()
        pre = _STR_CACHE[value] = _pack_u32(TAG_STR, len(raw)) + raw
        buf += pre
    else:
        buf += _pack_u32(TAG_STR, len(raw))
        buf += raw


def _encode_bytes(buf, value, depth):
    # bytes/bytearray append directly — no bytes(value) staging copy.
    buf += _pack_u32(TAG_BYTES, len(value))
    buf += value


def _encode_memoryview(buf, value, depth):
    if value.format != "B" or value.ndim != 1 or not value.contiguous:
        try:
            value = value.cast("B")
        except (TypeError, ValueError):
            # Non-contiguous (cast refuses): linearize once.
            value = value.tobytes()
    buf += _pack_u32(TAG_BYTES, len(value))
    buf += value


# Container handlers dispatch their items inline (one dict lookup, one
# call per item) and hoist the depth check out of the per-item loop —
# all items of one container sit at the same depth, and an empty
# container at the depth limit is legal (it recurses into nothing).


def _encode_list(buf, value, depth):
    count = len(value)
    buf += _LIST_HDRS[count] if count < 256 else _pack_u32(TAG_LIST, count)
    depth += 1
    if value and depth > _MAX_DEPTH:
        raise EncodeError(value, f"nesting deeper than {_MAX_DEPTH}")
    lookup = _DISPATCH.get
    for item in value:
        handler = lookup(type(item))
        if handler is not None:
            handler(buf, item, depth)
        else:
            _encode_fallback(buf, item, depth)


def _encode_tuple(buf, value, depth):
    count = len(value)
    buf += _TUPLE_HDRS[count] if count < 256 else _pack_u32(TAG_TUPLE, count)
    depth += 1
    if value and depth > _MAX_DEPTH:
        raise EncodeError(value, f"nesting deeper than {_MAX_DEPTH}")
    lookup = _DISPATCH.get
    for item in value:
        handler = lookup(type(item))
        if handler is not None:
            handler(buf, item, depth)
        else:
            _encode_fallback(buf, item, depth)


def _encode_dict(buf, value, depth):
    count = len(value)
    buf += _DICT_HDRS[count] if count < 256 else _pack_u32(TAG_DICT, count)
    depth += 1
    if value and depth > _MAX_DEPTH:
        raise EncodeError(value, f"nesting deeper than {_MAX_DEPTH}")
    lookup = _DISPATCH.get
    for key, item in value.items():
        handler = lookup(type(key))
        if handler is not None:
            handler(buf, key, depth)
        else:
            _encode_fallback(buf, key, depth)
        handler = lookup(type(item))
        if handler is not None:
            handler(buf, item, depth)
        else:
            _encode_fallback(buf, item, depth)


def _encode_set(buf, value, depth):
    _encode_set_items(buf, TAG_SET, _SET_HDRS, value, depth)


def _encode_frozenset(buf, value, depth):
    _encode_set_items(buf, TAG_FROZENSET, _FROZENSET_HDRS, value, depth)


def _encode_set_items(buf, tag, hdrs, value, depth):
    count = len(value)
    buf += hdrs[count] if count < 256 else _pack_u32(tag, count)
    depth += 1
    if value and depth > _MAX_DEPTH:
        raise EncodeError(value, f"nesting deeper than {_MAX_DEPTH}")
    lookup = _DISPATCH.get
    for item in canonical_set_order(value):
        handler = lookup(type(item))
        if handler is not None:
            handler(buf, item, depth)
        else:
            _encode_fallback(buf, item, depth)


def _encode_remote_ref(buf, ref, depth):
    # Shard-less refs keep the frozen 3-field "R" layout byte for byte;
    # a shard label selects the 4-field "r" variant instead of growing
    # the old tag (its field list has no length prefix to extend).
    buf += TAG_SHARDED_REF if ref.shard else TAG_REMOTE_REF
    depth += 1
    _encode_value(buf, ref.endpoint, depth)
    _encode_value(buf, ref.object_id, depth)
    _encode_value(buf, ref.interfaces, depth)
    if ref.shard:
        _encode_value(buf, ref.shard, depth)


def _pre_encode_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _pack_u32(TAG_STR, len(raw)) + raw


def _make_object_handler(cls):
    """Build a dispatch-table handler for one registered class.

    The wire name, field-name keys and dict header never change for a
    given class, so they are encoded once here and appended as
    pre-baked byte strings per instance.  Byte layout is identical to
    encoding :func:`~repro.wire.registry.object_to_wire`'s dict.  Only
    a class with a wire-optional tail pays for checking it.
    """
    name_pre = _pre_encode_str(registry.qualified_name(cls))
    field_names, tail = registry.wire_fields_of(cls)
    with_tail = _fields_handler(name_pre, field_names)
    if not tail:
        return with_tail
    without_tail = _fields_handler(name_pre, field_names[:-len(tail)])

    def handler(buf, value, depth):
        for name, default in tail:
            if getattr(value, name) != default:
                with_tail(buf, value, depth)
                return
        without_tail(buf, value, depth)

    return handler


def _fields_handler(name_pre, field_names):
    """The handler writing *field_names* of an instance, pre-baked."""
    prefix = bytes(TAG_OBJECT + name_pre + _pack_u32(TAG_DICT, len(field_names)))
    pre_keys = tuple((_pre_encode_str(name), name) for name in field_names)

    def handler(buf, value, depth):
        # The class-name string and field dict sit at depth+1, the field
        # keys/values at depth+2 — mirror the generic path's checks.
        if depth + 1 > _MAX_DEPTH:
            raise EncodeError(value, f"nesting deeper than {_MAX_DEPTH}")
        buf += prefix
        if not pre_keys:
            return
        depth += 2
        if depth > _MAX_DEPTH:
            raise EncodeError(value, f"nesting deeper than {_MAX_DEPTH}")
        lookup = _DISPATCH.get
        for key_pre, name in pre_keys:
            buf += key_pre
            item = getattr(value, name)
            item_handler = lookup(type(item))
            if item_handler is not None:
                item_handler(buf, item, depth)
            else:
                _encode_fallback(buf, item, depth)

    return handler


def _encode_exception(buf, exc, depth):
    class_name, args = registry.exception_to_wire(exc)
    # Exception args may themselves be un-encodable objects; degrade
    # them to their repr rather than failing the whole response.
    safe_args = []
    for arg in args:
        try:
            _encode_value(bytearray(), arg, depth + 1)
        except EncodeError:
            safe_args.append(repr(arg))
        else:
            safe_args.append(arg)
    buf += TAG_EXCEPTION
    _encode_value(buf, class_name, depth + 1)
    _encode_value(buf, tuple(safe_args), depth + 1)


_DISPATCH = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    memoryview: _encode_memoryview,
    list: _encode_list,
    tuple: _encode_tuple,
    dict: _encode_dict,
    set: _encode_set,
    frozenset: _encode_frozenset,
    RemoteRef: _encode_remote_ref,
}


def _set_sort_key(item):
    # Deterministic encoding of sets regardless of hash seed.  Mixed-type
    # sets sort by (type name, repr) which is stable enough for the wire.
    return (type(item).__name__, repr(item))


def canonical_set_order(values) -> list:
    """The codec's deterministic iteration order for set members.

    Public because anything that derives identity from encoded bytes —
    the plan compiler numbers parameter slots while walking arguments —
    must walk sets in exactly the order the encoder will.
    """
    return sorted(values, key=_set_sort_key)


def encode(value) -> bytes:
    """Encode a single value to bytes."""
    buf = bytearray()
    _encode_value(buf, value, 0)
    return bytes(buf)
