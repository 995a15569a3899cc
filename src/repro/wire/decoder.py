"""Decoder for the tagged binary wire format.

Mirror of :mod:`repro.wire.encoder`; :func:`decode` is the one entry
point.  The decoder is defensive: it bounds nesting depth, validates
lengths against the remaining buffer before allocating, and raises
:class:`~repro.wire.errors.DecodeError` subclasses rather than arbitrary
exceptions on malformed input — including well-framed bytes that build
an unhashable set member or dict key, or a remote reference whose
interface names are not strings.

The decoder normalizes its input to a ``memoryview`` and never slices
``bytes`` out of it while scanning:

- fixed-width payloads are read with ``struct.unpack_from`` straight at
  an offset — no per-token slice, no intermediate allocation;
- tags dispatch through a table indexed by the tag byte (one dict
  lookup, no if-chain walk), and container loops dispatch their items
  inline rather than re-entering the generic decode path;
- variable-width payloads (str/bytes/bigint) are viewed, not copied,
  until the moment a Python object must exist.

That makes it safe (and fast) to hand the decoder a view of a
transport's reusable receive buffer.  The one deliberate copy:
``bytes`` payloads are returned as **detached** ``bytes`` objects —
the public API promises ``bytes``, and a view pinned to a recycled
receive buffer would be silently rewritten by the next frame.
"""

from __future__ import annotations

import struct

from repro.wire import registry
from repro.wire.encoder import (
    TAG_BIGINT,
    TAG_BYTES,
    TAG_DICT,
    TAG_EXCEPTION,
    TAG_FALSE,
    TAG_FLOAT,
    TAG_FROZENSET,
    TAG_INT64,
    TAG_LIST,
    TAG_NONE,
    TAG_OBJECT,
    TAG_REMOTE_REF,
    TAG_SHARDED_REF,
    TAG_SET,
    TAG_STR,
    TAG_TRUE,
    TAG_TUPLE,
)
from repro.wire.errors import DecodeError, TruncatedError, UnknownTagError
from repro.wire.refs import RemoteRef

_MAX_DEPTH = 100

_u32 = struct.Struct(">I")
_i64 = struct.Struct(">q")
_f64 = struct.Struct(">d")

_unpack_u32 = _u32.unpack_from
_unpack_i64 = _i64.unpack_from
_unpack_f64 = _f64.unpack_from


class _Cursor:
    """:func:`decode`'s read position over a bytes-like buffer.

    Accepts ``bytes``, ``bytearray``, or any contiguous ``memoryview``
    (e.g. a window of a transport's receive buffer) without copying it.
    """

    __slots__ = ("_data", "_pos", "_len")

    def __init__(self, data):
        if type(data) in (bytes, bytearray):
            # Fast path: fresh views of bytes objects are always flat.
            view = memoryview(data)
        else:
            view = data if isinstance(data, memoryview) else memoryview(data)
            if view.format != "B" or view.ndim != 1 or not view.contiguous:
                try:
                    view = view.cast("B")
                except (TypeError, ValueError) as exc:
                    raise DecodeError(
                        f"decoder input must be a contiguous bytes-like: {exc}"
                    )
        self._data = view
        self._len = len(view)
        self._pos = 0

    def _decode(self, depth):
        if depth > _MAX_DEPTH:
            raise DecodeError(f"nesting deeper than {_MAX_DEPTH}")
        pos = self._pos
        if pos >= self._len:
            raise TruncatedError(1, 0)
        self._pos = pos + 1
        handler = _JUMP.get(self._data[pos])
        if handler is None:
            raise UnknownTagError(bytes(self._data[pos : pos + 1]), pos)
        return handler(self, depth)

    def _take_length(self):
        """Read a u32 length and bounds-check it against the remainder."""
        pos = self._pos
        avail = self._len - pos
        if avail < 4:
            raise TruncatedError(4, avail)
        (length,) = _unpack_u32(self._data, pos)
        pos += 4
        self._pos = pos
        if length > self._len - pos:
            raise TruncatedError(length, self._len - pos)
        return length

    def _expect_str(self, depth):
        value = self._decode(depth + 1)
        if not isinstance(value, str):
            raise DecodeError(f"expected string, found {type(value).__name__}")
        return value


def _decode_counted(dec, depth):
    """The shared container loop: read a u32 count, decode the items.

    The sequence containers (lists, tuples, sets, frozensets) funnel
    here, so the hot loop exists once and costs one call per
    container; dicts carry their own direct variant.  The two most
    frequent wire shapes, int64 and str, are decoded inline without a
    dispatch call; everything else goes through the jump table.

    Returns ``None`` for an empty container (the caller substitutes
    its own empty object) — which also keeps a legal empty container
    at the depth limit decodable, since the hoisted depth check is
    skipped with the loop.
    """
    data = dec._data
    size = dec._len
    pos = dec._pos
    if size - pos < 4:
        raise TruncatedError(4, size - pos)
    (count,) = _unpack_u32(data, pos)
    pos += 4
    dec._pos = pos
    if not count:
        return None
    if count > size - pos:
        # Each item needs at least a tag byte; reject absurd counts
        # before allocating.
        raise TruncatedError(count, size - pos)
    if depth > _MAX_DEPTH:
        raise DecodeError(f"nesting deeper than {_MAX_DEPTH}")
    lookup = _JUMP.get
    out = []
    append = out.append
    for _ in range(count):
        pos = dec._pos
        if pos >= size:
            raise TruncatedError(1, 0)
        tag = data[pos]
        pos += 1
        if tag == _INT64_TAG:
            if size - pos < 8:
                raise TruncatedError(8, size - pos)
            dec._pos = pos + 8
            append(_unpack_i64(data, pos)[0])
            continue
        if tag == _STR_TAG:
            if size - pos < 4:
                raise TruncatedError(4, size - pos)
            (length,) = _unpack_u32(data, pos)
            pos += 4
            end = pos + length
            if end > size:
                raise TruncatedError(length, size - pos)
            dec._pos = end
            try:
                append(str(data[pos:end], "utf-8"))
            except UnicodeDecodeError as exc:
                raise DecodeError(f"invalid utf-8 in string payload: {exc}")
            continue
        dec._pos = pos
        handler = lookup(tag)
        if handler is None:
            raise UnknownTagError(bytes(data[pos - 1 : pos]), pos - 1)
        append(handler(dec, depth))
    return out


# -- per-tag handlers (module level: dispatched by tag byte) -------------
# Bounds checks are inlined — no helper call sits between a tag and its
# payload read on the hot path.


def _decode_none(dec, depth):
    return None


def _decode_true(dec, depth):
    return True


def _decode_false(dec, depth):
    return False


def _decode_int64(dec, depth):
    pos = dec._pos
    if dec._len - pos < 8:
        raise TruncatedError(8, dec._len - pos)
    dec._pos = pos + 8
    return _unpack_i64(dec._data, pos)[0]


def _decode_bigint(dec, depth):
    length = dec._take_length()
    pos = dec._pos
    if dec._len - pos < 1:
        raise TruncatedError(1, 0)
    sign = dec._data[pos]
    pos += 1
    # Re-check: the length prefix was validated before the sign byte was
    # consumed, so a magnitude flush against the buffer end is short one.
    if length > dec._len - pos:
        raise TruncatedError(length, dec._len - pos)
    dec._pos = pos + length
    magnitude = int.from_bytes(dec._data[pos : pos + length], "big")
    return -magnitude if sign else magnitude


def _decode_float(dec, depth):
    pos = dec._pos
    if dec._len - pos < 8:
        raise TruncatedError(8, dec._len - pos)
    dec._pos = pos + 8
    return _unpack_f64(dec._data, pos)[0]


def _decode_str(dec, depth):
    size = dec._len
    pos = dec._pos
    if size - pos < 4:
        raise TruncatedError(4, size - pos)
    (length,) = _unpack_u32(dec._data, pos)
    pos += 4
    end = pos + length
    if end > size:
        raise TruncatedError(length, size - pos)
    dec._pos = end
    try:
        return str(dec._data[pos:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"invalid utf-8 in string payload: {exc}")


def _decode_bytes(dec, depth):
    size = dec._len
    pos = dec._pos
    if size - pos < 4:
        raise TruncatedError(4, size - pos)
    (length,) = _unpack_u32(dec._data, pos)
    pos += 4
    end = pos + length
    if end > size:
        raise TruncatedError(length, size - pos)
    dec._pos = end
    # Deliberate copy: the API promises detached bytes (see module doc).
    return bytes(dec._data[pos:end])


def _decode_list(dec, depth):
    out = _decode_counted(dec, depth + 1)
    return out if out is not None else []


def _decode_tuple(dec, depth):
    out = _decode_counted(dec, depth + 1)
    return tuple(out) if out is not None else ()


def _decode_set(dec, depth):
    return _hashed(set, _decode_counted(dec, depth + 1))


def _decode_frozenset(dec, depth):
    return _hashed(frozenset, _decode_counted(dec, depth + 1))


def _hashed(kind, items):
    if items is None:
        return kind()
    try:
        return kind(items)
    except TypeError as exc:  # a decoded list, dict or dict-holding object
        raise DecodeError(f"unhashable set member: {exc}") from exc


def _decode_dict(dec, depth):
    # Dicts get their own direct loop (entries land straight in the
    # result, no staging list): most messages are a lattice of small
    # field/kwargs dicts, where staging costs more than decoding.
    # Keys inline the str fast path, values str+int64 — the same pair
    # of shapes _decode_counted inlines.
    data = dec._data
    size = dec._len
    pos = dec._pos
    if size - pos < 4:
        raise TruncatedError(4, size - pos)
    (count,) = _unpack_u32(data, pos)
    dec._pos = pos + 4
    if not count:
        return {}
    depth += 1
    if depth > _MAX_DEPTH:
        raise DecodeError(f"nesting deeper than {_MAX_DEPTH}")
    lookup = _JUMP.get
    result = {}
    # The try costs nothing per entry; only a non-str key can be
    # unhashable (a decoded list, dict or dict-holding object).
    try:
        for _ in range(count):
            pos = dec._pos
            if pos >= size:
                raise TruncatedError(1, 0)
            tag = data[pos]
            pos += 1
            if tag == _STR_TAG:
                if size - pos < 4:
                    raise TruncatedError(4, size - pos)
                (length,) = _unpack_u32(data, pos)
                pos += 4
                end = pos + length
                if end > size:
                    raise TruncatedError(length, size - pos)
                dec._pos = end
                try:
                    key = str(data[pos:end], "utf-8")
                except UnicodeDecodeError as exc:
                    raise DecodeError(
                        f"invalid utf-8 in string payload: {exc}")
            else:
                dec._pos = pos
                handler = lookup(tag)
                if handler is None:
                    raise UnknownTagError(bytes(data[pos - 1 : pos]), pos - 1)
                key = handler(dec, depth)
            pos = dec._pos
            if pos >= size:
                raise TruncatedError(1, 0)
            tag = data[pos]
            pos += 1
            if tag == _INT64_TAG:
                if size - pos < 8:
                    raise TruncatedError(8, size - pos)
                dec._pos = pos + 8
                result[key] = _unpack_i64(data, pos)[0]
                continue
            if tag == _STR_TAG:
                if size - pos < 4:
                    raise TruncatedError(4, size - pos)
                (length,) = _unpack_u32(data, pos)
                pos += 4
                end = pos + length
                if end > size:
                    raise TruncatedError(length, size - pos)
                dec._pos = end
                try:
                    result[key] = str(data[pos:end], "utf-8")
                except UnicodeDecodeError as exc:
                    raise DecodeError(
                        f"invalid utf-8 in string payload: {exc}")
                continue
            dec._pos = pos
            handler = lookup(tag)
            if handler is None:
                raise UnknownTagError(bytes(data[pos - 1 : pos]), pos - 1)
            result[key] = handler(dec, depth)
    except TypeError as exc:
        raise DecodeError(f"unhashable dict key: {exc}") from exc
    return result


def _decode_object(dec, depth):
    # Well-formed objects always carry STR + DICT payloads; read them
    # directly and keep the generic path for the malformed-input errors.
    # The payloads sit one level down — same check _decode would make.
    if depth + 1 > _MAX_DEPTH:
        raise DecodeError(f"nesting deeper than {_MAX_DEPTH}")
    pos = dec._pos
    data = dec._data
    if pos < dec._len and data[pos] == _STR_TAG:
        dec._pos = pos + 1
        class_name = _decode_str(dec, depth + 1)
    else:
        class_name = dec._expect_str(depth)
    pos = dec._pos
    if pos < dec._len and data[pos] == _DICT_TAG:
        dec._pos = pos + 1
        fields = _decode_dict(dec, depth + 1)
    else:
        fields = dec._decode(depth + 1)
        if not isinstance(fields, dict):
            raise DecodeError("object payload must be a dict of fields")
    try:
        return registry.object_from_wire(class_name, fields)
    except DecodeError:
        raise
    except Exception as exc:
        # Well-formed bytes whose fields the class rejects (an unknown
        # key, a value its checks refuse) are malformed input too.
        raise DecodeError(
            f"cannot rebuild {class_name!r} from its wire fields: {exc}"
        ) from exc


def _decode_exception(dec, depth):
    class_name = dec._expect_str(depth)
    args = dec._decode(depth + 1)
    if not isinstance(args, tuple):
        raise DecodeError("exception payload must be a tuple of args")
    return registry.exception_from_wire(class_name, args)


def _decode_remote_ref(dec, depth):
    endpoint = dec._expect_str(depth)
    object_id = dec._decode(depth + 1)
    interfaces = dec._decode(depth + 1)
    if not isinstance(object_id, int) or not isinstance(interfaces, tuple):
        raise DecodeError("malformed remote reference payload")
    return _remote_ref(endpoint, object_id, interfaces)


def _decode_sharded_ref(dec, depth):
    endpoint = dec._expect_str(depth)
    object_id = dec._decode(depth + 1)
    interfaces = dec._decode(depth + 1)
    shard = dec._decode(depth + 1)
    if (not isinstance(object_id, int) or not isinstance(interfaces, tuple)
            or not isinstance(shard, str)):
        raise DecodeError("malformed sharded remote reference payload")
    return _remote_ref(endpoint, object_id, interfaces, shard)


def _remote_ref(endpoint, object_id, interfaces, shard=""):
    # Checked here, on outside input, so in-process refs pay nothing.
    for name in interfaces:
        if type(name) is not str:
            raise DecodeError(
                f"remote reference interface name is a {type(name).__name__}"
            )
    try:
        return RemoteRef(endpoint, object_id, interfaces, shard=shard)
    except ValueError as exc:  # a negative id, an empty endpoint
        raise DecodeError(f"malformed remote reference: {exc}") from exc


_INT64_TAG = TAG_INT64[0]
_STR_TAG = TAG_STR[0]
_DICT_TAG = TAG_DICT[0]

_JUMP = {
    TAG_NONE[0]: _decode_none,
    TAG_TRUE[0]: _decode_true,
    TAG_FALSE[0]: _decode_false,
    TAG_INT64[0]: _decode_int64,
    TAG_BIGINT[0]: _decode_bigint,
    TAG_FLOAT[0]: _decode_float,
    TAG_STR[0]: _decode_str,
    TAG_BYTES[0]: _decode_bytes,
    TAG_LIST[0]: _decode_list,
    TAG_TUPLE[0]: _decode_tuple,
    TAG_SET[0]: _decode_set,
    TAG_FROZENSET[0]: _decode_frozenset,
    TAG_DICT[0]: _decode_dict,
    TAG_OBJECT[0]: _decode_object,
    TAG_EXCEPTION[0]: _decode_exception,
    TAG_REMOTE_REF[0]: _decode_remote_ref,
    TAG_SHARDED_REF[0]: _decode_sharded_ref,
}


def decode(data):
    """Decode exactly one value; trailing bytes are an error."""
    dec = _Cursor(data)
    value = dec._decode(0)
    if dec._pos < dec._len:
        raise DecodeError(f"{dec._len - dec._pos} trailing bytes after value")
    return value

