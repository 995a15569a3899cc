"""Unit tests for the wire encoder/decoder: every type tag, both ways."""

import math
import sys
import threading

import pytest

from repro.wire import (
    DecodeError,
    EncodeError,
    RemoteRef,
    TruncatedError,
    UnknownTagError,
    decode,
    encode,
)

from tests.support import Point


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**62, -(2**62), 0.0, 3.5, -1e300,
         "", "hello", "unié中", b"", b"\x00\xff", 10**30, -(10**30)],
    )
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_bool_stays_bool(self):
        assert decode(encode(True)) is True
        assert decode(encode(False)) is False

    def test_int_does_not_become_bool(self):
        assert decode(encode(1)) == 1
        assert type(decode(encode(1))) is int

    def test_int64_boundaries(self):
        for value in (2**63 - 1, -(2**63), 2**63, -(2**63) - 1):
            assert decode(encode(value)) == value

    def test_float_nan(self):
        assert math.isnan(decode(encode(float("nan"))))

    def test_float_infinities(self):
        assert decode(encode(float("inf"))) == float("inf")
        assert decode(encode(float("-inf"))) == float("-inf")

    def test_bytes_from_bytearray_and_memoryview(self):
        assert decode(encode(bytearray(b"abc"))) == b"abc"
        assert decode(encode(memoryview(b"abc"))) == b"abc"


class TestContainers:
    @pytest.mark.parametrize(
        "value",
        [
            [],
            [1, "two", 3.0, None],
            (),
            (1, (2, (3,))),
            {},
            {"a": 1, 2: "b", None: [1, 2]},
            set(),
            {1, 2, 3},
            frozenset({"a", "b"}),
            [[[[1]]]],
        ],
    )
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_container_types_preserved(self):
        assert isinstance(decode(encode((1, 2))), tuple)
        assert isinstance(decode(encode([1, 2])), list)
        assert isinstance(decode(encode({1, 2})), set)
        assert isinstance(decode(encode(frozenset({1}))), frozenset)

    def test_set_encoding_deterministic(self):
        assert encode({3, 1, 2}) == encode({2, 3, 1})

    def test_mixed_type_set(self):
        value = {1, "a", 2.5}
        assert decode(encode(value)) == value

    def test_deep_nesting_rejected(self):
        value = []
        for _ in range(200):
            value = [value]
        with pytest.raises(EncodeError):
            encode(value)

    def test_dict_with_tuple_keys(self):
        value = {(1, 2): "a", (3, "x"): "b"}
        assert decode(encode(value)) == value


class TestRegisteredObjects:
    def test_dataclass_roundtrip(self):
        assert decode(encode(Point(3, -4))) == Point(3, -4)

    def test_nested_registered_object(self):
        value = {"points": [Point(0, 0), Point(1, 1)]}
        assert decode(encode(value)) == value

    def test_unregistered_object_rejected(self):
        class Plain:
            pass

        with pytest.raises(EncodeError):
            encode(Plain())

    def test_function_rejected(self):
        with pytest.raises(EncodeError):
            encode(lambda: None)


class TestExceptions:
    def test_builtin_exception_roundtrip(self):
        exc = decode(encode(ValueError("nope", 3)))
        assert isinstance(exc, ValueError)
        assert exc.args == ("nope", 3)

    def test_exception_with_unencodable_arg_degrades(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        exc = decode(encode(ValueError(Opaque())))
        assert isinstance(exc, ValueError)
        assert exc.args == ("<opaque>",)

    def test_unregistered_exception_becomes_carrier(self):
        class Oddball(Exception):
            pass

        decoded = decode(encode(Oddball("hm")))
        from repro.rmi.exceptions import RemoteApplicationError

        assert isinstance(decoded, RemoteApplicationError)
        assert "Oddball" in decoded.original_class
        assert decoded.original_args == ("hm",)


class TestRemoteRefs:
    def test_roundtrip(self):
        ref = RemoteRef("sim://h:1", 42, ("a.B", "c.D"))
        assert decode(encode(ref)) == ref

    def test_ref_nested_in_containers(self):
        ref = RemoteRef("sim://h:1", 7)
        value = [ref, {"k": ref}]
        assert decode(encode(value)) == value

    def test_ref_validation(self):
        with pytest.raises(ValueError):
            RemoteRef("", 1)
        with pytest.raises(ValueError):
            RemoteRef("sim://h:1", -1)

    def test_provides(self):
        ref = RemoteRef("sim://h:1", 1, ("pkg.Iface",))
        assert ref.provides("pkg.Iface")
        assert not ref.provides("pkg.Other")


class TestDecoderRobustness:
    def test_empty_input(self):
        with pytest.raises(DecodeError):
            decode(b"")

    def test_unknown_tag(self):
        with pytest.raises(UnknownTagError):
            decode(b"Z")

    def test_truncated_string(self):
        data = encode("hello world")[:-3]
        with pytest.raises(TruncatedError):
            decode(data)

    def test_truncated_int(self):
        with pytest.raises(TruncatedError):
            decode(b"I\x00\x00")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(DecodeError):
            decode(encode(1) + b"junk")

    def test_absurd_list_length_rejected(self):
        # Claims 2**31 items with an empty body.
        data = b"L\x7f\xff\xff\xff"
        with pytest.raises(DecodeError):
            decode(data)

    def test_invalid_utf8_rejected(self):
        data = b"S" + (3).to_bytes(4, "big") + b"\xff\xfe\xfd"
        with pytest.raises(DecodeError):
            decode(data)


#: An encoded ``InvocationData(1, ArgRef(0), "m")``: a registered object
#: whose ``kwargs`` field is a dict, so the object is unhashable.
_INVOCATION_HEX = (
    "4f5300000023726570726f2e636f72652e7265636f7264696e672e496e766f63"
    "6174696f6e446174614d00000007530000000373657149000000000000000153"
    "000000067461726765744f530000001b726570726f2e636f72652e7265636f72"
    "64696e672e4172675265664d0000000253000000037365714900000000000000"
    "00530000000c637572736f725f696e64657849ffffffffffffffff5300000006"
    "6d6574686f6453000000016d530000000461726773550000000053000000066b"
    "77617267734d00000000530000000c72657475726e735f6b696e645300000005"
    "76616c7565530000000a637572736f725f73657149ffffffffffffffff"
)


class TestDecoderContract:
    """Well-framed bytes that build a value the codec cannot hold raise
    DecodeError, like every other malformed input."""

    @pytest.mark.parametrize("wire", [
        # E 00000001 L 00000000: a set holding []
        "45000000014c00000000",
        # G 00000001 L 00000000: a frozenset holding []
        "47000000014c00000000",
        # M 00000001 L 00000000 N: a dict keyed by []
        "4d000000014c000000004e",
        # M 00000001 M 00000000 N: a dict keyed by {}
        "4d000000014d000000004e",
        # M 00000001 E 00000000 N: a dict keyed by set()
        "4d0000000145000000004e",
        # E 00000001 O...: a set holding an InvocationData
        "4500000001" + _INVOCATION_HEX,
        # R S"a" I1 U[I1]: a ref whose interface name is an int
        "525300000001614900000000000000015500000001490000000000000001",
        # r S"a" I1 U[I1] S"0/2": the same, sharded
        "725300000001614900000000000000015500000001490000000000000001"
        "5300000003302f32",
    ], ids=["set-of-list", "frozenset-of-list", "dict-keyed-by-list",
            "dict-keyed-by-dict", "dict-keyed-by-set",
            "set-of-invocation", "ref-int-interface",
            "sharded-ref-int-interface"])
    def test_raises_decode_error(self, wire):
        with pytest.raises(DecodeError):
            decode(bytes.fromhex(wire))


class TestEncodeHygiene:
    """Each message is built in its own buffer: nothing of one message
    reaches another."""

    def test_encode_error_mid_message_leaves_no_stale_bytes(self):
        class Unencodable:
            pass

        # Fails after "prefix" and 1 were already encoded.
        with pytest.raises(EncodeError):
            encode(["prefix", 1, Unencodable()])
        clean = encode(["clean"])
        assert decode(clean) == ["clean"]
        # Byte-exact: nothing from the failed message leaked in front.
        assert clean == encode(["clean"])
        assert b"prefix" not in clean

    def test_interleaved_messages_are_independent(self):
        blobs = [encode({"k": i, "payload": b"x" * i}) for i in range(50)]
        for i, blob in enumerate(blobs):
            assert decode(blob) == {"k": i, "payload": b"x" * i}

    def test_concurrent_encodes_match_serial_bytes(self):
        from repro.core.recording import ArgRef, BatchResponse, InvocationData

        values = []
        for i in range(8):
            values.append(InvocationData(
                i + 1, ArgRef(i), f"op{i}", (i, "x" * i), {"k": i}))
            values.append(BatchResponse(
                results={i: "r" * i, i + 1: [i] * i}, not_executed=(i,)))
        serial = [encode(value) for value in values]
        start = threading.Barrier(8)
        mismatches = []

        def worker(index):
            mine = values[2 * index : 2 * index + 2]
            start.wait()
            for _ in range(500):
                for value, expected in zip(mine, serial[2 * index :]):
                    if encode(value) != expected:
                        mismatches.append((index, value))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches


class TestZeroCopyEdgeCases:
    """Edge cases the zero-copy pipeline could plausibly break."""

    @pytest.mark.parametrize(
        "value",
        [[], (), {}, set(), frozenset(), "", b"", {"": b""}, [(), {}, set()]],
    )
    def test_empty_shapes_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_empty_container_at_depth_limit(self):
        # 100 wrappers put the innermost (empty) list at the limit; it
        # recurses into nothing, so it must still encode and decode.
        value = []
        for _ in range(100):
            value = [value]
        assert decode(encode(value)) == value

    def test_one_past_depth_limit_rejected(self):
        value = []
        for _ in range(101):
            value = [value]
        with pytest.raises(EncodeError):
            encode(value)

    def test_memoryview_input_encodes_as_bytes(self):
        view = memoryview(b"abcdef")
        assert encode(view) == encode(b"abcdef")
        assert decode(encode(view)) == b"abcdef"

    def test_memoryview_slice_and_cast_inputs(self):
        view = memoryview(b"abcdef")[2:5]
        assert decode(encode(view)) == b"cde"
        ints = memoryview(b"\x01\x00\x00\x00").cast("I")
        assert decode(encode(ints)) == b"\x01\x00\x00\x00"

    def test_non_contiguous_memoryview_matches_tobytes(self):
        view = memoryview(b"abcdef")[::2]
        assert decode(encode(view)) == view.tobytes()

    def test_decode_rejects_non_contiguous_view_with_decode_error(self):
        with pytest.raises(DecodeError):
            decode(memoryview(b"abcdef")[::2])

    def test_decode_from_memoryview_window(self):
        wire = encode({"k": [1, "two"]})
        padded = b"\xaa\xbb" + wire + b"\xcc"
        window = memoryview(padded)[2 : 2 + len(wire)]
        assert decode(window) == {"k": [1, "two"]}

    def test_decoded_bytes_detached_from_source_buffer(self):
        # Simulates a transport's reusable receive buffer being
        # overwritten by the next frame: decoded bytes must not change.
        source = bytearray(encode({"payload": b"sensitive"}))
        decoded = decode(memoryview(source))
        source[:] = b"\x00" * len(source)
        assert decoded == {"payload": b"sensitive"}

    def test_decoded_str_detached_from_source_buffer(self):
        source = bytearray(encode("hello"))
        decoded = decode(memoryview(source))
        source[:] = b"\x00" * len(source)
        assert decoded == "hello"

    def test_int_enum_still_encodes_as_int(self):
        import enum

        class Color(enum.IntEnum):
            RED = 3

        assert encode(Color.RED) == encode(3)
        assert decode(encode(Color.RED)) == 3

    def test_str_cache_differentiates_equal_prefix(self):
        # Repeated strings hit the encoder's memo; ensure distinct
        # strings with shared prefixes never cross wires.
        for s in ("abc", "abcd", "abc", "ab"):
            assert decode(encode(s)) == s

    def test_bigint_truncated_magnitude_rejected(self):
        wire = bytearray(encode(2**80))
        with pytest.raises(TruncatedError):
            decode(bytes(wire[:-1]))
