"""Golden-bytes tests: the wire format is frozen, byte for byte.

The hex strings below were captured from the pre-optimization codec (the
PR-4 seed state).  The zero-copy codec must keep producing exactly these
bytes and keep decoding them to exactly these values — any drift here is
a wire-format break, not an optimization.
"""

import pytest

from repro.rmi.protocol import CallRequest, CallResponse
from repro.wire import decode, encode, frame_views
from repro.wire.plans import ParamSlot
from repro.wire.refs import RemoteRef

#: name -> (value-builder, canned hex from the seed codec)
GOLDEN = {
    "none": (lambda: None, "4e"),
    "bools": (lambda: (True, False), "55000000025446"),
    "int_small": (lambda: 42, "49000000000000002a"),
    "int_neg": (lambda: -7, "49fffffffffffffff9"),
    "int_big": (lambda: 2**80, "4a0000000b000100000000000000000000"),
    "float": (lambda: 3.5, "44400c000000000000"),
    "str": (lambda: "unié中", "5300000008756e69c3a9e4b8ad"),
    "bytes": (lambda: b"\x00\xff", "420000000200ff"),
    "empty_str": (lambda: "", "5300000000"),
    "empty_bytes": (lambda: b"", "4200000000"),
    "list": (
        lambda: [1, "two", None],
        "4c00000003490000000000000001530000000374776f4e",
    ),
    "nested": (
        lambda: {"a": (1, 2), "b": [True, {"c": set()}]},
        "4d0000000253000000016155000000024900000000000000014900000000"
        "000000025300000001624c00000002544d000000015300000001634500000000",
    ),
    "set": (
        lambda: {3, 1, 2},
        "4500000003490000000000000001490000000000000002490000000000000003",
    ),
    "ref": (
        lambda: RemoteRef("sim://h:1", 42, ("a.B", "c.D")),
        "52530000000973696d3a2f2f683a3149000000000000002a5500000002"
        "5300000003612e425300000003632e44",
    ),
    "slot": (
        lambda: ParamSlot(5),
        "4f530000001a726570726f2e776972652e706c616e732e506172616d536c6f74"
        "4d000000015300000005696e646578490000000000000005",
    ),
}

#: The u32-length-prefixed frame of encode([1, "x"]) from the seed codec.
GOLDEN_FRAMED = "000000144c00000002490000000000000001530000000178"

#: CallRequest(7, 'work', (1, 'x'), {'k': 2.5}, 'tok:1') — captured
#: BEFORE the optional trace-context fields existed.  An untraced
#: request must keep producing these exact bytes.
GOLDEN_REQUEST = (
    "4f530000001e726570726f2e726d692e70726f746f636f6c2e43616c6c52657175"
    "6573744d0000000553000000096f626a6563745f6964490000000000000007"
    "53000000066d6574686f645300000004776f726b53000000046172677355000000"
    "0249000000000000000153000000017853000000066b77617267734d0000000153"
    "000000016b444004000000000000530000000763616c6c5f69645300000005746f"
    "6b3a31"
)

#: Same request without a call_id (identical prefix, empty token).
GOLDEN_REQUEST_NO_CALL_ID = (
    GOLDEN_REQUEST[: -len("5300000005746f6b3a31")] + "5300000000"
)

#: Same request stamped with trace context ('t-1', 's-2', 's-1'): the
#: untraced bytes with the dict header bumped 5 -> 8 fields and the
#: three trace fields appended.
GOLDEN_REQUEST_TRACED = GOLDEN_REQUEST.replace(
    "4d00000005", "4d00000008", 1
) + (
    "530000000874726163655f69645300000003742d31"
    "53000000077370616e5f69645300000003732d32"
    "5300000009706172656e745f69645300000003732d31"
)

#: CallResponse('ok', False) from the seed codec.
GOLDEN_RESPONSE = (
    "4f530000001f726570726f2e726d692e70726f746f636f6c2e43616c6c52657370"
    "6f6e73654d00000002530000000576616c756553000000026f6b53000000086973"
    "5f6572726f7246"
)


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_encodes_to_canned_bytes(self, name):
        builder, canned = GOLDEN[name]
        assert encode(builder()).hex() == canned

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_canned_bytes_decode_to_value(self, name):
        builder, canned = GOLDEN[name]
        assert decode(bytes.fromhex(canned)) == builder()

    def test_exception_golden(self):
        canned = (
            "5853000000136275696c74696e732e56616c75654572726f72"
            "550000000253000000046e6f7065490000000000000003"
        )
        assert encode(ValueError("nope", 3)).hex() == canned
        decoded = decode(bytes.fromhex(canned))
        assert isinstance(decoded, ValueError)
        assert decoded.args == ("nope", 3)

    def test_framed_golden(self):
        assert b"".join(frame_views(encode([1, "x"]))).hex() == GOLDEN_FRAMED


class TestProtocolGoldenBytes:
    """The RMI messages themselves are pinned: adding the optional trace
    context must not move a single byte of an untraced request."""

    REQUEST = CallRequest(7, "work", (1, "x"), {"k": 2.5}, "tok:1")

    def test_untraced_request_bytes_are_frozen(self):
        assert encode(self.REQUEST).hex() == GOLDEN_REQUEST

    def test_untraced_request_without_call_id(self):
        request = CallRequest(7, "work", (1, "x"), {"k": 2.5})
        assert encode(request).hex() == GOLDEN_REQUEST_NO_CALL_ID

    def test_pre_trace_bytes_decode_with_default_context(self):
        decoded = decode(bytes.fromhex(GOLDEN_REQUEST))
        assert decoded == self.REQUEST
        assert decoded.trace_id == ""
        assert decoded.span_id == ""
        assert decoded.parent_id == ""

    def test_traced_request_golden(self):
        traced = CallRequest(
            7, "work", (1, "x"), {"k": 2.5}, "tok:1",
            trace_id="t-1", span_id="s-2", parent_id="s-1",
        )
        assert encode(traced).hex() == GOLDEN_REQUEST_TRACED
        assert decode(bytes.fromhex(GOLDEN_REQUEST_TRACED)) == traced

    def test_response_bytes_are_frozen(self):
        response = CallResponse("ok", False)
        assert encode(response).hex() == GOLDEN_RESPONSE
        assert decode(bytes.fromhex(GOLDEN_RESPONSE)) == response


class TestRemoteRefSubclasses:
    """A RemoteRef subclass crosses the wire as a plain RemoteRef —
    the wire has no subclass notion (and the dispatch-table refactor
    replaced the old dead second isinstance branch with exactly one
    subclass check in the fallback path)."""

    class TracedRef(RemoteRef):
        pass

    def test_subclass_encodes_as_plain_ref(self):
        ref = self.TracedRef("sim://h:1", 7, ("a.B",))
        plain = RemoteRef("sim://h:1", 7, ("a.B",))
        assert encode(ref) == encode(plain)

    def test_subclass_roundtrips_to_base_class(self):
        ref = self.TracedRef("sim://h:1", 7, ("a.B",))
        decoded = decode(encode(ref))
        assert type(decoded) is RemoteRef
        assert decoded == RemoteRef("sim://h:1", 7, ("a.B",))

    def test_subclass_nested_in_containers(self):
        ref = self.TracedRef("sim://h:1", 3)
        value = {"refs": [ref, (ref,)]}
        decoded = decode(encode(value))
        assert decoded == {
            "refs": [RemoteRef("sim://h:1", 3), (RemoteRef("sim://h:1", 3),)]
        }
