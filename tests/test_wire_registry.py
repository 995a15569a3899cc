"""Unit tests for the serializable-class and exception registries."""

from dataclasses import dataclass, field

import pytest

from repro.wire import UnregisteredClassError, decode, encode
from repro.wire.registry import (
    exception_from_wire,
    exception_to_wire,
    is_serializable,
    object_from_wire,
    object_to_wire,
    qualified_name,
    register_exception,
    registered_classes,
    registered_exceptions,
    serializable,
)


@serializable
@dataclass
class Payload:
    label: str
    values: list


@serializable
@dataclass
class Tailed:
    """A dataclass with a two-field wire-optional tail."""

    total: int
    note: str = field(default="", metadata={"wire_optional": True})
    tag: int = field(default=0, metadata={"wire_optional": True})


@register_exception
class CustomBoom(Exception):
    pass


class TestSerializable:
    def test_dataclass_registration(self):
        assert is_serializable(Payload("a", [1]))
        assert qualified_name(Payload) in registered_classes()

    def test_roundtrip_through_codec(self):
        value = Payload("x", [1, 2])
        assert decode(encode(value)) == value

    def test_wire_optional_tail_roundtrip(self):
        for value in (Tailed(9), Tailed(9, "n"), Tailed(9, tag=2)):
            assert decode(encode(value)) == value

    def test_tail_left_out_at_defaults_and_written_whole_otherwise(self):
        assert object_to_wire(Tailed(9))[1] == {"total": 9}
        assert object_to_wire(Tailed(9, tag=2))[1] == {
            "total": 9, "note": "", "tag": 2,
        }
        assert len(encode(Tailed(9, tag=2))) > len(encode(Tailed(9)))

    def test_wire_optional_fields_must_trail_with_plain_defaults(self):
        with pytest.raises(TypeError, match="wire-optional"):
            @serializable
            @dataclass
            class NotLast:
                note: str = field(default="", metadata={"wire_optional": True})
                tag: int = 0

        with pytest.raises(TypeError, match="wire-optional"):
            @serializable
            @dataclass
            class NoPlainDefault:
                items: list = field(default_factory=list,
                                    metadata={"wire_optional": True})

    def test_plain_class_rejected(self):
        with pytest.raises(TypeError):
            @serializable
            class Nope:
                pass

    def test_object_to_wire_fields(self):
        name, fields = object_to_wire(Payload("a", [2]))
        assert name.endswith("Payload")
        assert fields == {"label": "a", "values": [2]}

    def test_object_from_wire_unknown_class(self):
        with pytest.raises(UnregisteredClassError):
            object_from_wire("no.such.Class", {})

    def test_object_from_wire_rebuilds(self):
        name, fields = object_to_wire(Payload("a", []))
        assert object_from_wire(name, fields) == Payload("a", [])


class TestExceptions:
    def test_registered_roundtrip(self):
        name, args = exception_to_wire(CustomBoom("why", 2))
        rebuilt = exception_from_wire(name, args)
        assert isinstance(rebuilt, CustomBoom)
        assert rebuilt.args == ("why", 2)

    def test_registry_listing(self):
        assert qualified_name(CustomBoom) in registered_exceptions()

    def test_builtins_preregistered(self):
        name, args = exception_to_wire(KeyError("k"))
        assert isinstance(exception_from_wire(name, args), KeyError)

    def test_unknown_exception_falls_back(self):
        from repro.rmi.exceptions import RemoteApplicationError

        rebuilt = exception_from_wire("ghost.Error", ("boo",))
        assert isinstance(rebuilt, RemoteApplicationError)
        assert rebuilt.original_class == "ghost.Error"

    def test_register_non_exception_rejected(self):
        with pytest.raises(TypeError):
            register_exception(str)

    def test_exception_with_bad_signature_still_rebuilds(self):
        @register_exception
        class Picky(Exception):
            def __init__(self, a, b):
                super().__init__(a, b)

        rebuilt = exception_from_wire(qualified_name(Picky), ("only-one",))
        assert isinstance(rebuilt, Picky)
        assert rebuilt.args == ("only-one",)
