"""Errors raised by the wire (serialization) layer."""


class WireError(Exception):
    """Base class for all serialization failures."""


class EncodeError(WireError):
    """A value could not be encoded into the wire format."""

    def __init__(self, value, reason=""):
        self.value = value
        self.reason = reason
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"cannot encode value of type {type(value).__name__!r}{detail}"
        )


class DecodeError(WireError):
    """A byte stream could not be decoded back into a value."""


class TruncatedError(DecodeError):
    """The byte stream ended before a complete value was decoded."""

    def __init__(self, needed, available):
        self.needed = needed
        self.available = available
        super().__init__(
            f"truncated stream: needed {needed} more bytes, had {available}"
        )


class UnknownTagError(DecodeError):
    """An unrecognized type tag was found in the stream."""

    def __init__(self, tag, offset):
        self.tag = tag
        self.offset = offset
        super().__init__(f"unknown wire tag {tag!r} at offset {offset}")


class UnregisteredClassError(DecodeError):
    """A class name on the wire has no registered Python class.

    Raised when decoding a registered-object or exception payload whose
    class was never registered with :mod:`repro.wire.registry` on this
    side of the connection.
    """

    def __init__(self, class_name):
        self.class_name = class_name
        super().__init__(f"class {class_name!r} is not registered for the wire")
