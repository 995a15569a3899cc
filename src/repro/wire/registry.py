"""Registry of classes that may cross the wire by copy.

The middleware distinguishes two kinds of reference parameters, mirroring
Java RMI (paper §2): *remote* objects are passed by remote-reference and
everything else must be *serializable*, i.e. passed by copy.  In Java,
serializability is declared by implementing ``java.io.Serializable``; here
a class opts in by registering with this module, normally through the
:func:`serializable` decorator.

Registration is by qualified class name, which is what travels on the
wire.  Both endpoints must register the same classes — exactly like Java
RMI requires both JVMs to have the class files.

Exceptions are handled the same way but kept in a separate namespace so a
malicious or buggy peer cannot smuggle an arbitrary registered object where
an exception is expected.  A small set of Python builtins is pre-registered
so unannotated application errors still round-trip usefully.
"""

from __future__ import annotations

import dataclasses
import threading

from repro.wire.errors import EncodeError, UnregisteredClassError

_lock = threading.Lock()
_classes: dict = {}
_class_names: dict = {}
_class_fields: dict = {}  # cls -> (field names, wire-optional tail)
_exceptions: dict = {}
_exception_names: dict = {}
_fallback_exception = None  # carrier for an unregistered exception


def qualified_name(cls):
    """Return the wire name for *cls* (module-qualified)."""
    return f"{cls.__module__}.{cls.__qualname__}"


def serializable(cls):
    """Class decorator registering dataclass *cls* for pass-by-copy
    transfer.  Returns the class unchanged so it can be used as a plain
    decorator::

        @serializable
        @dataclass
        class Word:
            text: str
            language: str
            dialect: str = field(default="", metadata={"wire_optional": True})

    Fields marked ``wire_optional`` form the class's *wire-optional
    tail*: while every tail field equals its default, an instance
    encodes without the tail — byte-identical to the class before the
    tail was declared — and otherwise the whole tail is written.  The
    tail must be the last fields, each with a plain default.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(
            f"{cls.__name__} must be a dataclass to be registered as "
            "serializable"
        )
    fields = dataclasses.fields(cls)
    optional = [bool(f.metadata.get("wire_optional")) for f in fields]
    start = optional.index(True) if True in optional else len(fields)
    tail = tuple((f.name, f.default) for f in fields[start:])
    if not all(optional[start:]) or any(
        default is dataclasses.MISSING for _, default in tail
    ):
        raise TypeError(
            f"{cls.__name__}: wire-optional fields must be the last fields "
            "and have plain defaults"
        )
    name = qualified_name(cls)
    # Fields are immutable per class: resolve them once here so the
    # encoder never walks dataclasses.fields() on the per-message path.
    with _lock:
        _classes[name] = cls
        _class_names[cls] = name
        _class_fields[cls] = (tuple(f.name for f in fields), tail)
    return cls


def register_exception(cls):
    """Class decorator registering an exception type for the wire.

    Registered exceptions are reconstructed as their own class on the
    receiving side; unregistered ones decode as the
    :func:`register_fallback_exception` carrier.
    """
    if not issubclass(cls, BaseException):
        raise TypeError(f"{cls.__name__} is not an exception type")
    name = qualified_name(cls)
    with _lock:
        _exceptions[name] = cls
        _exception_names[cls] = name
    return cls


def register_fallback_exception(cls):
    """:func:`register_exception`, and make *cls* the carrier an
    unregistered exception decodes as: ``cls(class_name, args)``."""
    global _fallback_exception
    _fallback_exception = register_exception(cls)
    return cls


def is_serializable(value):
    """Whether *value* is an instance of a registered copy-by-value class."""
    return type(value) in _class_names


def object_to_wire(value):
    """Break a registered object into ``(class_name, field_dict)``,
    leaving out a wire-optional tail that is all defaults."""
    cls = type(value)
    name = _class_names.get(cls)
    if name is None:
        raise EncodeError(value, "class not registered as serializable")
    field_names, tail = _class_fields[cls]
    fields = {f: getattr(value, f) for f in field_names}
    if tail and all(fields[f] == default for f, default in tail):
        for f, _ in tail:
            del fields[f]
    return name, fields


def wire_fields_of(cls):
    """``(field names, wire-optional tail)`` of a registered class, the
    tail as ``((name, default), ...)``.  The encoder uses this to
    pre-bake per-class handlers."""
    return _class_fields[cls]


def object_from_wire(class_name, fields):
    """Rebuild a registered object from its wire fields (an omitted
    wire-optional tail takes its defaults)."""
    cls = _classes.get(class_name)
    if cls is None:
        raise UnregisteredClassError(class_name)
    return cls(**fields)


def exception_to_wire(exc):
    """Break an exception into ``(class_name, args_tuple)``.

    Only registered exceptions keep their class identity; anything else is
    reported under its qualified name so the receiving side can surface a
    readable substitute.
    """
    cls = type(exc)
    name = _exception_names.get(cls, qualified_name(cls))
    args = tuple(exc.args)
    return name, args


def exception_from_wire(class_name, args):
    """Rebuild an exception; fall back to a generic carrier if unknown."""
    cls = _exceptions.get(class_name)
    if cls is not None:
        try:
            return cls(*args)
        except Exception:  # noqa: BLE001 - an __init__ that rejects its args
            exc = cls.__new__(cls)
            exc.args = args
            return exc
    return _fallback_exception(class_name, args)


def registered_classes():
    """Snapshot of registered copy-by-value class names (for tooling)."""
    with _lock:
        return sorted(_classes)


def registered_exceptions():
    """Snapshot of registered exception class names (for tooling)."""
    with _lock:
        return sorted(_exceptions)


def _register_builtin_exceptions():
    for cls in (
        ValueError,
        TypeError,
        KeyError,
        IndexError,
        RuntimeError,
        ArithmeticError,
        ZeroDivisionError,
        NotImplementedError,
        PermissionError,
        FileNotFoundError,
        LookupError,
        StopIteration,
        OSError,
        AttributeError,
    ):
        name = qualified_name(cls)
        _exceptions[name] = cls
        _exception_names[cls] = name


_register_builtin_exceptions()
