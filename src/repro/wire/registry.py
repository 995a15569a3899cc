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
_class_fields: dict = {}  # cls -> tuple of dataclass field names (or None)
_exceptions: dict = {}
_exception_names: dict = {}


def qualified_name(cls):
    """Return the wire name for *cls* (module-qualified)."""
    return f"{cls.__module__}.{cls.__qualname__}"


def serializable(cls):
    """Class decorator registering *cls* for pass-by-copy transfer.

    The class must either be a :func:`dataclasses.dataclass` or expose
    ``to_wire() -> dict`` and a ``from_wire(dict)`` classmethod.  Returns
    the class unchanged so it can be used as a plain decorator::

        @serializable
        @dataclass
        class Word:
            text: str
            language: str
    """
    if not (dataclasses.is_dataclass(cls) or _has_wire_hooks(cls)):
        raise TypeError(
            f"{cls.__name__} must be a dataclass or define to_wire/from_wire "
            "to be registered as serializable"
        )
    name = qualified_name(cls)
    # Field names are immutable per class: resolve them once here so the
    # encoder never walks dataclasses.fields() on the per-message path.
    if _has_wire_hooks(cls):
        field_names = None
    else:
        field_names = tuple(f.name for f in dataclasses.fields(cls))
    with _lock:
        _classes[name] = cls
        _class_names[cls] = name
        _class_fields[cls] = field_names
    return cls


def register_exception(cls):
    """Class decorator registering an exception type for the wire.

    Registered exceptions are reconstructed as their own class on the
    receiving side; unregistered ones decode as
    :class:`repro.rmi.exceptions.RemoteApplicationError` carrying the
    original class name and message.
    """
    if not issubclass(cls, BaseException):
        raise TypeError(f"{cls.__name__} is not an exception type")
    name = qualified_name(cls)
    with _lock:
        _exceptions[name] = cls
        _exception_names[cls] = name
    return cls


def _has_wire_hooks(cls):
    return callable(getattr(cls, "to_wire", None)) and callable(
        getattr(cls, "from_wire", None)
    )


def is_serializable(value):
    """Whether *value* is an instance of a registered copy-by-value class."""
    return type(value) in _class_names


def object_to_wire(value):
    """Break a registered object into ``(class_name, field_dict)``."""
    cls = type(value)
    name = _class_names.get(cls)
    if name is None:
        raise EncodeError(value, "class not registered as serializable")
    field_names = _class_fields.get(cls)
    if field_names is None:
        fields = value.to_wire()
    else:
        fields = {f: getattr(value, f) for f in field_names}
    return name, fields


def wire_fields_of(cls):
    """The registered field-name tuple for a dataclass, or ``None`` for
    classes using ``to_wire``/``from_wire`` hooks (and for unregistered
    classes).  The encoder uses this to pre-bake per-class handlers."""
    return _class_fields.get(cls)


def object_from_wire(class_name, fields):
    """Rebuild a registered object from its wire fields."""
    cls = _classes.get(class_name)
    if cls is None:
        raise UnregisteredClassError(class_name)
    # _class_fields discriminates hook classes (None) from dataclasses
    # without re-probing to_wire/from_wire attributes per message.
    if _class_fields.get(cls) is None:
        return cls.from_wire(fields)
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
    # Local import: exceptions module registers itself with us.
    from repro.rmi.exceptions import RemoteApplicationError

    return RemoteApplicationError(class_name, args)


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
