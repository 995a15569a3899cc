"""Remote interfaces and remote objects.

The shape mirrors Java RMI (paper §2):

- a *remote interface* declares the methods callable across the network —
  here, a subclass of :class:`RemoteInterface` with annotated methods;
- a *remote object* is a server-side implementation — a class deriving
  from both :class:`RemoteObject` (the ``UnicastRemoteObject`` analogue)
  and its remote interfaces;
- clients hold *stubs* and may only invoke methods declared on a remote
  interface.

Return-type annotations matter: the BRMI interface-derivation tool (paper
§3.2) reads them to decide whether a batched call yields a ``Future``, a
nested batch proxy (remote return), or a cursor (array-of-remote return).

Example::

    class File(RemoteInterface):
        def get_name(self) -> str: ...
        def get_size(self) -> int: ...

    class Directory(RemoteInterface):
        def get_file(self, name: str) -> File: ...
        def all_files(self) -> list[File]: ...
"""

from __future__ import annotations

import collections.abc
import functools
import inspect
import threading
import typing
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

#: Method names reserved by the batching layer; a remote interface must
#: not declare them or batch proxies would shadow real remote methods.
RESERVED_METHOD_NAMES = frozenset(
    {"flush", "flush_and_continue", "ok", "next"}
)

_interface_registry = {}
_registry_lock = threading.Lock()
#: Everything compiled from the registry: one memo dict per builder below.
#: A registration replaces the whole object under ``_registry_lock`` —
#: that swap is the version bump — so readers take one reference, fill it
#: lazily and never lock: an entry built from an older registry can only
#: land in an object that has already been replaced.  Dropping the object
#: also drops its class keys, so nothing here outlives the next
#: registration.
_compiled = {}


def _until_next_registration(build):
    """Memoize ``build(key)`` until an interface is registered.

    A *build* that raises stores nothing, so the next call tries again.
    """

    @functools.wraps(build)
    def lookup(key):
        compiled = _compiled
        memo = compiled.get(build)
        if memo is None:
            memo = compiled.setdefault(build, {})
        value = memo.get(key)
        if value is None:
            value = memo[key] = build(key)
        return value

    return lookup


def remote_method(*, parallel_safe: bool = False):
    """Attach spec metadata to a remote-interface method.

    ``parallel_safe=True`` declares that concurrent invocations of the
    method (against any mix of targets on one server) commute: the method
    either does not mutate shared state or guards it with its own locks,
    so the DAG scheduler may run it off the serial replay order.  The
    default is *unsafe* — parallel execution is strictly opt-in.
    """

    def mark(fn):
        fn.__parallel_safe__ = bool(parallel_safe)
        return fn

    return mark


def qualified_name(cls) -> str:
    """Wire name of an interface class."""
    return f"{cls.__module__}.{cls.__qualname__}"


class RemoteObject:
    """Base class for server-side remote objects (``UnicastRemoteObject``).

    Carries the export bookkeeping a server fills in.  Like in RMI, every
    remote object implicitly supports batched invocation: the server's
    dispatcher accepts ``__invoke_batch__`` on any exported object (the
    paper adds ``invokeBatch`` to ``UnicastRemoteObject``, §4.2).
    """

    _exported_ref = None  # set by ObjectTable.export


class RemoteInterface:
    """Base marker for remote interfaces.

    Subclasses are automatically registered by qualified name so refs
    arriving over the wire can be matched back to interface metadata.
    Classes that also derive :class:`RemoteObject` are implementations,
    not interfaces, and are excluded from the registry and from
    ``remote_interfaces``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if issubclass(cls, RemoteObject):
            return  # an implementation class, not an interface
        for name in vars(cls):
            if name in RESERVED_METHOD_NAMES:
                raise TypeError(
                    f"remote interface {cls.__name__} declares reserved "
                    f"method name {name!r} (reserved for the batch API)"
                )
        global _compiled
        with _registry_lock:
            _interface_registry[qualified_name(cls)] = cls
            _compiled = {}


def lookup_interface(name: str):
    """Resolve a registered interface class from its qualified name."""
    with _registry_lock:
        cls = _interface_registry.get(name)
    if cls is None:
        raise KeyError(f"remote interface {name!r} is not registered")
    return cls


def _class_of(obj_or_cls) -> type:
    return obj_or_cls if isinstance(obj_or_cls, type) else type(obj_or_cls)


def remote_interfaces(obj_or_cls) -> Tuple[type, ...]:
    """All remote interfaces implemented by an object or class.

    Excludes the :class:`RemoteInterface` base itself; preserves MRO
    order (most derived first).
    """
    return tuple(
        base
        for base in _class_of(obj_or_cls).__mro__
        if base is not RemoteInterface
        and isinstance(base, type)
        and issubclass(base, RemoteInterface)
        and not issubclass(base, RemoteObject)
    )


@_until_next_registration
def _interface_names(cls) -> Tuple[str, ...]:
    return tuple(qualified_name(iface) for iface in remote_interfaces(cls))


def interface_names(obj_or_cls) -> Tuple[str, ...]:
    """Qualified names of all remote interfaces of an object or class."""
    return _interface_names(_class_of(obj_or_cls))


@dataclass(frozen=True)
class MethodSpec:
    """Metadata for one remote method, derived from annotations.

    ``returns_kind`` is one of:

    - ``"value"``  — plain data, becomes ``Future[T]`` in a batch;
    - ``"remote"`` — a remote interface, becomes a nested batch proxy;
    - ``"cursor"`` — a sequence of a remote interface, becomes a cursor.
    """

    name: str
    returns_kind: str
    returns_interface: Optional[str]  # qualified name when remote/cursor
    doc: str = ""

    def __post_init__(self):
        if self.returns_kind not in ("value", "remote", "cursor"):
            raise ValueError(f"bad returns_kind {self.returns_kind!r}")
        if self.returns_kind != "value" and not self.returns_interface:
            raise ValueError(f"{self.name}: {self.returns_kind} needs an interface")


def _classify_return(annotation):
    """Map a return annotation to (kind, interface_qualified_name)."""
    if annotation is None or annotation is inspect.Signature.empty:
        return "value", None
    if isinstance(annotation, type):
        if annotation is not RemoteInterface and issubclass(
            annotation, RemoteInterface
        ):
            return "remote", qualified_name(annotation)
        return "value", None
    origin = typing.get_origin(annotation)
    # Arrays of remote interfaces become cursors (§3.2); per §3.4 this
    # "can also be extended to ... any collection object whose class
    # implements Iterable", so generic iterables qualify too.
    if origin in (
        list,
        tuple,
        collections.abc.Sequence,
        collections.abc.Iterable,
        collections.abc.Iterator,
    ):
        args = [a for a in typing.get_args(annotation) if a is not Ellipsis]
        if (
            len(args) == 1
            and isinstance(args[0], type)
            and issubclass(args[0], RemoteInterface)
        ):
            return "cursor", qualified_name(args[0])
    return "value", None


def _declared_members(iface):
    """``(name, member)`` of every remote method *iface* declares or
    inherits, base-first so a derived declaration comes last; private
    names (leading underscore) are not remote."""
    for base in reversed(iface.__mro__):
        if base in (object, RemoteInterface):
            continue
        for name, member in vars(base).items():
            if not name.startswith("_") and callable(member):
                yield name, member


@_until_next_registration
def _interface_table(iface) -> "Mapping[str, MethodSpec]":
    # Forward references in interfaces defined inside functions (common
    # in tests) cannot be resolved through module globals alone; the
    # interface registry provides every known interface by simple name.
    with _registry_lock:
        registry_names = {
            cls.__name__: cls for cls in _interface_registry.values()
        }
    specs = {}
    for name, member in _declared_members(iface):
        try:
            hints = typing.get_type_hints(member, localns=registry_names)
        except Exception as exc:  # unresolvable annotations
            raise TypeError(
                f"cannot resolve annotations of {iface.__name__}: {exc}"
            ) from exc
        kind, target = _classify_return(hints.get("return"))
        specs[name] = MethodSpec(
            name=name,
            returns_kind=kind,
            returns_interface=target,
            doc=inspect.getdoc(member) or "",
        )
    return MappingProxyType(specs)


def remote_methods(iface) -> "Mapping[str, MethodSpec]":
    """:class:`MethodSpec` for every method of a remote interface.

    Walks the MRO so extended interfaces inherit their parents' methods;
    private names (leading underscore) are not remote.  The result is a
    read-only view of the interface's compiled table, shared by every
    caller until the next registration; annotations that do not resolve
    raise ``TypeError`` and are tried again on the next call.
    """
    if not (isinstance(iface, type) and issubclass(iface, RemoteInterface)):
        raise TypeError(f"{iface!r} is not a remote interface class")
    return _interface_table(iface)


@_until_next_registration
def _class_table(cls) -> "Mapping[str, MethodSpec]":
    specs = {}
    for iface in remote_interfaces(cls):
        specs.update(remote_methods(iface))
    return MappingProxyType(specs)


def methods_of(obj_or_cls) -> "Mapping[str, MethodSpec]":
    """Union of method specs across every remote interface of an object.

    The table a call is checked against before it reaches the
    implementation — by plain RMI dispatch and by batch replay alike.
    """
    return _class_table(_class_of(obj_or_cls))


@_until_next_registration
def _parallel_safe_names(_all) -> "Mapping[str, bool]":
    """Name → safety map across every registered interface.

    The DAG scheduler checks method names before it knows which object a
    ref resolves to, so safety is the conservative AND across every
    interface declaring the name: one unsafe declaration poisons the
    name globally.  Read off the declarations, not the resolved specs,
    so an interface whose annotations do not resolve still counts.
    """
    with _registry_lock:
        interfaces = list(_interface_registry.values())
    safe = {}
    for iface in interfaces:
        for name, member in _declared_members(iface):
            flag = bool(getattr(member, "__parallel_safe__", False))
            safe[name] = safe.get(name, True) and flag
    return MappingProxyType(safe)


def method_parallel_safe(name: str) -> bool:
    """True when every registered interface declaring *name* marked it
    ``parallel_safe``; unknown names are unsafe."""
    return _parallel_safe_names(None).get(name, False)


@_until_next_registration
def _names_table(interface_qualified_names) -> "Mapping[str, MethodSpec]":
    specs = {}
    for name in interface_qualified_names:
        try:
            iface = lookup_interface(name)
        except KeyError:
            continue
        specs.update(remote_methods(iface))
    return MappingProxyType(specs)


def methods_of_names(interface_qualified_names) -> "Mapping[str, MethodSpec]":
    """Union of method specs across several interface names.

    Used by stubs, which know their interfaces only as the names carried
    by the ref.  Unregistered names are skipped (the peer may export
    interfaces this process never imported) until they register.
    """
    return _names_table(tuple(interface_qualified_names))
