"""Exception hierarchy of the RMI layer.

Mirrors Java RMI's model (paper §2): remote calls can fail with a
``RemoteException`` for communication and middleware errors, while
application-level exceptions thrown by the remote method body propagate to
the caller as themselves (when registered for the wire) or as a
:class:`RemoteApplicationError` carrier otherwise.
"""

from __future__ import annotations

from repro.wire.registry import register_exception, register_fallback_exception


@register_exception
class RemoteError(Exception):
    """Base for all middleware-raised failures (``RemoteException`` in RMI).

    Application exceptions are *not* subclasses of this: they pass through
    the middleware untouched, exactly as a declared ``throws`` exception
    does in Java RMI.
    """


@register_exception
class CommunicationError(RemoteError):
    """The transport failed: connection refused, reset, injected fault.

    With explicit batching these surface from ``flush()``, the only call
    that talks to the network (paper §3.3).
    """


@register_exception
class ServerBusyError(RemoteError):
    """The server shed this request at admission control (overload).

    Raised client-side from the call (or batch ``flush()``) that was shed.
    Admission happens *before* dispatch, so a shed request never began
    executing — retrying it is always safe, even for side-effecting calls.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        super().__init__(capacity)

    def __str__(self):
        return (
            f"server busy: admission queue full "
            f"({self.capacity} requests in flight)"
        )


@register_exception
class NoSuchObjectError(RemoteError):
    """The request named an object id absent from the server's table."""

    def __init__(self, object_id):
        self.object_id = object_id
        super().__init__(object_id)

    def __str__(self):
        return f"no exported object with id {self.object_id}"


@register_exception
class WrongShardError(RemoteError):
    """A request reached a cluster server that does not own its placement.

    Every sharded server knows its own placement label; a registry
    request for a name whose :class:`~repro.cluster.ShardMap` home is a
    different shard is a routing bug and must fail loudly — silently
    dispatching to whatever object happens to occupy the local slot
    would return wrong answers, not errors.
    """

    def __init__(self, name, shard, expected):
        self.name = name
        self.shard = shard
        self.expected = expected
        super().__init__(name, shard, expected)

    def __str__(self):
        return (
            f"{self.name!r} is placed on shard {self.expected!r}; "
            f"this server is shard {self.shard!r}"
        )


@register_exception
class NoSuchMethodError(RemoteError):
    """The request named a method the target's remote interfaces lack.

    Also raised when a client tries to invoke a method that exists on the
    implementation class but is not declared in any remote interface —
    RMI's rule that clients may call remote objects only through their
    remote interfaces.
    """

    def __init__(self, method, interfaces=()):
        self.method = method
        self.interfaces = tuple(interfaces)
        super().__init__(method, self.interfaces)

    def __str__(self):
        where = " or ".join(self.interfaces) or "any remote interface"
        return f"method {self.method!r} is not declared in {where}"


@register_exception
class MarshalError(RemoteError):
    """A parameter or return value could not cross the wire."""


@register_exception
class NotExportedError(RemoteError):
    """A remote object was used before being exported by a server."""


@register_fallback_exception
class RemoteApplicationError(RemoteError):
    """Carrier for a server-side exception whose class is not registered.

    Keeps the original qualified class name and args so the client can
    still make sense of the failure (and tests can assert on it).
    """

    def __init__(self, original_class, original_args=()):
        self.original_class = original_class
        self.original_args = tuple(original_args)
        super().__init__(original_class, self.original_args)

    def __str__(self):
        rendered = ", ".join(repr(arg) for arg in self.original_args)
        return f"remote raised {self.original_class}({rendered})"


@register_exception
class PlanError(RemoteError):
    """Base for compiled-batch-plan protocol failures (see :mod:`repro.plan`)."""


@register_exception
class PlanNotFoundError(PlanError):
    """``__invoke_plan__`` named a hash absent from the server's plan cache.

    Part of the miss protocol: the client reacts by re-uploading the plan
    inline through ``__install_plan__``, which installs and executes it in
    one round trip.
    """

    def __init__(self, plan_hash):
        self.plan_hash = plan_hash
        super().__init__(plan_hash)

    def __str__(self):
        return f"no cached plan with hash {self.plan_hash!r}"


@register_exception
class PlanInvalidatedError(PlanError):
    """A cached plan can no longer run — its root object was unexported.

    Plans are content-addressed scripts, not bindings to live objects, so
    every invocation re-resolves the root (and any :class:`RemoteRef`
    parameters) afresh; this error is the typed answer when that
    re-resolution fails at the root.
    """

    def __init__(self, plan_hash, reason="the plan's root object is no longer exported"):
        self.plan_hash = plan_hash
        self.reason = reason
        super().__init__(plan_hash, reason)

    def __str__(self):
        return f"plan {self.plan_hash!r} invalidated: {self.reason}"


@register_exception
class RegistryError(RemoteError):
    """Naming-service failures (unknown or duplicate names)."""


@register_exception
class NotBoundError(RegistryError):
    """Lookup of a name with no binding."""

    def __init__(self, name):
        self.name = name
        super().__init__(name)

    def __str__(self):
        return f"no object bound under name {self.name!r}"


@register_exception
class AlreadyBoundError(RegistryError):
    """Bind over an existing name (use rebind to replace)."""

    def __init__(self, name):
        self.name = name
        super().__init__(name)

    def __str__(self):
        return f"name {self.name!r} is already bound"
