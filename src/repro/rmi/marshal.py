"""Parameter passing: the RMI marshalling rules.

Mirrors the semantics the paper depends on (§2, §4.4):

- a :class:`~repro.rmi.remote.RemoteObject` is marshalled as a
  :class:`~repro.wire.refs.RemoteRef` (pass by remote-reference), exported
  on the fly if needed;
- a :class:`~repro.rmi.stub.Stub` is *always* marshalled as its ref — even
  when sent to the server hosting the target object, where it will
  unmarshal back into a loopback stub rather than the object itself.
  This is Java RMI's identity quirk, which the BRMI executor fixes by
  resolving batch-local references through its own table;
- everything else is passed by copy through the wire format (registered
  serializable classes, primitives, containers).

Both the client and the server provide a :class:`MarshalContext`; charges
for stub/export work are reported through it so the simulated network can
price middleware CPU.
"""

from __future__ import annotations

from repro.net.conditions import CHARGE_REMOTE_EXPORT, CHARGE_STUB_CREATE
from repro.rmi.exceptions import MarshalError
from repro.rmi.remote import RemoteObject
from repro.rmi.stub import Stub
from repro.wire.refs import RemoteRef


#: Wire-native scalars: passed by copy as they are, after one type check.
_WIRE_SCALARS = frozenset((type(None), bool, int, float, str, bytes))


class MarshalContext:
    """What the marshaller needs from its host (client or server)."""

    def export(self, obj) -> RemoteRef:
        """Turn a local remote object into a ref (exporting if new)."""
        raise NotImplementedError

    def make_stub(self, ref: RemoteRef) -> Stub:
        """Turn an incoming ref into a live stub."""
        raise NotImplementedError

    def charge(self, kind: str, count: int = 1) -> None:
        """Report middleware CPU work to the transport."""
        raise NotImplementedError


def marshal(value, ctx: MarshalContext):
    """Convert a live value into its wire-safe form."""
    if type(value) in _WIRE_SCALARS:
        return value
    if isinstance(value, Stub):
        # RMI quirk: a stub is marshalled as itself (its ref), never
        # resolved back to the object it points at.
        return value._ref
    if isinstance(value, RemoteObject):
        ctx.charge(CHARGE_REMOTE_EXPORT)
        return ctx.export(value)
    if isinstance(value, list):
        return [marshal(item, ctx) for item in value]
    if isinstance(value, tuple):
        return tuple(marshal(item, ctx) for item in value)
    if isinstance(value, dict):
        return {marshal(k, ctx): marshal(v, ctx) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        marshalled = {marshal(item, ctx) for item in value}
        return frozenset(marshalled) if isinstance(value, frozenset) else marshalled
    return value


def unmarshal(value, ctx: MarshalContext):
    """Convert a wire value back into a live one (refs become stubs)."""
    if isinstance(value, RemoteRef):
        ctx.charge(CHARGE_STUB_CREATE)
        return ctx.make_stub(value)
    if isinstance(value, list):
        return [unmarshal(item, ctx) for item in value]
    if isinstance(value, tuple):
        return tuple(unmarshal(item, ctx) for item in value)
    if isinstance(value, dict):
        return {unmarshal(k, ctx): unmarshal(v, ctx) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        restored = {unmarshal(item, ctx) for item in value}
        return frozenset(restored) if isinstance(value, frozenset) else restored
    return value


def marshal_args(args, kwargs, ctx: MarshalContext):
    """Marshal a full argument list, wrapping failures as MarshalError."""
    try:
        wire_args = tuple(marshal(arg, ctx) for arg in args)
        wire_kwargs = {name: marshal(val, ctx) for name, val in (kwargs or {}).items()}
    except MarshalError:
        raise
    except Exception as exc:
        raise MarshalError(f"cannot marshal arguments: {exc}") from exc
    return wire_args, wire_kwargs
