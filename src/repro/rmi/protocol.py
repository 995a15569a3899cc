"""RMI protocol messages.

Only two message shapes exist, because batching rides on plain RMI: the
server treats ``__invoke_batch__`` as a method available on every exported
object (the paper adds ``invokeBatch`` to ``UnicastRemoteObject``), so a
batch is just a ``CallRequest`` whose args carry the recorded invocations.

Both shapes are registered dataclasses, which the zero-copy encoder
turns into pre-baked per-class handlers on first use: the class name,
field keys, and dict header are appended as constant byte strings, so a
request or response costs one buffer append per *value*, not per token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.wire.registry import serializable

#: Pseudo-method name the batching layer invokes on the root object.
INVOKE_BATCH = "__invoke_batch__"

#: Pseudo-method executing a cached plan: ``(plan_hash, params)``.
INVOKE_PLAN = "__invoke_plan__"

#: Pseudo-method of the plan miss protocol: ``(plan, params)`` uploads the
#: plan inline, installs it in the server's plan cache, and executes it.
INSTALL_PLAN = "__install_plan__"

#: Object id at which every server exports its naming registry.
REGISTRY_OBJECT_ID = 0


@serializable
@dataclass(frozen=True)
class CallRequest:
    """One remote invocation: which object, which method, which arguments.

    Arguments and keyword values are already marshalled (wire-safe) by the
    time a request is constructed.

    ``call_id`` is the idempotency token of the retry protocol: a client
    that may resend a request (after a disconnect or a lost response)
    stamps each *logical* call with a unique token and reuses it verbatim
    on every resend.  The server's dedup window
    (:class:`~repro.rmi.dispatch.DedupWindow`) executes each token at
    most once and replays the recorded response to duplicates, turning
    at-least-once delivery into exactly-once execution.  An empty token
    (the default) opts out: the request is dispatched unconditionally.

    ``trace_id``/``span_id``/``parent_id`` carry the optional trace
    context of :mod:`repro.obs`: a client whose trace is sampled stamps
    its send span's identity here so the server parents its own spans
    under it.  Presence on the wire *is* the sampling decision.  The
    triple is the class's wire-optional tail (see
    :func:`~repro.wire.registry.serializable`): an untraced request
    encodes to exactly the bytes it did before tracing existed (golden
    tests pin this), so a peer that predates tracing decodes it.  A
    traced request does not decode there: that peer's ``CallRequest``
    rejects the three fields it does not know.
    """

    object_id: int
    method: str
    args: Tuple = ()
    kwargs: Dict = field(default_factory=dict)
    call_id: str = ""
    trace_id: str = field(default="", metadata={"wire_optional": True})
    span_id: str = field(default="", metadata={"wire_optional": True})
    parent_id: str = field(default="", metadata={"wire_optional": True})

    def __post_init__(self):
        if not isinstance(self.object_id, int) or self.object_id < 0:
            raise ValueError(f"bad object id: {self.object_id!r}")
        if not self.method or not isinstance(self.method, str):
            raise ValueError(f"bad method name: {self.method!r}")
        if not isinstance(self.call_id, str):
            raise ValueError(f"bad call id: {self.call_id!r}")
        object.__setattr__(self, "args", tuple(self.args))


@serializable
@dataclass(frozen=True)
class CallResponse:
    """Result of one remote invocation.

    ``is_error`` distinguishes a *returned* exception object (legal data)
    from a *raised* one.
    """

    value: object = None
    is_error: bool = False

    def raise_or_return(self):
        """Raise the carried exception, or hand back the value."""
        if self.is_error:
            if isinstance(self.value, BaseException):
                raise self.value
            # A malformed error payload should still fail loudly.
            from repro.rmi.exceptions import RemoteError

            raise RemoteError(f"malformed error response: {self.value!r}")
        return self.value
