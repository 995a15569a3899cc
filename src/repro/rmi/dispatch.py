"""The transport-agnostic RMI dispatch core.

:class:`RMICore` owns everything a server needs *except* a listener: the
exported-object table, the naming registry at object id 0, the marshalling
context, and the request dispatcher that routes ordinary calls and the
pseudo-methods the layers above register (the batch layer's
``__invoke_batch__``, the plan layer's ``__invoke_plan__`` and
``__install_plan__``).

The single entry point is :meth:`RMICore.handle` — bytes in, bytes out,
never raises.  It is **re-entrant**: any number of transport threads (the
thread-per-connection TCP listener, the asyncio runtime's worker pool, or
a test calling it directly) may invoke it concurrently.  All shared state
behind it is individually locked: the object table, the plan cache, the
session store, and the loopback-client map.

The core knows nothing of batching: each layer registers its
pseudo-methods when imported and keeps what it builds in ``layers``.

Both server front-ends build on this core: :class:`~repro.rmi.server.
RMIServer` adds a synchronous listener lifecycle, and the asyncio runtime
(:mod:`repro.aio`) drives the same core from its bounded worker pool.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.net.stats import CounterSet
from repro.net.transport import Channel, host_of
from repro.obs.context import TraceContext
from repro.obs.hints import take_queue_wait
from repro.obs.tracer import current_tracer
from repro.rmi.exceptions import (
    CommunicationError,
    MarshalError,
    NoSuchMethodError,
)
from repro.rmi.marshal import MarshalContext, marshal, unmarshal
from repro.rmi.objects import ObjectTable
from repro.rmi.protocol import REGISTRY_OBJECT_ID, CallRequest, CallResponse
from repro.rmi.registry import RegistryImpl
from repro.rmi.remote import interface_names, methods_of
from repro.rmi.stub import Stub
from repro.wire import decode, encode, framing
from repro.wire.refs import RemoteRef


#: Idempotency tokens the dedup window remembers (LRU past this).
DEFAULT_DEDUP_CAPACITY = 4096

#: Seconds a duplicate waits for the original execution to finish.
DEFAULT_DEDUP_WAIT = 30.0

#: Pseudo-method name -> ``(arity, serve)``, filled by the layers above.
_pseudo_methods = {}


def register_pseudo_method(name: str, arity: int, serve) -> None:
    """Make *name* callable on every exported object of every core.

    A request for it is answered by ``serve(core, request)``, but only
    with exactly *arity* positional arguments: only the protocol's own
    fields reach *serve*, so a hostile extra positional (e.g. the
    executor's internal ``validated`` flag) cannot be injected from the
    wire.
    """
    _pseudo_methods[name] = (arity, serve)


class _DedupEntry:
    """A token still executing: the latch its duplicates wait on and the
    slot its owner leaves the response in for them."""

    __slots__ = ("ready", "response")

    def __init__(self):
        self.ready = threading.Event()
        self.response = None


class DedupWindow:
    """Single-flight, capacity-bounded exactly-once window.

    Keyed by the client's idempotency token (``CallRequest.call_id``).
    The first arrival of a token *owns* it and executes; concurrent and
    later duplicates wait on the owner's latch and replay the recorded
    response bytes without re-dispatching — a retried batch flush (or
    plan invocation) whose original response was lost in flight never
    runs its side effects twice.

    A token has two states: a :class:`_DedupEntry` while it executes,
    then the response bytes alone — a finished token has nobody left to
    wake, and the latch costs three times what a small response does.

    The window is an LRU over *completed* tokens: past *capacity*, the
    oldest finished entries are forgotten (a duplicate arriving after
    eviction re-executes — the window bounds memory, the client's
    bounded retry horizon bounds how late a duplicate can arrive).
    Entries still executing are never evicted, so a slow original cannot
    be raced by its own retry.
    """

    def __init__(self, capacity: int = DEFAULT_DEDUP_CAPACITY,
                 wait_timeout: float = DEFAULT_DEDUP_WAIT):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        self._capacity = capacity
        self._wait_timeout = wait_timeout
        self._counts = CounterSet("hits", "executed")

    @property
    def hits(self) -> int:
        """Duplicates answered from the window (side effects skipped)."""
        return self._counts.get("hits")

    @property
    def executed(self) -> int:
        """Tokens this window actually dispatched."""
        return self._counts.get("executed")

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def as_dict(self) -> dict:
        """The counters plus ``entries``, the tokens currently held."""
        return dict(self._counts.as_dict(), entries=len(self))

    def execute(self, call_id: str, compute, observer=None):
        """Run ``compute() -> bytes`` at most once for *call_id*.

        Returns the owner's response bytes, or ``None`` when a duplicate
        timed out waiting for a still-running original (the caller turns
        that into a retryable error response).

        *observer*, if given, is called with the outcome —
        ``"executed"`` (this call owned the token), ``"replayed"`` (a
        recorded response was served without dispatching), or
        ``"timeout"`` — so tracing can mark replays without the window
        growing a tracer dependency.
        """
        with self._lock:
            entry = self._entries.get(call_id)
            owner = entry is None
            if owner:
                entry = self._entries[call_id] = _DedupEntry()
            else:
                self._entries.move_to_end(call_id)
        if owner:
            self._counts.add("executed")
            try:
                entry.response = compute()
            finally:
                # compute (RMICore.handle's inner pipeline) never raises,
                # but a latch must never stay unset: waiters would hang.
                entry.ready.set()
                with self._lock:
                    if entry.response is None:
                        self._entries.pop(call_id, None)
                    else:
                        self._entries[call_id] = entry.response
            self._evict()
            if observer is not None:
                observer("executed")
            return entry.response
        if isinstance(entry, _DedupEntry):
            if not entry.ready.wait(self._wait_timeout):
                if observer is not None:
                    observer("timeout")
                return None
            response = entry.response
        else:
            response = entry  # finished: replay at once
        if response is not None:
            self._counts.add("hits")
            if observer is not None:
                observer("replayed")
        elif observer is not None:
            observer("timeout")
        return response

    def _evict(self):
        with self._lock:
            while len(self._entries) > self._capacity:
                for call_id, entry in self._entries.items():
                    if not isinstance(entry, _DedupEntry):
                        del self._entries[call_id]
                        break
                else:
                    return  # everything left is still executing


class RMICore(MarshalContext):
    """One exported-object space and its request dispatcher.

    Transport-free: a front-end wires :meth:`handle` to a listener and
    reports middleware charges by installing a sink via
    :meth:`set_charge_sink`.
    """

    def __init__(self, network, address: str, plan_capacity: int = None,
                 shard: str = "", shard_home=None,
                 exec_workers: int = None):
        self._network = network
        self._address = address
        #: Configuration of the layers built on first use.
        self.plan_capacity = plan_capacity
        self.exec_workers = exec_workers
        self._shard = shard
        self.host = host_of(address)
        #: The exported-object table.
        self.objects = ObjectTable(address, shard=shard)
        self._registry = RegistryImpl(shard=shard, home_of=shard_home)
        self._loopback_clients = {}
        #: What the layers above keep per core, by the layer's key, each
        #: built by that layer's accessor on first use (``get`` never
        #: builds); :meth:`RMIServer.stop` closes them.
        self.layers = {}
        self._charge_sink = None
        self._dedup = DedupWindow()
        self._lock = threading.Lock()
        # The registry must land at the well-known id before anything else.
        ref = self.objects.export(self._registry)
        assert ref.object_id == REGISTRY_OBJECT_ID

    # -- identity --------------------------------------------------------

    @property
    def address(self) -> str:
        return self._address

    @property
    def shard(self) -> str:
        """This server's cluster placement label (``""`` standalone)."""
        return self._shard

    @property
    def registry(self) -> RegistryImpl:
        """Direct (local) access to the naming registry."""
        return self._registry

    def _adopt_address(self, address: str) -> None:
        """Adopt the transport-resolved address (ephemeral-port support),
        so refs minted afterwards carry the reachable endpoint."""
        self._address = address
        self.host = host_of(address)
        self.objects._endpoint = address

    # -- exporting and binding -------------------------------------------

    def export(self, obj) -> RemoteRef:
        """Make *obj* remotely reachable; idempotent per object."""
        return self.objects.export(obj)

    def bind(self, name: str, obj) -> RemoteRef:
        """Export *obj* and register it in the naming service."""
        ref = self.export(obj)
        self._registry.rebind(name, obj)
        return ref

    # -- MarshalContext ----------------------------------------------------

    def make_stub(self, ref: RemoteRef) -> Stub:
        """Build a stub for an incoming ref.

        Deliberately mirrors the Java RMI quirk of §4.4: even when the ref
        points at an object in *this* server, the caller gets a loopback
        stub that re-enters through the transport — it does NOT get the
        local object back.  The BRMI executor bypasses this by resolving
        batch-local references through its own table.
        """
        client = self._loopback_client(ref.endpoint)
        return client.make_stub(ref)

    def charge(self, kind: str, count: int = 1) -> None:
        sink = self._charge_sink
        if sink is not None:
            sink(kind, count)

    def set_charge_sink(self, sink) -> None:
        """Install (or clear) where middleware CPU charges are reported.

        The front-end points this at its listener while serving; the core
        silently drops charges when no sink is installed — including the
        window where requests race a server drain.
        """
        self._charge_sink = sink

    # -- dispatch ------------------------------------------------------------

    @property
    def dedup(self) -> DedupWindow:
        """The exactly-once window (tests and examples read its counters)."""
        return self._dedup

    def handle(self, payload) -> bytes:
        """Transport handler: one request in, one response out.

        Must never raise — every failure becomes an error response.
        Re-entrant; call it from as many transport threads as you like.

        *payload* may be any bytes-like object; the threaded TCP
        listener passes a ``memoryview`` of its reusable receive buffer
        and the decoder scans it in place (the view is only guaranteed
        alive for the duration of this call — which is all decoding
        needs; nothing downstream retains request bytes).

        A request carrying an idempotency token routes through the dedup
        window: duplicates of a token already executed (or executing)
        replay the recorded response instead of re-dispatching, so a
        client retry after a lost response never doubles side effects.
        """
        try:
            request = decode(payload)
            if not isinstance(request, CallRequest):
                raise MarshalError(
                    f"expected CallRequest, got {type(request).__name__}"
                )
        except Exception as exc:
            return self._encode_response(
                CallResponse(MarshalError(f"undecodable request: {exc}"), True)
            )
        tracer = current_tracer()
        if request.trace_id:
            # The client sampled and stamped its context: parent the
            # server half under it so the cross-process tree connects.
            parent = TraceContext(
                request.trace_id, request.span_id, request.parent_id
            )
            span = tracer.span("server.handle", parent=parent)
        else:
            span = tracer.span("server.handle")
        span.set(method=request.method, object_id=request.object_id)
        with span:
            wait = take_queue_wait()
            if wait is not None:
                # Observed after the fact (the transport deposited it);
                # backdate a child span covering admitted -> started.
                span.set(queue_wait_ms=wait * 1e3)
                tracer.record(
                    "server.queue_wait", span.started_at - wait,
                    span.started_at, parent=span,
                )
            if not request.call_id:
                return self._respond(request)
            outcome = []
            response = self._dedup.execute(
                request.call_id, lambda: self._respond(request),
                observer=outcome.append,
            )
            replayed = outcome == ["replayed"]
            # Zero-duration marker; a replay is a failure artifact (the
            # original response was lost), so it records even unsampled.
            tracer.event(
                "server.dedup", parent=span, force=replayed,
                replayed=replayed, call_id=request.call_id,
            )
        if response is None:
            # The original execution outlived the duplicate's patience.
            # CommunicationError is in the client's retryable set, so a
            # live retry loop simply comes back for the recorded answer.
            return self._encode_response(
                CallResponse(
                    CommunicationError(
                        f"duplicate of call {request.call_id!r} timed out "
                        "waiting for the original execution"
                    ),
                    True,
                )
            )
        return response

    def _respond(self, request: CallRequest) -> bytes:
        """Dispatch one decoded request; never raises."""
        try:
            value = self._dispatch(request)
            response = CallResponse(value, False)
        except Exception as exc:  # noqa: BLE001 - everything crosses the wire
            response = CallResponse(exc, True)
        return self._encode_response(response)

    def _dispatch(self, request: CallRequest):
        pseudo = _pseudo_methods.get(request.method)
        if pseudo is not None:
            arity, serve = pseudo
            if len(request.args) != arity:
                raise MarshalError(
                    f"{request.method} received {len(request.args)} arguments"
                )
            return serve(self, request)
        target = self.objects.lookup(request.object_id)
        if request.method not in methods_of(target):
            raise NoSuchMethodError(request.method, interface_names(target))
        args = unmarshal(request.args, self)
        kwargs = unmarshal(request.kwargs, self)
        method = getattr(target, request.method)
        result = method(*args, **kwargs)
        return marshal(result, self)

    def _encode_response(self, response: CallResponse) -> bytes:
        try:
            data = encode(response)
            if len(data) > framing.MAX_FRAME_SIZE:
                raise framing.FrameTooLargeError(len(data))
            return data
        except Exception as exc:
            # The value (or exception) would not encode, or not fit one
            # frame: degrade to a marshalling error the client can decode
            # for sure (a dropped connection would be retried in vain).
            fallback = CallResponse(
                MarshalError(f"response not encodable: {exc}"), True
            )
            return encode(fallback)

    # -- internals --------------------------------------------------------

    def _loopback_client(self, endpoint: str):
        from repro.rmi.client import RMIClient

        with self._lock:
            client = self._loopback_clients.get(endpoint)
            if client is None:
                network = self._network
                if endpoint == self._address and getattr(
                    network, "direct_loopback", False
                ):
                    # Pool-served transports opt in to in-process
                    # loopback: a handler invoking a stub that points
                    # back at this server must not block its worker on a
                    # nested request that needs a second worker from the
                    # same bounded pool — with the pool saturated by
                    # re-entrant requests that deadlocks.  The direct
                    # channel re-enters handle() on the calling thread:
                    # same marshalling, same dispatch, no extra worker.
                    network = _DirectLoopbackNetwork(self, network)
                client = RMIClient(network, endpoint, from_host=self.host)
                self._loopback_clients[endpoint] = client
            return client

    def _close_loopback_clients(self) -> None:
        with self._lock:
            clients = list(self._loopback_clients.values())
            self._loopback_clients.clear()
        for client in clients:
            client.close()


class _DirectChannel(Channel):
    """In-process loopback: request() dispatches on the calling thread.

    Skips the socket (so the listener's traffic stats don't see these
    requests) but not the middleware: the payload still decodes,
    dispatches, and re-encodes through :meth:`RMICore.handle`, keeping
    the §4.4 stub-not-local-object semantics intact.
    """

    def __init__(self, core: RMICore):
        super().__init__()
        self._core = core

    def request(self, payload: bytes) -> bytes:
        response = self._core.handle(payload)
        self.stats.record_request(len(payload), len(response))
        return response

    def close(self) -> None:
        pass


class _DirectLoopbackNetwork:
    """Network adapter handing out direct channels for one core's own
    address and delegating every other endpoint to the real network."""

    def __init__(self, core: RMICore, network):
        self._core = core
        self._network = network

    def connect(self, address: str, from_host: str = "client"):
        if address == self._core.address:
            return _DirectChannel(self._core)
        return self._network.connect(address, from_host)
