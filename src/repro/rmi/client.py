"""The client-side RMI runtime: connections, calls, stub fabrication.

One :class:`RMIClient` owns a channel to one server.  Stubs created from
refs pointing at *other* servers transparently get their own cached client
(RMI's multi-server reference graph).  Passing a local
:class:`~repro.rmi.remote.RemoteObject` as an argument requires a
*callback server* — the client-side equivalent of RMI exporting a local
object so the server can call back.

Resilience: constructed with a :class:`~repro.rmi.retry.RetryPolicy`,
the client survives transient transport failures.  Every logical call is
stamped with an idempotency token (``CallRequest.call_id``) and encoded
once; on a retryable failure the client drops the broken channel,
reconnects with capped exponential backoff, and resends the *same*
bytes.  The server's dedup window executes each token at most once, so a
retried batch flush whose original response was lost never re-runs its
side effects — at-least-once delivery, exactly-once execution.  Without
a policy (the default) nothing changes: no token, no resend, failures
surface immediately as :class:`~repro.rmi.exceptions.CommunicationError`.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid

from repro.net.stats import TrafficStats
from repro.net.transport import (
    ConnectionClosedError,
    TransportError,
    drive,
    send_blocking,
)
from repro.obs.tracer import current_tracer
from repro.rmi.exceptions import CommunicationError, MarshalError
from repro.rmi.marshal import MarshalContext, marshal_args, unmarshal
from repro.rmi.protocol import REGISTRY_OBJECT_ID, CallRequest, CallResponse
from repro.rmi.retry import RETRYABLE_ERRORS, RetryPolicy
from repro.rmi.stub import Stub
from repro.wire import decode, encode
from repro.wire.refs import RemoteRef


class RMIClient(MarshalContext):
    """Synchronous RMI client bound to one server address."""

    def __init__(self, network, address: str, from_host: str = "client",
                 callback_server=None, retry: RetryPolicy = None,
                 sleep=None):
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(retry).__name__}"
            )
        self._network = network
        self._address = address
        self._from_host = from_host
        self._callback_server = callback_server
        self._retry = retry
        self._peers = {}  # endpoint -> RMIClient for refs to other servers
        self._lock = threading.Lock()
        self._closed = False
        self._plan_memo = None
        # Tokens are unique per client instance and cheap to mint; the
        # 96 random bits keep two clients' counters from ever colliding.
        self._call_ids = itertools.count(1)
        self._token_prefix = uuid.uuid4().hex[:24]
        # Channels come and go across reconnects; traffic counters must
        # not reset with them.  Every channel this client opens records
        # into this one instance.
        self._stats = TrafficStats()
        self._channel = None
        # How this client performs what :meth:`_calling` asks for when it
        # is driven by blocking calls; AioRMIClient awaits the same table.
        self._effects = {
            "sleep": sleep if sleep is not None else time.sleep,
            "connect": lambda _: self._live_channel(),
            "send": send_blocking,
            "drop": self._drop_channel,
        }
        drive(self._dialling(), self._effects)

    @property
    def address(self) -> str:
        return self._address

    @property
    def channel(self):
        """The underlying transport channel.

        For a retrying client this is the *current* channel — it changes
        across reconnects, and may be ``None`` between a drop and the
        next lazy reconnect; the counters live on :attr:`stats`.
        """
        return self._channel

    @property
    def retry(self) -> RetryPolicy:
        """The retry policy, or None for a fail-fast client."""
        return self._retry

    @property
    def stats(self):
        """Traffic counters for this client's own connection.

        One instance for the client's lifetime: it aggregates every
        channel the client ever opened and stays readable after
        :meth:`close`.
        """
        return self._stats

    @property
    def plan_memo(self):
        """This client's memory of flushed batch shapes (created lazily).

        Shared by every ``reuse_plans=True`` batch the client creates, so
        a shape that went hot in one batch stays hot in the next.
        """
        with self._lock:
            if self._plan_memo is None:
                from repro.plan.client import PlanMemo

                self._plan_memo = PlanMemo()
            return self._plan_memo

    # -- MarshalContext ------------------------------------------------

    def export(self, obj) -> RemoteRef:
        if self._callback_server is None:
            raise MarshalError(
                f"cannot pass local object {type(obj).__name__} by "
                "reference: client has no callback server (pass "
                "callback_server= to RMIClient, or make the class "
                "serializable to pass it by copy)"
            )
        return self._callback_server.export(obj)

    def make_stub(self, ref: RemoteRef) -> Stub:
        if ref.endpoint == self._address:
            return Stub(ref, self.call, client=self)
        peer = self._peer_for(ref.endpoint)
        return Stub(ref, peer.call, client=peer)

    def charge(self, kind: str, count: int = 1) -> None:
        channel = self._channel
        if channel is not None:
            channel.charge(kind, count)

    # -- calls ----------------------------------------------------------

    def call(self, object_id: int, method: str, args=(), kwargs=None):
        """Invoke a remote method and return its (unmarshalled) result.

        Application exceptions raised by the remote body re-raise here as
        themselves; middleware/transport failures raise
        :class:`~repro.rmi.exceptions.RemoteError` subclasses.  With a
        retry policy, transient transport failures are retried under the
        call's idempotency token before giving up.
        """
        return drive(
            self._calling(object_id, method, args, kwargs), self._effects
        )

    def _calling(self, object_id: int, method: str, args, kwargs):
        """One logical call, sans-io (see :func:`~repro.net.transport.
        drive`): span, token, encode, then the attempt loop — send the
        same bytes until a response decodes or the policy gives up.

        Fail-fast is the loop's one-attempt row: no token, only a
        :class:`TransportError` is wrapped (a shed or an undecodable
        answer surfaces as itself), and the channel is left as it is —
        a client without a policy never reconnects.
        """
        policy = self._retry
        if policy is None:
            attempts, retryable = 1, (TransportError,)
        else:
            attempts, retryable = policy.max_attempts, RETRYABLE_ERRORS
        tracer = current_tracer()
        with tracer.span(
            "client.call", method=method, object_id=object_id,
            address=self._address,
        ) as call_span:
            call_id = self._next_call_id() if policy is not None else ""
            with tracer.span("client.encode"):
                payload = self._encode_request(
                    object_id, method, args, kwargs, call_id, call_span
                )
            for attempt in range(attempts):
                if attempt:
                    yield self._backoff(attempt)
                # Hot path: the live channel is read directly; only the
                # dial after a drop is an effect.
                channel = self._channel
                # A resend is a failure artifact: force-record it even in
                # an unsampled trace.
                span = tracer.span(
                    "client.send", attempt=attempt, force=attempt > 0
                )
                try:
                    try:
                        if channel is None:
                            channel = yield "connect", None
                        raw = yield "send", (channel, payload)
                    except BaseException as exc:
                        span.set(error=repr(exc)).end()
                        raise
                    span.set(bytes_up=len(payload), bytes_down=len(raw)).end()
                    return self._decode_response(raw)
                except retryable as exc:
                    # A retryable answer (a shed) marks the send that got it.
                    span.set(error=repr(exc))
                    last = exc
                    if policy is None:
                        break
                    if self._closed:
                        # Use-after-close is a programming error, not a
                        # transient fault: fail fast instead of burning
                        # the backoff budget on retries that can never
                        # reconnect.
                        raise CommunicationError(
                            f"remote call {method!r} to {self._address!r} "
                            "failed: client is closed"
                        ) from exc
                    if isinstance(exc, TransportError) and channel is not None:
                        yield "drop", channel
            gave_up = f" after {attempts} attempts" if policy else ""
            raise CommunicationError(
                f"remote call {method!r} to {self._address!r} "
                f"failed{gave_up}: {last}"
            ) from last

    def _backoff(self, attempt: int):
        """The pause owed before zero-based *attempt*, as an effect."""
        return "sleep", self._retry.delay_after(attempt - 1)

    def _next_call_id(self) -> str:
        # Fixed width (24 + 12 hex digits): a request's size must not
        # depend on how many calls the client has made.
        return f"{self._token_prefix}{next(self._call_ids):012x}"

    def _encode_request(self, object_id, method, args, kwargs,
                        call_id: str, trace) -> bytes:
        """Marshal and encode one request to wire bytes.

        The transport frames these bytes with scatter-gather writes, so
        the request is copied exactly once (into the immutable payload
        ``encode`` returns).

        *trace* is the client-side span for this call; a sampled span
        stamps its context into the request so the server parents under
        it.  An unsampled span — the null tracer's always is — stamps
        nothing, so the bytes are those of an untraced client.
        """
        wire_args, wire_kwargs = marshal_args(args, kwargs, self)
        if trace.sampled:
            request = CallRequest(
                object_id, method, wire_args, wire_kwargs, call_id,
                trace_id=trace.trace_id, span_id=trace.span_id,
                parent_id=trace.parent_id,
            )
        else:
            request = CallRequest(object_id, method, wire_args, wire_kwargs,
                                  call_id)
        try:
            return encode(request)
        except Exception as exc:
            raise MarshalError(f"cannot encode request: {exc}") from exc

    def _decode_response(self, raw):
        """Decode a wire response (any bytes-like) to an unmarshalled
        value, or raise the carried exception.  The decoder runs on a
        ``memoryview`` of *raw*, so a transport may hand in a window of
        its receive buffer without first detaching it."""
        try:
            response = decode(raw)
        except Exception as exc:
            raise CommunicationError(
                f"cannot decode response from {self._address!r}: {exc}"
            ) from exc
        if not isinstance(response, CallResponse):
            raise CommunicationError(
                f"unexpected response type {type(response).__name__}"
            )
        value = response.raise_or_return()
        return unmarshal(value, self)

    def lookup(self, name: str) -> Stub:
        """Resolve *name* in the server's registry to a stub."""
        return drive(self._looking_up(name), self._effects)

    def _looking_up(self, name: str):
        result = yield from self._calling(
            REGISTRY_OBJECT_ID, "lookup", (name,), None
        )
        if not isinstance(result, Stub):
            raise CommunicationError(
                f"registry returned {type(result).__name__} for {name!r}, "
                "expected a remote reference"
            )
        return result

    def list_names(self):
        """All names bound in the server's registry."""
        return self.call(REGISTRY_OBJECT_ID, "list_names", ())

    def bind(self, name: str, stub_or_obj) -> None:
        """Bind a name remotely (objects need a callback server)."""
        self.call(REGISTRY_OBJECT_ID, "bind", (name, stub_or_obj))

    # -- connection lifecycle -------------------------------------------

    def _live_channel(self):
        """The current channel, reconnecting lazily after a drop.

        The dial happens outside the lock — it can take the transport's
        whole connect timeout, and ``close()`` must not wait for it —
        and is installed under it.  A dial that finds the client closed
        meanwhile closes what it opened; one that lost to a concurrent
        dial does the same and uses the winner's channel.
        """
        with self._lock:
            if self._closed:
                raise ConnectionClosedError(
                    f"client for {self._address!r} is closed"
                )
            channel = self._channel
        if channel is not None:
            return channel
        dialled = self._network.connect(self._address, self._from_host)
        with self._lock:
            closed, winner = self._closed, self._channel
            if not closed and winner is None:
                dialled.stats = self._stats
                self._channel = dialled
                return dialled
        dialled.close()
        if closed:
            raise ConnectionClosedError(
                f"client for {self._address!r} was closed during the dial"
            )
        return winner

    def _drop_channel(self, channel) -> None:
        """Retire a broken channel; the next call reconnects."""
        with self._lock:
            if self._channel is channel:
                self._channel = None
        try:
            channel.close()
        except Exception:  # noqa: BLE001 - already broken; nothing to do
            pass

    def _dialling(self):
        """The constructor's connect, sans-io: under the retry policy
        when there is one, and raising the transport's own error."""
        policy = self._retry
        for attempt in range(policy.max_attempts if policy else 1):
            if attempt:
                yield self._backoff(attempt)
            try:
                return (yield "connect", None)
            except TransportError as exc:
                last = exc
        raise last

    # -- lifecycle -------------------------------------------------------

    def _peer_for(self, endpoint: str) -> "RMIClient":
        with self._lock:
            peer = self._peers.get(endpoint)
            if peer is None:
                peer = RMIClient(
                    self._network,
                    endpoint,
                    from_host=self._from_host,
                    callback_server=self._callback_server,
                    retry=self._retry,
                    sleep=self._effects["sleep"],
                )
                self._peers[endpoint] = peer
            return peer

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            peers = list(self._peers.values())
            self._peers.clear()
            channel = self._channel
        for peer in peers:
            peer.close()
        if channel is not None:
            channel.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
