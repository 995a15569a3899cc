"""`AioRMIClient`: the asyncio-native RMI client.

One connection, many concurrent conversations: every ``await`` on
:meth:`AioRMIClient.call` rides the pipelining envelope, so an asyncio
program can ``asyncio.gather`` dozens of remote calls — or whole batch
flushes — over a single socket and they complete out of order.

The marshalling rules are not duplicated: the client wraps a full
synchronous :class:`~repro.rmi.client.RMIClient` (the **sync facade**,
reachable at :attr:`AioRMIClient.sync`) whose channel is the pipelined
:class:`~repro.aio.channel.AioChannel`.  The async methods reuse the
facade's encode/decode halves around an awaitable transport hop, and the
facade itself is what threaded code uses — ``create_batch(...)``, plan
reuse, everything — sharing the same multiplexed connection::

    network = AioNetwork()
    aclient = AioRMIClient(network, server.address)

    # asyncio side: concurrent calls over one socket
    names = await aclient.list_names()
    results = await asyncio.gather(*(aclient.call(oid, "work") for oid in ...))

    # threaded side, same connection: untouched batch/plan code
    stub = aclient.sync.lookup("service")
    batch = create_batch(stub, reuse_plans=True)

Stubs unmarshalled from async results are bound to the sync facade, so
invoking them directly blocks — do that from worker threads, or go
through :meth:`call` with the stub's ref for the awaitable path.
"""

from __future__ import annotations

import asyncio

from repro.aio.channel import AioChannel
from repro.aio.network import AioNetwork
from repro.net.transport import TransportError
from repro.obs.tracer import current_tracer
from repro.rmi.client import RMIClient
from repro.rmi.exceptions import CommunicationError
from repro.rmi.protocol import REGISTRY_OBJECT_ID
from repro.rmi.retry import RETRYABLE_ERRORS, RetryPolicy
from repro.rmi.stub import Stub


class AioRMIClient:
    """Asyncio-native RMI client multiplexing one pipelined connection."""

    def __init__(self, network: AioNetwork, address: str,
                 from_host: str = "client", callback_server=None,
                 retry: RetryPolicy = None):
        self._facade = RMIClient(
            network, address, from_host=from_host,
            callback_server=callback_server, retry=retry,
        )
        channel = self._facade.channel
        # Capability-probed, not hasattr: a chaos wrapper defines
        # request_async unconditionally but answers supports_async from
        # the channel it wraps, so a wrapped sync-only transport is
        # still rejected here with a typed error instead of failing on
        # the first awaited call.
        if not isinstance(channel, AioChannel) and not getattr(
            channel, "supports_async", False
        ):
            self._facade.close()
            raise TypeError(
                "AioRMIClient requires an AioNetwork transport (or a "
                "wrapper around one), got a channel of type "
                f"{type(channel).__name__}"
            )
        self._channel = channel

    # -- identity & facade ----------------------------------------------

    @property
    def address(self) -> str:
        return self._facade.address

    @property
    def sync(self) -> RMIClient:
        """The synchronous facade sharing this client's connection.

        A full :class:`RMIClient`: existing ``create_batch``/plan-reuse
        code runs over it untouched, with flushes from different threads
        pipelining instead of serializing.
        """
        return self._facade

    @property
    def stats(self):
        """Traffic counters for the shared channel."""
        return self._facade.stats

    @property
    def plan_memo(self):
        """The facade's memory of flushed batch shapes (plan reuse)."""
        return self._facade.plan_memo

    @property
    def pipelined(self) -> bool:
        """Whether the server accepted the multiplexing envelope."""
        channel = self._facade.channel or self._channel
        return channel.pipelined

    # -- awaitable calls -------------------------------------------------

    async def call(self, object_id: int, method: str, args=(), kwargs=None):
        """Invoke a remote method; awaitable from any event loop.

        Same semantics as :meth:`RMIClient.call`: application exceptions
        re-raise as themselves, middleware failures as
        :class:`~repro.rmi.exceptions.RemoteError` subclasses.  With a
        retry policy on the client, transient transport failures
        reconnect and resend under the call's idempotency token —
        backoff waits happen on this coroutine's loop, reconnects on a
        worker thread, so the event loop never blocks.
        """
        facade = self._facade
        tracer = current_tracer()
        with tracer.span(
            "client.call", method=method, object_id=object_id,
            address=self.address,
        ) as span:
            call_id = (
                facade._next_call_id() if facade.retry is not None else ""
            )
            with tracer.span("client.encode"):
                payload = facade._encode_request(
                    object_id, method, args, kwargs, call_id, span
                )
            if facade.retry is None:
                return await self._send_once(payload, method, tracer)
            return await self._call_with_retry(payload, method, tracer)

    async def _send_once(self, payload: bytes, method: str, tracer):
        span = tracer.span("client.send", attempt=0)
        try:
            raw = await self._channel.request_async(payload)
        except TransportError as exc:
            span.set(error=repr(exc)).end()
            raise CommunicationError(
                f"remote call {method!r} to {self.address!r} failed: {exc}"
            ) from exc
        except BaseException as exc:
            span.set(error=repr(exc)).end()
            raise
        span.set(bytes_up=len(payload), bytes_down=len(raw)).end()
        return self._facade._decode_response(raw)

    async def _call_with_retry(self, payload: bytes, method: str, tracer):
        """The awaitable twin of :meth:`RMIClient._call_with_retry`."""
        facade = self._facade
        policy = facade.retry
        last = None
        for attempt in range(policy.max_attempts):
            if attempt:
                await asyncio.sleep(policy.delay_after(attempt - 1))
            # Hot path: the live channel is read directly; only the
            # reconnect after a drop (blocking dial + handshake) is
            # pushed to a worker thread.
            channel = facade.channel
            # A resend is a failure artifact: force-record it even in an
            # unsampled trace.
            span = tracer.span(
                "client.send", attempt=attempt, force=attempt > 0
            )
            try:
                try:
                    if channel is None:
                        channel = await asyncio.to_thread(facade._live_channel)
                    raw = await channel.request_async(payload)
                except BaseException as exc:
                    span.set(error=repr(exc)).end()
                    raise
                span.set(bytes_up=len(payload), bytes_down=len(raw)).end()
                return facade._decode_response(raw)
            except RETRYABLE_ERRORS as exc:
                # A retryable answer (a shed) marks the send that got it.
                span.set(error=repr(exc))
                if facade._closed:
                    # Mirror the sync client: use-after-close fails fast
                    # instead of burning the backoff budget.
                    raise CommunicationError(
                        f"remote call {method!r} to {self.address!r} "
                        "failed: client is closed"
                    ) from exc
                last = exc
                if isinstance(exc, TransportError) and channel is not None:
                    await asyncio.to_thread(facade._drop_channel, channel)
        raise CommunicationError(
            f"remote call {method!r} to {self.address!r} failed after "
            f"{policy.max_attempts} attempts: {last}"
        ) from last

    async def call_stub(self, stub: Stub, method: str, args=(), kwargs=None):
        """Awaitable invocation of a stub's method (stubs are sync-bound)."""
        return await self.call(stub.remote_ref.object_id, method, args, kwargs)

    async def lookup(self, name: str) -> Stub:
        """Resolve *name* in the server's registry to a stub."""
        result = await self.call(REGISTRY_OBJECT_ID, "lookup", (name,))
        if not isinstance(result, Stub):
            raise CommunicationError(
                f"registry returned {type(result).__name__} for {name!r}, "
                "expected a remote reference"
            )
        return result

    async def list_names(self):
        """All names bound in the server's registry."""
        return await self.call(REGISTRY_OBJECT_ID, "list_names", ())

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self._facade.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
