"""`AioRMIClient`: the asyncio-native RMI client.

One connection, many concurrent conversations: every ``await`` on
:meth:`AioRMIClient.call` rides the correlation envelope, so an asyncio
program can ``asyncio.gather`` dozens of remote calls — or whole batch
flushes — over a single socket and they complete out of order.

Neither the marshalling rules nor the call path are duplicated: the
client wraps a full synchronous :class:`~repro.rmi.client.RMIClient`
(the **sync facade**, reachable at :attr:`AioRMIClient.sync`) whose
channel is the multiplexed :class:`~repro.aio.channel.AioChannel`.  An
awaited call runs the facade's own sans-io call generator — span,
token, encode, attempt loop, decode — with awaits where the facade
blocks, and the facade itself is what threaded code uses —
``create_batch(...)``, plan reuse, everything — sharing the same
multiplexed connection::

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

from repro.aio.network import AioNetwork
from repro.net.transport import awaiting, drive_async
from repro.rmi.client import RMIClient
from repro.rmi.protocol import REGISTRY_OBJECT_ID
from repro.rmi.retry import RetryPolicy
from repro.rmi.stub import Stub


class AioRMIClient:
    """Asyncio-native RMI client multiplexing one connection."""

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
        if not getattr(channel, "supports_async", False):
            self._facade.close()
            raise TypeError(
                "AioRMIClient requires an AioNetwork transport (or a "
                "wrapper around one), got a channel of type "
                f"{type(channel).__name__}"
            )
        self._effects = awaiting(self._facade._effects)

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

    # -- awaitable calls -------------------------------------------------

    async def call(self, object_id: int, method: str, args=(), kwargs=None):
        """Invoke a remote method; awaitable from any event loop.

        The same logical call as :meth:`RMIClient.call` — the facade's
        one sans-io generator — driven by awaits: application exceptions
        re-raise as themselves, middleware failures as
        :class:`~repro.rmi.exceptions.RemoteError` subclasses.  With a
        retry policy on the client, transient transport failures
        reconnect and resend under the call's idempotency token —
        backoff waits happen on this coroutine's loop, reconnects on a
        worker thread, so the event loop never blocks.
        """
        return await drive_async(
            self._facade._calling(object_id, method, args, kwargs),
            self._effects,
        )

    async def call_stub(self, stub: Stub, method: str, args=(), kwargs=None):
        """Awaitable invocation of a stub's method (stubs are sync-bound)."""
        return await self.call(stub.remote_ref.object_id, method, args, kwargs)

    async def lookup(self, name: str) -> Stub:
        """Resolve *name* in the server's registry to a stub."""
        return await drive_async(self._facade._looking_up(name), self._effects)

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
