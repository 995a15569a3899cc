"""The server-side RMI runtime: a dispatch core plus a listener lifecycle.

An :class:`RMIServer` is a :class:`~repro.rmi.dispatch.RMICore` (object
table, naming registry at object id 0, marshalling rules, pseudo-method
routing) bound to a listener on its transport.  Which transport decides
the serving model:

- :class:`~repro.net.sim.SimNetwork` — deterministic virtual time;
- :class:`~repro.net.tcp.TcpNetwork` — one thread per connection,
  requests on a connection strictly sequential;
- :class:`~repro.aio.AioNetwork` — asyncio accept loop, per-connection
  request pipelining, bounded worker pool with admission control.

The dispatch core is re-entrant, so the same server code serves all
three unchanged.  ``handle`` never raises (a response over the frame cap
is answered as a ``MarshalError``): only injected faults drop connections.
"""

from __future__ import annotations

import threading

from repro.rmi.dispatch import RMICore


class RMIServer(RMICore):
    """One exported-object space reachable at one address."""

    def __init__(self, network, address: str, plan_capacity: int = None,
                 shard: str = "", shard_home=None,
                 exec_workers: int = None):
        super().__init__(network, address, plan_capacity,
                         shard=shard, shard_home=shard_home,
                         exec_workers=exec_workers)
        self._listener = None
        self._last_listener = None
        self._lifecycle_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    @property
    def serving(self) -> bool:
        """True between :meth:`start` and :meth:`stop` — the readiness
        bit the live admin endpoint reports."""
        return self._listener is not None

    @property
    def stats(self):
        """Aggregate traffic counters across all accepted requests.

        Stays readable after :meth:`stop` (the last listener's counters
        are retained) so shutdown cannot race a stats reader mid-flight;
        raises only if the server was never started.
        """
        listener = self._listener or self._last_listener
        if listener is None:
            raise RuntimeError(f"server at {self._address!r} is not started")
        return listener.stats

    @property
    def metrics(self):
        """Live runtime metrics snapshot, when the transport keeps one.

        Only the asyncio runtime does (in-flight, queued, served, shed,
        service-time percentiles); other transports return ``None``.
        """
        listener = self._listener or self._last_listener
        return None if listener is None else listener.metrics

    def start(self) -> "RMIServer":
        """Begin serving; returns self so construction can chain.

        Supports ephemeral addresses (e.g. ``tcp://127.0.0.1:0``): the
        transport resolves the real port and the server adopts it, so
        refs minted afterwards carry the reachable endpoint.
        """
        with self._lifecycle_lock:
            if self._listener is not None:
                raise RuntimeError(f"server at {self._address!r} already started")
            self._listener = self._network.listen(self._address, self.handle)
            if self._listener.address != self._address:
                self._adopt_address(self._listener.address)
            self.set_charge_sink(self._listener.charge)
        return self

    def stop(self) -> None:
        """Stop serving: close the listener and drain, idempotently.

        Safe against requests racing the drain: dispatch keeps working
        while the transport completes in-flight requests (the asyncio
        listener drains gracefully; the TCP listener joins its threads),
        charges are dropped once the listener is gone, and :attr:`stats`
        remains readable afterwards.  Calling ``stop()`` twice — or from
        two threads at once — is a no-op the second time.
        """
        with self._lifecycle_lock:
            listener = self._listener
            self._listener = None
            if listener is not None:
                self._last_listener = listener
            self.set_charge_sink(None)
        if listener is not None:
            listener.close()
        self._close_loopback_clients()
        for layer in list(self.layers.values()):
            if hasattr(layer, "close"):
                layer.close()

    def close(self) -> None:
        """Alias of :meth:`stop` (context-manager friendly)."""
        self.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False
