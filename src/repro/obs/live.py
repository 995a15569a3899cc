"""The live introspection plane: a per-process admin endpoint.

Every telemetry artifact before this module was post-mortem — metrics
dumped at shutdown, traces visible once exported.  An
:class:`AdminServer` makes a serving process observable *while it runs
and degrades*: a side-port endpoint speaking **JSON over the existing
length-prefixed frames** (:mod:`repro.wire.framing` via the threaded
:class:`~repro.net.tcp.TcpListener` and
:class:`~repro.net.tcp.TcpChannel` — the RMI wire format itself stays
frozen; admin frames carry plain JSON, never TLV).

Protocol: one request frame containing ``{"cmd": <name>, ...params}``,
one response frame containing ``{"ok": true, ...}`` or ``{"ok": false,
"error": ...}``.  Connections may issue any number of request/response
pairs.  Commands every endpoint serves:

- ``health``   — cheap liveness/readiness (no registry evaluation);
- ``snapshot`` — the health section, a live
  :class:`~repro.obs.metrics.MetricsRegistry` dump (mergeable, same
  shape as the shutdown files) and the tracer's
  :class:`~repro.obs.tracer.FlightRecorder` snapshot (recently
  completed spans, the in-flight set with elapsed times, and the slow
  log with trace-id exemplars), all in one frame, so a poll is one
  round trip per process.

A worker builds its endpoint with :func:`worker_commands`; the
supervisor aggregates its shards with :func:`cluster_commands` (per
worker: one ``snapshot`` poll, merged through
``MetricsRegistry.merge``).  ``python -m repro.obs top|health|snapshot``
is the client.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.net.tcp import TcpChannel, TcpListener
from repro.net.transport import ConnectError, TransportError
from repro.obs.metrics import MetricsRegistry

#: Seconds an admin client waits for one poll round trip.
DEFAULT_POLL_TIMEOUT = 5.0


class AdminError(RuntimeError):
    """An admin poll failed: unreachable endpoint, bad frame, or an
    ``ok: false`` response."""


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------


class AdminServer:
    """JSON-over-frames command endpoint on a side port.

    *commands* maps command names to ``handler(params: dict) -> dict``
    callables; the returned dict is sent with ``ok: true`` added.  A
    handler exception becomes an ``ok: false`` response (the endpoint
    never drops a connection over one bad command).  Serving reuses the
    threaded :class:`~repro.net.tcp.TcpListener` — framing, connection
    lifecycle and drain semantics are the ones the RMI transport
    already proved.
    """

    def __init__(self, commands: dict, host: str = "127.0.0.1",
                 port: int = 0):
        self._commands = dict(commands)
        self._lock = threading.Lock()
        self._requests = 0
        self._listener = TcpListener(f"tcp://{host}:{port}", self._handle)

    @property
    def address(self) -> str:
        """The admin endpoint's ``tcp://host:port`` address."""
        return self._listener.address

    @property
    def requests(self) -> int:
        """Admin requests served (kept out of the metrics registry so
        polling never perturbs the books it reads)."""
        with self._lock:
            return self._requests

    def _handle(self, payload) -> bytes:
        with self._lock:
            self._requests += 1
        try:
            request = json.loads(bytes(payload))
            if not isinstance(request, dict):
                raise ValueError("admin request must be a JSON object")
            cmd = request.get("cmd")
            handler = self._commands.get(cmd)
            if handler is None:
                known = ", ".join(sorted(self._commands))
                raise ValueError(f"unknown command {cmd!r} (have: {known})")
            params = {k: v for k, v in request.items() if k != "cmd"}
            response = dict(handler(params))
            response["ok"] = True
        except Exception as exc:  # noqa: BLE001 - every failure answers
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return json.dumps(response, sort_keys=True, default=str).encode()

    def close(self) -> None:
        """Stop serving admin requests, idempotently."""
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def worker_commands(*, registry=None, tracer=None, health=None) -> dict:
    """The standard command set for one serving process.

    *registry* feeds the snapshot's ``metrics`` (an empty registry is
    served when ``None``); *tracer* feeds its ``flight`` through the
    tracer's flight recorder; *health* is a zero-argument callable
    returning extra health fields (``ready`` most importantly — default
    ``True``).
    """
    started = time.monotonic()

    def cmd_health(params) -> dict:
        payload = {
            "role": "worker",
            "pid": os.getpid(),
            "ready": True,
            "uptime_s": round(time.monotonic() - started, 3),
        }
        if health is not None:
            payload.update(health())
        return payload

    def _flight_snapshot() -> dict:
        flight = tracer.flight if tracer is not None else None
        if flight is None:
            return {"capacity": 0, "slow_threshold_s": 0.0,
                    "completed": [], "inflight": [], "slow": []}
        return flight.snapshot(tracer.now())

    def cmd_snapshot(params) -> dict:
        live = MetricsRegistry() if registry is None else registry
        return {
            "health": cmd_health(params),
            "metrics": live.to_dict(),
            "flight": _flight_snapshot(),
        }

    return {"health": cmd_health, "snapshot": cmd_snapshot}


def cluster_commands(shard_addresses, *, health=None,
                     poll_timeout: float = DEFAULT_POLL_TIMEOUT) -> dict:
    """The supervisor's command set: aggregate over worker endpoints.

    *shard_addresses* is a zero-argument callable returning the current
    list of worker admin addresses (a callable so a future
    restart-on-death supervisor can rotate members without rebuilding
    the endpoint).  Each aggregation polls every shard with one
    ``snapshot`` request and merges the registries through
    ``MetricsRegistry.merge``; a shard that cannot be polled is
    reported per-shard and counted in the merged ``procs.poll_errors``
    counter instead of failing the whole view.
    """
    started = time.monotonic()

    def _poll_all(cmd: str = "snapshot") -> tuple:
        """One *cmd* round trip per worker: ``(replies, errors)``."""
        shards, errors = [], []
        for address in shard_addresses():
            try:
                reply = admin_request(address, cmd, timeout=poll_timeout)
                shards.append(dict(reply, address=address))
            except Exception as exc:  # noqa: BLE001 - degraded, not dead
                errors.append({"address": address,
                               "error": f"{type(exc).__name__}: {exc}"})
        return shards, errors

    def _merge(shards, errors) -> dict:
        merged = MetricsRegistry()
        merged.counter("procs.poll_errors").inc(len(errors))
        for shard in shards:
            merged.merge(shard.get("metrics", {}))
        return merged.to_dict()

    def _health(shards, errors) -> dict:
        """The supervisor's health section over the workers' *shards*
        (their ``health`` replies, each with its ``address``)."""
        payload = {
            "role": "supervisor",
            "pid": os.getpid(),
            "procs": len(shard_addresses()),
            "uptime_s": round(time.monotonic() - started, 3),
            "ready": bool(shards) and not errors
            and all(s.get("ready") for s in shards),
            "shards": shards,
            "shard_errors": errors,
        }
        if health is not None:
            payload.update(health())
        return payload

    def cmd_health(params) -> dict:
        return _health(*_poll_all("health"))

    def cmd_snapshot(params) -> dict:
        shards, errors = _poll_all()
        # Every worker snapshot carries its health: no second poll, and
        # the same keys a ``health`` reply has.
        healths = [dict(shard["health"], address=shard["address"], ok=True)
                   for shard in shards]
        return {
            "health": _health(healths, errors),
            "shards": shards,
            "shard_errors": errors,
            "merged": _merge(shards, errors),
        }

    return {"health": cmd_health, "snapshot": cmd_snapshot}


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------


class AdminClient:
    """A persistent connection to one admin endpoint.

    Pollers keep one of these open (1 Hz polling should not pay a TCP
    handshake per tick); one-shot callers use :func:`admin_request`.
    *timeout* bounds each poll round trip.
    """

    def __init__(self, address: str, timeout: float = DEFAULT_POLL_TIMEOUT):
        self._address = address
        try:
            self._channel = TcpChannel(address, request_timeout=timeout)
        except ConnectError as exc:
            raise AdminError(
                f"cannot reach admin endpoint {address!r}: {exc.__cause__}"
            ) from exc

    @property
    def address(self) -> str:
        return self._address

    def request(self, cmd: str, **params) -> dict:
        """One command round trip; the decoded ``ok: true`` payload.

        Raises :class:`AdminError` on transport failure, undecodable
        response, or an ``ok: false`` reply.
        """
        message = dict(params, cmd=cmd)
        try:
            response = self._channel.request(json.dumps(message).encode())
        except TransportError as exc:
            raise AdminError(
                f"admin poll of {self._address!r} failed: {exc}"
            ) from exc
        try:
            reply = json.loads(response)
        except ValueError as exc:
            raise AdminError(
                f"undecodable admin reply from {self._address!r}: {exc}"
            ) from exc
        if not isinstance(reply, dict) or not reply.get("ok"):
            error = reply.get("error") if isinstance(reply, dict) else reply
            raise AdminError(
                f"admin command {cmd!r} failed at {self._address!r}: {error}"
            )
        return reply

    def close(self) -> None:
        self._channel.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def admin_request(address: str, cmd: str,
                  timeout: float = DEFAULT_POLL_TIMEOUT, **params) -> dict:
    """One-shot admin poll: connect, issue *cmd*, disconnect."""
    with AdminClient(address, timeout=timeout) as client:
        return client.request(cmd, **params)
