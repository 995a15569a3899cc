"""Asyncio server runtime and client connection layer (beyond the paper).

The threaded transports serve one request at a time per connection;
this package serves the same messages, inside a correlation envelope
both of its ends require, with an asyncio accept loop, per-connection
request pipelining, a bounded worker pool with admission control,
graceful drain, and live metrics — the runtime that turns the batch +
plan stack into something load-testable.

Entry points:

- :class:`AioNetwork` — drop-in :class:`~repro.net.transport.Network`
  for both ends; swap it into ``RMIServer``/``RMIClient`` and
  everything above runs multiplexed, unchanged.
- :class:`AioRMIClient` — asyncio-native client (awaitable calls) whose
  ``.sync`` facade shares the same multiplexed connection with threaded
  batch code.
- :mod:`repro.aio.loadgen` / ``python -m repro.aio`` — the multi-client
  load harness behind ``benchmarks/test_throughput_aio.py``.
- :class:`Supervisor` — the one process-group supervisor, in two
  layouts: ``procs=N`` / ``python -m repro.aio serve --procs N`` (N
  worker processes sharing one listening port via ``SO_REUSEPORT``) and
  ``shards=N`` / ``python -m repro.aio serve --shards N`` (one
  ``--shard i/N`` process per shard, a port each); either way per-child
  metrics merge into one report.
"""

from repro.aio.channel import AioChannel, AioConnection
from repro.aio.client import AioRMIClient
from repro.aio.frames import MAGIC, MAGIC_ACK, split_envelope
from repro.aio.listener import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_MAX_WORKERS,
    DEFAULT_QUEUE_DEPTH,
    AioListener,
)
from repro.aio.loadgen import (
    SERVICE_NAME,
    LoadReport,
    LoadTarget,
    LoadTargetImpl,
    run_load,
)
from repro.aio.metrics import MetricsRecorder, ServerMetrics
from repro.aio.network import AioNetwork
from repro.aio.runtime import EventLoopThread
from repro.aio.supervisor import Supervisor, SupervisorError

__all__ = [
    "AioChannel",
    "AioConnection",
    "AioListener",
    "AioNetwork",
    "AioRMIClient",
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_MAX_WORKERS",
    "DEFAULT_QUEUE_DEPTH",
    "EventLoopThread",
    "LoadReport",
    "LoadTarget",
    "LoadTargetImpl",
    "MAGIC",
    "MAGIC_ACK",
    "MetricsRecorder",
    "SERVICE_NAME",
    "ServerMetrics",
    "Supervisor",
    "SupervisorError",
    "run_load",
    "split_envelope",
]
