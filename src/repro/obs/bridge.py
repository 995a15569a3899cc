"""Bridges: publish the existing stat sources into a MetricsRegistry.

Each ``bind_*`` helper registers a *collector* — a closure evaluated at
snapshot/render time — so the stat sources keep their public APIs and
never learn about registries, and a registry snapshot is always a live
read, not a stale copy.  Names are dotted and stable; the exposition
(:meth:`~repro.obs.metrics.MetricsRegistry.render_text`) sorts them.
"""

from __future__ import annotations

import dataclasses
import os

from repro.obs.metrics import MetricsRegistry


def bind_process(registry: MetricsRegistry, pid: int = None,
                 prefix: str = "proc") -> int:
    """Publish this process's liveness under a per-pid metric name.

    Two gauges: ``procs.up`` (1 per process — merged across worker
    dumps it counts the shard group) and ``proc.<pid>.up`` (1 — merged,
    one line per worker pid, so a merged exposition *shows* which
    processes reported in; the CI procs-smoke job asserts on it).
    Returns the pid it published.
    """
    pid = os.getpid() if pid is None else pid
    registry.gauge(f"{prefix}s.up").set(1)
    registry.gauge(f"{prefix}.{pid}.up").set(1)
    return pid


def _prefixed(prefix: str, fields: dict) -> dict:
    """A source's own flat field dict under a dotted metric prefix."""
    return {f"{prefix}.{name}": value for name, value in fields.items()}


def bind_traffic_stats(registry: MetricsRegistry, stats,
                       prefix: str = "net") -> None:
    """Publish a :class:`~repro.net.stats.TrafficStats` (requests, bytes
    both ways, middleware charges)."""
    registry.add_collector(
        lambda: _prefixed(prefix, stats.snapshot().as_dict())
    )


def bind_dedup(registry: MetricsRegistry, window,
               prefix: str = "dedup") -> None:
    """Publish a :class:`~repro.rmi.dispatch.DedupWindow`'s counters."""

    def collect():
        return {
            f"{prefix}.hits": window.hits,
            f"{prefix}.executed": window.executed,
            f"{prefix}.entries": len(window),
        }

    registry.add_collector(collect)


def bind_server_metrics(registry: MetricsRegistry, source,
                        prefix: str = "server.runtime") -> None:
    """Publish :class:`~repro.aio.metrics.ServerMetrics` snapshots.

    *source* is anything with a ``metrics`` attribute/property returning
    a snapshot or ``None`` (an :class:`~repro.rmi.server.RMIServer`, an
    :class:`~repro.aio.listener.AioListener`)."""

    def collect():
        snap = source.metrics
        if snap is None:
            return {}
        return _prefixed(prefix, dataclasses.asdict(snap))

    registry.add_collector(collect)


def bind_server(registry: MetricsRegistry, server,
                prefix: str = "server") -> None:
    """Publish everything one :class:`~repro.rmi.server.RMIServer` knows:
    traffic, dedup, runtime metrics (aio), and — once the lazy plan
    runtime exists — the plan cache.  Binding never *creates* the plan
    runtime; the collector checks again at every snapshot."""
    bind_dedup(registry, server.dedup, prefix=f"{prefix}.dedup")
    bind_server_metrics(registry, server, prefix=f"{prefix}.runtime")

    def collect_traffic():
        try:
            stats = server.stats
        except RuntimeError:  # never started
            return {}
        return _prefixed(prefix, stats.snapshot().as_dict())

    def collect_plan_cache():
        runtime = server._plan_runtime  # lazily created; do not force it
        if runtime is None:
            return {}
        return _prefixed(f"{prefix}.plan_cache",
                         runtime.cache.stats.snapshot().as_dict())

    def collect_scheduler():
        executor = server._batch_executor  # lazily created; do not force it
        if executor is None:
            return {}
        return _prefixed(f"{prefix}.scheduler",
                         executor.scheduler.snapshot())

    registry.add_collector(collect_traffic)
    registry.add_collector(collect_plan_cache)
    registry.add_collector(collect_scheduler)


def bind_client(registry: MetricsRegistry, client,
                prefix: str = "client") -> None:
    """Publish an :class:`~repro.rmi.client.RMIClient`'s traffic and —
    if plan reuse ever ran — its memo's strategy counters.  Multiple
    clients bound under one prefix sum (collector semantics)."""
    bind_traffic_stats(registry, client.stats, prefix=prefix)

    def collect_memo():
        memo = client._plan_memo  # lazily created; do not force it
        if memo is None:
            return {}
        return {
            f"{prefix}.plan.inline_flushes": memo.inline_flushes,
            f"{prefix}.plan.invocations": memo.plan_invocations,
            f"{prefix}.plan.installs": memo.plan_installs,
        }

    registry.add_collector(collect_memo)
