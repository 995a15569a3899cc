"""Bridges: publish the stack's stat sources into a MetricsRegistry.

A *stat source* is anything answering ``as_dict()`` with a flat
``{field: number}`` dict that is additive across processes (every
:class:`~repro.net.stats.CounterSet`, and the typed views built on
one).  A source with a distribution also carries it as ``histograms``
(``{field: Histogram}``) and lists under ``local`` the ``as_dict``
fields that are only this process's readings of it.

:func:`bind` registers one *collector* per source — evaluated at
snapshot/render time — so the sources never learn about registries and
a registry snapshot is always a live read, not a stale copy.  This
module only names things: ``<prefix>.<field>``, dotted and stable; the
exposition (:meth:`~repro.obs.metrics.MetricsRegistry.render_text`)
sorts them.
"""

from __future__ import annotations

import os

from repro.obs.metrics import Collected, MetricsRegistry


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


def bind(registry: MetricsRegistry, prefix: str, source) -> None:
    """Publish a stat source's fields as ``<prefix>.<field>``.

    *source* is a zero-argument callable returning the stat source, or
    ``None`` while there is none: it is asked again at every snapshot,
    so binding never forces a lazily created runtime into existence.
    """

    def collect():
        stats = source()
        if stats is None:
            return {}
        fields = dict(stats.as_dict(), **getattr(stats, "histograms", {}))
        named = Collected(
            (f"{prefix}.{name}", value) for name, value in fields.items()
        )
        named.local = {f"{prefix}.{name}"
                       for name in getattr(stats, "local", ())}
        return named

    registry.add_collector(collect)


def bind_server(registry: MetricsRegistry, server,
                prefix: str = "server") -> None:
    """Publish everything one :class:`~repro.rmi.server.RMIServer` knows:
    traffic, dedup, runtime metrics (aio), and — once they exist — the
    plan cache and the scheduler.  The listener, the plan runtime and
    the batch executor are created lazily, so they are read where they
    are kept (the last two in ``server.layers``), never built here.
    """
    sources = {
        prefix: lambda: getattr(
            server._listener or server._last_listener, "stats", None),
        f"{prefix}.dedup": lambda: server.dedup,
        f"{prefix}.runtime": lambda: server.metrics,
        f"{prefix}.plan_cache": lambda: (
            (plan := server.layers.get("plan")) and plan.cache.stats),
        f"{prefix}.scheduler": lambda: (
            (ex := server.layers.get("executor")) and ex.scheduler),
    }
    for name, source in sources.items():
        bind(registry, name, source)


def bind_client(registry: MetricsRegistry, client,
                prefix: str = "client") -> None:
    """Publish an :class:`~repro.rmi.client.RMIClient`'s traffic and —
    if plan reuse ever ran — its memo's strategy counters.  Multiple
    clients bound under one prefix sum (collector semantics)."""
    bind(registry, prefix, lambda: client.stats)
    bind(registry, f"{prefix}.plan", lambda: client._plan_memo)
