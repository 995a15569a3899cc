"""Process groups: N serve processes under one supervisor, in two layouts.

One Python process — however multiplexed — tops out at one core: the
benchmarks are delay/GIL-bound on a single event loop.  The
:class:`Supervisor` runs N ordinary ``python -m repro.aio serve``
children (the unchanged aio runtime: worker pool, admission control,
plan cache, dedup window) laid out one of two ways:

- ``procs=N`` — a **reuseport group**: N acceptors of *one* logical
  server.  The supervisor reserves a port with a bound-but-not-listening
  ``SO_REUSEPORT`` placeholder socket (a non-listening member of a
  reuseport group never receives SYNs, so it holds the port against
  unrelated binders without stealing connections); every child joins the
  listener group with ``--reuseport`` and the kernel load-balances
  incoming *connections* across them.
- ``shards=N`` — a **shard cluster**: N independent servers, each
  ``--shard i/N`` on its own ephemeral port with its own object table
  and a registry guarded by the shared
  :class:`~repro.cluster.shardmap.ShardMap` placement.  A
  :class:`~repro.cluster.client.ClusterClient` pointed at
  :attr:`Supervisor.addresses` (shard order) talks to all of them.

The layouts differ in the rows of :data:`_PROCS` / :data:`_SHARDS` and
nothing else.  Either way, on :meth:`Supervisor.stop` (or a forwarded
SIGTERM) the children **drain** gracefully — each finishes its in-flight
requests, dumps its per-process
:class:`~repro.obs.metrics.MetricsRegistry` to its own JSON file, and
exits — and the supervisor reaps them and **merges** the dumps through
the registry's cross-process merge semantics into one report.  With
``admin`` on, every child serves its own admin endpoint and the
supervisor aggregates them behind one
(:func:`repro.obs.live.cluster_commands`), so ``python -m repro.obs
top|health`` reads either layout the same way.

**Reuseport sharing semantics.**  Workers share nothing but the port.
Each has its own plan cache and its own dedup window, scoped per
process: a ``call_id`` retry that reconnects and lands on a *different*
worker will not find the token recorded there and re-executes.  That is
safe — the request is idempotency-tokened and exactly-once still holds
*per worker* — but callers must not assume global exactly-once across
workers (see DESIGN.md, and ``tests/test_chaos_procs.py`` which pins
the tolerated behavior).  Plan installs likewise repeat per worker: a
plan that is hot on one worker is a cache miss on another until that
worker sees its install.

**Platform fallback.**  Where ``SO_REUSEPORT`` does not exist (exotic
platforms; see :data:`repro.net.tcp.HAS_REUSEPORT`) the ``procs`` layout
degrades to a documented *single-acceptor* mode: one worker owns the
listening socket outright and ``procs`` is forced to 1, keeping the CLI
and metrics plumbing identical so callers need no platform branches.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

from repro.aio.listener import DEFAULT_MAX_WORKERS, DEFAULT_QUEUE_DEPTH
from repro.net.tcp import HAS_REUSEPORT, reserve_reuseport

#: Seconds stop() gives the whole group to drain before escalating to kill.
DEFAULT_STOP_TIMEOUT = 30.0

#: Seconds start() waits for each child to report its address.
DEFAULT_START_TIMEOUT = 30.0


class SupervisorError(RuntimeError):
    """A child failed to start, or died while being supervised."""


class _Layout(NamedTuple):
    """Everything the two layouts disagree on (plus ``--shard i/N``,
    which children get exactly when there is a ``shard_map``)."""

    reuseport: bool    #: one reserved port + ``--reuseport``, or port 0 each
    dump: str          #: per-child dump ({index} here, {pid} in the child)
    dump_errors: str   #: merged counter of dumps that could not be read
    alive_key: str     #: aggregated-health key counting live children


_PROCS = _Layout(True, "metrics-{pid}.json",
                 "procs.dump_errors", "workers_alive")
_SHARDS = _Layout(False, "metrics-shard{index}-{pid}.json",
                  "cluster.dump_errors", "shards_alive")


class Supervisor:
    """Spawn and manage a group of serve processes.

    Exactly one of *procs* (reuseport group) or *shards* (shard cluster)
    picks the layout and the child count; :attr:`procs` reports the
    effective count (1 in single-acceptor fallback).  *transport*,
    *workers* (pool size **per process**), *queue_depth* (per process)
    and *exec_workers* mirror ``python -m repro.aio serve``.
    *metrics_dir* is where per-child registry dumps land (created if
    missing; a temp dir by default, removed after the merge).
    *host*/*port* pick the shared address of a reuseport group (port 0
    reserves an ephemeral one; shards always take an ephemeral port
    each).  *admin* turns on the live introspection plane
    (:mod:`repro.obs.live`): each child serves its own admin endpoint,
    the supervisor learns the addresses
    (:attr:`admin_addresses`) and serves the group aggregation at
    :attr:`admin_address` — ``True`` for an ephemeral port, an int for a
    fixed one.
    """

    def __init__(self, *, procs: int = None, shards: int = None,
                 transport: str = "aio",
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = DEFAULT_MAX_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 exec_workers: int = None,
                 metrics_dir=None, admin: bool = False):
        if (procs is None) == (shards is None):
            raise ValueError("pass exactly one of procs= (reuseport group) "
                             "or shards= (shard cluster)")
        #: The cluster's name -> shard placement (``None`` for ``procs``).
        self.shard_map = None
        if shards is not None:
            if port:
                raise ValueError("port belongs to the procs layout; shards "
                                 "take an ephemeral port each")
            from repro.cluster.shardmap import ShardMap

            self.shard_map = ShardMap(shards)
            self._layout = _SHARDS
            self._procs = shards
        elif procs < 1:
            raise ValueError(f"procs must be >= 1: {procs}")
        elif HAS_REUSEPORT:
            self._layout = _PROCS
            self._procs = procs
        else:
            self._layout = _PROCS._replace(reuseport=False)
            self._procs = 1
        self._transport = transport
        self._host = host
        self._port = port
        self._workers = workers
        self._queue_depth = queue_depth
        self._exec_workers = exec_workers
        self._metrics_dir = metrics_dir
        self._own_metrics_dir = metrics_dir is None
        self._placeholder = None
        self._children = []
        self._addresses = []
        self._merged = None
        self._lock = threading.Lock()
        self._stopped = False
        # admin: False/None = no admin plane; True = group endpoint on
        # an ephemeral port; an int (0 included) = that port.
        self._admin_on = admin is not False and admin is not None
        self._admin_port = 0 if admin is True else (admin or 0)
        self._admin_server = None
        self._admin_addresses = []
        self._dump_errors = 0

    # -- introspection ---------------------------------------------------

    @property
    def addresses(self) -> tuple:
        """Every child's ``tcp://host:port`` address, in spawn (= shard)
        order; a reuseport group repeats its one shared address."""
        if not self._addresses:
            raise RuntimeError("supervisor is not started")
        return tuple(self._addresses)

    @property
    def address(self) -> str:
        """The first child's address — a reuseport group's only one."""
        return self.addresses[0]

    @property
    def labels(self) -> tuple:
        """The ``"i/N"`` shard labels in shard order (empty for ``procs``)."""
        return self.shard_map.labels if self.shard_map is not None else ()

    @property
    def procs(self) -> int:
        """Effective child count (1 in single-acceptor fallback)."""
        return self._procs

    @property
    def reuseport(self) -> bool:
        """Whether the children share one port as a reuseport group."""
        return self._layout.reuseport

    @property
    def pids(self) -> tuple:
        return tuple(child.pid for child in self._children)

    @property
    def admin_addresses(self) -> tuple:
        """Each child's admin-endpoint address (admin mode only)."""
        return tuple(self._admin_addresses)

    @property
    def admin_address(self) -> str:
        """The supervisor's own group-aggregation admin endpoint."""
        if self._admin_server is None:
            raise RuntimeError("supervisor has no admin endpoint "
                               "(pass admin=True)")
        return self._admin_server.address

    @property
    def dump_errors(self) -> int:
        """Per-child metrics dumps that could not be merged on stop."""
        return self._dump_errors

    def alive(self) -> bool:
        """True while every child is still running."""
        return bool(self._children) and all(
            child.poll() is None for child in self._children
        )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Supervisor":
        """Reserve the port (if shared), spawn the children, wait for
        each to report the address it listens on."""
        if self._children:
            raise RuntimeError("supervisor already started")
        if self._metrics_dir is None:
            self._metrics_dir = tempfile.mkdtemp(prefix="repro-procs-")
        self._metrics_dir = str(self._metrics_dir)
        os.makedirs(self._metrics_dir, exist_ok=True)
        port = self._port
        if self._layout.reuseport:
            # The placeholder stays bound (not listening) for the whole
            # run: it pins the port for late (re)joiners without ever
            # receiving a connection itself.
            self._placeholder, port = reserve_reuseport(self._host, port)
        try:
            for index in range(self._procs):
                self._children.append(self._spawn(port, index))
            # Each child resolved its own port 0 (shards, single-acceptor
            # fallback); adopt whatever it bound.
            self._addresses = [self._read_line(child, "ADDRESS")
                               for child in self._children]
            if self._admin_on:
                self._admin_addresses = [
                    self._read_line(child, "ADMIN")
                    for child in self._children
                ]
                self._start_admin()
        except Exception:
            self._kill_all()
            self._release()
            raise
        return self

    def _start_admin(self) -> None:
        from repro.obs.live import AdminServer, cluster_commands

        def health_extra():
            extra = {}
            if self.shard_map is not None:
                extra["shards"] = self._procs
            extra[self._layout.alive_key] = sum(
                1 for child in self._children if child.poll() is None
            )
            return extra

        self._admin_server = AdminServer(cluster_commands(
            lambda: list(self._admin_addresses), health=health_extra,
        ), host=self._host, port=self._admin_port)

    def _spawn(self, port: int, index: int) -> subprocess.Popen:
        metrics_template = os.path.join(
            self._metrics_dir,
            self._layout.dump.replace("{index}", str(index)),
        )
        cmd = [
            sys.executable, "-m", "repro.aio", "serve",
            "--transport", self._transport,
            "--port", str(port),
            "--workers", str(self._workers),
            "--queue-depth", str(self._queue_depth),
            "--metrics-json", metrics_template,
        ]
        if self._exec_workers is not None:
            cmd.extend(["--exec-workers", str(self._exec_workers)])
        if self._layout.reuseport:
            cmd.append("--reuseport")
        if self.shard_map is not None:
            cmd.extend(["--shard", self.labels[index]])
        if self._admin_on:
            # Children always take ephemeral admin ports; any requested
            # port belongs to the supervisor's group endpoint.
            cmd.extend(["--admin-port", "0"])
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parent.parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env,
        )

    def _read_line(self, child: subprocess.Popen, tag: str) -> str:
        """Read one ``TAG value`` stdout line from a starting child
        (``ADDRESS`` first; ``ADMIN`` next when the admin plane is on)."""
        timer = threading.Timer(DEFAULT_START_TIMEOUT, child.kill)
        timer.start()
        try:
            line = child.stdout.readline().strip()
        finally:
            timer.cancel()
        if not line.startswith(tag + " "):
            raise SupervisorError(
                f"child pid={child.pid} failed to start "
                f"(said {line!r} instead of a {tag} line)"
            )
        return line.split(" ", 1)[1]

    def stop(self, timeout: float = DEFAULT_STOP_TIMEOUT):
        """Drain the group: TERM every child, reap, merge their metrics.

        Returns the merged :class:`~repro.obs.metrics.MetricsRegistry`
        (idempotent — repeated calls return the same merge).  *timeout*
        is one deadline for the whole group; children that outlive it
        are killed, and their metrics dump (written only on a graceful
        exit) is then simply absent from the merge.
        """
        with self._lock:
            if self._stopped:
                return self._merged
            self._stopped = True
        if self._admin_server is not None:
            # Stop aggregating before the children go away: a poll racing
            # the drain would count its dead children as errors.
            self._admin_server.close()
            self._admin_server = None
        for child in self._children:
            if child.poll() is None:
                try:
                    child.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for child in self._children:
            try:
                child.communicate(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate(timeout=10.0)
        self._merged = self._merge_metrics()
        self._release()
        return self._merged

    def _merge_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        merged = MetricsRegistry()
        for path in self.metrics_files():
            # A child killed mid-dump leaves a truncated file; a child
            # with a naming bug leaves a kind-conflicting one.  Validate
            # each dump on a scratch registry first (merge is not
            # atomic), and never let one bad file lose the other
            # children's books — skip it, warn, and count it.
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    dump = json.load(fh)
                MetricsRegistry.from_dict(dump)
            except (ValueError, OSError) as exc:
                self._dump_errors += 1
                print(f"WARNING: skipping unreadable metrics dump "
                      f"{os.path.basename(path)}: {exc}",
                      file=sys.stderr, flush=True)
                continue
            merged.merge(dump)
        if self._dump_errors:
            merged.counter(self._layout.dump_errors).inc(self._dump_errors)
        return merged

    def metrics_files(self) -> list:
        """The per-child dump paths currently on disk (for inspection or
        ``python -m repro.obs metrics``); none before :meth:`start`."""
        if self._metrics_dir is None:
            return []
        return sorted(
            str(p) for p in pathlib.Path(self._metrics_dir).glob(
                "metrics-*.json"
            )
        )

    def _kill_all(self) -> None:
        for child in self._children:
            if child.poll() is None:
                child.kill()
        for child in self._children:
            try:
                child.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass

    def _release(self) -> None:
        if self._admin_server is not None:
            self._admin_server.close()
            self._admin_server = None
        if self._placeholder is not None:
            try:
                self._placeholder.close()
            except OSError:
                pass
            self._placeholder = None
        if self._own_metrics_dir and self._metrics_dir is not None:
            shutil.rmtree(self._metrics_dir, ignore_errors=True)

    def __enter__(self):
        return self.start() if not self._children else self

    def __exit__(self, *exc_info):
        self.stop()
        return False
