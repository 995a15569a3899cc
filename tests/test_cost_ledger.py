"""Counted cost: a per-layer call ledger of one flush (ROADMAP item 15).

Every ``call`` event (``sys.setprofile`` in this thread,
``threading.setprofile`` in every thread started afterwards) is
attributed to the layer of its callee, ``repro.<layer>``.  A call
counts on the server side while it runs under ``RMICore.handle``.
Frames outside ``src/repro`` are left out: the standard library's
frames differ between CPython versions, the package's do not (except
that 3.12 inlines comprehensions, which only lowers a count).

A count does not move with the host the way a time does, so each row
pins a count as ``<=`` what the code costs today:

- per-layer calls per flush for the four e2e shapes
  (``benchmarks/e2e/workloads.py``), client and server in one process
  on ``SimNetwork``;
- calls per top-level op on threaded TCP, whole stack: the slope
  between a batch of 8 and of 32 noops, inline and as a plan hit,
  under ``AbortPolicy`` and ``ContinuePolicy``; and a 1-op flush, the
  fixed cost.

A change that lowers a count lowers its pin in the same commit.  Run
the module directly (``PYTHONPATH=src python tests/test_cost_ledger.py``)
to print the tables on any interpreter, pytest or not.
"""

from __future__ import annotations

import importlib.util
import os
import statistics
import sys
import threading
import time
from collections import Counter

from repro.apps import NoOpImpl
from repro.core import AbortPolicy, ContinuePolicy, create_batch
from repro.net import SimNetwork, TcpNetwork
from repro.rmi import RetryPolicy, RMIClient, RMIServer
from repro.rmi.dispatch import RMICore

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PACKAGE = os.path.join(_ROOT, "src", "repro") + os.sep
_HANDLE = RMICore.handle.__code__

#: The layer of every frame outside ``src/repro``: counted, never pinned.
OTHER = "other"


class Ledger:
    """Counts ``(side, layer)`` call events while installed."""

    def __init__(self):
        self.counts = Counter()
        self._layers = {}
        self._depth = {}

    def _layer(self, code):
        name = code.co_filename
        layer = OTHER
        if name.startswith(_PACKAGE):
            parts = name[len(_PACKAGE):].split(os.sep)
            layer = parts[0] if len(parts) > 1 else "repro"
        self._layers[code] = layer
        return layer

    def _profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            layer = self._layers.get(code, False)
            if layer is False:
                layer = self._layer(code)
            ident = threading.get_ident()
            depth = self._depth.get(ident, 0)
            if code is _HANDLE:
                depth = self._depth[ident] = depth + 1
            self.counts["server" if depth else "client", layer] += 1
        elif event == "return" and frame.f_code is _HANDLE:
            ident = threading.get_ident()
            self._depth[ident] -= 1

    def __enter__(self):
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc_info):
        sys.setprofile(None)
        threading.setprofile(None)
        return False

    def per_flush(self, flush, flushes, warm=3):
        """Median ``{(side, layer): calls}`` over *flushes* calls of
        *flush* after *warm* more.  Each window ends where the next
        starts, so a server thread's tail lands in some window."""
        for _ in range(warm):
            flush()
        windows = []
        before = Counter(self.counts)
        for _ in range(flushes):
            flush()
            time.sleep(0.002)  # the server thread finishes its reply
            after = Counter(self.counts)
            windows.append(after - before)
            before = after
        keys = set().union(*windows)
        return {key: statistics.median(w[key] for w in windows)
                for key in keys}


def _e2e_workloads():
    """The e2e workload table, loaded read-only from its file."""
    path = os.path.join(_ROOT, "benchmarks", "e2e", "workloads.py")
    spec = importlib.util.spec_from_file_location("_ledger_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def shape_counts(workload, flushes=5, seed=1):
    """Per-layer calls per flush of one e2e shape on ``SimNetwork``."""
    network = SimNetwork()
    with Ledger() as ledger:
        server = RMIServer(network, "sim://ledger:1").start()
        server.bind(workload.service, workload.impl(seed))
        client = RMIClient(network, server.address,
                           retry=RetryPolicy() if workload.retry else None)
        stub = client.lookup(workload.service)
        item = workload.inputs(seed, 0)[0]
        expected = workload.expected(item)

        def flush():
            root = create_batch(stub, policy=workload.policy(),
                                reuse_plans=workload.reuse_plans)
            handles = workload.record(root, item)
            root.flush()
            assert workload.read(handles) == expected

        try:
            return ledger.per_flush(flush, flushes)
        finally:
            client.close()
            server.close()
            network.close()


def tcp_counts(policy_type, reuse_plans, sizes, flushes=5):
    """Whole-stack ``{(side, layer): calls}`` per flush of *n* noops on
    threaded TCP, per *n* in *sizes*.  The server has a private pool,
    closed on exit, so no thread started under the hook outlives the
    ledger."""
    network = TcpNetwork()
    totals = {}
    with Ledger() as ledger:
        server = RMIServer(network, "tcp://127.0.0.1:0",
                           exec_workers=2).start()
        server.bind("noop", NoOpImpl())
        client = RMIClient(network, server.address)
        stub = client.lookup("noop")
        try:
            for n in sizes:
                def flush():
                    root = create_batch(stub, policy=policy_type(),
                                        reuse_plans=reuse_plans)
                    futures = [root.noop() for _ in range(n)]
                    root.flush()
                    for future in futures:
                        future.get()

                totals[n] = ledger.per_flush(flush, flushes)
        finally:
            client.close()
            server.close()
            network.close()
    return totals


def repro_total(counts, side=None):
    """Calls in ``repro.*`` frames, on *side* or both."""
    return sum(calls for (where, layer), calls in counts.items()
               if layer != OTHER and side in (None, where))


def whole_total(counts):
    """Every call, the frames outside ``src/repro`` included."""
    return sum(counts.values())


def shape_table():
    """``{shape: {(side, layer): calls}}`` for the four e2e shapes."""
    return {name: shape_counts(workload)
            for name, workload in _e2e_workloads().items()}


def op_table(layers=repro_total):
    """``{(policy, path): (calls per op, 1-op flush)}`` on threaded TCP,
    each count summed by *layers*."""
    rows = {}
    for policy_type in (AbortPolicy, ContinuePolicy):
        for path, reuse in (("inline", False), ("plan hit", True)):
            counts = tcp_counts(policy_type, reuse, (1, 8, 32))
            slope = (layers(counts[32]) - layers(counts[8])) / 24
            rows[policy_type.__name__, path] = (slope, layers(counts[1]))
    return rows


_cache = {}


def _cached(name, build):
    if name not in _cache:
        _cache[name] = build()
    return _cache[name]


# -- the pins ------------------------------------------------------------------

#: ``repro.*`` calls per flush of each e2e shape on sim, by side and
#: layer.  Whole stack at 54d885c: 244, 681 (client 463, of them 192 in
#: ``repro.core``), 1111 and 461.
SHAPE_PINS = {
    "small_tcp": {
        ("client", "core"): 22, ("client", "net"): 25,
        ("client", "obs"): 14, ("client", "rmi"): 21,
        ("client", "wire"): 44, ("server", "apps"): 1,
        ("server", "core"): 21, ("server", "net"): 14,
        ("server", "obs"): 11, ("server", "rmi"): 11,
        ("server", "wire"): 44},
    "bank_plan_aio": {
        ("client", "apps"): 1, ("client", "core"): 115,
        ("client", "net"): 88, ("client", "obs"): 19,
        ("client", "plan"): 16, ("client", "rmi"): 33,
        ("client", "wire"): 71, ("server", "apps"): 9,
        ("server", "core"): 48, ("server", "net"): 15,
        ("server", "obs"): 14, ("server", "plan"): 9,
        ("server", "rmi"): 24, ("server", "wire"): 49},
    "cursor_fanout_aio": {
        ("client", "core"): 213, ("client", "net"): 46,
        ("client", "obs"): 14, ("client", "rmi"): 29,
        ("client", "wire"): 69, ("server", "apps"): 98,
        ("server", "core"): 229, ("server", "net"): 15,
        ("server", "obs"): 13, ("server", "rmi"): 23,
        ("server", "wire"): 134},
    "blob_fetch_tcp": {
        ("client", "core"): 56, ("client", "net"): 60,
        ("client", "obs"): 14, ("client", "rmi"): 35,
        ("client", "wire"): 78, ("server", "apps"): 6,
        ("server", "core"): 37, ("server", "net"): 14,
        ("server", "obs"): 11, ("server", "rmi"): 14,
        ("server", "wire"): 79},
}

#: ``(calls per op, 1-op flush)`` per (policy, path) on threaded TCP,
#: ``repro.*`` frames only.  At 54d885c: (57, 232), (35, 218), (74, 244)
#: and (43, 218).
OP_PINS = {
    ("AbortPolicy", "inline"): (46, 216),
    ("AbortPolicy", "plan hit"): (24, 205),
    ("ContinuePolicy", "inline"): (48, 221),
    ("ContinuePolicy", "plan hit"): (24, 205),
}


def test_e2e_shapes_cost_no_more_calls_than_pinned():
    table = _cached("shapes", shape_table)
    for shape, pins in SHAPE_PINS.items():
        counts = {key: calls for key, calls in table[shape].items()
                  if key[1] != OTHER}
        over = {key: (calls, pins.get(key, 0)) for key, calls in counts.items()
                if calls > pins.get(key, 0)}
        assert over == {}, shape


def test_per_op_slopes_and_fixed_cost():
    table = _cached("ops", op_table)
    over = {key: (table[key], pins) for key, pins in OP_PINS.items()
            if table[key][0] > pins[0] or table[key][1] > pins[1]}
    assert over == {}


def main():
    """Print both tables, with and without the frames outside the package."""
    print(f"Python {sys.version.split()[0]}")
    shapes = shape_table()
    layers = sorted({layer for counts in shapes.values()
                     for _side, layer in counts})
    print("shape", "all", "repro", "client", "server", *layers, sep="\t")
    for shape, counts in shapes.items():
        per_layer = [sum(counts.get((side, layer), 0)
                         for side in ("client", "server"))
                     for layer in layers]
        print(shape, whole_total(counts), repro_total(counts),
              repro_total(counts, "client"), repro_total(counts, "server"),
              *per_layer, sep="\t")
    for shape, counts in shapes.items():
        print(shape, {f"{side}.{layer}": calls
                      for (side, layer), calls in sorted(counts.items())})
    print("policy", "path", "per op", "1-op", "per op (all)", "1-op (all)",
          sep="\t")
    whole = op_table(whole_total)
    for key, (slope, fixed) in op_table().items():
        print(*key, slope, fixed, *whole[key], sep="\t")


if __name__ == "__main__":
    main()
