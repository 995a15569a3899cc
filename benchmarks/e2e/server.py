"""The e2e benchmark's server child: one workload's service on loopback.

    python benchmarks/e2e/server.py --workload NAME --seed N

Binds the workload's object on an ``RMIServer`` over the workload's
transport and, beside it, an *echo* listener on the same transport whose
handler skips the RMI layer entirely: the first four request bytes say
how many bytes to answer with.  The harness uses the echo to price the
bare transport hop at the workload's own message sizes.

Protocol with the parent (one line each way, JSON replies):

- on start the child prints ``{"rmi": ADDRESS, "echo": ADDRESS}``;
- ``counters`` on stdin → one line of end-of-window counters;
- ``tracer on`` / ``tracer off`` → installs/removes a full-rate tracer;
- EOF on stdin → the child stops its listeners and exits 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.obs import (  # noqa: E402
    MetricsRegistry,
    Tracer,
    install_tracer,
    uninstall_tracer,
)
from repro.obs.bridge import bind_server  # noqa: E402
from repro.rmi import RMIServer  # noqa: E402

from workloads import WORKLOADS, make_network  # noqa: E402

#: Largest echo answer: the blob workload's response plus headroom.
ECHO_BLOB = bytes(1 << 19)


def echo_handler(payload):
    """Answer with as many bytes as the request's first word asks for."""
    return ECHO_BLOB[:int.from_bytes(bytes(payload[:4]), "big")]


def rss_high_water_kb():
    """VmHWM of this process.  Not ``ru_maxrss``: that also remembers the
    parent's resident size from before the exec, which for a child of a
    larger harness is the bigger number."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def counters(registry, impl):
    """Everything the harness reconciles or reports, as one flat dict:
    the server's published counters plus this process's resource use."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    flat = registry.collected()
    flat["cpu_s"] = time.process_time()
    flat["rss_hwm_kb"] = rss_high_water_kb()
    flat["ctx_switches"] = usage.ru_nvcsw + usage.ru_nivcsw
    if hasattr(impl, "calls"):  # NoOpImpl counts its own calls
        flat["impl_calls"] = impl.calls
    return flat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    network = make_network(workload.transport)
    server = RMIServer(network, "tcp://127.0.0.1:0").start()
    try:
        impl = workload.impl(args.seed)
        server.bind(workload.service, impl)
        registry = MetricsRegistry()
        bind_server(registry, server)
        echo = network.listen("tcp://127.0.0.1:0", echo_handler)
        print(json.dumps({"rmi": server.address, "echo": echo.address}),
              flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "counters":
                reply = counters(registry, impl)
            elif command == "tracer on":
                install_tracer(Tracer(sample_rate=1.0))
                reply = {"tracer": True}
            elif command == "tracer off":
                uninstall_tracer()
                reply = {"tracer": False}
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        server.stop()
        network.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
