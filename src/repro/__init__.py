"""repro — Explicit Batching for Distributed Objects (BRMI), in Python.

A from-scratch reproduction of Tilevich & Cook, *Explicit Batching for
Distributed Objects* (2009): an RMI-like distributed-object middleware
plus the BRMI layer — explicit batches, futures, array cursors, exception
policies, and chained batches.

Quickstart (README's "Thirty seconds of API")::

    from repro import LAN, RMIClient, RMIServer, SimNetwork, create_batch
    from repro.apps.fileserver import make_directory

    network = SimNetwork(conditions=LAN)
    server = RMIServer(network, "sim://fs:1099").start()
    server.bind("root", make_directory(10, 100_000))

    client = RMIClient(network, "sim://fs:1099")
    root = client.lookup("root")

    batch = create_batch(root)          # record calls instead of sending them
    index = batch.get_file("file03.dat")
    name, size = index.get_name(), index.length()
    batch.flush()                       # ONE round trip replays the whole batch
    print(name.get(), size.get())       # futures now hold the results

Hot batches can go further with compiled plans: pass
``reuse_plans=True`` and a repeated batch shape is shipped once, cached
server-side under its content hash, and re-invoked afterwards with just
``(hash, argument values)`` — a fraction of the wire bytes per flush::

    for i in range(10):
        batch = create_batch(root, reuse_plans=True)
        size = batch.get_file(f"file{i:02d}.dat").length()
        batch.flush()                   # inline once, then plan invocations
        print(size.get())

This package exports what that programmer writes (paper §3): batches,
futures and cursors, the exception policies, the RMI client and server,
and the networks they talk over.  Everything else comes from its
subpackage or from the module that defines it.

See DESIGN.md for the system inventory (including the plan layer) and
EXPERIMENTS.md for the paper-figure reproductions.
"""

# Importing these two modules registers the batch and plan
# pseudo-methods with the RMI dispatcher; any ``repro`` import runs
# this file, so even a bare ``repro.rmi.dispatch.RMICore`` serves them.
from repro.core import executor as _executor  # noqa: F401
from repro.plan import runtime as _plan_runtime  # noqa: F401
from repro.aio import AioNetwork
from repro.core import (
    AbortPolicy,
    BatchAbortedError,
    BatchError,
    BatchProxy,
    BRMI,
    ContinuePolicy,
    CursorProxy,
    CustomPolicy,
    ExceptionAction,
    Future,
    FutureNotReadyError,
    create_batch,
)
from repro.net import LAN, LOCALHOST, WIRELESS, SimNetwork, TcpNetwork
from repro.rmi import (
    RemoteError,
    RemoteInterface,
    RemoteObject,
    RMIClient,
    RMIServer,
    ServerBusyError,
)

__version__ = "1.0.0"

__all__ = [
    "AbortPolicy",
    "AioNetwork",
    "BatchAbortedError",
    "BatchError",
    "BatchProxy",
    "BRMI",
    "ContinuePolicy",
    "create_batch",
    "CursorProxy",
    "CustomPolicy",
    "ExceptionAction",
    "Future",
    "FutureNotReadyError",
    "LAN",
    "LOCALHOST",
    "RemoteError",
    "RemoteInterface",
    "RemoteObject",
    "RMIClient",
    "RMIServer",
    "ServerBusyError",
    "SimNetwork",
    "TcpNetwork",
    "WIRELESS",
]
