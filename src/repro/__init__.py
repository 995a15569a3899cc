"""repro — Explicit Batching for Distributed Objects (BRMI), in Python.

A from-scratch reproduction of Tilevich & Cook, *Explicit Batching for
Distributed Objects* (2009): an RMI-like distributed-object middleware
plus the BRMI layer — explicit batches, futures, array cursors, exception
policies, and chained batches.

Quickstart::

    from repro import (SimNetwork, LAN, RMIServer, RMIClient, create_batch)

    net = SimNetwork(conditions=LAN)
    server = RMIServer(net, "sim://server:1099").start()
    server.bind("root", DirectoryImpl())

    client = RMIClient(net, "sim://server:1099")
    root = create_batch(client.lookup("root"))
    index = root.get_file("index.html")
    name = index.get_name()
    size = index.get_size()
    root.flush()                       # one round trip for all three calls
    print(name.get(), size.get())

Hot batches can go further with compiled plans: pass
``reuse_plans=True`` and a repeated batch shape is shipped once, cached
server-side under its content hash, and re-invoked afterwards with just
``(hash, argument values)`` — a fraction of the wire bytes per flush::

    for name in many_names:
        root = create_batch(client.lookup("root"), reuse_plans=True)
        size = root.get_file(name).get_size()
        root.flush()                   # inline once, then plan invocations
        print(name, size.get())

See DESIGN.md for the system inventory (including the plan layer) and
EXPERIMENTS.md for the paper-figure reproductions.
"""

from repro.aio import AioNetwork, AioRMIClient, ServerMetrics
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
    default_policy,
    derive_batch_interfaces,
    generate_batch_interface_source,
)
from repro.net import (
    LAN,
    LOCALHOST,
    WIRELESS,
    FaultSchedule,
    FaultyNetwork,
    HostCosts,
    NetworkConditions,
    SimClock,
    SimNetwork,
    Stopwatch,
    TcpNetwork,
)
from repro.plan import (
    BatchPlan,
    compile_plan,
    PlanCache,
    PlanError,
    PlanInvalidatedError,
    PlanNotFoundError,
    plan_hash,
)
from repro.rmi import (
    CommunicationError,
    RemoteError,
    RetryPolicy,
    RemoteInterface,
    RemoteObject,
    RMIClient,
    RMICore,
    RMIServer,
    ServerBusyError,
    Stub,
)
from repro.wire import ParamSlot, RemoteRef, register_exception, serializable

__version__ = "1.0.0"

__all__ = [
    "AbortPolicy",
    "AioNetwork",
    "AioRMIClient",
    "BatchAbortedError",
    "BatchError",
    "BatchPlan",
    "BatchProxy",
    "BRMI",
    "compile_plan",
    "CommunicationError",
    "ContinuePolicy",
    "create_batch",
    "CursorProxy",
    "CustomPolicy",
    "default_policy",
    "derive_batch_interfaces",
    "ExceptionAction",
    "FaultSchedule",
    "FaultyNetwork",
    "Future",
    "FutureNotReadyError",
    "generate_batch_interface_source",
    "HostCosts",
    "LAN",
    "LOCALHOST",
    "NetworkConditions",
    "ParamSlot",
    "plan_hash",
    "PlanCache",
    "PlanError",
    "PlanInvalidatedError",
    "PlanNotFoundError",
    "register_exception",
    "RemoteError",
    "RemoteInterface",
    "RemoteObject",
    "RemoteRef",
    "RetryPolicy",
    "RMIClient",
    "RMICore",
    "RMIServer",
    "serializable",
    "ServerBusyError",
    "ServerMetrics",
    "SimClock",
    "SimNetwork",
    "Stopwatch",
    "Stub",
    "TcpNetwork",
    "WIRELESS",
]
