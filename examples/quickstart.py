"""Quickstart: the paper's running example (§3.1-§3.3) end to end.

Builds a remote file server on a simulated 1 Gbps LAN, fetches one
file's name and size first over plain RMI (three round trips) and then
as a single explicit batch (one round trip), and shows exception
handling moving from the call site to the future access.

Run:  python examples/quickstart.py
"""

from repro import LAN, ContinuePolicy, RMIClient, RMIServer, SimNetwork, create_batch
from repro.apps.fileserver import AccessDeniedError, make_directory
from repro.plan.runtime import plan_runtime_of


def main():
    # -- server side -----------------------------------------------------
    network = SimNetwork(conditions=LAN)
    server = RMIServer(network, "sim://fileserver:1099").start()
    server.bind(
        "root",
        make_directory(10, 100_000, restricted_names={"file07.dat"}),
    )

    # -- plain RMI: one round trip per call --------------------------------
    client = RMIClient(network, "sim://fileserver:1099")
    root = client.lookup("root")

    before = client.stats.requests
    index = root.get_file("file03.dat")
    name = index.get_name()
    size = index.length()
    rmi_trips = client.stats.requests - before
    print(f"RMI:  {name} is {size} bytes  ({rmi_trips} round trips)")

    # -- BRMI: the same program, one explicit batch ------------------------
    before = client.stats.requests
    batch = create_batch(client.lookup("root"))
    index = batch.get_file("file03.dat")
    name_future = index.get_name()
    size_future = index.length()
    batch.flush()
    brmi_trips = client.stats.requests - before - 1  # minus the lookup
    print(
        f"BRMI: {name_future.get()} is {size_future.get()} bytes  "
        f"({brmi_trips} round trip)"
    )

    # -- exception handling happens at future access (§3.3) ---------------
    batch = create_batch(client.lookup("root"), policy=ContinuePolicy())
    locked = batch.get_file("file07.dat")
    locked_name = locked.get_name()
    locked_size = locked.length()  # will fail on the server
    batch.flush()  # no exception here!
    try:
        print(f"{locked_name.get()} is {locked_size.get()} bytes")
    except AccessDeniedError:
        print(f"{locked_name.get()}: size unknown (access denied)")

    # -- hot batches: compiled plans (reuse_plans=True) --------------------
    # The same shape flushed repeatedly ships the full script once; after
    # that each flush sends only a content hash plus the argument values.
    root_stub = client.lookup("root")
    per_flush = []
    for round_no in range(4):
        before = client.stats.bytes_sent
        batch = create_batch(root_stub, reuse_plans=True)
        size = batch.get_file("file03.dat").length()
        batch.flush()
        size.get()
        per_flush.append(client.stats.bytes_sent - before)
    cache = plan_runtime_of(server).cache.stats.snapshot()
    print(
        f"plans: flush bytes {per_flush} "
        f"(cache: {cache.hits} hits, {cache.installs} install)"
    )

    print(f"virtual time elapsed: {network.clock.now() * 1e3:.3f} ms")
    network.close()


if __name__ == "__main__":
    main()
