"""Plan reuse: wire bytes and latency of hot repeated batches.

The acceptance workload for the compiled-plan subsystem: one
50-invocation batch (file metadata fetches plus a cursor listing, with
an access-denied file exercising the exception policy) flushed 100
times.  With ``reuse_plans=True`` the shape ships once, then every
flush is ``(hash, params)`` — measurably fewer bytes per flush than the
inline path, with identical results, exception behavior and cursor
geometry, under both LAN and WIRELESS conditions.
"""

from repro import (
    LAN,
    WIRELESS,
    ContinuePolicy,
    RMIClient,
    RMIServer,
    SimNetwork,
    create_batch,
)
from repro.apps.fileserver import make_directory
from repro.bench.harness import Experiment, Series
from repro.net.clock import Stopwatch
from repro.plan.runtime import plan_runtime_of

FLUSHES = 100
FILE_CALLS = 24          # get_file + get_name per file
RESTRICTED = "file07.dat"
CHART_POINTS = (1, 2, 5, 10, 25, 50, 100)


def build_env(conditions):
    network = SimNetwork(conditions=conditions)
    server = RMIServer(network, "sim://server:1099").start()
    server.bind(
        "root", make_directory(10, 100_000, restricted_names={RESTRICTED})
    )
    client = RMIClient(network, "sim://server:1099")
    return network, server, client


def flush_once(stub, client, reuse):
    """One 50-invocation flush; returns (bytes_sent, outcome tuple)."""
    before = client.stats.bytes_sent
    batch = create_batch(stub, policy=ContinuePolicy(), reuse_plans=reuse)
    futures = []
    for i in range(FILE_CALLS):
        handle = batch.get_file(f"file0{i % 10}.dat")
        futures.append(handle.length() if i % 3 else handle.get_name())
    cursor = batch.list_files()          # 49th invocation
    names = cursor.get_name()            # 50th: cursor sub-op
    batch.flush()

    outcomes = []
    for future in futures:
        try:
            outcomes.append(("ok", future.get()))
        except Exception as exc:  # noqa: BLE001 - comparing behavior
            outcomes.append(("exc", type(exc).__name__))
    listing = []
    while cursor.next():
        listing.append(names.get())
    from repro.core.cursor import cursor_length

    return (
        client.stats.bytes_sent - before,
        (tuple(outcomes), cursor_length(cursor), tuple(listing)),
    )


def run_workload(conditions, reuse):
    """100 repeated flushes; per-flush bytes, outcomes, total virtual ms."""
    network, server, client = build_env(conditions)
    try:
        stub = client.lookup("root")
        watch = Stopwatch(network.clock)
        per_flush = [flush_once(stub, client, reuse) for _ in range(FLUSHES)]
        elapsed_ms = watch.elapsed_ms()
        plan_stats = plan_runtime_of(server).cache.stats.snapshot()
        return per_flush, elapsed_ms, plan_stats
    finally:
        network.close()


def test_plan_reuse(benchmark, record_experiment):
    experiment = Experiment(
        exp_id="plan-reuse",
        title="Compiled plan reuse, 50-invocation batch x100",
        xlabel="flush number",
        conditions_name="LAN + WIRELESS",
        ylabel="bytes sent per flush",
        notes="Inline ships the full script every flush; plans ship it "
        "once and then send (hash, params).  Flush 2 pays the one-time "
        "plan upload (install and execute in a single round trip).",
    )

    for conditions in (LAN, WIRELESS):
        inline_flushes, inline_ms, _ = run_workload(conditions, reuse=False)
        plan_flushes, plan_ms, plan_stats = run_workload(conditions, reuse=True)

        inline_bytes = [bytes_sent for bytes_sent, _ in inline_flushes]
        plan_bytes = [bytes_sent for bytes_sent, _ in plan_flushes]
        for label, values in (("inline", inline_bytes), ("plans", plan_bytes)):
            series = Series(f"{label} ({conditions.name})")
            for index in CHART_POINTS:
                series.add(index, values[index - 1])
            experiment.series.append(series)

        # Identical behavior, flush by flush: results, exception policy
        # (the access-denied file), and cursor geometry.
        for (_, inline_outcome), (_, plan_outcome) in zip(
            inline_flushes, plan_flushes
        ):
            assert plan_outcome == inline_outcome
        assert ("exc", "AccessDeniedError") in inline_flushes[0][1][0]
        assert inline_flushes[0][1][1] == 10  # cursor sees all ten files

        # The wire-byte claim: every steady-state plan flush ships far
        # fewer bytes than the inline equivalent, and the total wins
        # despite the one-time install.
        assert all(b == inline_bytes[0] for b in inline_bytes)
        steady = plan_bytes[2:]
        assert max(steady) < inline_bytes[0] / 2
        assert sum(plan_bytes) < sum(inline_bytes) / 2
        assert plan_ms < inline_ms

        # The cache agrees with the transport: 98 hits, one direct install.
        assert (plan_stats.hits, plan_stats.misses) == (FLUSHES - 2, 0)
        assert plan_stats.installs == 1
        assert plan_stats.bytes_saved > 0

    record_experiment(experiment)

    # Wall-clock throughput of the hot path (steady-state plan flushes).
    network, server, client = build_env(LAN)
    try:
        stub = client.lookup("root")
        for _ in range(2):
            flush_once(stub, client, reuse=True)  # warm the plan cache
        benchmark(flush_once, stub, client, True)
    finally:
        network.close()
