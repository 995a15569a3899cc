"""Compiled batch plans end to end: wire bytes and latency of hot batches.

Runs the same repeated 50-invocation file-server batch twice — inline
(the paper's wire format, full script every flush) and with
``reuse_plans=True`` (content-addressed plan cache) — under simulated
LAN and WIRELESS conditions, then prints the per-flush byte counts, the
virtual-time savings, and the server's plan-cache counters.

Run:  python examples/plan_cache_tour.py
"""

from repro import (
    LAN,
    WIRELESS,
    RMIClient,
    RMIServer,
    SimNetwork,
    create_batch,
)
from repro.apps.fileserver import make_directory
from repro.net.clock import Stopwatch
from repro.plan.runtime import plan_runtime_of

FLUSHES = 100
FILES = 25  # get_file + length per file -> a 50-invocation batch


def run(conditions, reuse):
    network = SimNetwork(conditions=conditions)
    server = RMIServer(network, "sim://fileserver:1099").start()
    server.bind("root", make_directory(10, 100_000))
    client = RMIClient(network, "sim://fileserver:1099")
    stub = client.lookup("root")

    per_flush = []
    watch = Stopwatch(network.clock)
    for _ in range(FLUSHES):
        before = client.stats.bytes_sent
        batch = create_batch(stub, reuse_plans=reuse)
        sizes = []
        for i in range(FILES):
            sizes.append(batch.get_file(f"file0{i % 10}.dat").length())
        batch.flush()
        total = sum(future.get() for future in sizes)
        per_flush.append(client.stats.bytes_sent - before)
    elapsed_ms = watch.elapsed_ms()

    cache_snapshot = plan_runtime_of(server).cache.stats.snapshot()
    memo = client.plan_memo
    network.close()
    return per_flush, elapsed_ms, cache_snapshot, memo, total


def main():
    for conditions in (LAN, WIRELESS):
        print(f"== {conditions.name}: {FLUSHES} flushes of a "
              f"{FILES * 2}-invocation batch ==")
        inline_bytes, inline_ms, _, _, inline_total = run(conditions, False)
        plan_bytes, plan_ms, cache, memo, plan_total = run(conditions, True)
        assert plan_total == inline_total  # identical results

        print(f"  inline: {inline_bytes[0]:>6} bytes/flush, "
              f"{inline_ms:8.1f} virtual ms total")
        print(f"  plans:  {plan_bytes[-1]:>6} bytes/flush steady-state "
              f"({inline_bytes[0] / plan_bytes[-1]:.1f}x fewer), "
              f"{plan_ms:8.1f} virtual ms total "
              f"({inline_ms / plan_ms:.1f}x faster)")
        print(f"  flush timeline: #1 {plan_bytes[0]}B (inline, learning), "
              f"#2 {plan_bytes[1]}B (plan install), "
              f"#3+ {plan_bytes[2]}B (hash + params)")
        print(f"  plan cache: hits={cache.hits} misses={cache.misses} "
              f"installs={cache.installs} evictions={cache.evictions} "
              f"bytes_saved={cache.bytes_saved} "
              f"hit_rate={cache.hit_rate:.1%}")
        print(f"  client memo: inline={memo.inline_flushes} "
              f"installs={memo.plan_installs} "
              f"invocations={memo.plan_invocations}")
        print()


if __name__ == "__main__":
    main()
