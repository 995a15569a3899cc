"""Regenerate every evaluation figure of the paper and print the report.

This is the harness driver behind EXPERIMENTS.md: Figures 5-13 plus the
§5.1 applicability table and the ablations, all on the deterministic
virtual clock (a full tour takes a few seconds of real time).

Run:  python examples/benchmark_tour.py [figure-id ...]
"""

import sys

from repro import LAN, RMIClient, RMIServer, SimNetwork, create_batch
from repro.apps.fileserver import make_directory
from repro.bench import (
    render_applicability,
    render_experiment,
    run_ablation_identity,
    run_ablation_latency,
    run_all_figures,
    run_applicability,
    run_figure,
    run_model_comparison,
    summarize_speedups,
)
from repro.plan.runtime import plan_runtime_of


def main(argv):
    wanted = argv[1:]
    if wanted:
        experiments = {figure_id: run_figure(figure_id) for figure_id in wanted}
    else:
        experiments = run_all_figures()

    for figure_id in sorted(experiments):
        print(render_experiment(experiments[figure_id]))
        print(summarize_speedups(experiments[figure_id]))
        print()

    if not wanted:
        print("== sec5.1: applicability (round trips) ==")
        print(render_applicability(run_applicability()))
        print()
        for experiment in (
            run_ablation_latency(),
            run_ablation_identity(),
            run_model_comparison(),
        ):
            print(render_experiment(experiment, chart=False))
            print()
        print("== plan cache: repeated-batch wire savings ==")
        print(render_plan_cache_demo())


def render_plan_cache_demo(flushes: int = 50) -> str:
    """Run a hot batch with ``reuse_plans=True`` and report the counters."""
    network = SimNetwork(conditions=LAN)
    server = RMIServer(network, "sim://server:1099").start()
    server.bind("root", make_directory(10, 100_000))
    client = RMIClient(network, "sim://server:1099")
    stub = client.lookup("root")
    per_flush = []
    for _ in range(flushes):
        before = client.stats.bytes_sent
        batch = create_batch(stub, reuse_plans=True)
        sizes = [batch.get_file(f"file0{i}.dat").length() for i in range(10)]
        batch.flush()
        for future in sizes:
            future.get()
        per_flush.append(client.stats.bytes_sent - before)
    snap = plan_runtime_of(server).cache.stats.snapshot()
    memo = client.plan_memo
    network.close()
    return (
        f"{flushes} flushes of a 20-invocation batch\n"
        f"bytes/flush: #1 {per_flush[0]} (inline)  "
        f"#2 {per_flush[1]} (install)  #3+ {per_flush[2]} (plan)\n"
        f"plan cache:  hits={snap.hits} misses={snap.misses} "
        f"installs={snap.installs} evictions={snap.evictions} "
        f"bytes_saved={snap.bytes_saved} hit_rate={snap.hit_rate:.1%}\n"
        f"client memo: inline={memo.inline_flushes} "
        f"installs={memo.plan_installs} invocations={memo.plan_invocations}"
    )


if __name__ == "__main__":
    main(sys.argv)
