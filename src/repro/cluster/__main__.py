"""CLI for standing up a sharded BRMI cluster.

``serve`` runs the ``shards=N`` layout of the one process-group
:class:`~repro.aio.supervisor.Supervisor` — one ``python -m repro.aio
serve --shard i/N`` process per shard — under the same serve loop as
``python -m repro.aio serve --procs N``
(:func:`repro.aio.__main__.serve_group`), and prints the deployment on
stdout, one line each::

    SHARDS 3
    ADDRESSES tcp://127.0.0.1:5001,tcp://127.0.0.1:5002,tcp://127.0.0.1:5003
    ADMIN tcp://127.0.0.1:6000        (with --admin-port)

then serves until stdin reaches EOF or a SIGTERM/SIGINT arrives, drains
every shard, and (with ``--metrics-json``) writes the merged
cluster-wide metrics registry.  Point ``python -m repro.obs top|health``
at the ADMIN address, and a :class:`~repro.cluster.client.ClusterClient`
at the ADDRESSES list (in order — the position is the shard index).
"""

from __future__ import annotations

import argparse

from repro.aio.__main__ import group_size, port_or_auto, serve_group
from repro.aio.supervisor import Supervisor


def _serve(args) -> int:
    supervisor = Supervisor(
        shards=args.shards, transport=args.transport,
        workers=args.workers, queue_depth=args.queue_depth,
        exec_workers=args.exec_workers,
        metrics_dir=args.metrics_dir or None,
        admin=args.admin_port,
    ).start()
    announce = [f"SHARDS {supervisor.procs}",
                f"ADDRESSES {','.join(supervisor.addresses)}"]
    if args.admin_port is not None:
        announce.append(f"ADMIN {supervisor.admin_address}")
    return serve_group(supervisor, args, announce, "SHARD_DIED")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="sharded multi-server BRMI cluster deployment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run an N-shard cluster")
    serve.add_argument("--shards", type=group_size, default=2,
                       help="shard count (default 2)")
    serve.add_argument("--transport", default="aio", choices=("aio", "tcp"))
    serve.add_argument("--workers", type=int, default=64,
                       help="worker pool size per shard")
    serve.add_argument("--exec-workers", type=int, default=None,
                       metavar="N",
                       help="per-shard DAG-scheduler pool for parallel batch "
                            "execution: unset = shared default pool, "
                            "0 = serial only, N = private pool of N")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="admission queue depth per shard")
    serve.add_argument("--admin-port", type=port_or_auto, default=None,
                       metavar="PORT",
                       help="serve the cluster-wide admin aggregation on "
                            "this port ('auto' picks an ephemeral one)")
    serve.add_argument("--metrics-dir", default=None, metavar="DIR",
                       help="keep per-shard metrics dumps in DIR")
    serve.add_argument("--metrics-json", default=None, metavar="FILE",
                       help="write the merged cluster metrics to FILE on "
                            "shutdown")
    serve.set_defaults(func=_serve)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
