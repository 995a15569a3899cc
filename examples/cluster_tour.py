"""Tour of the sharded cluster: placement, scatter-gather, split points.

Boots a 2-shard simulated cluster — each server carries its shard
identity and the registry home guard — then walks the four things the
cluster layer adds over a single server:

1. deterministic placement: the ShardMap homes registry names by
   sha256 (stable across processes), and ``homed_name`` mines a salted
   name so a per-shard service instance satisfies its home guard;
2. one scatter-gather batch spanning both shards, recorded exactly
   like a single-server batch and flushed in one round trip per shard;
3. a split point: a card created on shard 0 passed as an *argument* to
   shard 1 — the producer chain flushes early and the consuming shard
   reaches the card through a real nested call (slower, never wrong);
4. misrouting: a forged shard stamp and a wrong-home lookup both fail
   with a typed ``WrongShardError`` before any traffic goes astray.

For a real multi-process deployment of the same thing, see
``python -m repro.aio serve --shards 3`` (and ``repro.obs top``
against its admin address).

Run:  python examples/cluster_tour.py
"""

import dataclasses

from repro import LAN, RMIClient, RMIServer, SimNetwork
from repro.apps.bank import CreditManagerImpl
from repro.cluster import ClusterClient, ShardMap, shard_label
from repro.rmi.exceptions import WrongShardError

SHARDS = 2


def main():
    network = SimNetwork(conditions=LAN)
    shard_map = ShardMap(SHARDS)
    addresses = tuple(f"sim://shard{i}:1099" for i in range(SHARDS))
    servers = [
        RMIServer(network, address, shard=shard_label(index, SHARDS),
                  shard_home=shard_map.home_of).start()
        for index, address in enumerate(addresses)
    ]

    # -- 1) placement is a pure function of the name -----------------------
    for name in ("bank", "alice", "inventory"):
        print(f"placement: {name!r:12} -> shard {shard_map.label_of(name)}")
    names = [shard_map.homed_name("bank", index) for index in range(SHARDS)]
    print(f"homed names: {names} (same answer in every process — sha256, "
          f"never hash())")
    for index, name in enumerate(names):
        servers[index].bind(name, CreditManagerImpl(default_limit=1000.0))

    # The facade: one client per shard underneath, routing by the map.
    # (concurrent_flush off: simulated virtual time is single-threaded.)
    cluster = ClusterClient(network, addresses, concurrent_flush=False)
    cluster.verify_shards()  # every connection reports its expected label
    managers = [cluster.lookup(name) for name in names]

    # -- 2) one batch, two shards, one round trip each ---------------------
    before = [cluster.client_for(i).stats.requests for i in range(SHARDS)]
    batch = cluster.create_batch()
    roots = [batch.on(stub) for stub in managers]
    cards = [root.create_credit_account(customer)
             for root, customer in zip(roots, ("alice", "bob"))]
    for card in cards:
        card.make_purchase(120.0)
    lines = [card.get_credit_line() for card in cards]
    batch.flush()
    trips = [cluster.client_for(i).stats.requests - before[i]
             for i in range(SHARDS)]
    print(f"scatter-gather: 6 calls across {SHARDS} shards -> "
          f"{trips} round trips per shard, "
          f"lines {[line.get() for line in lines]}")

    # -- 3) a split point: an argument crosses shards ----------------------
    batch = cluster.create_batch()
    teller0, teller1 = (batch.on(stub) for stub in managers)
    card = teller0.create_credit_account("carol")   # lives on shard 0
    card.make_purchase(250.0)
    line = teller1.credit_line_of(card)  # split: shard 0 flushes early,
    batch.flush()                        # shard 1 reads via a nested call
    print(f"split point: shard 1 read carol's credit line "
          f"{line.get():.2f} across shards (1000 - 250)")

    # -- 4) misrouting fails typed, before any damage ----------------------
    forged = dataclasses.replace(managers[0].remote_ref, shard="1/2")
    try:
        cluster.shard_index_of(forged)
    except WrongShardError as exc:
        print(f"forged stamp rejected client-side: {exc}")
    wrong = RMIClient(network, addresses[1])
    try:
        wrong.lookup(names[0])  # names[0] is homed on shard 0
    except WrongShardError as exc:
        print(f"wrong-home lookup rejected by the server guard: {exc}")
    wrong.close()

    cluster.close()
    for server in servers:
        server.stop()
    network.close()


if __name__ == "__main__":
    main()
