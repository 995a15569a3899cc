"""The four e2e workloads: what is bound, recorded, read and expected.

Shared by the harness (``run.py``), the server child (``server.py``) and
the staged trace (``staged.py``) so that all three agree on the inputs.
Each workload is one closed-loop batch shape chosen to load a different
set of layers; the reasons are in README.md and BENCHMARK.json.

Everything a flush sends is generated here from ``--seed``; the program
under test (``src/repro``) only ever sees those generated inputs.
"""

from __future__ import annotations

import random

from repro.aio import AioNetwork
from repro.apps import (
    CreditManagerImpl,
    NoOpImpl,
    bank_policy,
    make_directory,
)
from repro.core import ContinuePolicy
from repro.net import TcpNetwork

#: Distinct inputs a flow cycles through (drawn once, outside the timed loop).
INPUT_CYCLE = 64

BANK_FLOWS = 2
BANK_ACCOUNTS_PER_FLOW = 8
BANK_PURCHASES = 6
BANK_LIMIT = 5000.0

CURSOR_FILES = 32
CURSOR_BYTES = CURSOR_FILES * 256

BLOB_FILES = 2
BLOB_BYTES = BLOB_FILES * 131072


def make_network(transport):
    """The transport a workload names, for either end of the connection."""
    return AioNetwork() if transport == "aio" else TcpNetwork()


class Workload:
    """One batch shape.  Subclasses fill in the class attributes and the
    five hooks; the harness never branches on the workload's name."""

    name = ""
    why = ""
    transport = "tcp"       # "tcp" (threaded TcpNetwork) or "aio"
    service = ""            # registry name the batch root is looked up by
    flows = 1               # client threads, one connection each
    reuse_plans = False
    retry = False           # RetryPolicy(): every request carries a call_id
    ops_per_flush = 0       # op executions server-side, cursor sub-ops included
    cursor_elements = 0
    warm_flushes = 200      # verified flushes before the first slice
    slice_s = 0.1           # one measured slice: some 20 to 150 flushes

    def policy(self):
        """Exception policy of a fresh batch (None = default AbortPolicy)."""
        return None

    def impl(self, seed):
        """The server-side object bound under :attr:`service`."""
        raise NotImplementedError

    def inputs(self, seed, flow):
        """The input items flow *flow* cycles through, one per flush."""
        return [None]

    def record(self, root, item):
        """Record the ops on batch root *root*; returns what read() needs."""
        raise NotImplementedError

    def read(self, handles):
        """Read every future of a flushed batch into a comparable value."""
        raise NotImplementedError

    def expected(self, item):
        """What read() must return for *item* — the client-side model."""
        raise NotImplementedError

    def body(self, impl, item):
        """The same method bodies called directly on the impl: the floor
        under ``core.execute_us`` (``apps.body_us``)."""
        raise NotImplementedError


class SmallTcp(Workload):
    name = "small_tcp"
    why = ("1-op noop batch on threaded TCP: the smallest message, so fixed "
           "per-flush cost (rmi dispatch, wire headers, tcp framing) shows "
           "undiluted")
    transport = "tcp"
    service = "noop"
    ops_per_flush = 1
    slice_s = 0.02

    def impl(self, seed):
        return NoOpImpl()

    def record(self, root, item):
        return root.noop()

    def read(self, future):
        return future.get()

    def expected(self, item):
        return None

    def body(self, impl, item):
        impl.noop()


class BankPlanAio(Workload):
    name = "bank_plan_aio"
    why = ("9 dependent bank writes as plan hits with retry tokens on 2 aio "
           "connections: the only load on plan, dedup, the serial executor "
           "and the pipelined hop")
    transport = "aio"
    service = "bank"
    flows = BANK_FLOWS
    reuse_plans = True
    retry = True
    ops_per_flush = 3 + BANK_PURCHASES
    # Two interleaving flows spread the latencies from 0.7 to 1.4 times the
    # median: a p90 needs some 150 flushes to repeat.
    slice_s = 0.3

    def policy(self):
        return bank_policy()

    @staticmethod
    def customers(flow):
        return [f"flow{flow}-acct{i:02d}"
                for i in range(BANK_ACCOUNTS_PER_FLOW)]

    def impl(self, seed):
        manager = CreditManagerImpl(default_limit=BANK_LIMIT)
        for flow in range(BANK_FLOWS):
            for customer in self.customers(flow):
                manager.create_credit_account(customer)
        return manager

    def inputs(self, seed, flow):
        rng = random.Random(f"{seed}/bank/{flow}")
        customers = self.customers(flow)
        # Six purchases of under 500 can never exceed the 5000 line.
        return [
            (rng.choice(customers),
             tuple(round(rng.uniform(1.0, 499.0), 2)
                   for _ in range(BANK_PURCHASES)))
            for _ in range(INPUT_CYCLE)
        ]

    def record(self, root, item):
        customer, amounts = item
        account = root.find_credit_account(customer)
        purchases = [account.make_purchase(amount) for amount in amounts]
        # Paying the whole limit returns the account to a zero balance,
        # so every flush leaves the server as it found it.
        paid = account.pay_balance(BANK_LIMIT)
        return purchases, paid, account.get_credit_line()

    def read(self, handles):
        purchases, paid, line = handles
        return [p.get() for p in purchases], paid.get(), line.get()

    def expected(self, item):
        return [None] * BANK_PURCHASES, 0.0, BANK_LIMIT

    def body(self, impl, item):
        customer, amounts = item
        account = impl.find_credit_account(customer)
        for amount in amounts:
            account.make_purchase(amount)
        account.pay_balance(BANK_LIMIT)
        account.get_credit_line()


class CursorFanoutAio(Workload):
    name = "cursor_fanout_aio"
    why = ("32-element cursor with 2 sub-ops under ContinuePolicy on aio: 65 "
           "ops on the DAG-parallel executor path, transport small — the "
           "opposite executor use from bank_plan_aio")
    transport = "aio"
    service = "dir"
    ops_per_flush = 1 + 2 * CURSOR_FILES
    cursor_elements = CURSOR_FILES
    warm_flushes = 25       # 1600 op executions; 200 flushes would take 3 s
    slice_s = 0.25

    def policy(self):
        return ContinuePolicy()

    def impl(self, seed):
        return make_directory(CURSOR_FILES, CURSOR_BYTES, seed=seed)

    def inputs(self, seed, flow):
        listing = [
            (node.get_name(), node.length())
            for node in self.impl(seed).list_files()
        ]
        return [listing]

    def record(self, root, item):
        cursor = root.list_files()
        return cursor, cursor.get_name(), cursor.length()

    def read(self, handles):
        cursor, name, length = handles
        listing = []
        while cursor.next():
            listing.append((name.get(), length.get()))
        return listing

    def expected(self, item):
        return item

    def body(self, impl, item):
        for node in impl.list_files():
            node.get_name()
            node.length()


class BlobFetchTcp(Workload):
    name = "blob_fetch_tcp"
    why = ("2 files of 128 KiB read in a 4-op batch on threaded TCP: 256 KiB "
           "down per flush, the only load on the per-byte paths (wire bytes, "
           "FrameReceiver, sendmsg)")
    transport = "tcp"
    service = "dir"
    ops_per_flush = 2 * BLOB_FILES

    def impl(self, seed):
        return make_directory(BLOB_FILES, BLOB_BYTES, seed=seed)

    def inputs(self, seed, flow):
        contents = {
            node.get_name(): node.read_contents()
            for node in self.impl(seed).list_files()
        }
        rng = random.Random(f"{seed}/blob")
        names = sorted(contents)
        items = []
        for _ in range(INPUT_CYCLE):
            order = tuple(rng.sample(names, len(names)))
            items.append((order, [contents[name] for name in order]))
        return items

    def record(self, root, item):
        order, _contents = item
        return [root.get_file(name).read_contents() for name in order]

    def read(self, futures):
        return [future.get() for future in futures]

    def expected(self, item):
        # Byte equality with the locally built directory: a memcmp per
        # file, stronger and cheaper per flush than hashing 256 KiB.
        return item[1]

    def body(self, impl, item):
        for name in item[0]:
            impl.get_file(name).read_contents()


WORKLOADS = {
    workload.name: workload
    for workload in (SmallTcp(), BankPlanAio(), CursorFanoutAio(),
                     BlobFetchTcp())
}
