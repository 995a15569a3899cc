"""Integrity of the cost accounting that the benchmarks rest on.

If charges silently stopped being reported or priced, the figures would
still *run* but measure the wrong thing; these tests pin the plumbing.
"""

import pytest

from repro.apps import make_directory
from repro.core import (
    ContinuePolicy,
    CustomPolicy,
    ExceptionAction,
    create_batch,
)
from repro.core.executor import executor_of
from repro.net.conditions import (
    CHARGE_BATCH_OP,
    CHARGE_BATCH_SETUP,
    CHARGE_REMOTE_EXPORT,
    CHARGE_STUB_CREATE,
)
from repro.rmi import RMIClient, RMIServer

from tests.support import BoomError, CounterImpl, make_container


class TestServerCharges:
    def test_batch_execution_charges(self, env):
        batch = create_batch(env.client.lookup("counter"))
        for _ in range(4):
            batch.increment(1)
        batch.flush()
        charges = env.server.stats.snapshot().charges
        assert charges.get(CHARGE_BATCH_SETUP, 0) >= 1
        assert charges.get(CHARGE_BATCH_OP, 0) >= 4

    def test_remote_return_charges_export(self, env):
        stub = env.client.lookup("container")
        before = env.server.stats.snapshot().charges.get(
            CHARGE_REMOTE_EXPORT, 0
        )
        stub.get_item("item0")
        after = env.server.stats.snapshot().charges.get(
            CHARGE_REMOTE_EXPORT, 0
        )
        assert after == before + 1

    def test_batched_remote_return_does_not_charge_export(self, env):
        env.server.bind("c-export", make_container())
        stub = env.client.lookup("c-export")  # the lookup itself exports
        before = env.server.stats.snapshot().charges.get(
            CHARGE_REMOTE_EXPORT, 0
        )
        batch = create_batch(stub)
        item = batch.get_item("item0")
        item.score()
        batch.flush()
        after = env.server.stats.snapshot().charges.get(
            CHARGE_REMOTE_EXPORT, 0
        )
        assert after == before, "remote results must stay server-side"

    def test_client_charges_stub_creation(self, env):
        before = env.client.stats.snapshot().charges.get(
            CHARGE_STUB_CREATE, 0
        )
        env.client.lookup("container").get_item("item0")
        after = env.client.stats.snapshot().charges.get(CHARGE_STUB_CREATE, 0)
        assert after > before


class TestChargesPriceVirtualTime:
    def test_charged_events_advance_the_clock(self, env):
        cost = env.network.hosts.charge_cost(CHARGE_BATCH_OP, 10)
        assert cost > 0
        start = env.network.clock.now()
        env.server.charge(CHARGE_BATCH_OP, 10)
        assert env.network.clock.now() == pytest.approx(start + cost)

    def test_free_host_profile_disables_charges(self, network):
        from repro.net.conditions import FREE_CPU, LAN
        from repro.net.sim import SimNetwork

        free_net = SimNetwork(conditions=LAN, hosts=FREE_CPU)
        start = free_net.clock.now()
        free_net.charge_cpu(CHARGE_REMOTE_EXPORT, 100)
        assert free_net.clock.now() == start


class ChargeLog:
    """A server's charge sink that keeps every call it receives."""

    def __init__(self):
        self.calls = []

    def __call__(self, kind, count=1):
        self.calls.append((kind, count))

    def total(self, kind):
        return sum(count for k, count in self.calls if k == kind)


def flush_logged(network, impl, record, policy, exec_workers):
    """Record a batch on *impl* with *record* and flush it on a fresh
    server whose charge sink, installed once the lookup has been
    charged, is a :class:`ChargeLog`.  Returns the log, what *record*
    returned and the scheduler counters."""
    server = RMIServer(network, "sim://charges:1",
                       exec_workers=exec_workers).start()
    server.bind("root", impl)
    client = RMIClient(network, server.address)
    try:
        stub = client.lookup("root")
        log = ChargeLog()
        server.set_charge_sink(log)
        batch = create_batch(stub, policy=policy)
        handles = record(batch)
        batch.flush()
        return log, handles, executor_of(server).scheduler.snapshot()
    finally:
        client.close()
        server.close()


def record_cursor(root):
    """The e2e ruler's DAG-path batch: 32 files × 2 sub-ops."""
    cursor = root.list_files()
    return cursor, cursor.get_name(), cursor.length()


def record_two_chains(root):
    for name in ("file00.dat", "file03.dat"):
        root.get_file(name).length()


def record_continue_failure(root):
    root.increment(1)
    root.boom("no")
    root.increment(2)


def record_repeat_then_success(root):
    root.flaky(2)
    root.current()


def record_restart(root):
    root.increment(1)
    root.flaky(1)
    root.current()


def policy_on_boom(action):
    policy = CustomPolicy()
    policy.set_default_action(ExceptionAction.CONTINUE)
    policy.set_action(BoomError, action)
    return policy


def directory():
    # file03 and file10 deny ``length``: CONTINUE failures inside the
    # cursor and at the end of a chain.
    return make_directory(32, 4096,
                          restricted_names=("file03.dat", "file10.dat"))


#: (row, root impl, recorder, policy, ``batch_op`` per flush).  The
#: totals are what per-op charging reports; charging once per unit or
#: worker run must add up to exactly the same.
BATCH_OP_ROWS = [
    ("cursor 32x2", directory, record_cursor, ContinuePolicy, 65),
    ("two chains", directory, record_two_chains, ContinuePolicy, 4),
    ("continue failure", CounterImpl, record_continue_failure,
     ContinuePolicy, 3),
    ("repeat then success", CounterImpl, record_repeat_then_success,
     lambda: policy_on_boom(ExceptionAction.REPEAT), 2),
    ("restart", CounterImpl, record_restart,
     lambda: policy_on_boom(ExceptionAction.RESTART), 4),
]


class TestBatchOpCharges:
    @pytest.mark.parametrize("exec_workers", [0, 4])
    @pytest.mark.parametrize(
        "make_impl,record,make_policy,expected",
        [row[1:] for row in BATCH_OP_ROWS],
        ids=[row[0] for row in BATCH_OP_ROWS],
    )
    def test_batch_op_total_per_flush(self, network, exec_workers,
                                      make_impl, record, make_policy,
                                      expected):
        log, _, _ = flush_logged(network, make_impl(), record,
                                 make_policy(), exec_workers)
        assert log.total(CHARGE_BATCH_OP) == expected
        assert log.total(CHARGE_BATCH_SETUP) == (
            2 if record is record_restart else 1)

    @pytest.mark.parametrize(
        "make_impl,record,make_policy",
        [row[1:4] for row in BATCH_OP_ROWS],
        ids=[row[0] for row in BATCH_OP_ROWS],
    )
    def test_width_one_charges_ops_once_per_run(self, network, make_impl,
                                                record, make_policy):
        """Width 1 is one run into the batch outcome: one op charge per
        run of the batch (a RESTART runs it twice)."""
        log, _, _ = flush_logged(network, make_impl(), record,
                                 make_policy(), 0)
        op_charges = [kind for kind, _ in log.calls].count(CHARGE_BATCH_OP)
        assert op_charges == log.total(CHARGE_BATCH_SETUP)

    @pytest.mark.parametrize("exec_workers", [0, 4])
    def test_cursor_flush_charges_once_per_unit_and_run(
            self, network, exec_workers):
        """At most one sink call per unit and per worker run, plus the
        setup: per-op charging made 66 calls for this flush."""
        log, (cursor, names, _lengths), snap = flush_logged(
            network, directory(), record_cursor, ContinuePolicy(),
            exec_workers)
        assert cursor.next() and names.get() == "file00.dat"
        units = 1
        runs = 1 + snap["helpers"]
        assert len(log.calls) <= units + runs + 1, log.calls
        assert log.total(CHARGE_BATCH_OP) == 65


class TestBandwidthClaims:
    def test_brmi_listing_moves_fewer_bytes_than_rmi(self, env):
        """Batching must save bytes, not just round trips: one envelope
        instead of 41."""
        from repro.apps import list_directory_brmi, list_directory_rmi, make_directory

        env.server.bind("fs-bytes", make_directory(10, 1000))
        stub = env.client.lookup("fs-bytes")
        env.client.stats.reset()
        list_directory_rmi(stub)
        rmi_bytes = env.client.stats.snapshot().total_bytes
        env.client.stats.reset()
        list_directory_brmi(stub)
        brmi_bytes = env.client.stats.snapshot().total_bytes
        assert brmi_bytes < rmi_bytes

    def test_batch_request_bytes_grow_linearly(self, env):
        """Marginal cost per recorded op on the wire is bounded."""
        sizes = {}
        for count in (1, 11):
            batch = create_batch(env.client.lookup("counter"))
            for _ in range(count):
                batch.current()
            env.client.stats.reset()
            batch.flush()
            sizes[count] = env.client.stats.snapshot().bytes_sent
        per_op = (sizes[11] - sizes[1]) / 10
        # Each descriptor carries its qualified class names, so ~260 bytes
        # per op; the bound catches accidental quadratic blow-ups.
        assert 0 < per_op < 400, f"per-op wire cost {per_op} bytes"
