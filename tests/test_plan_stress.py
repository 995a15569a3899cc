"""Plan-cache behavior under concurrency and eviction pressure.

Two escalations beyond the functional plan tests:

- a thread-per-client stress run over real TCP, everyone flushing the
  same hot shape with ``reuse_plans=True`` — no lost updates, no
  deadlock, and the plan accounting adds up exactly
  (``inline + installs + invocations == flushes`` per client,
  ``cache hits == sum of successful plan invocations`` server-side);
- LRU eviction races: a client whose installed plan was evicted by
  other clients' shapes transparently reinstalls via the typed
  :class:`~repro.rmi.exceptions.PlanNotFoundError` miss protocol and
  still gets identical results.
"""

import threading

import pytest

from repro.apps.bank import CreditManagerImpl
from repro.core import create_batch
from repro.net import LOCALHOST, SimNetwork, TcpNetwork
from repro.plan.runtime import plan_runtime_of
from repro.rmi import RMIClient, RMIServer

from tests.support import CounterImpl

THREADS = 8
FLUSHES_PER_THREAD = 10
PURCHASES_PER_FLUSH = 3


class TestTcpConcurrencyStress:
    @pytest.fixture
    def tcp_bank(self):
        network = TcpNetwork()
        server = RMIServer(network, "tcp://127.0.0.1:0").start()
        manager = CreditManagerImpl(default_limit=10_000.0)
        manager.create_credit_account("alice")
        server.bind("bank", manager)
        yield network, server, manager
        server.close()
        network.close()

    def test_shared_hot_batch_has_no_lost_updates(self, tcp_bank):
        network, server, manager = tcp_bank
        errors = []
        clients = []

        def worker(client):
            try:
                stub = client.lookup("bank")
                for _ in range(FLUSHES_PER_THREAD):
                    batch = create_batch(stub, reuse_plans=True)
                    account = batch.find_credit_account("alice")
                    futures = [
                        account.make_purchase(1.0)
                        for _ in range(PURCHASES_PER_FLUSH)
                    ]
                    line = account.get_credit_line()
                    batch.flush()
                    for future in futures:
                        assert future.get() is None
                    assert line.get() >= 0.0
            except Exception as exc:  # noqa: BLE001 - surfaced to the test
                errors.append(exc)

        for _ in range(THREADS):
            clients.append(RMIClient(network, server.address))
        threads = [
            threading.Thread(target=worker, args=(client,), daemon=True)
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        try:
            assert not any(t.is_alive() for t in threads), "stress deadlocked"
            assert errors == []

            # No lost updates: every purchase of every flush landed.
            balance = manager._accounts["alice"]._balance
            assert balance == THREADS * FLUSHES_PER_THREAD * PURCHASES_PER_FLUSH

            # Per-client plan accounting: every flush went out exactly one
            # way.
            total_invocations = 0
            for client in clients:
                memo = client.plan_memo
                assert (
                    memo.inline_flushes + memo.plan_installs
                    + memo.plan_invocations
                ) == FLUSHES_PER_THREAD
                total_invocations += memo.plan_invocations

            # Server-side: every successful plan invocation is a cache hit;
            # hits + misses account for every __invoke_plan__ that arrived.
            snapshot = plan_runtime_of(server).cache.stats.snapshot()
            assert snapshot.hits == total_invocations
            assert snapshot.misses == 0
            assert 1 <= snapshot.installs <= THREADS
        finally:
            for client in clients:
                client.close()


def _flush_counter_shape(stub, amounts):
    """One hot shape: ``len(amounts)`` increments in a single batch."""
    batch = create_batch(stub, reuse_plans=True)
    futures = [batch.increment(amount) for amount in amounts]
    batch.flush()
    return [future.get() for future in futures]


class TestEvictionRace:
    @pytest.fixture
    def evicting_server(self):
        network = SimNetwork(conditions=LOCALHOST)
        server = RMIServer(network, "sim://server:1099", plan_capacity=2)
        server.start()
        server.bind("counter-a", CounterImpl())
        server.bind("counter-b", CounterImpl())
        yield network, server
        server.close()
        network.close()

    def test_evicted_plan_reinstalls_transparently(self, evicting_server):
        network, server = evicting_server
        client_a = RMIClient(network, server.address)
        client_b = RMIClient(network, server.address)
        try:
            stub_a = client_a.lookup("counter-a")
            stub_b = client_b.lookup("counter-b")

            # Client A heats a two-increment shape: inline, install, hit.
            expected_a, model = [], 0
            for _ in range(3):
                for amount in (1, 2):
                    model += amount
                    expected_a.append(model)
            observed_a = []
            for _ in range(3):
                observed_a.extend(_flush_counter_shape(stub_a, (1, 2)))
            assert observed_a == expected_a
            assert client_a.plan_memo.plan_invocations == 1

            # Client B pushes two other shapes through the capacity-2
            # cache, evicting A's plan.
            for _ in range(3):
                _flush_counter_shape(stub_b, (5,))
            for _ in range(3):
                _flush_counter_shape(stub_b, (7, 7, 7))
            assert plan_runtime_of(server).cache.stats.snapshot().evictions >= 1

            # A's memo still says "confirmed", so the next flush goes out
            # as __invoke_plan__, takes the typed miss, reinstalls, and
            # the results are exactly what naive execution would produce.
            before = plan_runtime_of(server).cache.stats.snapshot()
            values = _flush_counter_shape(stub_a, (1, 2))
            model += 1
            first = model
            model += 2
            assert values == [first, model]
            after = plan_runtime_of(server).cache.stats.snapshot()
            assert after.misses == before.misses + 1
            assert client_a.plan_memo.plan_installs == 2
        finally:
            client_a.close()
            client_b.close()

    def test_two_clients_racing_a_tiny_cache_stay_correct(self):
        network = TcpNetwork()
        server = RMIServer(network, "tcp://127.0.0.1:0", plan_capacity=1)
        server.start()
        server.bind("counter-a", CounterImpl())
        server.bind("counter-b", CounterImpl())
        errors = []
        clients = [RMIClient(network, server.address) for _ in range(2)]
        shapes = {0: (3,), 1: (2, 4)}
        rounds = 12

        def worker(thread_index, client):
            try:
                stub = client.lookup(
                    "counter-a" if thread_index == 0 else "counter-b"
                )
                amounts = shapes[thread_index]
                expected, model = [], 0
                observed = []
                for _ in range(rounds):
                    for amount in amounts:
                        model += amount
                        expected.append(model)
                    observed.extend(_flush_counter_shape(stub, amounts))
                assert observed == expected
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, c), daemon=True)
            for i, c in enumerate(clients)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(t.is_alive() for t in threads), "race deadlocked"
            assert errors == []

            # Every __invoke_plan__ was either a hit or a typed miss, and
            # every miss was healed by an install; the flush accounting
            # still balances per client.
            snapshot = plan_runtime_of(server).cache.stats.snapshot()
            total_invocations = 0
            for client in clients:
                memo = client.plan_memo
                assert (
                    memo.inline_flushes + memo.plan_installs
                    + memo.plan_invocations
                ) == rounds
                total_invocations += memo.plan_invocations
            assert snapshot.hits == total_invocations
            assert snapshot.installs >= 2
        finally:
            for client in clients:
                client.close()
            server.close()
            network.close()
