"""Differential conformance under real concurrency.

The fuzzer (PR 2) established that one client's batch programs match a
naive-RMI oracle.  This suite establishes the same equivalence when N
clients hammer ONE shared asyncio server concurrently — each client runs
a fuzz-style program through every plan wire path (inline → install →
plan hit) against per-client state, and every observable must match an
oracle executed with plain sequential RMI calls on an isolated server.
On top of per-client results, the *shared* plan cache's counters must
stay exactly consistent: content-addressed shapes are installed once
each, and repeated flushes hit.

The shed path is part of the claim: a request rejected by admission
control never executed, so a client that retries must converge on
exactly the oracle's state — no lost or double-applied batches.
"""

import re
import threading
import time

import pytest

from repro.aio import AioNetwork, LoadTargetImpl
from repro.apps.fileserver import make_directory
from repro.core import ContinuePolicy, create_batch
from repro.net import LAN, SimNetwork, TcpNetwork
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.plan.runtime import plan_runtime_of
from repro.rmi import (
    MarshalError,
    RetryPolicy,
    RMIClient,
    RMIServer,
    ServerBusyError,
)
from repro.wire.framing import FrameTooLargeError

from tests.support import BoomError, CounterImpl

#: Concurrent clients sharing the server (each with its own connection).
CLIENTS = 6

#: Flushes of the same shape per client: inline, install, then hits.
ROUNDS = 5


def run_program(stub, calls: int, rounds: int, reuse_plans: bool):
    """The fuzz-style program: *rounds* flushes of one batch shape.

    Each round records *calls* increments, a deliberately failing call
    under ContinuePolicy, and a read — covering values, exceptions, and
    ordering in one shape.  Returns every observable: per-future values
    and the exception types raised.
    """
    observed = []
    for round_no in range(rounds):
        batch = create_batch(stub, policy=ContinuePolicy(),
                             reuse_plans=reuse_plans)
        futures = [batch.increment(step + 1) for step in range(calls)]
        boom = batch.boom("planned failure")
        current = batch.current()
        batch.flush()
        values = [f.get() for f in futures]
        try:
            boom.get()
            failure = None
        except BoomError as exc:
            failure = (type(exc).__name__, str(exc))
        observed.append((values, failure, current.get()))
    return observed


class TestConcurrentConformance:
    def test_n_clients_match_naive_oracle(self):
        network = AioNetwork(max_workers=8, queue_depth=64)
        oracle_net = SimNetwork(conditions=LAN)
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            oracle_server = RMIServer(oracle_net, "sim://oracle:1").start()
            for c in range(CLIENTS):
                server.bind(f"counter{c}", CounterImpl())
                oracle_server.bind(f"counter{c}", CounterImpl())

            # Oracle: the same programs, naive sequential RMI, no
            # concurrency — per-client state makes the comparison exact.
            oracle_client = RMIClient(oracle_net, "sim://oracle:1")
            expected = {
                c: run_program(oracle_client.lookup(f"counter{c}"),
                               calls=c + 2, rounds=ROUNDS, reuse_plans=False)
                for c in range(CLIENTS)
            }

            results = {}
            errors = []

            def client_worker(c):
                try:
                    client = RMIClient(network, server.address)
                    stub = client.lookup(f"counter{c}")
                    results[c] = run_program(
                        stub, calls=c + 2, rounds=ROUNDS, reuse_plans=True
                    )
                    client.close()
                except Exception as exc:  # noqa: BLE001 - report, don't hang
                    errors.append((c, repr(exc)))

            threads = [
                threading.Thread(target=client_worker, args=(c,))
                for c in range(CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not errors
            divergences = {
                c: (results[c], expected[c])
                for c in range(CLIENTS)
                if results[c] != expected[c]
            }
            assert divergences == {}, f"batched != oracle: {divergences}"

            # The shared cache's books must balance: every client's shape
            # is distinct (different call count), installed exactly once
            # on first repeat, then hit on every later flush.
            cache = plan_runtime_of(server).cache.stats.snapshot()
            assert cache.installs == CLIENTS
            assert cache.hits == CLIENTS * (ROUNDS - 2)
            assert cache.misses == 0
            oracle_client.close()
        finally:
            oracle_net.close()
            network.close()

    def test_shed_clients_converge_on_oracle_state(self):
        """Retried-after-shed batches apply exactly once."""
        network = AioNetwork(max_workers=1, queue_depth=1)
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            counter = CounterImpl()
            server.bind("counter", counter)
            server.bind("load", LoadTargetImpl())
            clients = 8
            batches_each = 3
            retried = [0] * clients
            errors = []

            def client_worker(c):
                try:
                    client = RMIClient(network, server.address)
                    while True:
                        try:
                            stub = client.lookup("counter")
                            break
                        except ServerBusyError:
                            retried[c] += 1
                            time.sleep(0.005)
                    for _ in range(batches_each):
                        while True:
                            try:
                                batch = create_batch(stub)
                                future = batch.increment(1)
                                batch.flush()
                                future.get()
                                break
                            except ServerBusyError:
                                retried[c] += 1
                                time.sleep(0.005)
                    client.close()
                except Exception as exc:  # noqa: BLE001
                    errors.append((c, repr(exc)))

            threads = [
                threading.Thread(target=client_worker, args=(c,))
                for c in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not errors
            # Oracle state: every batch applied exactly once, regardless
            # of how many attempts admission control rejected.
            assert counter.value == clients * batches_each
            metrics = server.metrics
            assert metrics.served >= clients * batches_each
            assert metrics.shed == sum(retried)
        finally:
            network.close()

    def test_shed_is_deterministic_when_saturated(self):
        """With the one worker provably busy, the burst must shed."""
        network = AioNetwork(max_workers=1, queue_depth=1)
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            server.bind("load", LoadTargetImpl())
            client = RMIClient(network, server.address)
            stub = client.lookup("load")
            outcomes = []

            def call(delay):
                try:
                    outcomes.append(("ok", stub.work(delay)))
                except ServerBusyError:
                    outcomes.append(("shed", None))

            occupier = threading.Thread(target=call, args=(0.4,))
            occupier.start()
            time.sleep(0.1)  # worker now provably sleeping in work()
            burst = [threading.Thread(target=call, args=(0.0,))
                     for _ in range(4)]
            for t in burst:
                t.start()
            for t in burst:
                t.join()
            occupier.join()
            shed = sum(1 for kind, _ in outcomes if kind == "shed")
            # Capacity 2 (1 running + 1 queued): of the 4 burst calls at
            # most one fits the queue; at least three must shed.
            assert shed >= 3
            assert server.metrics.shed == shed
            client.close()
        finally:
            network.close()


#: The frame cap the oversized cases lower the wire to.
CAP = 1024


@pytest.fixture(params=[TcpNetwork, AioNetwork], ids=["tcp", "aio"])
def network(request):
    network = request.param()
    yield network
    network.close()


@pytest.fixture
def capped(monkeypatch):
    def apply():
        monkeypatch.setattr("repro.wire.framing.MAX_FRAME_SIZE", CAP)
        monkeypatch.setattr("repro.aio.frames.MAX_FRAME_SIZE", CAP)
    return apply


class TestOversizedRequest:
    """A request over the frame cap is the caller's error, on every
    transport alike: it raises :class:`FrameTooLargeError` where it was
    made and leaves the connection — which other threads may be
    pipelining on — exactly as it was.  (The aio channel used to report
    a dead connection, which a retrying client then really dropped,
    reconnected and re-sent ``max_attempts`` times.)"""

    def test_raises_in_the_caller_and_the_channel_stays_open(
            self, network, capped):
        listener = network.listen("tcp://127.0.0.1:0", lambda p: bytes(p))
        channel = network.connect(listener.address)
        assert channel.request(b"warm") == b"warm"
        capped()
        with pytest.raises(FrameTooLargeError):
            channel.request(b"x" * (2 * CAP))
        assert channel.stats.requests == 1
        assert channel.request(b"same channel") == b"same channel"
        assert channel.stats.requests == 2

    def test_a_retrying_client_attempts_it_once(self, network, capped):
        tracer = install_tracer(Tracer(sample_rate=1.0))
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            server.bind("counter", CounterImpl())
            client = RMIClient(network, server.address, retry=RetryPolicy())
            stub = client.lookup("counter")
            channel = client.channel
            capped()
            with pytest.raises(FrameTooLargeError):
                stub.boom("x" * (2 * CAP))
            failed = [attrs for attrs in (
                span.to_dict()["attrs"] for span in tracer.spans()
                if span.name == "client.send") if "error" in attrs]
            assert [attrs["attempt"] for attrs in failed] == [0]
            assert "FrameTooLargeError" in failed[0]["error"]
            assert client.channel is channel  # not dropped, not redialled
            assert stub.increment(1) == 1
            client.close()
        finally:
            uninstall_tracer()


class TestOversizedResponse:
    """A response over the frame cap is the server's typed answer: a
    :class:`MarshalError` naming its size, made once.  A dropped
    connection would be retried, and the dedup window would replay the
    oversized bytes to every attempt."""

    def test_is_a_marshal_error_made_once(self, network, capped,
                                          monkeypatch):
        leaked = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: leaked.append(args.exc_type))
        tracer = install_tracer(Tracer(sample_rate=1.0))
        try:
            server = RMIServer(network, "tcp://127.0.0.1:0").start()
            server.bind("files", make_directory(1, 4 * CAP))
            client = RMIClient(network, server.address,
                               retry=RetryPolicy(max_attempts=4))
            entry = client.lookup("files").get_file("file00.dat")
            capped()
            sent = len(tracer.spans())
            with pytest.raises(MarshalError) as info:
                entry.read_contents()
            attempts = [span for span in tracer.spans()[sent:]
                        if span.name == "client.send"]
            assert len(attempts) == 1
            size = re.search(r"frame of (\d+) bytes exceeds limit 1024",
                             str(info.value))
            assert size and int(size.group(1)) > 4 * CAP
            assert server.dedup.hits == 0
            assert entry.length() == 4 * CAP  # the connection stayed up
            client.close()
            server.close()  # joins the threaded listener's connections
            assert leaked == []
        finally:
            uninstall_tracer()
