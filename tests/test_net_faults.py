"""Unit tests for fault schedules, driving the simulator through the
chaos wrapper (the simulator injects no faults of its own)."""

import sys
import threading

import pytest

from repro.apps.noop import NoOpImpl
from repro.core import create_batch
from repro.net import FaultSchedule, FaultyNetwork
from repro.net.conditions import FREE_CPU, LOCALHOST
from repro.net.sim import SimNetwork
from repro.net.transport import ConnectionClosedError
from repro.rmi import RMIClient, RMIServer

ADDRESS = "sim://s:1"
DROPS = ("drop-request",)


@pytest.fixture
def net():
    network = SimNetwork(LOCALHOST, FREE_CPU)
    network.listen(ADDRESS, lambda p: p)
    yield network
    network.close()


def echoes(network, schedule, payloads):
    """Send each payload through a wrapper driven by *schedule*: the echo,
    or None where a drop severed the channel (the next payload dials a
    fresh one)."""
    chaos = FaultyNetwork(network, schedule)
    channel = chaos.connect(ADDRESS)
    got = []
    for payload in payloads:
        try:
            got.append(channel.request(payload))
        except ConnectionClosedError:
            got.append(None)
            channel = chaos.connect(ADDRESS)
    return got


class TestFailNext:
    """Failing the next n requests is a script of n drops."""

    def test_fails_exactly_n_requests(self, net):
        schedule = FaultSchedule.scripted(["drop-request"] * 2)
        assert echoes(net, schedule, [b"1", b"2", b"3"]) == [None, None, b"3"]

    def test_counts_injections(self, net):
        schedule = FaultSchedule.scripted(["drop-request"])
        echoes(net, schedule, [b""])
        assert schedule.injected == 1


class TestDropRate:
    def test_zero_rate_never_fails(self, net):
        payloads = [b"x"] * 20
        assert echoes(net, FaultSchedule(rate=0.0), payloads) == payloads

    def test_full_rate_always_fails(self, net):
        schedule = FaultSchedule(rate=1.0, kinds=DROPS)
        assert echoes(net, schedule, [b"x"] * 5) == [None] * 5

    def test_seeded_determinism(self, net):
        def run(seed):
            schedule = FaultSchedule(seed=seed, rate=0.5, kinds=DROPS)
            return echoes(net, schedule, [b"x"] * 50)

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_invalid_probability(self):
        for bad in ({"rate": 1.5}, {"rate": -0.1}, {"connect_rate": 2.0}):
            with pytest.raises(ValueError):
                FaultSchedule(**bad)


class TestConcurrency:
    """One schedule drives every channel of a network, so its totals
    must not depend on how threads interleave: each decision takes one
    script entry, or one rate draw (plus a kind draw when it injects),
    atomically under the schedule's lock."""

    @staticmethod
    def _hammer(schedule, threads, decisions_per_thread):
        start = threading.Barrier(threads)
        injected = []
        lock = threading.Lock()

        def worker():
            start.wait()
            mine = sum(
                schedule.decide("request") is not None
                for _ in range(decisions_per_thread)
            )
            with lock:
                injected.append(mine)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt inside decide() often
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert len(injected) == threads
        return sum(injected)

    def test_fail_next_fails_exactly_n_across_threads(self):
        schedule = FaultSchedule.scripted(["drop-request"] * 37)
        total = self._hammer(schedule, threads=8, decisions_per_thread=50)
        assert total == 37
        assert schedule.injected == 37

    def test_drop_rate_totals_are_interleaving_independent(self):
        # A serial schedule is the reference, not random.Random: an
        # injecting decision draws its kind too.
        serial = FaultSchedule(seed=42, rate=0.5)
        expected = sum(
            serial.decide("request") is not None for _ in range(8 * 100)
        )
        schedule = FaultSchedule(seed=42, rate=0.5)
        total = self._hammer(schedule, threads=8, decisions_per_thread=100)
        assert total == expected
        assert schedule.injected == expected
        assert schedule.history == serial.history


class TestChargeBooks:
    def test_a_client_behind_the_wrapper_books_what_a_plain_one_does(self):
        """Charges land on the channel the client holds, the wrapper."""
        def one_batch(wrap):
            network = SimNetwork(LOCALHOST)
            try:
                RMIServer(network, ADDRESS).start().bind("noop", NoOpImpl())
                client = RMIClient(wrap(network), ADDRESS)
                batch = create_batch(client.lookup("noop"))
                for _ in range(3):
                    batch.noop()
                batch.flush()
                client.close()
                return client.stats.snapshot()
            finally:
                network.close()

        plain = one_batch(lambda network: network)
        wrapped = one_batch(
            lambda network: FaultyNetwork(network, FaultSchedule()))
        assert plain.charges == {
            "stub_create": 1, "proxy_create": 1, "batch_record": 3}
        assert wrapped == plain
