"""Exactly-once client retries: backoff, reconnect, and the dedup window.

The contract under test: a retrying client resends one *logical* call —
same idempotency token, same bytes — until it gets a response, and the
server executes that token at most once however many duplicates arrive,
in whatever order, on however many connections.
"""

import itertools
import threading

import pytest

from repro.net import FaultSchedule, FaultyNetwork, SimNetwork
from repro.net.conditions import FREE_CPU, LOCALHOST
from repro.net.transport import Channel, ConnectionClosedError
from repro.rmi import (
    CommunicationError,
    DedupWindow,
    RMIClient,
    RMIServer,
    RetryPolicy,
    ServerBusyError,
)
from repro.rmi.protocol import CallRequest, CallResponse
from repro.wire import decode, encode

from tests.support import CounterImpl

SERVER = "sim://server:1099"


@pytest.fixture
def world():
    network = SimNetwork(LOCALHOST, FREE_CPU)
    server = RMIServer(network, SERVER).start()
    impl = CounterImpl()
    server.bind("counter", impl)
    yield network, server, impl
    server.close()
    network.close()


def retry_client(network, events, **overrides):
    settings = dict(max_attempts=5, backoff_s=0.0)
    settings.update(overrides)
    return RMIClient(
        FaultyNetwork(network, FaultSchedule.scripted(events)),
        SERVER,
        retry=RetryPolicy(**settings),
        sleep=lambda _s: None,
    )


class TestRetryPolicy:
    def test_backoff_ceiling_doubles_and_caps(self):
        policy = RetryPolicy(max_attempts=6, backoff_s=0.1, backoff_cap_s=0.5)
        ceilings = [policy.ceiling_after(i) for i in range(5)]
        assert ceilings == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_no_jitter_delays_equal_the_ceiling(self):
        policy = RetryPolicy(max_attempts=6, backoff_s=0.1, backoff_cap_s=0.5,
                             jitter=False)
        delays = [policy.delay_after(i) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_full_jitter_draws_within_the_envelope(self):
        import random

        policy = RetryPolicy(max_attempts=6, backoff_s=0.1, backoff_cap_s=0.5,
                             rng=random.Random(7))
        for attempt in range(5):
            draws = [policy.delay_after(attempt) for _ in range(50)]
            ceiling = policy.ceiling_after(attempt)
            assert all(0.0 <= d <= ceiling for d in draws)
            # A lockstep schedule would make every draw identical; full
            # jitter must actually spread the herd.
            assert len(set(draws)) > 1

    def test_injected_rng_makes_jitter_reproducible(self):
        import random

        a = RetryPolicy(backoff_s=0.1, rng=random.Random(42))
        b = RetryPolicy(backoff_s=0.1, rng=random.Random(42))
        assert [a.delay_after(i) for i in range(4)] == \
            [b.delay_after(i) for i in range(4)]

    def test_jitter_never_touches_the_global_random_stream(self):
        import random

        random.seed(2009)
        expected = random.random()
        random.seed(2009)
        RetryPolicy(backoff_s=0.1).delay_after(3)
        assert random.random() == expected

    def test_total_backoff_is_the_worst_case_envelope(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1, backoff_cap_s=0.5)
        assert policy.total_backoff() == pytest.approx(0.1 + 0.2 + 0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=1.0, backoff_cap_s=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay_after(-1)
        with pytest.raises(ValueError):
            RetryPolicy().ceiling_after(-1)

    def test_client_rejects_non_policy(self, world):
        network, _, _ = world
        with pytest.raises(TypeError):
            RMIClient(network, SERVER, retry=3)


class TestRetryHeals:
    def test_drop_request_retries_without_double_execution(self, world):
        network, _, impl = world
        client = retry_client(network, [None, "drop-request"])
        stub = client.lookup("counter")
        assert stub.increment(1) == 1
        assert impl.value == 1  # attempt 1 never delivered; attempt 2 ran
        client.close()

    def test_drop_response_dedups_instead_of_re_executing(self, world):
        network, server, impl = world
        client = retry_client(network, [None, "drop-response"])
        stub = client.lookup("counter")
        assert stub.increment(1) == 1
        assert impl.value == 1  # the dangerous case: executed, reply lost
        assert server.dedup.hits == 1
        client.close()

    def test_corrupt_response_replays_the_recorded_answer(self, world):
        network, server, impl = world
        client = retry_client(network, [None, "corrupt-response"])
        stub = client.lookup("counter")
        assert stub.increment(7) == 7
        assert impl.value == 7
        assert server.dedup.hits == 1
        client.close()

    def test_repeated_faults_within_budget_still_converge(self, world):
        network, server, impl = world
        client = retry_client(
            network,
            [None, "drop-response", "truncate-response", "drop-request"],
        )
        stub = client.lookup("counter")
        assert stub.increment(2) == 2
        assert impl.value == 2
        client.close()

    def test_backoff_sleeps_follow_the_policy(self, world):
        network, _, _ = world
        slept = []
        client = RMIClient(
            FaultyNetwork(
                network,
                FaultSchedule.scripted(
                    [None, "drop-request", "drop-request"]
                ),
            ),
            SERVER,
            retry=RetryPolicy(max_attempts=4, backoff_s=0.01,
                              backoff_cap_s=0.02, jitter=False),
            sleep=slept.append,
        )
        stub = client.lookup("counter")
        assert stub.increment(1) == 1
        assert slept == [0.01, 0.02]
        client.close()

    def test_exhausted_retries_raise_typed_error(self, world):
        network, _, impl = world
        client = retry_client(
            network, [None] + ["drop-request"] * 5, max_attempts=3
        )
        stub = client.lookup("counter")
        with pytest.raises(CommunicationError, match="after 3 attempts"):
            stub.increment(1)
        assert impl.value == 0  # every attempt died before delivery
        client.close()

    def test_server_busy_is_retried(self, world):
        network, _, impl = world

        class BusyOnceNetwork:
            """Sheds the first request of every channel, then delegates."""

            def __init__(self, inner):
                self._inner = inner

            def connect(self, address, from_host="client"):
                inner_channel = self._inner.connect(address, from_host)
                busy = encode(CallResponse(ServerBusyError(1), True))

                class Shedding(Channel):
                    def __init__(self):
                        super().__init__()
                        self.shed_once = False

                    def request(self, payload):
                        if not self.shed_once:
                            self.shed_once = True
                            return busy
                        return inner_channel.request(payload)

                    def close(self):
                        inner_channel.close()

                return Shedding()

        client = RMIClient(
            BusyOnceNetwork(network), SERVER,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
            sleep=lambda _s: None,
        )
        assert "counter" in client.list_names()
        client.close()

    def test_traffic_stats_survive_reconnects(self, world):
        network, _, _ = world
        client = retry_client(network, ["drop-response", None, None])
        before = client.stats.requests
        client.list_names()
        client.list_names()
        assert client.stats.requests >= before + 2
        client.close()

    def test_closed_client_fails_fast_not_after_backoff(self, world):
        """Use-after-close is a programming error: it must surface as a
        typed failure immediately, not after burning the retry budget."""
        network, _, _ = world
        slept = []
        client = RMIClient(
            network, SERVER,
            retry=RetryPolicy(max_attempts=5, backoff_s=0.5),
            sleep=slept.append,
        )
        client.close()
        with pytest.raises(CommunicationError, match="client is closed"):
            client.list_names()
        assert slept == []  # no backoff was attempted

    def test_without_retry_no_token_no_dedup(self, world):
        network, server, impl = world
        client = RMIClient(network, SERVER)
        stub = client.lookup("counter")
        stub.increment(1)
        assert server.dedup.executed == 0  # untokened calls bypass it
        client.close()


class TestDialOutsideTheLock:
    def test_close_does_not_wait_for_a_dial_and_the_dial_cleans_up(
            self, world):
        """A reconnect can take the transport's whole connect timeout;
        ``close()`` and ``plan_memo`` must not queue behind it, and the
        channel it finally opens must not be installed on (or leaked
        by) a client that was closed meanwhile."""
        network, _, _ = world
        dialling = threading.Event()
        release = threading.Event()
        opened = []

        class SlowRedialNetwork:
            def connect(self, address, from_host="client"):
                if opened:  # every dial after the first one stalls
                    dialling.set()
                    release.wait(10.0)
                channel = network.connect(address, from_host)
                opened.append(channel)
                return channel

        client = RMIClient(
            FaultyNetwork(SlowRedialNetwork(),
                          FaultSchedule.scripted(["drop-request"])),
            SERVER, retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
            sleep=lambda _s: None,
        )
        outcome = []

        def call():
            try:
                outcome.append(client.list_names())
            except CommunicationError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call)
        closer = threading.Thread(target=client.close)
        try:
            caller.start()
            assert dialling.wait(5.0)  # the resend's reconnect is stuck
            assert client.plan_memo is not None  # takes the same lock
            closer.start()
            closer.join(2.0)
            assert not closer.is_alive()  # close() returned mid-dial
        finally:
            release.set()
            caller.join(5.0)
            closer.join(5.0)
        assert not caller.is_alive()
        assert len(opened) == 2
        assert client.channel is None  # the late channel was not installed
        assert not any(channel._open for channel in opened)
        (error,) = outcome
        assert "client is closed" in str(error)


class TestDedupWindow:
    def test_duplicate_replays_without_recompute(self):
        window = DedupWindow()
        calls = []

        def compute():
            calls.append(1)
            return b"answer"

        assert window.execute("t1", compute) == b"answer"
        assert window.execute("t1", compute) == b"answer"
        assert calls == [1]
        assert window.hits == 1
        assert window.executed == 1

    def test_distinct_tokens_execute_independently(self):
        window = DedupWindow()
        assert window.execute("a", lambda: b"1") == b"1"
        assert window.execute("b", lambda: b"2") == b"2"
        assert window.executed == 2
        assert window.hits == 0

    def test_capacity_evicts_oldest_completed(self):
        window = DedupWindow(capacity=2)
        calls = []
        for token in ("a", "b", "c"):
            window.execute(token, lambda t=token: calls.append(t) or t.encode())
        assert len(window) == 2
        # "a" was evicted: a very late duplicate re-executes.
        window.execute("a", lambda: calls.append("a2") or b"a")
        assert calls == ["a", "b", "c", "a2"]

    def test_concurrent_duplicates_single_flight(self):
        window = DedupWindow()
        started = threading.Event()
        release = threading.Event()
        executions = []

        def slow_compute():
            executions.append(1)
            started.set()
            release.wait(5.0)
            return b"slow"

        results = []
        owner = threading.Thread(
            target=lambda: results.append(window.execute("t", slow_compute))
        )
        owner.start()
        assert started.wait(5.0)
        dup = threading.Thread(
            target=lambda: results.append(
                window.execute("t", lambda: b"WRONG")
            )
        )
        dup.start()
        release.set()
        owner.join(5.0)
        dup.join(5.0)
        assert results == [b"slow", b"slow"]
        assert executions == [1]
        assert window.hits == 1

    def test_duplicate_timeout_returns_none(self):
        window = DedupWindow(wait_timeout=0.01)
        release = threading.Event()
        thread = threading.Thread(
            target=lambda: window.execute(
                "t", lambda: release.wait(5.0) or b"late"
            )
        )
        thread.start()
        import time

        deadline = time.monotonic() + 5.0
        while len(window) == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert window.execute("t", lambda: b"WRONG") is None
        release.set()
        thread.join(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DedupWindow(capacity=0)


class TestDedupEntryStates:
    """A token is a latch while it executes and bare bytes afterwards."""

    def test_completed_tokens_keep_bytes_only(self):
        window = DedupWindow()
        for n in range(50):
            window.execute(f"t{n}", lambda n=n: b"r%d" % n)
        assert window.execute("t7", lambda: b"WRONG") == b"r7"
        values = list(window._entries.values())
        assert len(values) == 50
        assert all(type(value) is bytes for value in values)

    def test_full_window_costs_under_1kb_per_entry(self):
        import tracemalloc

        window = DedupWindow()
        tokens = [f"{n:036x}" for n in range(4096)]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for token in tokens:
                window.execute(token, lambda: bytes(410))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(window) == 4096
        assert (after - before) / 4096 < 1024

    @staticmethod
    def start_slow_owner(window, token, observer=None):
        """Own *token* on a thread whose compute blocks until released."""
        started, release = threading.Event(), threading.Event()
        results = []

        def slow_compute():
            started.set()
            assert release.wait(5.0)
            return b"slow"

        owner = threading.Thread(
            target=lambda: results.append(
                window.execute(token, slow_compute, observer)
            )
        )
        owner.start()
        assert started.wait(5.0)
        return owner, release, results

    def test_mid_flight_duplicate_waits_then_late_one_replays_at_once(self):
        window = DedupWindow()
        outcomes = []
        owner, release, results = self.start_slow_owner(
            window, "t", outcomes.append
        )
        dup = threading.Thread(
            target=lambda: results.append(
                window.execute("t", lambda: b"WRONG", outcomes.append)
            )
        )
        dup.start()
        dup.join(0.05)
        assert dup.is_alive()  # parked on the owner's latch
        release.set()
        owner.join(5.0)
        dup.join(5.0)
        assert not owner.is_alive() and not dup.is_alive()
        assert results == [b"slow", b"slow"]
        assert sorted(outcomes) == ["executed", "replayed"]
        # Finished: no latch is left for a late duplicate to wait on.
        assert window._entries["t"] == b"slow"
        assert window.execute("t", lambda: b"WRONG", outcomes.append) == b"slow"
        assert outcomes[-1] == "replayed"
        assert window.hits == 2 and window.executed == 1

    def test_eviction_never_drops_an_in_flight_token(self):
        window = DedupWindow(capacity=2)
        owner, release, results = self.start_slow_owner(window, "slow")
        for n in range(5):  # "slow" is the oldest entry throughout
            window.execute(f"t{n}", lambda: b"quick")
        assert len(window) == 2
        assert "slow" in window._entries
        release.set()
        owner.join(5.0)
        assert not owner.is_alive()
        assert results == [b"slow"]
        assert window.execute("slow", lambda: b"WRONG") == b"slow"

    def test_none_response_forgets_the_token(self):
        window = DedupWindow()
        assert window.execute("t", lambda: None) is None
        assert len(window) == 0
        assert window.execute("t", lambda: b"second") == b"second"
        assert window.executed == 2


class TestFixedWidthTokens:
    def test_width_is_constant_from_call_1_to_100_000(self, world):
        network, _server, _impl = world
        client = retry_client(network, [])
        try:
            first = client._next_call_id()
            client._call_ids = itertools.count(100_000)
            late = client._next_call_id()
        finally:
            client.close()
        assert len(first) == len(late) == 36
        assert first[:24] == late[:24] and first != late

    def test_request_size_does_not_depend_on_client_age(self, world):
        network, _server, _impl = world
        client = retry_client(network, [])
        stub = client.lookup("counter")

        def bytes_of_one_call():
            before = client.stats.snapshot().bytes_sent
            stub.increment(1)
            return client.stats.snapshot().bytes_sent - before

        try:
            young = bytes_of_one_call()
            client._call_ids = itertools.count(100_000)
            old = bytes_of_one_call()
        finally:
            client.close()
        assert young == old

    def test_tokens_never_repeat_or_collide(self, world):
        network, _server, _impl = world
        clients = [retry_client(network, []) for _ in range(2)]
        try:
            minted = [
                [client._next_call_id() for _ in range(2000)]
                for client in clients
            ]
        finally:
            for client in clients:
                client.close()
        assert len(set(minted[0]) | set(minted[1])) == 4000


class TestExactlyOnceThroughDispatch:
    def test_concurrent_duplicate_payloads_execute_once(self, world):
        """Two threads delivering the same token-stamped payload — the
        wire-level picture of a retry racing its original — must apply
        the side effect once and return identical response bytes."""
        network, server, impl = world

        class SlowCounter(CounterImpl):
            def increment(self, amount):
                import time

                time.sleep(0.05)
                return super().increment(amount)

        slow = SlowCounter()
        ref = server.bind("slow", slow)
        payload = encode(
            CallRequest(ref.object_id, "increment", (1,), {}, "token-1")
        )
        responses = []
        threads = [
            threading.Thread(
                target=lambda: responses.append(server.handle(payload))
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
        assert slow.value == 1
        assert len(responses) == 2
        assert responses[0] == responses[1]
        assert decode(responses[0]).value == 1
