"""End-to-end trace propagation over real transports, plus the CLI.

The tentpole's acceptance shape: run a traced batched program over the
threaded TCP transport and the pipelined asyncio transport, and get back
one *connected* span tree per logical call — client spans and server
spans joined by the wire context — that ``python -m repro.obs`` can
check and render.
"""

import asyncio
import json
import textwrap
import threading
from collections import Counter

import pytest

from repro.apps import make_directory
from repro.core import create_batch
from repro.core.executor import executor_of
from repro.core.policies import ContinuePolicy, CustomPolicy, ExceptionAction
from repro.net import LAN, FaultSchedule, FaultyNetwork, SimNetwork
from repro.net.tcp import TcpNetwork
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.obs.__main__ import main as obs_main
from repro.obs.export import build_trace_trees, check_spans, render_span_tree
from repro.obs.metrics import MetricsRegistry
from repro.rmi import (
    CommunicationError,
    RemoteInterface,
    RemoteObject,
    RetryPolicy,
    RMIClient,
    RMIServer,
    ServerBusyError,
)

from tests.support import BoomError, CounterImpl

REQUIRED = (
    "client.flush",
    "client.call",
    "client.encode",
    "client.send",
    "server.handle",
    "server.execute",
    "server.op",
)


@pytest.fixture
def tracer():
    installed = install_tracer(Tracer(sample_rate=1.0))
    yield installed
    uninstall_tracer()


def traced_batch_run(network, tracer):
    """One batched 3-op program against a counter server on *network*."""
    server = RMIServer(network, "tcp://127.0.0.1:0").start()
    server.bind("counter", CounterImpl())
    client = RMIClient(network, server.address)
    try:
        stub = client.lookup("counter")
        batch = create_batch(stub)
        batch.increment(1)
        batch.increment(2)
        future = batch.current()
        batch.flush()
        assert future.get() == 3
    finally:
        client.close()
        server.close()
    return [span.to_dict() for span in tracer.spans()]


def assert_connected_batch_trace(spans):
    assert check_spans(spans, require_names=REQUIRED) == []
    trees = build_trace_trees(spans)
    flush_traces = [
        trace for trace in trees.values()
        if any(node.span["name"] == "client.flush" for node in trace)
    ]
    assert flush_traces, "no trace rooted at the batch flush"
    # The flush's trace is one connected tree: a single root whose
    # subtree reaches from the client's encode to the server's per-op
    # execution.
    (roots,) = flush_traces

    def names(nodes):
        out = set()
        for node in nodes:
            out.add(node.span["name"])
            out |= names(node.children)
        return out

    assert len(roots) == 1
    assert set(REQUIRED) <= names(roots)


class TestTcpPropagation:
    def test_batch_trace_is_one_connected_tree(self, tracer):
        network = TcpNetwork()
        try:
            spans = traced_batch_run(network, tracer)
        finally:
            network.close()
        assert_connected_batch_trace(spans)

    def test_sampling_off_records_nothing_on_clean_runs(self):
        quiet = install_tracer(Tracer(sample_rate=0.0))
        try:
            network = TcpNetwork()
            try:
                spans = traced_batch_run(network, quiet)
            finally:
                network.close()
        finally:
            uninstall_tracer()
        assert spans == []  # nothing forced happened, nothing recorded


class TestAioPropagation:
    def test_batch_trace_is_one_connected_tree(self, tracer):
        from repro.aio import AioNetwork

        network = AioNetwork()
        try:
            spans = traced_batch_run(network, tracer)
        finally:
            network.close()
        assert_connected_batch_trace(spans)


class TestRenderer:
    def test_tree_renders_names_and_timings(self, tracer):
        network = TcpNetwork()
        try:
            spans = traced_batch_run(network, tracer)
        finally:
            network.close()
        text = render_span_tree(spans)
        assert "client.flush" in text
        assert "server.op" in text
        assert "ms" in text


class TestObsCli:
    def _trace_file(self, tracer, tmp_path):
        network = TcpNetwork()
        try:
            traced_batch_run(network, tracer)
        finally:
            network.close()
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(path)
        return str(path)

    def test_check_accepts_a_good_trace(self, tracer, tmp_path, capsys):
        path = self._trace_file(tracer, tmp_path)
        code = obs_main(
            ["check", path]
            + [arg for name in REQUIRED for arg in ("--require-span", name)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("OK:")

    def test_check_rejects_missing_required_span(self, tracer, tmp_path,
                                                 capsys):
        path = self._trace_file(tracer, tmp_path)
        code = obs_main(["check", path, "--require-span", "no.such.span"])
        assert code == 1
        assert "no.such.span" in capsys.readouterr().err

    def test_check_rejects_orphan_parents(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "name": "orphan", "trace_id": "t", "span_id": "s",
            "parent_id": "missing", "start": 0.0, "end": 1.0, "attrs": {},
        }) + "\n")
        code = obs_main(["check", str(path)])
        assert code == 1
        assert "cross-process orphan" in capsys.readouterr().err

    def test_check_allow_orphans_tolerates_partial_captures(self, tmp_path,
                                                            capsys):
        """A parent id found nowhere in the export means the other half
        ran in a process whose trace we don't have — legitimate for a
        partial capture, so the escape hatch accepts it."""
        path = tmp_path / "partial.jsonl"
        path.write_text(json.dumps({
            "name": "server.handle", "trace_id": "t", "span_id": "s",
            "parent_id": "client-side", "start": 0.0, "end": 1.0,
            "attrs": {},
        }) + "\n")
        assert obs_main(["check", str(path), "--allow-orphans"]) == 0
        assert capsys.readouterr().out.startswith("OK:")

    def test_check_rejects_cross_trace_parent_even_with_orphans_allowed(
            self, tmp_path, capsys):
        """A parent exported under a *different* trace is corruption,
        not a partial capture; --allow-orphans must not excuse it."""
        path = tmp_path / "corrupt.jsonl"
        spans = [
            {"name": "a", "trace_id": "t1", "span_id": "p",
             "parent_id": "", "start": 0.0, "end": 1.0, "attrs": {}},
            {"name": "b", "trace_id": "t2", "span_id": "c",
             "parent_id": "p", "start": 0.0, "end": 1.0, "attrs": {}},
        ]
        path.write_text(
            "\n".join(json.dumps(span) for span in spans) + "\n"
        )
        code = obs_main(["check", str(path), "--allow-orphans",
                         "--min-traces", "2"])
        assert code == 1
        assert "different trace" in capsys.readouterr().err

    def test_check_rejects_negative_duration(self, tmp_path, capsys):
        path = tmp_path / "backwards.jsonl"
        path.write_text(json.dumps({
            "name": "a", "trace_id": "t", "span_id": "s",
            "parent_id": "", "start": 2.0, "end": 1.0, "attrs": {},
        }) + "\n")
        assert obs_main(["check", str(path)]) == 1
        assert "ends before it starts" in capsys.readouterr().err

    def test_check_rejects_zero_clock_duration(self, tmp_path, capsys):
        path = tmp_path / "flat.jsonl"
        path.write_text(json.dumps({
            "name": "server.handle", "trace_id": "t", "span_id": "s",
            "parent_id": "", "start": 1.0, "end": 1.0, "attrs": {},
        }) + "\n")
        assert obs_main(["check", str(path)]) == 1
        assert "zero-clock" in capsys.readouterr().err

    def test_check_accepts_zero_duration_instant_markers(self, tmp_path,
                                                         capsys):
        """Deliberate point events (server.shed, fault.injected, or an
        explicit instant attr) are exempt from the zero-clock check."""
        path = tmp_path / "markers.jsonl"
        spans = [
            {"name": "server.shed", "trace_id": "t", "span_id": "a",
             "parent_id": "", "start": 1.0, "end": 1.0, "attrs": {}},
            {"name": "custom.mark", "trace_id": "t", "span_id": "b",
             "parent_id": "", "start": 1.0, "end": 1.0,
             "attrs": {"instant": True}},
        ]
        path.write_text(
            "\n".join(json.dumps(span) for span in spans) + "\n"
        )
        assert obs_main(["check", str(path)]) == 0

    def test_render_prints_the_tree(self, tracer, tmp_path, capsys):
        path = self._trace_file(tracer, tmp_path)
        assert obs_main(["render", path, "--max-traces", "1"]) == 0
        out = capsys.readouterr().out
        assert "trace " in out

    def test_render_chart_draws_round_trips(self, tracer, tmp_path, capsys):
        path = self._trace_file(tracer, tmp_path)
        assert obs_main(["render", path, "--chart"]) == 0
        assert "round trip" in capsys.readouterr().out

    def test_metrics_merges_dumps(self, tmp_path, capsys):
        a = MetricsRegistry()
        a.counter("requests").inc(3)
        b = MetricsRegistry()
        b.counter("requests").inc(4)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a.to_dict()))
        pb.write_text(json.dumps(b.to_dict()))
        assert obs_main(["metrics", str(pa), str(pb)]) == 0
        assert "requests 7" in capsys.readouterr().out


# -- span-shape golden -------------------------------------------------------
#
# Pinned at the commit *before* the traced/untraced forks were folded into
# one path, so the refactor can be held to "every exported span unchanged":
# per scenario and transport, the multiset of (name, parent's name, sorted
# attr keys) of each trace.  Ids, timestamps and attr values are free.


class Gate(RemoteInterface):
    def hold(self) -> int: ...


class GateImpl(RemoteObject, Gate):
    """Occupies a worker until released (the deterministic shed setup)."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def hold(self) -> int:
        self.entered.set()
        assert self.release.wait(10.0)
        return 1


def span_shape(tracer):
    """Per trace, the sorted multiset of span shapes, as strings
    ``name<parent{attr keys}*count``; traces sorted too."""
    spans = [span.to_dict() for span in tracer.spans()]
    names = {span["span_id"]: span["name"] for span in spans}
    traces = {}
    for span in spans:
        shape = "%s<%s{%s}" % (
            span["name"], names.get(span["parent_id"], "-"),
            ",".join(sorted(span["attrs"])),
        )
        traces.setdefault(span["trace_id"], Counter())[shape] += 1
    return sorted(
        sorted(f"{shape}*{count}" for shape, count in trace.items())
        for trace in traces.values()
    )


def make_network(transport, **aio_options):
    if transport == "sim":
        return SimNetwork(conditions=LAN), "sim://golden:1099"
    if transport == "tcp":
        return TcpNetwork(), "tcp://127.0.0.1:0"
    from repro.aio import AioNetwork

    return AioNetwork(**aio_options), "tcp://127.0.0.1:0"


class World:
    """One server (and the clients a scenario opens) on one transport."""

    def __init__(self, transport, **aio_options):
        self.network, address = make_network(transport, **aio_options)
        self.server = RMIServer(self.network, address).start()
        self._clients = []

    def client(self, network=None, **options):
        client = RMIClient(network or self.network, self.server.address,
                           **options)
        self._clients.append(client)
        return client

    def close(self):
        for client in self._clients:
            client.close()
        self.server.close()
        self.network.close()


def scenario_inline_flush(world):
    world.server.bind("counter", CounterImpl())
    batch = create_batch(world.client().lookup("counter"))
    batch.increment(1)
    future = batch.current()
    batch.flush()
    assert future.get() == 1


def scenario_plan_install_and_hit(world):
    world.server.bind("counter", CounterImpl())
    stub = world.client().lookup("counter")
    for expected in (1, 2, 3):  # inline, install, invoke
        batch = create_batch(stub, reuse_plans=True)
        future = batch.increment(1)
        batch.flush()
        assert future.get() == expected


def scenario_retried_flush_with_replay(world):
    impl = CounterImpl()
    world.server.bind("counter", impl)
    client = world.client(
        FaultyNetwork(world.network,
                      FaultSchedule.scripted([None, "drop-response"])),
        retry=RetryPolicy(max_attempts=5, backoff_s=0.0),
        sleep=lambda _s: None,
    )
    batch = create_batch(client.lookup("counter"))
    future = batch.increment(1)
    batch.flush()
    assert future.get() == 1 and impl.value == 1
    assert world.server.dedup.hits == 1


def scenario_parallel_cursor(world):
    world.server.bind("dir", make_directory(3, 30))
    batch = create_batch(world.client().lookup("dir"),
                         policy=ContinuePolicy())
    cursor = batch.list_files()
    cursor.get_name()
    cursor.length()
    batch.flush()
    assert executor_of(world.server).scheduler.snapshot()[
        "parallel_batches"] == 1


def scenario_serial_fallback(world):
    # Same shape as the parallel scenario, but under the default abort
    # policy, which pins the batch to width 1.
    world.server.bind("dir", make_directory(3, 30))
    batch = create_batch(world.client().lookup("dir"))
    cursor = batch.list_files()
    cursor.get_name()
    batch.flush()
    assert executor_of(world.server).scheduler.snapshot()[
        "serial_batches"] == 1


def scenario_restart_policy(world):
    impl = CounterImpl()
    world.server.bind("counter", impl)
    policy = CustomPolicy().set_action(BoomError, ExceptionAction.RESTART)
    batch = create_batch(world.client().lookup("counter"), policy=policy)
    batch.increment(1)
    outcome = batch.flaky(1)
    batch.flush()
    assert outcome.get() == 2 and impl.value == 2


def scenario_shed(world):
    """Capacity 1, provably occupied: the next flush is shed — once seen
    by a fail-fast client, once by a tokened (retry-arm) client."""
    gate = GateImpl()
    world.server.bind("gate", gate)
    world.server.bind("counter", CounterImpl())
    gate_stub = world.client().lookup("gate")
    plain = world.client().lookup("counter")
    tokened = world.client(
        retry=RetryPolicy(max_attempts=1, backoff_s=0.0)
    ).lookup("counter")
    holder = threading.Thread(target=gate_stub.hold)
    holder.start()
    try:
        assert gate.entered.wait(10.0)
        for stub, error in ((plain, ServerBusyError),
                            (tokened, CommunicationError)):
            batch = create_batch(stub)
            batch.increment(1)
            with pytest.raises(error):
                batch.flush()
    finally:
        gate.release.set()
        holder.join(10.0)
    assert not holder.is_alive()
    assert world.server.metrics.shed == 2


def scenario_awaited_calls(world):
    """The asyncio-native client: one fail-fast call, then a tokened
    call whose first response is dropped and replayed."""
    from repro.aio import AioRMIClient

    impl = CounterImpl()
    world.server.bind("counter", impl)
    plain = AioRMIClient(world.network, world.server.address)
    retrying = AioRMIClient(
        FaultyNetwork(world.network,
                      FaultSchedule.scripted([None, "drop-response"])),
        world.server.address,
        retry=RetryPolicy(max_attempts=5, backoff_s=0.001,
                          backoff_cap_s=0.01),
    )

    async def drive(client):
        stub = await client.lookup("counter")
        return await client.call_stub(stub, "increment", (1,))

    try:
        assert asyncio.run(drive(plain)) == 1
        assert asyncio.run(drive(retrying)) == 2 and impl.value == 2
    finally:
        plain.close()
        retrying.close()


SCENARIOS = {
    "inline_flush": (scenario_inline_flush, ("sim", "tcp", "aio"), {}),
    "plan_install_and_hit": (
        scenario_plan_install_and_hit, ("sim", "tcp", "aio"), {}),
    "retried_flush_with_replay": (
        scenario_retried_flush_with_replay, ("sim", "tcp", "aio"), {}),
    "parallel_cursor": (scenario_parallel_cursor, ("sim", "tcp", "aio"), {}),
    "serial_fallback": (scenario_serial_fallback, ("sim", "tcp", "aio"), {}),
    "restart_policy": (scenario_restart_policy, ("sim", "tcp", "aio"), {}),
    "awaited_calls": (scenario_awaited_calls, ("aio",), {}),
    "shed": (scenario_shed, ("aio",), {"max_workers": 1, "queue_depth": 0}),
}


def run_scenario(name, transport, sample_rate=1.0):
    scenario, _transports, aio_options = SCENARIOS[name]
    tracer = install_tracer(Tracer(sample_rate=sample_rate))
    try:
        world = World(transport, **aio_options)
        try:
            scenario(world)
        finally:
            world.close()
    finally:
        uninstall_tracer()
    if sample_rate == 1.0:  # an upgraded trace may have lost early spans
        assert check_spans(tracer.spans()) == []
    return span_shape(tracer)


#: (scenario, transport family) -> per-trace shapes, blank line between
#: traces.  "threaded" is sim and TCP (identical: neither has a worker
#: queue); captured from the pre-refactor code by ``render_shape``.
GOLDEN = {
    ('inline_flush', 'threaded'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id}*1

        client.call<client.flush{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id}*1
        server.op<server.execute{method,seq}*2
        server.parallel<server.execute{instant,reason,serial}*1
    """,
    ('inline_flush', 'aio'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<client.flush{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.op<server.execute{method,seq}*2
        server.parallel<server.execute{instant,reason,serial}*1
        server.queue_wait<server.handle{}*1
    """,
    ('plan_install_and_hit', 'threaded'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id}*1

        client.call<client.plan_lift{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.plan_lift<client.flush{digest,strategy}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id}*1
        server.op<server.execute{method,seq}*1
        server.parallel<server.execute{instant,reason,serial}*1

        client.call<client.plan_lift{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.plan_lift<client.flush{digest,strategy}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id}*1
        server.op<server.execute{method,seq}*1
        server.parallel<server.execute{instant,reason,serial}*1
        server.plan<server.handle{digest,outcome}*1

        client.call<client.plan_lift{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.plan_lift<client.flush{digest,strategy}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id}*1
        server.op<server.execute{method,seq}*1
        server.parallel<server.execute{instant,reason,serial}*1
        server.plan<server.handle{digest,outcome}*1
    """,
    ('plan_install_and_hit', 'aio'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<client.plan_lift{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.plan_lift<client.flush{digest,strategy}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.op<server.execute{method,seq}*1
        server.parallel<server.execute{instant,reason,serial}*1
        server.plan<server.handle{digest,outcome}*1
        server.queue_wait<server.handle{}*1

        client.call<client.plan_lift{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.plan_lift<client.flush{digest,strategy}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.op<server.execute{method,seq}*1
        server.parallel<server.execute{instant,reason,serial}*1
        server.plan<server.handle{digest,outcome}*1
        server.queue_wait<server.handle{}*1

        client.call<client.plan_lift{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.plan_lift<client.flush{digest,strategy}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.op<server.execute{method,seq}*1
        server.parallel<server.execute{instant,reason,serial}*1
        server.queue_wait<server.handle{}*1
    """,
    ('retried_flush_with_replay', 'threaded'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.dedup<server.handle{call_id,replayed}*1
        server.handle<client.call{method,object_id}*1

        client.call<client.flush{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        client.send<client.call{attempt,error}*1
        fault.injected<client.call{address,kind}*1
        server.dedup<server.handle{call_id,replayed}*2
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id}*2
        server.op<server.execute{method,seq}*1
        server.parallel<server.execute{instant,reason,serial}*1
    """,
    ('retried_flush_with_replay', 'aio'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.dedup<server.handle{call_id,replayed}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<client.flush{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        client.send<client.call{attempt,error}*1
        fault.injected<client.call{address,kind}*1
        server.dedup<server.handle{call_id,replayed}*2
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*2
        server.op<server.execute{method,seq}*1
        server.parallel<server.execute{instant,reason,serial}*1
        server.queue_wait<server.handle{}*2
    """,
    ('parallel_cursor', 'threaded'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id}*1

        client.call<client.flush{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id}*1
        server.op<server.parallel{method,seq}*7
        server.parallel<server.execute{chains,cursors,ops}*1
    """,
    ('parallel_cursor', 'aio'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<client.flush{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.op<server.parallel{method,seq}*7
        server.parallel<server.execute{chains,cursors,ops}*1
        server.queue_wait<server.handle{}*1
    """,
    ('serial_fallback', 'threaded'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id}*1

        client.call<client.flush{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id}*1
        server.op<server.execute{method,seq}*4
        server.parallel<server.execute{instant,reason,serial}*1
    """,
    ('serial_fallback', 'aio'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<client.flush{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.op<server.execute{method,seq}*4
        server.parallel<server.execute{instant,reason,serial}*1
        server.queue_wait<server.handle{}*1
    """,
    ('restart_policy', 'threaded'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id}*1

        client.call<client.flush{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,restarts,validated}*1
        server.handle<client.call{method,object_id}*1
        server.op<server.execute{action,method,seq}*1
        server.op<server.execute{method,seq}*3
        server.parallel<server.execute{instant,reason,serial}*1
    """,
    ('restart_policy', 'aio'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<client.flush{address,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.execute<server.handle{ops,restarts,validated}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.op<server.execute{action,method,seq}*1
        server.op<server.execute{method,seq}*3
        server.parallel<server.execute{instant,reason,serial}*1
        server.queue_wait<server.handle{}*1
    """,
    ('awaited_calls', 'aio'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        client.send<client.call{attempt,error}*1
        fault.injected<client.call{address,kind}*1
        server.dedup<server.handle{call_id,replayed}*2
        server.handle<client.call{method,object_id,queue_wait_ms}*2
        server.queue_wait<server.handle{}*2

        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.dedup<server.handle{call_id,replayed}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1
    """,
    ('shed', 'aio'): """
        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.dedup<server.handle{call_id,replayed}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<-{address,method,object_id}*1
        client.encode<client.call{}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        server.handle<client.call{method,object_id,queue_wait_ms}*1
        server.queue_wait<server.handle{}*1

        client.call<client.flush{address,error,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{error,keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up,error}*1

        client.call<client.flush{address,error,method,object_id}*1
        client.encode<client.call{}*1
        client.flush<-{error,keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1

        server.shed<-{capacity}*1

        server.shed<-{capacity}*1
    """,
}


#: The same scenarios at sample rate 0: only forced spans (a resend, an
#: injected fault, a dedup replay, a shed) and what they upgrade survive,
#: which pins forced-ness.  Scenarios not listed record nothing.  Sim
#: runs the server on the client's thread, so there the upgrade reaches
#: the server half of the trace; over sockets the resent bytes predate it.
_FORCED_CLIENT_HALF = """
        client.call<client.flush{address,method,object_id}*1
        client.flush<-{keep_session,ops}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        client.send<client.call{attempt,error}*1
        fault.injected<client.call{address,kind}*1
"""
FORCED_GOLDEN = {
    ("retried_flush_with_replay", "sim"): _FORCED_CLIENT_HALF.rstrip() + """
        server.dedup<server.handle{call_id,replayed}*2
        server.execute<server.handle{ops,validated}*1
        server.handle<client.call{method,object_id}*2
        server.op<server.execute{method,seq}*1
        server.parallel<server.execute{instant,reason,serial}*1
    """,
    ("retried_flush_with_replay", "tcp"): _FORCED_CLIENT_HALF + """
        server.dedup<server.handle{call_id,replayed}*1
        server.handle<-{method,object_id}*1
    """,
    ("retried_flush_with_replay", "aio"): _FORCED_CLIENT_HALF + """
        server.dedup<server.handle{call_id,replayed}*1
        server.handle<-{method,object_id,queue_wait_ms}*1
    """,
    ("awaited_calls", "aio"): """
        client.call<-{address,method,object_id}*1
        client.send<client.call{attempt,bytes_down,bytes_up}*1
        client.send<client.call{attempt,error}*1
        fault.injected<client.call{address,kind}*1

        server.dedup<server.handle{call_id,replayed}*1
        server.handle<-{method,object_id,queue_wait_ms}*1
    """,
    ("shed", "aio"): """
        server.shed<-{capacity}*1

        server.shed<-{capacity}*1
    """,
}


def render_shape(shape):
    return "\n\n".join("\n".join(trace) for trace in shape)


CELLS = [
    (name, transport)
    for name, (_scenario, transports, _options) in SCENARIOS.items()
    for transport in transports
]


@pytest.mark.parametrize("name,transport", CELLS)
def test_span_shapes_match_the_golden(name, transport):
    family = "aio" if transport == "aio" else "threaded"
    golden = textwrap.dedent(GOLDEN[name, family]).strip()
    assert render_shape(run_scenario(name, transport)) == golden


@pytest.mark.parametrize("name,transport", CELLS)
def test_forced_span_shapes_match_the_golden(name, transport):
    golden = textwrap.dedent(FORCED_GOLDEN.get((name, transport), "")).strip()
    assert render_shape(run_scenario(name, transport, 0.0)) == golden
