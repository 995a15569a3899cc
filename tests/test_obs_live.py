"""The live introspection plane: flight recorder, admin endpoint, CLI.

The invariant under test everywhere here: the operational view works
**without** a shutdown dump, **without** an export, and at sample rate
0 — the flight recorder is fed for every span regardless of sampling,
the admin endpoint serves the registry's live books, and the cluster
aggregation merges shard snapshots through the same
``MetricsRegistry.merge`` the post-mortem path uses.
"""

import json

import pytest

from repro.obs import Tracer
from repro.obs.__main__ import main as obs_main
from repro.obs.live import (
    AdminClient,
    AdminError,
    AdminServer,
    admin_request,
    cluster_commands,
    worker_commands,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import FlightRecorder


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


class TestFlightRecorder:
    def test_feeds_at_sample_rate_zero(self, clock):
        """The whole point: sampling gates the *export*, never the
        flight recorder."""
        tracer = Tracer(sample_rate=0.0, clock=clock)
        with tracer.span("server.handle"):
            clock.t = 0.1
        assert len(tracer) == 0  # nothing recorded for export...
        completed = tracer.flight.completed()
        assert [span.name for span in completed] == ["server.handle"]

    def test_inflight_span_visible_with_elapsed_time(self, clock):
        tracer = Tracer(sample_rate=0.0, clock=clock)
        span = tracer.span("server.handle", method="work")
        clock.t = 0.5
        entries = tracer.flight.inflight(tracer.now())
        assert len(entries) == 1
        assert entries[0]["name"] == "server.handle"
        assert entries[0]["elapsed_ms"] == 500.0
        assert entries[0]["attrs"]["method"] == "work"
        assert entries[0]["trace_id"] == span.trace_id
        span.end()
        assert tracer.flight.inflight(tracer.now()) == []

    def test_longest_running_sorts_first(self, clock):
        tracer = Tracer(sample_rate=0.0, clock=clock)
        tracer.span("old", parent=None)
        clock.t = 1.0
        tracer.span("young", parent=None)
        clock.t = 2.0
        names = [e["name"] for e in tracer.flight.inflight(tracer.now())]
        assert names == ["old", "young"]

    def test_slow_log_carries_trace_id_exemplar(self, clock):
        tracer = Tracer(sample_rate=0.0, clock=clock,
                        flight=FlightRecorder(slow_threshold=0.25))
        with tracer.span("server.handle") as span:
            clock.t = 0.3
        slow = tracer.flight.slow()
        assert len(slow) == 1
        assert slow[0]["trace_id"] == span.trace_id
        assert slow[0]["duration_ms"] == pytest.approx(300.0)

    def test_fast_spans_stay_out_of_the_slow_log(self, clock):
        tracer = Tracer(sample_rate=0.0, clock=clock,
                        flight=FlightRecorder(slow_threshold=0.25))
        with tracer.span("server.handle"):
            clock.t = 0.1
        assert tracer.flight.slow() == []
        assert len(tracer.flight.completed()) == 1

    def test_rings_are_bounded(self, clock):
        flight = FlightRecorder(capacity=4, slow_capacity=2,
                                slow_threshold=0.0)
        tracer = Tracer(sample_rate=0.0, clock=clock, flight=flight)
        for index in range(10):
            tracer.span(f"s{index}", parent=None).end()
        assert [s.name for s in flight.completed()] == [
            "s6", "s7", "s8", "s9"
        ]
        assert [e["name"] for e in flight.slow()] == ["s8", "s9"]

    def test_flight_none_disables_recording(self, clock):
        tracer = Tracer(sample_rate=1.0, clock=clock, flight=None)
        assert tracer.flight is None
        with tracer.span("work"):
            pass
        assert len(tracer) == 1  # sampled recording still works

    def test_snapshot_shape(self, clock):
        tracer = Tracer(sample_rate=0.0, clock=clock)
        tracer.span("done", parent=None).end()
        tracer.span("running", parent=None)
        snap = tracer.flight.snapshot(tracer.now())
        assert snap["capacity"] == tracer.flight.capacity
        assert [s["name"] for s in snap["completed"]] == ["done"]
        assert [e["name"] for e in snap["inflight"]] == ["running"]
        assert snap["slow"] == []
        json.dumps(snap)  # admin responses must be JSON-serializable

    def test_clear_empties_everything(self, clock):
        flight = FlightRecorder(slow_threshold=0.0)
        tracer = Tracer(sample_rate=0.0, clock=clock, flight=flight)
        tracer.span("a", parent=None).end()
        tracer.span("b", parent=None)
        flight.clear()
        assert flight.completed() == []
        assert flight.inflight(clock()) == []
        assert flight.slow() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(slow_capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(slow_threshold=-0.1)


class TestAdminServer:
    @pytest.fixture
    def world(self, clock):
        registry = MetricsRegistry()
        tracer = Tracer(sample_rate=0.0, clock=clock)
        server = AdminServer(worker_commands(
            registry=registry, tracer=tracer,
            health=lambda: {"ready": True, "extra": "yes"},
        ))
        yield server, registry, tracer
        server.close()

    def test_health(self, world):
        server, _, _ = world
        reply = admin_request(server.address, "health")
        assert reply["ok"] is True
        assert reply["role"] == "worker"
        assert reply["ready"] is True
        assert reply["extra"] == "yes"

    def test_metrics_poll_sees_live_updates(self, world):
        """No shutdown required: the endpoint reads the registry the
        serving process is mutating right now."""
        server, registry, _ = world
        registry.counter("server.requests").inc(3)
        first = admin_request(server.address, "snapshot")
        registry.counter("server.requests").inc(2)
        second = admin_request(server.address, "snapshot")
        assert first["metrics"]["counters"]["server.requests"] == 3
        assert second["metrics"]["counters"]["server.requests"] == 5

    def test_flight_serves_inflight_and_slow(self, world, clock):
        server, _, tracer = world
        tracer.flight.slow_threshold = 0.25
        with tracer.span("server.handle"):
            clock.t = 0.3
        hung = tracer.span("server.handle", method="work")
        clock.t = 0.4
        reply = admin_request(server.address, "snapshot")
        flight = reply["flight"]
        assert [e["name"] for e in flight["inflight"]] == ["server.handle"]
        assert flight["inflight"][0]["elapsed_ms"] == pytest.approx(100.0)
        assert len(flight["slow"]) == 1
        assert flight["slow"][0]["trace_id"]
        hung.end()
        after = admin_request(server.address, "snapshot")
        assert len(after["flight"]["slow"]) == 1

    def test_snapshot_is_one_round_trip(self, world):
        server, registry, _ = world
        registry.gauge("procs.up").set(1)
        reply = admin_request(server.address, "snapshot")
        assert reply["health"]["ready"] is True
        assert reply["metrics"]["gauges"]["procs.up"] == 1
        assert set(reply["flight"]) >= {"completed", "inflight", "slow"}

    def test_unknown_command_answers_instead_of_dropping(self, world):
        server, _, _ = world
        with AdminClient(server.address) as client:
            with pytest.raises(AdminError, match="unknown command"):
                client.request("bogus")
            # The connection survived the bad command.
            assert client.request("health")["ok"] is True

    def test_persistent_client_polls_repeatedly(self, world):
        server, registry, _ = world
        with AdminClient(server.address) as client:
            for expected in (1, 2, 3):
                registry.counter("polls").inc()
                reply = client.request("snapshot")
                assert reply["metrics"]["counters"]["polls"] == expected
        assert server.requests == 3

    def test_unreachable_endpoint_raises_admin_error(self):
        with pytest.raises(AdminError, match="cannot reach"):
            admin_request("tcp://127.0.0.1:1", "health", timeout=0.5)

    def test_worker_commands_default_to_empty_registry_and_no_flight(self):
        with AdminServer(worker_commands()) as server:
            reply = admin_request(server.address, "snapshot")
            assert reply["metrics"]["counters"] == {}
            assert reply["flight"]["inflight"] == []


class TestClusterCommands:
    def _worker(self, requests: int) -> AdminServer:
        registry = MetricsRegistry()
        registry.counter("server.requests").inc(requests)
        return AdminServer(worker_commands(
            registry=registry, tracer=Tracer(sample_rate=0.0),
        ))

    def test_merged_counters_sum_across_shards(self):
        with self._worker(3) as a, self._worker(4) as b:
            addresses = [a.address, b.address]
            with AdminServer(cluster_commands(lambda: addresses)) as sup:
                reply = admin_request(sup.address, "snapshot")
        merged = reply["merged"]
        assert merged["counters"]["server.requests"] == 7
        assert merged["counters"]["procs.poll_errors"] == 0
        assert len(reply["shards"]) == 2
        assert reply["health"]["ready"] is True

    def test_unreachable_shard_degrades_not_dies(self):
        with self._worker(5) as a:
            addresses = [a.address, "tcp://127.0.0.1:1"]
            with AdminServer(cluster_commands(
                lambda: addresses, poll_timeout=0.5,
            )) as sup:
                reply = admin_request(sup.address, "snapshot")
                health = admin_request(sup.address, "health")
        assert reply["merged"]["counters"]["server.requests"] == 5
        assert reply["merged"]["counters"]["procs.poll_errors"] == 1
        assert len(reply["shard_errors"]) == 1
        assert health["ready"] is False  # a dark shard fails readiness

    def test_one_poll_per_worker_per_aggregation(self):
        """A supervisor ``snapshot`` builds its health section from the
        worker snapshots it already holds: one admin request per worker
        (two at the parent commit), ``health`` one more."""
        workers = [AdminServer(worker_commands()) for _ in range(3)]
        try:
            addresses = [worker.address for worker in workers]
            with AdminServer(cluster_commands(lambda: addresses)) as sup:
                reply = admin_request(sup.address, "snapshot")
                assert [w.requests for w in workers] == [1, 1, 1]
                health = admin_request(sup.address, "health")
                assert [w.requests for w in workers] == [2, 2, 2]
        finally:
            for worker in workers:
                worker.close()
        # The section built from snapshots is the one ``health`` polls.
        assert reply["health"]["ready"] is True
        assert reply["health"]["procs"] == 3

        def shape(section):
            return (sorted(section),
                    [sorted(shard) for shard in section["shards"]],
                    [shard["address"] for shard in section["shards"]])

        assert shape(reply["health"]) == shape(
            {k: v for k, v in health.items() if k != "ok"})

    def test_cluster_slow_log_labels_shard_addresses(self):
        registry = MetricsRegistry()
        tracer = Tracer(sample_rate=0.0,
                        flight=FlightRecorder(slow_threshold=0.0))
        tracer.span("server.handle", parent=None).end()
        with AdminServer(worker_commands(
            registry=registry, tracer=tracer,
        )) as worker:
            addresses = [worker.address]
            with AdminServer(cluster_commands(lambda: addresses)) as sup:
                reply = admin_request(sup.address, "snapshot")
        shard, = reply["shards"]
        assert len(shard["flight"]["slow"]) == 1
        assert shard["address"] == worker.address


class TestObsCliLive:
    @pytest.fixture
    def worker(self, clock):
        registry = MetricsRegistry()
        registry.counter("server.requests").inc(9)
        tracer = Tracer(sample_rate=0.0, clock=clock,
                        flight=FlightRecorder(slow_threshold=0.25))
        with tracer.span("server.handle"):
            clock.t = 0.3
        server = AdminServer(worker_commands(
            registry=registry, tracer=tracer,
            health=lambda: {"ready": True},
        ))
        yield server
        server.close()

    def test_health_gate_passes_when_ready(self, worker, capsys):
        assert obs_main(["health", worker.address, "--require-ready"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ready"] is True

    def test_health_gate_fails_when_not_ready(self, capsys):
        with AdminServer(worker_commands(
            health=lambda: {"ready": False},
        )) as server:
            code = obs_main(["health", server.address, "--require-ready"])
        assert code == 1
        assert "not ready" in capsys.readouterr().err

    def test_health_gate_fails_unreachable(self, capsys):
        code = obs_main(["health", "tcp://127.0.0.1:1",
                         "--require-ready", "--timeout", "0.5"])
        assert code == 1
        assert "PROBLEM" in capsys.readouterr().err

    def test_top_once_renders_worker_view(self, worker, capsys):
        assert obs_main(["top", worker.address, "--once"]) == 0
        out = capsys.readouterr().out
        assert "worker pid=" in out
        assert "server.requests 9" in out
        assert "slow (>= 0.25s): 1" in out
        assert "trace=" in out  # the exemplar is in the rendering

    def test_top_once_renders_cluster_view(self, worker, capsys):
        addresses = [worker.address]
        with AdminServer(cluster_commands(lambda: addresses)) as sup:
            assert obs_main(["top", sup.address, "--once"]) == 0
        out = capsys.readouterr().out
        assert "cluster procs=1" in out
        assert f"shard {worker.address}" in out
        assert "merged:" in out
        assert "server.requests 9" in out

    def test_snapshot_writes_artifact_file(self, worker, tmp_path, capsys):
        out_file = tmp_path / "snap.json"
        assert obs_main(["snapshot", worker.address,
                         "-o", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["metrics"]["counters"]["server.requests"] == 9
        assert "SNAPSHOT" in capsys.readouterr().out

    def test_snapshot_prints_to_stdout_by_default(self, worker, capsys):
        assert obs_main(["snapshot", worker.address]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["health"]["role"] == "worker"
