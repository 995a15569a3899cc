"""Process groups: the one supervisor, its two layouts, and its CLI.

Covers a reuseport worker group behind one address (``procs=N``) and a
shard cluster with one address per shard (``shards=N``) end to end:
per-child metrics dumps merged through the registry's cross-process
semantics, the documented single-acceptor fallback, and the graceful
SIGTERM drain (requests in flight when the TERM arrives still complete
and still appear in the final metrics dump).

The cases every layout must pass are written once as ``_check_*``
bodies taking a :class:`Layout`; the ``procs`` entries keep the test
names they had before the shards layout existed, the ``shards`` entries
sit next to them.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import pytest

from repro.aio import SERVICE_NAME, AioNetwork, Supervisor
from repro.cluster import ClusterClient
from repro.core import create_batch
from repro.net.tcp import HAS_REUSEPORT
from repro.obs.metrics import MetricsRegistry
from repro.rmi import RMIClient

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

needs_reuseport = pytest.mark.skipif(
    not HAS_REUSEPORT, reason="platform has no SO_REUSEPORT"
)


class Layout(NamedTuple):
    """One layout as the tests see it."""

    keyword: str       # the Supervisor argument that selects it
    dump: str          # a per-child dump file name ({} = pid)
    dump_errors: str   # where the merge books unreadable dumps
    alive_key: str     # aggregated-health key counting live children


PROCS = Layout("procs", "metrics-{}.json",
               "procs.dump_errors", "workers_alive")
SHARDS = Layout("shards", "metrics-shard1-{}.json",
                "cluster.dump_errors", "shards_alive")


def _group(layout, **kwargs):
    """A two-child group in *layout* (not started)."""
    return Supervisor(**{layout.keyword: 2}, **kwargs)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _drive(address, *, clients=4, calls=5):
    """Issue known traffic: per client, 1 lookup + *calls* one-call
    batches.  Returns the total request count a merged server-side
    registry must account for."""
    network = AioNetwork()
    try:
        for _ in range(clients):
            client = RMIClient(network, address)
            stub = client.lookup("load")
            for _ in range(calls):
                batch = create_batch(stub)
                future = batch.work(0.0)
                batch.flush()
                assert future.get() >= 1
            client.close()
    finally:
        network.close()
    return clients * (1 + calls)


def _drive_shards(addresses, *, batches=3):
    """Verify the placement, then issue *batches* scatter-gather batches
    with one call per shard.  Returns the request count the clients
    observed, which a merged server-side registry must account for."""
    network = AioNetwork()
    try:
        cluster = ClusterClient(network, addresses)
        # Passes only if address i really is shard i of len(addresses).
        cluster.verify_shards()
        targets = [
            cluster.lookup(cluster.shard_map.homed_name(SERVICE_NAME, index))
            for index in range(cluster.shards)
        ]
        for _ in range(batches):
            batch = cluster.create_batch()
            futures = [batch.on(target).work(0.0) for target in targets]
            batch.flush()
            assert all(future.get() >= 1 for future in futures)
        requests = sum(cluster.client_for(index).stats.requests
                       for index in range(cluster.shards))
        cluster.close()
    finally:
        network.close()
    return requests


def _drive_group(supervisor):
    if supervisor.shard_map is not None:
        return _drive_shards(supervisor.addresses)
    return _drive(supervisor.address)


def _check_lifecycle(layout):
    """Children up, traffic served, every child's books in the merge."""
    supervisor = _group(layout, workers=8, queue_depth=64)
    with supervisor:
        assert supervisor.procs == 2
        pids = supervisor.pids
        assert len(pids) == 2
        assert supervisor.alive()
        expected = _drive_group(supervisor)
        merged = supervisor.stop()
    snapshot = merged.snapshot()
    # Both children reported in: one up-gauge per pid, and the summed
    # group gauge counts the group.
    for pid in pids:
        assert snapshot[f"proc.{pid}.up"] == 1
    assert snapshot["procs.up"] == 2
    # The merge accounts for every request the clients observed,
    # wherever the kernel balanced (or the placement sent) each one.
    assert snapshot["server.requests"] == expected
    return supervisor


def _check_stop_before_start(layout):
    supervisor = _group(layout)
    assert supervisor.metrics_files() == []
    merged = supervisor.stop()
    assert merged.snapshot() == {}
    assert supervisor.stop() is merged  # idempotent


#: A child that reports in like a serve worker, then ignores SIGTERM.
DEAF_CHILD = (
    "import signal, time; "
    "signal.signal(signal.SIGTERM, signal.SIG_IGN); "
    "print('ADDRESS tcp://127.0.0.1:1', flush=True); "
    "time.sleep(60)"
)


class TestSupervisor:
    @needs_reuseport
    @pytest.mark.slow
    def test_two_workers_share_the_port_and_merge_metrics(self):
        supervisor = _check_lifecycle(PROCS)
        assert supervisor.reuseport
        assert len(set(supervisor.addresses)) == 1
        assert supervisor.labels == ()

    @pytest.mark.slow
    def test_two_shards_take_a_port_each_and_merge_metrics(self):
        supervisor = _check_lifecycle(SHARDS)
        assert not supervisor.reuseport
        # One address per shard, in shard order (_drive_shards verified
        # each address against its position's label).
        assert len(set(supervisor.addresses)) == 2
        assert supervisor.labels == ("0/2", "1/2")

    @pytest.mark.slow
    def test_single_acceptor_fallback_still_serves(self, monkeypatch):
        """Where SO_REUSEPORT is unavailable the group degrades to one
        acceptor — same CLI, same merge plumbing, procs forced to 1."""
        monkeypatch.setattr("repro.aio.supervisor.HAS_REUSEPORT", False)
        supervisor = Supervisor(procs=3, workers=8, queue_depth=64)
        with supervisor:
            assert not supervisor.reuseport
            assert supervisor.procs == 1
            assert len(supervisor.pids) == 1
            expected = _drive(supervisor.address, clients=2, calls=3)
            merged = supervisor.stop()
        snapshot = merged.snapshot()
        assert snapshot["procs.up"] == 1
        assert snapshot["server.requests"] == expected

    @pytest.mark.slow
    def test_a_missing_metrics_dir_is_created(self, tmp_path):
        """Children dump into a directory that did not exist yet; none
        of their books is lost."""
        metrics_dir = tmp_path / "not" / "yet"
        supervisor = Supervisor(shards=2, workers=8, queue_depth=64,
                                metrics_dir=metrics_dir)
        with supervisor:
            merged = supervisor.stop()
        assert merged.snapshot()["procs.up"] == 2
        assert len(list(metrics_dir.glob("metrics-*.json"))) == 2

    def test_stop_before_start_is_a_clean_empty_merge(self):
        _check_stop_before_start(PROCS)

    def test_stop_before_start_is_a_clean_empty_merge_shards(self):
        _check_stop_before_start(SHARDS)

    def test_rejects_nonpositive_procs(self):
        with pytest.raises(ValueError):
            Supervisor(procs=0)
        with pytest.raises(ValueError):
            Supervisor(shards=0)

    def test_rejects_both_layouts_or_neither(self):
        with pytest.raises(ValueError, match="exactly one"):
            Supervisor(procs=2, shards=2)
        with pytest.raises(ValueError, match="exactly one"):
            Supervisor()
        with pytest.raises(ValueError, match="procs layout"):
            Supervisor(shards=2, port=5001)

    @pytest.mark.slow
    def test_stop_timeout_is_one_deadline_for_the_whole_group(
            self, monkeypatch):
        """Three children that ignore TERM cost one timeout, not three."""

        def spawn_deaf_child(self, port, index):
            return subprocess.Popen(
                [sys.executable, "-c", DEAF_CHILD],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )

        monkeypatch.setattr(Supervisor, "_spawn", spawn_deaf_child)
        supervisor = Supervisor(shards=3).start()
        pids = supervisor.pids
        assert len(pids) == 3 and supervisor.alive()
        began = time.monotonic()
        merged = supervisor.stop(timeout=1.0)
        elapsed = time.monotonic() - began
        assert 1.0 <= elapsed < 2.5, elapsed
        assert merged.snapshot() == {}  # killed children dump nothing
        for pid in pids:  # killed and reaped, not abandoned
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def _check_tolerant_merge(layout, tmp_path, capsys):
    good = MetricsRegistry()
    good.counter("server.requests").inc(4)
    (tmp_path / layout.dump.format(1)).write_text(
        json.dumps(good.to_dict(), sort_keys=True)
    )
    # A child killed mid-dump leaves a truncated file...
    (tmp_path / layout.dump.format(2)).write_text('{"counters": {"serv')
    # ...and a publisher naming bug leaves a kind-conflicting one.
    (tmp_path / layout.dump.format(3)).write_text(json.dumps(
        {"counters": {"n": 1}, "gauges": {"n": 5}, "histograms": {}}
    ))
    supervisor = _group(layout, metrics_dir=str(tmp_path))
    merged = supervisor.stop()
    snapshot = merged.snapshot()
    assert snapshot["server.requests"] == 4  # the good child survives
    assert snapshot[layout.dump_errors] == 2
    assert supervisor.dump_errors == 2
    err = capsys.readouterr().err
    assert layout.dump.format(2) in err
    assert layout.dump.format(3) in err
    assert layout.dump.format(1) not in err


class TestTolerantMerge:
    """A bad per-child dump must not lose the other children's books."""

    def test_bad_dumps_are_skipped_warned_and_counted(self, tmp_path,
                                                      capsys):
        _check_tolerant_merge(PROCS, tmp_path, capsys)

    def test_bad_shard_dumps_are_skipped_warned_and_counted(
            self, tmp_path, capsys):
        _check_tolerant_merge(SHARDS, tmp_path, capsys)

    @needs_reuseport
    @pytest.mark.slow
    def test_truncated_dump_in_a_real_group_keeps_the_other_shards(
            self, tmp_path, capsys):
        supervisor = Supervisor(
            procs=2, workers=8, queue_depth=64, metrics_dir=str(tmp_path)
        )
        with supervisor:
            expected = _drive(supervisor.address, clients=2, calls=3)
            # Plant the wreckage of a worker killed mid-dump alongside
            # the real shards' files before the merge runs.
            (tmp_path / "metrics-99999.json").write_text(
                '{"counters": {"server.requ'
            )
            merged = supervisor.stop()
        snapshot = merged.snapshot()
        assert snapshot["server.requests"] == expected
        assert snapshot["procs.dump_errors"] == 1
        assert "metrics-99999.json" in capsys.readouterr().err


def _check_live_snapshot_matches_postmortem(layout):
    """The acceptance pin: a live merged group snapshot for a quiesced
    run equals the post-shutdown merged dump on the counters that
    account for traffic.  Returns the aggregated health."""
    from repro.obs.live import admin_request

    supervisor = _group(layout, workers=8, queue_depth=64, admin=True)
    with supervisor:
        assert len(supervisor.admin_addresses) == 2
        pids = supervisor.pids
        expected = _drive_group(supervisor)
        live = admin_request(supervisor.admin_address, "snapshot")
        postmortem = supervisor.stop()
    assert live["health"]["role"] == "supervisor"
    assert live["health"]["ready"] is True
    assert live["health"][layout.alive_key] == 2
    assert len(live["shards"]) == 2
    assert live["shard_errors"] == []
    merged_live = live["merged"]["gauges"]
    snapshot = postmortem.snapshot()
    # Worker telemetry publishes through collectors, so the traffic
    # books land under gauges in both views; every pinned key must
    # agree between the live poll and the shutdown merge.
    for key in ("server.requests", "server.runtime.served",
                "procs.up", *(f"proc.{pid}.up" for pid in pids)):
        assert merged_live[key] == snapshot[key], key
    assert merged_live["server.requests"] == expected
    assert live["merged"]["counters"]["procs.poll_errors"] == 0
    return live["health"]


class TestAdminPlane:
    """The live introspection plane across a supervised group."""

    @needs_reuseport
    @pytest.mark.slow
    def test_live_cluster_snapshot_matches_postmortem_merge(self):
        _check_live_snapshot_matches_postmortem(PROCS)

    @pytest.mark.slow
    def test_live_shards_snapshot_matches_postmortem_merge(self):
        health = _check_live_snapshot_matches_postmortem(SHARDS)
        assert health["shards"] == 2  # this layout also reports its size

    @needs_reuseport
    @pytest.mark.slow
    def test_flight_recorder_surfaces_inflight_slow_request_at_rate_zero(
            self):
        """A hung/slow request is visible *while it hangs* (with elapsed
        time and a trace id) and lands in the slow log with the same
        trace-id exemplar once it completes — all without --trace, i.e.
        at sample rate 0."""
        from repro.obs.live import admin_request

        supervisor = Supervisor(
            procs=2, workers=8, queue_depth=64, admin=True
        )
        with supervisor:
            network = AioNetwork()
            results = []
            try:
                client = RMIClient(network, supervisor.address)
                stub = client.lookup("load")

                def hang():
                    batch = create_batch(stub)
                    future = batch.work(1.2)
                    batch.flush()
                    results.append(future.get())

                worker = threading.Thread(target=hang)
                worker.start()
                time.sleep(0.4)  # the work() call now sleeps server-side
                inflight = []
                for address in supervisor.admin_addresses:
                    reply = admin_request(address, "snapshot")
                    inflight.extend(reply["flight"]["inflight"])
                handles = [entry for entry in inflight
                           if entry["name"] == "server.handle"]
                assert len(handles) == 1, inflight
                assert handles[0]["elapsed_ms"] > 100.0
                assert handles[0]["trace_id"]
                assert handles[0]["attrs"].get("method")
                worker.join(timeout=30)
                client.close()
            finally:
                network.close()
            assert results == [1]
            slow = []
            for address in supervisor.admin_addresses:
                reply = admin_request(address, "snapshot")
                slow.extend(reply["flight"]["slow"])
            exemplars = [entry for entry in slow
                         if entry["name"] == "server.handle"]
            assert len(exemplars) == 1, slow
            assert exemplars[0]["trace_id"] == handles[0]["trace_id"]
            assert exemplars[0]["duration_ms"] > 1000.0
            supervisor.stop()

    @needs_reuseport
    @pytest.mark.slow
    def test_admin_off_by_default(self):
        supervisor = Supervisor(procs=2, workers=8, queue_depth=64)
        with supervisor:
            assert supervisor.admin_addresses == ()
            with pytest.raises(RuntimeError, match="no admin endpoint"):
                supervisor.admin_address
            supervisor.stop()


class TestServeCLIDrain:
    def _spawn_serve(self, tmp_path, *extra, tag="ADDRESS"):
        """Start ``python -m repro.aio serve``; returns the process, the
        value of its first stdout line (a *tag* line) and the path its
        merged ``--metrics-json`` will land at."""
        metrics = tmp_path / "metrics.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.aio", "serve",
             "--workers", "8", "--queue-depth", "64",
             "--metrics-json", str(metrics), *extra],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=_env(),
        )
        line = proc.stdout.readline().strip()
        assert line.startswith(tag + " "), line
        return proc, line.split(" ", 1)[1], metrics

    @pytest.mark.slow
    def test_sigterm_drains_in_flight_work(self, tmp_path):
        """The kill-and-drain contract: a TERM arriving while a request
        is executing lets it finish, and the final metrics dump counts
        it."""
        proc, address, metrics = self._spawn_serve(tmp_path)
        network = AioNetwork()
        results = []
        try:
            client = RMIClient(network, address)
            stub = client.lookup("load")

            def in_flight():
                batch = create_batch(stub)
                future = batch.work(0.8)
                batch.flush()
                results.append(future.get())

            worker = threading.Thread(target=in_flight)
            worker.start()
            time.sleep(0.3)  # the work() call is now sleeping server-side
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=30)
            stdout, _ = proc.communicate(timeout=30)
            client.close()
        finally:
            network.close()
            if proc.poll() is None:
                proc.kill()
        assert results == [1], "in-flight call must survive the TERM"
        assert proc.returncode == 0
        assert "METRICS_JSON" in stdout
        dump = json.loads(metrics.read_text())
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.merge(dump)
        snapshot = registry.snapshot()
        assert snapshot["server.requests"] == 2  # lookup + drained call
        assert snapshot[f"proc.{proc.pid}.up"] == 1

    @needs_reuseport
    @pytest.mark.slow
    def test_procs_cli_merges_per_pid_dumps_on_sigterm(self, tmp_path):
        proc, address, metrics = self._spawn_serve(
            tmp_path, "--procs", "2",
            "--metrics-dir", str(tmp_path),
        )
        procs_line = proc.stdout.readline().strip()
        assert procs_line.startswith("PROCS 2 mode=reuseport "), procs_line
        pids = [int(p) for p in
                procs_line.rpartition("pids=")[2].split(",")]
        try:
            expected = _drive(address, clients=4, calls=3)
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, stdout
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.merge(json.loads(metrics.read_text()))
        snapshot = registry.snapshot()
        assert len(pids) == 2
        for pid in pids:
            assert snapshot[f"proc.{pid}.up"] == 1
        assert snapshot["server.requests"] == expected
        # The per-pid worker dumps were kept (user-supplied dir) and are
        # consumable one by one — what `python -m repro.obs metrics`
        # merges in the CI procs-smoke job.
        per_pid = sorted(tmp_path.glob("metrics-*.json"))
        assert len(per_pid) == 2

    @pytest.mark.slow
    def test_cluster_cli_merges_per_shard_dumps_on_sigterm(self, tmp_path):
        """The same drain through ``serve --shards``."""
        proc, shards, metrics = self._spawn_serve(
            tmp_path, "--shards", "2", "--metrics-dir", str(tmp_path),
            tag="SHARDS",
        )
        assert shards == "2"
        addresses_line = proc.stdout.readline().strip()
        assert addresses_line.startswith("ADDRESSES "), addresses_line
        addresses = addresses_line.split(" ", 1)[1].split(",")
        try:
            expected = _drive_shards(addresses)
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, stdout
        assert stdout.strip() == f"METRICS_JSON {metrics}"
        registry = MetricsRegistry()
        registry.merge(json.loads(metrics.read_text()))
        snapshot = registry.snapshot()
        assert snapshot["procs.up"] == 2
        assert snapshot["server.requests"] == expected
        # The per-shard dumps were kept (user-supplied dir), one each.
        per_shard = sorted(p.name for p in tmp_path.glob("metrics-*.json"))
        assert [name.split("-")[1] for name in per_shard] == [
            "shard0", "shard1"
        ]


class TestCLIUsageErrors:
    """A bad group size or admin port is a usage error — not a
    traceback, and not a silent in-process serve — and flags that do
    not make one group layout exit naming the conflict."""

    @pytest.mark.parametrize("module, argv", [
        ("repro.aio.__main__", ["serve", "--procs", "0"]),
        ("repro.aio.__main__", ["load", "--procs", "-1"]),
        ("repro.aio.__main__", ["serve", "--admin-port", "foo"]),
        ("repro.aio.__main__", ["serve", "--shards", "0"]),
    ])
    def test_bad_value_exits_with_the_usage_message(self, module, argv,
                                                    capsys):
        import importlib

        main = importlib.import_module(module).main
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {argv[1]}: wants" in err

    @pytest.mark.parametrize("extra, named", [
        (["--procs", "2"], "--procs"),
        (["--shard", "0/2"], "--shard"),
        (["--port", "5000"], "--port"),
        (["--trace", "f"], "--trace"),
    ])
    def test_a_conflicting_layout_exits_naming_the_conflict(self, extra,
                                                             named):
        from repro.aio.__main__ import main

        with pytest.raises(SystemExit) as caught:
            main(["serve", "--shards", "2", *extra])
        message = str(caught.value.code)
        assert message.startswith(f"--shards N cannot take {named}"), message
