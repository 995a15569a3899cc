"""Tier-1 smoke test of the e2e benchmark.

Runs every workload at ``--smoke`` scale and asserts correctness only:
every metric of BENCHMARK.json is printed with its unit, no flush fails,
the server's counters reconcile with the client's, the trace is well
formed, and a deliberately wrong model is caught.  No wall-clock
assertion; all output goes under ``tmp_path``.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )


def assert_driver_line(stdout, group):
    """The last line is the driver's JSON with exactly *group*'s metrics."""
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0
    assert doc["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in doc["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in SPEC[group]}
    return doc


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_at_smoke_scale(name, tmp_path):
    done = run_cli("--workload", name, "--smoke", "--trace", "1",
                   "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    assert_driver_line(done.stdout, "per_layer")

    # Every metric, end-to-end and per-layer, by name with its unit.
    printed = {}
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2 and line.startswith("  "):
            printed[fields[0]] = fields[-1]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
    assert "failed_share = 0 " in done.stdout

    # The result file carries the stamp and the per-repetition values.
    (result_path,) = tmp_path.glob("e2e-*.json")
    result = json.loads(result_path.read_text())
    assert {"git_sha", "seed", "nproc", "pinned_cpu", "python",
            "loadavg"} <= set(result["stamp"])
    entry = result["workloads"][name]
    assert entry["end_to_end"]["round_trips_per_flush"]["value"] == 1.0
    assert entry["end_to_end"]["verified_share"]["values"] == [1.0]

    # The trace: every parent is a span of the same flush.
    spans = [json.loads(line) for line in
             (tmp_path / f"trace-{name}.jsonl").read_text().splitlines()]
    ids = {span["span"] for span in spans}
    assert len(ids) == len(spans)
    staged_roots = 0
    for span in spans:
        assert span["end_us"] >= span["start_us"]
        if span["parent"] is None:
            assert span["name"] == "flush"
            staged_roots += span["flush"].startswith("staged-")
        else:
            assert span["parent"] in ids
            assert span["parent"].startswith(span["flush"] + "/")
    assert staged_roots == 30


def test_untraced_run_reports_the_end_to_end_metrics(tmp_path):
    done = run_cli("--workload", "small_tcp", "--smoke", "--trace", "0",
                   "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    doc = assert_driver_line(done.stdout, "end_to_end")
    assert all(metric["value"] > 0 for metric in doc["metrics"].values())
    assert not list(tmp_path.glob("trace-*.jsonl"))


def test_a_wrong_model_is_caught(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    monkeypatch.setattr(workloads.SmallTcp, "expected",
                        lambda self, item: "not what noop returns")
    code = run.main(["--workload", "small_tcp", "--smoke", "--trace", "0",
                     "--out", str(tmp_path)])
    assert code != 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["correct"] is False
    assert doc["failed"] == doc["attempted"] > 0
    assert doc["metrics"]["verified_share"]["value"] == 0.0


def test_compare_flags_a_regression_outside_the_spread(tmp_path):
    done = run_cli("--workload", "small_tcp", "--smoke", "--trace", "0",
                   "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    (base_path,) = tmp_path.glob("e2e-*.json")
    assert run_cli("compare", str(base_path), str(base_path)).returncode == 0

    worse = json.loads(base_path.read_text())
    row = worse["workloads"]["small_tcp"]["end_to_end"]["flush_p50_us"]
    for key in ("value", "median", "q1", "q3"):
        row[key] *= 2.0
    worse_path = tmp_path / "worse.json"
    worse_path.write_text(json.dumps(worse))
    done = run_cli("compare", str(base_path), str(worse_path))
    assert done.returncode == 1
    assert "REGRESSED" in done.stdout
    # The other way round it is an improvement, not a regression.
    assert run_cli("compare", str(worse_path),
                   str(base_path)).returncode == 0
