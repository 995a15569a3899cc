"""Tier-1 self-tests of the lane harness in ``conftest.py``.

The lanes trust three things: ``BENCH_SCALE`` is validated before any
lane runs, ``serve_child`` never leaves a child behind, and
``record_results`` never touches another lane's keys.  The stand-in
children print their own pid, so "gone" is checked from outside:
signal 0 reaches a zombie but not a reaped process.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import conftest
import pytest


def gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_unknown_scale_fails_collection():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", __file__],
        env=dict(os.environ, BENCH_SCALE="bogus"),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "unknown BENCH_SCALE 'bogus'" in done.stdout + done.stderr
    assert "smoke, full" in done.stdout + done.stderr


def test_serve_child_kills_a_child_that_says_something_else(monkeypatch):
    monkeypatch.setattr(conftest, "SERVE", (
        sys.executable, "-c",
        "import os, time; print('BOOM', os.getpid(), flush=True); "
        "time.sleep(60)",
    ))
    with pytest.raises(RuntimeError) as caught:
        with conftest.serve_child():
            pytest.fail("the body must not run")
    said = re.search(r"said 'BOOM (\d+)' instead of a ADDRESS line",
                     str(caught.value))
    assert said, caught.value
    assert gone(int(said.group(1)))


def test_serve_child_reaps_the_child_when_the_body_raises(monkeypatch):
    monkeypatch.setattr(conftest, "SERVE", (
        sys.executable, "-c",
        "import os, sys; print('ADDRESS', os.getpid(), flush=True); "
        "sys.stdin.read()",
    ))
    with pytest.raises(KeyError):
        with conftest.serve_child() as (address, admin):
            assert admin is None
            assert not gone(int(address))
            raise KeyError("lane body failed")
    assert gone(int(address))


def test_record_results_updates_only_its_own_keys(monkeypatch, tmp_path):
    monkeypatch.setattr(conftest, "RESULTS_DIR", tmp_path)
    conftest.record_results("BENCH_x.json", {"lane_a": 1, "lane_b": 2})
    conftest.record_results("BENCH_x.json", {"lane_b": 3})
    assert json.loads((tmp_path / "BENCH_x.json").read_text()) \
        == {"lane_a": 1, "lane_b": 3}
