"""e2e: what one batch flush costs, end to end and layer by layer.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                 [--seconds S] [--trace 0|1] [--out DIR]
    python benchmarks/e2e/run.py compare A.json B.json

Drives closed-loop workloads with service delay 0 against a server child
over loopback TCP, verifies every flush against a client-side model,
prints every metric of BENCHMARK.json by name with its unit, and writes a
stamped result file.  With ``--trace 1`` it adds two traced passes per
repetition and the staged replay of one flush (see ``staged.py``); the
end-to-end numbers always come from the untraced windows.

Run protocol (constants, not options): a run is REPS repetitions per
workload, interleaved round-robin across workloads; each repetition
spawns a fresh server child, connects, warms with the workload's
``warm_flushes`` verified flushes, measures ``seconds / REPS`` in slices
of the workload's ``slice_s``, and tears down after the child's counters
have been reconciled with what the client sent.  A cost metric reports
the best slice of the run (see steady()).  The harness and the child
share one CPU — see README.md for why.

With exactly one ``--workload`` the last line of standard output is the
JSON object the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import pathlib
import platform
import select
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"e2e: the program under test is missing: no {ROOT / 'src' / 'repro'}")
# This checkout's sources first, so an installed copy is never measured.
sys.path.insert(0, str(ROOT / "src"))

from repro.core import create_batch  # noqa: E402
from repro.obs import Tracer, install_tracer, uninstall_tracer  # noqa: E402
from repro.rmi import RetryPolicy, RMIClient  # noqa: E402

from staged import CaptureNetwork, SpanLog, run_staged  # noqa: E402
from workloads import WORKLOADS, make_network  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REPS = 5
TRACE_FLUSHES = 300
#: ``--smoke``: the scale the tier-1 test runs at; correctness only.  It
#: overrides the workloads' own ``slice_s`` and ``warm_flushes``.
SMOKE = {"reps": 1, "slice_s": 0.15, "seconds": 0.3, "warm": 20,
         "trace_flushes": 30}

METRICS = SPEC["end_to_end"] + SPEC["per_layer"]
#: Which way each metric is better, by name.
BETTER = {metric["name"]: metric["better"] for metric in METRICS}
#: Metrics that are not costs — shares, exact counts per flush and the
#: diagnostics: see steady().
PLAIN_MEDIAN = {metric["name"] for metric in METRICS
                if metric["unit"] in ("share", "count", "bytes", "1/flush")
                or metric["name"].startswith(("host.", "tail."))}

#: Seconds the parent waits for one line from the server child.
CHILD_REPLY_TIMEOUT = 60.0


# -- host ------------------------------------------------------------------


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Pin this process (children inherit) to its lowest allowed CPU.

    Yields the CPU number, or None where affinity cannot be set; the
    previous mask is restored on exit.
    """
    try:
        allowed = os.sched_getaffinity(0)
        cpu = min(allowed)
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        yield None
        return
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def cpu_times(cpu):
    """``(steal, total)`` jiffies of *cpu* (all CPUs if None) from
    /proc/stat; zeros where the file is missing."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if fields[0] == label:
                    ticks = [int(field) for field in fields[1:]]
                    return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        pass
    return 0, 0


def run_stamp(seed, cpu):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "seed": seed,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "transport": "loopback TCP, one host",
        "unix_time": time.time(),
    }


# -- the server child --------------------------------------------------------


class ServerChild:
    """One ``server.py`` process and the line protocol with it."""

    def __init__(self, workload, seed):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"),
             "--workload", workload.name, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.addresses = self._read_reply()
        except BaseException:
            self.kill()
            raise

    def _read_reply(self):
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    CHILD_REPLY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("the server child died or did not answer")
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read_reply()

    def stop(self):
        """EOF on stdin is the child's signal to drain and exit."""
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("the server child did not exit on EOF")
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"the server child exited with code {code}")

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


# -- one client flow -----------------------------------------------------------


class Flow:
    """One connection's closed loop: record → flush → read → verify."""

    def __init__(self, workload, network, address, seed, index):
        self.workload = workload
        self.client = RMIClient(
            network, address,
            retry=RetryPolicy() if workload.retry else None,
        )
        self.stub = self.client.lookup(workload.service)
        self.pairs = [(item, workload.expected(item))
                      for item in workload.inputs(seed, index)]
        self._cycle = itertools.cycle(self.pairs)
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def _fail(self, why):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = why

    def flush_pair(self, pair, spans=None):
        """One verified flush; returns its latency in seconds, or None
        if it raised.  *spans* wraps the three steps in benchmark spans
        (the pass that prices the harness's own span recording)."""
        workload = self.workload
        item, expected = pair
        self.attempted += 1
        start = time.perf_counter()
        try:
            root = create_batch(self.stub, policy=workload.policy(),
                                reuse_plans=workload.reuse_plans)
            handles = workload.record(root, item)
            recorded = time.perf_counter()
            root.flush()
            flushed = time.perf_counter()
            observed = workload.read(handles)
        except Exception:  # noqa: BLE001 - a failed flush is counted, not fatal
            self._fail(traceback.format_exc())
            return None
        end = time.perf_counter()
        if spans is not None:
            flush = f"real-{id(self)}-{self.attempted}"
            spans.add(flush, "client.record", "flush", start, recorded)
            spans.add(flush, "client.flush", "flush", recorded, flushed)
            spans.add(flush, "client.read", "flush", flushed, end)
            spans.add(flush, "flush", None, start, end)
        if observed != expected:
            self._fail(f"{workload.name}: read {observed!r:.200}, "
                       f"the model expects {expected!r:.200}")
        return end - start

    def run_until(self, deadline, latencies, spans=None):
        flush_pair, cycle = self.flush_pair, self._cycle
        while time.perf_counter() < deadline:
            latency = flush_pair(next(cycle), spans)
            if latency is not None:
                latencies.append(latency)

    def warm(self, count):
        for _ in range(count):
            self.flush_pair(next(self._cycle))


# -- one repetition ----------------------------------------------------------------


def percentile(ordered, q):
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def p50_us(window):
    return percentile(window["latencies"], 0.50) * 1e6


#: Server counters reported per flush under the per-layer names.
COUNTER_METRICS = {
    "aio.served": "server.runtime.served",
    "aio.shed": "server.runtime.shed",
    "rmi.dedup_executed": "server.dedup.executed",
    "rmi.dedup_replayed": "server.dedup.hits",
    "plan.cache_hits": "server.plan_cache.hits",
    "plan.cache_misses": "server.plan_cache.misses",
    "core.sched.parallel_batches": "server.scheduler.parallel_batches",
    "core.sched.serial_batches": "server.scheduler.serial_batches",
    "core.sched.elements": "server.scheduler.elements",
    "core.sched.fallback_policy": "server.scheduler.fallback.policy",
}


class Repetition:
    """A fresh server child, its flows, and the windows measured on it."""

    def __init__(self, workload, seed, scale, cpu):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.cpu = cpu
        self.flows = []
        self.failures = []
        started = time.perf_counter()
        self.child = ServerChild(workload, seed)
        self.network = None
        try:
            self.network = make_network(workload.transport)
            address = self.child.addresses["rmi"]
            for index in range(workload.flows):
                self.flows.append(
                    Flow(workload, self.network, address, seed, index))
            warm = scale["warm"] or workload.warm_flushes
            for flow in self.flows:
                flow.warm(warm // workload.flows)
        except BaseException:
            self.abandon()
            raise
        self.setup_s = time.perf_counter() - started

    def window(self, seconds, spans=None, solo=False):
        """Run every flow's closed loop for *seconds* (only the first
        flow's if *solo*); returns the window's raw numbers."""
        # The staged replay's capture flow, appended later, is never driven.
        measured = self.flows[:1 if solo else self.workload.flows]
        latencies = [[] for _ in measured]
        before = self.child.ask("counters")
        traffic0 = [flow.client.stats.snapshot() for flow in measured]
        steal0, total0 = cpu_times(self.cpu)
        cpu0 = time.process_time()
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=flow.run_until,
                             args=(deadline, latencies[i], spans))
            for i, flow in enumerate(measured[1:], 1)
        ]
        for thread in threads:
            thread.start()
        measured[0].run_until(deadline, latencies[0], spans)
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        client_cpu = time.process_time() - cpu0
        steal1, total1 = cpu_times(self.cpu)
        after = self.child.ask("counters")
        traffic1 = [flow.client.stats.snapshot() for flow in measured]
        ordered = sorted(itertools.chain.from_iterable(latencies))
        if not ordered:
            raise RuntimeError(
                f"{self.workload.name}: no flush succeeded in the window; "
                f"first failure:\n{self.first_failure()}")
        return {
            "latencies": ordered,
            "elapsed": elapsed,
            "client_cpu": client_cpu,
            "server": {key: after[key] - before.get(key, 0)
                       for key in after},
            "service_p50_us": after.get("server.runtime.p50_ms", 0.0) * 1e3,
            "bytes_up": sum(b.bytes_sent - a.bytes_sent
                            for a, b in zip(traffic0, traffic1)),
            "bytes_down": sum(b.bytes_received - a.bytes_received
                              for a, b in zip(traffic0, traffic1)),
            "requests": sum(b.requests - a.requests
                            for a, b in zip(traffic0, traffic1)),
            "steal_ticks": steal1 - steal0,
            "cpu_ticks": total1 - total0,
        }

    def traced_window(self, seconds):
        """A window with a full-rate ``repro.obs`` tracer on both sides."""
        self.child.ask("tracer on")
        install_tracer(Tracer(sample_rate=1.0))
        try:
            return self.window(seconds)
        finally:
            uninstall_tracer()
            self.child.ask("tracer off")

    def staged(self, log):
        capture_network = CaptureNetwork(self.network)
        flow = Flow(self.workload, capture_network,
                    self.child.addresses["rmi"], self.seed, 0)
        self.flows.append(flow)
        values, failures = run_staged(
            self.workload, self.seed, flow, capture_network, self.network,
            self.child.addresses["echo"], self.scale["trace_flushes"], log)
        self.failures.extend(failures)
        return values

    def first_failure(self):
        for flow in self.flows:
            if flow.first_failure is not None:
                return flow.first_failure
        return self.failures[0] if self.failures else None

    def finish(self):
        """Reconcile the child's counters with what was sent, tear down;
        returns ``(attempted, failed)`` for the whole repetition."""
        try:
            # A listener counts a request after writing its response, so
            # the last answer can overtake its own count: the counters
            # only ever rise, so poll until they agree or stop moving.
            for _ in range(50):
                counters = self.child.ask("counters")
                mismatches = self._mismatches(counters)
                if not mismatches:
                    break
                time.sleep(0.02)
            self.failures.extend(mismatches)
            self.rss_hwm_kb = counters["rss_hwm_kb"]
        finally:
            self.close()
        attempted = sum(flow.attempted for flow in self.flows)
        failed = sum(flow.failed for flow in self.flows) + len(self.failures)
        return attempted, failed

    def _mismatches(self, counters):
        """Where the child's counters disagree with the clients' own."""
        workload = self.workload
        flushes = sum(flow.attempted for flow in self.flows)
        requests = sum(flow.client.stats.requests for flow in self.flows)
        memos = [flow.client.plan_memo for flow in self.flows]
        on_aio = workload.transport == "aio"
        parallel = workload.cursor_elements > 0
        expect = {
            "server.requests": requests,
            "server.dedup.executed": requests if workload.retry else 0,
            "server.dedup.hits": 0,
            "server.plan_cache.hits": sum(m.plan_invocations for m in memos),
            "server.plan_cache.misses": 0,
            "server.plan_cache.installs": 1 if workload.reuse_plans else 0,
            "server.scheduler.parallel_batches": flushes if parallel else 0,
            "server.scheduler.serial_batches": 0 if parallel else flushes,
            "server.scheduler.elements": flushes * workload.cursor_elements,
            "server.runtime.served": requests if on_aio else 0,
            "server.runtime.shed": 0,
        }
        mismatches = [
            f"server counter {key} is {counters.get(key, 0)}, the "
            f"client's count says {wanted}"
            for key, wanted in expect.items()
            if counters.get(key, 0) != wanted
        ]
        calls = counters.get("impl_calls")
        if calls is not None and calls != flushes * workload.ops_per_flush:
            mismatches.append(
                f"the bound object counted {calls} calls, the client made "
                f"{flushes} flushes of {workload.ops_per_flush}")
        if workload.reuse_plans:
            shipped = sum(m.inline_flushes + m.plan_installs
                          + m.plan_invocations for m in memos)
            if shipped != flushes:
                mismatches.append(
                    f"plan memos account for {shipped} flushes, "
                    f"the client made {flushes}")
        return mismatches

    def close(self):
        for flow in self.flows:
            flow.client.close()
        self.network.close()
        self.child.stop()

    def abandon(self):
        """Tear down after a failure, keeping the original exception."""
        with contextlib.suppress(Exception):
            for flow in self.flows:
                flow.client.close()
            if self.network is not None:
                self.network.close()
        self.child.kill()


def window_values(workload, window):
    """Every metric one untraced window yields, by BENCHMARK.json name."""
    latencies = window["latencies"]
    flushes = len(latencies)
    server = window["server"]
    values = {
        "flush_p50_us": p50_us(window),
        "flush_p90_us": percentile(latencies, 0.90) * 1e6,
        "batches_per_s": flushes / window["elapsed"],
        "server_cpu_us_per_flush": server["cpu_s"] * 1e6 / flushes,
        "client_cpu_us_per_flush": window["client_cpu"] * 1e6 / flushes,
        "bytes_up_per_flush": window["bytes_up"] / flushes,
        "bytes_down_per_flush": window["bytes_down"] / flushes,
        "round_trips_per_flush": window["requests"] / flushes,
        "aio.service_p50_us": window["service_p50_us"],
        "core.ops_per_flush": workload.ops_per_flush,
        "core.cursor_elements_per_flush": workload.cursor_elements,
        "host.server_ctx_switches_per_flush":
            server["ctx_switches"] / flushes,
    }
    for name, key in COUNTER_METRICS.items():
        values[name] = server.get(key, 0) / flushes
    lookups = values["plan.cache_hits"] + values["plan.cache_misses"]
    values["plan.cache_hit_ratio"] = (
        values["plan.cache_hits"] / lookups if lookups else 0.0)
    return values


def steady(values, name):
    """One number for *values* of metric *name* that repeats on a noisy
    host.

    The reference VM's two vCPUs share a core with each other and with
    other guests: whenever the sibling is busy — for milliseconds or for
    a minute — this one runs up to 1.9x slower (a busy loop pinned to
    the other vCPU reproduces it, and CPU time per flush rises with the
    latency), so a median over a run lands anywhere in between from run
    to run.  Contention only ever adds time, so the undisturbed cost is
    the floor: a cost metric takes its best value — over a repetition's
    slices, each itself a median, percentile or mean over its flushes,
    and then over the run's repetitions.  Slices are short so that some
    fit into the gaps of the sibling's load.  A change in the program
    moves the floor, so it still shows.  Shares, exact counts per flush
    and the ``host.``/``tail.`` diagnostics are not costs and take the
    median.
    """
    if name in PLAIN_MEDIAN:
        return statistics.median(values)
    return min(values) if BETTER[name] == "lower" else max(values)


def measure(rep, trace, log):
    """A repetition's slices, round-robin over the kinds of window so
    host drift hits plain and traced slices alike; returns the
    repetition's values by metric name.

    A round is one plain slice and, when tracing, the half slices beside
    it; the rounds share ``seconds / reps``, so a traced run measures as
    long as a plain one."""
    workload, scale = rep.workload, rep.scale
    slice_s = scale["slice_s"] or workload.slice_s
    halves = (3 if workload.flows > 1 else 2) if trace else 0
    rounds = max(1, round(scale["seconds"]
                          / (scale["reps"] * slice_s * (1 + halves / 2))))
    windows, traced_p50, wrapped_p50, solo_p50 = [], [], [], []
    for _ in range(rounds):
        windows.append(rep.window(slice_s))
        if trace:
            traced_p50.append(p50_us(rep.traced_window(slice_s / 2)))
            wrapped_p50.append(p50_us(rep.window(slice_s / 2, spans=log)))
            if workload.flows > 1:
                solo_p50.append(p50_us(rep.window(slice_s / 2, solo=True)))
    plain = [window_values(workload, window) for window in windows]
    values = {name: steady([slice_[name] for slice_ in plain], name)
              for name in plain[0]}
    # A slice is too short for a tail or for /proc/stat's 10 ms ticks:
    # these two read the repetition's plain slices as a whole.
    pooled = sorted(itertools.chain.from_iterable(
        window["latencies"] for window in windows))
    values["tail.flush_p99_us"] = percentile(pooled, 0.99) * 1e6
    ticks = sum(window["cpu_ticks"] for window in windows)
    values["host.steal_share"] = (
        sum(window["steal_ticks"] for window in windows) / ticks
        if ticks else 0.0)
    if trace:
        p50 = values["flush_p50_us"]
        values["obs.traced_flush_p50_us"] = min(traced_p50)
        values["obs.overhead_share"] = min(traced_p50) / p50 - 1.0
        values["trace.harness_overhead_share"] = min(wrapped_p50) / p50 - 1.0
        # What a flush waits for the workload's other flows on the shared
        # CPU: the one part of the measured flush no stage can contain.
        values["trace.contention_wait_us"] = (
            p50 - min(solo_p50) if solo_p50 else 0.0)
    return values


# -- a run: repetitions of every selected workload -----------------------------------


def summarize(values, name):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": steady(values, name), "median": median,
            "q1": q1, "q3": q3, "n": len(values), "values": list(values)}


def run(names, seed, scale, trace, out_dir):
    """Measure the named workloads; returns the result document."""
    out_dir.mkdir(parents=True, exist_ok=True)
    per_rep = {name: [] for name in names}
    totals = {name: [0, 0] for name in names}
    problems = {}
    with pinned_to_one_cpu() as cpu:
        stamp = run_stamp(seed, cpu)
        for index in range(scale["reps"]):
            last = index == scale["reps"] - 1
            for name in names:
                rep = Repetition(WORKLOADS[name], seed, scale, cpu)
                try:
                    log = SpanLog()
                    values = measure(rep, trace, log)
                    if trace and last:
                        # As many wrapped real flushes (4 spans each)
                        # as staged ones go to the trace file.
                        del log.rows[4 * scale["trace_flushes"]:]
                        values.update(rep.staged(log))
                        log.write(out_dir / f"trace-{name}.jsonl")
                except BaseException:
                    rep.abandon()
                    raise
                attempted, failed = rep.finish()
                totals[name][0] += attempted
                totals[name][1] += failed
                if failed and name not in problems:
                    problems[name] = rep.first_failure()
                values["setup_s"] = rep.setup_s
                values["server_rss_mb"] = rep.rss_hwm_kb / 1024.0
                values["verified_share"] = (attempted - failed) / attempted
                per_rep[name].append(values)
    result = {"stamp": stamp, "scale": scale, "trace": bool(trace),
              "workloads": {}}
    for name in names:
        reps = per_rep[name]
        entry = {"attempted": totals[name][0], "failed": totals[name][1],
                 "first_failure": problems.get(name)}
        for group in ("end_to_end", "per_layer"):
            # The staged replay's values exist on the last repetition
            # only; each metric is summarized over the repetitions that
            # have it.
            entry[group] = {
                metric["name"]: summarize(
                    [rep[metric["name"]] for rep in reps
                     if metric["name"] in rep], metric["name"])
                for metric in SPEC[group]
                if any(metric["name"] in rep for rep in reps)
            }
        if trace:
            # How much of the measured flush the stages, plus the wait
            # for the other flows, explain.
            layers = entry["per_layer"]
            stage_sum = (layers["trace.stage_sum_us"]["value"]
                         + layers["trace.contention_wait_us"]["value"])
            p50 = entry["end_to_end"]["flush_p50_us"]["value"]
            layers["trace.stage_sum_us"] = summarize(
                [stage_sum], "trace.stage_sum_us")
            layers["trace.unattributed_share"] = summarize(
                [1.0 - stage_sum / p50], "trace.unattributed_share")
        result["workloads"][name] = entry
    return result


# -- reporting -------------------------------------------------------------------------


def print_report(result):
    scale, stamp = result["scale"], result["stamp"]
    print(f"e2e: seed {stamp['seed']}, {scale['seconds']:g} s per workload in "
          f"{scale['reps']} repetitions; {stamp['transport']}; "
          f"harness and server child pinned to CPU {stamp['pinned_cpu']} "
          f"of {stamp['nproc']}; git {stamp['git_sha']}")
    for name, entry in result["workloads"].items():
        workload = WORKLOADS[name]
        print(f"\n== {name} ({workload.transport}, {workload.flows} "
              f"connection(s), closed loop, "
              f"{scale['warm'] or workload.warm_flushes} warm flushes, "
              f"{scale['slice_s'] or workload.slice_s:g} s slices) — "
              f"{workload.why}")
        for group in ("end_to_end", "per_layer"):
            rows = entry[group]
            if not rows:
                continue
            print(f"  {group:<38}{'value':>14}  {'reps [q1, q3]':<30}{'n':>3}  unit")
            for metric in SPEC[group]:
                row = rows.get(metric["name"])
                if row is None:
                    continue
                spread = f"[{row['q1']:.6g}, {row['q3']:.6g}]"
                print(f"  {metric['name']:<38}{row['value']:>14.6g}  "
                      f"{spread:<30}{row['n']:>3}  {metric['unit']}")
        share = entry["failed"] / entry["attempted"]
        print(f"  failed_share = {share:.6g} "
              f"({entry['failed']} of {entry['attempted']} flushes)")
        if entry["first_failure"]:
            print(f"  first failure: {entry['first_failure']}")


def driver_line(result, name, trace):
    entry = result["workloads"][name]
    group = "per_layer" if trace else "end_to_end"
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            metric["name"]: {
                "value": entry[group][metric["name"]]["value"],
                "unit": metric["unit"],
            }
            for metric in SPEC[group]
        },
    })


# -- compare ----------------------------------------------------------------------------


def compare(path_a, path_b):
    """Judge B against A with each metric's bound; returns the exit code.

    A median worse by more than the bound is a *regression* only when
    the two sets' interquartile ranges do not overlap; inside the
    spread it is *unresolved* — the benchmark cannot tell.
    """
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    for label, doc in (("A", a), ("B", b)):
        stamp = doc["stamp"]
        print(f"{label}: git {stamp['git_sha']} seed {stamp['seed']} "
              f"cpu {stamp['pinned_cpu']}/{stamp['nproc']} "
              f"python {stamp['python']} loadavg {stamp['loadavg']}")
    regressed = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        print(f"\n== {name}")
        for metric in SPEC["end_to_end"]:
            row_a = a["workloads"][name]["end_to_end"][metric["name"]]
            row_b = b["workloads"][name]["end_to_end"][metric["name"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (row_b["value"] - row_a["value"]) / abs(
                row_a["value"])
            overlap = row_a["q1"] <= row_b["q3"] and row_b["q1"] <= row_a["q3"]
            if worse_by <= metric["bound"]:
                verdict = "ok"
            elif overlap:
                verdict = "unresolved"
            else:
                verdict = "REGRESSED"
                regressed += 1
            print(f"  {metric['name']:<28}{row_a['value']:>14.6g} -> "
                  f"{row_b['value']:<14.6g}{worse_by:>+9.2%} worse "
                  f"(bound {metric['bound']:.1%})  {verdict}")
    print(f"\n{regressed} regression(s)")
    return 1 if regressed else 0


# -- command line -------------------------------------------------------------------------


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="'run.py compare A.json B.json' judges two result files.")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="measure only this workload (repeatable; "
                             "default: all four, interleaved)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured seconds per workload, split over "
                             f"{REPS} repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced passes and the staged replay")
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out",
                        help="directory for the result file and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale for the tier-1 test: correctness only")
    args = parser.parse_args(argv)

    names = args.workload or list(WORKLOADS)
    scale = dict(SMOKE) if args.smoke else {
        "reps": REPS, "slice_s": None, "seconds": args.seconds,
        "warm": None, "trace_flushes": TRACE_FLUSHES,
    }
    result = run(names, args.seed, scale, args.trace, args.out)
    path = args.out / (f"e2e-seed{args.seed}-trace{args.trace}-"
                       f"{'+'.join(names)}-{time.time_ns()}.json")
    path.write_text(json.dumps(result, indent=1))
    print_report(result)
    print(f"\nresult file: {path}")
    if len(names) == 1:
        print(driver_line(result, names[0], args.trace))
    failed = sum(entry["failed"] for entry in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
