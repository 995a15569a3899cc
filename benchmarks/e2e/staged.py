"""The traced run: one flush replayed stage by stage through each layer.

The end-to-end windows record no spans.  This module captures one real,
verified flush's artefacts (request and response bytes) and then replays
the flush as a sequence of *stages*, each a call into one layer's public
functions, timed from this file — spans inside ``src/`` are a later
issue.  One synthetic flush runs every stage once, in flush order, so
drift over the run hits all stages equally; per-layer values are medians
of the stage durations, and their sum is compared with the measured
flush to show how much of it the stages explain.

Stage order (``<net>`` is ``net.tcp`` or ``aio``)::

    core.record → plan.lift → rmi.marshal → wire.encode_request
      → <net>.echo_rtt → rmi.handle → wire.decode_response → rmi.unmarshal
      → core.apply

``rmi.handle`` is one real ``RMICore.handle`` call on an in-process core
holding the same objects.  Its four parts — ``wire.decode_request``,
``rmi.dedup``, ``plan.invoke`` or ``core.execute``,
``wire.encode_response`` — are replayed right after it and carry it as
their parent, so ``handle − Σ parts`` is the dispatcher's self time.  A
stage that is not on a workload's path (``plan.lift`` without plan
reuse, ``rmi.dedup`` without a retry token) is not run and reads 0.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time

from repro.core import BatchExecutor, create_batch
from repro.core.dag import analyze_batch
from repro.net import Channel, Network
from repro.plan import PlanCache, PlanRuntime, compile_plan, plan_hash
from repro.rmi import (
    INVOKE_BATCH,
    CallRequest,
    CallResponse,
    DedupWindow,
    RMICore,
    Stub,
)
from repro.rmi.exceptions import MarshalError
from repro.rmi.marshal import MarshalContext, marshal_args, unmarshal
from repro.rmi.protocol import INSTALL_PLAN
from repro.wire import decode, encode

#: Connections opened to price ``<net>.connect_us``.
CONNECT_SAMPLES = 20

#: The stages of a flush besides the transport's echo, which is named per
#: workload; those on a workload's path add up to ``trace.stage_sum_us``.
SERVER_PARTS = ("wire.decode_request", "rmi.dedup", "plan.invoke",
                "core.execute", "wire.encode_response")
CLIENT_STAGES = ("core.record", "plan.lift", "rmi.marshal",
                 "wire.encode_request", "wire.decode_response",
                 "rmi.unmarshal", "core.apply")


class SpanLog:
    """Spans kept in memory as tuples, written out when the run ends.

    A span is ``(flush, name, parent, start, end)``; names are unique
    within a flush, so ``parent`` is the parent's name (``None`` for the
    root) and needs no id bookkeeping on the timed path.
    """

    def __init__(self):
        self.rows = []

    def add(self, flush, name, parent, start, end):
        self.rows.append((flush, name, parent, start, end))

    def durations_us(self, name):
        return [(end - start) * 1e6
                for _f, row_name, _p, start, end in self.rows
                if row_name == name]

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as out:
            for flush, name, parent, start, end in self.rows:
                out.write(json.dumps({
                    "flush": flush,
                    "span": f"{flush}/{name}",
                    "parent": None if parent is None else f"{flush}/{parent}",
                    "name": name,
                    "start_us": start * 1e6,
                    "end_us": end * 1e6,
                }) + "\n")


class CaptureNetwork(Network):
    """Wraps a network so the last request/response bytes can be read."""

    def __init__(self, inner):
        self.inner = inner
        self.last = None

    def connect(self, address, from_host="client"):
        return _CaptureChannel(self.inner.connect(address, from_host), self)


class _CaptureChannel(Channel):
    def __init__(self, inner, network):
        super().__init__()
        self._inner = inner
        self._network = network

    def request(self, payload):
        response = self._inner.request(payload)
        self._network.last = (bytes(payload), bytes(response))
        self.stats.record_request(len(payload), len(response))
        return response

    def close(self):
        self._inner.close()


class StagedClient(MarshalContext):
    """Benchmark-owned client: a flush reaches :meth:`call`, which keeps
    what was sent and answers with :attr:`response` — so recording and
    applying a batch can be timed with no transport underneath."""

    def __init__(self):
        self.sent = None
        self.response = None

    def call(self, object_id, method, args=(), kwargs=None):
        self.sent = (object_id, method, args)
        return self.response

    def export(self, obj):
        raise MarshalError("the staged client exports nothing")

    def make_stub(self, ref):
        return Stub(ref, self.call, client=self)

    def charge(self, kind, count=1):
        pass


def _timed(log, flush, name, parent, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    log.add(flush, name, parent, start, time.perf_counter())
    return result


def run_staged(workload, seed, capture_flow, capture_network, network,
               echo_address, count, log):
    """Replay *count* synthetic flushes; returns ``(values, failures)``.

    *capture_flow* is a live flow over *capture_network* to the server
    child; *network* dials the child's echo listener.  ``values`` maps
    per-layer metric names to numbers; ``failures`` lists what did not
    verify.
    """
    failures = []
    pair = capture_flow.pairs[0]
    item, expected = pair
    # Three flushes: with plan reuse the third is the steady-state
    # __invoke_plan__ (inline, install, invoke); otherwise all are alike.
    for _ in range(3):
        capture_flow.flush_pair(pair)
    request_bytes, response_bytes = capture_network.last
    request = decode(request_bytes)

    # The in-process server side: same objects under the same ids.
    core = RMICore(network, "tcp://127.0.0.1:1")
    impl = workload.impl(seed)
    core.bind(workload.service, impl)
    executor = BatchExecutor(core)
    dedup = DedupWindow()

    # The benchmark-owned client side.
    staged = StagedClient()
    root_ref = capture_flow.stub.remote_ref
    staged_stub = Stub(root_ref, staged.call, client=staged)

    def record():
        # Plan reuse changes only how a segment is shipped, which
        # plan.lift prices; recording is the plain recorder's either way.
        root = create_batch(staged_stub, policy=workload.policy())
        return root, workload.record(root, item)

    def apply(root, handles, value):
        staged.response = value
        root.flush()
        return workload.read(handles)

    # One untimed pass to learn the recorded invocations.
    root, handles = record()
    observed = apply(root, handles, unmarshal(decode(response_bytes).value,
                                              staged))
    if observed != expected:
        failures.append("staged apply of the captured response differs "
                        "from the model")
    recorded, policy = staged.sent[2][0], staged.sent[2][1]

    on_plan_path = request.method != INVOKE_BATCH
    if on_plan_path:
        plan, _params = compile_plan(recorded, policy)
        digest, params = request.args
        if plan_hash(plan) != digest:
            failures.append("staged plan hash differs from the one shipped")
        runtime = PlanRuntime(executor, PlanCache())
        runtime.install(impl, plan, params)
        # The in-process core learns the plan the way a server does.
        core.handle(encode(CallRequest(
            request.object_id, INSTALL_PLAN, (plan, params))))
        bound = plan.bind(params)
        bound_dag = analyze_batch(plan.ops, plan.policy)
        call_args = (digest, params)
    else:
        invocations, policy = request.args[0], request.args[1]
        call_args = tuple(staged.sent[2])

    replayed = core.handle(request_bytes)
    if bytes(replayed) != response_bytes:
        failures.append("in-process RMICore.handle answers with other bytes "
                        "than the server child")

    net = "aio" if workload.transport == "aio" else "net.tcp"
    echo_stage = f"{net}.echo_rtt"
    connect_us = []
    for _ in range(CONNECT_SAMPLES):
        start = time.perf_counter()
        channel = network.connect(echo_address)
        connect_us.append((time.perf_counter() - start) * 1e6)
        channel.close()
    echo = network.connect(echo_address)
    echo_payload = (len(response_bytes).to_bytes(4, "big")
                    + bytes(len(request_bytes) - 4))

    try:
        for k in range(count):
            flush = f"staged-{k}"
            flush_start = time.perf_counter()
            root, handles = _timed(log, flush, "core.record", "flush", record)
            if on_plan_path:
                _timed(log, flush, "plan.lift", "flush",
                       lambda: plan_hash(compile_plan(recorded, policy)[0]))
            _timed(log, flush, "rmi.marshal", "flush",
                   marshal_args, call_args, None, staged)
            if request.call_id:
                # A fresh token per flush, or the dedup window would
                # replay the first answer instead of executing.
                outgoing = dataclasses.replace(
                    request, call_id=f"{request.call_id}/{k}")
            else:
                outgoing = request
            payload = _timed(log, flush, "wire.encode_request", "flush",
                             encode, outgoing)
            _timed(log, flush, echo_stage, "flush",
                   echo.request, echo_payload)

            _timed(log, flush, "rmi.handle", "flush", core.handle, payload)
            _timed(log, flush, "wire.decode_request", "rmi.handle",
                   decode, payload)
            if request.call_id:
                _timed(log, flush, "rmi.dedup", "rmi.handle",
                       dedup.execute, f"staged/{k}", bytes)
            if on_plan_path:
                result = _timed(log, flush, "plan.invoke", "rmi.handle",
                                runtime.invoke, impl, digest, params)
            else:
                result = _timed(log, flush, "core.execute", "rmi.handle",
                                executor.invoke_batch, impl, invocations,
                                policy)
            _timed(log, flush, "wire.encode_response", "rmi.handle",
                   encode, CallResponse(result, False))

            response = _timed(log, flush, "wire.decode_response", "flush",
                              decode, response_bytes)
            value = _timed(log, flush, "rmi.unmarshal", "flush",
                           unmarshal, response.value, staged)
            observed = _timed(log, flush, "core.apply", "flush",
                              apply, root, handles, value)
            if observed != expected:
                failures.append(f"{flush}: applied values differ from "
                                "the model")

            # Controls: not stages of the flush, so not in the stage sum.
            _timed(log, flush, "apps.body", "flush",
                   workload.body, impl, item)
            if on_plan_path:
                _timed(log, flush, "core.execute", "flush",
                       lambda: executor.invoke_batch(
                           impl, bound, policy, validated=True,
                           dag=bound_dag))
            else:
                _timed(log, flush, "core.dag_analyze", "flush",
                       analyze_batch, invocations, policy)
            log.add(flush, "flush", None, flush_start, time.perf_counter())
    finally:
        echo.close()
        executor.close()

    def quiet_us(name):
        # The first quartile, for the reason run.steady() gives.
        durations = log.durations_us(name)
        return statistics.quantiles(durations, n=4)[0] if durations else 0.0

    values = {f"{name}_us": quiet_us(name)
              for name in CLIENT_STAGES + SERVER_PARTS
              + ("net.tcp.echo_rtt", "aio.echo_rtt", "rmi.handle",
                 "apps.body", "core.dag_analyze")}
    on_path = ("wire.decode_request", "rmi.dedup",
               "plan.invoke" if on_plan_path else "core.execute",
               "wire.encode_response")
    # The dispatcher's self time: the real handle() call minus its parts.
    values["rmi.dispatch_self_us"] = values["rmi.handle_us"] - sum(
        quiet_us(name) for name in on_path)
    values["net.tcp.connect_us"] = values["aio.connect_us"] = 0.0
    values[f"{net}.connect_us"] = statistics.quantiles(connect_us, n=4)[0]
    values["plan.invoke_self_us"] = (
        values["plan.invoke_us"] - values["core.execute_us"]
        if on_plan_path else 0.0)
    values["core.execute_overhead_us"] = (
        values["core.execute_us"] - values["apps.body_us"])
    values["wire.request_bytes"] = len(request_bytes)
    values["wire.response_bytes"] = len(response_bytes)
    values["trace.stage_sum_us"] = (
        sum(quiet_us(name) for name in CLIENT_STAGES + (echo_stage,) + on_path)
        + values["rmi.dispatch_self_us"])
    return values, failures
