"""Plan hits at parameter cost, and the oracle that keeps them honest.

A confirmed flush is keyed by :func:`~repro.plan.model.shape_key` and
goes out as ``__invoke_plan__(digest, params)`` without compiling or
hashing a plan; the server's hit binds through the plan's template
without ``_fill``.  A key coarser than the plan would be a silent wrong
answer, so the pinned fuzz corpus re-derives every key's digest by
compiling and hashing its plan.
"""

import sys
import threading

import pytest

from repro.apps import CreditManagerImpl, bank_policy
from repro.core import create_batch
from repro.core.policies import AbortPolicy
from repro.core.recording import ArgRef, InvocationData
from repro.fuzz import FuzzConfig, run_corpus
from repro.plan import client as plan_client
from repro.plan import model as plan_model
from repro.plan import runtime as plan_runtime
from repro.plan.client import INVOKE, PlanMemo
from repro.plan.runtime import plan_runtime_of
from repro.rmi import RemoteInterface, RemoteObject, RMIClient, RMIServer
from repro.wire import decode, encode

AMOUNTS = (12.5, 40.0, 7.25)


class Mirror(RemoteInterface):
    def reflect(self, value: dict) -> dict: ...


class MirrorImpl(RemoteObject, Mirror):
    def reflect(self, value: dict) -> dict:
        return value


@pytest.fixture
def counted(monkeypatch):
    """Count calls of the compile-and-hash functions at every site that
    calls them: the client's compile and hash, the server's install
    hash, and the binder's ``_fill``."""
    calls = {"compile_plan": 0, "plan_hash": 0, "_fill": 0}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(plan_client, "compile_plan")
    count(plan_client, "plan_hash")
    count(plan_runtime, "plan_hash")
    count(plan_model, "_fill")
    return calls


@pytest.fixture
def bank(network):
    server = RMIServer(network, "sim://hits:1", plan_capacity=1).start()
    manager = CreditManagerImpl(default_limit=5000.0)
    manager.create_credit_account("alice")
    server.bind("bank", manager)
    server.bind("mirror", MirrorImpl())
    client = RMIClient(network, "sim://hits:1")
    yield server, client
    client.close()
    server.close()


def flush_purchases(client, customer="alice", amounts=AMOUNTS):
    """The e2e bank shape, scaled down: lookup, purchases, read, pay.
    Returns the credit line after the purchases and the balance after
    the payment, so every bound amount shows in the answer."""
    root = create_batch(client.lookup("bank"), policy=bank_policy(),
                        reuse_plans=True)
    account = root.find_credit_account(customer)
    for amount in amounts:
        account.make_purchase(amount)
    line = account.get_credit_line()
    balance = account.pay_balance(5000.0)
    root.flush()
    return line.get(), balance.get()


def expected(amounts=AMOUNTS):
    return 5000.0 - sum(amounts), 0.0


def reset(calls):
    for name in calls:
        calls[name] = 0


class TestZeroCompileGuard:
    def test_a_confirmed_flush_neither_compiles_nor_hashes(self, bank,
                                                           counted):
        server, client = bank
        for _ in range(3):  # inline, install, first hit: confirmed
            assert flush_purchases(client) == expected()
        reset(counted)
        hits = plan_runtime_of(server).cache.stats.snapshot().hits
        for amounts in ((1.0, 2.0, 3.0), (9.5, 0.5, 4.0)):
            assert flush_purchases(client, amounts=amounts) == expected(
                amounts)
        assert counted == {"compile_plan": 0, "plan_hash": 0, "_fill": 0}
        assert plan_runtime_of(server).cache.stats.snapshot().hits == hits + 2

    def test_an_eviction_compiles_once_and_reinstalls(self, bank, counted):
        server, client = bank  # plan_capacity=1
        for _ in range(3):
            flush_purchases(client)
        mirror = client.lookup("mirror")
        for _ in range(2):  # a second shape's install evicts the first
            batch = create_batch(mirror, reuse_plans=True)
            batch.reflect({"k": 1})
            batch.flush()
        assert plan_runtime_of(server).cache.stats.snapshot().evictions == 1
        installs = client.plan_memo.plan_installs
        before = plan_runtime_of(server).cache.stats.snapshot()
        reset(counted)
        assert flush_purchases(client) == expected()
        after = plan_runtime_of(server).cache.stats.snapshot()
        # PlanNotFoundError -> install: one compile, one hash per end.
        assert counted["compile_plan"] == 1
        assert counted["plan_hash"] == 2
        assert (after.misses - before.misses,
                after.installs - before.installs) == (1, 1)
        assert client.plan_memo.plan_installs == installs + 1
        reset(counted)
        flush_purchases(client)
        assert counted == {"compile_plan": 0, "plan_hash": 0, "_fill": 0}

    def test_a_cleared_cache_is_a_restart_and_recovers_the_same_way(
            self, bank, counted):
        server, client = bank
        for _ in range(3):
            flush_purchases(client)
        plan_runtime_of(server).cache.clear()
        reset(counted)
        assert flush_purchases(client) == expected()
        assert counted["compile_plan"] == 1
        reset(counted)
        flush_purchases(client)
        assert counted["compile_plan"] == 0

    def test_a_float_keyed_recording_compiles_once_at_install(
            self, bank, counted):
        """A float dict key goes into the shape key as its encoding: the
        shape walks inline -> install -> invoke like any other, and only
        the install compiles."""
        _server, client = bank
        mirror = client.lookup("mirror")
        for word in ("half", "one", "two"):
            batch = create_batch(mirror, reuse_plans=True)
            reflected = batch.reflect({0.5: word})
            batch.flush()
            assert reflected.get() == {0.5: word}
        memo = client.plan_memo
        assert (memo.inline_flushes, memo.plan_installs,
                memo.plan_invocations) == (1, 1, 1)
        assert counted["compile_plan"] == 1


def test_the_pinned_corpus_rederives_every_fast_path_digest(monkeypatch):
    """Every planning flush of the pinned corpus also compiles and hashes
    its plan: the gathered params must be compile_plan's, one key must
    never name two digests anywhere in the corpus, and every plan
    invocation must carry the digest its recording compiles to."""
    digests = {}   # shape key -> compiled digest, across every client
    checked = {"flushes": 0, "invocations": 0}
    shape_key, route = plan_client.shape_key, PlanMemo.route

    def rederiving_shape_key(invocations, policy):
        key, params = shape_key(invocations, policy)
        plan, compiled_params = plan_model.compile_plan(invocations, policy)
        assert params == compiled_params
        digest = plan_model.plan_hash(plan)
        assert digests.setdefault(key, digest) == digest
        checked["flushes"] += 1
        return key, params

    def checked_route(memo, key):
        state, path = route(memo, key)
        if path == INVOKE and key in digests:
            assert state.digest == digests[key]
            checked["invocations"] += 1
        return state, path

    monkeypatch.setattr(plan_client, "shape_key", rederiving_shape_key)
    monkeypatch.setattr(PlanMemo, "route", checked_route)
    report = run_corpus(FuzzConfig(seed=0, programs=25, modes=("plan",)))
    assert report.ok, "\n".join(d.describe() for d in report.divergences)
    coverage = report.coverage
    # Every planning flush of the corpus was re-derived, and every plan
    # invocation was checked: 396 flushes, 132 invocations.
    assert checked["flushes"] == (coverage["plan_inline"]
                                  + coverage["plan_installs"]
                                  + coverage["plan_invocations"]) > 0
    assert checked["invocations"] == coverage["plan_invocations"] > 0


def test_racing_first_binds_of_one_cached_plan_agree_with_fill():
    """The bind template is built by whichever bind comes first.  Racing
    first binds of one freshly decoded plan — every shape the template
    flattens, shares or hands to ``_fill`` — must each bind exactly what
    ``_fill`` binds."""
    recording = (
        InvocationData(seq=1, target=ArgRef(0), method="m",
                       args=("a", ArgRef(0), [], 2), kwargs={"k": 3}),
        InvocationData(seq=2, target=ArgRef(1), method="n",
                       args=([1, ArgRef(1)], {4}), kwargs={}),
        InvocationData(seq=3, target=ArgRef(1), method="o",
                       args=((ArgRef(1),),), kwargs={"r": ArgRef(2)}),
    )
    plan, params = plan_model.compile_plan(recording, AbortPolicy())
    wire = encode(plan)

    def fill_bind(plan, params):
        return tuple(
            InvocationData(seq=op.seq, target=op.target, method=op.method,
                           args=plan_model._fill(op.args, params),
                           kwargs=plan_model._fill(op.kwargs, params),
                           returns_kind=op.returns_kind,
                           cursor_seq=op.cursor_seq)
            for op in plan.ops)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            fresh = decode(wire)
            wrong = []

            def bind(offset):
                values = tuple(f"{offset}:{n}" for n in range(len(params)))
                if fresh.bind(values) != fill_bind(fresh, values):
                    wrong.append(offset)

            threads = [threading.Thread(target=bind, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert wrong == []
    finally:
        sys.setswitchinterval(switch)
