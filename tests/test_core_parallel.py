"""The DAG scheduler: batch shape analysis, the two widths of the
replay engine, and the width-1 fallback taxonomy.

The acceptance contract under test: a scheduler-eligible batch executed
on the worker pool must produce a response *byte-identical* to width-1
replay (same values, same failure matrices, same dict insertion order,
same exported reference ids), and every ineligible batch must run at
width 1 with its reason visible in the scheduler counters and as a
``server.parallel`` trace marker.
"""

import contextlib
import gc
import sys
import threading
from concurrent.futures import Future
from typing import List

import pytest

from repro.core.dag import (
    REASON_DISABLED,
    REASON_POLICY,
    REASON_SESSION,
    REASON_SHAPE,
    REASON_SINGLE_CHAIN,
    REASON_UNSAFE,
    analyze_batch,
    split_units,
)
from repro.core import executor as executor_module
from repro.core.executor import (
    BatchExecutor,
    _Deferred,
    _Outcome,
    executor_of,
)
from repro.core.errors import UnsupportedBatchOperationError
from repro.core.policies import (
    AbortPolicy,
    ContinuePolicy,
    CustomPolicy,
    ExceptionAction,
    is_continue_kind,
)
from repro.core.recording import NONE_ID, ArgRef, InvocationData
from repro.net.conditions import CHARGE_BATCH_OP
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.plan.runtime import plan_runtime_of
from repro.rmi import RemoteInterface, RemoteObject, RMIServer, remote_method
from repro.rmi.stub import Stub
from repro.wire import encode
from repro.wire.registry import register_exception


@register_exception
class WeightError(Exception):
    """A widget that refuses to be weighed."""


@register_exception
class TwinError(Exception):
    """A widget with no twin."""


class Widget(RemoteInterface):
    @remote_method(parallel_safe=True)
    def widget_tag(self) -> str: ...

    @remote_method(parallel_safe=True)
    def widget_weight(self) -> int: ...

    @remote_method(parallel_safe=True)
    def widget_twin(self) -> "Widget": ...

    @remote_method(parallel_safe=True)
    def widget_pair(self, other) -> str: ...

    @remote_method(parallel_safe=True)
    def widget_spare(self) -> "Widget": ...


class Rack(RemoteInterface):
    @remote_method(parallel_safe=True)
    def rack_widgets(self) -> List["Widget"]: ...

    @remote_method(parallel_safe=True)
    def rack_pick(self, tag: str) -> "Widget": ...


class Ledger(RemoteInterface):
    """Order-sensitive on purpose: no ``parallel_safe`` declarations."""

    def ledger_entries(self) -> list: ...

    def ledger_add(self, entry) -> int: ...

    def ledger_books(self) -> List["Ledger"]: ...


class WidgetImpl(RemoteObject, Widget):
    def __init__(self, tag, weight, flagged=False):
        self.tag = tag
        self.weight = weight
        self.flagged = flagged

    def widget_tag(self):
        return self.tag

    def widget_weight(self):
        if self.flagged:
            raise WeightError(self.tag)
        return self.weight

    def widget_twin(self):
        if self.flagged:
            raise TwinError(self.tag)
        return self

    def widget_pair(self, other):
        return f"{self.tag}+{other.widget_tag()}"

    def widget_spare(self):
        # Declared remote-kind, yet flagged widgets hand back a value.
        return None if self.flagged else self


class RackImpl(RemoteObject, Rack):
    def __init__(self, widgets):
        self._widgets = {w.tag: w for w in widgets}

    def rack_widgets(self):
        return [self._widgets[tag] for tag in sorted(self._widgets)]

    def rack_pick(self, tag):
        return self._widgets[tag]


class LedgerImpl(RemoteObject, Ledger):
    def __init__(self, entries=None):
        self._entries = [] if entries is None else entries

    def ledger_entries(self):
        return self._entries  # the live list, not a copy

    def ledger_add(self, entry):
        self._entries.append(entry)
        return len(self._entries)

    def ledger_books(self):
        # Two books over the same live list.
        return [LedgerImpl(self._entries), LedgerImpl(self._entries)]


class Probe(RemoteInterface):
    """What the fan-out guards drive: ops that park, meet, fail and
    report the arguments they were handed."""

    @remote_method(parallel_safe=True)
    def probe_describe(self, *parts, **named) -> str: ...

    @remote_method(parallel_safe=True)
    def probe_grab(self, **named) -> int: ...

    @remote_method(parallel_safe=True)
    def probe_widget(self) -> "Widget": ...

    @remote_method(parallel_safe=True)
    def probe_meet(self) -> int: ...

    @remote_method(parallel_safe=True)
    def probe_fail(self) -> int: ...

    @remote_method(parallel_safe=True)
    def probe_park(self) -> int: ...

    @remote_method(parallel_safe=True)
    def probe_mark(self) -> int: ...


class Abort(BaseException):
    """Not an ``Exception``: no policy sees it, it leaves the batch."""


class ProbeImpl(RemoteObject, Probe):
    def __init__(self, parties=1):
        self.widget = WidgetImpl("pw", 7)
        self.barrier = threading.Barrier(parties)
        self.parked = threading.Event()
        self.release = threading.Event()
        self.park_finished = False
        self.marks = 0
        self.grabbed = []

    def probe_describe(self, *parts, **named):
        return f"{render_live(parts)} {render_live(named)}"

    def probe_grab(self, **named):
        self.grabbed.append(dict(named))
        named["seen"] = True
        return len(self.grabbed)

    def probe_widget(self):
        return self.widget

    def probe_meet(self):
        # Returns only once every party is inside the call at once.
        return self.barrier.wait(timeout=10)

    def probe_fail(self):
        assert self.parked.wait(10), "the parked op never started"
        # Let the parked op go a moment after this one has failed.
        threading.Timer(0.1, self.release.set).start()
        raise Abort("key 0")

    def probe_park(self):
        self.parked.set()
        assert self.release.wait(10), "the parked op was never released"
        self.park_finished = True
        return 1

    def probe_mark(self):
        self.marks += 1
        return self.marks


class Hand(RemoteInterface):
    @remote_method(parallel_safe=True)
    def hand_wait(self) -> int: ...

    @remote_method(parallel_safe=True)
    def hand_badge(self): ...


class Relay(RemoteInterface):
    @remote_method(parallel_safe=True)
    def relay_hands(self) -> List["Hand"]: ...


class HandImpl(RemoteObject, Hand):
    def __init__(self, relay, index):
        self.relay = relay
        self.index = index

    def hand_wait(self):
        relay = self.relay
        if threading.current_thread() is not relay.caller:
            relay.helped.set()
        elif self.index == relay.wait_at:
            # Blocks the caller (releasing the GIL) until a helper runs.
            relay.timed_out = not relay.helped.wait(10)
        return self.index

    def hand_badge(self):
        # A value op whose result is a fresh remote object: marshalling
        # exports it under the next id.
        return WidgetImpl(f"badge{self.index}", self.index)


class RelayImpl(RemoteObject, Relay):
    HANDS = 12

    def __init__(self, wait_at=None, hands=HANDS):
        self.caller = threading.current_thread()
        self.wait_at = wait_at
        self.hands = hands
        self.helped = threading.Event()
        self.timed_out = False

    def relay_hands(self):
        return [HandImpl(self, index) for index in range(self.hands)]


def count_fragments(monkeypatch):
    """Patch ``_Outcome.fragment`` to log each fragment it builds."""
    fragments = []
    make_fragment = _Outcome.fragment
    monkeypatch.setattr(
        _Outcome, "fragment",
        lambda self: fragments.append(1) or make_fragment(self),
    )
    return fragments


def count_deferred(monkeypatch):
    """Patch ``_Deferred`` to log each value result left for the merge."""
    deferred = []
    init = _Deferred.__init__
    monkeypatch.setattr(
        _Deferred, "__init__",
        lambda self, value: deferred.append(1) or init(self, value),
    )
    return deferred


def render_live(value):
    """*value* with live widgets and stubs named, containers kept."""
    if isinstance(value, WidgetImpl):
        return f"<live {value.tag}>"
    if isinstance(value, Stub):
        return f"<stub {value.widget_tag()}>"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(render_live(v) for v in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{k}: {render_live(v)}" for k, v in value.items()) + "}"
    return repr(value)


def make_rack():
    return RackImpl([
        WidgetImpl("w0", 10),
        WidgetImpl("w1", 20, flagged=True),
        WidgetImpl("w2", 30),
        WidgetImpl("w3", 40, flagged=True),
    ])


def inv(seq, method, target=0, args=(), kwargs=None, kind="value",
        cursor_seq=-1):
    return InvocationData(
        seq=seq,
        target=ArgRef(target),
        method=method,
        args=args,
        kwargs=kwargs or {},
        returns_kind=kind,
        cursor_seq=cursor_seq,
    )


#: A mixed workload: two ArgRef chains, a cursor with per-element
#: failures, and a value-kind op whose result marshals to a fresh
#: remote reference (so export-id assignment order is under test too).
def mixed_batch():
    return (
        inv(1, "rack_pick", args=("w0",), kind="remote"),
        inv(2, "widget_weight", target=1),
        inv(3, "rack_pick", args=("w2",), kind="remote"),
        inv(4, "widget_tag", target=3),
        inv(5, "rack_widgets", kind="cursor"),
        inv(6, "widget_tag", target=5, cursor_seq=5),
        inv(7, "widget_weight", target=5, cursor_seq=5),
        inv(8, "rack_pick", args=("w1",), kind="value"),
    )


#: A cursor over a relay's hands: one op that can wait for a helper,
#: one value op whose result exports a fresh remote object.
RELAY_BATCH = (
    inv(1, "relay_hands", kind="cursor"),
    inv(2, "hand_wait", target=1, cursor_seq=1),
    inv(3, "hand_badge", target=1, cursor_seq=1),
)


def run_wide(network, root, batch, workers, charge_sink=None):
    """*batch* on a fresh width-*workers* universe at the address
    ``run_modes`` uses; returns the response and the scheduler
    counters."""
    server = RMIServer(network, "sim://ident:1").start()
    if charge_sink is not None:
        server.set_charge_sink(charge_sink)
    executor = BatchExecutor(server, exec_workers=workers)
    try:
        response = executor.invoke_batch(root, batch, ContinuePolicy())
        return response, executor.scheduler.snapshot()
    finally:
        executor.close()
        server.close()


@pytest.fixture
def serial_executor(network):
    server = RMIServer(network, "sim://serial-exec:1").start()
    executor = BatchExecutor(server, exec_workers=0)
    yield executor
    server.close()


@pytest.fixture
def parallel_executor(network):
    server = RMIServer(network, "sim://parallel-exec:1").start()
    executor = BatchExecutor(server, exec_workers=4)
    yield executor
    executor.close()
    server.close()


@contextlib.contextmanager
def executor_of_width(network, workers):
    """A started server and an executor with a private pool of
    *workers* threads, both closed on the way out."""
    server = RMIServer(network, "sim://width-exec:1").start()
    executor = BatchExecutor(server, exec_workers=workers)
    try:
        yield executor
    finally:
        executor.close()
        server.close()


class TestAnalysis:
    def test_independent_ops_form_chains(self):
        batch = (inv(1, "widget_weight"), inv(2, "widget_tag"))
        dag = analyze_batch(batch, ContinuePolicy())
        assert dag.eligible
        assert len(dag.chains) == 2
        assert dag.cursor_units == frozenset()

    def test_argrefs_link_ops_into_one_chain(self):
        batch = (
            inv(1, "rack_pick", args=("w0",), kind="remote"),
            inv(2, "widget_weight", target=1),
        )
        dag = analyze_batch(batch, ContinuePolicy())
        assert not dag.eligible
        assert dag.reason == REASON_SINGLE_CHAIN

    def test_cursor_alone_is_eligible(self):
        batch = (
            inv(1, "rack_widgets", kind="cursor"),
            inv(2, "widget_weight", target=1, cursor_seq=1),
        )
        dag = analyze_batch(batch, ContinuePolicy())
        assert dag.eligible
        assert len(dag.cursor_units) == 1

    def test_abort_policy_rejected(self):
        batch = (inv(1, "widget_weight"), inv(2, "widget_tag"))
        dag = analyze_batch(batch, AbortPolicy())
        assert not dag.eligible
        assert dag.reason == REASON_POLICY

    def test_unsafe_method_rejected(self):
        # Counter.increment carries no parallel_safe declaration.
        batch = (inv(1, "increment", args=(1,)), inv(2, "widget_tag"))
        dag = analyze_batch(batch, ContinuePolicy())
        assert not dag.eligible
        assert dag.reason == REASON_UNSAFE

    def test_external_ref_rejected(self):
        batch = (inv(2, "widget_weight", target=1), inv(3, "widget_tag"))
        dag = analyze_batch(batch, ContinuePolicy())
        assert not dag.eligible
        assert dag.reason == REASON_SESSION

    def test_custom_policy_continue_kind(self):
        policy = CustomPolicy()
        policy.set_default_action(ExceptionAction.CONTINUE)
        assert is_continue_kind(policy)
        batch = (inv(1, "widget_weight"), inv(2, "widget_tag"))
        assert analyze_batch(batch, policy).eligible

    def test_custom_policy_with_break_rule_rejected(self):
        policy = CustomPolicy()
        policy.set_default_action(ExceptionAction.CONTINUE)
        policy.set_action(WeightError, ExceptionAction.BREAK)
        assert not is_continue_kind(policy)
        dag = analyze_batch(
            (inv(1, "widget_weight"), inv(2, "widget_tag")), policy
        )
        assert dag.reason == REASON_POLICY


#: (shape, batch, expected ``split_units`` ranges, has an orphan).
UNIT_SHAPES = [
    ("orphan sub-op",
     (inv(1, "widget_tag"), inv(2, "widget_tag", target=9, cursor_seq=9)),
     ((0, 1), (1, 2)), True),
    ("orphan that itself returns a cursor heads no group",
     (inv(1, "rack_widgets", kind="cursor", cursor_seq=9),
      inv(2, "widget_tag", target=1, cursor_seq=1)),
     ((0, 1), (1, 2)), True),
    ("cursor-kind sub-op stays in its group; its own sub-op is an orphan",
     (inv(1, "rack_widgets", kind="cursor"),
      inv(2, "rack_widgets", kind="cursor", cursor_seq=1),
      inv(3, "widget_tag", target=2, cursor_seq=2)),
     ((0, 2), (2, 3)), True),
    ("empty sub-batch",
     (inv(1, "rack_widgets", kind="cursor"), inv(2, "widget_tag")),
     ((0, 1), (1, 2)), False),
    ("trailing cursor",
     (inv(1, "widget_tag"),
      inv(2, "rack_widgets", kind="cursor"),
      inv(3, "widget_tag", target=2, cursor_seq=2),
      inv(4, "widget_weight", target=2, cursor_seq=2)),
     ((0, 1), (1, 4)), False),
    ("trailing cursor without sub-ops",
     (inv(1, "widget_tag"), inv(2, "rack_widgets", kind="cursor")),
     ((0, 1), (1, 2)), False),
]


class TestSplitUnits:
    @pytest.mark.parametrize(
        "batch,units,orphan",
        [shape[1:] for shape in UNIT_SHAPES],
        ids=[shape[0] for shape in UNIT_SHAPES],
    )
    def test_unit_table(self, batch, units, orphan):
        assert split_units(batch) == units
        # Every analysis carries the same split, eligible or not.
        assert analyze_batch(batch, AbortPolicy()).units == units
        dag = analyze_batch(batch, ContinuePolicy())
        assert dag.units == units
        assert dag.eligible is not orphan
        if orphan:
            assert dag.reason == REASON_SHAPE

    def test_empty_batch(self):
        assert split_units(()) == ()


class TestByteIdentity:
    def run_modes(self, network, batch, make_root=make_rack, policy=None,
                  widths=(0, 4), **kwargs):
        """The same batch on fresh width-1 and width-4 universes."""
        responses = []
        for workers in widths:
            # Same address both times (sequentially), so exported
            # remote references can be compared byte-for-byte.
            server = RMIServer(network, "sim://ident:1").start()
            executor = BatchExecutor(server, exec_workers=workers)
            try:
                responses.append(
                    executor.invoke_batch(
                        make_root(), batch, policy or ContinuePolicy(),
                        **kwargs
                    )
                )
            finally:
                executor.close()
                server.close()
        return responses

    def assert_identical(self, one, four):
        assert encode(strip_exceptions(one)) == encode(strip_exceptions(four))
        assert render_exceptions(one) == render_exceptions(four)
        assert (one.restarts, one.break_seq) == (four.restarts, four.break_seq)

    def test_break_inside_cursor_element(self, network):
        """BREAK at element 1's second sub-op: the rest of that element,
        later elements and later units never run."""
        batch = (
            inv(1, "rack_pick", args=("w2",), kind="remote"),
            inv(2, "rack_widgets", kind="cursor"),
            inv(3, "widget_tag", target=2, cursor_seq=2),
            inv(4, "widget_weight", target=2, cursor_seq=2),
            inv(5, "widget_tag", target=2, cursor_seq=2),
            inv(6, "rack_pick", args=("w0",), kind="remote"),
            inv(7, "widget_tag", target=6),
        )
        one, four = self.run_modes(network, batch, policy=AbortPolicy())
        self.assert_identical(one, four)
        for response in (one, four):
            assert response.cursor_lengths == {2: 4}
            assert response.cursor_results == {
                3: ["w0", "w1"], 4: [10, None], 5: ["w0"],
            }
            assert response.break_seq == 4
            assert response.restarts == 0
            # Later units, in seq order (the broken cursor's own sub-ops
            # did run, so they are not listed).
            assert response.not_executed == (6, 7)
            assert list(response.cursor_exceptions) == [4]
            assert isinstance(response.cursor_exceptions[4][1], WeightError)
            # The break cause is mirrored into the top-level exceptions.
            assert response.exceptions == {4: response.cursor_exceptions[4][1]}

    def test_marshal_at_call_time_top_level(self, network):
        """Op 1 returns a live list that op 2 appends to: the response
        carries op 1's pre-mutation snapshot (marshal copies at call
        time — a width-1 rule, see the executor module docstring)."""
        batch = (
            inv(1, "ledger_entries"),
            inv(2, "ledger_add", args=("x",)),
            inv(3, "ledger_entries"),
        )
        one, four = self.run_modes(network, batch, make_root=LedgerImpl)
        self.assert_identical(one, four)
        assert one.results == {1: [], 2: 1, 3: ["x"]}

    def test_marshal_at_call_time_across_elements(self, network):
        """Same rule across two cursor elements sharing one live list."""
        batch = (
            inv(1, "ledger_books", kind="cursor"),
            inv(2, "ledger_entries", target=1, cursor_seq=1),
            inv(3, "ledger_add", target=1, args=("x",), cursor_seq=1),
        )
        one, four = self.run_modes(network, batch, make_root=LedgerImpl)
        self.assert_identical(one, four)
        assert one.cursor_results == {2: [[], ["x"]], 3: [1, 2]}

    def test_remote_kind_sub_op_result_is_type_checked(self, network):
        """A remote-kind sub-op returning a non-remote value fails *that*
        op for *that* element (the regression: it was stored unchecked
        and the next op failed with NoSuchMethodError on NoneType)."""
        batch = (
            inv(1, "rack_widgets", kind="cursor"),
            inv(2, "widget_spare", target=1, kind="remote", cursor_seq=1),
            inv(3, "widget_tag", target=2, cursor_seq=1),
        )
        one, four = self.run_modes(network, batch)
        self.assert_identical(one, four)
        for response in (one, four):
            assert response.cursor_results == {3: ["w0", None, "w2", None]}
            assert list(response.cursor_exceptions) == [2, 3]
            for index in (1, 3):  # the flagged widgets
                cause = response.cursor_exceptions[2][index]
                assert isinstance(cause, UnsupportedBatchOperationError)
                assert "'widget_spare'" in str(cause)
                assert "NoneType" in str(cause)
                # The dependent op is blamed on its actual dependency.
                assert response.cursor_exceptions[3][index] is cause

    def test_remote_kind_top_level_result_is_type_checked(self, network):
        batch = (
            inv(1, "rack_pick", args=("w1",), kind="remote"),
            inv(2, "widget_spare", target=1, kind="remote"),
            inv(3, "widget_tag", target=2),
            inv(4, "widget_tag", target=1),
        )
        one, four = self.run_modes(network, batch)
        self.assert_identical(one, four)
        assert isinstance(one.exceptions[2], UnsupportedBatchOperationError)
        assert "'widget_spare'" in str(one.exceptions[2])
        assert one.results == {4: "w1"}

    def test_mixed_batch_encodes_identically(self, network):
        serial, parallel = self.run_modes(network, mixed_batch())
        # Dict equality first (better failure messages) ...
        assert serial.results == parallel.results
        assert serial.cursor_results == parallel.cursor_results
        assert serial.cursor_lengths == parallel.cursor_lengths
        assert list(serial.cursor_exceptions) == list(parallel.cursor_exceptions)
        # ... then the real bar: the encoded wire bytes, which pins
        # insertion order, exported reference ids, and failure shapes.
        assert encode(strip_exceptions(serial)) == \
            encode(strip_exceptions(parallel))
        assert render_exceptions(serial) == render_exceptions(parallel)
        # Sanity: the workload did exercise failures and exports.
        assert set(serial.cursor_exceptions[7]) == {1, 3}
        assert 8 in serial.results

    def test_insertion_order_matches_serial(self, network):
        serial, parallel = self.run_modes(network, mixed_batch())
        assert list(serial.results) == list(parallel.results)
        assert list(serial.cursor_results) == list(parallel.cursor_results)
        for seq in serial.cursor_exceptions:
            assert list(serial.cursor_exceptions[seq]) == \
                list(parallel.cursor_exceptions[seq])

    def test_parallel_keep_session_round_trip(self, network):
        server = RMIServer(network, "sim://session-par:1").start()
        executor = BatchExecutor(server, exec_workers=4)
        try:
            first = executor.invoke_batch(
                make_rack(),
                (inv(1, "rack_pick", args=("w0",), kind="remote"),
                 inv(2, "rack_pick", args=("w2",), kind="remote")),
                ContinuePolicy(), keep_session=True,
            )
            assert first.session_id != NONE_ID
            assert executor.scheduler.snapshot()["parallel_batches"] == 1
            second = executor.invoke_batch(
                make_rack(),
                (inv(3, "widget_tag", target=1),
                 inv(4, "widget_tag", target=2)),
                ContinuePolicy(), session_id=first.session_id,
            )
            assert second.results == {3: "w0", 4: "w2"}
            # The chained segment fell back serial, with the reason.
            snap = executor.scheduler.snapshot()
            assert snap["fallback.session"] == 1
        finally:
            executor.close()
            server.close()


def strip_exceptions(response):
    """The response minus its exception payloads (compared separately:
    exception *instances* are identity-compared by ``==``)."""
    return (
        response.results,
        response.cursor_results,
        response.cursor_lengths,
        list(response.not_executed),
        response.break_seq,
        {seq: sorted(per) for seq, per in response.cursor_exceptions.items()},
    )


def render_exceptions(response):
    out = {seq: repr(exc) for seq, exc in response.exceptions.items()}
    for seq, per_element in response.cursor_exceptions.items():
        for index, exc in per_element.items():
            out[(seq, index)] = repr(exc)
    return out


class TestFallbackTaxonomy:
    def test_policy_reason(self, parallel_executor):
        response = parallel_executor.invoke_batch(
            make_rack(),
            (inv(1, "rack_pick", args=("w0",), kind="value"),
             inv(2, "rack_pick", args=("w2",), kind="value")),
            AbortPolicy(),
        )
        assert response.exceptions == {}
        assert set(response.results) == {1, 2}
        snap = parallel_executor.scheduler.snapshot()
        assert snap["serial_batches"] == 1
        assert snap["fallback.policy"] == 1

    def test_unsafe_method_reason(self, parallel_executor):
        from tests.support import CounterImpl

        response = parallel_executor.invoke_batch(
            CounterImpl(),
            (inv(1, "increment", args=(2,)), inv(2, "current")),
            ContinuePolicy(),
        )
        assert response.results == {1: 2, 2: 2}
        assert parallel_executor.scheduler.snapshot()[
            "fallback.unsafe_method"] == 1

    def test_single_chain_reason(self, parallel_executor):
        parallel_executor.invoke_batch(
            make_rack(), (inv(1, "rack_pick", args=("w0",), kind="value"),),
            ContinuePolicy(),
        )
        assert parallel_executor.scheduler.snapshot()[
            "fallback.single_chain"] == 1

    def test_disabled_reason(self, serial_executor):
        serial_executor.invoke_batch(
            make_rack(),
            (inv(1, "rack_pick", args=("w0",), kind="value"),
             inv(2, "rack_pick", args=("w2",), kind="value")),
            ContinuePolicy(),
        )
        snap = serial_executor.scheduler.snapshot()
        assert snap["fallback.disabled"] == 1
        assert snap["parallel_batches"] == 0

    def test_parallel_batches_counted(self, parallel_executor):
        parallel_executor.invoke_batch(
            make_rack(),
            (inv(1, "rack_pick", args=("w0",), kind="value"),
             inv(2, "rack_pick", args=("w2",), kind="value")),
            ContinuePolicy(),
        )
        snap = parallel_executor.scheduler.snapshot()
        assert snap["parallel_batches"] == 1
        assert snap["chains"] == 2

    def test_cursor_elements_counted(self, parallel_executor):
        parallel_executor.invoke_batch(
            make_rack(),
            (inv(1, "rack_widgets", kind="cursor"),
             inv(2, "widget_tag", target=1, cursor_seq=1)),
            ContinuePolicy(),
        )
        assert parallel_executor.scheduler.snapshot()["elements"] == 4


class NeverRunsPool:
    """A pool whose tasks stay queued for ever: ``submit`` hands back a
    pending future (so ``cancel`` succeeds) and runs nothing."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append((fn, args))
        return Future()


class TestLazyFanOut:
    """The fan-out recruits helpers one at a time and only a helper that
    runs recruits the next; nobody waits on queued work.  None of these
    reads a clock: a hang (bounded by the waits' timeouts) or a count is
    the failure."""

    def test_idle_pool_costs_one_submit_and_few_fragments(
            self, network, parallel_executor, monkeypatch):
        widgets = [WidgetImpl(f"w{i:02d}", i, flagged=i % 5 == 0)
                   for i in range(32)]
        batch = (
            inv(1, "rack_widgets", kind="cursor"),
            inv(2, "widget_tag", target=1, cursor_seq=1),
            inv(3, "widget_weight", target=1, cursor_seq=1),
        )
        fragments = count_fragments(monkeypatch)
        deferred = count_deferred(monkeypatch)
        pool = NeverRunsPool()
        monkeypatch.setattr(parallel_executor, "_pool", lambda: pool)
        wide = parallel_executor.invoke_batch(
            RackImpl(widgets), batch, ContinuePolicy())
        snap = parallel_executor.scheduler.snapshot()
        # One fan-out had keys to share (the cursor's 32 elements; the
        # single chain has nothing to share) and recruited once.
        assert len(pool.submitted) == 1
        assert (snap["parallel_batches"], snap["elements"]) == (1, 32)
        assert snap["helpers"] == 0
        # Nobody took an element from the caller, so every element went
        # straight into the batch outcome, marshalled at call time.
        assert (len(fragments), len(deferred)) == (0, 0)
        (narrow,) = TestByteIdentity().run_modes(
            network, batch, make_root=lambda: RackImpl(widgets), widths=(0,))
        TestByteIdentity().assert_identical(narrow, wide)
        assert sorted(wide.cursor_exceptions[3]) == [0, 5, 10, 15, 20, 25, 30]

    def test_helper_joins_mid_cursor(self, network, monkeypatch):
        """Element 1 blocks until a helper has claimed an element: the
        caller holds an in-place prefix, helper fragments follow it, and
        the response — remote ids exported by a value sub-op included —
        is byte-identical to width 1."""
        (narrow,) = TestByteIdentity().run_modes(
            network, RELAY_BATCH, make_root=RelayImpl, widths=(0,))
        fragments = count_fragments(monkeypatch)
        relay = RelayImpl(wait_at=1)
        wide, snap = run_wide(network, relay, RELAY_BATCH, 4)
        assert relay.helped.is_set() and not relay.timed_out
        assert snap["helpers"] >= 1
        assert fragments, "no run wrote into a fragment"
        TestByteIdentity().assert_identical(narrow, wide)
        assert wide.exceptions == {} and wide.cursor_exceptions == {}
        assert wide.cursor_results[2] == list(range(RelayImpl.HANDS))
        badges = wide.cursor_results[3]
        assert [ref.object_id for ref in badges] == sorted(
            ref.object_id for ref in badges)

    def test_preempted_fan_out_matches_width_one(self, network):
        """Eight pool threads and a 10 µs switch interval, so runs
        preempt each other mid-element: every flush is still
        byte-identical to width 1 (the in-place prefix and the fragments
        never overlap) and charges exactly one op per call (no settled
        count is lost between runs)."""
        hands = 64
        (narrow,) = TestByteIdentity().run_modes(
            network, RELAY_BATCH, make_root=lambda: RelayImpl(hands=hands),
            widths=(0,))
        helpers = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                charged = []
                wide, snap = run_wide(
                    network, RelayImpl(hands=hands), RELAY_BATCH, 8,
                    lambda kind, count=1: charged.append((kind, count)))
                helpers += snap["helpers"]
                TestByteIdentity().assert_identical(narrow, wide)
                assert sum(count for kind, count in charged
                           if kind == CHARGE_BATCH_OP) == 1 + 2 * hands
        finally:
            sys.setswitchinterval(interval)
        assert helpers > 0, "no helper ever ran: nothing was preempted"

    @pytest.mark.parametrize("parties", [2, 8])
    def test_blocking_keys_recruit_to_full_width(self, network, parties):
        """Every op waits for all the others to be running: recruitment
        is transitive (caller → helper → helper ...) and reaches the
        width of the batch."""
        with executor_of_width(network, parties) as executor:
            response = executor.invoke_batch(
                ProbeImpl(parties),
                tuple(inv(seq, "probe_meet")
                      for seq in range(1, parties + 1)),
                ContinuePolicy(),
            )
            snap = executor.scheduler.snapshot()
        assert response.exceptions == {}  # no BrokenBarrierError
        assert sorted(response.results.values()) == list(range(parties))
        assert snap["helpers"] == parties - 1

    def test_nested_fan_out_on_a_small_pool(self, network):
        """4 chains, each a 4-element cursor, on 2 pool threads: chain
        workers fan their elements out on the pool they run on, so any
        wait on queued work would hang here."""
        batch = tuple(
            op
            for seq in (1, 3, 5, 7)
            for op in (inv(seq, "rack_widgets", kind="cursor"),
                       inv(seq + 1, "widget_weight", target=seq,
                           cursor_seq=seq))
        )
        one, two = TestByteIdentity().run_modes(
            network, batch, widths=(0, 2))
        TestByteIdentity().assert_identical(one, two)
        assert two.cursor_lengths == {1: 4, 3: 4, 5: 4, 7: 4}
        assert two.cursor_results[8] == [10, None, 30, None]

    def test_fan_out_leaves_no_cyclic_garbage(self, parallel_executor):
        """A worker that submitted *itself* as a closure made every
        flush a reference cycle (≈ 200 objects, the fragments among
        them) that only the cycle collector frees — it read as server
        RSS on the e2e ruler."""
        batch = (
            inv(1, "rack_widgets", kind="cursor"),
            inv(2, "widget_tag", target=1, cursor_seq=1),
        )
        rack = make_rack()
        parallel_executor.invoke_batch(rack, batch, ContinuePolicy())
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                parallel_executor.invoke_batch(rack, batch, ContinuePolicy())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_failing_key_leaves_no_straggler(self, network):
        """Key 0 raises out of the batch while key 1 is parked in a pool
        thread: the error propagates only once the parked op is done,
        and no later key starts (the regression: running stragglers kept
        executing ops after ``invoke_batch`` had raised)."""
        root = ProbeImpl()
        batch = (inv(1, "probe_fail"), inv(2, "probe_park"),
                 inv(3, "probe_mark"), inv(4, "probe_mark"))
        # One pool thread: it takes key 1, the helper it recruits for
        # keys 2.. stays queued.
        with executor_of_width(network, 1) as executor:
            try:
                with pytest.raises(Abort):
                    executor.invoke_batch(root, batch, ContinuePolicy())
                assert root.park_finished
            finally:
                root.release.set()
        # Not even once the pool has been drained and shut down.
        assert root.marks == 0


#: A cursor with two value sub-ops per element, as ``cursor_fanout_aio``.
CURSOR_BATCH = (
    inv(1, "rack_widgets", kind="cursor"),
    inv(2, "widget_tag", target=1, cursor_seq=1),
    inv(3, "widget_weight", target=1, cursor_seq=1),
)


def rack_of(count):
    return RackImpl([WidgetImpl(f"w{i:02d}", i) for i in range(count)])


class FakeClocks:
    """The executor's two clocks, stepped: every read advances thread
    CPU time by ``cpu`` and wall time by ``wall``, so a fan-out that
    recruited no helper reads as blocked exactly when 2 × cpu < wall."""

    def __init__(self, monkeypatch, cpu=1.0, wall=1.0):
        self.cpu, self.wall = cpu, wall
        self._cpu_now = self._wall_now = 0.0
        monkeypatch.setattr(executor_module, "thread_time", self._thread)
        monkeypatch.setattr(executor_module, "perf_counter", self._perf)

    def _thread(self):
        self._cpu_now += self.cpu
        return self._cpu_now

    def _perf(self):
        self._wall_now += self.wall
        return self._wall_now


class TestRecruitWhereBlocked:
    """A fan-out recruits a helper on first sight of its shape and after
    a run that blocked; a shape nothing blocks in runs at width 1 cost.
    The clocks are injected, so no row reads the host's timing."""

    def test_non_blocking_shape_submits_nothing_the_second_time(
            self, network, parallel_executor, monkeypatch):
        FakeClocks(monkeypatch)
        pool = NeverRunsPool()
        monkeypatch.setattr(parallel_executor, "_pool", lambda: pool)
        responses = [
            parallel_executor.invoke_batch(
                rack_of(32), CURSOR_BATCH, ContinuePolicy())
            for _ in range(2)
        ]
        assert len(pool.submitted) == 1
        snap = parallel_executor.scheduler.snapshot()
        assert (snap["parallel_batches"], snap["elements"]) == (2, 64)
        assert snap["helpers"] == 0
        (narrow,) = TestByteIdentity().run_modes(
            network, CURSOR_BATCH, make_root=lambda: rack_of(32),
            widths=(0,))
        for wide in responses:
            TestByteIdentity().assert_identical(narrow, wide)

    def test_event_gated_shape_recruits_on_every_flush(
            self, network, monkeypatch):
        """Element 1 waits until a helper has claimed an element: had a
        flush not recruited, the caller would wait out the timeout."""
        FakeClocks(monkeypatch)  # the clocks never read as blocked
        with executor_of_width(network, 4) as executor:
            for flush in range(1, 4):
                relay = RelayImpl(wait_at=1)
                wide = executor.invoke_batch(
                    relay, RELAY_BATCH, ContinuePolicy())
                assert relay.helped.is_set() and not relay.timed_out
                assert executor.scheduler.snapshot()["helpers"] >= flush
                assert wide.cursor_results[2] == list(range(RelayImpl.HANDS))

    def test_a_blocked_run_recruits_again(
            self, parallel_executor, monkeypatch):
        clocks = FakeClocks(monkeypatch)
        pool = NeverRunsPool()
        monkeypatch.setattr(parallel_executor, "_pool", lambda: pool)

        def flush():
            parallel_executor.invoke_batch(
                rack_of(8), CURSOR_BATCH, ContinuePolicy())
            return len(pool.submitted)

        assert flush() == 1  # first sight recruits; learned: no block
        clocks.cpu = 0.0
        assert flush() == 1  # no recruit; this run blocked
        clocks.cpu = 1.0
        assert flush() == 2  # recruits again; learned: no block
        assert flush() == 2


class TestCountedCost:
    """Python calls the executor makes per cursor element, counted with
    ``sys.setprofile`` (call events of this thread) — a count, not a
    time, so it holds on any host.  The slope between a 16- and a
    32-element cursor is what each element costs, the batch's fixed
    cost cancelled out."""

    #: Two sub-ops per element: each one body, ``_run_sub_op``,
    #: ``_call``, ``_store`` and ``marshal``.
    CALLS_PER_ELEMENT = 10

    def count_calls(self, executor, elements):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        root = rack_of(elements)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            executor.invoke_batch(root, CURSOR_BATCH, ContinuePolicy())
        finally:
            sys.setprofile(previous)
        return calls

    def test_calls_per_element(self, parallel_executor, monkeypatch):
        FakeClocks(monkeypatch)
        pool = NeverRunsPool()
        monkeypatch.setattr(parallel_executor, "_pool", lambda: pool)
        # First sight of the shape recruits; count once it is learned.
        parallel_executor.invoke_batch(
            rack_of(2), CURSOR_BATCH, ContinuePolicy())
        small = self.count_calls(parallel_executor, 16)
        large = self.count_calls(parallel_executor, 32)
        assert len(pool.submitted) == 1
        assert (large - small) / 16 <= self.CALLS_PER_ELEMENT, (small, large)


class TestResolveFastPath:
    """Ops without arguments skip the substitution walk; ops with them
    resolve exactly as they did."""

    def test_nested_refs_substitute_at_both_widths(self, network):
        batch = (
            inv(1, "probe_widget", kind="remote"),
            inv(2, "probe_describe", args=([ArgRef(1), 1],)),
            inv(3, "probe_describe", args=((ArgRef(1), "t"),)),
            inv(4, "probe_describe", kwargs={"named": {"k": ArgRef(1)}}),
            inv(5, "probe_describe", args=(ArgRef(1),),
                kwargs={"also": [(ArgRef(1),)]}),
            inv(6, "probe_describe"),
            inv(7, "probe_grab"),
        )
        one, four = TestByteIdentity().run_modes(
            network, batch, make_root=ProbeImpl)
        TestByteIdentity().assert_identical(one, four)
        assert one.exceptions == {}
        assert one.results == {
            2: "([<live pw>, 1]) {}",
            3: "((<live pw>, 't')) {}",
            4: "() {named: {k: <live pw>}}",
            5: "(<live pw>) {also: [(<live pw>)]}",
            6: "() {}",
            7: 1,
        }

    def test_remote_ref_argument_becomes_a_stub(self, network):
        """§4.4's quirk holds on the non-empty path: a plain remote
        argument arrives as a loopback stub, never the live object."""
        for workers in (0, 4):
            with executor_of_width(network, workers) as executor:
                spare_ref = executor._server.export(WidgetImpl("spare", 1))
                response = executor.invoke_batch(
                    ProbeImpl(),
                    (inv(1, "probe_describe", args=(spare_ref,)),
                     inv(2, "probe_describe", args=([spare_ref],))),
                    ContinuePolicy(),
                )
            assert response.exceptions == {}
            assert response.results == {
                1: "(<stub spare>) {}", 2: "([<stub spare>]) {}",
            }

    def test_plan_hit_keeps_its_stored_kwargs(self, network):
        """An op recorded without keyword arguments hands the callee a
        fresh dict every time — never the installed plan's own."""
        from repro.core import create_batch
        from repro.rmi import RMIClient

        root = ProbeImpl()
        server = RMIServer(network, "sim://plan-kwargs:1").start()
        server.bind("probe", root)
        client = RMIClient(network, server.address)
        try:
            stub = client.lookup("probe")
            for expected in (1, 2, 3):  # inline, install, plan hit
                batch = create_batch(stub, policy=ContinuePolicy(),
                                     reuse_plans=True)
                grabbed = batch.probe_grab()
                batch.flush()
                assert grabbed.get() == expected
            assert plan_runtime_of(server).cache.stats.snapshot().hits == 1
            # The callee writes into what it was handed; it saw nothing
            # left behind by an earlier call, and the plan is untouched.
            assert root.grabbed == [{}, {}, {}]
            (entry,) = plan_runtime_of(server).cache._entries.values()
            assert [op.kwargs for op in entry.plan.ops] == [{}]
        finally:
            client.close()
            server.close()


class TestTraceMarkers:
    def test_fallback_reason_in_trace(self, parallel_executor):
        tracer = install_tracer(Tracer())
        try:
            parallel_executor.invoke_batch(
                make_rack(),
                (inv(1, "rack_pick", args=("w0",), kind="value"),
                 inv(2, "rack_pick", args=("w2",), kind="value")),
                AbortPolicy(),
            )
        finally:
            uninstall_tracer()
        markers = [s for s in tracer.spans() if s.name == "server.parallel"]
        assert len(markers) == 1
        assert markers[0].attrs["serial"] is True
        assert markers[0].attrs["reason"] == REASON_POLICY

    def test_parallel_span_attrs(self, parallel_executor):
        tracer = install_tracer(Tracer())
        try:
            parallel_executor.invoke_batch(
                make_rack(),
                (inv(1, "rack_pick", args=("w0",), kind="value"),
                 inv(2, "rack_pick", args=("w2",), kind="value")),
                ContinuePolicy(),
            )
        finally:
            uninstall_tracer()
        spans = [s for s in tracer.spans() if s.name == "server.parallel"]
        assert len(spans) == 1
        assert spans[0].attrs["chains"] == 2
        assert spans[0].attrs["ops"] == 2

    def test_disabled_marker_reason(self, serial_executor):
        tracer = install_tracer(Tracer())
        try:
            serial_executor.invoke_batch(
                make_rack(),
                (inv(1, "rack_pick", args=("w0",), kind="value"),),
                ContinuePolicy(),
            )
        finally:
            uninstall_tracer()
        markers = [s for s in tracer.spans() if s.name == "server.parallel"]
        assert markers[0].attrs["reason"] == REASON_DISABLED


class TestElementCause:
    def test_cause_comes_from_actual_dependency(self, serial_executor):
        """Two sub-ops fail for the same element; the dependent sub-op
        must be blamed on the one it actually references (the regression:
        the lowest-seq failure used to win regardless of the ArgRef)."""
        batch = (
            inv(1, "rack_widgets", kind="cursor"),
            # Fails first for flagged elements — the wrong cause.
            inv(2, "widget_weight", target=1, cursor_seq=1),
            # Also fails for flagged elements — the actual dependency.
            inv(3, "widget_twin", target=1, kind="remote", cursor_seq=1),
            inv(4, "widget_pair", target=1, args=(ArgRef(3),), cursor_seq=1),
        )
        response = serial_executor.invoke_batch(
            make_rack(), batch, ContinuePolicy()
        )
        # Elements 1 and 3 (w1, w3) are flagged.
        for index in (1, 3):
            cause = response.cursor_exceptions[4][index]
            assert isinstance(cause, TwinError), cause
            assert response.cursor_exceptions[2][index].args == \
                response.cursor_exceptions[4][index].args or True
        # Healthy elements paired normally.
        assert response.cursor_results[4][0] == "w0+w0"
        assert response.cursor_results[4][2] == "w2+w2"

    def test_same_cause_under_parallel_execution(self, network):
        batch = (
            inv(1, "rack_widgets", kind="cursor"),
            inv(2, "widget_weight", target=1, cursor_seq=1),
            inv(3, "widget_twin", target=1, kind="remote", cursor_seq=1),
            inv(4, "widget_pair", target=1, args=(ArgRef(3),), cursor_seq=1),
        )
        serial, parallel = TestByteIdentity().run_modes(network, batch)
        assert render_exceptions(serial) == render_exceptions(parallel)
        assert serial.cursor_results == parallel.cursor_results


class TestPlanDag:
    def run_shape(self, stub, policy=ContinuePolicy):
        from repro.core import create_batch

        batch = create_batch(stub, policy=policy(), reuse_plans=True)
        first = batch.rack_pick("w0")
        first_tag = first.widget_tag()
        second = batch.rack_pick("w2")
        second_tag = second.widget_tag()
        batch.flush()
        return first_tag.get(), second_tag.get()

    def test_installed_plans_cache_their_dag(self, network):
        from repro.rmi import RMIClient

        server = RMIServer(network, "sim://plan-dag:1").start()
        server.bind("rack", make_rack())
        client = RMIClient(network, server.address)
        try:
            stub = client.lookup("rack")
            # inline -> install -> invoke: three runs of the same shape.
            for _ in range(3):
                assert self.run_shape(stub) == ("w0", "w2")
            entries = list(plan_runtime_of(server).cache._entries.values())
            assert entries, "shape never installed"
            for entry in entries:
                assert entry.dag is not None
                assert entry.dag.eligible
                assert len(entry.dag.chains) == 2
            # Every run — inline, install, and the cached invoke (which
            # pays zero re-analysis) — took the parallel path.
            snap = executor_of(server).scheduler.snapshot()
            assert snap["parallel_batches"] == 3
            assert snap["serial_batches"] == 0
        finally:
            client.close()
            server.close()

    def test_ineligible_plan_reuses_install_time_units(
            self, network, monkeypatch):
        """An abort-policy plan can never fan out, but its unit split is
        still computed once at install; a hit scans nothing."""
        from repro.core import executor as executor_module
        from repro.rmi import RMIClient

        server = RMIServer(network, "sim://plan-units:1").start()
        server.bind("rack", make_rack())
        client = RMIClient(network, server.address)
        try:
            stub = client.lookup("rack")
            for _ in range(2):  # inline, then install
                assert self.run_shape(stub, AbortPolicy) == ("w0", "w2")
            (entry,) = plan_runtime_of(server).cache._entries.values()
            assert not entry.dag.eligible
            assert entry.dag.reason == REASON_POLICY
            assert entry.dag.units == split_units(entry.plan.ops)
            assert len(entry.dag.units) == 4

            def rescan(*_args):
                raise AssertionError("plan hit re-scanned the batch")

            monkeypatch.setattr(executor_module, "split_units", rescan)
            monkeypatch.setattr(executor_module, "analyze_batch", rescan)
            assert self.run_shape(stub, AbortPolicy) == ("w0", "w2")
            assert plan_runtime_of(server).cache.stats.snapshot().hits == 1
            snap = executor_of(server).scheduler.snapshot()
            assert snap["fallback.policy"] == 3
        finally:
            client.close()
            server.close()

    def test_params_carry_refs_guard(self):
        from repro.plan.model import params_carry_refs

        assert not params_carry_refs([])
        assert not params_carry_refs([1, "x", (2.0, None)])
        assert params_carry_refs([ArgRef(3)])
        assert params_carry_refs([{"k": [ArgRef(1)]}])
        assert params_carry_refs([("deep", (frozenset(), [{"v": ArgRef(2)}]))])
