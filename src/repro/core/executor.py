"""Server-side batch execution: the ``invokeBatch`` replay engine, the
``__invoke_batch__`` pseudo-method it registers with the RMI dispatcher
when imported, and :func:`executor_of`, a core's executor.

Implements the pseudocode of the paper's Figure 2, extended with the full
feature set of §3–§4:

- replays recorded invocations in client order against a local object
  table (seq → object), which is what preserves *remote reference
  identity* (§4.4): the return value of one batched call used as the
  target/argument of a later one is the identical server object, never a
  marshalled stub;
- value results are marshalled back in bulk; remote results never cross
  the wire;
- exception policies (§3.3) decide BREAK / CONTINUE / REPEAT / RESTART
  after every failure, with bounded repeats and restarts;
- cursors (§3.4) run their sub-batch once per array element, producing a
  per-element result matrix and element ids reusable by chained batches;
- chained batches (§3.5) persist the object table in a
  :class:`~repro.core.session.SessionStore` between flushes.

There is one engine, run at one of two *widths*.  The batch is split
into units (:func:`repro.core.dag.split_units`) and every unit goes
through the same ``_run_unit`` / ``_run_cursor`` / ``_run_sub_op``:

- **width 1** (no pool): units replay in seq order straight into the
  batch outcome, ``broke`` checked between units and between sub-ops,
  inside the RESTART loop.  Every batch the scheduler does not accept
  runs here, its reason recorded in the scheduler counters and a
  zero-duration ``server.parallel`` trace marker;
- **width N** (a worker pool): the chains found by
  :func:`~repro.core.dag.analyze_batch` — and each cursor's *elements* —
  are shared out lazily (``_fan_out``): the caller starts on them and
  recruits helpers only while its ops block.  The rule: a fan-out
  recruits one helper on the first run of its *shape* (a server-defined
  ``(class, method)`` pair) and on any run after one that blocked — a
  helper claimed a key, or the caller's thread CPU time was under half
  its wall time.  A shape nothing blocks in runs its keys in order, as
  width 1 does, and wakes no pool thread.  Private outcome fragments
  exist only where order can break: a dag of one chain runs straight
  into the batch outcome, several chains give each unit a fragment, and
  a cursor's elements go in place until another run takes one
  (``_run_cursor``).  Fragments merge in seq order, so the response is
  byte-identical to width 1.

The one thing that differs is *when a value result is marshalled*, and
it is a property of the fragment, not of the engine.  A fragment filled
off-thread defers marshalling to the merge, because marshalling exports
remote objects under ids drawn from a shared counter and must happen in
seq order.  Anything written in place — all of width 1, and width N's
in-place prefix — marshals **at call time**: ``marshal`` copies lists,
dicts and sets, and a method that is not ``parallel_safe`` may return
live state that a later op mutates — deferring there would ship the
post-mutation value.  (Fragments need no such care: every method in an
eligible batch is declared order-insensitive.)

Three costs are paid less often than once per op: a worker run makes
one ``CHARGE_BATCH_OP`` charge per outcome it writes into (the batch
outcome, a unit's or a cursor run's fragment), carrying the count of
ops it settled there (``charge_cost`` is linear); whether a class
exposes a method name is checked once per (class, name) per batch; and
the tracer is read once per batch, an op building its ``server.op``
span only while tracing is on.  Top-level ops and sub-ops share one
per-op path, ``_call``.

``exec_workers=0`` pins every batch to width 1.  It selects no other
code — it is this engine with no pool — and it stays because the
fuzzer's ``--parallel`` oracle and the ``exec_parallel`` benchmark lane
need a fixed reference width to compare the fan-out against.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter, thread_time

from repro.core.dag import (
    REASON_DISABLED,
    REASON_SESSION,
    SchedulerStats,
    analyze_batch,
    split_units,
)
from repro.core.errors import (
    BatchDependencyError,
    UnsupportedBatchOperationError,
)
from repro.core.policies import MAX_REPEATS, MAX_RESTARTS, ExceptionAction
from repro.core.recording import (
    EXPORT_OP,
    NONE_ID,
    ROOT_SEQ,
    ArgRef,
    BatchResponse,
    validate_batch,
)
from repro.core.session import SessionStore
from repro.net.conditions import CHARGE_BATCH_OP, CHARGE_BATCH_SETUP
from repro.obs.context import _activate, _deactivate, current_span
from repro.obs.tracer import NULL_TRACER, current_tracer
from repro.rmi.dispatch import register_pseudo_method
from repro.rmi.exceptions import NoSuchMethodError
from repro.rmi.marshal import marshal, unmarshal
from repro.rmi.protocol import INVOKE_BATCH
from repro.rmi.remote import RemoteObject, interface_names, methods_of
from repro.rmi.stub import Stub
from repro.wire.refs import RemoteRef


#: Size of the process-wide shared scheduler pool (``exec_workers=None``).
#: ``parallel_safe`` declares a method order-insensitive, not blocking;
#: the pool is sized past the core count because only ops that block
#: (and so release the GIL) ever recruit a second thread.
DEFAULT_EXEC_WORKERS = 16

_shared_pool = None
_shared_pool_lock = threading.Lock()


def _default_exec_pool() -> ThreadPoolExecutor:
    """Process-wide worker pool shared by all executors (lazily built).

    Shared on purpose: ``serve --procs`` shards and multi-server tests
    each host one executor per process/server, and a single bounded pool
    keeps total scheduler threads bounded no matter how many servers a
    process runs.
    """
    global _shared_pool
    if _shared_pool is None:
        with _shared_pool_lock:
            if _shared_pool is None:
                _shared_pool = ThreadPoolExecutor(
                    max_workers=DEFAULT_EXEC_WORKERS,
                    thread_name_prefix="repro-exec",
                )
    return _shared_pool


def _settle(recruit):
    """Withdraw a recruited helper the pool never started
    (``Future.cancel`` succeeds only then) or wait for it — by then it
    has settled its own recruit the same way; its exception, or None."""
    if recruit is None or recruit.cancel():
        return None
    return recruit.exception()


class _RestartSignal(Exception):
    """Internal: a policy chose RESTART; unwind and re-run the batch."""

    def __init__(self, cause):
        super().__init__("batch restart requested")
        self.cause = cause


class _Deferred:
    """A raw value result awaiting marshalling in the merge phase.

    Marshalling exports fresh remote objects in call order, assigning
    object ids from a shared counter — done on worker threads that order
    (and thus the response bytes) would be nondeterministic.  Fragments
    therefore store raw results and log where they went; the merge
    replays the log in seq order on the caller thread.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _FanOut:
    """What the workers of one recruiting fan-out share: the keys not
    yet claimed, the work each runs, the span they parent under and
    whether a helper (any worker but the caller) claimed a key."""

    __slots__ = ("queue", "work", "parent", "helped")

    def __init__(self, work, keys):
        self.queue = deque(keys)
        self.work = work
        # The ambient span is a contextvar, so worker threads start
        # blank; re-activating the caller's span keeps ``server.op``
        # spans parented under this batch's ``server.execute``.
        self.parent = current_span()
        self.helped = False


@dataclass
class _Outcome:
    """Mutable state of one batch run.

    With a ``marshal_log`` (a fragment filled off-thread) value results
    are stored as :class:`_Deferred` and their locations appended to the
    log as ``(container, key)`` pairs, in execution order.  ``settled``
    counts the ops called into this outcome since its last
    ``CHARGE_BATCH_OP``; ``exposed`` caches ``(class, name) →`` whether
    the name may be called, and ``tracer`` is the tracer read once at
    the batch's start (None while tracing is off), both for the whole
    batch.
    """

    objects: dict
    tracer: object = None
    exposed: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    exceptions: dict = field(default_factory=dict)
    cursor_lengths: dict = field(default_factory=dict)
    cursor_results: dict = field(default_factory=dict)
    cursor_exceptions: dict = field(default_factory=dict)
    not_executed: list = field(default_factory=list)
    break_seq: int = NONE_ID
    broke: bool = False
    marshal_log: list = None
    settled: int = 0

    def fragment(self) -> "_Outcome":
        """A private outcome over the same object table and method
        checks, for one unit or one worker's run of cursor elements."""
        return _Outcome(objects=self.objects, tracer=self.tracer,
                        exposed=self.exposed, marshal_log=[])

    def record_failure(self, seq: int, exc: BaseException,
                       action=None) -> None:
        self.exceptions[seq] = exc
        if action == ExceptionAction.BREAK:
            self.break_seq = seq
            self.broke = True

    def record_element_failure(self, seq: int, index: int,
                               exc: BaseException) -> None:
        self.cursor_exceptions.setdefault(seq, {})[index] = exc


class BatchExecutor:
    """Executes batches against one server's exported objects.

    *exec_workers* configures the DAG scheduler: ``None`` (default)
    runs eligible batches on the process-wide shared pool; ``0`` runs
    every batch at width 1; a positive count gives this executor a
    private pool of that size (shut down via :meth:`close`).
    """

    def __init__(self, server, exec_workers: int = None):
        self._server = server
        self._sessions = SessionStore()
        if exec_workers is not None and exec_workers < 0:
            raise ValueError(f"exec_workers cannot be negative: {exec_workers}")
        self._exec_workers = exec_workers
        self._parallel_enabled = exec_workers is None or exec_workers > 0
        self._private_pool = None
        self._pool_lock = threading.Lock()
        self._scheduler = SchedulerStats()
        # Fan-out shape → whether it blocked on its last run (see
        # ``_fan_out``); shapes are server-defined (class, method) pairs.
        self._blocked = {}

    @property
    def sessions(self) -> SessionStore:
        """The chained-batch session store (exposed for tests/metrics)."""
        return self._sessions

    @property
    def scheduler(self) -> SchedulerStats:
        """DAG-scheduler counters (exposed for metrics collectors)."""
        return self._scheduler

    def _pool(self) -> ThreadPoolExecutor:
        if self._exec_workers is None:
            return _default_exec_pool()
        if self._private_pool is None:
            with self._pool_lock:
                if self._private_pool is None:
                    self._private_pool = ThreadPoolExecutor(
                        max_workers=self._exec_workers,
                        thread_name_prefix="repro-exec",
                    )
        return self._private_pool

    def close(self) -> None:
        """Shut down the private worker pool, if one was created.

        The shared pool outlives individual executors and is never shut
        down here.
        """
        pool = self._private_pool
        if pool is not None:
            self._private_pool = None
            pool.shutdown(wait=True)

    def invoke_batch(self, root_obj, invocations, policy,
                     session_id: int = NONE_ID,
                     keep_session: bool = False,
                     validated: bool = False,
                     dag=None) -> BatchResponse:
        """Entry point reached via the ``__invoke_batch__`` pseudo-method.

        *validated* skips the wire-shape re-check: the plan runtime
        validates a shape once at install time and replays it many times.
        *dag* is an optional precomputed :class:`~repro.core.dag.BatchDag`
        (the plan cache stores one per installed plan); when absent the
        analysis runs per batch.  Neither is reachable from the wire —
        the dispatcher pins the pseudo-method arity below them.
        """
        tracer = current_tracer()
        with tracer.span(
            "server.execute", ops=len(invocations), validated=validated,
        ) as span:
            if validated:
                invocations = tuple(invocations)
            else:
                invocations = validate_batch(invocations, policy)
            if session_id != NONE_ID:
                base_objects = dict(self._sessions.get(session_id))
                base_objects[ROOT_SEQ] = root_obj
            else:
                base_objects = {ROOT_SEQ: root_obj}

            units, dag = self._schedule(invocations, policy, dag, session_id,
                                        tracer)
            # Tracing off, ops skip their ``server.op`` span altogether.
            op_tracer = None if tracer is NULL_TRACER else tracer
            if dag is None:
                outcome, restarts = self._replay(
                    invocations, units, None, policy, base_objects, op_tracer
                )
            else:
                self._scheduler.record_parallel(chains=len(dag.chains))
                with tracer.span(
                    "server.parallel", chains=len(dag.chains),
                    cursors=len(dag.cursor_units), ops=len(invocations),
                ):
                    outcome, restarts = self._replay(
                        invocations, units, dag, policy, base_objects,
                        op_tracer,
                    )
            if restarts:
                span.set(restarts=restarts)

            response_session = NONE_ID
            if keep_session:
                if session_id != NONE_ID:
                    self._sessions.update(session_id, outcome.objects)
                    response_session = session_id
                else:
                    response_session = self._sessions.create(outcome.objects)
            elif session_id != NONE_ID:
                self._sessions.discard(session_id)

            return BatchResponse(
                results=outcome.results,
                exceptions=outcome.exceptions,
                cursor_lengths=outcome.cursor_lengths,
                cursor_results=outcome.cursor_results,
                cursor_exceptions=outcome.cursor_exceptions,
                not_executed=tuple(outcome.not_executed),
                break_seq=outcome.break_seq,
                session_id=response_session,
                restarts=restarts,
            )

    def _replay(self, invocations, units, dag, policy, base_objects,
                tracer):
        """Run the batch to an outcome, re-running it from a fresh object
        table each time an op's policy answers RESTART; returns
        ``(outcome, restarts)``."""
        restarts = 0
        while True:
            outcome = _Outcome(objects=dict(base_objects), tracer=tracer)
            try:
                self._run(invocations, units, dag, policy, outcome)
                return outcome, restarts
            except _RestartSignal:
                # Only width 1 gets here: an eligible batch's policy
                # never restarts.
                restarts += 1
                if restarts > MAX_RESTARTS:
                    # Exhausted restarts escalate to BREAK at the point
                    # of failure, like exhausted repeats.
                    policy = _NoRestart(policy)

    # -- scheduling -----------------------------------------------------------

    def _schedule(self, invocations, policy, dag, session_id, tracer):
        """Pick the width: returns ``(units, dag)``, *dag* None for width 1.

        A width-1 fallback records its reason in the scheduler counters
        and as a zero-duration ``server.parallel`` trace marker.
        """
        if not self._parallel_enabled:
            reason = REASON_DISABLED
        elif session_id != NONE_ID:
            # The session's object table predates this batch; refs into
            # it are invisible to the shape analysis.
            reason = REASON_SESSION
        else:
            if dag is None:
                dag = analyze_batch(invocations, policy)
            if dag.eligible:
                return dag.units, dag
            reason = dag.reason
        self._scheduler.record_serial(reason)
        tracer.event(
            "server.parallel", serial=True, reason=reason, instant=True,
        )
        units = split_units(invocations) if dag is None else dag.units
        return units, None

    def _fan_out(self, pool, work, keys, shape):
        """Share *keys* out to workers: each calls ``work(claimed)``
        once, *claimed* iterating over the keys that worker takes.

        No pool, or a single key: the caller is the only worker and
        takes the keys in order, which *is* width 1.  Otherwise lazy
        work sharing: the keys go in one deque, the caller recruits one
        helper from the pool and starts draining; a helper that gets to
        run recruits the next (while keys remain) before it drains.  So
        width grows only while earlier workers have let go of the GIL,
        and ops that block reach full width within as many thread
        starts.

        The caller recruits only for a *shape* — a server-defined
        ``(class, method)`` pair naming what the fan-out runs — that it
        has not seen, or that blocked on its last run: a helper claimed
        a key, or the caller's thread CPU time over the fan-out was
        under half its wall time.  A shape nothing blocks in runs its
        keys in order at width 1 cost: a recruit it does not need wakes
        a pool thread whose wait for the GIL the caller pays at its next
        block.  One run that blocks makes the next recruit again.

        Every recruiter settles its own recruit on the way out, so the
        caller waits on one future transitively and nobody waits on
        queued work: under a saturated pool, or nested in a pool thread,
        this degenerates to the in-order loop and cannot deadlock.  A
        failing worker empties the deque, so no further key starts, and
        waits out the recruits still running before its error leaves.
        """
        if pool is None or len(keys) < 2:
            work(iter(keys))
            return
        cpu, wall = thread_time(), perf_counter()
        if self._blocked.get(shape, True):
            fan = _FanOut(work, keys)
            self._drain(pool, fan, False)
            helped = fan.helped
        else:
            work(iter(keys))
            helped = False
        self._blocked[shape] = helped or (
            2 * (thread_time() - cpu) < perf_counter() - wall)

    def _drain(self, pool, fan, helping):
        """One worker of a fan-out: recruit, drain, settle.  A method:
        a closure that submits itself is a reference cycle per flush."""
        recruit = (pool.submit(self._drain, pool, fan, True)
                   if fan.queue else None)
        token = _activate(fan.parent)
        try:
            fan.work(self._claim(fan, helping))
        except BaseException:
            fan.queue.clear()
            _settle(recruit)  # the first error wins
            raise
        finally:
            _deactivate(token)
        error = _settle(recruit)
        if error is not None:
            raise error

    def _claim(self, fan, helping):
        """Keys off the shared deque; a helper that gets one is counted."""
        queue = fan.queue
        while True:
            try:
                key = queue.popleft()
            except IndexError:
                return
            if helping:
                self._scheduler.add("helpers")
                fan.helped = True
                helping = False
            yield key

    # -- main replay loop ---------------------------------------------------

    def _run(self, invocations, units, dag, policy, outcome: _Outcome):
        """Replay every unit once, at the width ``_schedule`` picked.

        One chain of all units — width 1 (*dag* None), or a dag with a
        single chain — is written straight into *outcome*.  Otherwise
        the dag's chains run concurrently, each unit into a private
        fragment — fragments share the batch's object table (chains
        write disjoint seq keys; dict item writes are atomic under the
        GIL) but keep private result/exception dicts — and the fragments
        are merged in seq order.  A run charges the ops it settled once
        per outcome it wrote into: the batch outcome, or each fragment.
        """
        self._server.charge(CHARGE_BATCH_SETUP)
        pool = None if dag is None else self._pool()
        if dag is None or len(dag.chains) == 1:
            fragments, chains, shape = None, (range(len(units)),), None
        else:
            fragments, chains = [outcome.fragment() for _ in units], dag.chains
            # The fan-out's shape: the first chain's head, on the root.
            shape = (type(outcome.objects[ROOT_SEQ]), invocations[0].method)

        def run_chains(claimed):
            into = outcome
            try:
                for chain in claimed:
                    for u in chain:
                        if fragments is not None:
                            self._charge_ops(into)
                            into = fragments[u]
                        self._run_unit(invocations, units[u], policy, into,
                                       pool)
            finally:
                self._charge_ops(into)

        self._fan_out(pool, run_chains, chains, shape)
        for frag in fragments or ():
            self._merge_fragment(outcome, frag)

    def _charge_ops(self, outcome):
        """Charge the ops *outcome* settled since its last charge, in one
        call: ``charge_cost`` is linear in the count."""
        if outcome.settled:
            self._server.charge(CHARGE_BATCH_OP, outcome.settled)
            outcome.settled = 0

    def _run_unit(self, invocations, unit, policy, outcome: _Outcome, pool):
        start, end = unit
        inv = invocations[start]
        if outcome.broke or inv.in_cursor:
            # After a BREAK nothing more runs.  An orphan sub-op never
            # does: no cursor unit heads it, so it has no elements.
            outcome.not_executed.extend(i.seq for i in invocations[start:end])
        elif inv.returns_kind == "cursor":
            sub_ops = invocations[start + 1 : end]
            if not self._run_cursor(inv, sub_ops, policy, outcome, pool):
                # The cursor op failed: its elements never materialized.
                outcome.not_executed.extend(sub.seq for sub in sub_ops)
        else:
            result, exc, action = self._call(inv, policy, outcome)
            if exc is None:
                self._store(inv, result, outcome)
            else:
                outcome.record_failure(inv.seq, exc, action)

    def _merge_fragment(self, outcome, frag):
        """Fold one unit fragment into the batch outcome.

        Called per unit in ascending-seq order, which makes every
        response dict's insertion order — and, via the marshal log, the
        object-export order — identical to a width-1 run.
        """
        for container, key in frag.marshal_log:
            container[key] = marshal(container[key].value, self._server)
        outcome.results.update(frag.results)
        outcome.exceptions.update(frag.exceptions)
        outcome.cursor_lengths.update(frag.cursor_lengths)
        outcome.cursor_results.update(frag.cursor_results)
        for sub_seq, per_element in frag.cursor_exceptions.items():
            outcome.cursor_exceptions.setdefault(sub_seq, {}).update(
                per_element
            )
        outcome.not_executed.extend(frag.not_executed)

    # -- cursors ---------------------------------------------------------

    def _run_cursor(self, inv, sub_ops, policy, outcome: _Outcome,
                    pool) -> bool:
        """Run a cursor op plus its sub-batch; False if the op failed.

        Given a pool the elements fan out like chains do.  A run writes
        the elements it claims straight into *outcome* while each is the
        next index by its own count; that holds for the run that took
        element 0 until another run takes one, and for no other run.
        Past that prefix a run writes into its one fragment: every value
        sub-op files exactly one entry per element (a result or a
        failure's ``None``), so an element's entries sit at its position
        in the run, and the index-major merge reproduces width 1's
        insertion order exactly.  Each run charges the ops it settled
        into its fragment; in-place ops are charged with *outcome*.
        """
        collection, exc, action = self._call(inv, policy, outcome)
        if exc is None:
            try:
                items = list(collection)
            except TypeError:
                exc = UnsupportedBatchOperationError(
                    f"{inv.method!r} was batched as a cursor but returned "
                    f"non-iterable {type(collection).__name__}"
                )
                action = policy.decide(exc, inv.method, inv.seq)
        if exc is not None:
            outcome.record_failure(inv.seq, exc, action)
            return False

        seq = inv.seq
        outcome.cursor_lengths[seq] = len(items)
        for index, item in enumerate(items):
            outcome.objects[(seq, index)] = item

        element_scope = {seq}
        for sub in sub_ops:
            element_scope.add(sub.seq)
        value_sub_seqs = [s.seq for s in sub_ops if s.returns_kind == "value"]
        for sub_seq in value_sub_seqs:
            outcome.cursor_results[sub_seq] = []
        if not sub_ops:
            return True

        # Width N: ``(run fragment, position)`` of each element not
        # written in place.
        placed = None if pool is None else [None] * len(items)
        if placed is not None and len(items) > 1:
            self._scheduler.add("elements", len(items))

        def run_elements(claimed):
            into, in_place, position = outcome, 0, 0
            try:
                for index in claimed:
                    if index == in_place:
                        in_place += 1
                    else:
                        if into is outcome:
                            into = outcome.fragment()
                            for sub_seq in value_sub_seqs:
                                into.cursor_results[sub_seq] = []
                        placed[index] = (into, position)
                        position += 1
                    for sub in sub_ops:
                        if into.broke:
                            return
                        self._run_sub_op(sub, index, element_scope, policy,
                                         into)
            finally:
                if into is not outcome:
                    self._charge_ops(into)

        # The fan-out's shape: the sub-batch's first op, on element 0.
        shape = (type(items[0]), sub_ops[0].method) if items else None
        self._fan_out(pool, run_elements, range(len(items)), shape)
        for index, spot in enumerate(placed or ()):
            if spot is None:
                continue  # filed in place
            run, position = spot
            for sub in sub_ops:
                if sub.returns_kind == "value":
                    entry = run.cursor_results[sub.seq][position]
                    bucket = outcome.cursor_results[sub.seq]
                    if isinstance(entry, _Deferred):
                        if outcome.marshal_log is None:
                            entry = marshal(entry.value, self._server)
                        else:
                            outcome.marshal_log.append((bucket, len(bucket)))
                    bucket.append(entry)
                per_element = run.cursor_exceptions.get(sub.seq)
                if per_element and index in per_element:
                    outcome.record_element_failure(
                        sub.seq, index, per_element[index]
                    )
        return True

    def _run_sub_op(self, sub, index, element_scope, policy,
                    outcome: _Outcome):
        result, exc, action = self._call(sub, policy, outcome,
                                         element_scope, index)
        if exc is None:
            self._store(sub, result, outcome, index)
            return
        if action == ExceptionAction.BREAK:
            # Mirror into top-level exceptions so the client can find
            # the break cause without digging through matrices.
            outcome.record_failure(sub.seq, exc, action)
        # The failed element's slot: a None in a value sub-op's results.
        if sub.returns_kind == "value":
            outcome.cursor_results[sub.seq].append(None)
        outcome.record_element_failure(sub.seq, index, exc)

    def _element_cause(self, sub, index, outcome):
        """The failure that made *sub*'s dependency unavailable.

        Resolved from the seqs *sub* actually references (target first,
        then ArgRefs in recording order) — not from whichever failed
        sub-op happens to come first in dict iteration order, which
        could blame an unrelated op when several failed for the same
        element.
        """
        for dep_seq in sub.referenced_seqs():
            if dep_seq == sub.seq:
                continue
            per_element = outcome.cursor_exceptions.get(dep_seq)
            if per_element is not None and index in per_element:
                return per_element[index]
        return BatchDependencyError(
            f"operation #{sub.seq} depends on an unavailable element result"
        )

    # -- shared helpers ----------------------------------------------------

    def _call(self, inv, policy, outcome: _Outcome, element_scope=None,
              index: int = None):
        """Resolve and invoke one op under the batch's exception policy:
        a top-level op, or with *index* a cursor sub-op for that element.

        Returns ``(result, exception, action)`` where exactly one of
        result/exception is meaningful.  A dependency that never
        materialized is returned as the exception before any call: a
        :class:`BatchDependencyError` at top level, the element's own
        failure for a sub-op.  A called op is counted as settled in
        *outcome*; REPEAT retries in place (bounded); RESTART unwinds
        via :class:`_RestartSignal`, uncounted.
        """
        objects = outcome.objects
        try:
            ref = inv.target  # ``_resolve_ref``, inlined
            if ref.cursor_index != NONE_ID:  # ``ref.is_element``
                target = objects[(ref.seq, ref.cursor_index)]
            elif element_scope is not None and ref.seq in element_scope:
                target = objects[(ref.seq, index)]
            else:
                target = objects[ref.seq]
            # Most ops carry no arguments.  The recorded empty containers
            # go through as they are: the call unpacks them, so a callee
            # never holds (or mutates) a plan's stored dict.
            args, kwargs = inv.args, inv.kwargs
            if args:
                args = self._substitute(args, objects, element_scope, index)
            if kwargs:
                kwargs = self._substitute(kwargs, objects, element_scope,
                                          index)
        except KeyError as exc:
            if index is None:
                return None, BatchDependencyError(
                    f"operation #{inv.seq} ({inv.method}) depends on "
                    f"result {exc.args[0]!r} which is unavailable"
                ), None
            # Target/argument depends on a sub-op that failed for this
            # element; propagate that element's original failure.
            return None, self._element_cause(inv, index, outcome), None
        name = inv.method
        policy_index = inv.seq if index is None else index
        tracer = outcome.tracer
        span = None if tracer is None else tracer.span(
            "server.op", method=name, seq=policy_index)
        exposed = outcome.exposed
        attempts = 0
        try:
            while True:
                try:
                    if exposed.get((type(target), name)):
                        method = getattr(target, name)
                    else:
                        method = self._method(target, name, exposed)
                    result = method(*args, **kwargs)
                except Exception as exc:  # noqa: BLE001 - the policy decides
                    action = policy.decide(exc, name, policy_index)
                    if action == ExceptionAction.REPEAT:
                        attempts += 1
                        if attempts <= MAX_REPEATS:
                            continue
                        action = ExceptionAction.BREAK
                    if action == ExceptionAction.RESTART:
                        raise _RestartSignal(exc)
                    outcome.settled += 1
                    if span is not None:
                        span.set(
                            error=repr(exc),
                            action=getattr(action, "name", str(action)),
                        ).end()
                    return None, exc, action
                outcome.settled += 1
                if span is not None:
                    span.end()
                return result, None, None
        except _RestartSignal:
            if span is not None:
                span.set(action="RESTART").end()
            raise
        except BaseException as exc:
            if span is not None:
                span.set(error=repr(exc)).end()
            raise

    def _method(self, target, name, exposed):
        """*target*'s bound method *name*, past ``_call``'s cache hit.
        Whether its class exposes the name is decided once per batch,
        into *exposed*: a batch after an interface registers sees it."""
        if name == EXPORT_OP:
            return lambda: target
        key = (type(target), name)
        ok = exposed.get(key)
        if ok is None:
            # A loopback/foreign stub enforces its own interface.
            ok = exposed[key] = isinstance(target, Stub) or (
                isinstance(target, RemoteObject)
                and name in methods_of(target))
        if ok:
            return getattr(target, name)
        if isinstance(target, RemoteObject):
            raise NoSuchMethodError(name, interface_names(target))
        raise NoSuchMethodError(name, (type(target).__name__,))

    def _resolve_ref(self, ref: ArgRef, objects, element_scope=None,
                     index=None):
        """The live object *ref* names (``_call`` inlines this for an
        op's target); KeyError carries the table key of a dependency
        that never materialized."""
        if ref.is_element:
            return objects[(ref.seq, ref.cursor_index)]
        if element_scope is not None and ref.seq in element_scope:
            # Inside a sub-batch, the cursor and its sub-ops name the
            # current element's row of the table.
            return objects[(ref.seq, index)]
        return objects[ref.seq]

    def _substitute(self, value, objects, element_scope=None, index=None):
        """Replace ArgRefs with live objects and refs with stubs."""
        if isinstance(value, ArgRef):
            return self._resolve_ref(value, objects, element_scope, index)
        if isinstance(value, RemoteRef):
            # RMI quirk preserved for plain remote args: always a stub,
            # even pointing back into this server (§4.4).
            return unmarshal(value, self._server)
        if isinstance(value, list):
            return [
                self._substitute(v, objects, element_scope, index)
                for v in value
            ]
        if isinstance(value, tuple):
            return tuple(
                self._substitute(v, objects, element_scope, index)
                for v in value
            )
        if isinstance(value, dict):
            return {
                k: self._substitute(v, objects, element_scope, index)
                for k, v in value.items()
            }
        return value

    def _store(self, inv, result, outcome, index: int = None):
        """File one successful result — the store step of every op.

        *index* is the cursor element of a sub-op, None at top level.
        A value result is marshalled into the response now, or in a
        fragment left raw for the merge (see the module docstring for
        why that differs); any other result stays server-side in the
        object table.
        """
        if inv.returns_kind == "value":
            if index is None:
                container, key = outcome.results, inv.seq
            else:
                container = outcome.cursor_results[inv.seq]
                key = len(container)
                container.append(None)
            if outcome.marshal_log is None:
                container[key] = marshal(result, self._server)
            else:
                container[key] = _Deferred(result)
                outcome.marshal_log.append((container, key))
            return
        # Remote-kind: keep the live object server-side (§4.4); nothing
        # crosses the wire.  A stub result (object on a third server) is
        # stored as-is and later calls go through it.
        if inv.returns_kind == "remote" and not isinstance(
            result, (RemoteObject, Stub)
        ):
            exc = UnsupportedBatchOperationError(
                f"{inv.method!r} was batched as returning a remote "
                f"object but returned {type(result).__name__}"
            )
            if index is None:
                outcome.record_failure(inv.seq, exc)
            else:
                outcome.record_element_failure(inv.seq, index, exc)
            return
        key = inv.seq if index is None else (inv.seq, index)
        outcome.objects[key] = result


class _NoRestart:
    """Policy wrapper that downgrades RESTART to BREAK (restart budget
    exhausted)."""

    def __init__(self, policy):
        self._policy = policy

    def decide(self, exc, method, index):
        action = self._policy.decide(exc, method, index)
        if action == ExceptionAction.RESTART:
            return ExceptionAction.BREAK
        return action


def executor_of(core) -> BatchExecutor:
    """*core*'s batch executor, built on first use with its
    ``exec_workers`` (racing first uses keep the first one stored)."""
    executor = core.layers.get("executor")
    if executor is None:
        executor = core.layers.setdefault(
            "executor", BatchExecutor(core, core.exec_workers))
    return executor


def _serve_batch(core, request):
    """``__invoke_batch__``: replay a recorded batch on its root object."""
    target = core.objects.lookup(request.object_id)
    return executor_of(core).invoke_batch(target, *request.args)


register_pseudo_method(INVOKE_BATCH, 4, _serve_batch)
