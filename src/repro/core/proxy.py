"""Batch proxies and the invocation recorder (paper §3.2, §4.1).

``create_batch`` wraps an RMI stub in a *batch-object proxy*.  Method
calls on the proxy are recorded, not sent; results come back as
:class:`~repro.core.future.Future` (value returns), further batch proxies
(remote returns) or cursors (array-of-remote returns).  ``flush()`` ships
the recorded invocations as one ``__invoke_batch__`` call and distributes
results/exceptions; ``flush_and_continue()`` does the same but keeps the
server-side context alive for a chained batch (§3.5).

The Python proxy needs no generated interface classes: return-type
annotations on the remote interface drive the translation rules of §3.2
at runtime (the source-generating equivalent of ``rmic -batch`` lives in
:mod:`repro.core.interfaces`).
"""

from __future__ import annotations

import threading

from repro.core.errors import (
    BatchClosedError,
    BatchError,
    BatchAbortedError,
    BatchStateError,
    CursorInterleavingError,
    NotInBatchError,
    UnsupportedBatchOperationError,
)
from repro.core.future import Future
from repro.core.policies import POLICY_TYPES, default_policy
from repro.core.recording import NONE_ID, ROOT_SEQ, ArgRef, BatchResponse, InvocationData
from repro.net.conditions import (
    CHARGE_BATCH_RECORD,
    CHARGE_PROXY_CREATE,
)
from repro.obs.tracer import current_tracer
from repro.rmi.exceptions import NoSuchMethodError
from repro.rmi.marshal import WIRE_SCALARS, marshal, unmarshal
from repro.rmi.protocol import INVOKE_BATCH
from repro.rmi.remote import lookup_interface, remote_methods
from repro.rmi.stub import Stub

#: :class:`~repro.core.cursor.CursorProxy` subclasses :class:`BatchProxy`,
#: so its module hands the class over here once it is defined (importing
#: ``repro.core`` always loads both); the recorder then needs no import
#: per recorded op.
CursorProxy = None


class BatchProxy:
    """Records method calls for one object participating in a batch.

    The public batch API (``flush``, ``flush_and_continue``, ``ok``) is
    available on every proxy; remote interfaces cannot declare those
    names, so ``__getattr__`` never shadows them.
    """

    def __init__(self, recorder, seq, specs, cursor_owner=None):
        self._recorder = recorder
        self._seq = seq
        self._specs = specs
        self._cursor_owner = cursor_owner
        #: The ref this proxy stands for, built once; None for a cursor
        #: (its own owner) and its sub-batch, whose ref depends on the
        #: cursor's state.
        self._ref = ArgRef(seq) if cursor_owner is None else None
        self._failure = None
        self._resolved = seq == ROOT_SEQ

    # -- the Batch interface (paper §3.2/§3.3) --------------------------

    def flush(self) -> None:
        """Execute the batch this object belongs to; results become
        available and the batch ends.

        Network and communication errors surface here — this is the only
        call that talks to the server.
        """
        self._recorder.batch.flush_batch(keep_session=False)

    def flush_and_continue(self) -> None:
        """Execute recorded calls but keep the server context so further
        calls may use this batch's objects (chained batches)."""
        self._recorder.batch.flush_batch(keep_session=True)

    def ok(self) -> None:
        """Re-raise any exception this batch object depends on (§3.3).

        Returns quietly when the object's creating call (and everything
        it depends on) succeeded.
        """
        if self._failure is not None:
            raise self._failure
        if not self._resolved:
            raise BatchStateError(
                "ok() before the batch creating this object was flushed"
            )

    # -- recording --------------------------------------------------------

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        spec = self._specs.get(name)
        if spec is None:
            raise NoSuchMethodError(name, sorted(self._specs))
        return _RecordedMethod(self, spec)

    def __repr__(self):
        role = "root" if self._seq == ROOT_SEQ else f"#{self._seq}"
        return f"<BatchProxy {role} ({len(self._specs)} methods)>"


class _RecordedMethod:
    """One batched remote method bound to its proxy."""

    __slots__ = ("_proxy", "_spec")

    def __init__(self, proxy, spec):
        self._proxy = proxy
        self._spec = spec

    def __call__(self, *args, **kwargs):
        proxy = self._proxy
        return proxy._recorder.record(proxy, self._spec, args, kwargs)

    def __repr__(self):
        return f"<batched method {self._spec.name} of {self._proxy!r}>"


class BatchRecorder:
    """Client-side batch state: invocation log, futures, dependencies.

    One recorder per batch chain; all proxies of the chain share it.
    Thread-unsafe by design, like the paper (§4.5): concurrent threads
    must create their own batches via :func:`create_batch`.  A lock still
    guards the bookkeeping so misuse corrupts nothing.
    """

    def __init__(self, stub: Stub, policy, client, batch=None):
        self._stub = stub
        self._policy = policy
        self._client = client
        self._seq_counter = ROOT_SEQ
        self._segment = []
        self._segment_futures = []
        self._segment_proxies = []
        self._segment_cursors = []
        self._deps = {ROOT_SEQ: frozenset()}
        self._failures = {}
        self._session_id = NONE_ID
        self._open_cursor = None
        self._lock = threading.RLock()
        #: Flushed for good, or failed: the chain records no more.
        self.closed = False
        self.flush_count = 0
        self.root = None  # assigned by open_chain
        #: The batch this chain belongs to, answering ``flush_batch`` and
        #: ``export``.  A plain batch is its own one chain; a cluster
        #: batch is shared by one chain per root.
        self.batch = self if batch is None else batch

    @property
    def session_id(self) -> int:
        """Server session id while a chain is open (-1 otherwise)."""
        return self._session_id

    @property
    def pending_invocations(self) -> int:
        """Calls recorded since the last flush."""
        return len(self._segment)

    # -- recording ---------------------------------------------------------

    def record(self, proxy: BatchProxy, spec, args, kwargs):
        """Append one invocation; returns its Future/proxy/cursor.

        One pass over the arguments converts them and collects the seqs
        of the :class:`ArgRef` values in them, in ``referenced_seqs()``
        order: the op's dependency edges.  An argument tuple (or kwargs
        dict) of wire-native scalars is kept as it is, after one type
        check per item.
        """
        with self._lock:
            if self.closed:
                raise BatchClosedError(
                    "this batch chain was flushed; create a new batch"
                )
            target, owner = self._ref_of(proxy, None)
            seqs = [target.seq]
            for item in args:
                if type(item) not in WIRE_SCALARS:
                    args, owner = self._convert_one(args, owner, seqs)
                    break
            for item in kwargs.values():
                if type(item) not in WIRE_SCALARS:
                    kwargs, owner = self._convert_one(kwargs, owner, seqs)
                    break

            if owner is not None or self._open_cursor is not None:
                self._enforce_contiguity(owner)
            if owner is not None and spec.returns_kind == "cursor":
                raise UnsupportedBatchOperationError(
                    "nested cursors: a cursor operation cannot itself "
                    "return an array of remote objects"
                )

            self._seq_counter += 1
            seq = self._seq_counter
            self._segment.append(InvocationData.recorded(
                seq, target, spec.name, args, kwargs, spec.returns_kind,
                NONE_ID if owner is None else owner._seq,
            ))
            deps = set()
            for ref_seq in seqs:
                deps.update(self._deps.get(ref_seq, ()))
                if ref_seq > ROOT_SEQ:
                    deps.add(ref_seq)
            self._deps[seq] = frozenset(deps)
            self._client.charge(CHARGE_BATCH_RECORD)
            return self._make_result(seq, spec, owner)

    def _ref_of(self, proxy, owner):
        """``(ArgRef, owner)`` for a proxy of this chain, as a call's
        target or as an argument.

        A plain proxy built its ref when it was created.  A proxy of an
        unflushed cursor (the cursor itself included) stands for every
        element: the op joins that cursor's sub-batch (§3.4), so *owner*
        widens to it.  A proxy of a flushed cursor addresses the element
        the cursor currently points at (chained batches, §3.5).
        """
        if proxy._failure is not None:
            raise proxy._failure
        if proxy._ref is not None:
            return proxy._ref, owner
        cursor = proxy._cursor_owner
        if not cursor._flushed:
            return ArgRef(proxy._seq), self._merge_owner(owner, cursor)
        index = cursor._require_index()
        element_exc = cursor._element_exception(proxy._seq, index)
        if element_exc is not None:
            raise element_exc
        return ArgRef(proxy._seq, index), owner

    def _convert_one(self, value, owner, seqs):
        """Wire-safe form of one argument; batch refs become ArgRef.

        Returns ``(converted, owner)`` — the cursor sub-batch owner may
        widen when a cursor (or cursor-derived proxy) appears among the
        arguments, since such an op repeats per element (§3.4).  The seq
        of every ArgRef in the result is appended to *seqs*, in the
        depth-first order ``referenced_seqs()`` walks.
        """
        if isinstance(value, (list, tuple)):
            items = []
            for item in value:
                if type(item) not in WIRE_SCALARS:
                    item, owner = self._convert_one(item, owner, seqs)
                items.append(item)
            return (tuple(items) if isinstance(value, tuple) else items), owner
        if isinstance(value, dict):
            result = {}
            for key, item in value.items():
                if type(item) not in WIRE_SCALARS:
                    item, owner = self._convert_one(item, owner, seqs)
                result[key] = item
            return result, owner
        if isinstance(value, Future):
            raise UnsupportedBatchOperationError(
                "futures cannot be passed as batched arguments; pass the "
                "batch object itself for remote results, or flush first "
                "for values"
            )
        if isinstance(value, BatchProxy):
            if value._recorder is not self:
                return marshal(self.batch.export(value), self._client), owner
            ref, owner = self._ref_of(value, owner)
        else:
            ref = marshal(value, self._client)
            if not isinstance(ref, ArgRef):
                return ref, owner
        seqs.append(ref.seq)
        return ref, owner

    def _merge_owner(self, owner, cursor):
        if owner is not None and owner is not cursor:
            raise UnsupportedBatchOperationError(
                "one batched operation cannot span two different cursors"
            )
        return cursor

    def _enforce_contiguity(self, owner):
        """Cursor sub-batches must be contiguous (§4.1)."""
        if owner is None:
            if self._open_cursor is not None:
                self._open_cursor._sub_closed = True
                self._open_cursor = None
            return
        if self._open_cursor is not None and self._open_cursor is not owner:
            self._open_cursor._sub_closed = True
            self._open_cursor = None
        if owner._sub_closed:
            raise CursorInterleavingError(
                "cursor operations must be contiguous: this cursor's "
                "sub-batch was already closed by a non-cursor operation"
            )
        self._open_cursor = owner

    def _make_result(self, seq, spec, owner):
        if spec.returns_kind == "value":
            future = Future(seq)
            if owner is not None:
                owner._register_future(seq, future)
            else:
                self._segment_futures.append((seq, future))
            return future
        specs = self._specs_for_interface(spec.returns_interface)
        self._client.charge(CHARGE_PROXY_CREATE)
        if spec.returns_kind == "remote":
            child = BatchProxy(self, seq, specs, cursor_owner=owner)
            if owner is not None:
                owner._register_proxy(seq, child)
            else:
                self._segment_proxies.append(child)
            return child
        cursor = CursorProxy(self, seq, specs)
        self._segment_cursors.append(cursor)
        return cursor

    @staticmethod
    def _specs_for_interface(interface_name):
        try:
            iface = lookup_interface(interface_name)
        except KeyError:
            raise BatchError(
                f"remote interface {interface_name!r} is not registered on "
                "this client; import its defining module before batching"
            ) from None
        return remote_methods(iface)

    # -- flushing -----------------------------------------------------------

    def flush(self, keep_session: bool) -> None:
        """Ship this chain's segment; distribute results and exceptions.

        A flush that raises leaves the segment pending and the chain
        open, so it can be flushed again.
        """
        with self._lock:
            if self.closed:
                raise BatchClosedError("this batch chain was already flushed")
            if self._open_cursor is not None:
                self._open_cursor._sub_closed = True
                self._open_cursor = None
            if not self._segment and keep_session:
                return  # nothing to do yet; the chain stays open
            if not self._segment and self._session_id == NONE_ID:
                self.closed = True
                return  # empty batch, no server state to release
            invocations = tuple(self._segment)
            with current_tracer().span(
                "client.flush", ops=len(invocations),
                keep_session=keep_session,
            ):
                response = self._ship(invocations, keep_session)
            if not isinstance(response, BatchResponse):
                raise BatchError(
                    f"server returned {type(response).__name__}, expected "
                    "a BatchResponse"
                )
            self._apply(response)
            self.flush_count += 1
            if keep_session:
                self._session_id = response.session_id
                self._reset_segment()
            else:
                self._session_id = NONE_ID
                self.closed = True

    #: A plain batch is its one chain: flushing the batch flushes it.
    flush_batch = flush

    def export(self, proxy):
        """A plain batch has no sibling chain to take *proxy* from."""
        raise NotInBatchError(
            "argument batch object belongs to a different batch chain"
        )

    def fail(self, exc: BaseException) -> None:
        """Resolve every pending row of this chain with *exc* and close it.

        Its futures raise *exc* from ``get()``, its proxies (the root
        included) and cursors from ``ok()`` — a cursor's sub-batch rows
        too — and the chain records and flushes no more.
        """
        with self._lock:
            for _seq, future in self._segment_futures:
                future._fail(exc)
            for proxy in self._segment_proxies:
                proxy._resolved = True
                proxy._failure = exc
            for cursor in self._segment_cursors:
                cursor._resolved = True
                cursor._sub_closed = True
                cursor._apply_response(None, None, exc)
            self._reset_segment()
            self._session_id = NONE_ID
            self.closed = True
            self.root._failure = exc

    def _ship(self, invocations, keep_session):
        """One network round trip carrying the recorded segment.

        Subclasses (the plan-reusing recorder) override this to choose a
        different wire strategy for the same segment; everything around
        it — bookkeeping, result distribution — is shared.
        """
        return self._client.call(
            self._stub.remote_ref.object_id,
            INVOKE_BATCH,
            (invocations, self._policy, self._session_id, keep_session),
        )

    def _reset_segment(self):
        self._segment = []
        self._segment_futures = []
        self._segment_proxies = []
        self._segment_cursors = []

    def _apply(self, response: BatchResponse) -> None:
        self._failures.update(response.exceptions)
        first_error = response.break_exception()
        not_executed = set(response.not_executed)
        results = response.results
        for seq, future in self._segment_futures:
            if seq in results:
                value = results[seq]
                future._assign(value if type(value) in WIRE_SCALARS
                               else unmarshal(value, self._client))
                continue
            failure = self._failure_of(seq, not_executed, first_error)
            future._fail(failure if failure is not None else BatchError(
                f"server returned no outcome for operation #{seq}"
            ))
        for proxy in self._segment_proxies:
            proxy._resolved = True
            proxy._failure = self._failure_of(
                proxy._seq, not_executed, first_error
            )
        for cursor in self._segment_cursors:
            cursor._resolved = True
            cursor._sub_closed = True
            cursor._apply_response(response, first_error, self._failure_of(
                cursor._seq, not_executed, first_error
            ))

    def _failure_of(self, seq, not_executed, first_error):
        """What op *seq* failed with, or ``None`` if it succeeded: the
        first failed op it depends on, else its own exception, else an
        abort if the server skipped it."""
        dependency = self._dependency_failure(seq)
        if dependency is not None:
            return dependency
        own = self._failures.get(seq)
        if own is not None or seq not in not_executed:
            return own
        aborted = BatchAbortedError()
        aborted.__cause__ = first_error
        return aborted

    def _dependency_failure(self, seq):
        """The first (batch-order) failed op this op depends on, if any."""
        for dep in sorted(self._deps.get(seq, ())):
            if dep in self._failures:
                return self._failures[dep]
        return None

    def unmarshal_values(self, values) -> list:
        """Unmarshal a cursor's element values via the owning client."""
        client = self._client
        return [value if type(value) in WIRE_SCALARS
                else unmarshal(value, client) for value in values]


def create_batch(stub: Stub, policy=None,
                 reuse_plans: bool = False) -> BatchProxy:
    """Wrap an RMI stub in a batch-object proxy (``BRMI.create``, §3.2).

    *policy* defaults to :class:`~repro.core.policies.AbortPolicy`.

    *reuse_plans* turns on compiled batch plans (:mod:`repro.plan`): the
    returned proxy records and flushes exactly like a plain batch, but
    its recorder memoizes flushed shapes per client and switches a
    repeated shape to content-addressed plan invocation — one round trip
    carrying only a hash and the argument values.
    """
    if isinstance(stub, BatchProxy):
        raise TypeError("already a batch proxy; wrap the underlying stub")
    if not isinstance(stub, Stub):
        raise TypeError(
            f"create_batch needs an RMI stub, got {type(stub).__name__}"
        )
    client = stub.owner_client
    if client is None:
        raise BatchError("stub has no owning client to flush through")
    return open_chain(stub, policy, client, reuse_plans).root


def open_chain(stub: Stub, policy, client, reuse_plans: bool,
               batch=None) -> BatchRecorder:
    """Open one batch chain rooted at *stub*, flushing through *client*.

    The one chain constructor: :func:`create_batch` opens a plain
    batch's only chain, and a cluster batch opens one per root, passing
    itself as *batch*.  Returns the recorder; its ``root`` is the proxy
    the caller records against.
    """
    if policy is None:
        policy = default_policy()
    if not isinstance(policy, POLICY_TYPES):
        raise TypeError(
            f"policy must be one of {[cls.__name__ for cls in POLICY_TYPES]}"
        )
    specs = stub.method_specs()
    if not specs:
        raise BatchError(
            "no remote interface metadata for this stub; ensure its "
            "interface classes are imported on the client"
        )
    if reuse_plans:
        # Local import: the plan layer builds on this module.
        from repro.plan.client import PlanningBatchRecorder

        recorder = PlanningBatchRecorder(stub, policy, client, batch)
    else:
        recorder = BatchRecorder(stub, policy, client, batch)
    recorder.root = BatchProxy(recorder, ROOT_SEQ, specs)
    client.charge(CHARGE_PROXY_CREATE)
    return recorder


class BRMI:
    """Paper-parity facade: ``BRMI.create(stub, policy)``."""

    create = staticmethod(create_batch)
