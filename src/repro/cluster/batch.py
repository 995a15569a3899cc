"""Cross-shard batch recording and scatter-gather execution.

A :class:`ClusterBatch` is the multi-server analogue of
:func:`repro.core.create_batch`: the caller obtains one batch proxy per
root stub via :meth:`ClusterBatch.on` and records against them exactly
as against a single-server batch.  Underneath, every root owns a
*chain* — an ordinary :class:`~repro.core.proxy.BatchRecorder` bound to
its shard's client, opened by the same
:func:`~repro.core.proxy.open_chain` as a single-server batch — so each
recorded call lands on the chain of its target, and remote results
never leave their home shard (the wire protocol roots one
``__invoke_batch__`` at one object, and the §4.4 identity rule keeps
results server-local).  Every chain's ``batch`` is this object: a
proxy's ``flush()`` is the batch's flush, whichever chain it belongs
to.

The cluster adds routing and two mechanisms:

- **Split points.**  Only *arguments* can cross chains (targets cannot:
  a result's chain is its target's chain).  When a recorded call on
  chain A takes a batch proxy from chain B as an argument, chain A asks
  the batch to :meth:`~ClusterBatch.export` it: chain B records the
  ``__export__`` pseudo-op against that register and is flushed on its
  own (``keep_session=True``, so the chain stays open), and the
  resulting stub — the register's :class:`~repro.wire.refs.RemoteRef`
  made live — is passed to A as a plain marshalled argument.  Shard A's
  executor then reaches the object through a real nested RMI call to
  shard B.  Slower than batching, but never a wrong answer.  Exports
  are record-time: a failed register raises its verdict from the
  recording call, and cursor state cannot be exported (typed error) —
  cursors stay shard-local.

- **Scatter-gather flush.**  ``flush()``/``flush_and_continue()`` ship
  every open chain's pending segment, one thread per shard (chains
  sharing a shard flush sequentially over their shared connection), and
  merge outcomes back into the futures/proxies/cursors the caller
  already holds — program order is preserved because each row resolves
  in place.

Failure follows one rule.  A flush that raises the *raw* transport
error — a 1-shard cluster, or every shard failed — leaves each failed
chain's rows pending and the batch open, exactly like a single server,
so the batch can be flushed again; a retry re-ships only the chains
that are still open.  A flush that raises a typed
:class:`~repro.cluster.errors.ShardFailedError` (some shards answered)
fails the dead shards' chains through
:meth:`~repro.core.proxy.BatchRecorder.fail`: their rows raise the
underlying error, surviving shards' rows stay readable, and the failed
chains are closed, so later flushes skip them.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.errors import ShardFailedError
from repro.core.cursor import CursorProxy
from repro.core.errors import (
    BatchClosedError,
    NotInBatchError,
    UnsupportedBatchOperationError,
)
from repro.core.proxy import BatchProxy, open_chain
from repro.core.recording import EXPORT_OP
from repro.rmi.remote import MethodSpec
from repro.rmi.stub import Stub

#: Synthetic spec for the executor's export pseudo-op: a value result
#: whose payload is the target itself (marshalled to its RemoteRef).
EXPORT_SPEC = MethodSpec(name=EXPORT_OP, returns_kind="value",
                         returns_interface=None)


class ClusterBatch:
    """One scatter-gather batch over a :class:`~repro.cluster.client.
    ClusterClient`'s shards; see the module docstring for semantics."""

    def __init__(self, cluster, policy=None, reuse_plans: bool = False):
        self._cluster = cluster
        self._policy = policy
        self._reuse_plans = reuse_plans
        # (endpoint, object_id) -> (shard index, recorder), in creation order
        self._chains = {}
        self._exports = {}                 # (id(recorder), seq) -> Stub
        self._closed = False
        self._lock = threading.RLock()

    def on(self, stub: Stub) -> BatchProxy:
        """The batch proxy recording against *stub*'s chain.

        Idempotent per remote identity: asking twice for the same ref
        hands back the same chain root.  The stub's shard stamp (and its
        endpoint) are validated against the cluster layout — a misrouted
        ref raises :class:`~repro.rmi.exceptions.WrongShardError` here,
        before anything touches the network.
        """
        if isinstance(stub, BatchProxy):
            raise TypeError("already a batch proxy; pass the underlying stub")
        if not isinstance(stub, Stub):
            raise TypeError(
                f"ClusterBatch.on needs an RMI stub, got {type(stub).__name__}"
            )
        ref = stub.remote_ref
        with self._lock:
            if self._closed:
                raise BatchClosedError(
                    "this cluster batch was flushed; create a new one"
                )
            key = (ref.endpoint, ref.object_id)
            chain = self._chains.get(key)
            if chain is None:
                shard_index = self._cluster.shard_index_of(stub)
                recorder = open_chain(
                    stub, self._policy, self._cluster.client_for(shard_index),
                    self._reuse_plans, batch=self,
                )
                chain = self._chains[key] = (shard_index, recorder)
            return chain[1].root

    # -- split points ------------------------------------------------------

    def export(self, proxy: BatchProxy) -> Stub:
        """Resolve a sibling chain's register to a live stub (split point)."""
        recorder = proxy._recorder
        if recorder.batch is not self:
            raise NotInBatchError(
                "argument batch object belongs to a different batch chain"
            )
        if isinstance(proxy, CursorProxy) or proxy._cursor_owner is not None:
            raise UnsupportedBatchOperationError(
                "cursor state cannot cross shards; only plain remote "
                "results can be passed between cluster chains"
            )
        if proxy._failure is not None:
            raise proxy._failure
        key = (id(recorder), proxy._seq)
        stub = self._exports.get(key)
        if stub is None:
            future = recorder.record(proxy, EXPORT_SPEC, (), {})
            # Only the producer chain: the batch's other chains wait for
            # the batch's own flush.
            recorder.flush(keep_session=True)
            stub = future.get()  # a failed register raises its verdict here
            self._exports[key] = stub
        return stub

    # -- flushing ----------------------------------------------------------

    def flush(self) -> None:
        """Scatter-gather execute every chain; the batch ends."""
        self.flush_batch(keep_session=False)

    def flush_and_continue(self) -> None:
        """Scatter-gather execute, keeping every chain open for more."""
        self.flush_batch(keep_session=True)

    def ok(self) -> None:
        """Re-raise the first chain-level failure, if any."""
        for _shard_index, recorder in self._chains.values():
            recorder.root.ok()

    def flush_batch(self, keep_session: bool) -> None:
        """Flush every open chain; see the module docstring for failures."""
        with self._lock:
            if self._closed:
                raise BatchClosedError(
                    "this cluster batch was already flushed"
                )
            by_shard = {}
            for shard_index, recorder in self._chains.values():
                if not recorder.closed:
                    by_shard.setdefault(shard_index, []).append(recorder)
            failed = []    # (recorder, exc)
            failures = {}  # shard label -> first exc

            def flush_shard(shard_index):
                for recorder in by_shard[shard_index]:
                    try:
                        recorder.flush(keep_session=keep_session)
                    except Exception as exc:  # noqa: BLE001 - per-shard rows
                        failed.append((recorder, exc))
                        label = self._cluster.label_for(shard_index)
                        failures.setdefault(label, exc)

            shards = sorted(by_shard)
            if len(shards) <= 1 or not self._cluster.concurrent_flush:
                for shard_index in shards:
                    flush_shard(shard_index)
            else:
                with ThreadPoolExecutor(max_workers=len(shards)) as pool:
                    list(pool.map(flush_shard, shards))
            if failures:
                first = failures[min(failures)]
                if len(failures) == len(shards):
                    # Every shard flushed failed (a 1-shard cluster
                    # included): like a single server, the raw error
                    # with the rows left pending.
                    raise first
            for recorder, exc in failed:
                recorder.fail(exc)
            if not keep_session:
                self._closed = True
            if failures:
                raise ShardFailedError(failures) from first
