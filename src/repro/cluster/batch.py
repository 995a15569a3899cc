"""Cross-shard batch recording and scatter-gather execution.

A :class:`ClusterBatch` is the multi-server analogue of
:func:`repro.core.create_batch`: the caller obtains one batch proxy per
root stub via :meth:`ClusterBatch.on` and records against them exactly
as against a single-server batch.  Underneath, every root owns a
*chain* — an ordinary :class:`~repro.core.proxy.BatchRecorder` bound to
its shard's client — so each recorded call lands on the chain of its
target, and remote results never leave their home shard (the wire
protocol roots one ``__invoke_batch__`` at one object, and the §4.4
identity rule keeps results server-local).

Two cluster-specific mechanisms sit on top:

- **Split points.**  Only *arguments* can cross chains (targets cannot:
  a result's chain is its target's chain).  When a recorded call on
  chain A takes a batch proxy from chain B as an argument, the recorder
  falls back to a split: chain B records the ``__export__`` pseudo-op
  against that register, is flushed immediately (``flush_and_continue``,
  so the chain stays open), and the resulting stub — the register's
  :class:`~repro.wire.refs.RemoteRef` made live — is passed to A as a
  plain marshalled argument.  Shard A's executor then reaches the object
  through a real nested RMI call to shard B.  Slower than batching, but
  never a wrong answer.  Exports are record-time: a failed register
  raises its verdict from the recording call, and cursor state cannot be
  exported (typed error) — cursors stay shard-local.

- **Scatter-gather flush.**  ``flush()``/``flush_and_continue()`` ship
  every chain's pending segment, one thread per shard (chains sharing a
  shard flush sequentially over their shared connection), and merge
  outcomes back into the futures/proxies/cursors the caller already
  holds — program order is preserved because each row resolves in
  place.  A shard that dies mid-flush fails *that shard's rows only*
  with the underlying transport error; surviving shards' rows stay
  readable, and the flush itself raises a typed
  :class:`~repro.cluster.errors.ShardFailedError` (single-shard clusters
  re-raise the original error, keeping 1-shard behaviour identical to a
  single server).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.errors import ShardFailedError
from repro.core.errors import (
    BatchClosedError,
    NotInBatchError,
    UnsupportedBatchOperationError,
)
from repro.core.policies import POLICY_TYPES, default_policy
from repro.core.proxy import BatchProxy, BatchRecorder
from repro.core.recording import EXPORT_OP, NONE_ID, ROOT_SEQ
from repro.net.conditions import CHARGE_PROXY_CREATE
from repro.plan.client import PlanningBatchProxy, PlanningBatchRecorder
from repro.rmi.remote import MethodSpec
from repro.rmi.stub import Stub

#: Synthetic spec for the executor's export pseudo-op: a value result
#: whose payload is the target itself (marshalled to its RemoteRef).
#: ``parallel_safe``: the export only reads the batch-local object
#: table, so a split point never forces a shard's sub-batch serial —
#: intra-shard chains still parallelize under scatter-gather.
EXPORT_SPEC = MethodSpec(name=EXPORT_OP, returns_kind="value",
                         returns_interface=None, parallel_safe=True)


class _Chain:
    """One shard-local batch chain of a cluster batch."""

    __slots__ = ("shard_index", "label", "recorder", "root", "failed")

    def __init__(self, shard_index, label, recorder, root):
        self.shard_index = shard_index
        self.label = label
        self.recorder = recorder
        self.root = root
        self.failed = False


class ClusterBatch:
    """One scatter-gather batch over a :class:`~repro.cluster.client.
    ClusterClient`'s shards; see the module docstring for semantics."""

    def __init__(self, cluster, policy=None, reuse_plans: bool = False):
        if policy is None:
            policy = default_policy()
        if not isinstance(policy, POLICY_TYPES):
            raise TypeError(
                f"policy must be one of "
                f"{[cls.__name__ for cls in POLICY_TYPES]}"
            )
        self._cluster = cluster
        self._policy = policy
        self._reuse_plans = reuse_plans
        self._chains = []                  # creation order
        self._chain_by_recorder = {}       # id(recorder) -> _Chain
        self._chain_by_ref = {}            # (endpoint, object_id) -> _Chain
        self._exports = {}                 # (id(recorder), seq) -> Stub
        self._closed = False
        self._lock = threading.RLock()

    @property
    def chains(self) -> int:
        """How many root chains this batch spans (tests read this)."""
        return len(self._chains)

    @property
    def flush_count(self) -> int:
        """Flushes shipped by the busiest chain (splits included)."""
        return max((c.recorder.flush_count for c in self._chains), default=0)

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
            chain = self._chain_by_ref.get(key)
            if chain is None:
                chain = self._make_chain(stub)
                self._chain_by_ref[key] = chain
            return chain.root

    def _make_chain(self, stub: Stub) -> _Chain:
        shard_index = self._cluster.shard_index_of(stub)
        client = self._cluster.client_for(shard_index)
        specs = stub.method_specs()
        if self._reuse_plans:
            recorder = PlanningBatchRecorder(stub, self._policy, client)
            root = PlanningBatchProxy(recorder, ROOT_SEQ, specs)
        else:
            recorder = BatchRecorder(stub, self._policy, client)
            root = BatchProxy(recorder, ROOT_SEQ, specs)
        recorder.root = root
        # The one case a single-server recorder rejects: an argument
        # owned by a sibling chain becomes a split point.
        recorder._export_sibling = self._export_for
        client.charge(CHARGE_PROXY_CREATE)
        chain = _Chain(shard_index, self._cluster.label_for(shard_index),
                       recorder, root)
        self._chains.append(chain)
        self._chain_by_recorder[id(recorder)] = chain
        return chain

    # -- split points ------------------------------------------------------

    def _export_for(self, proxy: BatchProxy) -> Stub:
        """Resolve a sibling chain's register to a live stub (split point)."""
        from repro.core.cursor import CursorProxy

        chain = self._chain_by_recorder.get(id(proxy._recorder))
        if chain is None:
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
        key = (id(proxy._recorder), proxy._seq)
        stub = self._exports.get(key)
        if stub is None:
            future = chain.recorder.record(proxy, EXPORT_SPEC, (), {})
            chain.root.flush_and_continue()
            stub = future.get()  # a failed register raises its verdict here
            self._exports[key] = stub
        return stub

    # -- flushing ----------------------------------------------------------

    def flush(self) -> None:
        """Scatter-gather execute every chain; the batch ends."""
        self._flush_all(keep_session=False)

    def flush_and_continue(self) -> None:
        """Scatter-gather execute, keeping every chain open for more."""
        self._flush_all(keep_session=True)

    def ok(self) -> None:
        """Re-raise the first chain-level failure, if any."""
        for chain in self._chains:
            chain.root.ok()

    def _flush_all(self, keep_session: bool) -> None:
        with self._lock:
            if self._closed:
                raise BatchClosedError(
                    "this cluster batch was already flushed"
                )
            live = [c for c in self._chains if not c.failed]
            by_shard = {}
            for chain in live:
                by_shard.setdefault(chain.shard_index, []).append(chain)
            groups = [by_shard[i] for i in sorted(by_shard)]
            failures = {}

            def flush_group(chains):
                for chain in chains:
                    try:
                        chain.recorder.flush(keep_session=keep_session)
                    except Exception as exc:  # noqa: BLE001 - per-shard rows
                        self._fail_chain(chain, exc)
                        failures.setdefault(chain.label, exc)

            if len(groups) <= 1 or not self._cluster.concurrent_flush:
                for group in groups:
                    flush_group(group)
            else:
                with ThreadPoolExecutor(max_workers=len(groups)) as pool:
                    list(pool.map(flush_group, groups))
            if not keep_session:
                self._closed = True
            if failures:
                ordered = [failures[label] for label in sorted(failures)]
                if len(failures) >= len(groups) or self._cluster.shards == 1:
                    # Every shard (or the only shard) is gone: behave
                    # like a single server and surface the raw error.
                    raise ordered[0]
                raise ShardFailedError(failures) from ordered[0]

    @staticmethod
    def _fail_chain(chain: _Chain, exc: BaseException) -> None:
        """Resolve every pending row of *chain* with *exc* and close it.

        The shard is gone: its futures raise *exc* from ``get()``, its
        proxies and cursors from ``ok()``, and the chain accepts no
        further recording — all without touching the other shards' rows.
        """
        recorder = chain.recorder
        with recorder._lock:
            for _seq, future in recorder._segment_futures:
                future._fail(exc)
            for proxy in recorder._segment_proxies:
                proxy._resolved = True
                proxy._failure = exc
            for cursor in recorder._segment_cursors:
                cursor._resolved = True
                cursor._sub_closed = True
                cursor._flushed = True
                cursor._failure = exc
            recorder._reset_segment()
            recorder._session_id = NONE_ID
            recorder._closed = True
        chain.root._failure = exc
        chain.failed = True
