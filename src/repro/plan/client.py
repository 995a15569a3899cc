"""Client-side plan adoption: memoized shapes, transparent switching.

``create_batch(stub, reuse_plans=True)`` returns an ordinary batch
proxy.  The difference is the recorder underneath, a
:class:`PlanningBatchRecorder`: at flush time it takes the
recorded segment's shape key (:func:`~repro.plan.model.shape_key`),
asks the owning client's :class:`PlanMemo` for a route, and picks the
cheapest wire strategy:

- **first sighting** of a shape — ship inline, exactly like a plain
  batch;
- **first repeat** — the server almost certainly lacks the plan, so
  compile it and go straight to ``__install_plan__``: upload, install
  and execute in one round trip (no guaranteed-miss probe);
- **confirmed shape** (a prior install or hit) — send
  ``__invoke_plan__(hash, params)``; the typed miss
  (:class:`~repro.rmi.exceptions.PlanNotFoundError` — eviction or a
  restarted server) falls back to the same one-trip install.

Because plans are content-addressed, installs are idempotent: each
client uploads a shape at most once (two clients producing the same
digest share one cache entry, and re-installing is harmless), and a
stale memo costs one tiny extra round trip, never a wrong answer.
A confirmed flush costs what its parameters cost: the key walk gathers
them, the memo holds the digest the install computed, and no plan is
compiled or hashed.  Every recording has a key, so only the install
paths compile.

Two guards keep the optimism bounded: the memo itself is a capped LRU
(a client cannot leak memory by flushing endlessly varying shapes), and
a shape whose plan invocations keep missing — the server's cache is
thrashing — is demoted back to the inline path after ``MISS_LIMIT``
consecutive misses.  Demotion is itself temporary: after
``RETRY_INTERVAL`` inline flushes the shape probes the plan path again,
so a transient burst of cache pressure costs a bounded detour, never a
permanent one.  Chained batches (``flush_and_continue`` or an open
session) always take the inline path — their server context is
inherently stateful.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.proxy import BatchRecorder
from repro.core.recording import NONE_ID
from repro.obs.tracer import current_tracer
from repro.plan.model import compile_plan, plan_hash, shape_key
from repro.rmi.exceptions import PlanNotFoundError
from repro.rmi.protocol import INSTALL_PLAN, INVOKE_PLAN

#: Default maximum number of shapes a client memo remembers.
DEFAULT_MEMO_CAPACITY = 1024

#: Consecutive plan-cache misses before a shape is demoted to inline.
MISS_LIMIT = 3

#: Inline flushes of a demoted shape before the plan path is retried.
RETRY_INTERVAL = 16

#: Routes :meth:`PlanMemo.route` picks; INSTALL is also a settle outcome.
INLINE, INSTALL, INVOKE = "inline", "install", "invoke"

#: What the server answered a plan invocation, for :meth:`PlanMemo.settle`.
HIT, MISS = "hit", "miss"


class _ShapeState:
    """What the memo knows about one batch shape."""

    __slots__ = ("sightings", "confirmed", "miss_streak", "demoted",
                 "inline_since_demotion", "digest")

    def __init__(self):
        self.sightings = 0
        self.confirmed = False
        self.miss_streak = 0
        self.demoted = False
        self.inline_since_demotion = 0
        self.digest = None


class PlanMemo:
    """Per-client memory of flushed batch shapes (thread-safe, bounded).

    Shared by every planning batch the client creates, so a shape seen
    in one batch object is immediately "hot" for the next.  Keys are
    shape keys; each shape's state carries the digest once an install
    has computed it.
    Bounded LRU: the least recently flushed shapes are forgotten past
    *capacity* (they simply go inline once more when they reappear).
    Also counts how each flush went out, for examples and tests.

    A flush takes the lock twice: :meth:`route` before the request and
    :meth:`settle` after the response.
    """

    def __init__(self, capacity: int = DEFAULT_MEMO_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._seen = OrderedDict()
        self.inline_flushes = 0
        self.plan_invocations = 0
        self.plan_installs = 0

    def route(self, key):
        """Count one flush of shape *key*; returns ``(state, route)``.

        INLINE for a first sighting or a demoted shape, INVOKE once the
        server is believed to hold the plan (its digest is
        ``state.digest``), INSTALL otherwise.
        """
        with self._lock:
            state = self._sight(key)
            if state.sightings == 1 or self._held_inline(state):
                self.inline_flushes += 1
                return state, INLINE
            return state, INVOKE if state.confirmed else INSTALL

    def settle(self, state, outcome: str, digest: str = None) -> None:
        """Record how the server answered a routed flush: HIT, MISS, or
        INSTALL of the plan *digest*."""
        with self._lock:
            if outcome == HIT:
                self.plan_invocations += 1
                state.miss_streak = 0
                state.confirmed = True
            elif outcome == MISS:
                state.miss_streak += 1
                if state.miss_streak >= MISS_LIMIT:
                    state.demoted = True
                    state.inline_since_demotion = 0
            else:
                self.plan_installs += 1
                state.digest = digest
                state.confirmed = True

    def as_dict(self) -> dict:
        """How each flush went out, under the published metric names."""
        with self._lock:
            return {"inline_flushes": self.inline_flushes,
                    "invocations": self.plan_invocations,
                    "installs": self.plan_installs}

    def __len__(self):
        with self._lock:
            return len(self._seen)

    # -- the rules, called with the lock held ---------------------------

    def _sight(self, key) -> _ShapeState:
        state = self._seen.get(key)
        if state is None:
            state = self._seen[key] = _ShapeState()
            while len(self._seen) > self._capacity:
                self._seen.popitem(last=False)
        else:
            self._seen.move_to_end(key)
        state.sightings += 1
        return state

    def _held_inline(self, state) -> bool:
        """Whether a repeated shape stays inline.  Also the retry clock:
        after ``RETRY_INTERVAL`` inline flushes a demoted shape is given
        a fresh chance on the plan path (and will only be re-demoted by
        another full miss streak)."""
        if not state.demoted:
            return False
        state.inline_since_demotion += 1
        if state.inline_since_demotion >= RETRY_INTERVAL:
            state.demoted = False
            state.miss_streak = 0
            state.inline_since_demotion = 0
            return False
        return True


class PlanningBatchRecorder(BatchRecorder):
    """A batch recorder that ships repeated shapes as plan invocations."""

    def __init__(self, stub, policy, client, batch=None):
        super().__init__(stub, policy, client, batch)
        self._memo = client.plan_memo

    def _ship(self, invocations, keep_session):
        if keep_session or self._session_id != NONE_ID:
            # Chained batches carry server-side session state; keep them
            # on the inline path.
            return super()._ship(invocations, keep_session)
        with current_tracer().span("client.plan_lift") as span:
            memo = self._memo
            key, params = shape_key(invocations, self._policy)
            state, route = memo.route(key)
            span.set(digest=state.digest, strategy=route)
            if route == INLINE:
                return super()._ship(invocations, keep_session)
            object_id = self._stub.remote_ref.object_id
            if route == INVOKE:
                try:
                    response = self._client.call(
                        object_id, INVOKE_PLAN, (state.digest, params)
                    )
                except PlanNotFoundError:
                    memo.settle(state, MISS)
                    span.set(strategy="invoke_miss_install")
                else:
                    memo.settle(state, HIT)
                    return response
            # First repeat, or a miss: the server lacks the plan — skip
            # the guaranteed-miss probe and install in one trip.  The one
            # place a plan is compiled and hashed.
            plan, params = compile_plan(invocations, self._policy)
            digest = plan_hash(plan)
            span.set(digest=digest)
            response = self._client.call(
                object_id, INSTALL_PLAN, (plan, params)
            )
            memo.settle(state, INSTALL, digest)
            return response
