"""Client-side plan adoption: memoized shapes, transparent switching.

``create_batch(stub, reuse_plans=True)`` returns a
:class:`PlanningBatchProxy` — API-identical to a plain batch proxy.  The
difference is the recorder underneath: at flush time it compiles the
recorded segment into a plan, consults the owning client's
:class:`PlanMemo`, and picks the cheapest wire strategy:

- **first sighting** of a shape — ship inline, exactly like a plain
  batch (paying plan compilation only to learn the hash);
- **first repeat** — the server almost certainly lacks the plan, so go
  straight to ``__install_plan__``: upload, install and execute in one
  round trip (no guaranteed-miss probe);
- **confirmed shape** (a prior install or hit) — send
  ``__invoke_plan__(hash, params)``; the typed miss
  (:class:`~repro.rmi.exceptions.PlanNotFoundError` — eviction or a
  restarted server) falls back to the same one-trip install.

Because plans are content-addressed, installs are idempotent: each
client uploads a shape at most once (two clients producing the same
digest share one cache entry, and re-installing is harmless), and a
stale memo costs one tiny extra round trip, never a wrong answer.
Compilation and hashing run on every flush — roughly the CPU the
inline path spends encoding the full script — so the win is wire
bytes and latency, not client CPU.  Two guards keep
the optimism bounded: the memo itself is a capped LRU (a client cannot
leak memory by flushing endlessly varying shapes), and a shape whose
plan invocations keep missing — the server's cache is thrashing — is
demoted back to the inline path after ``MISS_LIMIT`` consecutive
misses.  Demotion is itself temporary: after ``RETRY_INTERVAL`` inline
flushes the shape probes the plan path again, so a transient burst of
cache pressure costs a bounded detour, never a permanent one.  Chained
batches (``flush_and_continue`` or an open session) always take the
inline path — their server context is inherently stateful.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.proxy import BatchProxy, BatchRecorder
from repro.core.recording import NONE_ID
from repro.obs.tracer import current_tracer
from repro.plan.model import compile_plan, plan_hash
from repro.rmi.exceptions import PlanNotFoundError
from repro.rmi.protocol import INSTALL_PLAN, INVOKE_PLAN

#: Default maximum number of shapes a client memo remembers.
DEFAULT_MEMO_CAPACITY = 1024

#: Consecutive plan-cache misses before a shape is demoted to inline.
MISS_LIMIT = 3

#: Inline flushes of a demoted shape before the plan path is retried.
RETRY_INTERVAL = 16


class _ShapeState:
    """What the memo knows about one batch shape."""

    __slots__ = ("sightings", "confirmed", "miss_streak", "demoted",
                 "inline_since_demotion")

    def __init__(self):
        self.sightings = 0
        self.confirmed = False
        self.miss_streak = 0
        self.demoted = False
        self.inline_since_demotion = 0


class PlanMemo:
    """Per-client memory of flushed batch shapes (thread-safe, bounded).

    Shared by every planning batch the client creates, so a shape seen
    in one batch object is immediately "hot" for the next.  Bounded LRU:
    the least recently flushed shapes are forgotten past *capacity*
    (they simply go inline once more when they reappear).  Also counts
    how each flush went out, for examples and tests.
    """

    def __init__(self, capacity: int = DEFAULT_MEMO_CAPACITY,
                 miss_limit: int = MISS_LIMIT,
                 retry_interval: int = RETRY_INTERVAL):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self._capacity = capacity
        self._miss_limit = miss_limit
        self._retry_interval = retry_interval
        self._lock = threading.Lock()
        self._seen = OrderedDict()
        self.inline_flushes = 0
        self.plan_invocations = 0
        self.plan_installs = 0

    def repeat_sighting(self, digest: str) -> bool:
        """Count one sighting; True when the shape was seen before."""
        with self._lock:
            state = self._seen.get(digest)
            if state is None:
                state = self._seen[digest] = _ShapeState()
            state.sightings += 1
            self._seen.move_to_end(digest)
            while len(self._seen) > self._capacity:
                self._seen.popitem(last=False)
            return state.sightings > 1

    def prefer_inline(self, digest: str) -> bool:
        """Whether this flush of the shape should take the inline path.

        Called once per flush of a repeated shape, so it doubles as the
        retry clock: after ``retry_interval`` inline flushes a demoted
        shape is given a fresh chance on the plan path (and will only be
        re-demoted by another full miss streak).
        """
        with self._lock:
            state = self._seen.get(digest)
            if state is None or not state.demoted:
                return False
            state.inline_since_demotion += 1
            if state.inline_since_demotion >= self._retry_interval:
                state.demoted = False
                state.miss_streak = 0
                state.inline_since_demotion = 0
                return False
            return True

    def confirmed(self, digest: str) -> bool:
        """Whether the server is believed to hold this plan already."""
        with self._lock:
            state = self._seen.get(digest)
            return state is not None and state.confirmed

    def note_hit(self, digest: str) -> None:
        with self._lock:
            state = self._seen.get(digest)
            if state is not None:
                state.miss_streak = 0
                state.confirmed = True

    def note_miss(self, digest: str) -> None:
        """One plan-cache miss; demote the shape past the streak limit."""
        with self._lock:
            state = self._seen.get(digest)
            if state is None:
                return
            state.miss_streak += 1
            if state.miss_streak >= self._miss_limit:
                state.demoted = True
                state.inline_since_demotion = 0

    def times_seen(self, digest: str) -> int:
        with self._lock:
            state = self._seen.get(digest)
            return state.sightings if state is not None else 0

    def note_inline(self) -> None:
        with self._lock:
            self.inline_flushes += 1

    def note_invocation(self) -> None:
        with self._lock:
            self.plan_invocations += 1

    def note_install(self, digest: str) -> None:
        with self._lock:
            self.plan_installs += 1
            state = self._seen.get(digest)
            if state is not None:
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


class PlanningBatchProxy(BatchProxy):
    """Root proxy of a plan-reusing batch; the public API is unchanged."""


class PlanningBatchRecorder(BatchRecorder):
    """A batch recorder that ships repeated shapes as plan invocations."""

    def __init__(self, stub, policy, client):
        super().__init__(stub, policy, client)
        self._memo = client.plan_memo

    def _ship(self, invocations, keep_session):
        if keep_session or self._session_id != NONE_ID:
            # Chained batches carry server-side session state; keep them
            # on the inline path.
            return super()._ship(invocations, keep_session)
        with current_tracer().span("client.plan_lift") as span:
            plan, params = compile_plan(invocations, self._policy)
            digest = plan_hash(plan)
            span.set(digest=digest)
            memo = self._memo
            if not memo.repeat_sighting(digest) or memo.prefer_inline(digest):
                memo.note_inline()
                span.set(strategy="inline")
                return super()._ship(invocations, keep_session)
            object_id = self._stub.remote_ref.object_id
            if memo.confirmed(digest):
                try:
                    span.set(strategy="invoke")
                    response = self._client.call(
                        object_id, INVOKE_PLAN, (digest, params)
                    )
                    memo.note_hit(digest)
                    memo.note_invocation()
                    return response
                except PlanNotFoundError:
                    memo.note_miss(digest)
                    span.set(strategy="invoke_miss_install")
            else:
                # First repeat: the server almost certainly lacks the
                # plan — skip the guaranteed-miss probe and install in
                # one trip.
                span.set(strategy="install")
            response = self._client.call(
                object_id, INSTALL_PLAN, (plan, params)
            )
            memo.note_install(digest)
            return response
