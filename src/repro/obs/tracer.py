"""The span model and the lock-cheap per-process tracer.

Design constraints, in order:

- **one instrumented path** — instrumented code calls
  :func:`current_tracer` and opens its spans unconditionally.  With
  nothing installed that is :data:`NULL_TRACER`, whose every span is
  one shared do-nothing object: tracing-off costs a method call per
  site, builds nothing, and runs the very statements tracing-on runs;
- **lock-cheap when on** — finished spans append to a bounded
  ``deque`` (a GIL-atomic operation), so transport threads, pool
  workers and the event loop never contend on a tracer lock;
- **head sampling with forced upgrades** — the sampling decision is
  made once, where a trace's root span starts.  A *forced* span (a
  retry attempt, a shed request, an injected fault) records even in an
  unsampled trace and upgrades the whole live trace, so failures are
  never invisible at any sample rate;
- **always-on flight recording** — every span, sampled or not, feeds
  the tracer's :class:`FlightRecorder` (a bounded ring of recently
  completed spans, the currently in-flight set, and a slow log with
  trace-id exemplars), so a live admin endpoint can show what a server
  is doing *right now* even at sample rate 0.

Span timestamps come from ``time.monotonic()`` (or a virtual clock
injected for tests): durations are exact within a process; absolute
values are not comparable across processes.
"""

from __future__ import annotations

import itertools
import json
import time
import uuid
from collections import deque

from repro.obs.context import TraceContext, _activate, _deactivate, current_span

#: Finished spans the tracer retains (oldest dropped past this).
DEFAULT_CAPACITY = 65536

#: Completed spans the flight recorder's ring retains.
DEFAULT_FLIGHT_CAPACITY = 256

#: Slow-log entries the flight recorder retains.
DEFAULT_SLOW_CAPACITY = 128

#: Seconds past which a completed span lands in the slow log.
DEFAULT_SLOW_THRESHOLD = 0.25

#: Sentinel: "no explicit parent given — use the ambient span".
_AMBIENT = object()

#: Sentinel: "build the tracer a default flight recorder".
_AUTO_FLIGHT = object()


class FlightRecorder:
    """Always-on operational view of recent and in-flight spans.

    Three bounded structures, all fed by the tracer for **every** span
    regardless of the sampling decision (the point is live
    introspection of a degrading server, which must work at sample rate
    0 and must never depend on an export having happened):

    - a ring of the last *capacity* **completed** spans;
    - the set of currently **in-flight** spans (started, not ended) —
      a hung or slow request is visible *while it hangs*, with its
      elapsed time;
    - a **slow log** of the last *slow_capacity* spans whose duration
      reached *slow_threshold* seconds, each carrying its trace id —
      the exemplar that links a latency-histogram outlier to an actual
      trace.

    Every mutation is a single GIL-atomic dict/deque operation, so the
    hot path stays lock-free; :meth:`snapshot` (rare — an admin poll)
    retries the handful of iterations that can race a mutation.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY,
                 slow_capacity: int = DEFAULT_SLOW_CAPACITY,
                 slow_threshold: float = DEFAULT_SLOW_THRESHOLD):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        if slow_capacity < 1:
            raise ValueError(f"slow_capacity must be >= 1: {slow_capacity}")
        if slow_threshold < 0:
            raise ValueError(
                f"slow_threshold must be >= 0: {slow_threshold}"
            )
        self.capacity = capacity
        self.slow_threshold = slow_threshold
        self._completed = deque(maxlen=capacity)
        self._slow = deque(maxlen=slow_capacity)
        self._inflight = {}

    # -- feeding (hot path; one atomic op each) --------------------------

    def on_start(self, span) -> None:
        self._inflight[span.span_id] = span

    def on_end(self, span) -> None:
        self._inflight.pop(span.span_id, None)
        self._completed.append(span)
        if span.duration >= self.slow_threshold:
            self._slow.append({
                "name": span.name,
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "duration_ms": span.duration * 1e3,
                "ended_at": span.ended_at,
                "attrs": dict(span.attrs),
            })

    # -- reading ---------------------------------------------------------

    @staticmethod
    def _stable_copy(container):
        """Copy a structure other threads keep appending to; a raced
        iteration raises RuntimeError, so retry a few times."""
        for _ in range(8):
            try:
                return list(container)
            except RuntimeError:
                continue
        return []

    def completed(self) -> list:
        """The ring of recently completed spans, oldest first."""
        return self._stable_copy(self._completed)

    def inflight(self, now: float) -> list:
        """Currently running spans as dicts with elapsed time, oldest
        (longest-running) first."""
        spans = self._stable_copy(self._inflight.values())
        entries = [{
            "name": span.name,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "elapsed_ms": max(0.0, (now - span.started_at) * 1e3),
            "attrs": dict(span.attrs),
        } for span in spans]
        entries.sort(key=lambda entry: -entry["elapsed_ms"])
        return entries

    def slow(self) -> list:
        """The slow log, oldest first; entries carry trace-id exemplars."""
        return self._stable_copy(self._slow)

    def snapshot(self, now: float) -> dict:
        """Everything the admin ``flight`` command serves, as one dict."""
        return {
            "capacity": self.capacity,
            "slow_threshold_s": self.slow_threshold,
            "completed": [span.to_dict() for span in self.completed()],
            "inflight": self.inflight(now),
            "slow": self.slow(),
        }

    def clear(self) -> None:
        self._completed.clear()
        self._slow.clear()
        self._inflight.clear()


class _TraceState:
    """Mutable per-trace sampling flag shared by all of a trace's spans,
    so one forced span upgrades everything recorded after it."""

    __slots__ = ("sampled",)

    def __init__(self, sampled: bool):
        self.sampled = sampled


class Span:
    """One timed operation in a trace.

    Usable as a context manager (which also makes it the ambient parent
    for spans started within the block) or via explicit :meth:`end` for
    spans that straddle a function boundary.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "started_at",
                 "ended_at", "attrs", "_tracer", "_state", "_token", "_ended")

    def __init__(self, tracer, state, name, trace_id, span_id, parent_id,
                 started_at, attrs):
        self._tracer = tracer
        self._state = state
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.started_at = started_at
        self.ended_at = None
        self.attrs = attrs
        self._token = None
        self._ended = False

    @property
    def sampled(self) -> bool:
        """Whether this span's trace records (may flip via a forced span)."""
        return self._state.sampled

    def set(self, **attrs) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def context(self) -> TraceContext:
        """This span's wire identity (what a request would carry)."""
        return TraceContext(self.trace_id, self.span_id, self.parent_id)

    def end(self, ended_at: float = None) -> None:
        """Finish the span; records it if the trace sampled.  Idempotent.

        The flight recorder (when the tracer keeps one) sees the end
        unconditionally — completion rings and the slow log work at any
        sample rate.
        """
        if self._ended:
            return
        self._ended = True
        self.ended_at = (
            self._tracer.now() if ended_at is None else ended_at
        )
        flight = self._tracer.flight
        if flight is not None:
            flight.on_end(self)
        if self._state.sampled:
            self._tracer._record(self)

    @property
    def duration(self) -> float:
        end = self.ended_at if self.ended_at is not None else self.started_at
        return end - self.started_at

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.started_at,
            "end": self.ended_at,
            "attrs": dict(self.attrs),
        }

    def __enter__(self) -> "Span":
        self._token = _activate(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._token is not None:
            _deactivate(self._token)
            self._token = None
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = repr(exc)
        self.end()
        return False

    def __repr__(self):
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"id={self.span_id}, parent={self.parent_id or None})")


class Tracer:
    """Per-process span recorder with head sampling.

    *sample_rate* is the probability a new trace records (1.0 records
    everything, 0.0 only forced spans).  *capacity* bounds retained
    spans; *clock* defaults to ``time.monotonic`` and may be a virtual
    clock in tests.  Deterministic sampling for tests: pass *seed*.

    *flight* is the always-on :class:`FlightRecorder` every span feeds
    regardless of sampling (a default one is built; pass ``None`` to
    disable flight recording entirely).
    """

    def __init__(self, sample_rate: float = 1.0,
                 capacity: int = DEFAULT_CAPACITY,
                 clock=time.monotonic, seed: int = None,
                 flight=_AUTO_FLIGHT):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1]: {sample_rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        import random

        self.sample_rate = sample_rate
        self.flight = FlightRecorder() if flight is _AUTO_FLIGHT else flight
        self._clock = clock
        self._spans = deque(maxlen=capacity)
        self._rng = random.Random(seed)
        self._prefix = uuid.uuid4().hex[:10]
        self._ids = itertools.count(1)

    # -- span creation ---------------------------------------------------

    def now(self) -> float:
        """The tracer's clock (monotonic unless injected otherwise)."""
        return self._clock()

    def span(self, name: str, parent=_AMBIENT, force: bool = False,
             started_at: float = None, **attrs) -> Span:
        """Start a span.

        *parent* may be a :class:`Span`, a :class:`TraceContext` from
        the wire (the far side sampled, so the trace records), or
        ``None`` to force a new root.  Left unset, the ambient span (if
        any) is the parent.  A parentless span makes the head-sampling
        decision for its new trace; *force* records regardless and
        upgrades a live unsampled trace.
        """
        if parent is _AMBIENT:
            parent = current_span()
        if parent is None:
            sampled = force or self._sample()
            state = _TraceState(sampled)
            trace_id = self._next_id()
            parent_id = ""
        elif isinstance(parent, Span):
            state = parent._state
            if force:
                state.sampled = True
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:  # TraceContext off the wire: the sender already sampled
            state = _TraceState(True)
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            self, state, name, trace_id, self._next_id(), parent_id,
            self.now() if started_at is None else started_at, attrs,
        )
        if self.flight is not None:
            self.flight.on_start(span)
        return span

    def record(self, name: str, started_at: float, ended_at: float,
               parent=_AMBIENT, force: bool = False, **attrs) -> Span:
        """Record a completed span in one shot (explicit timestamps) —
        for events observed after the fact, like queue wait."""
        span = self.span(name, parent=parent, force=force,
                         started_at=started_at, **attrs)
        span.end(ended_at)
        return span

    def event(self, name: str, **kwargs) -> Span:
        """Record a zero-duration marker at the current instant; takes
        :meth:`record`'s *parent*, *force* and attributes."""
        now = self.now()
        return self.record(name, now, now, **kwargs)

    def _sample(self) -> bool:
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return self._rng.random() < rate

    def _next_id(self) -> str:
        return f"{self._prefix}-{next(self._ids):x}"

    def _record(self, span: Span) -> None:
        self._spans.append(span)

    # -- reading ---------------------------------------------------------

    def spans(self) -> list:
        """Snapshot of recorded spans in completion order."""
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self):
        return len(self._spans)

    # -- export ----------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write recorded spans as JSON lines; returns the span count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True))
                fh.write("\n")
        return len(spans)


class _NullSpan:
    """The span tracing-off hands every site: accepts what instrumented
    code does to a :class:`Span` and does nothing.  Never ``sampled``,
    so a request encoded under it carries no trace context."""

    __slots__ = ()

    sampled = False
    started_at = 0.0

    def set(self, **attrs) -> "_NullSpan":
        return self

    def end(self, ended_at: float = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _NullTracer:
    """Tracing off: the span-creating surface of :class:`Tracer`, every
    call answering the one shared :class:`_NullSpan`.  Deliberately not
    a :class:`Tracer` — it records nothing, so there is nothing to read,
    export or install."""

    __slots__ = ()

    flight = None

    def span(self, name: str, *args, **kwargs) -> _NullSpan:
        return _NULL_SPAN

    record = event = span


#: What :func:`current_tracer` returns while no tracer is installed.
NULL_TRACER = _NullTracer()

#: The process-wide tracer instrumented code consults.
_installed = NULL_TRACER


def install_tracer(tracer: Tracer) -> Tracer:
    """Make *tracer* the process-wide tracer; returns it for chaining."""
    global _installed
    if not isinstance(tracer, Tracer):
        raise TypeError(f"expected a Tracer, got {type(tracer).__name__}")
    _installed = tracer
    return tracer


def uninstall_tracer() -> None:
    """Disable tracing (instrumented paths get :data:`NULL_TRACER` back)."""
    global _installed
    _installed = NULL_TRACER


def current_tracer():
    """The installed tracer, or :data:`NULL_TRACER` when tracing is off."""
    return _installed
