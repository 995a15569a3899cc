"""The span model and tracer: sampling, parenting, forcing, export."""

import pytest

from repro.core import create_batch
from repro.obs import (
    NULL_TRACER,
    FlightRecorder,
    Span,
    TraceContext,
    Tracer,
    current_span,
    current_tracer,
    install_tracer,
    uninstall_tracer,
)
from repro.obs.export import read_jsonl


class FakeClock:
    """A settable clock so durations are exact in tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestSpanLifecycle:
    def test_root_span_records_on_end(self, tracer, clock):
        span = tracer.span("work", answer=42)
        clock.t = 0.5
        span.end()
        assert len(tracer) == 1
        recorded = tracer.spans()[0]
        assert recorded.name == "work"
        assert recorded.parent_id == ""
        assert recorded.duration == 0.5
        assert recorded.attrs == {"answer": 42}

    def test_end_is_idempotent(self, tracer, clock):
        span = tracer.span("once")
        span.end()
        clock.t = 9.0
        span.end()
        assert len(tracer) == 1
        assert tracer.spans()[0].ended_at == 0.0

    def test_set_chains_and_updates(self, tracer):
        span = tracer.span("s").set(a=1).set(b=2)
        assert span.attrs == {"a": 1, "b": 2}

    def test_context_manager_activates_ambient_parent(self, tracer):
        assert current_span() is None
        with tracer.span("outer") as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert current_span() is None
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]

    def test_exception_lands_in_error_attr(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kaput")
        assert "RuntimeError" in tracer.spans()[0].attrs["error"]

    def test_explicit_parent_none_starts_new_trace(self, tracer):
        with tracer.span("outer") as outer:
            root = tracer.span("fresh", parent=None)
            assert root.trace_id != outer.trace_id
            assert root.parent_id == ""

    def test_wire_context_parent_joins_the_trace(self, tracer):
        context = TraceContext("t-1", "s-2", "s-1")
        span = tracer.span("server.handle", parent=context)
        assert span.trace_id == "t-1"
        assert span.parent_id == "s-2"
        span.end()
        assert len(tracer) == 1  # context off the wire means sampled

    def test_span_context_is_its_wire_identity(self, tracer):
        span = tracer.span("s")
        context = span.context()
        assert context == TraceContext(
            span.trace_id, span.span_id, span.parent_id
        )


class TestSampling:
    def test_rate_zero_records_nothing_unforced(self, clock):
        tracer = Tracer(sample_rate=0.0, clock=clock)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert len(tracer) == 0

    def test_forced_span_upgrades_the_live_trace(self, clock):
        tracer = Tracer(sample_rate=0.0, clock=clock)
        with tracer.span("root"):
            with tracer.span("retry", force=True):
                pass
        # The forced child recorded — and dragged the root with it.
        assert sorted(s.name for s in tracer.spans()) == ["retry", "root"]

    def test_forced_root_records_at_rate_zero(self, clock):
        tracer = Tracer(sample_rate=0.0, clock=clock)
        tracer.span("shed", parent=None, force=True).end()
        assert len(tracer) == 1

    def test_seeded_sampling_is_deterministic(self, clock):
        def decisions(seed):
            tracer = Tracer(sample_rate=0.5, clock=clock, seed=seed)
            out = []
            for _ in range(32):
                span = tracer.span("s", parent=None)
                out.append(span.sampled)
                span.end()
            return out

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestTracerBookkeeping:
    def test_capacity_drops_oldest(self, clock):
        tracer = Tracer(capacity=2, clock=clock)
        for name in ("a", "b", "c"):
            tracer.span(name, parent=None).end()
        assert [s.name for s in tracer.spans()] == ["b", "c"]

    def test_record_one_shot_with_explicit_times(self, tracer):
        span = tracer.record("queue_wait", 1.0, 3.5, parent=None, depth=4)
        assert span.duration == 2.5
        assert tracer.spans()[0].attrs == {"depth": 4}

    def test_clear(self, tracer):
        tracer.span("s", parent=None).end()
        tracer.clear()
        assert len(tracer) == 0

    def test_export_jsonl_round_trips(self, tracer, clock, tmp_path):
        with tracer.span("outer", k="v"):
            clock.t = 1.0
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 1
        (span,) = read_jsonl(path)
        assert span["name"] == "outer"
        assert span["end"] == 1.0
        assert span["attrs"] == {"k": "v"}


class TestInstallation:
    def test_install_returns_and_exposes(self):
        tracer = Tracer()
        try:
            assert install_tracer(tracer) is tracer
            assert current_tracer() is tracer
        finally:
            uninstall_tracer()
        assert current_tracer() is NULL_TRACER

    def test_install_rejects_non_tracer(self):
        with pytest.raises(TypeError):
            install_tracer(object())


class TestTracingOff:
    """No tracer installed means the null tracer, not ``None``:
    instrumented code runs the same statements either way."""

    def test_current_tracer_is_the_null_tracer_by_default(self):
        assert current_tracer() is NULL_TRACER

    def test_every_null_span_is_the_one_shared_object(self):
        span = NULL_TRACER.span("a", x=1)
        assert span is NULL_TRACER.span("b")
        assert span is NULL_TRACER.record("c", 0.0, 1.0, parent=None)
        assert span is NULL_TRACER.event("d", force=True)
        assert span.set(k=1) is span
        assert span.set(k=1).end() is None
        with span as entered:
            assert entered is span
            assert current_span() is None  # never the ambient parent
        assert span.sampled is False
        assert NULL_TRACER.flight is None

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("a"):
                raise KeyError("through")

    def test_null_tracer_cannot_be_installed(self):
        with pytest.raises(TypeError):
            install_tracer(NULL_TRACER)
        assert current_tracer() is NULL_TRACER

    def test_untraced_flush_builds_no_span_and_feeds_no_recorder(
            self, env, monkeypatch):
        touched = []

        def note(name):
            return lambda *args, **kwargs: touched.append(name)

        monkeypatch.setattr(Span, "__init__", note("Span"))
        monkeypatch.setattr(FlightRecorder, "on_start", note("on_start"))
        monkeypatch.setattr(FlightRecorder, "on_end", note("on_end"))
        batch = create_batch(env.client.lookup("counter"), reuse_plans=True)
        first = batch.increment(2)
        second = batch.current()
        batch.flush()
        assert (first.get(), second.get()) == (2, 2)
        assert touched == []
