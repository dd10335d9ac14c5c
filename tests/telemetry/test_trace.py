"""Unit tests for the span/tracer layer."""

import pytest

from repro.common.clock import VirtualClock
from repro.telemetry import NOOP_SPAN, NOOP_TRACER, Tracer


@pytest.fixture
def clock():
    return VirtualClock(100.0)


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestNesting:
    def test_child_attaches_to_open_parent(self, tracer, clock):
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(2.0)
        assert outer.children == [inner]
        assert inner.children == []
        assert outer.duration == pytest.approx(3.0)
        assert inner.duration == pytest.approx(2.0)

    def test_siblings(self, tracer):
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        root = tracer.last_trace()
        assert [c.name for c in root.children] == ["a", "b"]
        assert root.span_count() == 3

    def test_only_root_completion_retains_trace(self, tracer):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
            # The child finished, but the trace is not retained yet.
            assert tracer.last_trace() is None
            assert tracer.current_span().name == "root"
        assert tracer.last_trace().name == "root"
        assert tracer.current_span() is None

    def test_find_and_walk(self, tracer):
        with tracer.span("root"):
            with tracer.span("pam"):
                with tracer.span("radius"):
                    pass
            with tracer.span("pam"):
                pass
        root = tracer.last_trace()
        assert root.find("radius").name == "radius"
        assert root.find("missing") is None
        assert len(root.find_all("pam")) == 2
        assert [s.name for s in root.walk()] == ["root", "pam", "radius", "pam"]


class TestAttributesAndStatus:
    def test_open_attributes_and_annotate(self, tracer):
        with tracer.span("s", user="alice") as span:
            span.annotate("result", "ok")
        assert span.attributes == {"user": "alice", "result": "ok"}

    def test_exception_marks_error(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("s"):
                raise RuntimeError("boom")
        trace = tracer.last_trace()
        assert trace.status == "error"
        assert "RuntimeError" in trace.attributes["error"]

    def test_leaked_child_force_closed(self, tracer, clock):
        with tracer.span("root") as root:
            # A child opened without `with` and never closed by its creator.
            tracer.span("leaked")
            clock.advance(5.0)
        leaked = root.children[0]
        assert leaked.end == root.end
        assert leaked.status == "error"
        # The leak did not corrupt the stack: a new trace works normally.
        with tracer.span("next"):
            pass
        assert tracer.last_trace().name == "next"

    def test_to_dict_render(self, tracer, clock):
        with tracer.span("root", host="l1") as root:
            clock.advance(0.25)
        d = root.to_dict()
        assert d["name"] == "root"
        assert d["duration"] == pytest.approx(0.25)
        assert d["attributes"] == {"host": "l1"}
        assert "root [0.250000s] host=l1" in root.render()


class TestRetention:
    def test_ring_buffer_cap(self, clock):
        tracer = Tracer(clock, max_traces=3)
        for i in range(5):
            with tracer.span(f"t{i}"):
                pass
        assert [t.name for t in tracer.traces] == ["t2", "t3", "t4"]
        assert tracer.spans_started == 5

    def test_take_traces_drains(self, tracer):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        taken = tracer.take_traces()
        assert [t.name for t in taken] == ["a", "b"]
        assert tracer.last_trace() is None

    def test_reset(self, tracer):
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.last_trace() is None
        assert tracer.spans_started == 0


class TestNoopTracer:
    def test_all_operations_free(self):
        with NOOP_TRACER.span("anything", user="x") as span:
            span.annotate("k", "v")
            span.set_status("error")
        assert span is NOOP_SPAN
        assert NOOP_SPAN.status == "ok"
        assert NOOP_TRACER.last_trace() is None
        assert NOOP_TRACER.current_span() is None
        assert NOOP_TRACER.take_traces() == []
