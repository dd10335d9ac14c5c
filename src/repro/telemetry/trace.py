"""Per-login-attempt tracing: one span per layer of the auth path.

A full SSH login crosses six layers (sshd → PAM modules → RADIUS client →
RADIUS server → OTP validate → SMS gateway), all in-process and synchronous.
The tracer exploits that: it keeps a stack of open spans per thread (a
``threading.local``, looked up once per open and once per close), so a
span opened while another is active becomes its child with no explicit
context passing — the RADIUS server's span nests under the client's because
the fabric delivers the datagram within the same call chain.  The span a
tracer opens is itself the ``with`` handle: no wrapper object per span.
Opening a span takes no lock (the thread counts the spans of the tree it is
building); the root's close adds that count to ``spans_started`` and the
root to the ring in one lock section.  A caller that already holds a span's
closing instant may stamp ``span.end`` before the block ends; the close then
reads no clock.

When the outermost span closes, the finished trace (its root span) lands in
a bounded ring buffer that tests and operators query:

    with tracer.span("ssh.connect", user="alice"):
        ...
    trace = tracer.last_trace()
    trace.find("otp.validate").attributes["status"]

Timestamps come from the injected :class:`~repro.common.clock.Clock`, never
``time.time()``, so simulated rollouts produce meaningful span durations.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from repro.common.clock import Clock, WallClock

#: How many finished traces a tracer retains.
DEFAULT_MAX_TRACES = 256


class Span:
    """One timed layer of a trace, with attributes and child spans.

    A span :meth:`Tracer.span` opens is its own ``with`` handle: leaving
    the block closes it on that tracer.
    """

    __slots__ = ("name", "start", "end", "attributes", "children", "status", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, start: float, attributes: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, object] = attributes or {}
        self.children: List["Span"] = []
        self.status = "ok"
        self._tracer = tracer

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        if self.end is None:  # a caller holding the closing instant stamped it
            self.end = tracer._clock.now()
        if exc is not None:
            self.status = "error"
            self.attributes.setdefault("error", repr(exc))
        # Pop down to (and including) this span: robust against a child the
        # caller leaked open — it is force-closed with its parent.
        open_spans = tracer._open
        stack = open_spans.stack
        while stack:
            top = stack.pop()
            if top is self:
                break
            if top.end is None:
                top.end = self.end
                top.status = "error"
        if not stack:
            # The tree is finished: its span count and its root join the
            # tracer's totals in one lock section.
            with tracer._lock:
                tracer.spans_started += open_spans.opened
                tracer.traces.append(self)
        return False

    def annotate(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def set_status(self, status: str) -> None:
        self.status = status

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 until an end is stamped: at the
        close, or before it by a caller holding the closing instant)."""
        return 0.0 if self.end is None else self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span (depth-first, self included) with the given name."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        return [span for span in self.walk() if span.name == name]

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        """Human-readable tree, one line per span."""
        attrs = " ".join(f"{k}={v}" for k, v in self.attributes.items())
        line = f"{'  ' * indent}{self.name} [{self.duration:.6f}s]"
        if self.status != "ok":
            line += f" status={self.status}"
        if attrs:
            line += f" {attrs}"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, children={len(self.children)}, status={self.status!r})"


class _OpenSpans(threading.local):
    """Each thread's open spans, innermost last, and how many spans the tree
    they belong to has opened: a worker validating one user never becomes a
    child of another worker's span."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.opened = 0


class Tracer:
    """Builds span trees from the synchronous call stack."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock or WallClock()
        # Each thread builds its own span tree; finished traces from every
        # thread land in the shared ring buffer.
        self._open = _OpenSpans()
        self._lock = threading.Lock()
        self.traces: Deque[Span] = deque(maxlen=DEFAULT_MAX_TRACES)
        #: Spans opened in every finished tree (a tree counts when its root
        #: closes).
        self.spans_started = 0

    def span(self, name: str, **attributes: object) -> Span:
        """Open a span; it becomes a child of the currently open span.
        Opening takes no lock: the thread's tree counts its own spans."""
        span = Span(self, name, self._clock.now(), attributes or None)
        open_spans = self._open
        stack = open_spans.stack
        if stack:
            stack[-1].children.append(span)
            open_spans.opened += 1
        else:
            open_spans.opened = 1
        stack.append(span)
        return span

    def current_span(self) -> Optional[Span]:
        stack = self._open.stack
        return stack[-1] if stack else None

    def last_trace(self) -> Optional[Span]:
        return self.traces[-1] if self.traces else None

    def finished_traces(self) -> List[Span]:
        """Every retained finished trace, oldest first, copied under the
        lock: roots other threads close meanwhile cannot disturb it."""
        with self._lock:
            return list(self.traces)

    def take_traces(self) -> List[Span]:
        """Drain and return every retained finished trace, oldest first."""
        with self._lock:
            out = list(self.traces)
            self.traces.clear()
        return out

    def reset(self) -> None:
        """Clear the calling thread's open spans and the shared buffer."""
        self._open.stack.clear()
        self._open.opened = 0
        with self._lock:
            self.traces.clear()
            self.spans_started = 0


class NoopSpan:
    """Absorbs annotations; its own ``with`` handle; a shared singleton."""

    __slots__ = ()
    status = "ok"

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, key: str, value: object) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass


NOOP_SPAN = NoopSpan()


class NoopTracer:
    """Same surface as :class:`Tracer`; every operation is free."""

    __slots__ = ()
    traces: tuple = ()
    spans_started = 0

    def span(self, name: str, **attributes: object) -> NoopSpan:
        return NOOP_SPAN

    def current_span(self) -> None:
        return None

    def last_trace(self) -> None:
        return None

    def finished_traces(self) -> list:
        return []

    def take_traces(self) -> list:
        return []

    def reset(self) -> None:
        pass


NOOP_TRACER = NoopTracer()
