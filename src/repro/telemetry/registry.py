"""The process-wide instrument registry and its free no-op twin.

Every instrumented component takes an optional ``telemetry`` argument and
falls back to :data:`NOOP_REGISTRY`; the login path checks ``enabled`` and,
when measurement is off, calls nothing here at all.  A real :class:`Registry`
is enabled per deployment (``MFACenter(telemetry=True)``) and shared by every
layer, which is what lets the tracer stitch one span tree across sshd → PAM →
RADIUS → OTP → SMS.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.common.clock import Clock, WallClock
from repro.common.errors import ConfigurationError
from repro.telemetry.metrics import Counter, Histogram
from repro.telemetry.trace import NOOP_TRACER, NoopTracer, Tracer


class Registry:
    """Owns every instrument and the tracer for one deployment."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock or WallClock()
        self._instruments: Dict[str, object] = {}
        self._tracer = Tracer(self.clock)

    def _get(self, name: str, kind: type, factory) -> object:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory()
        elif not isinstance(instrument, kind):
            raise ConfigurationError(
                f"instrument {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Iterable[float]] = None
    ) -> Histogram:
        return self._get(
            name, Histogram, lambda: Histogram(name, help, buckets)
        )

    def tracer(self) -> Tracer:
        return self._tracer

    def instruments(self) -> Dict[str, object]:
        return dict(self._instruments)

    def snapshot(self, include_traces: bool = True) -> dict:
        """A point-in-time dump of every series (and retained traces)."""
        snap: dict = {"enabled": True, "counters": [], "histograms": []}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            snap[instrument.kind + "s"].append(instrument.snapshot())
        if include_traces:
            # Rendered from a copy: other threads keep closing root spans.
            snap["traces"] = [root.to_dict() for root in self._tracer.finished_traces()]
        return snap

    def reset(self) -> None:
        """Zero every series and drop retained traces (instruments stay)."""
        for instrument in self._instruments.values():
            instrument.reset()
        self._tracer.reset()


class _NoopInstrument:
    """Counter/Histogram stand-in — and its own bound child: accepts
    everything, records nothing."""

    __slots__ = ()
    name = ""
    help = ""
    kind = "noop"
    buckets = ()
    overflow_count = 0

    def labels(self, **labels: object) -> "_NoopInstrument":
        return self

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels: object) -> int:
        return 0

    def sum(self, **labels: object) -> float:
        return 0.0

    def mean(self, **labels: object) -> float:
        return 0.0

    def bucket_counts(self, **labels: object) -> list:
        return [0]

    def quantile(self, q: float, **labels: object) -> float:
        return 0.0

    def series(self) -> dict:
        return {}

    def snapshot(self) -> dict:
        return {"name": self.name, "kind": self.kind, "help": self.help, "series": []}

    def reset(self) -> None:
        pass


_NOOP_INSTRUMENT = _NoopInstrument()


class NoopRegistry:
    """The default: every instrument is the shared no-op singleton."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str, help: str = "") -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Iterable[float]] = None
    ) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def tracer(self) -> NoopTracer:
        return NOOP_TRACER

    def instruments(self) -> dict:
        return {}

    def snapshot(self, include_traces: bool = True) -> dict:
        snap: dict = {"enabled": False, "counters": [], "histograms": []}
        if include_traces:
            snap["traces"] = []
        return snap

    def reset(self) -> None:
        pass


NOOP_REGISTRY = NoopRegistry()

#: What instrumented constructors accept for their ``telemetry`` argument.
TelemetryArg = Union[None, bool, Registry, NoopRegistry]


def resolve_registry(telemetry: TelemetryArg, clock: Optional[Clock] = None):
    """Normalize a constructor's ``telemetry`` argument to a registry.

    ``None``/``False`` → the no-op registry; ``True`` → a fresh enabled
    :class:`Registry` on the given clock; a registry instance passes through
    (this is how every layer of one deployment shares a single registry).
    """
    if telemetry is None or telemetry is False:
        return NOOP_REGISTRY
    if telemetry is True:
        return Registry(clock=clock)
    return telemetry
