"""End-to-end auth-path telemetry: metrics, traces, registry, exporters.

The paper evaluates its rollout by *watching it live* — per-layer auth
logs, LinOTP audit records, failure and lockout counts, SSH traffic graphs
(Figures 3-6).  This package is that measurement substrate for the live
login path:

* :mod:`repro.telemetry.metrics` — ``Counter``/``Histogram``
  with labeled series, bound label children and bounded cardinality;
* :mod:`repro.telemetry.trace` — ``Span``/``Tracer`` building one span
  tree per login attempt across every layer (sshd, each PAM module, the
  RADIUS client's retries/failovers, the RADIUS server's dup-cache, OTP
  validation, the SMS gateway);
* :mod:`repro.telemetry.registry` — the process-wide ``Registry`` with
  snapshot/reset, and the allocation-free ``NOOP_REGISTRY`` every
  component defaults to when telemetry is off;
* :mod:`repro.telemetry.export` — Prometheus-style text and JSON
  renderings of a snapshot, and of ``OTPServer.status()`` as
  ``repro_status{path=…}`` lines.

The rule for what becomes a series: the registry records *events* that
cannot be recomputed later (latency distributions, per-label event counts
no attribute keeps, span trees); a level or total a subsystem already
keeps for ``status()`` is read from that attribute when someone looks,
never mirrored per request.

The rule for how a label set reaches an instrument: labels are resolved
where they are known.  A site whose label values form a closed set binds a
child once (``child = histogram.labels(stage=name)``, or on first use
through a ``LabelChildren`` map; binding creates no series) and updates it
with no label arguments (``child.observe(value)``); the keyword form
(``counter.inc(serial=serial)``) is for open-valued labels.  Both are one
implementation — see :mod:`repro.telemetry.metrics`.

Enable it for a deployment with ``MFACenter(telemetry=True)`` and read
``center.telemetry`` — or ``python -m repro telemetry`` for a one-shot
instrumented login and snapshot dump.
"""

from repro.telemetry.export import (
    render_status_text,
    render_text,
    render_trace_text,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_MAX_SERIES,
    Counter,
    Histogram,
    LabelChildren,
    OVERFLOW_KEY,
    label_key,
)
from repro.telemetry.registry import (
    NOOP_REGISTRY,
    NoopRegistry,
    Registry,
    resolve_registry,
)
from repro.telemetry.trace import (
    NOOP_SPAN,
    NOOP_TRACER,
    NoopSpan,
    NoopTracer,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "Histogram",
    "LabelChildren",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "OVERFLOW_KEY",
    "label_key",
    "Registry",
    "NoopRegistry",
    "NOOP_REGISTRY",
    "resolve_registry",
    "Span",
    "Tracer",
    "NoopSpan",
    "NOOP_SPAN",
    "NoopTracer",
    "NOOP_TRACER",
    "render_text",
    "render_status_text",
    "render_trace_text",
]
