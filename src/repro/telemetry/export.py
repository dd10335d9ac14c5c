"""Snapshot exporters: Prometheus-style text and indented span trees.

Both operate on the dict produced by ``Registry.snapshot()`` so they can
render a snapshot that crossed a process boundary (a file, a pipe) just as
well as a live registry.  ``python -m repro telemetry`` prints the text
scrape; the operator view's JSON rendering is ``python -m repro status``.
"""

from __future__ import annotations

from typing import Dict


def _escape_label_value(value: str) -> str:
    # Exposition format: label values escape backslash, double-quote and
    # line feed (in that order — escaping the escape character first).
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # Render integral values without a trailing .0 — counter output stays
    # diff-friendly and matches what scrapers expect.
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_text(snapshot: dict) -> str:
    """The Prometheus exposition-format rendering of a snapshot."""
    lines = []
    if not snapshot.get("enabled", False):
        lines.append("# telemetry disabled (no-op registry)")
    for kind in ("counters", "histograms"):
        for metric in snapshot.get(kind, []):
            name = metric["name"]
            if metric.get("help"):
                lines.append(f"# HELP {name} {metric['help']}")
            lines.append(f"# TYPE {name} {metric['kind']}")
            if metric["kind"] == "histogram":
                for series in metric["series"]:
                    labels = series["labels"]
                    cumulative = 0
                    for bucket in series["buckets"]:
                        cumulative += bucket["count"]
                        bucket_labels = dict(labels, le=str(bucket["le"]))
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(labels)} {_format_value(series['sum'])}"
                    )
                    lines.append(f"{name}_count{_format_labels(labels)} {series['count']}")
            else:
                for series in metric["series"]:
                    lines.append(
                        f"{name}{_format_labels(series['labels'])} "
                        f"{_format_value(series['value'])}"
                    )
    traces = snapshot.get("traces")
    if traces:
        lines.append(f"# {len(traces)} retained trace(s)")
    return "\n".join(lines) + "\n"


def render_status_text(status: dict) -> str:
    """``OTPServer.status()`` as exposition lines: every numeric or boolean
    leaf becomes ``repro_status{path="queue.classes.batch.depth"} 0`` (list
    items by index; strings and ``None`` carry no sample and are skipped)."""
    lines = ["# TYPE repro_status gauge"]

    def walk(node, path: tuple) -> None:
        if isinstance(node, (list, tuple)):
            node = dict(enumerate(node))
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (str(key),))
        elif isinstance(node, (bool, int, float)):
            labels = _format_labels({"path": ".".join(path)})
            lines.append(f"repro_status{labels} {_format_value(float(node))}")

    walk(status, ())
    return "\n".join(lines) + "\n"


def render_trace_text(snapshot: dict) -> str:
    """Render retained traces as indented span trees (newest last)."""
    lines = []
    for trace in snapshot.get("traces", []):
        lines.extend(_render_span_dict(trace, 0))
        lines.append("")
    return "\n".join(lines) if lines else "(no traces retained)\n"


def _render_span_dict(span: dict, indent: int) -> list:
    attrs = " ".join(f"{k}={v}" for k, v in sorted(span.get("attributes", {}).items()))
    line = f"{'  ' * indent}{span['name']} [{span.get('duration', 0.0):.6f}s]"
    if span.get("status", "ok") != "ok":
        line += f" status={span['status']}"
    if attrs:
        line += f" {attrs}"
    lines = [line]
    for child in span.get("children", []):
        lines.extend(_render_span_dict(child, indent + 1))
    return lines
