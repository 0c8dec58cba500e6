"""Telemetry rendering: terminal sparklines and a self-contained HTML
dashboard.

Both renderers consume :class:`~repro.telemetry.bus.TelemetryPayload`
objects only — they never touch a live simulation — so a payload saved
to JSON by ``--telemetry-out`` renders identically later through the
``dashboard`` CLI sub-command.  The HTML output embeds its styling and
inline SVG charts directly (no scripts, no external resources), so the
file opens anywhere and can ride as a CI artifact.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.errors import TelemetryError
from repro.telemetry.bus import TelemetryPayload

_BLOCKS = "▁▂▃▄▅▆▇█"


#: Widest sparkline, in characters; longer series are bucket-averaged.
SPARKLINE_WIDTH = 32
#: Size, in pixels, of a dashboard chart.
_CHART_WIDTH, _CHART_HEIGHT = 360, 64


def sparkline(values: Sequence[float]) -> str:
    """A block-character sparkline of ``values``, at most :data:`SPARKLINE_WIDTH` wide."""
    width = SPARKLINE_WIDTH
    data = np.asarray(list(values), dtype=np.float64)
    data = data[np.isfinite(data)]
    if data.size == 0:
        return ""
    if data.size > width:
        # Bucket means preserve shape better than strided picks.
        edges = np.linspace(0, data.size, width + 1).astype(np.int64)
        data = np.asarray(
            [data[lo:hi].mean() if hi > lo else data[min(lo, data.size - 1)]
             for lo, hi in zip(edges[:-1], edges[1:])]
        )
    low, high = float(data.min()), float(data.max())
    if high <= low:
        return _BLOCKS[0] * data.size
    scaled = (data - low) / (high - low) * (len(_BLOCKS) - 1)
    return "".join(_BLOCKS[int(round(level))] for level in scaled)


def render_summary(payload: TelemetryPayload, title: str = "") -> str:
    """A terminal table: one sparkline row per series."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'series':<34} {'kind':<7} {'n':>5} {'last':>12}  trend"
    lines.append(header)
    lines.append("-" * len(header))
    for index, name in enumerate(payload.names):
        values = payload.values[index]
        last = f"{values[-1]:.6g}" if values.size else "-"
        lines.append(
            f"{name:<34} {payload.kinds[index]:<7} {values.size:>5} "
            f"{last:>12}  {sparkline(values)}"
        )
    if payload.anomalies:
        lines.append("")
        lines.append(f"anomalies ({len(payload.anomalies)}):")
        for event in payload.anomalies:
            lines.append(
                f"  t={event.time:.3f}s {event.kind:<5} {event.series} "
                f"value={event.value:.6g} expected={event.expected:.6g}"
            )
    dumps = payload.meta.get("flight_dumps") or []
    if dumps:
        lines.append("")
        lines.append(f"flight dumps ({len(dumps)}):")
        for dump in dumps:
            lines.append(
                f"  {dump.get('reason', '?')} at t={dump.get('tripped_at', 0.0):.3f}s "
                f"({len(dump.get('events', []))} events)"
            )
    return "\n".join(lines)


def _svg_chart(times: np.ndarray, values: np.ndarray) -> str:
    """One inline SVG polyline chart for a series."""
    width, height = _CHART_WIDTH, _CHART_HEIGHT
    if values.size == 0:
        return f'<svg width="{width}" height="{height}"></svg>'
    t_low, t_high = float(times.min()), float(times.max())
    v_low, v_high = float(values.min()), float(values.max())
    t_span = (t_high - t_low) or 1.0
    v_span = (v_high - v_low) or 1.0
    points = " ".join(
        f"{(float(t) - t_low) / t_span * (width - 4) + 2:.1f},"
        f"{height - 2 - (float(v) - v_low) / v_span * (height - 4):.1f}"
        for t, v in zip(times, values)
    )
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#2b6cb0" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


_PAGE_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2em;
       background: #fafafa; color: #1a202c; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 2em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #cbd5e0; padding: 4px 10px; text-align: left;
         font-size: 0.85em; vertical-align: middle; }
th { background: #edf2f7; }
.anomaly { color: #c53030; }
.meta { color: #4a5568; font-size: 0.85em; }
"""


def render_dashboard(
    payloads: Mapping[str, TelemetryPayload], title: str = "Telemetry dashboard"
) -> str:
    """A self-contained HTML dashboard over one or more cell payloads."""
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_PAGE_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    for key, payload in payloads.items():
        parts.append(f"<h2>cell {html.escape(str(key))}</h2>")
        meta = ", ".join(
            f"{name}={value}" for name, value in payload.meta.items()
            if name != "flight_dumps"
        )
        if meta:
            parts.append(f'<p class="meta">{html.escape(meta)}</p>')
        parts.append(
            "<table><tr><th>series</th><th>kind</th><th>tier</th>"
            "<th>samples</th><th>last</th><th>trend</th></tr>"
        )
        for index, name in enumerate(payload.names):
            values = payload.values[index]
            last = f"{values[-1]:.6g}" if values.size else "-"
            parts.append(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{payload.kinds[index]}</td>"
                f"<td>{html.escape(name.partition('.')[0])}</td>"
                f"<td>{values.size}</td><td>{last}</td>"
                f"<td>{_svg_chart(payload.times[index], values)}</td></tr>"
            )
        parts.append("</table>")
        if payload.anomalies:
            parts.append(f"<h2>anomalies ({len(payload.anomalies)})</h2><ul>")
            for event in payload.anomalies:
                parts.append(
                    f'<li class="anomaly">t={event.time:.3f}s {event.kind} on '
                    f"{html.escape(event.series)}: value={event.value:.6g}, "
                    f"expected={event.expected:.6g}</li>"
                )
            parts.append("</ul>")
        dumps = payload.meta.get("flight_dumps") or []
        if dumps:
            parts.append(f"<h2>flight dumps ({len(dumps)})</h2><ul>")
            for dump in dumps:
                parts.append(
                    f"<li>{html.escape(str(dump.get('reason', '?')))} at "
                    f"t={dump.get('tripped_at', 0.0):.3f}s "
                    f"({len(dump.get('events', []))} events)</li>"
                )
            parts.append("</ul>")
    parts.append("</body></html>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# on-disk report format (what --telemetry-out writes and dashboard reads)
# ----------------------------------------------------------------------
def report_to_json_dict(
    cells: Sequence[Tuple[Any, TelemetryPayload]]
) -> Dict[str, Any]:
    """Serialise ``(cell key, payload)`` pairs (keys stringified)."""
    return {
        "format": "repro-telemetry-report",
        "version": 1,
        "cells": [
            {"key": str(key), "payload": payload.to_json_dict()}
            for key, payload in cells
        ],
    }


def report_from_json_dict(
    data: Mapping[str, Any]
) -> List[Tuple[str, TelemetryPayload]]:
    """Parse :func:`report_to_json_dict` output (loud on wrong format)."""
    if data.get("format") != "repro-telemetry-report":
        raise TelemetryError(
            "not a telemetry report (expected format='repro-telemetry-report')"
        )
    return [
        (entry["key"], TelemetryPayload.from_json_dict(entry["payload"]))
        for entry in data.get("cells", ())
    ]


def save_report(
    path: Union[str, Path], cells: Sequence[Tuple[Any, TelemetryPayload]]
) -> Path:
    """Write a telemetry report JSON file; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report_to_json_dict(cells), indent=2), encoding="utf-8"
    )
    return path


def load_report(path: Union[str, Path]) -> List[Tuple[str, TelemetryPayload]]:
    """Read a telemetry report JSON file back into payloads."""
    path = Path(path)
    if not path.exists():
        raise TelemetryError(f"telemetry report not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"telemetry report is not valid JSON: {exc}") from exc
    return report_from_json_dict(data)
