"""Plain-text rendering for timelines and GPU traces.

Terminal-friendly views of what a run did: sparkline-style series (the
Figure-13 panels), and Gantt strips of per-GPU batch executions (the
tracer's ``batch.executed`` events, e.g.
``TraceBuffer.by_kind(BATCH_EXECUTED)``).  No plotting dependencies;
everything renders to strings.
"""

from __future__ import annotations

import math

from .collector import TimeSeries

__all__ = ["render_series", "render_gantt", "render_figure13"]

_BARS = " .:-=+*#%@"


def render_series(
    series: TimeSeries,
    title: str = "",
    width: int | None = None,
    value_format: str = "{:.1f}",
) -> str:
    """Render a time series as one line of density characters.

    Values are scaled to the series' own min/max; the line is annotated
    with the range so absolute levels stay readable.
    """
    values = series.values
    if not values:
        return f"{title}: (empty)"
    if width is not None and width < len(values):
        # Downsample by averaging buckets.
        bucket = len(values) / width
        values = [
            sum(values[int(i * bucket):max(int((i + 1) * bucket), int(i * bucket) + 1)])
            / max(1, len(values[int(i * bucket):max(int((i + 1) * bucket), int(i * bucket) + 1)]))
            for i in range(width)
        ]
    lo, hi = min(values), max(values)
    span = hi - lo
    chars = []
    for v in values:
        frac = 0.0 if span <= 0 else (v - lo) / span
        chars.append(_BARS[min(len(_BARS) - 1, int(frac * (len(_BARS) - 1)))])
    lo_s = value_format.format(lo)
    hi_s = value_format.format(hi)
    label = f"{title} " if title else ""
    return f"{label}[{lo_s}..{hi_s}] {''.join(chars)}"


def render_figure13(workload: TimeSeries, gpus: TimeSeries,
                    bad_rate: TimeSeries) -> str:
    """The three Figure-13 panels as aligned text rows."""
    lines = [
        render_series(workload, title="workload r/s"),
        render_series(gpus, title="GPUs        ", value_format="{:.0f}"),
        render_series(bad_rate, title="bad rate    ",
                      value_format="{:.3f}"),
    ]
    return "\n".join(lines)


def render_gantt(
    spans,
    start_ms: float | None = None,
    end_ms: float | None = None,
    width: int = 80,
) -> str:
    """Render ``batch.executed`` events as one text strip per GPU.

    A span is read through ``ts_ms`` / ``end_ms`` / ``gpu_id`` /
    ``session_id``.  Each GPU row shows letters identifying sessions
    (assigned in first-seen order), ``.`` for idle time, with a legend
    mapping letters to session ids.  Overlapping spans on one GPU would
    indicate a scheduler bug and raise ValueError.
    """
    spans = sorted(spans, key=lambda s: (s.gpu_id, s.ts_ms))
    if not spans:
        return "(no spans)"
    t0 = start_ms if start_ms is not None else min(s.ts_ms for s in spans)
    t1 = end_ms if end_ms is not None else max(s.end_ms for s in spans)
    if t1 <= t0:
        raise ValueError(f"empty window [{t0}, {t1}]")
    scale = width / (t1 - t0)

    letters: dict[str, str] = {}

    def letter(session_id: str) -> str:
        if session_id not in letters:
            alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
            letters[session_id] = alphabet[len(letters) % len(alphabet)]
        return letters[session_id]

    rows: dict[int, list[str]] = {}
    last_end: dict[int, float] = {}
    for span in spans:
        if span.end_ms <= t0 or span.ts_ms >= t1:
            continue
        if span.gpu_id in last_end and span.ts_ms < last_end[span.gpu_id] - 1e-6:
            raise ValueError(
                f"overlapping spans on gpu{span.gpu_id} at {span.ts_ms}"
            )
        last_end[span.gpu_id] = span.end_ms
        row = rows.setdefault(span.gpu_id, ["."] * width)
        a = max(0, int((span.ts_ms - t0) * scale))
        b = min(width, max(a + 1, int(math.ceil((span.end_ms - t0) * scale))))
        ch = letter(span.session_id)
        for i in range(a, b):
            row[i] = ch

    lines = [f"gpu{gpu_id:<3d} |{''.join(row)}|"
             for gpu_id, row in sorted(rows.items())]
    legend = ", ".join(f"{v}={k}" for k, v in letters.items())
    lines.append(f"legend: {legend}")
    lines.append(f"window: {t0:.0f}..{t1:.0f} ms")
    return "\n".join(lines)
