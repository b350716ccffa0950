"""How the ledger turns samples into one number: medians, never a best-of.

Every gated timing is the **median** of what the run measured -- of the
requests of a phase, of the repetitions of a simulated run, of the
per-window values of a tail percentile.  A tail (p99) is taken per
window and the median window is reported: one host hiccup lands in one
window and does not move the median, while a stall that recurs (garbage
collection over retained records, the re-plan on the serving loop) is in
most windows and does.  Nothing here picks the quietest window, the
fastest repetition or the best of N; a regression has to reach only half
of a run to show.

Shares of operations (``ok_share``) are whole-phase counts, ok / sent.
"""

from __future__ import annotations

import numpy as np

__all__ = ["metric", "windows", "window_stat"]


def metric(value: float, unit: str, n: int | None = None,
           what: str | None = None) -> dict:
    """One reported number: value, unit, the samples behind it and, for a
    manifest role, the workload's own name for what fills it."""
    out = {"value": float(value), "unit": unit}
    if n is not None:
        out["n"] = int(n)
    if what is not None:
        out["what"] = what
    return out


def windows(times: np.ndarray, start: float, width: float, count: int) -> list[np.ndarray]:
    """Boolean masks of ``count`` consecutive windows over ``times``."""
    return [
        (times >= start + k * width) & (times < start + (k + 1) * width)
        for k in range(count)
    ]


def window_stat(values: np.ndarray, masks: list[np.ndarray], pct: float) -> list[float]:
    """The ``pct`` percentile of ``values`` in each non-empty window."""
    out = []
    for mask in masks:
        window = values[mask]
        window = window[~np.isnan(window)]
        if window.size:
            out.append(float(np.percentile(window, pct)))
    return out
