"""Metrics collection: request outcomes, goodput, utilization, timelines.

Everything the evaluation reports reduces to per-request outcome records:
the paper's *throughput* is the max offered rate with >= 99% of requests
served within SLO; the *bad rate* is the complement; Figure 13 plots
windowed workload / GPU usage / bad-rate series.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

__all__ = ["RequestRecord", "MetricsCollector", "TimeSeries"]

#: summary-mode latency histogram: 0.1 ms .. ~100 s in 5% steps.
_HIST_BASE_MS = 0.1
_HIST_GROWTH = 1.05
_LOG_HIST_GROWTH = math.log(_HIST_GROWTH)
_HIST_BUCKETS = 284
_log = math.log


@dataclass(slots=True)
class RequestRecord:
    """Outcome of one request (or one whole query)."""

    request_id: int
    session_id: str
    arrival_ms: float
    deadline_ms: float
    completion_ms: float | None  # None = dropped
    dropped: bool = False

    @property
    def ok(self) -> bool:
        return (
            not self.dropped
            and self.completion_ms is not None
            and self.completion_ms <= self.deadline_ms
        )

    @property
    def latency_ms(self) -> float | None:
        if self.completion_ms is None:
            return None
        return self.completion_ms - self.arrival_ms


@dataclass
class TimeSeries:
    """Windowed time series: (window start, value) pairs."""

    window_ms: float
    times_ms: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.times_ms, self.values))


class MetricsCollector:
    """Accumulates request records and derives the paper's metrics.

    ``keep_records=False`` switches to *summary mode*, which megascale
    runs and the live serving plane use: instead of retaining every
    :class:`RequestRecord` (gigabytes at 10k GPUs, unbounded on a
    long-lived server), the collector folds each record into running
    counters, per-session stats, and a log-spaced latency histogram at
    record time.  Timeline methods that need raw records
    (:meth:`workload_series`, :meth:`bad_rate_series`) raise
    ``ValueError`` in summary mode; everything scalar (totals, rates,
    goodput, approximate percentiles) keeps working.  ``min_arrival_ms``
    drops warmup-window arrivals at record time (summary mode cannot
    filter after the fact).
    """

    def __init__(
        self, keep_records: bool = True, min_arrival_ms: float = 0.0
    ) -> None:
        self.keep_records = keep_records
        self.min_arrival_ms = min_arrival_ms
        self.records: list[RequestRecord] = []
        self.gpu_busy_ms: dict[int, float] = {}
        self._gpu_count_samples: list[tuple[float, int]] = []
        # Summary-mode accumulators.  Each session counts its outcomes in
        # one fixed [ok, dropped, late] list; totals are sums over
        # sessions at read time.
        self._session_stats: dict[str, list[int]] = {}
        self._first_arrival_ms = math.inf
        self._last_completion_ms = -math.inf
        self._latency_hist = [0] * (_HIST_BUCKETS + 1)

    # -------------------------------------------------------------- feeding

    def record(self, rec: RequestRecord) -> None:
        arrival = rec.arrival_ms
        if arrival < self.min_arrival_ms:
            return
        if self.keep_records:
            self.records.append(rec)
            return
        # The summary fold runs once per request per collector -- twice
        # per live request -- so ``ok`` and ``latency_ms`` are inlined,
        # each outcome bumps exactly one session counter, and an outcome
        # with no latency returns before the histogram.
        if arrival < self._first_arrival_ms:
            self._first_arrival_ms = arrival
        session = self._session_stats.get(rec.session_id)
        if session is None:
            session = self._session_stats[rec.session_id] = [0, 0, 0]
        completion = rec.completion_ms
        if completion is None:
            if arrival > self._last_completion_ms:
                self._last_completion_ms = arrival
            session[1 if rec.dropped else 2] += 1
            return
        if completion > self._last_completion_ms:
            self._last_completion_ms = completion
        if rec.dropped:
            session[1] += 1
        elif completion <= rec.deadline_ms:
            session[0] += 1
        else:
            session[2] += 1
        lat = completion - arrival
        if lat <= _HIST_BASE_MS:
            self._latency_hist[0] += 1
        else:
            bucket = int(_log(lat / _HIST_BASE_MS) / _LOG_HIST_GROWTH) + 1
            self._latency_hist[
                bucket if bucket < _HIST_BUCKETS else _HIST_BUCKETS
            ] += 1

    def record_gpu_busy(self, gpu_id: int, busy_ms: float) -> None:
        self.gpu_busy_ms[gpu_id] = self.gpu_busy_ms.get(gpu_id, 0.0) + busy_ms

    def sample_gpu_count(self, time_ms: float, count: int) -> None:
        self._gpu_count_samples.append((time_ms, count))

    # ------------------------------------------------------------- summary

    def _folded(self, outcome: int) -> int:
        """Summary mode: one outcome's count summed over sessions."""
        return sum(s[outcome] for s in self._session_stats.values())

    @property
    def total(self) -> int:
        if not self.keep_records:
            return sum(map(sum, self._session_stats.values()))
        return len(self.records)

    @property
    def ok_count(self) -> int:
        if not self.keep_records:
            return self._folded(0)
        return sum(1 for r in self.records if r.ok)

    @property
    def dropped_count(self) -> int:
        if not self.keep_records:
            return self._folded(1)
        return sum(1 for r in self.records if r.dropped)

    @property
    def late_count(self) -> int:
        if not self.keep_records:
            return self._folded(2)
        return sum(
            1 for r in self.records if not r.dropped and not r.ok
        )

    @property
    def good_rate(self) -> float:
        if not self.total:
            return 1.0
        return self.ok_count / self.total

    @property
    def bad_rate(self) -> float:
        return 1.0 - self.good_rate

    def goodput_rps(self, span_ms: float | None = None) -> float:
        if not self.total:
            return 0.0
        if span_ms is None:
            if self.keep_records:
                start = min(r.arrival_ms for r in self.records)
                end = max(
                    r.completion_ms or r.arrival_ms for r in self.records
                )
            else:
                start = self._first_arrival_ms
                end = self._last_completion_ms
            span_ms = max(end - start, 1e-9)
        return self.ok_count / span_ms * 1000.0

    def latency_percentile(self, pct: float) -> float:
        """Latency percentile over served (not dropped) requests.

        Exact over retained records; in summary mode, the upper edge of
        the log-spaced histogram bucket holding the percentile (<= 5%
        relative error).
        """
        if not 0 <= pct <= 100:
            raise ValueError(f"pct must be in [0, 100], got {pct}")
        if not self.keep_records:
            n = sum(self._latency_hist)
            if not n:
                return math.nan
            rank = max(1, int(math.ceil(pct / 100.0 * n)))
            seen = 0
            for bucket, count in enumerate(self._latency_hist):
                seen += count
                if seen >= rank:
                    return _HIST_BASE_MS * _HIST_GROWTH ** bucket
            return _HIST_BASE_MS * _HIST_GROWTH ** _HIST_BUCKETS
        lats = sorted(
            r.latency_ms for r in self.records if r.latency_ms is not None
        )
        if not lats:
            return math.nan
        idx = min(len(lats) - 1, int(math.ceil(pct / 100.0 * len(lats))) - 1)
        return lats[max(0, idx)]

    @property
    def latency_histogram(self) -> tuple[int, ...]:
        """Summary mode's latency bucket counts (all zero with records
        kept): bucket 0 holds latencies <= 0.1 ms, bucket ``k`` those up
        to ``0.1 * 1.05 ** k`` ms."""
        return tuple(self._latency_hist)

    def utilization(self, num_gpus: int, span_ms: float) -> float:
        if num_gpus <= 0 or span_ms <= 0:
            return 0.0
        busy = sum(self.gpu_busy_ms.values())
        return min(1.0, busy / (num_gpus * span_ms))

    # ------------------------------------------------------------ timelines

    def _sorted_by_arrival(self) -> list[RequestRecord]:
        if not self.keep_records:
            raise ValueError(
                "record timelines are unavailable in summary mode "
                "(keep_records=False retains no per-request records)"
            )
        return sorted(self.records, key=lambda r: r.arrival_ms)

    def workload_series(self, window_ms: float, end_ms: float) -> TimeSeries:
        """Offered requests/second per window (Figure 13 top panel)."""
        series = TimeSeries(window_ms)
        recs = self._sorted_by_arrival()
        arrivals = [r.arrival_ms for r in recs]
        t = 0.0
        while t < end_ms:
            lo = bisect.bisect_left(arrivals, t)
            hi = bisect.bisect_left(arrivals, t + window_ms)
            series.times_ms.append(t)
            series.values.append((hi - lo) / window_ms * 1000.0)
            t += window_ms
        return series

    def bad_rate_series(self, window_ms: float, end_ms: float) -> TimeSeries:
        """Bad rate per window (Figure 13 bottom panel)."""
        series = TimeSeries(window_ms)
        recs = self._sorted_by_arrival()
        arrivals = [r.arrival_ms for r in recs]
        t = 0.0
        while t < end_ms:
            lo = bisect.bisect_left(arrivals, t)
            hi = bisect.bisect_left(arrivals, t + window_ms)
            window = recs[lo:hi]
            bad = sum(1 for r in window if not r.ok)
            series.times_ms.append(t)
            series.values.append(bad / len(window) if window else 0.0)
            t += window_ms
        return series

    def gpu_count_series(self, window_ms: float, end_ms: float) -> TimeSeries:
        """GPUs allocated over time (Figure 13 middle panel)."""
        series = TimeSeries(window_ms)
        samples = sorted(self._gpu_count_samples)
        t = 0.0
        current = samples[0][1] if samples else 0
        idx = 0
        while t < end_ms:
            while idx < len(samples) and samples[idx][0] <= t:
                current = samples[idx][1]
                idx += 1
            series.times_ms.append(t)
            series.values.append(float(current))
            t += window_ms
        return series

    def per_session_stats(self) -> dict[str, dict[str, float]]:
        """Per-session totals: count, ok, dropped, bad rate."""
        out: dict[str, dict[str, float]] = {}
        if not self.keep_records:
            for sid, (ok, dropped, late) in self._session_stats.items():
                total = ok + dropped + late
                out[sid] = {
                    "total": total, "ok": ok, "dropped": dropped,
                    "late": late,
                    "bad_rate": 1.0 - (ok / total if total else 1.0),
                }
            return out
        for rec in self.records:
            s = out.setdefault(
                rec.session_id,
                {"total": 0, "ok": 0, "dropped": 0, "late": 0},
            )
            s["total"] += 1
            if rec.ok:
                s["ok"] += 1
            elif rec.dropped:
                s["dropped"] += 1
            else:
                s["late"] += 1
        for s in out.values():
            s["bad_rate"] = 1.0 - (s["ok"] / s["total"] if s["total"] else 1.0)
        return out
