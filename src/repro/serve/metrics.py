"""Live metrics for the serve daemon.

Everything the ``/metrics`` endpoint reports is accumulated here: request
counters (accepted / completed / failed / rejected-by-reason, and rows
answered ``inline`` on the event loop or ``queued`` for the worker),
connections accepted, queue and in-flight gauges, per-kind latency
histograms, queue-wait latency (queued rows only), and the compile-cache
counters folded in from the
workers' per-request :class:`~repro.exec.cache.CacheStats` deltas — the
*real* counters (see ``repro.exec.workload.execute_with_stats``), so
daemon hit rates match what :attr:`CompileCache.stats` would say, eviction
counts included.

Histograms are Prometheus-shaped: cumulative ``le`` buckets over seconds,
plus ``count`` and ``sum``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.exec.workload import merge_cache_stats, zero_cache_stats

#: Upper bounds (seconds) of the latency buckets; +Inf is implicit.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Reasons a submit can be rejected (mirrors the admission errors).
REJECT_REASONS = ("queue_full", "draining", "oversize", "bad_request")


class LatencyHistogram:
    """Fixed-bucket latency histogram (seconds)."""

    __slots__ = ("bounds", "counts", "count", "sum_seconds")

    def __init__(self, bounds=DEFAULT_BUCKETS):
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last slot = +Inf
        self.count = 0
        self.sum_seconds = 0.0

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self.count += 1
        self.sum_seconds += seconds
        for slot, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[slot] += 1
                return
        self.counts[-1] += 1

    def as_dict(self) -> Dict[str, object]:
        buckets: Dict[str, int] = {}
        running = 0
        for bound, hits in zip(self.bounds, self.counts):
            running += hits
            buckets[f"{bound:g}"] = running
        buckets["+Inf"] = running + self.counts[-1]
        return {
            "count": self.count,
            "sum_seconds": round(self.sum_seconds, 6),
            "buckets": buckets,
        }


class ServeMetrics:
    """One daemon's counters; snapshotted by ``/metrics`` and ``/healthz``."""

    def __init__(self):
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self.accepted = 0
        self.completed = 0
        self.failed = 0
        self.rejected: Dict[str, int] = {reason: 0 for reason in REJECT_REASONS}
        #: Rows answered on the event loop, and rows answered by the worker.
        self.inline = 0
        self.queued = 0
        self.in_flight = 0
        #: Connections accepted (a kept-alive connection counts once).
        self.connections = 0
        self.queue_wait = LatencyHistogram()
        self.request_latency: Dict[str, LatencyHistogram] = {}
        self.cache_stats = zero_cache_stats()
        #: Startup warming provenance: disk scan + warmup-spec replay.
        self.warm: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_accepted(self, count: int) -> None:
        self.accepted += int(count)

    def record_rejected(self, reason: str, count: int = 1) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + int(count)

    def record_queue_wait(self, seconds: float) -> None:
        self.queue_wait.observe(seconds)

    def record_request(self, kind: str, seconds: float, ok: bool, *, inline: bool = False) -> None:
        if inline:
            self.inline += 1
        else:
            self.queued += 1
        histogram = self.request_latency.get(kind)
        if histogram is None:
            histogram = self.request_latency[kind] = LatencyHistogram()
        histogram.observe(seconds)
        if ok:
            self.completed += 1
        else:
            self.failed += 1

    def record_cache_delta(self, delta: Optional[Dict[str, int]]) -> None:
        if delta:
            merge_cache_stats(self.cache_stats, delta)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> Optional[float]:
        hits = self.cache_stats["memo_hits"] + self.cache_stats["disk_hits"]
        lookups = hits + self.cache_stats["misses"]
        if lookups == 0:
            return None
        return hits / lookups

    def snapshot(
        self,
        *,
        queue_depth: int,
        draining: bool,
        jobs: int,
    ) -> Dict[str, object]:
        hit_rate = self.cache_hit_rate
        return {
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
            "draining": bool(draining),
            "jobs": int(jobs),
            "queue_depth": int(queue_depth),
            "in_flight": int(self.in_flight),
            "connections": self.connections,
            "requests": {
                "accepted": self.accepted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": dict(self.rejected),
                "inline": self.inline,
                "queued": self.queued,
            },
            "queue_wait": self.queue_wait.as_dict(),
            "latency": {
                kind: histogram.as_dict()
                for kind, histogram in sorted(self.request_latency.items())
            },
            "cache": {
                **dict(self.cache_stats),
                "hit_rate": None if hit_rate is None else round(hit_rate, 6),
            },
            "warm": dict(self.warm),
        }
