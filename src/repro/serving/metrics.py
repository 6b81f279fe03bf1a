"""Serving-side observability: QPS counters and latency histograms.

The throughput experiments report the *analytic* maximum sustainable rate
``λ*_q`` (``repro.throughput.qos``); the serving engine complements it with
*measured* figures — queries actually served per second and p50/p95/p99
response-time quantiles — so the two can be cross-checked (``exp9``).

:class:`ServingMetrics` keeps its latencies in the shared
:class:`repro.obs.metrics.Histogram` (1 µs – 10 s, 10 buckets per decade);
when ``repro.obs`` is enabled it additionally mirrors every recorded event
into the process-wide metric registry (``repro_serving_*`` series), so the
legacy :meth:`ServingMetrics.snapshot` and the registry always agree.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, Optional

from repro import obs
from repro.obs.metrics import Histogram


class ServingMetrics:
    """Thread-safe counters for one :class:`~repro.serving.engine.ServingEngine`.

    Tracks served/shed query counts, a per-stage breakdown (which query stage
    actually answered — the live counterpart of the paper's Figure 13), cache
    accounting, maintenance batches, and a latency histogram.  ``qps`` is the
    served rate over a sliding window; ``lifetime_qps`` over the whole run.
    """

    def __init__(self, clock=time.monotonic, window_seconds: float = 2.0) -> None:
        self._clock = clock
        self._window = window_seconds
        self._lock = threading.Lock()
        self._started = clock()
        self._served = 0
        self._shed = 0
        self._cache_hits = 0
        self._by_stage: Dict[str, int] = {}
        self._latency = Histogram(min_value=1e-6, max_value=10.0, buckets_per_decade=10)
        self._recent: deque = deque()
        self._batches = 0
        self._batch_seconds = 0.0

    # ------------------------------------------------------------------
    def record_query(self, stage: str, latency_seconds: float, from_cache: bool = False) -> None:
        now = self._clock()
        with self._lock:
            self._served += 1
            if from_cache:
                self._cache_hits += 1
            self._by_stage[stage] = self._by_stage.get(stage, 0) + 1
            self._latency.record(latency_seconds)
            self._recent.append(now)
            cutoff = now - self._window
            while self._recent and self._recent[0] < cutoff:
                self._recent.popleft()
        if obs.is_enabled():
            registry = obs.registry()
            registry.counter(
                "repro_serving_queries_total", "Queries served, by answering stage",
                stage=stage,
            ).inc()
            if from_cache:
                registry.counter(
                    "repro_serving_cache_hits_total", "Queries answered from the cache"
                ).inc()
            registry.histogram(
                "repro_serving_latency_seconds", "Per-query response time"
            ).record(latency_seconds)

    def record_shed(self) -> None:
        with self._lock:
            self._shed += 1
        if obs.is_enabled():
            obs.registry().counter(
                "repro_serving_queries_shed_total", "Queries shed by admission control"
            ).inc()

    def record_batch(self, wall_seconds: float) -> None:
        with self._lock:
            self._batches += 1
            self._batch_seconds += wall_seconds
        if obs.is_enabled():
            registry = obs.registry()
            registry.counter(
                "repro_serving_maintenance_batches_total", "Installed update batches"
            ).inc()
            registry.histogram(
                "repro_serving_maintenance_seconds", "Wall time per installed batch"
            ).record(wall_seconds)

    # ------------------------------------------------------------------
    @property
    def queries_served(self) -> int:
        with self._lock:
            return self._served

    @property
    def queries_shed(self) -> int:
        with self._lock:
            return self._shed

    def qps(self, window_seconds: Optional[float] = None) -> float:
        """Served queries per second over the sliding window.

        Stale timestamps are trimmed here as well as in ``record_query``, so
        an idle engine releases the window's memory and repeated ``qps``
        calls don't rescan entries that can never count again.
        """
        window = window_seconds if window_seconds is not None else self._window
        now = self._clock()
        with self._lock:
            cutoff = now - self._window
            while self._recent and self._recent[0] < cutoff:
                self._recent.popleft()
            if window >= self._window:
                recent = len(self._recent)
            else:
                query_cutoff = now - window
                recent = sum(1 for t in self._recent if t >= query_cutoff)
        return recent / window if window > 0 else 0.0

    def lifetime_qps(self) -> float:
        elapsed = self._clock() - self._started
        with self._lock:
            served = self._served
        return served / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            attempted = self._served + self._shed
            return {
                "queries_served": self._served,
                "queries_shed": self._shed,
                "shed_fraction": self._shed / attempted if attempted else 0.0,
                "cache_hits": self._cache_hits,
                "by_stage": dict(self._by_stage),
                "batches_applied": self._batches,
                "maintenance_seconds": self._batch_seconds,
                "latency": self._latency_snapshot(),
            }

    def _latency_snapshot(self) -> Dict[str, object]:
        """The latency histogram under second-suffixed keys (caller holds the lock)."""
        latency = self._latency
        return {
            "count": float(latency.count),
            "mean_seconds": latency.mean,
            "min_seconds": latency.min,
            "p50_seconds": latency.quantile(0.50),
            "p95_seconds": latency.quantile(0.95),
            "p99_seconds": latency.quantile(0.99),
            "max_seconds": latency.max,
            "bucket_bounds": latency.bucket_bounds(),
            "bucket_counts": latency.bucket_counts(),
        }
