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
from typing import Dict, Mapping, Optional

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
        #: ``(timestamp, queries)`` per recorded batch inside the window, and
        #: the running sum of their counts.
        self._recent: deque = deque()
        self._recent_total = 0
        self._batches = 0
        self._batch_seconds = 0.0

    # ------------------------------------------------------------------
    def record_queries(
        self, stage_counts: Mapping[str, int], latency_seconds: float, cache_hits: int = 0
    ) -> None:
        """Record one served batch: ``stage_counts`` maps each answering stage
        to how many of the batch's queries it answered, ``latency_seconds`` is
        the per-query (amortised) latency they all share.

        One lock, one weighted histogram sample and one window entry per
        batch, whatever its size.
        """
        served = sum(stage_counts.values())
        now = self._clock()
        with self._lock:
            self._served += served
            self._cache_hits += cache_hits
            by_stage = self._by_stage
            for stage, count in stage_counts.items():
                by_stage[stage] = by_stage.get(stage, 0) + count
            self._latency.record(latency_seconds, served)
            self._recent.append((now, served))
            self._recent_total += served
            self._trim(now)
        if obs.is_enabled():
            registry = obs.registry()
            for stage, count in stage_counts.items():
                registry.counter(
                    "repro_serving_queries_total", "Queries served, by answering stage",
                    stage=stage,
                ).inc(count)
            if cache_hits:
                registry.counter(
                    "repro_serving_cache_hits_total", "Queries answered from the cache"
                ).inc(cache_hits)
            registry.histogram(
                "repro_serving_latency_seconds", "Per-query response time"
            ).record(latency_seconds, served)

    def record_query(self, stage: str, latency_seconds: float, from_cache: bool = False) -> None:
        """One served query: :meth:`record_queries` with a batch of one."""
        self.record_queries({stage: 1}, latency_seconds, int(from_cache))

    def _trim(self, now: float) -> None:
        """Drop window entries older than the window (caller holds the lock)."""
        cutoff = now - self._window
        recent = self._recent
        while recent and recent[0][0] < cutoff:
            self._recent_total -= recent.popleft()[1]

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

        Stale entries are trimmed here as well as on recording, so an idle
        engine releases the window's memory and repeated ``qps`` calls don't
        rescan entries that can never count again.
        """
        window = window_seconds if window_seconds is not None else self._window
        now = self._clock()
        with self._lock:
            self._trim(now)
            if window >= self._window:
                recent = self._recent_total
            else:
                query_cutoff = now - window
                recent = sum(n for t, n in self._recent if t >= query_cutoff)
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
