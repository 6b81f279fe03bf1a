"""Serving-side observability: QPS counters and latency histograms.

The throughput experiments report the *analytic* maximum sustainable rate
``λ*_q`` (``repro.throughput.qos``); the serving engine complements it with
*measured* figures — queries actually served per second and p50/p95/p99
response-time quantiles — so the two can be cross-checked (``exp9``).

:class:`ServingMetrics` records every count into :mod:`repro.obs.metrics`
instruments it owns, and :meth:`ServingMetrics.snapshot` reads them.  With
``repro.obs`` enabled the engine installs the same instruments as the
registry's ``repro_serving_*`` series (:meth:`ServingMetrics.install`), so the
two views cannot disagree.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, Mapping, Optional

from repro.obs.metrics import Counter, Histogram, LabeledCounter, MetricRegistry


class ServingMetrics:
    """Thread-safe counters for one serving engine.

    Tracks served/shed query counts, a per-stage breakdown (which query stage
    actually answered — the live counterpart of the paper's Figure 13), cache
    accounting, maintenance batches, and a latency histogram.  ``qps`` is the
    served rate over a sliding window; ``lifetime_qps`` over the whole run.
    """

    def __init__(self, clock=time.monotonic, window_seconds: float = 2.0) -> None:
        self._clock = clock
        self._window = window_seconds
        #: Guards the sliding window and the (lock-free) latency histogram.
        self._lock = threading.Lock()
        self._started = clock()
        self._queries = LabeledCounter("repro_serving_queries_total", "stage")
        self._shed = Counter("repro_serving_queries_shed_total")
        self._cache_hits = Counter("repro_serving_cache_hits_total")
        self._latency = Histogram(name="repro_serving_latency_seconds")
        self._batches = Counter("repro_serving_maintenance_batches_total")
        self._maintenance = Histogram(
            name="repro_serving_maintenance_seconds", thread_safe=True
        )
        #: ``(timestamp, queries)`` per recorded batch inside the window, and
        #: the running sum of their counts.
        self._recent: deque = deque()
        self._recent_total = 0

    def install(self, registry: MetricRegistry) -> None:
        """Expose these instruments as the registry's ``repro_serving_*`` series."""
        registry.install(self._queries, "Queries served, by answering stage")
        registry.install(self._shed, "Queries shed by admission control")
        registry.install(self._cache_hits, "Queries answered from the cache")
        registry.install(self._latency, "Per-query response time")
        registry.install(self._batches, "Installed update batches")
        registry.install(self._maintenance, "Wall time per installed batch")

    # ------------------------------------------------------------------
    def record_queries(
        self, stage_counts: Mapping[str, int], latency_seconds: float, cache_hits: int = 0
    ) -> None:
        """Record one served batch: ``stage_counts`` maps each answering stage
        to how many of the batch's queries it answered, ``latency_seconds`` is
        the per-query (amortised) latency they all share.

        One weighted histogram sample and one window entry per batch,
        whatever its size.
        """
        served = 0
        for stage, count in stage_counts.items():
            self._queries.labels(stage).inc(count)
            served += count
        if cache_hits:
            self._cache_hits.inc(cache_hits)
        now = self._clock()
        with self._lock:
            self._latency.record(latency_seconds, served)
            self._recent.append((now, served))
            self._recent_total += served
            self._trim(now)

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
        self._shed.inc()

    def record_batch(self, wall_seconds: float) -> None:
        self._batches.inc()
        self._maintenance.record(wall_seconds)

    # ------------------------------------------------------------------
    @property
    def queries_served(self) -> int:
        return int(self._queries.value)

    @property
    def queries_shed(self) -> int:
        return int(self._shed.value)

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
        return self.queries_served / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> Dict[str, object]:
        served, shed = self.queries_served, self.queries_shed
        attempted = served + shed
        with self._lock:
            latency = self._latency_snapshot()
        return {
            "queries_served": served,
            "queries_shed": shed,
            "shed_fraction": shed / attempted if attempted else 0.0,
            "cache_hits": int(self._cache_hits.value),
            "by_stage": {
                stage: int(count) for stage, count in self._queries.by_label().items()
            },
            "batches_applied": int(self._batches.value),
            "maintenance_seconds": self._maintenance.sum,
            "latency": latency,
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
