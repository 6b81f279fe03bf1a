"""``repro.obs`` — the observability spine of the package.

One process-wide :class:`~repro.obs.metrics.MetricRegistry` (labeled
counters / gauges / histograms with JSON and Prometheus-text exposition) and
one process-wide :class:`~repro.obs.tracing.Tracer` (nested spans exported as
Chrome trace-event JSON).  Every layer publishes through the module-level
helpers below::

    from repro import obs

    with obs.span("pmhl.build.partition_labels", partition=3):
        ...
    obs.counter("repro_kernel_freezes_total", index="PMHL", store="labels").inc()

Observability is **off by default**.  The helpers collapse to no-ops while
disabled — ``span`` returns a shared inert context manager, the metric
helpers return a shared inert metric — so the instrumented hot paths pay one
flag check and nothing else (asserted <3 % serving overhead in
``benchmarks/bench_obs.py``).  Enable with :func:`enable`, or set
``REPRO_OBS=1`` in the environment before the process starts.  Enable
*before* constructing the objects you want observed: engines and servers
install their counters and gauge callbacks at construction time.

See DESIGN.md §10 for the span taxonomy and the metric name catalogue.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, LabeledCounter, MetricRegistry
from repro.obs.tracing import SpanEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabeledCounter",
    "MetricRegistry",
    "SpanEvent",
    "Tracer",
    "enable",
    "disable",
    "is_enabled",
    "registry",
    "tracer",
    "span",
    "record_span",
    "counter",
    "gauge",
    "histogram",
    "peak_rss_bytes",
    "export_prometheus",
    "export_json",
    "export_chrome_trace",
    "reset",
]

_enabled: bool = os.environ.get("REPRO_OBS", "").strip().lower() not in (
    "", "0", "false", "no", "off",
)
_registry = MetricRegistry()
_tracer = Tracer(_registry)


class _NoopSpan:
    """Inert span returned by :func:`span` while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


class _NoopMetric:
    """Inert counter/gauge/histogram returned while disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, fn) -> None:
        pass

    def record(self, value: float) -> None:
        pass

    observe = record

    @property
    def value(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()
NOOP_METRIC = _NoopMetric()


# ----------------------------------------------------------------------
# Switch
# ----------------------------------------------------------------------
def is_enabled() -> bool:
    """Whether instrumentation currently records anything."""
    return _enabled


def enable() -> None:
    """Turn observability on (equivalent to starting with ``REPRO_OBS=1``)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn observability off; already-recorded data is kept until :func:`reset`."""
    global _enabled
    _enabled = False


# ----------------------------------------------------------------------
# Accessors
# ----------------------------------------------------------------------
def registry() -> MetricRegistry:
    """The process-wide metric registry (real even while disabled)."""
    return _registry


def tracer() -> Tracer:
    """The process-wide tracer (real even while disabled)."""
    return _tracer


# ----------------------------------------------------------------------
# Recording helpers (the no-op fast path lives here)
# ----------------------------------------------------------------------
def span(name: str, **args: object):
    """Timed, nesting span context manager; inert while disabled."""
    if not _enabled:
        return NOOP_SPAN
    return _tracer.span(name, **args)


def record_span(name: str, seconds: float, **args: object) -> None:
    """Retroactively record an already-measured span; no-op while disabled."""
    if _enabled:
        _tracer.record(name, seconds, **args)


def counter(name: str, description: str = "", **labels: object):
    if not _enabled:
        return NOOP_METRIC
    return _registry.counter(name, description, **labels)


def gauge(name: str, description: str = "", **labels: object):
    if not _enabled:
        return NOOP_METRIC
    return _registry.gauge(name, description, **labels)


def histogram(name: str, description: str = "", **labels: object):
    if not _enabled:
        return NOOP_METRIC
    return _registry.histogram(name, description, **labels)


# ----------------------------------------------------------------------
# Process introspection
# ----------------------------------------------------------------------
def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, or ``None`` if unavailable.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both normalise
    to bytes here.
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(usage)
    return int(usage) * 1024


# ----------------------------------------------------------------------
# Exposition / lifecycle
# ----------------------------------------------------------------------
def export_prometheus() -> str:
    """Prometheus text dump of the registry."""
    return _registry.to_prometheus()


def export_json() -> Dict[str, object]:
    """JSON-able dump of the registry."""
    return _registry.to_json()


def export_chrome_trace(path: str) -> str:
    """Write the collected spans as Chrome trace-event JSON to ``path``."""
    return _tracer.export_chrome(path)


def reset() -> None:
    """Clear all recorded metrics and spans (the enabled flag is untouched).

    Primarily for tests and benchmark harnesses; the registry and tracer
    objects themselves are kept, so previously handed-out metric instances
    become orphans and must be re-fetched.
    """
    _registry.reset()
    _tracer.reset()
