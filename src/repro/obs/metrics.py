"""Process-wide metric registry: labeled counters, gauges and histograms.

The registry is the single sink every instrumented layer publishes into —
index builds (``repro.base``), maintenance stages, kernel freezes
(``repro.kernels``), snapshot save/load (``repro.store``) and the serving
engine (``repro.serving``) all meet here instead of each keeping a private
counter silo.  Objects that report their own counters (an engine's
``stats()``, a server's) record into instruments they own and
:meth:`MetricRegistry.install` them, so the registry and ``stats()`` read the
same objects.  Two exposition formats are built in: a JSON tree
(:meth:`MetricRegistry.to_json`) for programmatic consumers and the
Prometheus text format (:meth:`MetricRegistry.to_prometheus`) for scrape
endpoints and humans.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Canonical sorted ``((key, value), ...)`` form of one label set.
LabelKey = Tuple[Tuple[str, str], ...]

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_INVALID_LABEL_CHARS.sub("_", key)}="{_escape_label(value)}"'
        for key, value in labels
    )
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing labeled counter."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Labeled gauge: a settable value or a live callback."""

    __slots__ = ("name", "labels", "_value", "_fn", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Evaluate ``fn()`` at read time (last registration wins)."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            try:
                return float(fn())
            except Exception:
                return float("nan")
        return self._value


class Histogram:
    """Log-bucketed histogram with approximate quantiles.

    Buckets are geometrically spaced between ``min_value`` and ``max_value``
    (default 1 µs – 10 s, 10 buckets per decade), which keeps the quantile
    error within one bucket width (~26 %) at any scale — plenty for
    p50/p95/p99 reporting — with O(1) recording and fixed memory.  Values at
    or below ``min_value`` land in bucket 0; values above ``max_value`` land
    in the overflow bucket (exported as ``le="+Inf"``).

    The exact minimum and maximum observed values are tracked alongside the
    buckets, so ``quantile(0.0)`` / ``quantile(1.0)`` return true extremes
    rather than bucket bounds.  Pass ``thread_safe=True`` (the registry does)
    when recorders race; an owner that records under its own lock keeps the
    lock-free default.
    """

    def __init__(
        self,
        min_value: float = 1e-6,
        max_value: float = 10.0,
        buckets_per_decade: int = 10,
        thread_safe: bool = False,
        name: str = "",
    ) -> None:
        if min_value <= 0 or max_value <= min_value:
            raise ValueError("require 0 < min_value < max_value")
        self._min_value = min_value
        self._per_decade = buckets_per_decade
        decades = math.log10(max_value / min_value)
        self._num_buckets = int(math.ceil(decades * buckets_per_decade)) + 1
        self._counts = [0] * (self._num_buckets + 1)  # +1 overflow bucket
        self._total = 0
        self._sum = 0.0
        self._max = 0.0
        self._min_seen = math.inf
        self._lock = threading.Lock() if thread_safe else None
        self.name = name
        self.labels: LabelKey = ()

    def _bucket(self, value: float) -> int:
        if value <= self._min_value:
            return 0
        index = int(math.log10(value / self._min_value) * self._per_decade)
        return min(index, self._num_buckets)  # clamp into the overflow bucket

    def _bucket_upper(self, index: int) -> float:
        if index >= self._num_buckets:
            return math.inf
        return self._min_value * 10.0 ** ((index + 1) / self._per_decade)

    def _record(self, value: float, count: int) -> None:
        self._counts[self._bucket(value)] += count
        self._total += count
        self._sum += value * count
        if value > self._max:
            self._max = value
        if value < self._min_seen:
            self._min_seen = value

    def record(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (a batch of queries that
        share one amortised latency is one weighted sample)."""
        lock = self._lock
        if lock is None:
            self._record(value, count)
        else:
            with lock:
                self._record(value, count)

    #: Prometheus-style alias.
    observe = record

    @property
    def count(self) -> int:
        return self._total

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._total if self._total else 0.0

    @property
    def max(self) -> float:
        return self._max

    @property
    def min(self) -> float:
        return self._min_seen if self._total else 0.0

    def bucket_bounds(self) -> List[float]:
        """Upper bound of every bucket (the overflow bucket's is ``inf``)."""
        return [self._bucket_upper(index) for index in range(len(self._counts))]

    def bucket_counts(self) -> List[int]:
        return list(self._counts)

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (upper bound of the containing bucket).

        ``quantile(0.0)`` returns the exact minimum observed value (not a
        bucket bound), and the rank is floored at one sample so empty
        leading buckets can never satisfy the cumulative test.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._total == 0:
            return 0.0
        if q == 0.0:
            return self._min_seen
        rank = max(1.0, q * self._total)
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= rank:
                return min(self._bucket_upper(index), self._max)
        return self._max

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": float(self._total),
            "mean": self.mean,
            "min": self.min,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self._max,
            "sum": self._sum,
            "bucket_bounds": self.bucket_bounds(),
            "bucket_counts": self.bucket_counts(),
        }


class LabeledCounter:
    """One :class:`Counter` per value of one label, held by the object that
    records into it (an engine's per-stage query counts, a server's per-op
    requests).  :attr:`value` sums every series."""

    __slots__ = ("name", "label", "series")

    def __init__(self, name: str, label: str) -> None:
        self.name = name
        self.label = label
        #: ``{label key: counter}`` — the form a registry family holds.
        self.series: Dict[LabelKey, Counter] = {}

    def labels(self, value: str) -> Counter:
        """The counter of ``label=value`` (created on first use)."""
        key = ((self.label, value),)
        counter = self.series.get(key)
        if counter is None:
            # setdefault is atomic: racing first uses share one counter.
            counter = self.series.setdefault(key, Counter(self.name, key))
        return counter

    def by_label(self) -> Dict[str, float]:
        return {key[0][1]: counter.value for key, counter in list(self.series.items())}

    @property
    def value(self) -> float:
        return sum(counter.value for counter in list(self.series.values()))


class _Family:
    """All instances of one metric name (one per label set)."""

    __slots__ = ("name", "kind", "description", "instances")

    def __init__(self, name: str, kind: str, description: str) -> None:
        self.name = name
        self.kind = kind
        self.description = description
        self.instances: Dict[LabelKey, object] = {}


_INSTRUMENT_KINDS = {
    Counter: "counter",
    LabeledCounter: "counter",
    Gauge: "gauge",
    Histogram: "histogram",
}


class MetricRegistry:
    """Thread-safe registry of labeled metrics with pluggable exposition.

    Metrics are created on first use and shared afterwards::

        registry.counter("repro_index_builds_total", index="PMHL").inc()

    A name is bound to one metric kind for the registry's lifetime —
    re-registering it as a different kind raises ``ValueError`` (a mixed
    family would be un-expositable).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _family(self, name: str, kind: str, description: str) -> _Family:
        """The family of ``name`` (caller holds the lock)."""
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, description)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"cannot re-register as {kind}"
            )
        if description and not family.description:
            family.description = description
        return family

    def _get(self, name: str, kind: str, description: str, labels: Dict[str, object]):
        key = _label_key(labels)
        with self._lock:
            family = self._family(name, kind, description)
            instance = family.instances.get(key)
            if instance is None:
                if kind == "counter":
                    instance = Counter(name, key)
                elif kind == "gauge":
                    instance = Gauge(name, key)
                else:
                    instance = Histogram(thread_safe=True, name=name)
                    instance.labels = key
                family.instances[key] = instance
            return instance

    def counter(self, name: str, description: str = "", **labels: object) -> Counter:
        return self._get(name, "counter", description, labels)

    def gauge(self, name: str, description: str = "", **labels: object) -> Gauge:
        return self._get(name, "gauge", description, labels)

    def histogram(self, name: str, description: str = "", **labels: object) -> Histogram:
        return self._get(name, "histogram", description, labels)

    def install(self, instrument, description: str = "") -> None:
        """Expose an instrument its owner records into as the registry's
        series for its name and labels — every series of the name, for a
        :class:`LabeledCounter` — replacing what was there.

        Owners install at construction, so with several engines or servers
        in one process the most recently constructed one owns the series.
        """
        kind = _INSTRUMENT_KINDS[type(instrument)]
        with self._lock:
            family = self._family(instrument.name, kind, description)
            if isinstance(instrument, LabeledCounter):
                family.instances = instrument.series
            else:
                family.instances[instrument.labels] = instrument

    def get(self, name: str, **labels: object):
        """Existing metric instance or ``None`` (never creates)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.instances.get(_label_key(labels))

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def reset(self) -> None:
        with self._lock:
            self._families.clear()

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def _collect(self) -> List[_Family]:
        with self._lock:
            families = []
            for name in sorted(self._families):
                source = self._families[name]
                copy = _Family(source.name, source.kind, source.description)
                copy.instances = dict(source.instances)
                families.append(copy)
            return families

    def to_json(self) -> Dict[str, object]:
        """JSON-able tree: ``{name: {type, description, series: [...]}}``."""
        out: Dict[str, object] = {}
        for family in self._collect():
            series = []
            for key in sorted(family.instances):
                instance = family.instances[key]
                entry: Dict[str, object] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry.update(instance.snapshot())
                else:
                    entry["value"] = instance.value
                series.append(entry)
            out[family.name] = {
                "type": family.kind,
                "description": family.description,
                "series": series,
            }
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self._collect():
            name = _INVALID_NAME_CHARS.sub("_", family.name)
            if family.description:
                lines.append(f"# HELP {name} {family.description}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.instances):
                instance = family.instances[key]
                if family.kind == "histogram":
                    lines.extend(self._prometheus_histogram(name, key, instance))
                else:
                    lines.append(
                        f"{name}{_format_labels(key)} {_format_value(instance.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _prometheus_histogram(
        name: str, key: LabelKey, histogram: Histogram
    ) -> Iterable[str]:
        cumulative = 0
        for upper, count in zip(histogram.bucket_bounds(), histogram.bucket_counts()):
            cumulative += count
            le = "+Inf" if upper == math.inf else _format_value(upper)
            bucket_labels = _format_labels(key + (("le", le),))
            yield f"{name}_bucket{bucket_labels} {cumulative}"
        suffix = _format_labels(key)
        yield f"{name}_sum{suffix} {_format_value(histogram.sum)}"
        yield f"{name}_count{suffix} {histogram.count}"
