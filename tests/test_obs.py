"""Tests for the observability layer: metric registry, histograms, span
tracing, the disabled no-op fast path, and the serving-engine integration
(registry series must agree with the legacy ``ServingMetrics`` snapshot)."""

from __future__ import annotations

import json
import math

import pytest

from repro import obs
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.tracing import Tracer
from repro.registry import create_index
from repro.serving.engine import ServingEngine
from repro.serving.metrics import ServingMetrics
from repro.throughput.workload import sample_query_pairs


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
class TestHistogram:
    def test_boundary_values_land_in_first_bucket(self):
        hist = Histogram(min_value=1e-3, max_value=1.0, buckets_per_decade=10)
        hist.record(1e-3)      # exactly min_value
        hist.record(1e-6)      # far below min_value
        assert hist.bucket_counts()[0] == 2

    def test_overflow_bucket_catches_large_values(self):
        hist = Histogram(min_value=1e-3, max_value=1.0, buckets_per_decade=10)
        hist.record(50.0)
        bounds = hist.bucket_bounds()
        counts = hist.bucket_counts()
        assert bounds[-1] == math.inf
        assert counts[-1] == 1
        assert sum(counts[:-1]) == 0

    def test_bucket_bounds_are_monotone_and_match_counts(self):
        hist = Histogram()
        bounds = hist.bucket_bounds()
        assert len(bounds) == len(hist.bucket_counts())
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_quantile_zero_returns_exact_minimum(self):
        hist = Histogram()
        for value in (0.0042, 0.9, 0.0017):
            hist.record(value)
        assert hist.quantile(0.0) == 0.0017
        assert hist.min == 0.0017

    def test_quantile_one_returns_exact_maximum(self):
        hist = Histogram()
        for value in (0.001, 0.25, 0.033):
            hist.record(value)
        assert hist.quantile(1.0) == 0.25
        assert hist.max == 0.25

    def test_small_quantile_of_single_sample_is_the_sample(self):
        # rank is floored at one sample: empty leading buckets can never
        # satisfy the cumulative test, and q*total < 1 must not round to 0.
        hist = Histogram()
        hist.record(0.5)
        assert hist.quantile(0.01) == 0.5
        assert hist.quantile(0.99) == 0.5

    def test_quantile_is_within_one_bucket(self):
        hist = Histogram(buckets_per_decade=10)
        values = [0.001 * 1.1 ** i for i in range(60)]
        for value in values:
            hist.record(value)
        exact = sorted(values)[int(0.5 * len(values))]
        approx = hist.quantile(0.5)
        assert exact / 1.26 <= approx <= exact * 1.26

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.0) == 0.0
        assert hist.min == 0.0
        assert hist.max == 0.0
        assert hist.mean == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0.0

    def test_snapshot_exposes_buckets(self):
        hist = Histogram()
        hist.record(0.01)
        snap = hist.snapshot()
        assert snap["bucket_counts"] == hist.bucket_counts()
        assert snap["bucket_bounds"] == hist.bucket_bounds()
        assert sum(snap["bucket_counts"]) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Histogram(min_value=0.0)
        with pytest.raises(ValueError):
            Histogram(min_value=1.0, max_value=0.5)
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_observe_is_record(self):
        hist = Histogram()
        hist.observe(0.1)
        assert hist.count == 1


# ----------------------------------------------------------------------
# Counter / Gauge
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_gauge_callback(self):
        gauge = Gauge("g")
        gauge.set_function(lambda: 42)
        assert gauge.value == 42.0
        gauge.set(1)  # set() clears the callback
        assert gauge.value == 1.0

    def test_gauge_callback_error_reads_nan(self):
        gauge = Gauge("g")
        gauge.set_function(lambda: 1 / 0)
        assert math.isnan(gauge.value)


# ----------------------------------------------------------------------
# MetricRegistry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_same_labels_share_one_instance(self):
        registry = MetricRegistry()
        a = registry.counter("hits", "desc", index="PMHL", stage="cache")
        b = registry.counter("hits", stage="cache", index="PMHL")  # order-free
        assert a is b
        c = registry.counter("hits", index="PostMHL", stage="cache")
        assert c is not a

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("metric_x")
        with pytest.raises(ValueError):
            registry.gauge("metric_x")

    def test_get_never_creates(self):
        registry = MetricRegistry()
        assert registry.get("absent") is None
        registry.counter("present", index="A").inc()
        assert registry.get("present", index="A").value == 1.0
        assert registry.get("present", index="B") is None
        assert registry.names() == ["present"]

    def test_to_json_structure(self):
        registry = MetricRegistry()
        registry.counter("reqs", "requests", kind="a").inc(3)
        registry.histogram("lat", "latency").record(0.1)
        tree = registry.to_json()
        assert tree["reqs"]["type"] == "counter"
        assert tree["reqs"]["series"][0]["labels"] == {"kind": "a"}
        assert tree["reqs"]["series"][0]["value"] == 3.0
        assert tree["lat"]["series"][0]["count"] == 1.0
        json.dumps(tree)  # must be JSON-able as-is

    def test_prometheus_text_format(self):
        registry = MetricRegistry()
        registry.counter("repro_reqs_total", "Total requests", method="PMHL").inc(7)
        text = registry.to_prometheus()
        assert "# HELP repro_reqs_total Total requests" in text
        assert "# TYPE repro_reqs_total counter" in text
        assert 'repro_reqs_total{method="PMHL"} 7' in text
        assert text.endswith("\n")

    def test_prometheus_histogram_exposition(self):
        registry = MetricRegistry()
        hist = registry.histogram("lat_seconds", "latency")
        hist.record(0.01)
        hist.record(100.0)  # overflow
        lines = registry.to_prometheus().splitlines()
        buckets = [line for line in lines if line.startswith("lat_seconds_bucket")]
        # cumulative counts are monotone and the +Inf bucket sees everything
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert buckets[-1].startswith('lat_seconds_bucket{le="+Inf"}')
        assert counts[-1] == 2
        assert any(line.startswith("lat_seconds_sum") for line in lines)
        assert "lat_seconds_count 2" in lines

    def test_prometheus_label_escaping(self):
        registry = MetricRegistry()
        registry.gauge("g", path='say "hi"\n').set(1)
        text = registry.to_prometheus()
        assert '\\"hi\\"' in text
        assert "\\n" in text

    def test_reset(self):
        registry = MetricRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert registry.names() == []


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", step=1):
                pass
        inner, outer = tracer.events()  # inner completes first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent == "outer" and inner.depth == 1
        assert outer.parent is None and outer.depth == 0
        assert inner.args == {"step": 1}
        assert outer.start <= inner.start and inner.end <= outer.end + 1e-9

    def test_retroactive_record_nests_under_open_span(self):
        tracer = Tracer()
        with tracer.span("parent"):
            tracer.record("stage", 0.25, stage="repair")
        stage, parent = tracer.events()
        assert stage.parent == "parent"
        assert stage.duration == 0.25
        assert stage.args == {"stage": "repair"}
        assert parent.name == "parent"

    def test_span_durations_feed_registry_histogram(self):
        registry = MetricRegistry()
        tracer = Tracer(registry)
        with tracer.span("work"):
            pass
        tracer.record("work", 0.1)
        hist = registry.get("repro_span_seconds", span="work")
        assert hist is not None and hist.count == 2

    def test_max_events_bounds_trace_not_metrics(self):
        registry = MetricRegistry()
        tracer = Tracer(registry, max_events=2)
        for _ in range(5):
            tracer.record("tick", 0.01)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert registry.get("repro_span_seconds", span="tick").count == 5

    def test_chrome_trace_schema(self, tmp_path):
        tracer = Tracer()
        with tracer.span("build", method="PMHL"):
            tracer.record("build.labels", 0.05)
        trace = tracer.chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        assert {e["name"] for e in meta} >= {"process_name", "thread_name"}
        for event in complete:
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        child = next(e for e in complete if e["name"] == "build.labels")
        assert child["args"]["parent"] == "build"

        path = tracer.export_chrome(str(tmp_path / "trace.json"))
        with open(path) as handle:
            assert json.load(handle)["traceEvents"]

    def test_reset_clears_events(self):
        tracer = Tracer()
        tracer.record("x", 0.1)
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.dropped == 0


# ----------------------------------------------------------------------
# obs module: switch + no-op fast path
# ----------------------------------------------------------------------
class TestObsSwitch:
    def test_disabled_helpers_return_shared_noops(self):
        assert not obs.is_enabled()
        assert obs.span("anything", a=1) is obs.NOOP_SPAN
        assert obs.counter("c") is obs.NOOP_METRIC
        assert obs.gauge("g") is obs.NOOP_METRIC
        assert obs.histogram("h") is obs.NOOP_METRIC

    def test_disabled_records_nothing(self):
        with obs.span("ghost"):
            obs.record_span("ghost.child", 0.5)
            obs.counter("ghost_total").inc()
            obs.histogram("ghost_seconds").record(1.0)
        assert len(obs.tracer()) == 0
        assert obs.registry().names() == []

    def test_noop_metric_accepts_full_interface(self):
        metric = obs.NOOP_METRIC
        metric.inc()
        metric.dec()
        metric.set(3)
        metric.set_function(lambda: 1)
        metric.record(0.5)
        metric.observe(0.5)
        assert metric.value == 0.0

    def test_enabled_helpers_record(self):
        obs.enable()
        assert obs.is_enabled()
        with obs.span("real.work", n=2):
            obs.counter("real_total", "desc").inc()
        assert len(obs.tracer()) == 1
        assert obs.registry().get("real_total").value == 1.0
        assert obs.registry().get("repro_span_seconds", span="real.work").count == 1

    def test_reset_keeps_enabled_flag(self):
        obs.enable()
        obs.counter("x").inc()
        obs.reset()
        assert obs.is_enabled()
        assert obs.registry().names() == []

    def test_peak_rss_bytes(self):
        rss = obs.peak_rss_bytes()
        assert rss is None or rss > 0

    def test_export_prometheus_and_json(self):
        obs.enable()
        obs.counter("repro_demo_total").inc()
        assert "repro_demo_total 1" in obs.export_prometheus()
        assert "repro_demo_total" in obs.export_json()


# ----------------------------------------------------------------------
# Serving metrics: latency snapshot keys + qps window trimming
# ----------------------------------------------------------------------
class TestServingMetrics:
    def test_latency_histogram_snapshot_keys(self):
        metrics = ServingMetrics(clock=FakeClock())
        metrics.record_query("labels", 0.002)
        snap = metrics.snapshot()["latency"]
        for key in (
            "count", "mean_seconds", "min_seconds", "p50_seconds",
            "p95_seconds", "p99_seconds", "max_seconds",
            "bucket_bounds", "bucket_counts",
        ):
            assert key in snap
        assert snap["min_seconds"] == 0.002
        assert snap["count"] == 1.0

    def test_qps_counts_within_window(self):
        clock = FakeClock()
        metrics = ServingMetrics(clock=clock, window_seconds=2.0)
        for _ in range(6):
            metrics.record_query("cache", 0.001)
        assert metrics.qps() == pytest.approx(3.0)  # 6 queries / 2 s window

    def test_qps_trims_stale_entries(self):
        clock = FakeClock()
        metrics = ServingMetrics(clock=clock, window_seconds=2.0)
        for _ in range(6):
            metrics.record_query("cache", 0.001)
        clock.advance(10.0)
        assert metrics.qps() == 0.0
        assert metrics.qps(window_seconds=0.5) == 0.0
        # the window forgets; the lifetime counts do not
        assert metrics.queries_served == 6
        metrics.record_query("cache", 0.001)
        assert metrics.qps() == pytest.approx(1 / 2.0)

    def test_qps_sub_window(self):
        clock = FakeClock()
        metrics = ServingMetrics(clock=clock, window_seconds=2.0)
        metrics.record_query("cache", 0.001)  # t = 0.0
        clock.advance(1.5)
        metrics.record_query("cache", 0.001)  # t = 1.5
        clock.advance(0.1)                    # now 1.6
        assert metrics.qps(window_seconds=0.5) == pytest.approx(1 / 0.5)
        assert metrics.qps(window_seconds=5.0) == pytest.approx(2 / 5.0)

    def test_batches_are_one_window_entry_each(self):
        clock = FakeClock()
        metrics = ServingMetrics(clock=clock, window_seconds=2.0)
        metrics.record_queries({"labels": 60, "cache": 4}, 0.001, cache_hits=4)  # t = 0.0
        clock.advance(1.5)
        metrics.record_queries({"labels": 64}, 0.002)  # t = 1.5
        assert metrics.qps() == pytest.approx(128 / 2.0)
        assert metrics.qps(window_seconds=1.0) == pytest.approx(64 / 1.0)
        clock.advance(1.0)  # now 2.5: the first batch aged out, the second did not
        assert metrics.qps() == pytest.approx(64 / 2.0)
        snap = metrics.snapshot()
        assert snap["queries_served"] == 128 and snap["cache_hits"] == 4
        assert snap["by_stage"] == {"labels": 124, "cache": 4}
        # one weighted histogram sample per batch
        assert snap["latency"]["count"] == 128.0
        assert snap["latency"]["mean_seconds"] == pytest.approx(0.0015)

    def test_qps_zero_window(self):
        metrics = ServingMetrics(clock=FakeClock())
        assert metrics.qps(window_seconds=0.0) == 0.0

    def test_snapshot_counts(self):
        metrics = ServingMetrics(clock=FakeClock())
        metrics.record_query("labels", 0.001)
        metrics.record_query("cache", 0.002, from_cache=True)
        metrics.record_shed()
        metrics.record_batch(0.5)
        snap = metrics.snapshot()
        assert snap["queries_served"] == 2
        assert snap["queries_shed"] == 1
        assert snap["cache_hits"] == 1
        assert snap["by_stage"] == {"labels": 1, "cache": 1}
        assert snap["batches_applied"] == 1
        assert snap["maintenance_seconds"] == 0.5


# ----------------------------------------------------------------------
# Integration: instrumented build + serving registry agreement
# ----------------------------------------------------------------------
class TestServingIntegration:
    def test_registry_reads_the_newest_engines_instruments(self):
        """One store: with two engines in a process the registry's
        ``repro_serving_*`` series are the newest engine's own instruments,
        so they equal its ``stats()``, and the older engine keeps its own."""
        obs.enable()
        graph = grid_road_network(6, 6, seed=7)
        index = create_index("PMHL", graph)
        index.build()

        registry = obs.registry()
        builds = registry.get("repro_index_builds_total", index=index.name)
        assert builds is not None and builds.value == 1.0
        span_names = {event.name for event in obs.tracer().events()}
        assert "pmhl.build" in span_names

        pairs = list(sample_query_pairs(graph, 30, seed=3))
        keys = ("queries_served", "by_stage", "cache_hits", "batches_applied", "latency")
        with ServingEngine(index, cache_capacity=64) as first:
            first.query_batch(pairs[:3])
            first.serve(*pairs[0])
            first.apply_batch(generate_update_batch(first.index.graph, volume=5, seed=9))
            first.apply_batch(generate_update_batch(first.index.graph, volume=5, seed=10))
            before = {key: first.stats()[key] for key in keys}
            assert before["queries_served"] == 4 and before["batches_applied"] == 2

            second_index = create_index("DH2H", graph.copy())
            with ServingEngine(second_index, cache_capacity=0) as second:
                second.query_batch(pairs[:5])
                second.apply_batch(
                    generate_update_batch(second.index.graph, volume=5, seed=11)
                )
                stats = second.stats()
                epoch_gauge = registry.get("repro_serving_epoch")
                assert epoch_gauge.value == float(second.current_epoch) == 1.0
            assert {key: first.stats()[key] for key in keys} == before

        assert stats["queries_served"] == 5
        family = registry.to_json()["repro_serving_queries_total"]["series"]
        assert sum(entry["value"] for entry in family) == stats["queries_served"]
        assert {
            entry["labels"]["stage"]: entry["value"] for entry in family
        } == stats["by_stage"]
        assert (
            registry.get("repro_serving_latency_seconds").count
            == stats["latency"]["count"] == 5
        )
        assert (
            registry.get("repro_serving_maintenance_batches_total").value
            == stats["batches_applied"] == 1
        )
        assert registry.get("repro_serving_cache_hits_total").value == stats["cache_hits"] == 0
        assert (
            registry.get("repro_serving_stage_waits_total").value
            == stats["stage_waits"] == 0
        )

        span_names = {event.name for event in obs.tracer().events()}
        assert "serving.install_batch" in span_names
        assert "pmhl.apply_batch" in span_names
        assert "serving.serve" in span_names
        assert "serving.serve_batch" in span_names
        # per-stage maintenance spans ride under apply_batch
        assert any(name.startswith("pmhl.apply_batch.") for name in span_names)
        stages = registry.get("repro_kernel_invalidations_total", index=index.name)
        assert stages is None or stages.value >= 1.0

    def test_serving_epoch_refreezes_into_the_previous_layout(self):
        """A DCH serving epoch gathers its shortcut store into the previous
        epoch's layout: the freeze counter's ``layout`` label says so."""
        obs.enable()
        graph = grid_road_network(8, 8, seed=7)
        index = create_index("DCH", graph)
        index.build()
        pairs = list(sample_query_pairs(graph, 20, seed=3))
        registry = obs.registry()

        def freezes(layout):
            counter = registry.get(
                "repro_kernel_store_freezes_total", store="shortcut_store", layout=layout
            )
            return 0.0 if counter is None else counter.value

        with ServingEngine(index, cache_capacity=0) as engine:
            engine.query_batch(pairs)
            assert freezes("built") == 1.0 and freezes("reused") == 0.0
            engine.apply_batch(generate_update_batch(graph, volume=6, seed=4))
            engine.query_batch(pairs)
            assert engine.current_epoch == 1
        assert freezes("built") == 1.0
        assert freezes("reused") == 1.0

    def test_disabled_engine_records_nothing(self):
        graph = grid_road_network(4, 4, seed=7)
        index = create_index("BiDijkstra", graph)
        index.build()
        with ServingEngine(index) as engine:
            engine.serve(0, 5)
        assert obs.registry().names() == []
        assert len(obs.tracer()) == 0


# ----------------------------------------------------------------------
# CLI: the `obs` subcommand end-to-end (tiny workload)
# ----------------------------------------------------------------------
class TestObsCli:
    def test_obs_subcommand_writes_metrics_and_trace(self, tmp_path, capsys):
        from repro.experiments.cli import main

        metrics_out = tmp_path / "metrics.prom"
        json_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "trace.json"
        code = main([
            "obs",
            "--methods", "PMHL",
            "--side", "8",
            "--queries", "40",
            "--batches", "1",
            "--batch-size", "5",
            "--metrics-out", str(metrics_out),
            "--json-out", str(json_out),
            "--trace-out", str(trace_out),
        ])
        assert code == 0
        text = metrics_out.read_text()
        assert "repro_serving_queries_total" in text
        assert "repro_index_builds_total" in text
        assert "repro_span_seconds_bucket" in text
        assert "repro_index_builds_total" in json.loads(json_out.read_text())
        trace = json.loads(trace_out.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "pmhl.build" in names
        assert "obs_cli.workload" in names
        out = capsys.readouterr().out
        assert "PMHL" in out

    def test_obs_subcommand_rejects_unknown_method(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["obs", "--methods", "NotAMethod"])
