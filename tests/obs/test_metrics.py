"""Unit tests for the metrics registry and the cache-stats fold."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.communication import comm_cache_stats
from repro.core.operations import cache_stats
from repro.errors import ConfigurationError
from repro.obs.export import validate_metrics_snapshot
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_cache_metrics,
    get_metrics,
    reset_metrics,
)
from repro.search.compiler import compiled_cache_stats


class TestCounter:
    def test_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(-1)

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(float("inf"))


class TestGauge:
    def test_moves_both_directions(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.is_set

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            Gauge("g").set(float("nan"))


class TestHistogram:
    def test_counts_and_sum(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(55.5)

    def test_quantile_reports_bucket_bound(self):
        hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for _ in range(99):
            hist.observe(0.5)
        hist.observe(50.0)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.99) == 1.0
        # The top quantile lands in the 10..100 bucket but is capped at
        # the observed maximum.
        assert hist.quantile(1.0) == 50.0

    def test_overflow_bucket_reports_max(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(123.0)
        assert hist.quantile(0.5) == 123.0

    def test_empty_quantile_is_zero(self):
        assert Histogram("h", bounds=(1.0,)).quantile(0.5) == 0.0

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_rejects_empty_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=())


class TestRegistry:
    def test_create_or_get_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ConfigurationError):
            registry.gauge("name")
        with pytest.raises(ConfigurationError):
            registry.histogram("name")

    def test_empty_name_raises(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("")

    def test_snapshot_validates(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(3)
        registry.gauge("heartbeat").set(1.5)
        registry.histogram("latency").observe(0.02)
        snapshot = registry.snapshot()
        validate_metrics_snapshot(snapshot)
        assert snapshot["counters"]["runs"] == 3
        assert snapshot["gauges"]["heartbeat"] == 1.5
        hist = snapshot["histograms"]["latency"]
        assert hist["count"] == 1
        assert set(hist["quantiles"]) == {"p50", "p90", "p99"}
        assert len(hist["bucket_counts"]) == len(hist["bounds"]) + 1

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}

    def test_format_table_lists_each_instrument(self):
        registry = MetricsRegistry()
        registry.counter("sweep.evaluated").inc(7)
        registry.gauge("sweep.degraded").set(1)
        registry.histogram("sweep.candidate_seconds").observe(0.1)
        table = registry.format_table()
        assert "sweep.evaluated" in table
        assert "sweep.degraded" in table
        assert "sweep.candidate_seconds" in table

    def test_format_table_empty(self):
        assert "(empty)" in MetricsRegistry().format_table()

    def test_default_registry_is_process_wide(self):
        get_metrics().counter("shared").inc()
        assert get_metrics().snapshot()["counters"]["shared"] == 1
        reset_metrics()
        assert get_metrics().snapshot()["counters"] == {}


class TestCacheMetricsRoundTrip:
    def test_gauges_cover_both_caches(self):
        registry = collect_cache_metrics(MetricsRegistry())
        gauges = registry.snapshot()["gauges"]
        for prefix, stats in (("cache.operations", cache_stats()),
                              ("cache.collectives",
                               comm_cache_stats())):
            for key, value in stats.items():
                if value is None:
                    continue
                assert gauges[f"{prefix}.{key}"] == float(value)

    def test_gauges_move_with_cache_activity(self, tiny_amped):
        before = collect_cache_metrics(
            MetricsRegistry()).snapshot()["gauges"]
        # A known call sequence: the same evaluation twice.  On the
        # default path the second pass reuses the compiled term tables;
        # on the per-layer path it hits the collective-time memo.
        tiny_amped.estimate_batch(64)
        tiny_amped.estimate_batch(64)
        per_layer = replace(tiny_amped, evaluation_path="per_layer")
        per_layer.estimate_batch(64)
        per_layer.estimate_batch(64)
        after = collect_cache_metrics(
            MetricsRegistry()).snapshot()["gauges"]
        assert (after["cache.compiled.hits"]
                > before["cache.compiled.hits"])
        assert (after["cache.collectives.hits"]
                > before["cache.collectives.hits"])

    def test_gauges_cover_the_compiled_cache(self, tiny_amped):
        tiny_amped.estimate_batch(64)
        registry = collect_cache_metrics(MetricsRegistry())
        gauges = registry.snapshot()["gauges"]
        stats = compiled_cache_stats()
        for key, value in stats.items():
            assert gauges[f"cache.compiled.{key}"] == float(value)
        # The counters the end-to-end benchmark reads.
        for key in ("builds", "hits", "table_lookups", "table_hits"):
            assert f"cache.compiled.{key}" in gauges

    def test_gauges_come_from_the_four_caches_only(self, tiny_amped):
        tiny_amped.estimate_batch(64)
        gauges = collect_cache_metrics(
            MetricsRegistry()).snapshot()["gauges"]
        families = {name.split(".")[1] for name in gauges}
        assert families == {"operations", "collectives", "compiled",
                            "vectorized"}

    def test_defaults_to_process_registry(self):
        assert collect_cache_metrics() is get_metrics()
        gauges = get_metrics().snapshot()["gauges"]
        assert any(name.startswith("cache.") for name in gauges)


def test_cache_fold_loads_no_numpy_in_the_daemon():
    """The daemon never binds arrays, so a ``/metrics`` scrape folds
    zero ``cache.vectorized.*`` gauges without importing the array
    backend (and NumPy); once loaded, the backend reports the same
    gauges."""
    code = (
        "import json, sys\n"
        "import repro.serve.server\n"
        "from repro.obs.metrics import MetricsRegistry, "
        "collect_cache_metrics\n"
        "def vectorized_gauges():\n"
        "    gauges = collect_cache_metrics(MetricsRegistry())"
        ".snapshot()['gauges']\n"
        "    return {name: value for name, value in gauges.items()\n"
        "            if name.startswith('cache.vectorized.')}\n"
        "before = vectorized_gauges()\n"
        "loaded = [name for name in ('numpy', 'repro.search.vectorized')\n"
        "          if name in sys.modules]\n"
        "import repro.search.vectorized\n"
        "print(json.dumps([before, loaded, vectorized_gauges()]))\n")
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    completed = subprocess.run([sys.executable, "-c", code], cwd=root,
                               env=env, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr
    before, loaded, after = json.loads(completed.stdout.splitlines()[-1])
    assert loaded == []
    assert before == after
    assert before and set(before.values()) == {0.0}
