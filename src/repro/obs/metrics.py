"""Counters, gauges, and fixed-bucket histograms for the reproduction.

One process-wide :class:`MetricsRegistry` (reachable through
:func:`get_metrics`) absorbs every operational counter the codebase
accumulates piecemeal today: the memoization statistics behind
``repro.core.cache_stats()`` / ``comm_cache_stats()``, the
:class:`repro.reporting.SweepReport` coverage counters kept live by the
resilient sweep runtime, and anything new instrumentation wants to
count.  ``snapshot()`` turns the whole registry into one JSON-friendly
dict; :func:`repro.obs.export.write_metrics_snapshot` persists it and
``python -m repro.obs`` validates it back.

Instruments are plain mutable classes (not dataclasses); the registry
lock guards the name tables and each instrument carries its own lock
for mutation, since handler threads of the serve daemon increment the
same instruments concurrently.  The hot-path cost of
``counter(...).inc()`` is a dict lookup plus two uncontended locks,
cheap enough to leave enabled unconditionally (unlike tracing, which
is off by default).
"""

from __future__ import annotations

import bisect
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, require_finite
from repro.units import SECONDS_PER_HOUR, SECONDS_PER_MINUTE

#: Default histogram bucket upper bounds, tuned for durations in
#: seconds: microseconds through hours, roughly half-decade spaced.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.000001, 0.00001, 0.0001, 0.001, 0.01, 0.1, 0.5,
    1.0, 5.0, 10.0, SECONDS_PER_MINUTE, 10 * SECONDS_PER_MINUTE,
    SECONDS_PER_HOUR,
)

#: Quantiles reported in histogram snapshots.
SNAPSHOT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

#: The ``cache.vectorized.*`` gauges: the keys of
#: :func:`repro.search.vectorized.vectorized_stats`.
VECTORIZED_STATS: Tuple[str, ...] = (
    "builds", "build_seconds", "array_bytes", "lanes", "batches",
    "max_batch_size")


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be finite and non-negative)."""
        require_finite(f"counter {self.name} increment", amount)
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value that may move in either direction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._is_set = False

    def set(self, value: float) -> None:
        """Record the current value (must be finite)."""
        require_finite(f"gauge {self.name}", value)
        with self._lock:
            self._value = float(value)
            self._is_set = True

    @property
    def value(self) -> float:
        return self._value

    @property
    def is_set(self) -> bool:
        return self._is_set


class Histogram:
    """A fixed-bucket histogram with percentile estimates.

    Buckets are defined by sorted upper bounds; an observation lands in
    the first bucket whose bound is >= the value, or the overflow
    bucket past the last bound.  Quantiles are estimated as the upper
    bound of the bucket where the cumulative count crosses the target
    rank (the overflow bucket reports the observed maximum), which is
    exact enough for the order-of-magnitude questions these answer.
    """

    def __init__(self, name: str,
                 bounds: Iterable[float] = DEFAULT_BUCKET_BOUNDS) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ConfigurationError(
                f"histogram {name} needs at least one bucket bound")
        for bound in self.bounds:
            require_finite(f"histogram {name} bucket bound", bound)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ConfigurationError(
                f"histogram {name} bounds must be strictly increasing, "
                f"got {self.bounds}")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (must be finite)."""
        require_finite(f"histogram {self.name} observation", value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            if self._count == 0:
                self._min = value
                self._max = value
            else:
                self._min = min(self._min, value)
                self._max = max(self._max, value)
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-resolution estimate of the ``q`` quantile."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(
                f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index == len(self.bounds):
                    return self._max
                return min(self.bounds[index], self._max)
        return self._max


class MetricsRegistry:
    """Create-or-get registry of named instruments.

    A name identifies exactly one instrument kind; asking for an
    existing name with a different kind raises
    :class:`ConfigurationError` instead of silently shadowing it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered as ``name`` (created on first use)."""
        with self._lock:
            self._check_kind(name, "counter", self._counters)
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = Counter(name)
                self._counters[name] = instrument
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered as ``name`` (created on first use)."""
        with self._lock:
            self._check_kind(name, "gauge", self._gauges)
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = Gauge(name)
                self._gauges[name] = instrument
            return instrument

    def histogram(self, name: str,
                  bounds: Optional[Iterable[float]] = None) -> Histogram:
        """The histogram registered as ``name`` (created on first use;
        ``bounds`` only applies at creation)."""
        with self._lock:
            self._check_kind(name, "histogram", self._histograms)
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = Histogram(
                    name, bounds if bounds is not None
                    else DEFAULT_BUCKET_BOUNDS)
                self._histograms[name] = instrument
            return instrument

    def reset(self) -> None:
        """Drop every registered instrument."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-friendly dump of every instrument's current state."""
        with self._lock:
            counters = {name: c.value
                        for name, c in sorted(self._counters.items())}
            gauges = {name: g.value
                      for name, g in sorted(self._gauges.items())}
            histograms = {}
            for name, h in sorted(self._histograms.items()):
                histograms[name] = {
                    "count": h.count,
                    "sum": h.sum,
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h._counts),
                    "quantiles": {f"p{int(q * 100)}": h.quantile(q)
                                  for q in SNAPSHOT_QUANTILES},
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def format_table(self) -> str:
        """Plain-text rendering of :meth:`snapshot` for terminal use."""
        snap = self.snapshot()
        lines: List[str] = ["metrics snapshot"]
        for kind in ("counters", "gauges"):
            section = snap[kind]
            if section:
                lines.append(f"  {kind}:")
                width = max(len(name) for name in section)
                for name, value in section.items():
                    lines.append(f"    {name.ljust(width)}  {value:g}")
        if snap["histograms"]:
            lines.append("  histograms:")
            for name, data in snap["histograms"].items():
                quantiles = data["quantiles"]
                detail = ", ".join(
                    f"{k}={v:g}" for k, v in quantiles.items())
                lines.append(
                    f"    {name}  count={data['count']} "
                    f"sum={data['sum']:g} {detail}")
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)

    def _check_kind(self, name: str, kind: str,
                    owner: Dict[str, object]) -> None:
        if not name:
            raise ConfigurationError("metric name must be non-empty")
        for other_kind, table in (("counter", self._counters),
                                  ("gauge", self._gauges),
                                  ("histogram", self._histograms)):
            if table is owner:
                continue
            if name in table:
                raise ConfigurationError(
                    f"metric {name!r} is already registered as a "
                    f"{other_kind}, cannot reuse it as a {kind}")


#: The process-wide default registry used by all instrumentation sites.
_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return _METRICS


def reset_metrics() -> None:
    """Clear the process-wide default registry (tests, fresh runs)."""
    _METRICS.reset()


@contextmanager
def time_histogram(name: str,
                   registry: Optional[MetricsRegistry] = None
                   ) -> Iterator[Histogram]:
    """Observe a block's wall-clock duration into histogram ``name``.

    The duration lands in the histogram even when the block raises, so
    failure latency is accounted like success latency (the serve
    daemon's request histogram depends on this).  Yields the histogram
    for callers that want to attach further observations.
    """
    target = registry if registry is not None else _METRICS
    instrument = target.histogram(name)
    started = time.perf_counter()
    try:
        yield instrument
    finally:
        instrument.observe(time.perf_counter() - started)


def collect_cache_metrics(
        registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Fold the memoization statistics into gauges.

    Pulls ``repro.core.cache_stats()`` (the ``build_operations`` LRU),
    ``repro.core.comm_cache_stats()`` (the collective-time LRU),
    ``repro.search.compiler.compiled_cache_stats()`` (the sweep-compiler
    table cache) and ``repro.search.vectorized.vectorized_stats()``
    (batch-array builds) into ``cache.operations.*`` /
    ``cache.collectives.*`` / ``cache.compiled.*`` /
    ``cache.vectorized.*`` gauges, so a single
    snapshot answers "did the fast path actually hit the cache" and
    "how hot are the compiled term tables".  Imports lazily:
    :mod:`repro.core` imports the tracer, so a module-level import here
    would be circular.  The array backend is read only once something
    else loaded it: it imports NumPy, and a process that never loaded
    it (the daemon, ``amped estimate``) has bound no batch, so its
    gauges read 0.
    """
    from repro.core.communication import comm_cache_stats
    from repro.core.operations import cache_stats
    from repro.search.compiler import compiled_cache_stats

    vectorized = sys.modules.get("repro.search.vectorized")
    target = registry if registry is not None else _METRICS
    for prefix, stats in (("cache.operations", cache_stats()),
                          ("cache.collectives", comm_cache_stats()),
                          ("cache.compiled", compiled_cache_stats()),
                          ("cache.vectorized",
                           dict.fromkeys(VECTORIZED_STATS, 0)
                           if vectorized is None
                           else vectorized.vectorized_stats())):
        for key, value in stats.items():
            if value is None:
                continue
            target.gauge(f"{prefix}.{key}").set(float(value))
    return target
