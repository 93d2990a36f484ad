"""Unit tests for the benchmark's statistics and trace helpers.

Run with ``python -m pytest benchmarks/e2e``; the helpers are pure, so
no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import math
import statistics

import pytest

from analysis import (
    complete_events,
    import_times,
    percentile,
    quartiles,
    self_time_by_name,
    self_times,
    spread,
    unattributed_share,
)


def _event(name, ts, dur, span_id, parent_id=None, pid=1):
    args = {"span_id": span_id}
    if parent_id is not None:
        args["parent_id"] = parent_id
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid,
            "tid": 1, "args": args}


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == statistics.median(values)
    assert percentile(values, 25) == pytest.approx(1.75)


def test_percentile_counts_failures_as_infinite():
    values = [1.0, 2.0, math.inf, math.inf]
    assert percentile(values, 25) == pytest.approx(1.75)
    assert percentile(values, 99) == math.inf
    assert percentile([1.0, math.inf], 50) == math.inf


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert quartiles([2.5]) == (2.5, 2.5)


def test_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 11.0, 10.0]
    q1, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert spread([3.0, 3.0, 3.0]) == 0.0


def test_self_time_subtracts_direct_children_only():
    events = [
        _event("bench.pass", 0, 1000, 1),
        _event("layer.a", 100, 600, 2, parent_id=1),
        _event("layer.b", 150, 200, 3, parent_id=2),
        _event("layer.c", 800, 100, 4, parent_id=1),
    ]
    own = dict(self_times(events))
    assert own["bench.pass"] == pytest.approx(300e-6)
    assert own["layer.a"] == pytest.approx(400e-6)
    assert own["layer.b"] == pytest.approx(200e-6)
    assert own["layer.c"] == pytest.approx(100e-6)


def test_self_time_is_floored_at_zero_and_keyed_by_process():
    events = [
        _event("parent", 0, 100, 1),
        _event("child", 0, 101, 2, parent_id=1),  # rounding overshoot
        _event("other", 0, 50, 1, pid=2),  # same id, other process
    ]
    own = dict(self_times(events))
    assert own["parent"] == 0.0
    assert own["other"] == pytest.approx(50e-6)


def test_self_time_by_name_sums_repeated_spans():
    events = [_event("bench.pass", 0, 100, 1),
              _event("layer", 0, 30, 2, parent_id=1),
              _event("layer", 40, 30, 3, parent_id=1)]
    totals = self_time_by_name(events)
    assert totals["layer"] == pytest.approx(60e-6)
    assert totals["bench.pass"] == pytest.approx(40e-6)


def test_unattributed_share_is_pass_self_time_over_pass_time():
    events = [
        _event("bench.pass", 0, 1000, 1),
        _event("layer", 0, 900, 2, parent_id=1),
        _event("bench.pass", 2000, 1000, 3),
        _event("layer", 2000, 1000, 4, parent_id=3),
        _event("loadgen.request", 5000, 70, 5),  # outside any pass
    ]
    assert unattributed_share(events) == pytest.approx(100 / 2000)
    with pytest.raises(ValueError):
        unattributed_share(events, root="missing")


def test_complete_events_skips_metadata():
    trace = {"traceEvents": [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1},
        _event("bench.pass", 0, 10, 1)]}
    assert [e["name"] for e in complete_events(trace)] == ["bench.pass"]


def test_import_times_reads_cumulative_microseconds():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        120 |   _io",
        "import time:       900 |       4000 |     numpy",
        "import time:        50 |       6000 | repro.search",
        "import time:         5 |          5 | numpy",
        "unrelated line",
    ])
    assert import_times(stderr) == {"_io": 120, "numpy": 4000,
                                    "repro.search": 6000}
