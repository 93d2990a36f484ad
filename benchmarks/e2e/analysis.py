"""Pure statistics and trace helpers for the end-to-end benchmark.

Nothing here imports ``repro``: the helpers work on plain numbers and
on the Chrome trace-event documents that
:func:`repro.obs.export.write_chrome_trace` writes, so the unit tests
in ``test_analysis.py`` run without the package on the path.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Name of the span the benchmark opens around each timed pass.  Its
#: self time (the pass minus every layer call inside it) is the time the
#: benchmark spent in its own code: the unattributed remainder.
PASS_SPAN = "bench.pass"


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks; ``percentile(v, 50)`` is the median."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if fraction == 0 or ordered[low] == ordered[high]:
        return ordered[low]  # also keeps inf - inf out of the sum
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values,
    n=4)`` gives them (a single value is its own quartiles)."""
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a zero
    median, which no end-to-end metric has)."""
    q1, q3 = quartiles(values)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def complete_events(trace: Mapping) -> List[dict]:
    """The complete (``"ph": "X"``) events of a Chrome trace document."""
    return [event for event in trace["traceEvents"]
            if event.get("ph") == "X"]


def self_times(events: Iterable[dict]) -> List[Tuple[str, float]]:
    """``(name, self seconds)`` per event: its duration minus the
    durations of its direct children, linked through the ``span_id`` /
    ``parent_id`` args the exporter writes.  Rounding in the exporter's
    microsecond fields can make a parent a hair shorter than its
    children; self time is floored at zero."""
    events = list(events)
    child_us: Dict[Tuple[int, int], float] = {}
    for event in events:
        parent = event.get("args", {}).get("parent_id")
        if parent is not None:
            key = (event["pid"], parent)
            child_us[key] = child_us.get(key, 0.0) + event["dur"]
    out = []
    for event in events:
        span_id = event.get("args", {}).get("span_id")
        children = child_us.get((event["pid"], span_id), 0.0)
        out.append((event["name"], max(0.0, event["dur"] - children) / 1e6))
    return out


def self_time_by_name(events: Iterable[dict]) -> Dict[str, float]:
    """Total self seconds per span name."""
    totals: Dict[str, float] = {}
    for name, seconds in self_times(events):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


def unattributed_share(events: Iterable[dict],
                       root: str = PASS_SPAN) -> float:
    """Share of the ``root`` spans' wall time not covered by any child
    span: the part of a timed pass no layer accounts for."""
    events = list(events)
    total = sum(event["dur"] for event in events if event["name"] == root)
    if total <= 0:
        raise ValueError(f"trace holds no {root!r} span with a duration")
    own = sum(seconds for name, seconds in self_times(events)
              if name == root)
    return own * 1e6 / total


def import_times(stderr: str) -> Dict[str, int]:
    """Cumulative microseconds per module from ``python -X importtime``
    output, at each module's first (outermost) appearance."""
    out: Dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header row
        out.setdefault(fields[2].strip(), int(fields[1]))
    return out
