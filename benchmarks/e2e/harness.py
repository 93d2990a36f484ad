"""Per-process plumbing shared by the workload modules.

A workload process owns one :class:`Run`: the seeded random source,
the timed-pass loop, the private tracer and the failure ledger.  The
tracer is a private :class:`repro.obs.trace.Tracer`, never the
process-wide default, so the program's own instrumentation stays off
and a traced pass runs the same code paths as an untraced one.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional

from repro.obs.trace import Tracer

from analysis import PASS_SPAN

#: The repository root (the benchmark always runs with it as cwd).
ROOT = Path(__file__).resolve().parents[2]

#: Where traces and daemon logs go; listed in the root .gitignore.
OUT_DIR = ROOT / ".bench_e2e"

#: Load is sized for this many cores: at most this many client
#: connections or worker threads, however large the machine.
NPROC = min(2, os.cpu_count() or 1)

#: Failure messages kept verbatim in the result (the count is exact).
MAX_REPORTED_FAILURES = 10


@dataclass
class Pass:
    """One timed pass: whether it was traced, its wall time, and what
    the workload's pass function returned."""

    traced: bool
    wall_s: float
    value: Any


class Run:
    """State of one workload run in one process."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.rng = random.Random(f"{workload}:{seed}")
        self.tracer = Tracer(enabled=True)
        self.off = Tracer(enabled=False)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        """Count one failed or wrong operation."""
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)

    def passes(self, one_pass: Callable[[Tracer], Any], min_passes: int,
               reset: Optional[Callable[[], None]] = None,
               seconds: Optional[float] = None) -> List[Pass]:
        """Repeat ``one_pass`` until ``seconds`` (default: the run's
        time) are used, at least ``min_passes`` times.

        A new pass starts only while the median pass still fits in the
        remaining time, so every run does a whole number of passes of
        identical work.  In a traced run every second pass records
        spans and the others do not, so the two can be compared for
        tracing overhead.  ``reset`` runs untimed before each pass.
        """
        budget = self.seconds if seconds is None else seconds
        done: List[Pass] = []
        started = time.perf_counter()
        while True:
            if len(done) >= min_passes:
                typical = statistics.median(p.wall_s for p in done)
                if time.perf_counter() - started + typical > budget:
                    break
            traced = self.traced and len(done) % 2 == 1
            spans = self.tracer if traced else self.off
            if reset is not None:
                reset()
            begin = time.perf_counter()
            with spans.span(PASS_SPAN, category="bench"):
                value = one_pass(spans)
            done.append(Pass(traced, time.perf_counter() - begin, value))
        return done


def untraced(passes: List[Pass]) -> List[Pass]:
    return [p for p in passes if not p.traced]


def traced(passes: List[Pass]) -> List[Pass]:
    return [p for p in passes if p.traced]


def best_of(passes: List[Pass], key: str) -> List[float]:
    """Per operation, its fastest time over the untraced passes.

    ``key`` names a list in every pass's value, one entry per operation
    in a fixed order.  Every pass repeats identical work, so the fastest
    repeat is the operation's cost with the least interference from
    whatever else the machine ran at the time; other processes only
    ever add time.
    """
    return [min(times) for times in
            zip(*(p.value[key] for p in untraced(passes)))]


def overhead_ratio(passes: List[Pass]) -> float:
    """Median traced pass wall over median untraced pass wall."""
    return (statistics.median(p.wall_s for p in traced(passes))
            / statistics.median(p.wall_s for p in untraced(passes)))
