"""One workload run in a fresh process (spawned by ``run.py``).

Protocol on stdout: the line ``READY`` once set-up is done (its arrival
time is the end of ``setup_s``), then, after the timed passes and the
untimed verification, one JSON line with the raw results.  With
``--setup-only`` the process exits right after ``READY``.

Every workload module provides ``prepare(run) -> state``,
``measure(run, state) -> passes``, ``verify(run, state, passes)``,
``metrics(run, state, passes) -> (end-to-end, named)`` and
``layers(run, state, passes, self_s) -> per-layer``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import platform
import resource
import sys

from repro.obs.export import write_chrome_trace
from repro.search.vectorized import threshold_info

from analysis import (
    PASS_SPAN,
    complete_events,
    self_time_by_name,
    unattributed_share,
)
from harness import OUT_DIR, NPROC, Run, overhead_ratio

#: Workload name -> module implementing it.
MODULES = {
    "crossproduct": "crossproduct",
    "planner-sweeps": "planner",
    "serve-mixed": "serve_mixed",
    "cli-cold": "cli_cold",
}


def environment(seed: int) -> dict:
    """What the results depend on besides the code: recorded with every
    run, and runs that differ in the sweep-path threshold are never
    compared."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": NPROC, "seed": seed, "threshold": threshold_info()}


def _finite(run: Run, name: str, value: float):
    """``value``, or ``None`` plus a failure when it is not finite (an
    infinite percentile means too many requests failed)."""
    if math.isfinite(value):
        return value
    run.fail(f"{name} is {value}")
    return None


def _trace_layers(run: Run, module, state, passes) -> dict:
    """Write the Chrome trace, read it back, and derive per-pass self
    time per span name plus the unattributed share."""
    path = OUT_DIR / f"trace-{run.workload}-seed{run.seed}.json"
    path.parent.mkdir(exist_ok=True)
    write_chrome_trace(run.tracer.records(), path)
    events = complete_events(json.loads(path.read_text()))
    n_passes = sum(1 for event in events if event["name"] == PASS_SPAN)
    self_s = {name: seconds / n_passes
              for name, seconds in self_time_by_name(events).items()
              if name != PASS_SPAN}
    return {
        "trace": str(path.relative_to(OUT_DIR.parent)),
        "self_s": self_s,
        "layers": {**module.layers(run, state, passes, self_s),
                   "unattributed_share": unattributed_share(events),
                   "trace.overhead_ratio": overhead_ratio(passes)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=MODULES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module = importlib.import_module(MODULES[args.workload])
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    state = module.prepare(run)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    passes = module.measure(run, state)
    module.verify(run, state, passes)
    result = {"workload": args.workload, "environment":
              environment(args.seed), "attempted": run.attempted}
    if run.traced:
        result.update(_trace_layers(run, module, state, passes))
    else:
        e2e, named = module.metrics(run, state, passes)
        e2e.setdefault("peak_rss_mb", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024)
        result["e2e"] = {name: _finite(run, name, value)
                         for name, value in e2e.items()}
        result["named"] = {
            name: (value if isinstance(value, str)
                   else _finite(run, name, value), unit)
            for name, (value, unit) in named.items()}
    result["failed"] = run.failed
    result["failures"] = run.failures
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
