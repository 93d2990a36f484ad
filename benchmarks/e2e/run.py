"""End-to-end benchmark: four workloads, each in a fresh process.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1                 # all workloads
    python3 benchmarks/e2e/run.py --seed 1 --workload crossproduct
    python3 benchmarks/e2e/run.py --seed 1 --trace 1       # per-layer run
    python3 benchmarks/e2e/run.py --seed 1 --runs 5        # median + IQR

Metric names, units and bounds come from ``BENCHMARK.json`` at the
root.  An untraced run (``--trace 0``) reports the end-to-end metrics;
a traced run (``--trace 1``) records spans around every call into a
layer, writes a Chrome trace per workload under ``.bench_e2e/`` and
reports the per-layer metrics.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is non-zero when any output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from analysis import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("crossproduct", "planner-sweeps", "serve-mixed", "cli-cold")

#: Workloads whose worker measures set-up itself (the daemon's spawn to
#: ready), rather than being timed from its own spawn to ``READY``.
SELF_TIMED_SETUP = frozenset({"serve-mixed"})

#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Slack beyond the measured seconds for set-up, verification and the
#: traced run's extra work before a worker is killed.
WORKER_GRACE_S = 120.0


class BenchmarkError(RuntimeError):
    """A workload process failed to produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    return env


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool = False) -> Tuple[float, Optional[dict]]:
    """Run one worker; returns seconds from spawn to its ``READY`` line
    and its result (``None`` with ``setup_only``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--setup-only"] if setup_only
                                     else [])
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # The worker's session holds every process it starts (the daemon,
    # CLI children), so a timeout takes all of them down together.
    watchdog = threading.Timer(seconds + WORKER_GRACE_S, _kill_session,
                               (proc.pid,))
    watchdog.start()
    ready_s = None
    lines: List[str] = []
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "READY":
                ready_s = time.perf_counter() - begin
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            _kill_session(proc.pid)
            proc.wait()
    if code != 0 or ready_s is None:
        raise BenchmarkError(f"{workload} worker exited with {code}")
    if setup_only:
        return ready_s, None
    if not lines:
        raise BenchmarkError(f"{workload} worker printed no result")
    return ready_s, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """One run of one workload: set-up probes, the measured worker, and
    its result reshaped to the benchmark's output format."""
    setups = []
    if not trace and workload not in SELF_TIMED_SETUP:
        setups = [spawn(workload, seed, seconds, trace, True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
    ready_s, raw = spawn(workload, seed, seconds, trace)
    setups.append(ready_s)
    spec = load_spec()
    metrics: Dict[str, dict] = {}
    if trace:
        layers = raw["layers"]
        declared = {item["name"]: item["unit"] for item in spec["per_layer"]}
        unknown = sorted(set(layers) - set(declared))
        if unknown:
            raise BenchmarkError(f"undeclared per-layer metrics {unknown}")
        for name, unit in declared.items():
            value = layers.get(name)
            if value is None and name.endswith("_s"):
                value = raw["self_s"].get(name[:-2])
            metrics[name] = {"value": 0 if value is None else value,
                             "unit": unit}
    else:
        e2e = dict(raw["e2e"])
        e2e.setdefault("setup_s", statistics.median(setups))
        for item in spec["end_to_end"]:
            metrics[item["name"]] = {"value": e2e[item["name"]],
                                     "unit": item["unit"]}
        raw["named"]["error_share"] = [
            raw["failed"] / max(1, raw["attempted"]), "ratio"]
    return {"workload": workload, "correct": raw["failed"] == 0,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics, "raw": raw}


def describe(result: dict) -> List[str]:
    """Human-readable lines for one run: the figures named per surface,
    then the benchmark's metrics, then any failure."""
    raw = result["raw"]
    env = raw["environment"]
    threshold = env["threshold"]
    name = result["workload"]
    lines = [f"# {name}: seed={env['seed']} python={env['python']} "
             f"numpy={env['numpy']} nproc={env['nproc']} vectorize "
             f"threshold={threshold['threshold']} "
             f"({threshold['source']})"]
    rows = list(raw.get("named", {}).items()) + [
        (metric, (entry["value"], entry["unit"]))
        for metric, entry in result["metrics"].items()]
    for metric, (value, unit) in rows:
        shown = value if isinstance(value, str) else (
            "null" if value is None else f"{value:.6g}")
        lines.append(f"{name:15s} {metric:30s} {shown:>12s} {unit}")
    if "trace" in raw:
        lines.append(f"{name:15s} trace written to {raw['trace']}")
    lines.extend(f"{name:15s} FAILED: {failure}"
                 for failure in raw["failures"])
    return lines


def summarize(results: List[dict]) -> dict:
    """Median and quartiles of every metric per workload, refusing to
    pool runs that resolved a different sweep-path threshold."""
    thresholds = {json.dumps(r["raw"]["environment"]["threshold"],
                             sort_keys=True) for r in results}
    if len(thresholds) > 1:
        raise BenchmarkError(
            f"runs resolved different vectorize thresholds {thresholds}; "
            "their numbers are not comparable")
    summary: Dict[str, Dict[str, dict]] = {}
    for result in results:
        per = summary.setdefault(result["workload"], {})
        for metric, entry in result["metrics"].items():
            slot = per.setdefault(metric, {"unit": entry["unit"],
                                           "values": []})
            if entry["value"] is not None:
                slot["values"].append(entry["value"])
    for per in summary.values():
        for slot in per.values():
            values = slot["values"]
            if values:
                slot["median"] = statistics.median(values)
                slot["q1"], slot["q3"] = quartiles(values)
                slot["spread"] = spread(values)
    return summary


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(
        description="Run the end-to-end benchmark (see README.md).")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the one workload to run (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="fresh runs per workload, alternating "
                             "workload order; reports median and IQR")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        print(f"error: run from a repository checkout: {SRC / 'repro'} "
              f"and {spec_path} are required", file=sys.stderr)
        return 2
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    seconds = args.seconds or load_spec()["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    results = []
    try:
        for index in range(args.runs):
            order = workloads if index % 2 == 0 else workloads[::-1]
            for workload in order:
                result = run_workload(workload, args.seed, seconds,
                                      args.trace)
                for line in describe(result):
                    print(line, flush=True)
                results.append(result)
        summary = summarize(results) if len(results) > 1 else None
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    correct = all(result["correct"] for result in results)
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    if summary is None:
        metrics = results[0]["metrics"]
    else:
        metrics = summary
        for workload, per in summary.items():
            for metric, slot in per.items():
                if "median" in slot:
                    print(f"{workload:15s} {metric:30s} median "
                          f"{slot['median']:.6g} {slot['unit']} "
                          f"IQR/median {slot['spread']:.3f} "
                          f"(n={len(slot['values'])})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
