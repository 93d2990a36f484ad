#!/usr/bin/env python
"""CI smoke for the estimation daemon, single- and multi-worker.

Launches the daemon as a real subprocess and exercises liveness, one
genuine estimate round-trip and the metrics endpoint, then SIGTERMs it
and asserts a clean graceful shutdown: exit code 0, "shutdown
complete" printed, and no process left in the daemon's process group.
The cycle runs three times — the single-process daemon through both
entry points (``python -m repro.serve`` and ``python -m repro serve``, the
``amped serve`` subcommand), then a ``--workers 2`` pre-fork fleet
(where ``/readyz`` must report the two-worker quorum) — and finishes
with the shared-memory leak check: no ``amped-*`` segment may survive
in ``/dev/shm``.

Usage: ``python scripts/serve_smoke.py`` (run from the repo root; adds
``src/`` to the child's PYTHONPATH automatically).  Exits non-zero on
the first failed check.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.search.shm import leaked_segment_names  # noqa: E402

ESTIMATE = {"model": "mingpt-85m", "nodes": 2, "dp": 16,
            "batch": 256, "tokens": 1.0e9}


def fail(message):
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def get_json(url, timeout=15):
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


def post_json(url, payload, timeout=60):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


def orphaned_group_pids(pgid):
    """PIDs still alive in process group ``pgid``.

    Each daemon starts in a session of its own, so its group holds the
    daemon and every worker it forked, and a worker keeps the group
    after the daemon exits.  Other processes on the machine, whatever
    their command line, are never counted.
    """
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp.
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def run_cycle(label, extra_args, expect_workers=None,
              module=("repro.serve",)):
    """One boot → probe → SIGTERM-drain cycle against a fresh daemon
    started as ``python -m <module...>``."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    process = subprocess.Popen(
        [sys.executable, "-m", *module, "--port", "0",
         "--deadline", "60"] + extra_args,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True)
    try:
        base = None
        deadline = time.monotonic() + 90.0
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            if line.startswith("serving on "):
                base = line.split("serving on ", 1)[1].strip()
                break
        if base is None:
            fail(f"[{label}] daemon never announced its address")
        print(f"[{label}] daemon up at {base}")

        status, body = get_json(base + "/healthz")
        if status != 200 or body.get("status") != "ok":
            fail(f"[{label}] healthz: {status} {body}")
        print(f"[{label}] healthz ok")

        if expect_workers is not None:
            deadline = time.monotonic() + 90.0
            ready = None
            while time.monotonic() < deadline:
                try:
                    _, ready = get_json(base + "/readyz")
                except urllib.error.HTTPError as error:
                    ready = json.loads(error.read())
                except OSError:
                    time.sleep(0.25)
                    continue
                if ready.get("ready"):
                    break
                time.sleep(0.25)
            if not (ready or {}).get("ready"):
                fail(f"[{label}] fleet never reached quorum: {ready}")
            if ready.get("workers_expected") != expect_workers:
                fail(f"[{label}] readyz reports "
                     f"{ready.get('workers_expected')} workers, "
                     f"expected {expect_workers}")
            pids = {w.get("pid") for w in ready.get("workers", [])}
            if len(pids - {None}) != expect_workers:
                fail(f"[{label}] quorum lists pids {pids}")
            print(f"[{label}] readyz quorum ok "
                  f"({ready['workers_ready']}/{expect_workers} ready)")

        status, payload = post_json(base + "/v1/estimate", ESTIMATE)
        if status != 200:
            fail(f"[{label}] estimate: {status} {payload}")
        if not payload.get("batch_time_s", 0) > 0:
            fail(f"[{label}] estimate payload missing batch_time_s: "
                 f"{payload}")
        print(f"[{label}] estimate ok: "
              f"batch_time_s={payload['batch_time_s']:.4g} "
              f"training_days={payload.get('training_days', 0):.4g}")

        # In a fleet the aggregated counter can trail the request by
        # one heartbeat: /metrics may land on the worker that did not
        # serve the estimate, before its peer slot refreshed.
        deadline = time.monotonic() + 10.0
        while True:
            status, snapshot = get_json(base + "/metrics")
            if status != 200:
                fail(f"[{label}] metrics: {status}")
            if snapshot["counters"].get("serve.requests", 0) >= 1:
                break
            if time.monotonic() > deadline:
                fail(f"[{label}] metrics missing serve.requests: "
                     f"{snapshot['counters']}")
            time.sleep(0.25)
        if expect_workers is not None \
                and snapshot.get("workers_expected") != expect_workers:
            fail(f"[{label}] metrics not fleet-aggregated: "
                 f"{snapshot.get('workers_expected')}")
        print(f"[{label}] metrics ok")

        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            fail(f"[{label}] daemon did not exit within 60s of SIGTERM")
        if code != 0:
            fail(f"[{label}] daemon exited {code} after SIGTERM; "
                 f"stderr:\n{process.stderr.read()}")
        tail = process.stdout.read()
        if "shutdown complete" not in tail:
            fail(f"[{label}] missing 'shutdown complete' after drain: "
                 f"{tail!r}")
        print(f"[{label}] SIGTERM drain ok (exit 0)")

        orphans = orphaned_group_pids(process.pid)
        if orphans:
            fail(f"[{label}] orphaned daemon processes: {orphans}")
        print(f"[{label}] no orphaned workers")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if process.poll() is None:
            process.wait(10.0)


def main():
    leaked_before = set(leaked_segment_names())
    run_cycle("single", [])
    run_cycle("amped serve", [], module=("repro", "serve"))
    if hasattr(os, "fork"):
        run_cycle("workers=2", ["--workers", "2", "--warm", "mingpt-85m",
                                "--log-level", "error"],
                  expect_workers=2)
    else:
        print("[workers=2] skipped: os.fork unavailable")
    leaked = set(leaked_segment_names()) - leaked_before
    if leaked:
        fail(f"leaked shared-memory segments: {sorted(leaked)}")
    print("no leaked shared-memory segments")
    print("SMOKE PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
