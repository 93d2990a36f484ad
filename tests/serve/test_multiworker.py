"""Multi-worker serving tests: board mechanics and fleet behaviour.

The :class:`~repro.serve.multiproc.WorkerBoard` unit tests run
in-process (the board is plain JSON files, so they need neither NumPy
nor ``fork``).  The end-to-end tests drive a real ``--workers 2``
fleet through a subprocess: quorum readiness, request fan-out across
worker pids, a SIGKILL'd worker being respawned without losing the
quorum, a rolling SIGTERM drain that completes accepted requests, and
the no-leaked-segments guarantee afterwards.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.search import shm
from repro.serve.multiproc import (
    SLOT_STALE_S,
    WorkerBoard,
    reuseport_available,
)
from repro.serve.validation import EstimateRequest, warm_request

HAVE_FORK = hasattr(os, "fork")
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="os.fork unavailable")


class TestWorkerBoard:
    @pytest.fixture()
    def board(self, tmp_path):
        return WorkerBoard(tmp_path, workers_expected=3)

    def test_slot_roundtrip_and_clear(self, board):
        board.write_slot(0, {"pid": 123, "ready": True})
        slots = board.read_slots()
        assert slots[0]["pid"] == 123
        assert slots[0]["index"] == 0
        assert "ts" in slots[0]
        board.clear_slot(0)
        assert board.read_slots() == {}
        board.clear_slot(0)  # idempotent

    def test_stale_slots_are_dead(self, board, monkeypatch):
        board.write_slot(1, {"pid": 9, "ready": True})
        real_time = time.time
        monkeypatch.setattr(time, "time",
                            lambda: real_time() + SLOT_STALE_S + 1.0)
        assert board.read_slots() == {}

    def test_unparseable_slot_is_skipped(self, board):
        board.write_slot(0, {"pid": 1, "ready": True})
        (board.root / "worker-1.json").write_text("{torn")
        slots = board.read_slots()
        assert list(slots) == [0]

    def test_quorum_is_majority(self, tmp_path):
        assert WorkerBoard(tmp_path, 1).quorum == 1
        assert WorkerBoard(tmp_path, 2).quorum == 2
        assert WorkerBoard(tmp_path, 3).quorum == 2
        assert WorkerBoard(tmp_path, 4).quorum == 3

    def test_quorum_status_substitutes_self(self, board):
        board.write_slot(0, {"pid": 10, "ready": True, "rung": "a"})
        board.write_slot(1, {"pid": 11, "ready": False, "rung": "b"})
        status = board.quorum_status(
            {"ready": True, "evaluation_path": "compiled"},
            local_index=1)
        workers = {w["index"]: w for w in status["workers"]}
        assert workers[1]["self"] is True
        assert workers[1]["ready"] is True  # live, not the stale slot
        assert workers[1]["pid"] == os.getpid()
        assert workers[2]["ready"] is False  # never heartbeated
        assert status["workers_ready"] == 2
        assert status["ready"] is True  # 2 >= quorum(3) == 2

    def test_aggregate_metrics_sums_across_slots(self, board):
        board.write_slot(0, {"metrics": {
            "counters": {"serve.requests": 3},
            "gauges": {"g": 1.0},
            "histograms": {"h": {"count": 2, "sum": 0.5,
                                 "bounds": [1.0],
                                 "bucket_counts": [2, 0]}}}})
        local = {"counters": {"serve.requests": 4, "only.local": 1},
                 "gauges": {"g": 2.0},
                 "histograms": {"h": {"count": 1, "sum": 0.25,
                                      "bounds": [1.0],
                                      "bucket_counts": [1, 0]}}}
        merged = board.aggregate_metrics(local, local_index=1)
        assert merged["counters"]["serve.requests"] == 7
        assert merged["counters"]["only.local"] == 1
        assert merged["gauges"]["g"] == 3.0
        assert merged["histograms"]["h"]["count"] == 3
        assert merged["histograms"]["h"]["bucket_counts"] == [3, 0]
        assert merged["workers_reporting"] == [0, 1]
        assert merged["workers_expected"] == 3



def test_reuseport_available_is_stable():
    assert reuseport_available() == reuseport_available()


def test_warm_request_is_always_feasible():
    request = warm_request("mingpt-85m")
    defaults = EstimateRequest(model="mingpt-85m")
    # Pure data-parallel over every accelerator: feasible on any
    # system, unlike the tp=pp=dp=1 defaults.
    assert request.tp == request.pp == 1
    assert request.dp == defaults.nodes * defaults.accel_per_node


# ---------------------------------------------------------------------------
# End-to-end fleet tests (real fork, real sockets)
# ---------------------------------------------------------------------------

ESTIMATE = json.dumps({"model": "mingpt-85m", "nodes": 2, "dp": 16,
                       "batch": 256, "tokens": 1.0e9}).encode()


def _read_base_url(process, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if line.startswith("serving on "):
            return line.split("serving on ", 1)[1].strip()
    pytest.fail("fleet master never announced its address")


def _get(base, path, timeout=30):
    with urllib.request.urlopen(base + path, timeout=timeout) as r:
        return r.status, json.loads(r.read())


def _estimate(base, timeout=60):
    request = urllib.request.Request(base + "/v1/estimate",
                                     data=ESTIMATE)
    with urllib.request.urlopen(request, timeout=timeout) as r:
        return json.loads(r.read())


def _await_ready(base, timeout=90.0):
    deadline = time.monotonic() + timeout
    status = None
    while time.monotonic() < deadline:
        try:
            code, status = _get(base, "/readyz")
            if status.get("ready"):
                return status
        except Exception:  # noqa: BLE001 — poll until the deadline
            pass
        time.sleep(0.25)
    pytest.fail(f"fleet never reached ready quorum: {status}")


@needs_fork
def test_workers_drain_when_master_is_sigkilled():
    """A SIGKILL'd master must not strand orphaned workers.

    Workers watch ``os.getppid()`` from the heartbeat thread and drain
    themselves once the master vanishes without signalling them.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--workers", "2",
         "--port", "0", "--warm", "mingpt-85m", "--deadline", "60",
         "--log-level", "error"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env)
    try:
        base = _read_base_url(process)
        status = _await_ready(base)
        worker_pids = {w["pid"] for w in status["workers"] if w["pid"]}
        assert len(worker_pids) == 2
        process.kill()
        process.wait(30.0)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            alive = {pid for pid in worker_pids if _pid_alive(pid)}
            if not alive:
                return
            time.sleep(0.25)
        pytest.fail(f"orphaned workers survived master SIGKILL: {alive}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(10.0)


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@pytest.fixture
def fleet():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    leaked_before = set(shm.leaked_segment_names())
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--workers", "2",
         "--port", "0", "--warm", "mingpt-85m", "--deadline", "60",
         "--log-level", "error"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env)
    base = _read_base_url(process)
    yield process, base
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(60.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(10.0)
    leaked = set(shm.leaked_segment_names()) - leaked_before
    assert leaked == set(), (
        f"fleet leaked shared-memory segments: {sorted(leaked)}")



@needs_fork
def test_fleet_quorum_fanout_respawn_and_drain(fleet):
    process, base = fleet

    status = _await_ready(base)
    assert status["workers_expected"] == 2
    assert status["quorum"] == 2
    pids = {w["pid"] for w in status["workers"] if w["pid"]}
    assert len(pids) == 2
    assert process.pid not in pids  # master serves nothing itself

    for _ in range(4):
        payload = _estimate(base)
        assert payload["batch_time_s"] > 0

    # Peer slots refresh once per heartbeat, so the aggregated counter
    # can trail the requests by up to HEARTBEAT_INTERVAL_S.
    deadline = time.monotonic() + 10.0
    while True:
        code, snapshot = _get(base, "/metrics")
        if snapshot["counters"].get("serve.requests", 0) >= 4:
            break
        if time.monotonic() > deadline:
            pytest.fail(f"aggregated serve.requests never reached 4: "
                        f"{snapshot['counters']}")
        time.sleep(0.25)
    assert snapshot["workers_expected"] == 2

    # Kill one worker outright: the fleet keeps serving, the master
    # respawns the slot, and the quorum recovers with a fresh pid.
    victim = sorted(pids)[0]
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 90.0
    recovered = None
    while time.monotonic() < deadline:
        try:
            _, recovered = _get(base, "/readyz")
        except Exception:  # noqa: BLE001 — the victim's socket may answer once
            time.sleep(0.25)
            continue
        fresh = {w["pid"] for w in recovered["workers"] if w["pid"]}
        if recovered.get("ready") and len(fresh) == 2 \
                and victim not in fresh:
            break
        time.sleep(0.25)
    else:
        pytest.fail(f"fleet never recovered from a killed worker: "
                    f"{recovered}")
    assert _estimate(base)["batch_time_s"] > 0

    # Rolling drain: requests in flight when SIGTERM lands complete.
    # The body asks for a model no worker has compiled, so evaluation
    # takes long enough that the responses are genuinely pending when
    # the drain starts; the short grace after writing lets the workers
    # accept the connections (a connection still in the kernel backlog
    # when its socket closes is refused, not drained — that is the
    # documented SO_REUSEPORT deploy caveat, not a dropped request).
    cold = json.dumps({"model": "megatron-145b", "nodes": 2, "dp": 16,
                       "batch": 256}).encode()
    host, port = base.split("//", 1)[1].rsplit(":", 1)
    connections = []
    for _ in range(4):
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=60)
        connection.connect()
        connection.request("POST", "/v1/estimate", body=cold,
                           headers={"Content-Type":
                                    "application/json"})
        connections.append(connection)
    time.sleep(0.2)
    process.send_signal(signal.SIGTERM)
    try:
        for connection in connections:
            reply = connection.getresponse()
            assert reply.status == 200
            payload = json.loads(reply.read())
            assert payload["batch_time_s"] > 0
            assert payload["model"] == "megatron-145b"
    finally:
        for connection in connections:
            connection.close()
    assert process.wait(timeout=90.0) == 0
    assert "shutdown complete" in process.stdout.read()
