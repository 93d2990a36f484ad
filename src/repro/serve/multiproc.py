"""Pre-fork multi-worker serving: every core behind one port.

The single-process daemon (:mod:`repro.serve.server`) is pinned to one
GIL, so a multi-core machine serves estimation traffic at single-core
speed.  This module scales it out with the classic pre-fork topology:

- A **master** process resolves the listen strategy, optionally
  pre-warms the compiled-sweep cache (the fork then shares the warm
  tables copy-on-write), forks ``workers`` children, supervises them
  (a crashed worker is respawned), and performs a **rolling drain** on
  SIGTERM/SIGINT — workers are drained one at a time so the fleet keeps
  serving until the last one stops accepting.
- Each **worker** runs the ordinary :class:`~repro.serve.server.
  ServeDaemon` — same handlers, same admission control, same breaker —
  on its own socket bound with ``SO_REUSEPORT``, so the kernel load-
  balances accepted connections across workers.  Where the platform
  lacks ``SO_REUSEPORT`` the master binds a single listening socket
  before forking and every worker accepts on the inherited fd.
- Workers heartbeat onto a :class:`WorkerBoard` (atomic JSON slot files
  in a private runtime directory): readiness, degradation rung and
  metrics snapshot.  Any worker's ``/readyz`` then answers for the
  **fleet quorum** (majority of expected workers ready), and
  ``/metrics`` aggregates counters across all live slots.
- Each worker keeps its own compiled-sweep cache.  Term tables fill
  lazily, microseconds per entry, in the process that evaluates them,
  so a worker builds every sweep it serves itself; nothing but the
  master's pre-warmed cache (inherited by the fork) is shared.

See ``docs/serving.md`` for the topology diagram, the SO_REUSEPORT
caveats and the runbook.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.metrics import collect_cache_metrics, get_metrics
from repro.units import SECONDS_PER_MINUTE
from repro.serve.server import _Handler, _Server, ServeConfig, ServeDaemon

_LOG = logging.getLogger("repro.serve")

#: Seconds between worker heartbeats onto the board.
HEARTBEAT_INTERVAL_S = 0.5

#: A slot older than this is treated as dead for quorum/aggregation.
SLOT_STALE_S = 5.0

#: How long the master waits for workers to start listening before it
#: announces the serving address anyway.
STARTUP_TIMEOUT_S = SECONDS_PER_MINUTE

#: Backoff before respawning a crashed worker, so a worker that dies at
#: startup cannot turn the master into a fork bomb.
RESPAWN_DELAY_S = 0.5


def reuseport_available() -> bool:
    """Whether this platform supports ``SO_REUSEPORT`` load balancing."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    except OSError:
        return False
    finally:
        probe.close()
    return True


class WorkerBoard:
    """Shared fleet state: one atomic JSON slot file per worker.

    Writes go through a temp file + ``os.replace`` so readers never see
    a torn slot; a reader that catches a decode error (a slot mid-
    replace on exotic filesystems) skips that slot for one poll.  The
    board is advisory — serving never blocks on it.
    """

    def __init__(self, root: Path, workers_expected: int) -> None:
        self.root = Path(root)
        self.workers_expected = workers_expected

    def _slot_path(self, index: int) -> Path:
        return self.root / f"worker-{index}.json"

    def write_slot(self, index: int, payload: Dict[str, Any]) -> None:
        payload = dict(payload, index=index, ts=time.time())
        tmp = self.root / f".worker-{index}.tmp"
        try:
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, self._slot_path(index))
        except OSError:  # board gone mid-drain: serving goes on
            _LOG.debug("slot write failed for worker %d", index,
                       exc_info=True)

    def clear_slot(self, index: int) -> None:
        try:
            self._slot_path(index).unlink()
        except OSError:
            pass

    def read_slots(self) -> Dict[int, Dict[str, Any]]:
        """Every parseable, fresh slot on the board, by worker index."""
        slots: Dict[int, Dict[str, Any]] = {}
        now = time.time()
        for index in range(self.workers_expected):
            try:
                payload = json.loads(self._slot_path(index).read_text())
            except (OSError, ValueError):
                continue
            if now - float(payload.get("ts", 0.0)) > SLOT_STALE_S:
                continue  # stale: worker died without cleaning up
            slots[index] = payload
        return slots

    @property
    def quorum(self) -> int:
        """Ready workers needed for the fleet to report ready."""
        return self.workers_expected // 2 + 1

    def quorum_status(self, local_status: Dict[str, Any],
                      local_index: Optional[int]) -> Dict[str, Any]:
        """The fleet ``/readyz`` payload, seen from one worker.

        The answering worker substitutes its own live status for its
        (possibly slightly stale) slot, so a worker that just started
        draining reports the change immediately.
        """
        slots = self.read_slots()
        workers = []
        ready_count = 0
        for index in range(self.workers_expected):
            if index == local_index:
                entry = {"index": index, "pid": os.getpid(),
                         "ready": bool(local_status.get("ready")),
                         "rung": local_status.get("evaluation_path"),
                         "self": True}
            elif index in slots:
                slot = slots[index]
                entry = {"index": index, "pid": slot.get("pid"),
                         "ready": bool(slot.get("ready")),
                         "rung": slot.get("rung")}
            else:
                entry = {"index": index, "pid": None, "ready": False,
                         "rung": None}
            if entry["ready"]:
                ready_count += 1
            workers.append(entry)
        return {
            "ready": ready_count >= self.quorum,
            "workers_expected": self.workers_expected,
            "workers_ready": ready_count,
            "quorum": self.quorum,
            "workers": workers,
            "self": local_status,
        }

    def aggregate_metrics(self, local_snapshot: Dict[str, Any],
                          local_index: Optional[int]) -> Dict[str, Any]:
        """The fleet ``/metrics`` payload: counters and gauges summed
        across every live slot (the answering worker contributes its
        own fresh snapshot), histograms merged where bounds agree."""
        snapshots: Dict[int, Dict[str, Any]] = {}
        for index, slot in self.read_slots().items():
            snapshot = slot.get("metrics")
            if isinstance(snapshot, dict):
                snapshots[index] = snapshot
        if local_index is not None:
            snapshots[local_index] = local_snapshot
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for snapshot in snapshots.values():
            for name, value in snapshot.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                gauges[name] = gauges.get(name, 0) + value
            for name, hist in snapshot.get("histograms", {}).items():
                merged = histograms.get(name)
                if merged is None:
                    histograms[name] = {
                        "count": hist.get("count", 0),
                        "sum": hist.get("sum", 0.0),
                        "bounds": list(hist.get("bounds", [])),
                        "bucket_counts": list(
                            hist.get("bucket_counts", [])),
                    }
                elif merged["bounds"] == list(hist.get("bounds", [])):
                    merged["count"] += hist.get("count", 0)
                    merged["sum"] += hist.get("sum", 0.0)
                    merged["bucket_counts"] = [
                        a + b for a, b in zip(
                            merged["bucket_counts"],
                            hist.get("bucket_counts", []))]
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "workers_reporting": sorted(snapshots),
            "workers_expected": self.workers_expected,
        }


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _reuseport_factory(config: ServeConfig, port: int):
    """Server factory binding this worker's own SO_REUSEPORT socket."""
    def factory(handler=_Handler):
        server = _Server((config.host, port), handler,
                         bind_and_activate=False)
        server.socket.setsockopt(socket.SOL_SOCKET,
                                 socket.SO_REUSEPORT, 1)
        try:
            server.server_bind()
            server.server_activate()
        except BaseException:  # noqa: BLE001 — cleanup-then-reraise: close the half-bound socket
            server.server_close()
            raise
        return server
    return factory


def _inherited_factory(listen_sock: socket.socket):
    """Server factory adopting the master's pre-bound listening socket
    (the fallback where SO_REUSEPORT is unavailable: every worker
    accepts on the same inherited fd)."""
    def factory(handler=_Handler):
        address = listen_sock.getsockname()[:2]
        server = _Server(address, handler, bind_and_activate=False)
        server.socket.close()
        server.socket = listen_sock
        server.server_address = address
        server.server_name = socket.getfqdn(address[0])
        server.server_port = address[1]
        return server  # already bound + listening in the master
    return factory


def _worker_main(config: ServeConfig, index: int, board: WorkerBoard,
                 port: int,
                 listen_sock: Optional[socket.socket]) -> int:
    """Everything one worker does between fork and ``os._exit``."""
    # The master's supervision handlers are not this process's
    # business; ServeDaemon.run installs the drain handlers.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    if listen_sock is not None:
        factory = _inherited_factory(listen_sock)
    else:
        factory = _reuseport_factory(config, port)
    daemon = ServeDaemon(config, server_factory=factory, board=board,
                         worker_index=index)

    stop_heartbeat = threading.Event()
    master_pid = os.getppid()

    def heartbeat() -> None:
        while True:
            if os.getppid() != master_pid:
                # The master died without signalling us (SIGKILL'd or
                # crashed): drain and exit instead of serving forever
                # as an orphan on a port nobody supervises.
                _LOG.warning("master %d gone; draining orphaned "
                             "worker %d", master_pid, index)
                daemon.request_shutdown()
                return
            try:
                status = daemon.service.status()
                snapshot = collect_cache_metrics(
                    get_metrics()).snapshot()
                board.write_slot(index, {
                    "pid": os.getpid(),
                    "listening": daemon.httpd is not None,
                    "ready": bool(status.get("ready")),
                    "rung": status.get("evaluation_path"),
                    "status": status,
                    "metrics": snapshot,
                })
            except Exception:  # noqa: BLE001 — the heartbeat must outlive any one bad snapshot
                _LOG.debug("heartbeat failed", exc_info=True)
            if stop_heartbeat.wait(HEARTBEAT_INTERVAL_S):
                return

    ticker = threading.Thread(target=heartbeat, name="serve-heartbeat",
                              daemon=True)
    ticker.start()
    try:
        code = daemon.run(announce=False)
    finally:
        stop_heartbeat.set()
        ticker.join(2 * HEARTBEAT_INTERVAL_S)
        board.clear_slot(index)
    return code


# ---------------------------------------------------------------------------
# Master process
# ---------------------------------------------------------------------------


class MultiWorkerDaemon:
    """The pre-fork master: bind, warm, fork, supervise, drain."""

    def __init__(self, config: ServeConfig) -> None:
        if not hasattr(os, "fork"):
            raise RuntimeError(
                "multi-worker serving requires os.fork; "
                "run with --workers 1 on this platform")
        self.config = config
        self.workers = max(1, int(config.workers))
        self.board: Optional[WorkerBoard] = None
        self._pids: Dict[int, int] = {}
        self._stop = threading.Event()

    # -- socket strategy ----------------------------------------------------

    def _resolve_sockets(self):
        """``(host, port, anchor, listen_sock)`` for the fleet.

        With SO_REUSEPORT the master binds an *anchor* socket that
        never listens: it pins the port (surviving any individual
        worker's restart, and resolving ``port 0`` once for everyone)
        while receiving no connections, since the kernel only balances
        across listening sockets.  Without SO_REUSEPORT the master
        binds one listening socket that all workers inherit.
        """
        if reuseport_available():
            anchor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            anchor.setsockopt(socket.SOL_SOCKET,
                              socket.SO_REUSEADDR, 1)
            anchor.setsockopt(socket.SOL_SOCKET,
                              socket.SO_REUSEPORT, 1)
            anchor.bind((self.config.host, self.config.port))
            host, port = anchor.getsockname()[:2]
            return host, port, anchor, None
        listen_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listen_sock.setsockopt(socket.SOL_SOCKET,
                               socket.SO_REUSEADDR, 1)
        listen_sock.bind((self.config.host, self.config.port))
        listen_sock.listen(128)
        host, port = listen_sock.getsockname()[:2]
        _LOG.info("SO_REUSEPORT unavailable; workers accept on one "
                  "inherited listening socket")
        return host, port, None, listen_sock

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, index: int, port: int,
               listen_sock: Optional[socket.socket]) -> None:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = _worker_main(self.config, index, self.board,
                                    port, listen_sock)
            except BaseException:  # noqa: BLE001 — a worker must never fall back into the master's stack
                _LOG.exception("worker %d crashed", index)
            finally:
                # Skip atexit/stdio teardown shared with the master.
                os._exit(code)
        self._pids[index] = pid
        _LOG.info("worker %d started (pid %d)", index, pid)

    def _await_listening(self, timeout: float = STARTUP_TIMEOUT_S
                         ) -> bool:
        """Wait until every worker slot reports a bound socket (so the
        announced address is immediately connectable)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            slots = self.board.read_slots()
            if (len(slots) == self.workers
                    and all(slot.get("listening")
                            for slot in slots.values())):
                return True
            time.sleep(0.05)
        _LOG.warning("not all workers reported listening within %.0fs",
                     timeout)
        return False

    def _reap_and_respawn(self, port: int,
                          listen_sock: Optional[socket.socket]) -> None:
        for index, pid in list(self._pids.items()):
            try:
                done, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
                status = 0
            if done == 0:
                continue
            del self._pids[index]
            if self._stop.is_set():
                continue
            _LOG.warning(
                "worker %d (pid %d) exited unexpectedly "
                "(status %d); respawning", index, pid, status)
            time.sleep(RESPAWN_DELAY_S)
            self._spawn(index, port, listen_sock)

    def _rolling_drain(self) -> None:
        """Drain workers one at a time: each gets SIGTERM and up to
        ``drain_timeout_s`` (plus margin) to finish in-flight requests;
        the rest of the fleet keeps serving until its own turn.  A
        worker that overstays is SIGKILLed — the drain never hangs."""
        budget = self.config.drain_timeout_s + 5.0
        for index, pid in sorted(self._pids.items()):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            if not self._wait_pid(pid, budget):
                _LOG.warning("worker %d (pid %d) did not drain; "
                             "killing", index, pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                self._wait_pid(pid, 5.0)
        self._pids.clear()

    @staticmethod
    def _wait_pid(pid: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return True
            if done == pid:
                return True
            time.sleep(0.05)
        return False

    # -- foreground entry ---------------------------------------------------

    def _prefork_warm(self) -> None:
        """Compile the warm model's tables in the master, *before*
        forking: every worker then inherits the warm cache through
        copy-on-write pages instead of paying its own build."""
        from repro.serve.lifecycle import EstimationService
        from repro.serve.validation import warm_request
        try:
            service = EstimationService()
            service.warm(warm_request(self.config.warm_model))
            _LOG.info("pre-fork warmed compile cache for %s",
                      self.config.warm_model)
        except Exception:  # noqa: BLE001 — warm-up is an optimization; workers can warm themselves
            _LOG.warning("pre-fork warm failed for %s",
                         self.config.warm_model, exc_info=True)

    def run(self) -> int:
        host, port, anchor, listen_sock = self._resolve_sockets()
        root = Path(tempfile.mkdtemp(prefix="amped-serve-board-"))
        self.board = WorkerBoard(root, self.workers)
        if self.config.warm_model:
            self._prefork_warm()

        def _on_signal(signum: int, frame: Any) -> None:
            _LOG.info("master received signal %d; draining fleet",
                      signum)
            self._stop.set()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        for index in range(self.workers):
            self._spawn(index, port, listen_sock)
        self._await_listening()
        # The smoke script and tests parse this exact line.
        print(f"serving on http://{host}:{port}", flush=True)
        while not self._stop.is_set():
            self._reap_and_respawn(port, listen_sock)
            self._stop.wait(0.2)
        self._rolling_drain()
        if anchor is not None:
            anchor.close()
        if listen_sock is not None:
            listen_sock.close()
        for index in range(self.workers):
            self.board.clear_slot(index)
        try:
            root.rmdir()
        except OSError:
            pass  # a straggler slot file; the tempdir is per-run
        print("shutdown complete", flush=True)
        return 0


__all__ = [
    "HEARTBEAT_INTERVAL_S",
    "MultiWorkerDaemon",
    "SLOT_STALE_S",
    "WorkerBoard",
    "reuseport_available",
]
