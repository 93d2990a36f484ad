"""The estimation daemon: stdlib HTTP front-end over the service.

``python -m repro.serve`` (or ``amped serve``) binds a
:class:`ThreadingHTTPServer` whose handlers validate, admit and wait on
requests through one process-wide :class:`EstimationService`, keeping
the compiled-sweep cache warm across requests.  Endpoints:

- ``GET /healthz`` — liveness: 200 as long as the process serves.
- ``GET /readyz`` — readiness: 200 only when not draining, the breaker
  is not open, and the compile cache is warm; 503 otherwise, always
  with the full status body.
- ``GET /metrics`` — live snapshot of the ``repro.obs`` registry
  (``serve.*`` instruments plus the library's cache gauges).
- ``POST /v1/estimate`` — validated estimate round-trip.

Failure containment at this layer: bodies over ``max_body_bytes`` are
refused 413 before being read; validation failures are structured 400s
(never a traceback); shed load maps to 429/503 with ``Retry-After``;
a handler abandoned by its deadline answers 504 and flags the pending
request so the dispatcher skips it.  SIGTERM/SIGINT trigger a graceful
drain: stop accepting, end idle keep-alive reads, finish in-flight
handlers (``block_on_close``), drain the dispatcher, exit 0.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from math import ceil
from typing import Any, Dict, Optional, Set, Tuple

from repro.errors import (
    ReproError,
    RequestValidationError,
    ServiceOverloaded,
)
from repro.obs.logs import LOG_LEVELS, configure_logging
from repro.obs.metrics import collect_cache_metrics, get_metrics
from repro.serve.config import (
    ServeConfig,
    add_serve_args,
    config_from_args,
)
from repro.serve.lifecycle import EstimationService, new_trace_id
from repro.serve.validation import error_body, parse_estimate_request
from repro.units import seconds_to_milliseconds

_LOG = logging.getLogger("repro.serve")


class _Server(ThreadingHTTPServer):
    # In-flight handler threads are joined by server_close(): the
    # natural drain point.  Handler waits are deadline-bounded, and
    # close_idle_connections() ends the reads of idle keep-alive
    # connections, so the join cannot hang past the longest remaining
    # request deadline.
    daemon_threads = False
    block_on_close = True
    service: EstimationService
    max_body_bytes: int
    #: Multi-worker mode only: the worker board this process heartbeats
    #: on, making /readyz a fleet quorum and /metrics an aggregate.
    board: Optional[object] = None
    worker_index: Optional[int] = None

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # Live connection sockets: added on the serving thread, removed
        # on each connection's handler thread.
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_idle_connections(self) -> None:
        """Shut the read side of every live connection.

        Call after :meth:`shutdown`.  A handler blocked reading the next
        keep-alive request sees end-of-file and exits; a handler with a
        request in flight still writes its response, then sees
        end-of-file on its next read.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler


class _Handler(BaseHTTPRequestHandler):
    server: _Server
    # HTTP/1.1 keep-alive: every response carries Content-Length, so
    # clients can hold one connection across repeated estimates
    # instead of paying connect + handler-thread churn per request.
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: the headers/body write split otherwise costs a
    # ~40ms Nagle + delayed-ACK stall per keep-alive round-trip.
    disable_nagle_algorithm = True

    # Route http.server's stderr chatter into our logger.
    def log_message(self, format: str, *args: Any) -> None:
        _LOG.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    def do_GET(self) -> None:
        service = self.server.service
        board = self.server.board
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok",
                                  "draining": service.draining})
        elif self.path == "/readyz":
            status = service.status()
            if board is not None:
                # Fleet view: this worker answers for the quorum, not
                # just itself, so any worker's socket reports whether
                # the daemon as a whole can take traffic.
                status = board.quorum_status(
                    status, self.server.worker_index)
            self._send_json(200 if status["ready"] else 503, status)
        elif self.path == "/metrics":
            snapshot = collect_cache_metrics(get_metrics()).snapshot()
            if board is not None:
                snapshot = board.aggregate_metrics(
                    snapshot, self.server.worker_index)
            self._send_json(200, snapshot)
        else:
            self._send_json(404, error_body(
                "not_found", f"no such endpoint: {self.path}"))

    def do_POST(self) -> None:
        # One structured access-log line per request: the trace_id
        # printed here is also stamped on the matching serve.evaluate
        # span (attr "trace_ids"), so daemon logs correlate with
        # exported traces by a single grep.
        trace_id = new_trace_id()
        started = time.perf_counter()
        status, payload, headers = self._handle_post(trace_id)
        self._send_json(status, payload, headers)
        _LOG.info(
            "access trace_id=%s method=POST path=%s status=%d "
            "duration_ms=%.2f client=%s code=%s",
            trace_id, self.path, status,
            seconds_to_milliseconds(time.perf_counter() - started),
            self.address_string(),
            payload.get("error", {}).get("code", "ok")
            if isinstance(payload.get("error"), dict) else "ok")

    def _handle_post(self, trace_id: str) -> Tuple[
            int, Dict[str, Any], Optional[Dict[str, str]]]:
        """The POST pipeline as (status, payload, headers)."""
        if self.path != "/v1/estimate":
            return 404, error_body(
                "not_found", f"no such endpoint: {self.path}"), None
        service = self.server.service
        metrics = get_metrics()
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            return 400, error_body(
                "invalid_request",
                "a Content-Length header is required"), None
        if length > self.server.max_body_bytes:
            # Refuse before reading: an oversized body never costs
            # more than its headers.
            return 413, error_body(
                "body_too_large",
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes} byte limit"), None
        body = self.rfile.read(max(0, length))
        try:
            request = parse_estimate_request(body)
        except RequestValidationError as error:
            metrics.counter("serve.validation_errors").inc()
            return 400, error_body(
                error.code, str(error), field=error.field), None
        try:
            pending = service.submit(request, trace_id=trace_id)
        except ServiceOverloaded as error:
            status = 429 if error.code == "queue_full" else 503
            retry_after = max(1, ceil(error.retry_after_s))
            return (status, error_body(error.code, str(error)),
                    {"Retry-After": str(retry_after)})
        remaining = pending.deadline - service._clock()
        if not pending.done.wait(max(0.0, remaining)):
            # Abandon: the dispatcher will skip it if still queued;
            # an in-flight evaluation resolves into the void.
            pending.expire()
            return 504, error_body(
                "deadline_exceeded",
                f"no result within the {remaining:.3f}s deadline"), None
        return pending.status, pending.payload, None


class ServeDaemon:
    """Owns the server socket, the service and the shutdown sequence."""

    def __init__(self, config: ServeConfig,
                 service: Optional[EstimationService] = None,
                 server_factory: Optional[Any] = None,
                 board: Optional[object] = None,
                 worker_index: Optional[int] = None) -> None:
        self.config = config
        if service is None:
            from repro.serve.breaker import CircuitBreaker
            service = EstimationService(
                queue_limit=config.queue_limit,
                default_deadline_s=config.deadline_s,
                breaker=CircuitBreaker(
                    failure_threshold=config.breaker_threshold,
                    cooldown_s=config.breaker_cooldown_s),
                drain_timeout_s=config.drain_timeout_s,
                prewarm=config.prewarm)
        self.service = service
        #: Callable ``handler_class -> _Server``; multi-worker workers
        #: inject this to bind SO_REUSEPORT sockets or adopt the
        #: master's inherited listener instead of a plain bind.
        self._server_factory = server_factory
        self._board = board
        self._worker_index = worker_index
        self.httpd: Optional[_Server] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._shutdown_requested = threading.Event()

    def start(self) -> Tuple[str, int]:
        """Start the service + socket; returns the bound address."""
        self.service.start()
        if self.config.warm_model:
            from repro.serve.validation import warm_request
            self.service.warm(warm_request(self.config.warm_model))
            _LOG.info("warmed compile cache for %s",
                      self.config.warm_model)
        if self._server_factory is not None:
            self.httpd = self._server_factory(_Handler)
        else:
            self.httpd = _Server((self.config.host, self.config.port),
                                 _Handler)
        self.httpd.service = self.service
        self.httpd.max_body_bytes = self.config.max_body_bytes
        self.httpd.board = self._board
        self.httpd.worker_index = self._worker_index
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="serve-http",
            daemon=True)
        self._serve_thread.start()
        return self.httpd.server_address[0], self.httpd.server_address[1]

    def request_shutdown(self) -> None:
        """Signal-safe: ask the run loop to begin the graceful drain."""
        self._shutdown_requested.set()

    def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight requests,
        stop the dispatcher, close the socket."""
        self.service.reject_new()
        if self.httpd is not None:
            self.httpd.shutdown()       # stop accepting
            self.httpd.close_idle_connections()
            self.httpd.server_close()   # join in-flight handlers
        self.service.stop(self.config.drain_timeout_s)
        if self._serve_thread is not None:
            self._serve_thread.join(self.config.drain_timeout_s)

    def run(self, install_signal_handlers: bool = True,
            announce: bool = True) -> int:
        """Foreground entry: serve until SIGTERM/SIGINT, then drain.

        ``announce=False`` suppresses the startup/shutdown lines —
        multi-worker workers stay quiet so the master prints exactly
        one ``serving on ...`` line for the whole fleet.
        """
        host, port = self.start()
        if install_signal_handlers:
            def _on_signal(signum: int, frame: Any) -> None:
                _LOG.info("received signal %d; draining", signum)
                self.request_shutdown()
            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        if announce:
            # The smoke script and tests parse this exact line.
            print(f"serving on http://{host}:{port}", flush=True)
        self._shutdown_requested.wait()
        self.shutdown()
        if announce:
            print("shutdown complete", flush=True)
        return 0


def run_daemon(config: ServeConfig) -> int:
    """Run the daemon the configuration asks for: the single-process
    :class:`ServeDaemon` (``workers <= 1``, today's exact behavior) or
    the pre-fork multi-worker master from
    :mod:`repro.serve.multiproc`."""
    if config.workers > 1:
        from repro.serve.multiproc import MultiWorkerDaemon
        return MultiWorkerDaemon(config).run()
    return ServeDaemon(config).run()


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.serve`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="hardened estimation-as-a-service daemon")
    add_serve_args(parser)
    parser.add_argument("--log-level", default="info",
                        choices=sorted(LOG_LEVELS))
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    try:
        return run_daemon(config_from_args(args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
