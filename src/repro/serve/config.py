"""``amped serve`` arguments and the daemon configuration they build.

Stdlib-only on purpose: ``amped``'s parser registers the ``serve``
subcommand from here, so every cold CLI call imports this module and
none of the daemon (HTTP server, service, search runtime, NumPy).
"""

from __future__ import annotations

import argparse
from typing import Optional

DEFAULT_MAX_BODY_BYTES = 64 * 1024


class ServeConfig:
    """Daemon knobs, one attribute per ``amped serve`` flag."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 queue_limit: int = 64, deadline_s: float = 10.0,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 warm_model: Optional[str] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 5.0,
                 drain_timeout_s: float = 10.0,
                 workers: int = 1,
                 prewarm: bool = True) -> None:
        self.host = host
        self.port = port  # 0 = ephemeral (tests, smoke)
        self.queue_limit = queue_limit
        self.deadline_s = deadline_s
        self.max_body_bytes = max_body_bytes
        self.warm_model = warm_model
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.drain_timeout_s = drain_timeout_s
        self.workers = workers  # >1 = pre-fork multi-worker daemon
        self.prewarm = prewarm


def add_serve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="admission queue bound; beyond it "
                             "requests shed with 429")
    parser.add_argument("--deadline", type=float, default=10.0,
                        dest="deadline_s", metavar="SECONDS",
                        help="default per-request deadline")
    parser.add_argument("--max-body-bytes", type=int,
                        default=DEFAULT_MAX_BODY_BYTES)
    parser.add_argument("--warm", default=None, metavar="MODEL",
                        dest="warm_model",
                        help="pre-compile this model's sweep tables "
                             "before accepting traffic")
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        help="consecutive failures that trip the "
                             "circuit breaker")
    parser.add_argument("--breaker-cooldown", type=float, default=5.0,
                        dest="breaker_cooldown_s", metavar="SECONDS")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        dest="drain_timeout_s", metavar="SECONDS",
                        help="how long shutdown waits for in-flight "
                             "work")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; >1 runs the pre-fork "
                             "multi-worker daemon (SO_REUSEPORT when "
                             "the platform supports it)")
    parser.add_argument("--prewarm", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="after a group's first evaluation, build "
                             "the compiled sweeps (tables still empty) of "
                             "neighbouring system sizes in the background")


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        host=args.host, port=args.port,
        queue_limit=args.queue_limit, deadline_s=args.deadline_s,
        max_body_bytes=args.max_body_bytes,
        warm_model=args.warm_model,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s,
        drain_timeout_s=args.drain_timeout_s,
        workers=args.workers,
        prewarm=args.prewarm)
