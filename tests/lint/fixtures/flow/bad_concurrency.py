"""Known-bad concurrency patterns: every AMP20x rule fires here."""

import socket
import threading
from concurrent.futures import ProcessPoolExecutor
from http.server import BaseHTTPRequestHandler

_HITS = {"total": 0}
_STATE_LOCK = threading.Lock()
_RESULTS = {"done": 0}
# AMP203: socket opened at module import, inherited across fork.
_PROBE = socket.socket()


class Handler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:
        _HITS["total"] += 1  # AMP201: unlocked mutation from a handler


def record(value: int) -> None:
    # AMP203: _STATE_LOCK reaches pool workers with no at-fork reset.
    with _STATE_LOCK:
        _RESULTS["done"] = value


def fan_out(values):
    pool = ProcessPoolExecutor(max_workers=2)
    try:
        futures = [pool.submit(record, value) for value in values]
        return [future.result() for future in futures]
    finally:
        pool.shutdown()


class Poller(threading.Thread):
    def __init__(self) -> None:
        super().__init__()
        self.latest = 0.0

    def run(self) -> None:
        self.latest = 1.0  # AMP204: unlocked write, read below


def read_latest(poller: Poller) -> float:
    return poller.latest
