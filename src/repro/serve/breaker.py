"""Circuit breaker + degradation ladder for the estimation service.

Two cooperating pieces of failure containment:

- :class:`DegradationLadder` is a permanent-degradation policy at the
  request boundary: evaluation steps down ``compiled → per_layer``
  one rung per breaker trip, trading throughput for the reference
  walk that shares no code with the term tables, and steps back up
  (never above its starting rung) after sustained recovery.
- :class:`CircuitBreaker` is the classic three-state machine
  (``closed → open → half_open``) around the evaluation path: repeated
  evaluation failures trip it, an open breaker sheds requests
  instantly with a retry hint instead of queuing them onto a broken
  backend, and after a cooldown a single half-open probe request
  decides between recovery and re-tripping.

Both are thread-safe, observable (``serve.breaker.*`` and
``serve.degradation_rung`` instruments) and take an injectable clock
so the fault-injection suite can drive every transition
deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import get_metrics

#: The degradation ladder, best rung first.  Each rung is an estimator
#: ``evaluation_path``: the term tables, then the per-layer reference
#: walk (slowest, and the only path that shares no code with the
#: tables).  ``serve.degradation_rung`` is the index: 0 = compiled,
#: 1 = per_layer.
LADDER_RUNGS = ("compiled", "per_layer")

#: Gauge encoding of breaker states.
_STATE_VALUES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class DegradationLadder:
    """Current evaluation rung, stepped by the circuit breaker."""

    def __init__(self, start: str = "compiled") -> None:
        if start not in LADDER_RUNGS:
            raise ConfigurationError(
                f"degradation rung must be one of {LADDER_RUNGS}, "
                f"got {start!r}")
        self._start_index = LADDER_RUNGS.index(start)
        self._index = self._start_index
        self._lock = threading.Lock()
        self._publish()

    def _publish(self) -> None:
        get_metrics().gauge("serve.degradation_rung").set(
            float(self._index))

    @property
    def current(self) -> str:
        """The active rung name."""
        with self._lock:
            return LADDER_RUNGS[self._index]

    #: The estimator ``evaluation_path`` of the active rung: the rung.
    evaluation_path = current

    def degrade(self) -> bool:
        """Step one rung down; False when already at the bottom."""
        with self._lock:
            if self._index >= len(LADDER_RUNGS) - 1:
                return False
            self._index += 1
            self._publish()
            return True

    def restore(self) -> bool:
        """Step one rung up, never above the starting rung; False when
        already there."""
        with self._lock:
            if self._index <= self._start_index:
                return False
            self._index -= 1
            self._publish()
            return True


class CircuitBreaker:
    """Three-state breaker around the evaluation backend.

    ``closed``: requests flow; ``failure_threshold`` consecutive
    failures trip it (each trip also steps the ladder down one rung).
    ``open``: :meth:`admit` sheds instantly, reporting the seconds
    until the next probe.  After ``cooldown_s`` the first admission
    becomes the half-open probe.
    ``half_open``: exactly one probe in flight; its success closes the
    breaker, its failure re-opens it (and degrades another rung).
    While closed, ``recovery_successes`` consecutive successes step
    the ladder back *up* one rung — sustained health undoes the
    degradation the same gradual way it accrued.
    """

    def __init__(self, failure_threshold: int = 3,
                 cooldown_s: float = 5.0,
                 recovery_successes: int = 4,
                 ladder: Optional[DegradationLadder] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, "
                f"got {failure_threshold}")
        if cooldown_s < 0:
            raise ConfigurationError(
                f"cooldown_s must be >= 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.recovery_successes = recovery_successes
        self.ladder = ladder if ladder is not None else DegradationLadder()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._consecutive_successes = 0
        self._opened_at = 0.0
        self._last_error = ""
        self._publish()

    def _publish(self) -> None:
        get_metrics().gauge("serve.breaker.state").set(
            _STATE_VALUES[self._state])

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def admit(self) -> Optional[float]:
        """``None`` to admit the request; otherwise the suggested
        ``Retry-After`` seconds while the breaker is open.

        The first admission after the cooldown elapses transitions to
        ``half_open`` and *is* admitted — it becomes the probe.
        """
        with self._lock:
            if self._state != "open":
                return None
            remaining = self.cooldown_s - (self._clock()
                                           - self._opened_at)
            if remaining > 0:
                return remaining
            self._transition("half_open")
            return None

    def record_success(self) -> None:
        """One successful evaluation: close a half-open breaker, and
        credit sustained health toward a ladder restore."""
        restore = False
        with self._lock:
            self._consecutive_failures = 0
            if self._state == "half_open":
                self._transition("closed")
                self._consecutive_successes = 1
            elif self._state == "closed":
                self._consecutive_successes += 1
                if self._consecutive_successes \
                        >= self.recovery_successes:
                    self._consecutive_successes = 0
                    restore = True
        if restore and self.ladder.restore():
            get_metrics().counter("serve.ladder.restored").inc()

    def record_failure(self, error: BaseException) -> None:
        """One failed evaluation: re-open a half-open breaker
        immediately, or count toward the closed-state threshold."""
        tripped = False
        with self._lock:
            self._consecutive_successes = 0
            self._last_error = repr(error)
            if self._state == "half_open":
                tripped = True
            elif self._state == "closed":
                self._consecutive_failures += 1
                if self._consecutive_failures \
                        >= self.failure_threshold:
                    tripped = True
            if tripped:
                self._consecutive_failures = 0
                self._opened_at = self._clock()
                self._transition("open")
        if tripped:
            metrics = get_metrics()
            metrics.counter("serve.breaker.opened").inc()
            if self.ladder.degrade():
                metrics.counter("serve.ladder.degraded").inc()

    def _transition(self, state: str) -> None:
        # Caller holds the lock.
        if state != self._state:
            self._state = state  # amplint: disable=AMP204 — caller holds self._lock (documented contract above)
            get_metrics().counter("serve.breaker.transitions").inc()
            self._publish()

    def describe(self) -> Dict[str, object]:
        """State summary for ``/readyz`` and logs."""
        rung = self.ladder.current
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
                "last_error": self._last_error,
                "rung": rung,
            }
