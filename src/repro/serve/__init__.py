"""Estimation-as-a-service: a hardened daemon over the AMPeD model.

``python -m repro.serve`` (or ``amped serve``) exposes the analytical
estimator over HTTP/JSON with the robustness machinery a long-lived
process needs: strict request validation, a bounded admission queue,
per-request deadlines, a circuit breaker that degrades evaluation
quality (``vectorized → compiled → serial``) instead of
failing, and a graceful SIGTERM drain.  The process-wide
compiled-sweep cache stays warm across requests, so repeat estimates
skip the table builds entirely.

See ``docs/serving.md`` for endpoints, schemas and the failure-mode
table.
"""

from repro.serve.breaker import (
    LADDER_RUNGS,
    RUNG_EVALUATION_PATHS,
    CircuitBreaker,
    DegradationLadder,
)
from repro.serve.lifecycle import EstimationService, PendingRequest
from repro.serve.server import (
    ServeConfig,
    ServeDaemon,
    add_serve_args,
    config_from_args,
    main,
    run_daemon,
)
from repro.serve.validation import (
    INTER_LINK_CHOICES,
    MAX_DEADLINE_S,
    EstimateRequest,
    error_body,
    parse_estimate_request,
    warm_request,
)

__all__ = [
    "LADDER_RUNGS",
    "RUNG_EVALUATION_PATHS",
    "CircuitBreaker",
    "DegradationLadder",
    "EstimationService",
    "PendingRequest",
    "ServeConfig",
    "ServeDaemon",
    "add_serve_args",
    "config_from_args",
    "main",
    "run_daemon",
    "INTER_LINK_CHOICES",
    "MAX_DEADLINE_S",
    "EstimateRequest",
    "error_body",
    "parse_estimate_request",
    "warm_request",
]
