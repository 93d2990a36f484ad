"""Estimation-as-a-service: a hardened daemon over the AMPeD model.

``python -m repro.serve`` (or ``amped serve``) exposes the analytical
estimator over HTTP/JSON with the robustness machinery a long-lived
process needs: strict request validation, a bounded admission queue,
per-request deadlines, a circuit breaker that degrades evaluation
from the term tables to the per-layer reference walk
(``compiled → per_layer``) instead of failing, and a graceful
SIGTERM drain.  The process-wide compiled-sweep cache stays warm
across requests, so repeat estimates skip the table builds entirely.

The package loads lazily (PEP 562): a public name imports its
submodule on first access, so registering ``amped serve``'s arguments
(:mod:`repro.serve.config`) loads neither the HTTP server nor NumPy.

See ``docs/serving.md`` for endpoints, schemas and the failure-mode
table.
"""

from importlib import import_module

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "LADDER_RUNGS": "breaker",
    "CircuitBreaker": "breaker",
    "DegradationLadder": "breaker",
    "EstimationService": "lifecycle",
    "PendingRequest": "lifecycle",
    "ServeConfig": "config",
    "ServeDaemon": "server",
    "add_serve_args": "config",
    "config_from_args": "config",
    "main": "server",
    "run_daemon": "server",
    "INTER_LINK_CHOICES": "validation",
    "MAX_DEADLINE_S": "validation",
    "EstimateRequest": "validation",
    "error_body": "validation",
    "parse_estimate_request": "validation",
    "warm_request": "validation",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
