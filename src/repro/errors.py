"""Exception hierarchy for the AMPeD reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers that drive large design-space sweeps can catch a single type and
skip infeasible configurations without masking genuine programming errors
(``TypeError``, ``AttributeError`` and friends still propagate).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, List, Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A model, hardware or parallelism description is internally invalid.

    Raised when a single object fails its own validation, e.g. a
    transformer with zero layers or a link with negative bandwidth.
    """


class MappingError(ReproError):
    """A parallelism mapping does not fit the target system.

    Raised when intra-node degrees do not multiply to the number of
    accelerators per node, inter-node degrees do not multiply to the node
    count, or a degree does not divide the quantity it partitions.
    """


class MemoryCapacityError(ReproError):
    """A configuration does not fit in accelerator memory.

    Carries the computed footprint and the capacity so sweep drivers can
    report *how far* over budget a configuration is.
    """

    def __init__(self, message: str, required_bytes: float = 0.0,
                 available_bytes: float = 0.0) -> None:
        super().__init__(message)
        self.required_bytes = required_bytes
        self.available_bytes = available_bytes


class ValidationDataError(ReproError):
    """A published reference dataset is missing or inconsistent."""


class SimulationError(ReproError):
    """A discrete-event or step simulation reached an invalid state."""


class WorkerError(ReproError):
    """A sweep worker failed with a non-:class:`ReproError` exception.

    Raised by the resilient sweep runtime when a candidate evaluation
    keeps failing even after retries and degradation to serial
    execution.  Carries the journal path (when journaling is on) so the
    finished portion of the sweep remains recoverable.
    """

    def __init__(self, message: str,
                 journal_path: Optional[str] = None) -> None:
        super().__init__(message)
        self.journal_path = journal_path


class SweepInterrupted(ReproError):
    """A sweep was cancelled (SIGINT) before covering the full space.

    Carries the journal path (for ``--resume``) and the exact ranked
    results over everything evaluated up to the interruption, so callers
    that opt into exception-style cancellation lose nothing.
    """

    def __init__(self, message: str,
                 journal_path: Optional[str] = None,
                 partial_results: Optional[List[Any]] = None) -> None:
        super().__init__(message)
        self.journal_path = journal_path
        self.partial_results: List[Any] = (
            partial_results if partial_results else [])


class IngestError(ReproError):
    """A measurement artifact (Chrome trace, CSV timings) could not be
    ingested.

    Raised by :mod:`repro.obs.ingest` with enough context to act on —
    the offending file and, when known, the event index or line number —
    and mapped by ``amped calibrate`` to a structured exit 2, never a
    traceback.  ``offset`` is the zero-based event position inside a
    trace's ``traceEvents`` array, or the one-based line number inside
    a CSV file; ``None`` when the failure is not tied to one record.
    """

    def __init__(self, message: str, path: Optional[str] = None,
                 offset: Optional[int] = None) -> None:
        location = ""
        if path is not None:
            location = f"{path}: " if offset is None \
                else f"{path}:{offset}: "
        super().__init__(f"{location}{message}")
        self.path = path
        self.offset = offset


class RequestValidationError(ReproError):
    """An estimation-service request failed schema validation.

    The serve daemon maps this to a structured HTTP 400 — never a
    traceback.  ``code`` is a stable machine-readable identifier
    (``invalid_json``, ``unknown_field``, ``invalid_value``, ...) and
    ``field`` names the offending request field when one is known.
    """

    def __init__(self, message: str, field: Optional[str] = None,
                 code: str = "invalid_request") -> None:
        super().__init__(message)
        self.field = field
        self.code = code


class ServiceOverloaded(ReproError):
    """The estimation service shed a request instead of queuing it.

    Raised at the admission boundary when the bounded queue is full
    (HTTP 429), the circuit breaker is open, or the daemon is draining
    for shutdown (both HTTP 503).  ``retry_after_s`` is the suggested
    client backoff, surfaced as a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0,
                 code: str = "overloaded") -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.code = code


class DeadlineExceeded(ReproError):
    """A request's deadline elapsed before its evaluation finished.

    The serve daemon answers the client with a structured HTTP 504 and
    counts the hit against the circuit breaker, so repeated overruns
    degrade the evaluation path.
    """

    def __init__(self, message: str, deadline_s: float = 0.0) -> None:
        super().__init__(message)
        self.deadline_s = deadline_s


def require_finite(name: str, value: float) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is a finite
    number (rejects ``nan`` and ``±inf``, which otherwise slip through
    ``<``/``<=`` range checks because every NaN comparison is false)."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise ConfigurationError(
            f"{name} must be a real number, got {value!r}") from None
    if not finite:
        raise ConfigurationError(
            f"{name} must be finite, got {value!r}")


#: Per-class cache of dataclass field names, so hot-path containers
#: (span records, breakdowns) skip ``dataclasses.fields`` introspection
#: after their first construction.
_FIELD_NAMES_BY_CLASS: dict = {}


def require_finite_fields(instance: Any) -> None:
    """Apply :func:`require_finite` to every real-number field of a
    dataclass instance.

    The standard ``__post_init__`` guard for spec and result containers
    (analyzer rule AMP005): a NaN passes every ``< 0`` range check and an
    infinity survives them, so both must be rejected at construction,
    before they poison a sweep ranking far from the mistake.  Bools and
    non-numeric fields are skipped; ints are checked too (they are always
    finite, but may arrive as floats through untyped call sites).
    """
    cls = instance.__class__
    names = _FIELD_NAMES_BY_CLASS.get(cls)
    if names is None:
        names = tuple(item.name for item in dataclasses.fields(instance))
        _FIELD_NAMES_BY_CLASS[cls] = names
    for name in names:
        value = getattr(instance, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        require_finite(name, value)
