"""Zero-dependency span tracer for the AMPeD reproduction.

The tracer records two kinds of timing data on a shared timeline:

- **wall-clock spans** — ``with span("collective.allreduce", ...)``
  around real work, measured with :func:`time.perf_counter`; spans nest
  through a thread-local stack, so a span opened inside another span
  records its parent, and every record carries the process id and
  thread id it was produced on;
- **virtual events** — :meth:`Tracer.add_event` records *modeled* time
  (an Eq. 1 term's seconds, a simulated pipeline task's schedule slot)
  with an explicit start and duration on a named track, so the model's
  internal timeline can be inspected next to the wall-clock one.

The default tracer is **disabled**: :func:`span` then returns a shared
no-op context manager and :meth:`Tracer.add_event` returns ``None``
without allocating, so instrumentation left in hot paths costs one
attribute check (every untraced ``benchmarks/e2e`` run times this
default path, and a ``--trace 1`` run reports the cost of recording
spans as ``trace.overhead_ratio``).  Exporters for Chrome
``chrome://tracing`` / Perfetto and for nested JSON span trees live in
:mod:`repro.obs.export`; naming conventions are documented in
``docs/observability.md``.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, require_finite_fields
from repro.units import Seconds


@dataclass(frozen=True)
class SpanRecord:
    """One completed span or virtual event.

    Attributes
    ----------
    name:
        Dotted lowercase identifier (``"collective.ring_allreduce"``).
    category:
        Coarse grouping for trace viewers (``"model"``, ``"pipeline"``,
        ``"collective"``, ``"search"``, ``"cli"``).
    start_s, duration_s:
        Start and extent in seconds.  Wall-clock spans measure from the
        tracer's epoch (:meth:`Tracer.enable` resets it); virtual
        events carry modeled time and start at whatever the emitter
        chose.
    pid, thread_id:
        Process and thread the record was produced on.
    track:
        Explicit timeline name for virtual events; ``None`` for
        wall-clock spans (which live on their thread's timeline).
    span_id, parent_id:
        Tree linkage; ``parent_id`` is ``None`` for roots.
    attrs:
        Free-form attributes (payload bytes, algorithm, mapping, ...).
    """

    name: str
    category: str
    start_s: Seconds
    duration_s: Seconds
    pid: int
    thread_id: int
    span_id: int
    parent_id: Optional[int] = None
    track: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Records are constructed once per span on the tracing hot path,
        # so the AMP005 finiteness guard is inlined: one isfinite() per
        # numeric field, falling back to the generic walker (which
        # carries the precise per-field error message, and skips
        # non-numeric values) only when something looks wrong.
        try:
            finite = (math.isfinite(self.start_s)
                      and math.isfinite(self.duration_s)
                      and math.isfinite(self.pid)
                      and math.isfinite(self.thread_id)
                      and math.isfinite(self.span_id)
                      and (self.parent_id is None
                           or math.isfinite(self.parent_id)))
        except TypeError:
            finite = False
        if not finite:
            require_finite_fields(self)
        if not self.name:
            raise ConfigurationError("span name must be non-empty")
        if self.duration_s < 0:
            raise ConfigurationError(
                f"span duration must be non-negative, got "
                f"{self.duration_s}")

    @property
    def end_s(self) -> Seconds:
        """The record's end timestamp."""
        return self.start_s + self.duration_s


class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        """No-op attribute setter."""

    def set_attrs(self, **attrs: Any) -> None:
        """No-op bulk attribute setter."""


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """A live wall-clock span: context manager measuring one region."""

    __slots__ = ("_tracer", "name", "category", "_attrs", "_start_s",
                 "_span_id", "_parent_id", "_active")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 attrs: Optional[Mapping[str, Any]]) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self._attrs: Dict[str, Any] = dict(attrs or {})
        self._active = False

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one attribute to the span before it closes."""
        self._attrs[key] = value

    def set_attrs(self, **attrs: Any) -> None:
        """Attach several attributes to the span before it closes."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        if not tracer.enabled:
            return self
        self._active = True
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        self._span_id = tracer._allocate_id()
        stack.append(self._span_id)
        self._start_s = time.perf_counter() - tracer._epoch_s
        return self

    def __exit__(self, *exc_info: object) -> bool:
        if not self._active:
            return False
        self._active = False
        tracer = self._tracer
        end_s = time.perf_counter() - tracer._epoch_s
        stack = tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        tracer._append(SpanRecord(
            name=self.name,
            category=self.category,
            start_s=self._start_s,
            duration_s=max(0.0, end_s - self._start_s),
            pid=os.getpid(),
            thread_id=threading.get_ident(),
            span_id=self._span_id,
            parent_id=self._parent_id,
            attrs=dict(self._attrs),
        ))
        return False


class _PendingComponents:
    """A deferred batch of ``term.<key>`` child records.

    :func:`emit_component_events` validates the component values once
    (the same checks :class:`SpanRecord.__post_init__` applies) and
    stores this compact entry instead of twelve-odd frozen dataclass
    instances; :meth:`Tracer.records` expands it on first read.  Child
    span ids are pre-allocated at emission time — ``parent_id + 1``
    onward — so the expansion is reproducible no matter when it runs.
    """

    __slots__ = ("category", "pid", "thread_id", "parent_id", "track",
                 "items")

    def __init__(self, category: str, pid: int, thread_id: int,
                 parent_id: int, track: Optional[str],
                 items: Tuple[Tuple[str, float], ...]) -> None:
        self.category = category
        self.pid = pid
        self.thread_id = thread_id
        self.parent_id = parent_id
        self.track = track
        self.items = items

    def materialize(self) -> List[SpanRecord]:
        """The child :class:`SpanRecord` instances, laid end-to-end."""
        records: List[SpanRecord] = []
        new_record = object.__new__
        cursor = 0.0
        child_id = self.parent_id
        for key, value in self.items:
            child_id += 1
            record = new_record(SpanRecord)
            record.__dict__.update(
                name=f"term.{key}",
                category=self.category,
                start_s=cursor,
                duration_s=float(value),
                pid=self.pid,
                thread_id=self.thread_id,
                span_id=child_id,
                parent_id=self.parent_id,
                track=self.track,
                attrs={"seconds": value},
            )
            records.append(record)
            cursor += value
        return records


class Tracer:
    """Thread-safe collector of :class:`SpanRecord` instances."""

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._records: List[Any] = []
        self._has_pending = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._track_serials: Dict[str, int] = {}
        self._epoch_s = time.perf_counter()

    # -- lifecycle ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether spans and events are being recorded."""
        return self._enabled

    def enable(self, reset: bool = True) -> None:
        """Start recording; ``reset`` also clears prior records and
        restarts the wall-clock epoch."""
        if reset:
            self.reset()
        self._enabled = True

    def disable(self) -> None:
        """Stop recording (existing records are kept)."""
        self._enabled = False

    def reset(self) -> None:
        """Drop every record and restart the wall-clock epoch."""
        with self._lock:
            self._records = []
            self._has_pending = False
            self._next_id = 0
            self._track_serials = {}
            self._epoch_s = time.perf_counter()

    def records(self) -> Tuple[SpanRecord, ...]:
        """Every record collected so far, in completion order.

        Bulk emissions (:func:`emit_component_events`) append a compact
        pending entry instead of materialized records; they are expanded
        here, once, so the emission hot path never pays per-record
        construction.
        """
        with self._lock:
            if self._has_pending:
                expanded: List[Any] = []
                for entry in self._records:
                    if type(entry) is _PendingComponents:
                        expanded.extend(entry.materialize())
                    else:
                        expanded.append(entry)
                self._records = expanded
                self._has_pending = False
            return tuple(self._records)

    # -- recording ----------------------------------------------------------

    def span(self, name: str, category: str = "",
             attrs: Optional[Mapping[str, Any]] = None):
        """A wall-clock span context manager around real work.

        Returns the shared no-op span while tracing is disabled, so the
        disabled cost is a single attribute check plus one call.
        """
        if not self._enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, category, attrs)

    def add_event(self, name: str, start_s: Seconds,
                  duration_s: Seconds, *, category: str = "",
                  track: Optional[str] = None,
                  attrs: Optional[Mapping[str, Any]] = None,
                  parent_id: Optional[int] = None
                  ) -> Optional[SpanRecord]:
        """Record one virtual (modeled-time) event on ``track``.

        Returns the record (so callers can parent children under its
        ``span_id``), or ``None`` while tracing is disabled.
        """
        if not self._enabled:
            return None
        record = SpanRecord(
            name=name,
            category=category,
            start_s=float(start_s),
            duration_s=float(duration_s),
            pid=os.getpid(),
            thread_id=threading.get_ident(),
            span_id=self._allocate_id(),
            parent_id=parent_id,
            track=track,
            attrs=dict(attrs or {}),
        )
        self._append(record)
        return record

    def unique_track(self, prefix: str) -> str:
        """A fresh track name ``"<prefix>#<n>"`` — one per emission, so
        repeated evaluations never overlap on a shared timeline."""
        with self._lock:
            serial = self._track_serials.get(prefix, 0) + 1
            self._track_serials[prefix] = serial
        return f"{prefix}#{serial}"

    # -- internals ----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _allocate_ids(self, count: int) -> int:
        """Reserve ``count`` consecutive span ids under one lock
        acquisition; returns the first id of the block."""
        with self._lock:
            first = self._next_id + 1
            self._next_id += count
            return first

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    def _append_many(self, records: List[SpanRecord]) -> None:
        """Append a batch of finished records under one lock
        acquisition (the bulk-emission path of
        :func:`emit_component_events`)."""
        with self._lock:
            self._records.extend(records)

    def _append_pending(self, parent: SpanRecord,
                        pending: "_PendingComponents") -> None:
        """Append a parent plus the deferred description of its child
        records under one lock acquisition; :meth:`records` expands it."""
        with self._lock:
            self._records.append(parent)
            self._records.append(pending)
            self._has_pending = True


#: The process-wide default tracer every instrumentation site uses.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _TRACER


def span(name: str, category: str = "",
         attrs: Optional[Mapping[str, Any]] = None):
    """A wall-clock span on the default tracer (no-op when disabled)."""
    return _TRACER.span(name, category=category, attrs=attrs)


def traced(name: Optional[str] = None, category: str = "",
           attrs: Optional[Mapping[str, Any]] = None) -> Callable:
    """Decorator form of :func:`span`.

    The enabled check happens at *call* time, so functions decorated at
    import time start producing spans as soon as the tracer is enabled::

        @traced("search.explore", category="search")
        def explore(...): ...
    """
    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _TRACER.enabled:
                return fn(*args, **kwargs)
            with _TRACER.span(label, category=category, attrs=attrs):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


def emit_component_events(tracer: Tracer,
                          components: Mapping[str, float],
                          total_s: Seconds, *,
                          name: str,
                          track_prefix: str,
                          category: str = "model",
                          attrs: Optional[Mapping[str, Any]] = None
                          ) -> Optional[SpanRecord]:
    """Emit a parent event of ``total_s`` with the ``components`` laid
    end-to-end beneath it as ``term.<key>`` children.

    This is how :meth:`repro.core.model.AMPeD.estimate_batch` exposes
    the Eq. 1 decomposition: the children's durations sum to the
    parent's (up to floating-point rounding), so a span tree of a
    traced evaluation *is* the :class:`TrainingTimeBreakdown`.  Each
    emission gets its own track, so sweeps that evaluate many mappings
    under one trace never interleave their timelines.
    """
    if not tracer.enabled:
        return None
    track = tracer.unique_track(track_prefix)
    pid = os.getpid()
    thread_id = threading.get_ident()
    parent_id = tracer._allocate_ids(len(components) + 1)
    try:
        trusted = bool(name) and math.isfinite(total_s) and total_s >= 0
    except TypeError:
        trusted = False
    if trusted:
        parent = object.__new__(SpanRecord)
        parent.__dict__.update(
            name=name,
            category=category,
            start_s=0.0,
            duration_s=float(total_s),
            pid=pid,
            thread_id=thread_id,
            span_id=parent_id,
            parent_id=None,
            track=track,
            attrs=dict(attrs) if attrs else {},
        )
    else:
        parent = SpanRecord(
            name=name,
            category=category,
            start_s=0.0,
            duration_s=float(total_s),
            pid=pid,
            thread_id=thread_id,
            span_id=parent_id,
            track=track,
            attrs=dict(attrs) if attrs else {},
        )
    # Validate every child value once with the same checks
    # SpanRecord.__post_init__ would apply (finite, non-negative, finite
    # running cursor); a clean batch is deferred as one compact entry —
    # per-record construction happens lazily in Tracer.records() —
    # while a suspicious one takes the eager constructor path below so
    # it raises the exact validation error at emission time.
    try:
        cursor = 0.0
        clean = True
        for value in components.values():
            if not (math.isfinite(value) and value >= 0.0):
                clean = False
                break
            cursor += value
        clean = clean and math.isfinite(cursor)
    except TypeError:
        clean = False
    if clean:
        tracer._append_pending(parent, _PendingComponents(
            category, pid, thread_id, parent_id, track,
            tuple(components.items())))
        return parent
    records = [parent]
    cursor = 0.0
    child_id = parent_id
    for key, value in components.items():
        child_id += 1
        records.append(SpanRecord(
            name=f"term.{key}",
            category=category,
            start_s=cursor,
            duration_s=float(value),
            pid=pid,
            thread_id=thread_id,
            span_id=child_id,
            parent_id=parent_id,
            track=track,
            attrs={"seconds": value},
        ))
        cursor += value
    tracer._append_many(records)
    return parent
