"""Fault-tolerant sweep runtime: supervised workers + resumable journal.

:func:`repro.search.dse.explore` made large design-space sweeps fast;
this module makes them *survivable*.  A long exploration is the hot
path toward ranking millions of candidate mappings, and PR 1's
process-pool fan-out turned one hung worker, one crashed process, or
one ``Ctrl-C`` into hours of lost exact top-k work.  The paper already
applies reliability discipline to the *modeled* system (the Daly
checkpoint model in :mod:`repro.runtime.reliability`); this module
applies the same discipline to the sweeps themselves:

- **Supervised workers** — every batch of candidate evaluations gets a
  wall-clock ``timeout``; a timeout, a dead worker process, or an
  unexpected worker exception tears the pool down, retries with
  exponential backoff, and after ``retries`` consecutive failures
  degrades gracefully to serial evaluation with a logged reason.  A
  sweep never hangs silently and never dies with nothing to show.
- **Resumable journal** — with ``journal_path`` set, every candidate's
  fate (evaluated with its timings, or skipped with a truthful category
  from the :data:`~repro.search.dse.SKIP_CATEGORIES` vocabulary) is
  appended to a JSONL journal as soon as it is known.  ``resume=True``
  replays the journal, never re-evaluates a finished candidate, and
  continues deterministically: journal + fresh completion equals one
  uninterrupted run.
- **SIGINT-safe cancellation** — the first ``Ctrl-C`` stops the sweep
  at the next candidate boundary and still returns the exact top-k over
  everything evaluated so far, flagged ``partial=True`` (a second
  ``Ctrl-C`` hard-aborts).  Callers that prefer exceptions can ask for
  :class:`~repro.errors.SweepInterrupted`, which carries the journal
  path and the partial ranking.

Coverage accounting is surfaced as a
:class:`~repro.reporting.sweep.SweepReport`.  The same
supervise/journal/resume pattern is intended for every future
long-running workload (fitting, sensitivity, experiment grids); see
``docs/robustness.md`` for the state machine and the journal schema.
"""

from __future__ import annotations

import json
import logging
import math
import random
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.breakdown import TrainingTimeBreakdown
from repro.core.model import AMPeD
from repro.errors import (
    ConfigurationError,
    MemoryCapacityError,
    ReproError,
    SweepInterrupted,
    WorkerError,
)
from repro.obs.metrics import get_metrics
from repro.obs.trace import span
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.spec import ParallelismSpec
from repro.reporting.sweep import SweepReport
from repro.search.compiler import CompiledSweep, compile_sweep, warm_worker
from repro.search.shm import release_shipment, ship_compiled
from repro.search.dse import (
    SKIP_MAPPING_INFEASIBLE,
    SKIP_MEMORY_CAPACITY,
    SKIP_PRUNED,
    SKIP_WORKER_ERROR,
    CandidateOutcome,
    ExplorationResult,
    _BoundPruner,
    evaluate_candidate,
    validate_max_results,
)
from repro.search.vectorized import (
    DEFAULT_CHUNK_CANDIDATES,
    bind_chunk,
    evaluate_prebound,
    require_numpy,
    resolve_evaluation_path,
)

_LOG = logging.getLogger("repro.search.resilience")

#: Version stamped into every journal header; bumped on schema changes.
JOURNAL_SCHEMA_VERSION = 1

#: Header fields that must match for a journal to be resumable against
#: a sweep (a journal written for a different workload must not
#: silently poison the ranking).
_HEADER_IDENTITY_FIELDS = ("model", "system", "global_batch",
                           "tune_microbatches", "enforce_memory",
                           "n_candidates")

#: Ceiling on one exponential-backoff pause, seconds.
_MAX_BACKOFF_S = 30.0


def spec_key(spec: ParallelismSpec) -> str:
    """Canonical journal key for a candidate, as submitted (pre-tuning)."""
    return json.dumps(asdict(spec), sort_keys=True,
                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


class SweepJournal:
    """Append-only JSONL record of every candidate's fate.

    Line 1 is a versioned header identifying the sweep; each following
    line is one candidate record (``status`` ``"evaluated"`` with the
    numbers needed to reconstruct its :class:`ExplorationResult`, or
    ``"skipped"`` with a category and detail).  Records are flushed as
    written, so a crash loses at most the line being written — and the
    loader tolerates exactly that one torn trailing line.
    """

    def __init__(self, path: Path, header: dict,
                 done: Dict[str, dict], handle,
                 prior_metrics: Optional[dict] = None) -> None:
        self.path = path
        self.header = header
        self.done = done
        self._handle = handle
        #: Last ``kind: "metrics"`` record of the journal being
        #: resumed, or ``None`` — the base the next cumulative
        #: snapshot adds onto.
        self.prior_metrics = prior_metrics

    # -- construction -------------------------------------------------------

    @classmethod
    def open(cls, path, header: dict,
             resume: bool = False) -> "SweepJournal":
        """Create a fresh journal, or re-open one for resumption.

        With ``resume`` and an existing file, the header is checked
        against ``header`` (:class:`ConfigurationError` on mismatch)
        and previously journaled candidates are loaded into ``done``.
        Without ``resume`` an existing file is started over.
        """
        path = Path(path)
        if resume and path.exists():
            stored_header, done = cls.load(path)
            cls._check_identity(stored_header, header, path)
            handle = path.open("a", encoding="utf-8")
            return cls(path, stored_header, done, handle,
                       prior_metrics=cls.load_metrics(path))
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = path.open("w", encoding="utf-8")
        journal = cls(path, header, {}, handle)
        journal._write(header)
        return journal

    @classmethod
    def load(cls, path) -> Tuple[dict, Dict[str, dict]]:
        """Parse a journal into ``(header, done)`` without opening it
        for writing.  Raises :class:`ConfigurationError` on a missing
        or version-incompatible header; a torn final line (crash during
        a write) is dropped with a warning."""
        path = Path(path)
        header: Optional[dict] = None
        done: Dict[str, dict] = {}
        with path.open("r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if number == len(lines):
                    _LOG.warning(
                        "journal %s: dropping torn final line %d",
                        path, number)
                    continue
                raise ConfigurationError(
                    f"journal {path}: line {number} is not valid JSON")
            if header is None:
                if record.get("kind") != "header":
                    raise ConfigurationError(
                        f"journal {path}: first record must be a header, "
                        f"got {record.get('kind')!r}")
                version = record.get("schema_version")
                if version != JOURNAL_SCHEMA_VERSION:
                    raise ConfigurationError(
                        f"journal {path}: schema version {version!r} is "
                        f"not supported (expected "
                        f"{JOURNAL_SCHEMA_VERSION})")
                header = record
                continue
            if record.get("kind") == "candidate" and "key" in record:
                done[record["key"]] = record
        if header is None:
            raise ConfigurationError(
                f"journal {path} is empty — nothing to resume")
        return header, done

    @classmethod
    def load_metrics(cls, path) -> Optional[dict]:
        """The last cumulative ``kind: "metrics"`` record in a journal,
        or ``None``.  Unparseable lines are skipped (the candidate
        loader already warns about the only legitimate one, a torn
        final line)."""
        path = Path(path)
        latest: Optional[dict] = None
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if record.get("kind") == "metrics":
                    latest = record
        return latest

    @classmethod
    def _check_identity(cls, stored: dict, expected: dict,
                        path: Path) -> None:
        for name in _HEADER_IDENTITY_FIELDS:
            if stored.get(name) != expected.get(name):
                raise ConfigurationError(
                    f"journal {path} was written for a different sweep: "
                    f"{name} is {stored.get(name)!r}, this sweep has "
                    f"{expected.get(name)!r}")

    # -- writing ------------------------------------------------------------

    def record(self, key: str, outcome: CandidateOutcome) -> None:
        """Append one candidate's fate and remember it as done."""
        record = _record_for(key, outcome)
        self.done[key] = record
        self._write(record)

    def record_metrics(self, counters: Dict[str, float],
                       skipped: Dict[str, int]) -> None:
        """Append a cumulative metrics snapshot (``kind: "metrics"``).

        The candidate loader ignores non-candidate kinds, so journals
        carrying these records stay readable by older code."""
        self._write({"kind": "metrics", "counters": dict(counters),
                     "skipped": dict(skipped)})

    def _write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _record_for(key: str, outcome: CandidateOutcome) -> dict:
    if outcome.evaluated:
        result = outcome.result
        return {
            "kind": "candidate",
            "key": key,
            "status": "evaluated",
            "parallelism": asdict(result.parallelism),
            "batch_time_s": result.batch_time_s,
            "microbatch_size": result.microbatch_size,
            "microbatch_efficiency": result.microbatch_efficiency,
            "breakdown": result.breakdown.as_dict(),
        }
    return {
        "kind": "candidate",
        "key": key,
        "status": "skipped",
        "category": outcome.skip_category,
        "detail": outcome.detail,
    }


def _result_from_record(record: dict,
                        global_batch: int) -> ExplorationResult:
    """Rebuild a full result from its journal record (bit-exact: JSON
    round-trips doubles exactly, so resumed rankings tie-break the same
    way the uninterrupted run did)."""
    return ExplorationResult(
        parallelism=ParallelismSpec(**record["parallelism"]),
        global_batch=global_batch,
        batch_time_s=record["batch_time_s"],
        breakdown=TrainingTimeBreakdown(**record["breakdown"]),
        microbatch_size=record["microbatch_size"],
        microbatch_efficiency=record["microbatch_efficiency"],
    )


# ---------------------------------------------------------------------------
# SIGINT trap
# ---------------------------------------------------------------------------


@contextmanager
def _sigint_trap():
    """Install a cooperative SIGINT handler for the sweep's duration.

    Yields a zero-argument callable that reports whether a SIGINT has
    arrived.  The first signal only sets the flag (the sweep stops at
    the next candidate boundary, keeping the journal consistent); a
    second signal raises :class:`KeyboardInterrupt` for a hard abort.
    Off the main thread, signal handlers cannot be installed and the
    flag simply stays false.
    """
    state = {"count": 0}

    def cancelled() -> bool:
        return state["count"] > 0

    if threading.current_thread() is not threading.main_thread():
        yield cancelled
        return

    def handler(signum, frame):
        state["count"] += 1
        if state["count"] > 1:
            raise KeyboardInterrupt

    previous = signal.signal(signal.SIGINT, handler)
    try:
        yield cancelled
    finally:
        signal.signal(signal.SIGINT, previous)


# ---------------------------------------------------------------------------
# Worker-pool supervisor
# ---------------------------------------------------------------------------


class _PoolSupervisor:
    """Owns the process pool and its retry/degrade state machine.

    States: ``pool`` (healthy fan-out) → ``retry`` (tear down, back
    off, rebuild — at most ``retries`` consecutive times) → ``serial``
    (permanent degradation; the caller evaluates in-process).  Any
    failure mode — a batch timeout, a dead worker process, or an
    unexpected exception from the evaluation function — takes the same
    path, so no failure can hang the sweep.
    """

    #: Suffix of ``degraded_reason`` naming where evaluation continues
    #: after permanent degradation (subclasses run a different tail).
    _degrade_note = "continuing serially"

    def __init__(self, workers: int, evaluate: Callable,
                 timeout: Optional[float], retries: int,
                 backoff_s: float,
                 template: Optional[AMPeD] = None,
                 global_batch: int = 0,
                 compiled: Optional[CompiledSweep] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.workers = workers
        self.evaluate = evaluate
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        #: Jitter source for retry backoff; injectable so tests can pin
        #: the draw.
        self.rng = rng if rng is not None else random.Random()
        #: Warm-up payload for new worker processes: the sweep template
        #: (primes the operation memo) and, for compiled sweeps, the
        #: parent's pre-filled term tables.  ``None`` template = no
        #: initializer (fault-injection tests with synthetic evaluate).
        self.template = template
        self.global_batch = global_batch
        self.compiled = compiled
        self.degraded = False
        self.degraded_reason = ""
        self.consecutive_failures = 0
        self.total_retries = 0
        self._pool = None

    # -- pool lifecycle -----------------------------------------------------

    def _ensure_pool(self) -> "ProcessPoolExecutor":
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            if self.template is not None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=warm_worker,
                    initargs=(self.template, self.global_batch,
                              self.compiled))
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def shutdown(self) -> None:
        """Tear the pool down without ever waiting on a hung worker."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # ProcessPoolExecutor has no public kill switch; a hung worker
        # would survive shutdown() and stall interpreter exit (the
        # executor manager thread joins on it).  Snapshot the process
        # handles *before* shutdown() — it nulls out ``_processes`` even
        # with ``wait=False`` — then terminate whatever is still alive.
        processes = dict(getattr(pool, "_processes", None) or {})
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        finally:
            for process in processes.values():
                if process.is_alive():
                    process.terminate()

    # -- supervised execution ----------------------------------------------

    def run_chunk(self, specs: List[ParallelismSpec],
                  cancelled: Callable[[], bool]
                  ) -> Tuple[List[CandidateOutcome],
                             List[ParallelismSpec]]:
        """Evaluate ``specs`` on the pool, supervising each batch.

        Returns ``(outcomes, leftover)``: outcomes are collected in
        submission order; ``leftover`` is whatever was abandoned to
        cancellation or permanent degradation (the caller evaluates it
        serially, or drops it on cancel).
        """
        remaining = list(specs)
        outcomes: List[CandidateOutcome] = []
        while remaining and not self.degraded and not cancelled():
            failure = None
            collected = 0
            try:
                pool = self._ensure_pool()
                # self.evaluate holds a module-level function or
                # functools.partial over one (the constructor contract),
                # not a bound method; it pickles cleanly.
                futures = [pool.submit(self.evaluate, spec)  # amplint: disable=AMP202 — attribute holds a picklable module-level callable
                           for spec in remaining]
            except Exception as error:  # noqa: BLE001 — supervised boundary: pool spawn/submit failures trigger retry-or-degrade
                self._note_failure(error)
                continue
            deadline = (None if self.timeout is None
                        else time.monotonic() + self.timeout)
            for future in futures:
                wait = (None if deadline is None
                        else max(0.0, deadline - time.monotonic()))
                try:
                    outcomes.append(future.result(timeout=wait))
                except Exception as error:  # noqa: BLE001 — supervised boundary: worker crash/timeout is recorded and retried
                    failure = error
                    break
                collected += 1
                if cancelled():
                    break
            remaining = remaining[collected:]
            if failure is None:
                if cancelled():
                    for future in futures:
                        future.cancel()
                    break
                self.consecutive_failures = 0
            else:
                self._note_failure(failure)
        return outcomes, remaining

    def _note_failure(self, error: BaseException) -> None:
        """One supervision event: tear down, then retry or degrade."""
        self.consecutive_failures += 1
        self.shutdown()
        if self.consecutive_failures > self.retries:
            self.degraded = True
            self.degraded_reason = (
                f"worker pool failed {self.consecutive_failures} "
                f"consecutive times (last: {error!r}); "
                f"{self._degrade_note}")
            get_metrics().gauge("sweep.degraded").set(1.0)
            _LOG.warning("sweep degraded: %s", self.degraded_reason)
            return
        self.total_retries += 1
        metrics = get_metrics()
        metrics.counter("sweep.retries").inc()
        cap = min(_MAX_BACKOFF_S,
                  self.backoff_s * 2 ** (self.consecutive_failures - 1))
        # Full jitter: a uniform draw over [0, cap] instead of the
        # deterministic cap, so sweeps that fail together (a shared
        # machine stall, a common poisoned input) do not retry in
        # lockstep and re-trigger the very overload that failed them.
        delay = self.rng.uniform(0.0, cap) if cap > 0 else 0.0
        metrics.histogram("sweep.retry_sleep_seconds").observe(delay)
        _LOG.warning(
            "sweep worker batch failed (%r); retry %d/%d after %.2fs "
            "(jittered, cap %.2fs)",
            error, self.consecutive_failures, self.retries, delay, cap)
        with span("dse.retry", category="search",
                  attrs={"attempt": self.consecutive_failures,
                         "retries": self.retries,
                         "cap_s": cap, "sleep_s": delay}):
            if delay > 0:
                time.sleep(delay)


def _evaluate_shipped(chunk, need_bounds: bool):
    """Pool-worker entry point: evaluate a shipped pre-bound chunk.

    The worker does no binding work at all — projection and batch fill
    already happened in the driver's process — and returns plain-list
    bounds plus outcome dataclasses, both cheap to pickle back.  A
    shared-memory-shipped chunk detaches its segment mapping before
    returning (the bounds/outcomes are plain Python values by then), so
    worker-side mappings never outlive the chunk they served.
    """
    try:
        return evaluate_prebound(chunk, need_bounds)
    finally:
        chunk.detach_shared()


class _VectorPoolDriver(_PoolSupervisor):
    """Ships pre-bound chunks to warm pool workers for vectorized sweeps.

    Reuses the scalar supervisor's pool lifecycle and retry/degrade
    state machine, but splits dispatch into :meth:`submit` /
    :meth:`resolve` so the driver's process can bind the next chunks
    while workers evaluate earlier ones.  Every failure falls back to
    evaluating the already-bound chunk *in process* — degradation costs
    parallelism, never the array path, and never a result.
    """

    _degrade_note = "continuing with in-process vectorized evaluation"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Bumped on every pool teardown so the stale futures of a
        #: collapsed pool count as one supervision event, not one each.
        self._epoch = 0

    def submit(self, chunk, need_bounds: bool):
        """Submit a pre-bound chunk; returns an opaque ticket for
        :meth:`resolve`, or ``None`` when the pool is degraded or the
        submission itself failed (the chunk then evaluates locally)."""
        if self.degraded:
            return None
        # Publish the chunk's dense arrays into shared memory first so
        # the pickle below carries a segment name, not the arrays; a
        # failed publish silently keeps the by-value pickle path.
        chunk.publish_shared()
        try:
            pool = self._ensure_pool()
            return (self._epoch,
                    pool.submit(_evaluate_shipped, chunk, need_bounds))
        except Exception as error:  # noqa: BLE001 — supervised boundary: pool spawn/submit failures trigger retry-or-degrade
            self._note_failure(error)
            return None

    def resolve(self, chunk, ticket, need_bounds: bool):
        """The ``(bounds, outcomes)`` of a submitted chunk.

        A worker failure (timeout, crash, unexpected exception) is
        recorded against the retry budget once per pool collapse, and
        the chunk is re-evaluated in process so the sweep's results
        are identical either way.  Either way the chunk's shared
        segment (if any) is released here — resolution is the single
        point where no consumer can still need it.
        """
        try:
            if ticket is not None:
                epoch, future = ticket
                try:
                    bounds, outcomes = future.result(timeout=self.timeout)
                    self.consecutive_failures = 0
                    return bounds, outcomes
                except Exception as error:  # noqa: BLE001 — supervised boundary: worker crash/timeout is recorded and retried
                    if epoch == self._epoch:
                        self._epoch += 1
                        self._note_failure(error)
            # The driver-side chunk keeps its own arrays (publishing
            # copies, never moves), so the local fallback is unaffected
            # by the release in the finally below.
            return evaluate_prebound(chunk, need_bounds)
        finally:
            chunk.release_shared()


# ---------------------------------------------------------------------------
# The resilient sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepOutcome:
    """Ranked results plus the coverage ledger of one resilient sweep."""

    results: List[ExplorationResult] = field(default_factory=list)
    report: SweepReport = field(default_factory=SweepReport)
    #: Journal-cumulative operational counters (runs, evaluated,
    #: retried, worker_errors, interrupts) spanning every run that
    #: contributed to the journal; ``None`` when journaling is off.
    cumulative: Optional[dict] = None

    @property
    def partial(self) -> bool:
        """True when the sweep was cancelled before full coverage."""
        return self.report.partial

    @property
    def best(self) -> Optional[ExplorationResult]:
        """The fastest mapping seen, or ``None`` for an empty ranking."""
        return self.results[0] if self.results else None


def run_sweep(template: AMPeD, global_batch: int,
              mappings: Optional[List[ParallelismSpec]] = None,
              tune_microbatches: bool = True,
              enforce_memory: bool = False,
              max_results: Optional[int] = None,
              prune: bool = True,
              workers: Optional[int] = None,
              timeout: Optional[float] = None,
              retries: int = 2,
              backoff_s: float = 0.5,
              backoff_rng: Optional[random.Random] = None,
              journal_path=None,
              resume: bool = False,
              strict: bool = False,
              raise_on_interrupt: bool = False,
              evaluate: Optional[Callable] = None,
              evaluation_path: str = "compiled") -> SweepOutcome:
    """Explore the design space under supervision; never hang, never
    lose finished work.

    Ranking semantics match :func:`repro.search.dse.explore` exactly
    (same submission order, same branch-and-bound pruning, same
    fastest-first truncation to ``max_results``); the additional
    parameters control fault tolerance:

    Parameters
    ----------
    timeout:
        Wall-clock seconds allowed per submitted batch of worker
        results before the batch is considered hung (``None`` = wait
        forever, the pre-resilience behavior).
    retries:
        Consecutive batch failures (timeout, dead worker, unexpected
        exception) tolerated — each retried after a *full-jitter*
        exponential backoff, a uniform draw from
        ``[0, backoff_s * 2**n]`` (``backoff_rng`` injects the
        randomness source for deterministic tests) — before the sweep
        degrades for the remainder: to serial evaluation on the scalar
        path, to in-process vectorized evaluation on the array path.
    journal_path:
        Append-only JSONL journal destination; ``None`` disables
        persistence.
    resume:
        Replay ``journal_path`` first and evaluate only candidates it
        does not already cover.
    strict:
        Raise :class:`~repro.errors.WorkerError` when a candidate keeps
        failing with a non-``ReproError`` even serially, instead of
        journaling it as a ``worker_error`` skip and continuing.
    raise_on_interrupt:
        Raise :class:`~repro.errors.SweepInterrupted` (carrying the
        journal path and partial ranking) on SIGINT instead of
        returning a ``partial=True`` outcome.
    evaluate:
        Evaluation function ``spec -> CandidateOutcome`` (picklable for
        worker pools); defaults to the real
        :func:`~repro.search.dse.evaluate_candidate` over ``template``.
        Exposed for fault-injection tests.
    evaluation_path:
        How each candidate evaluates Eq. 1 (``"compiled"`` default;
        see :func:`repro.search.dse.explore`) — overrides the
        template's own setting.  ``"compiled"`` auto-upgrades to
        ``"vectorized"`` for large sweeps when NumPy is importable
        (unless a custom ``evaluate`` or ``enforce_memory`` forces
        per-candidate evaluation).  Recorded in the journal header for
        provenance but *not* part of the resume identity: every path
        produces the same ranking and skip categories, so a journal
        written under one path resumes deterministically under another.
    """
    validate_max_results(max_results)
    if mappings is None:
        mappings = enumerate_mappings(template.system, template.model)
    custom_evaluate = evaluate is not None
    if custom_evaluate or enforce_memory:
        # Custom evaluators and memory enforcement are inherently
        # per-candidate; the batch backend cannot replay them, so an
        # explicit request still validates NumPy but the auto-upgrade
        # never fires.
        if evaluation_path == "vectorized":
            require_numpy()
    else:
        evaluation_path = resolve_evaluation_path(evaluation_path,
                                                  len(mappings))
    if evaluation_path != template.evaluation_path:
        template = replace(template, evaluation_path=evaluation_path)
    if evaluate is None:
        evaluate = partial(evaluate_candidate, template,
                           global_batch=global_batch,
                           tune_microbatches=tune_microbatches,
                           enforce_memory=enforce_memory)

    header = {
        "kind": "header",
        "schema_version": JOURNAL_SCHEMA_VERSION,
        "model": template.model.name,
        "system": template.system.describe(),
        "global_batch": global_batch,
        "tune_microbatches": tune_microbatches,
        "enforce_memory": enforce_memory,
        "n_candidates": len(mappings),
        "evaluation_path": template.evaluation_path,
    }
    journal: Optional[SweepJournal] = None
    if journal_path is not None:
        journal = SweepJournal.open(journal_path, header, resume=resume)

    report = SweepReport(
        n_candidates=len(mappings),
        journal_path=str(journal.path) if journal else None)
    results: List[ExplorationResult] = []
    # The compiled term tables back the pruner's compute+communication
    # lower bound on every evaluation path (keeping skip counters
    # path-independent) and are shipped to pool workers.
    compiled: Optional[CompiledSweep] = None
    if prune or template.evaluation_path in ("compiled", "vectorized"):
        compiled = compile_sweep(template, global_batch)
    pruner = (_BoundPruner(template, global_batch, tune_microbatches,
                           max_results, compiled=compiled)
              if prune else None)

    # Replay the journal: finished candidates are restored, never
    # re-evaluated, and feed the pruner's incumbents so the resumed
    # branch-and-bound stays exact.
    done = journal.done if journal else {}
    for record in done.values():
        if record["status"] == "evaluated":
            result = _result_from_record(record, global_batch)
            results.append(result)
            if pruner is not None:
                pruner.record(result)
            report.resumed += 1
        else:
            report.record_skip(record["category"])
    pending = [spec for spec in mappings if spec_key(spec) not in done]

    metrics = get_metrics()
    heartbeat = metrics.gauge("sweep.heartbeat_monotonic_s")

    def absorb(outcome: CandidateOutcome) -> None:
        heartbeat.set(time.monotonic())
        if journal is not None:
            journal.record(spec_key(outcome.spec), outcome)
        if outcome.evaluated:
            report.evaluated += 1
            metrics.counter("sweep.evaluated").inc()
            results.append(outcome.result)
            if pruner is not None:
                pruner.record(outcome.result)
        else:
            report.record_skip(outcome.skip_category)
            metrics.counter(
                f"sweep.skipped.{outcome.skip_category}").inc()

    def evaluate_serially(spec: ParallelismSpec) -> CandidateOutcome:
        started = time.perf_counter()
        try:
            return evaluate(spec)
        except MemoryCapacityError as error:
            return CandidateOutcome(spec=spec,
                                    skip_category=SKIP_MEMORY_CAPACITY,
                                    detail=str(error))
        except ReproError as error:
            return CandidateOutcome(
                spec=spec, skip_category=SKIP_MAPPING_INFEASIBLE,
                detail=str(error))
        except Exception as error:  # noqa: BLE001 — supervised boundary
            report.worker_errors += 1
            metrics.counter("sweep.worker_errors").inc()
            _LOG.warning("candidate %s failed even serially: %r",
                         spec.describe(), error)
            if strict:
                raise WorkerError(
                    f"candidate {spec.describe()} failed: {error!r}",
                    journal_path=report.journal_path) from error
            return CandidateOutcome(spec=spec,
                                    skip_category=SKIP_WORKER_ERROR,
                                    detail=repr(error))
        finally:
            metrics.histogram("sweep.candidate_seconds").observe(
                time.perf_counter() - started)

    # The vectorized path evaluates whole chunks as array programs on
    # this process; it supersedes the worker pool (array gathers beat
    # pickling candidates across process boundaries by orders of
    # magnitude).
    use_vectorized = (template.evaluation_path == "vectorized"
                      and not custom_evaluate and not enforce_memory)
    use_pool = (workers is not None and workers > 1
                and not use_vectorized)
    shipped = (compiled if compiled is not None
               and compiled.cache_key is not None else None)
    # Term tables ride to pool workers through shared memory when the
    # platform supports it: the warm-up initializer then attaches one
    # segment instead of unpickling every table per worker.  On
    # platforms without shared_memory/NumPy this is the identity and
    # the pickle path ships the tables by value, bit-exact either way.
    if shipped is not None and (use_pool or (use_vectorized
                                             and workers is not None
                                             and workers > 1)):
        shipped = ship_compiled(shipped)
    supervisor = (_PoolSupervisor(workers, evaluate, timeout, retries,
                                  backoff_s, template=template,
                                  global_batch=global_batch,
                                  compiled=shipped, rng=backoff_rng)
                  if use_pool else None)
    # Vectorized sweeps fan out too: chunks are bound (projected +
    # batch-filled) in this process and shipped to warm workers that
    # evaluate the arrays without re-binding — the driver keeps a small
    # prefetch window of in-flight chunks so binding overlaps
    # evaluation while absorption stays strictly serial-ordered.
    vector_driver = (_VectorPoolDriver(workers, evaluate, timeout,
                                       retries, backoff_s,
                                       template=template,
                                       global_batch=global_batch,
                                       compiled=shipped,
                                       rng=backoff_rng)
                     if use_vectorized and workers is not None
                     and workers > 1 else None)
    inflight: deque = deque()
    prefetch_pos = 0
    if use_vectorized:
        chunk_size = DEFAULT_CHUNK_CANDIDATES
    else:
        chunk_size = max(1, 4 * workers) if use_pool else 1
    interrupted = False
    cumulative: Optional[dict] = None

    with _sigint_trap() as cancelled, \
            span("sweep.run", category="search",
                 attrs={"n_candidates": len(mappings),
                        "n_pending": len(pending),
                        "workers": workers if use_pool else 1}):
        try:
            position = 0
            while position < len(pending):
                if cancelled():
                    interrupted = True
                    break
                if use_vectorized:
                    need_bounds = pruner is not None
                    if (vector_driver is not None
                            and not vector_driver.degraded):
                        # Top up the prefetch window: bind ahead and
                        # submit while workers chew on earlier chunks.
                        while (prefetch_pos < len(pending)
                               and len(inflight)
                               <= vector_driver.workers
                               and not vector_driver.degraded):
                            ahead = pending[prefetch_pos:
                                            prefetch_pos + chunk_size]
                            prebound = bind_chunk(
                                template, compiled, ahead,
                                global_batch, tune_microbatches)
                            ticket = vector_driver.submit(prebound,
                                                          need_bounds)
                            inflight.append((ahead, prebound, ticket))
                            prefetch_pos += len(ahead)
                    if inflight:
                        chunk, prebound, ticket = inflight.popleft()
                    else:
                        chunk = pending[position:position + chunk_size]
                        prebound = bind_chunk(template, compiled, chunk,
                                              global_batch,
                                              tune_microbatches)
                        ticket = None
                        prefetch_pos = position + len(chunk)
                    with span("dse.vectorized_eval", category="search",
                              attrs={"offset": position,
                                     "n_candidates": len(chunk),
                                     "shipped": ticket is not None,
                                     "tune_microbatches":
                                         tune_microbatches}) as live:
                        position += len(chunk)
                        if vector_driver is not None:
                            bounds, outcomes = vector_driver.resolve(
                                prebound, ticket, need_bounds)
                            if (vector_driver.degraded
                                    and not report.degraded):
                                report.degraded = True
                                report.degraded_reason = \
                                    vector_driver.degraded_reason
                            report.retried = \
                                vector_driver.total_retries
                        else:
                            bounds, outcomes = evaluate_prebound(
                                prebound, need_bounds)
                        fallbacks = 0
                        # Serial-order walk: the pruner threshold is
                        # re-read per candidate because absorb()
                        # tightens it, reproducing the serial path's
                        # incumbent dynamics (and hence its exact
                        # skip categories) on precomputed arrays.
                        for index, spec in enumerate(chunk):
                            if cancelled():
                                interrupted = True
                                break
                            threshold = (pruner.threshold
                                         if pruner is not None else None)
                            if threshold is not None:
                                bound = float(bounds[index])
                                if math.isnan(bound):
                                    absorb(CandidateOutcome(
                                        spec=spec,
                                        skip_category=(
                                            SKIP_MAPPING_INFEASIBLE),
                                        detail=("no feasible "
                                                "microbatch count")))
                                    continue
                                if bound > threshold:
                                    absorb(CandidateOutcome(
                                        spec=spec,
                                        skip_category=SKIP_PRUNED,
                                        detail=("lower bound exceeds "
                                                "the incumbent top-k")))
                                    continue
                            outcome = outcomes[index]
                            if outcome is None:
                                fallbacks += 1
                                outcome = evaluate_serially(spec)
                            absorb(outcome)
                        live.set_attrs(scalar_fallbacks=fallbacks)
                    if interrupted:
                        break
                    continue
                chunk = pending[position:position + chunk_size]
                with span("sweep.chunk", category="search",
                          attrs={"offset": position,
                                 "size": len(chunk)}):
                    position += len(chunk)
                    runnable = []
                    for spec in chunk:
                        category = (pruner.skip_category(spec)
                                    if pruner is not None else None)
                        if category is not None:
                            detail = ("lower bound exceeds the "
                                      "incumbent top-k"
                                      if category == SKIP_PRUNED else
                                      "no feasible microbatch count")
                            absorb(CandidateOutcome(
                                spec=spec, skip_category=category,
                                detail=detail))
                        else:
                            runnable.append(spec)
                    if supervisor is not None and not supervisor.degraded:
                        outcomes, runnable = supervisor.run_chunk(
                            runnable, cancelled)
                        for outcome in outcomes:
                            absorb(outcome)
                        if supervisor.degraded and not report.degraded:
                            report.degraded = True
                            report.degraded_reason = \
                                supervisor.degraded_reason
                        report.retried = supervisor.total_retries
                    for spec in runnable:
                        if cancelled():
                            interrupted = True
                            break
                        absorb(evaluate_serially(spec))
                if cancelled():
                    interrupted = True
                    break
        finally:
            if supervisor is not None:
                supervisor.shutdown()
            if vector_driver is not None:
                vector_driver.shutdown()
            # Segments published for chunks still in flight at an
            # interrupt/failure boundary, plus the shared term tables,
            # unlink here — a cancelled sweep leaks nothing.
            for _ahead, prebound, _ticket in inflight:
                prebound.release_shared()
            release_shipment(shipped)
            if journal is not None:
                cumulative = _cumulative_counters(
                    journal.prior_metrics, report, interrupted)
                journal.record_metrics(cumulative["counters"],
                                       cumulative["skipped"])
                journal.close()

    results.sort(key=lambda result: result.batch_time_s)
    if max_results is not None:
        results = results[:max_results]
    report.partial = interrupted
    if interrupted:
        _LOG.warning(
            "sweep interrupted: exact top-%s over %d evaluated "
            "candidates%s", max_results or "all",
            report.evaluated + report.resumed,
            f" (resume with the journal at {report.journal_path})"
            if report.journal_path else "")
        if raise_on_interrupt:
            raise SweepInterrupted(
                f"sweep cancelled after {report.covered} of "
                f"{report.n_candidates} candidates",
                journal_path=report.journal_path,
                partial_results=results)
    return SweepOutcome(results=results, report=report,
                        cumulative=cumulative)


def _cumulative_counters(prior: Optional[dict], report: SweepReport,
                         interrupted: bool) -> dict:
    """Journal-cumulative operational counters.

    Coverage numbers (``evaluated``, ``skipped``) are already
    journal-cumulative in the report — resumption replays every prior
    candidate into it — so they are taken as-is; run-scoped counters
    (``runs``, ``retried``, ``worker_errors``, ``interrupts``) add onto
    the previous metrics record of the journal being resumed.
    """
    base = (prior or {}).get("counters", {})

    def prior_count(name: str) -> int:
        value = base.get(name, 0)
        return int(value) if isinstance(value, (int, float)) else 0

    counters = {
        "runs": prior_count("runs") + 1,
        "evaluated": report.evaluated + report.resumed,
        "skipped": sum(report.skipped.values()),
        "retried": prior_count("retried") + report.retried,
        "worker_errors": (prior_count("worker_errors")
                          + report.worker_errors),
        "interrupts": prior_count("interrupts") + (1 if interrupted
                                                   else 0),
    }
    return {"counters": counters, "skipped": dict(report.skipped)}
