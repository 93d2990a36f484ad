"""Resumable sweep runtime: journal, resume and SIGINT-safe top-k.

:func:`repro.search.dse.explore` ranks a design space in one call;
:func:`run_sweep` ranks the same space with the same result while
making a long run *survivable*.  The paper already applies reliability
discipline to the *modeled* system (the Daly checkpoint model in
:mod:`repro.runtime.reliability`); this module applies it to the sweeps
themselves:

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
- **Contained candidate failures** — a candidate that raises something
  other than a :class:`~repro.errors.ReproError` is journaled as a
  ``worker_error`` skip and the sweep goes on (``strict=True`` raises
  :class:`~repro.errors.WorkerError` instead).

Every sweep runs in this process through one chunk loop, which
:func:`~repro.search.dse.explore` shares.  Each chunk gets its pruner
bounds, and its candidate outcomes as one array program (the memory
screen is a lane mask there), from
:func:`~repro.search.vectorized.evaluate_chunk`; whatever the arrays
leave undecided, and every candidate of a ``per_layer`` or custom
``evaluate`` sweep, is evaluated one by one; those two ask the arrays
for bounds only, and skip them when nothing prunes.  Coverage
accounting is surfaced as a :class:`~repro.reporting.sweep.SweepReport`;
``docs/robustness.md`` documents the journal schema.
"""

from __future__ import annotations

import bisect
import json
import logging
import math
import signal
import threading
import time
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
from repro.search.compiler import CompiledSweep, compile_sweep
from repro.search.dse import (
    SKIP_MAPPING_INFEASIBLE,
    SKIP_MEMORY_CAPACITY,
    SKIP_PRUNED,
    SKIP_WORKER_ERROR,
    CandidateOutcome,
    ExplorationResult,
    evaluate_candidate,
    validate_max_results,
)
from repro.search.vectorized import DEFAULT_CHUNK_CANDIDATES, evaluate_chunk

_LOG = logging.getLogger("repro.search.resilience")

#: Version stamped into every journal header; bumped on schema changes.
JOURNAL_SCHEMA_VERSION = 1

#: Header fields that must match for a journal to be resumable against
#: a sweep (a journal written for a different workload must not
#: silently poison the ranking).
_HEADER_IDENTITY_FIELDS = ("model", "system", "global_batch",
                           "tune_microbatches", "enforce_memory",
                           "n_candidates")


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
# The resilient sweep
# ---------------------------------------------------------------------------


class _BoundPruner:
    """Branch-and-bound incumbents shared across one :func:`run_sweep`.

    Tracks the ``keep`` smallest batch times seen so far; a mapping is
    skipped when its lower bound strictly exceeds the incumbent
    ``keep``-th best, which proves it cannot appear in the final
    truncated ranking.  The bound is
    :meth:`~repro.search.compiler.CompiledSweep.lower_bound` (batched
    as :meth:`~repro.search.vectorized.BoundBatch.lower_bounds`) —
    compute at the best reachable efficiency *plus* the mapping's exact
    communication terms, used for every evaluation path so skip
    counters stay path-independent.
    """

    def __init__(self, keep: int) -> None:
        self.keep = keep
        self._best_times: List[float] = []

    @property
    def threshold(self) -> Optional[float]:
        """The incumbent ``keep``-th best time, or ``None`` while the
        incumbent list is not full yet (distinct from an *infinite*
        bound, which would mean a provably infeasible candidate)."""
        if len(self._best_times) < self.keep:
            return None
        return self._best_times[self.keep - 1]

    def record(self, result: ExplorationResult) -> None:
        bisect.insort(self._best_times, result.batch_time_s)
        del self._best_times[self.keep:]


@dataclass
class SweepOutcome:
    """Ranked results plus the coverage ledger of one resilient sweep."""

    results: List[ExplorationResult] = field(default_factory=list)
    report: SweepReport = field(default_factory=SweepReport)
    #: Journal-cumulative operational counters (runs, evaluated,
    #: skipped, worker_errors, interrupts) spanning every run that
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
              journal_path=None,
              resume: bool = False,
              strict: bool = False,
              raise_on_interrupt: bool = False,
              evaluate: Optional[Callable] = None,
              evaluation_path: str = "compiled") -> SweepOutcome:
    """Explore the design space in this process; never lose finished
    work.

    Ranking semantics match :func:`repro.search.dse.explore` exactly
    (same submission order, same branch-and-bound pruning, same
    fastest-first truncation to ``max_results``); the additional
    parameters control persistence and failure handling:

    Parameters
    ----------
    journal_path:
        Append-only JSONL journal destination; ``None`` disables
        persistence.
    resume:
        Replay ``journal_path`` first and evaluate only candidates it
        does not already cover.
    strict:
        Raise :class:`~repro.errors.WorkerError` when a candidate fails
        with a non-``ReproError``, instead of journaling it as a
        ``worker_error`` skip and continuing.
    raise_on_interrupt:
        Raise :class:`~repro.errors.SweepInterrupted` (carrying the
        journal path and partial ranking) on SIGINT instead of
        returning a ``partial=True`` outcome.
    evaluate:
        Evaluation function ``spec -> CandidateOutcome``; defaults to
        the real :func:`~repro.search.dse.evaluate_candidate` over
        ``template``.  Exposed for fault-injection tests.
    evaluation_path:
        How each candidate evaluates Eq. 1 (``"compiled"`` default;
        see :func:`repro.search.dse.explore`) — overrides the
        template's own setting.  ``"compiled"`` evaluates each chunk
        as one array program, unless a custom ``evaluate`` takes every
        candidate.  Recorded in the journal header for
        provenance but *not* part of the resume identity: every path
        produces the same ranking and skip categories, so a journal
        written under one path resumes deterministically under another.
    """
    validate_max_results(max_results)
    if mappings is None:
        mappings = enumerate_mappings(template.system, template.model)
    custom_evaluate = evaluate is not None
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
    # path-independent).
    compiled: Optional[CompiledSweep] = None
    if prune or template.evaluation_path != "per_layer":
        compiled = compile_sweep(template, global_batch)
    # Without a top-k there is no threshold to compare bounds against.
    pruner = (_BoundPruner(max_results)
              if prune and max_results is not None else None)

    # Replay the journal: finished candidates are restored, never
    # re-evaluated, and feed the pruner's incumbents so the resumed
    # branch-and-bound stays exact.
    done = journal.done if journal else {}
    try:
        for record in done.values():
            if record["status"] == "evaluated":
                result = _result_from_record(record, global_batch)
                results.append(result)
                if pruner is not None:
                    pruner.record(result)
                report.resumed += 1
            else:
                report.record_skip(record["category"])
    except (KeyError, TypeError, ReproError) as error:
        # A corrupt record (missing field, unknown field, or a value
        # the result types reject) is a configuration error naming
        # the journal, never a traceback.
        journal.close()
        detail = str(error) if isinstance(error, ReproError) \
            else repr(error)
        raise ConfigurationError(
            f"journal {journal.path}: malformed candidate record: "
            f"{detail}") from None
    # Journal keys cost a JSON dump per candidate; only a resumed
    # journal with finished records needs them.
    pending = ([spec for spec in mappings if spec_key(spec) not in done]
               if done else list(mappings))

    # A custom evaluate decides every candidate itself, so the chunk
    # call only has pruner bounds to give: ask for them alone, as a
    # per_layer template does, and skip the call when nothing prunes.
    chunk_template = (replace(template, evaluation_path="per_layer")
                      if custom_evaluate else template)
    chunk_decides = chunk_template.evaluation_path != "per_layer"
    metrics = get_metrics()
    heartbeat = metrics.gauge("sweep.heartbeat_monotonic_s")
    chunk_seconds = metrics.histogram("sweep.chunk_seconds")

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

    def evaluate_one(spec: ParallelismSpec) -> CandidateOutcome:
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
            _LOG.warning("candidate %s failed: %r",
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

    interrupted = False
    cumulative: Optional[dict] = None

    with _sigint_trap() as cancelled, \
            span("sweep.run", category="search",
                 attrs={"n_candidates": len(mappings),
                        "n_pending": len(pending)}):
        try:
            for start in range(0, len(pending), DEFAULT_CHUNK_CANDIDATES):
                if cancelled():
                    interrupted = True
                    break
                chunk = pending[start:start + DEFAULT_CHUNK_CANDIDATES]
                chunk_started = time.perf_counter()
                with span("dse.vectorized_eval", category="search",
                          attrs={"offset": start,
                                 "n_candidates": len(chunk),
                                 "tune_microbatches":
                                     tune_microbatches}) as live:
                    if chunk_decides or pruner is not None:
                        bounds, outcomes = evaluate_chunk(
                            chunk_template, compiled, chunk,
                            global_batch, tune_microbatches,
                            need_bounds=pruner is not None,
                            enforce_memory=enforce_memory)
                    else:
                        bounds, outcomes = None, [None] * len(chunk)
                    fallbacks = 0
                    # Serial-order walk: the pruner threshold is re-read
                    # per candidate because absorb() tightens it, so
                    # the incumbent dynamics (and hence the exact skip
                    # categories) are those of a one-by-one sweep.
                    for index, spec in enumerate(chunk):
                        if cancelled():
                            interrupted = True
                            break
                        threshold = (pruner.threshold
                                     if pruner is not None else None)
                        if threshold is not None:
                            bound = bounds[index]
                            if math.isnan(bound):
                                absorb(CandidateOutcome(
                                    spec=spec,
                                    skip_category=SKIP_MAPPING_INFEASIBLE,
                                    detail="no feasible microbatch count"))
                                continue
                            if bound > threshold:
                                absorb(CandidateOutcome(
                                    spec=spec, skip_category=SKIP_PRUNED,
                                    detail=("lower bound exceeds the "
                                            "incumbent top-k")))
                                continue
                        outcome = outcomes[index]
                        if outcome is None:
                            fallbacks += 1
                            outcome = evaluate_one(spec)
                        absorb(outcome)
                    live.set_attrs(scalar_fallbacks=fallbacks)
                chunk_seconds.observe(time.perf_counter() - chunk_started)
                if interrupted:
                    break
        finally:
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
    (``runs``, ``worker_errors``, ``interrupts``) add onto the previous
    metrics record of the journal being resumed.  Counters that older
    runs recorded and this code no longer keeps (``retried``, from the
    removed worker pool) are ignored.
    """
    base = (prior or {}).get("counters", {})

    def prior_count(name: str) -> int:
        value = base.get(name, 0)
        return int(value) if isinstance(value, (int, float)) else 0

    counters = {
        "runs": prior_count("runs") + 1,
        "evaluated": report.evaluated + report.resumed,
        "skipped": sum(report.skipped.values()),
        "worker_errors": (prior_count("worker_errors")
                          + report.worker_errors),
        "interrupts": prior_count("interrupts") + (1 if interrupted
                                                   else 0),
    }
    return {"counters": counters, "skipped": dict(report.skipped)}
