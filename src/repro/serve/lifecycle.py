"""Request lifecycle for the estimation service.

:class:`EstimationService` owns everything between "a validated
request arrived" and "a status + JSON payload is ready":

- **admission control** — a bounded queue; when it is full the request
  is shed immediately with :class:`~repro.errors.ServiceOverloaded`
  (HTTP 429 + ``Retry-After``) instead of letting latency grow without
  bound, and an open circuit breaker sheds before the queue is even
  consulted.
- **deadlines** — every request carries an absolute deadline (client
  ``deadline_s`` capped by the server default).  Requests that expire
  while queued are answered 504 without evaluating.  A group evaluates
  on the dispatcher thread and checks its deadline between specs, so
  an overrun stops before the next spec, answers 504 and counts as one
  breaker failure.  The handler's wait is deadline-bounded on its own,
  so the *request* never waits past its deadline; a hung injected
  evaluator, though, blocks the dispatcher until it returns, and the
  full queue then sheds 429.
- **coalescing** — each dispatch drains up to :data:`MAX_BATCH` queued
  requests and groups them by :meth:`EstimateRequest.group_key`; a
  group shares one template + compiled-sweep build, and each distinct
  mapping in it evaluates once on the scalar term tables.
- **graceful degradation** — evaluation failures feed the
  :class:`~repro.serve.breaker.CircuitBreaker`, which steps the
  :class:`~repro.serve.breaker.DegradationLadder` down
  ``compiled → per_layer`` and probes its way back up.
- **drain** — :meth:`reject_new` flips the service into draining mode
  (new submissions get a structured 503) while queued and in-flight
  requests complete; :meth:`stop` then joins the dispatcher.

The evaluation callable is injectable so the fault-injection suite can
simulate hangs, crashes and slow backends without touching the model.
"""

from __future__ import annotations

import itertools
import logging
import os
import queue
import secrets
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.model import AMPeD
from repro.errors import (
    DeadlineExceeded,
    MappingError,
    ReproError,
    ServiceOverloaded,
)
from repro.hardware.catalog import ACCELERATORS
from repro.hardware.interconnect import IB_EDR, IB_HDR, IB_NDR, NVLINK3
from repro.hardware.node import NodeSpec
from repro.hardware.system import SystemSpec
from repro.obs.metrics import get_metrics
from repro.obs.trace import span
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.parallelism.spec import spec_from_totals
from repro.search.compiler import compile_sweep, compiled_cache_stats
from repro.search.dse import evaluate_candidate
from repro.serve.breaker import CircuitBreaker, DegradationLadder
from repro.serve.validation import EstimateRequest, error_body
from repro.transformer.zoo import get_model

_LOG = logging.getLogger("repro.serve")

_INTER_LINKS = {"edr": IB_EDR, "hdr": IB_HDR, "ndr": IB_NDR}

#: Dispatcher shutdown sentinel.
_STOP = object()

#: Requests one dispatch drains, so a group holds at most this many
#: distinct mappings.  Up to 16 the scalar term tables evaluate a group
#: faster than one NumPy array pass would (that pass pays a fixed cost
#: of ~40 small array operations), so groups never use the arrays.
MAX_BATCH = 16

#: Monotonic per-process sequence folded into trace ids.
_TRACE_SEQUENCE = itertools.count(1)


def new_trace_id() -> str:
    """A unique request correlation id.

    Stamped on the access log line, the ``serve.evaluate`` span and the
    response, so one grep ties a daemon log entry to the matching span
    in an exported trace.  Process-unique by construction (pid +
    monotonic sequence) with a random suffix so ids stay distinct
    across daemon restarts that reuse a pid.
    """
    return (f"{os.getpid():08x}-{next(_TRACE_SEQUENCE):06x}-"
            f"{secrets.token_hex(4)}")

#: One response: HTTP status + JSON-serializable payload.
Response = Tuple[int, Dict[str, Any]]


#: Guards :meth:`PendingRequest.expire` (handlers and the dispatcher).
_EXPIRY_LOCK = threading.Lock()


class PendingRequest:
    """One admitted request awaiting its response.

    The HTTP handler waits on :attr:`done` (bounded by the request
    deadline) and reads :attr:`status` / :attr:`payload` once set.  If
    the handler gives up first it flips :attr:`abandoned` so the
    dispatcher can skip the evaluation entirely when the request is
    still queued.
    """

    def __init__(self, request: EstimateRequest, deadline: float,
                 enqueued_at: float, trace_id: str = "") -> None:
        self.request = request
        self.deadline = deadline
        self.enqueued_at = enqueued_at
        self.trace_id = trace_id or new_trace_id()
        self.done = threading.Event()
        self.status = 0
        self.payload: Dict[str, Any] = {}
        self.abandoned = False

    def expire(self) -> None:
        """Flag the request abandoned by its deadline.  The first flag
        counts one ``serve.deadline_hits``: the handler's bounded wait
        and the dispatcher can both see the same expiry."""
        with _EXPIRY_LOCK:
            first, self.abandoned = not self.abandoned, True
        if first:
            get_metrics().counter("serve.deadline_hits").inc()

    def resolve(self, status: int, payload: Dict[str, Any]) -> None:
        # The Event.set() below is the publication point: the handler
        # only reads status/payload after done.wait() returns, so the
        # Event provides the happens-before edge a lock would.
        self.status = status    # amplint: disable=AMP204 — published by done.set()
        self.payload = payload  # amplint: disable=AMP204 — published by done.set()
        self.done.set()


def system_for(request: EstimateRequest) -> SystemSpec:
    """The :class:`SystemSpec` a request describes (mirrors the CLI's
    ``--nodes/--accel-per-node/--nics/--inter`` construction)."""
    node = NodeSpec(
        accelerator=ACCELERATORS[request.accelerator],
        n_accelerators=request.accel_per_node,
        intra_link=NVLINK3,
        inter_link=_INTER_LINKS[request.inter],
        n_nics=request.nics,
    )
    return SystemSpec(node=node, n_nodes=request.nodes)


class EstimationService:
    """Admission queue + dispatcher + hardened evaluation pipeline."""

    def __init__(self, queue_limit: int = 64,
                 default_deadline_s: float = 10.0,
                 breaker: Optional[CircuitBreaker] = None,
                 ladder: Optional[DegradationLadder] = None,
                 efficiency: Optional[object] = None,
                 evaluate: Optional[
                     Callable[[EstimateRequest], Response]] = None,
                 drain_timeout_s: float = 10.0,
                 clock: Callable[[], float] = time.monotonic,
                 prewarm: bool = False) -> None:
        self.queue_limit = queue_limit
        self.default_deadline_s = default_deadline_s
        if breaker is not None:
            self.breaker = breaker
            self.ladder = breaker.ladder
        else:
            self.ladder = ladder if ladder is not None \
                else DegradationLadder()
            self.breaker = CircuitBreaker(ladder=self.ladder)
        self.efficiency = efficiency if efficiency is not None \
            else CASE_STUDY_EFFICIENCY
        self.drain_timeout_s = drain_timeout_s
        self.prewarm = prewarm
        self._evaluate = evaluate
        self._clock = clock
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_limit)
        self._thread: Optional[threading.Thread] = None
        # Guards the _warmed flag: written by the dispatcher thread and
        # by warm() on the main thread, read by status() from handlers.
        self._state_lock = threading.Lock()
        self._draining = False
        self._warmed = False
        #: Group keys whose neighbourhood was already scheduled, so a
        #: traffic burst on one system schedules its neighbours once.
        self._prewarmed_groups: set = set()

    # -- admission ----------------------------------------------------

    def submit(self, request: EstimateRequest,
               trace_id: str = "") -> PendingRequest:
        """Admit one request, or shed it with
        :class:`~repro.errors.ServiceOverloaded`.

        ``trace_id`` correlates the admitted request across the access
        log and the ``serve.evaluate`` span; one is generated when the
        caller does not provide it.
        """
        metrics = get_metrics()
        metrics.counter("serve.requests").inc()
        if self._draining:
            raise ServiceOverloaded(
                "service is draining; not accepting new requests",
                retry_after_s=self.drain_timeout_s, code="draining")
        wait = self.breaker.admit()
        if wait is not None:
            metrics.counter("serve.shed").inc()
            raise ServiceOverloaded(
                f"evaluation circuit breaker is open; "
                f"retry in {wait:.1f}s",
                retry_after_s=wait, code="breaker_open")
        now = self._clock()
        deadline_s = request.deadline_s \
            if request.deadline_s is not None else self.default_deadline_s
        pending = PendingRequest(request, deadline=now + deadline_s,
                                 enqueued_at=now, trace_id=trace_id)
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            metrics.counter("serve.shed").inc()
            raise ServiceOverloaded(
                f"admission queue is full "
                f"({self.queue_limit} requests pending)",
                retry_after_s=1.0, code="queue_full") from None
        metrics.gauge("serve.queue_depth").set(
            float(self._queue.qsize()))
        return pending

    # -- dispatcher ---------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="serve-dispatch", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            stopping = item is _STOP
            batch: List[PendingRequest] = [] if stopping else [item]
            while len(batch) < MAX_BATCH and not stopping:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    stopping = True
                    break
                batch.append(extra)
            get_metrics().gauge("serve.queue_depth").set(
                float(self._queue.qsize()))
            if batch:
                try:
                    self.process_batch(batch)
                except Exception:  # noqa: BLE001 — supervised boundary: the dispatcher must never die
                    _LOG.exception("dispatcher batch failed")
                    for pending in batch:
                        if not pending.done.is_set():
                            self._respond(pending, 500, error_body(
                                "internal_error",
                                "unexpected dispatcher failure"))
            if stopping:
                return

    def process_batch(self, batch: List[PendingRequest]) -> None:
        """Answer one drained batch: expire, coalesce, evaluate.

        Public so tests can drive the pipeline deterministically
        without the dispatcher thread.
        """
        metrics = get_metrics()
        now = self._clock()
        live: List[PendingRequest] = []
        for pending in batch:
            if pending.abandoned or now >= pending.deadline:
                metrics.counter("serve.cancelled").inc()
                pending.expire()
                self._respond(pending, 504, error_body(
                    "deadline_exceeded",
                    "request expired before evaluation started"))
            else:
                live.append(pending)
        groups: Dict[tuple, List[PendingRequest]] = {}
        for pending in live:
            groups.setdefault(pending.request.group_key(),
                              []).append(pending)
        for group in groups.values():
            if len(group) > 1:
                metrics.counter("serve.coalesced").inc(len(group) - 1)
            self._evaluate_group(group)

    def _evaluate_group(self, group: List[PendingRequest]) -> None:
        metrics = get_metrics()
        deadline = min(p.deadline for p in group)
        rung = self.ladder.current
        try:
            with span("serve.evaluate", category="serve",
                      attrs={"group": len(group), "rung": rung,
                             "trace_ids": ",".join(
                                 p.trace_id for p in group)}):
                results = self._group_results(group, deadline)
        except DeadlineExceeded as error:
            self.breaker.record_failure(error)
            for pending in group:
                pending.expire()
                self._respond(pending, 504, error_body(
                    "deadline_exceeded", str(error)))
        except ReproError as error:
            # A structured domain rejection (bad mapping, capacity...)
            # is the client's problem, not backend ill-health.
            for pending in group:
                self._respond(pending, 422, error_body(
                    "evaluation_rejected", str(error)))
        except Exception as error:  # noqa: BLE001 — supervised boundary: crash becomes a 500 + breaker failure
            metrics.counter("serve.worker_errors").inc()
            self.breaker.record_failure(error)
            _LOG.exception("evaluation failed for group of %d",
                           len(group))
            for pending in group:
                self._respond(pending, 500, error_body(
                    "evaluation_failed",
                    f"evaluation failed: {error!r}"))
        else:
            self.breaker.record_success()
            with self._state_lock:
                self._warmed = True
            for pending, (status, payload) in zip(group, results):
                self._respond(pending, status, payload)
            self._schedule_prewarm(group[0].request)

    def _respond(self, pending: PendingRequest, status: int,
                 payload: Dict[str, Any]) -> None:
        metrics = get_metrics()
        metrics.histogram("serve.request_seconds").observe(
            max(0.0, self._clock() - pending.enqueued_at))
        metrics.counter(f"serve.responses.{status // 100}xx").inc()
        pending.resolve(status, payload)

    # -- evaluation ---------------------------------------------------

    def _check_deadline(self, deadline: float) -> None:
        now = self._clock()
        if now >= deadline:
            raise DeadlineExceeded(
                f"evaluation overran its deadline by "
                f"{now - deadline:.3f}s")

    def _group_results(self, group: List[PendingRequest],
                       deadline: float) -> List[Response]:
        """One response per request; requests in a group share the
        model, system and global batch by construction.

        The clock is read before each distinct spec (each request, for
        an injected evaluator) and once after the last; past
        ``deadline`` the group stops with
        :class:`~repro.errors.DeadlineExceeded`.
        """
        if self._evaluate is not None:
            results = []
            for pending in group:
                self._check_deadline(deadline)
                results.append(self._evaluate(pending.request))
            self._check_deadline(deadline)
            return results

        first = group[0].request
        path = self.ladder.current
        system = system_for(first)
        model = get_model(first.model)
        template = AMPeD.for_mapping(
            model, system, dp=system.n_accelerators,
            efficiency=self.efficiency, evaluation_path=path)
        global_batch = first.batch

        responses: List[Optional[Response]] = [None] * len(group)
        unique_specs: List[Any] = []
        spec_position: Dict[Any, int] = {}
        lanes: List[Tuple[int, int]] = []  # (group index, spec lane)
        for index, pending in enumerate(group):
            req = pending.request
            try:
                spec = spec_from_totals(
                    system, tp=req.tp, pp=req.pp, dp=req.dp,
                    n_microbatches=req.microbatches)
                # Checked per request: a mapping the model cannot honor
                # would otherwise fail the whole group's evaluation.
                spec.validate_against_model(model.n_layers, model.n_heads)
            except MappingError as error:
                responses[index] = (422, error_body(
                    "mapping_infeasible", str(error)))
                continue
            # Identical mappings in one group evaluate exactly once:
            # a burst of the same estimate costs one evaluation.
            lane = spec_position.setdefault(spec, len(unique_specs))
            if lane == len(unique_specs):
                unique_specs.append(spec)
            lanes.append((index, lane))

        outcomes = []
        for spec in unique_specs:
            self._check_deadline(deadline)
            outcomes.append(evaluate_candidate(
                template, spec, global_batch, tune_microbatches=False))
        self._check_deadline(deadline)
        for index, lane in lanes:
            responses[index] = self._response_for(
                group[index].request, template, system,
                outcomes[lane], path)
        return [response if response is not None
                else (500, error_body("internal_error",
                                      "request fell through evaluation"))
                for response in responses]

    def _response_for(self, request: EstimateRequest, template: AMPeD,
                      system: SystemSpec, outcome, path: str
                      ) -> Response:
        if not outcome.evaluated:
            return (422, error_body(
                outcome.skip_category or "infeasible",
                outcome.detail or "candidate mapping was skipped"))
        result = outcome.result
        payload: Dict[str, Any] = {
            "model": request.model,
            "system": system.describe(),
            "mapping": result.parallelism.describe(),
            "global_batch": request.batch,
            "batch_time_s": result.batch_time_s,
            "breakdown": result.breakdown.as_dict(),
            "microbatch_size": result.microbatch_size,
            "microbatch_efficiency": result.microbatch_efficiency,
            "evaluation_path": path,
        }
        if request.tokens is not None:
            bound = replace(template, parallelism=result.parallelism)
            estimate = bound.estimate(request.batch,
                                      total_tokens=request.tokens)
            payload["training_days"] = estimate.total_time_days
            payload["n_batches"] = estimate.n_batches
        return (200, payload)

    # -- neighbourhood pre-warm ---------------------------------------

    def _schedule_prewarm(self, request: EstimateRequest) -> None:
        """Register neighbouring system sizes in the compile cache in
        the background.

        Sweep traffic tends to walk the node-count axis (scaling
        studies double or halve the fleet), so after the first
        successful evaluation of a group this calls
        :func:`~repro.search.compiler.compile_sweep` for ``nodes*2``
        and ``nodes//2``.  That builds and caches each neighbour's
        :class:`~repro.search.compiler.CompiledSweep` with *empty* term
        tables: the constructor fills none, so the next request for
        that size is a compile-cache hit but still fills its tables on
        first evaluation.  Scheduled at most once per group key;
        counted on the ``serve.prewarm.*`` counters; errors never
        surface to request handling.
        """
        if not self.prewarm or self._evaluate is not None:
            return
        key = request.group_key()
        with self._state_lock:
            if key in self._prewarmed_groups:
                return
            self._prewarmed_groups.add(key)
        neighbours = sorted({request.nodes * 2,
                             max(1, request.nodes // 2)}
                            - {request.nodes})
        if not neighbours:
            return
        get_metrics().counter("serve.prewarm.scheduled").inc(
            len(neighbours))
        threading.Thread(
            target=self._prewarm_neighbours,
            args=(request, neighbours),
            name="serve-prewarm", daemon=True).start()

    def _prewarm_neighbours(self, request: EstimateRequest,
                            neighbours: List[int]) -> None:
        metrics = get_metrics()
        for nodes in neighbours:
            try:
                neighbour = replace(request, nodes=nodes)
                system = system_for(neighbour)
                model = get_model(neighbour.model)
                template = AMPeD.for_mapping(
                    model, system, dp=system.n_accelerators,
                    efficiency=self.efficiency,
                    evaluation_path=self.ladder.current)
                compile_sweep(template, neighbour.batch)
                metrics.counter("serve.prewarm.built").inc()
            except Exception:  # noqa: BLE001 — best-effort cache warming must never disturb serving
                metrics.counter("serve.prewarm.errors").inc()
                _LOG.debug("prewarm failed for %d nodes", nodes,
                           exc_info=True)

    # -- warmup / drain / status -------------------------------------

    def warm(self, request: EstimateRequest) -> None:
        """Evaluate ``request`` synchronously so its template and
        compiled tables are cached before traffic arrives."""
        now = self._clock()
        pending = PendingRequest(request, deadline=now + 300.0,
                                 enqueued_at=now)
        status, __ = self._group_results([pending], pending.deadline)[0]
        if status == 200:
            with self._state_lock:
                self._warmed = True

    def reject_new(self) -> None:
        """Enter draining mode: new submissions get a structured 503;
        queued and in-flight requests keep completing."""
        self._draining = True

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Drain the queue and join the dispatcher; True on a clean
        join within ``timeout`` (default ``drain_timeout_s``)."""
        self._draining = True
        if self._thread is None:
            return True
        self._queue.put(_STOP)
        self._thread.join(timeout if timeout is not None
                          else self.drain_timeout_s)
        alive = self._thread.is_alive()
        if alive:
            _LOG.warning("dispatcher did not drain within timeout")
        return not alive

    @property
    def draining(self) -> bool:
        return self._draining

    def status(self) -> Dict[str, Any]:
        """Readiness summary for ``/readyz``."""
        cache_warm = (self._warmed
                      or compiled_cache_stats()["cached_sweeps"] > 0)
        breaker = self.breaker.describe()
        ready = (not self._draining and breaker["state"] != "open"
                 and cache_warm)
        return {
            "ready": ready,
            "draining": self._draining,
            "cache_warm": cache_warm,
            "breaker": breaker,
            "evaluation_path": self.ladder.evaluation_path,
            "queue_depth": self._queue.qsize(),
        }
