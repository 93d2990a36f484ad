"""Design-space exploration over parallelism mappings.

Case Study I's workflow: enumerate every legal (intra, inter)
parallelism factorization of a system, evaluate AMPeD for each, and
rank.  The explorer optionally tunes the microbatch count per mapping
and filters mappings whose footprint exceeds accelerator memory.

Two performance levers keep large spaces interactive (see
``docs/performance.md``):

- **The sweep compiler** (``evaluation_path="compiled"``, the default):
  Eq. 1 is factored into per-term lookup tables shared across the whole
  sweep (:mod:`repro.search.compiler`); evaluating a candidate becomes
  key projection + table lookups + additions.  With NumPy installed
  the same tables run as one array program over each candidate chunk
  (:mod:`repro.search.vectorized`), in this process; without it, as a
  pure-python walk.  The per-layer loop
  (``evaluation_path="per_layer"``) stays as the reference.
- **Branch-and-bound pruning** (``prune=True``): an admissible
  compute + communication lower bound — the compiled term tables
  evaluated at the best achievable microbatch efficiency, with the
  bubble term dropped — is compared against the incumbent ``k``-th
  best batch time (``k = max_results``); mappings whose bound already
  exceeds it cannot enter the top-``k`` and are skipped without a full
  evaluation.  The returned (truncated) ranking is provably identical
  to the unpruned one, and pruning is a no-op when ``max_results`` is
  ``None``.

Every sweep runs in one process: a worker pool lost to in-process
evaluation at every size measured (``docs/performance.md``).
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, List, Optional

from repro.core.breakdown import TrainingTimeBreakdown
from repro.core.compute import (
    backward_compute_time,
    forward_compute_time,
    weight_update_time,
)
from repro.core.model import AMPeD
from repro.core.operations import build_operations
from repro.errors import (
    ConfigurationError,
    MappingError,
    MemoryCapacityError,
    require_finite_fields,
)
from repro.memory.constraints import fits_in_memory
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer, span
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.microbatch import microbatch_size
from repro.parallelism.spec import ParallelismSpec
from repro.search.compiler import CompiledSweep, compile_sweep
from repro.search.tuning import microbatch_candidates, optimize_microbatches
from repro.search.vectorized import (
    DEFAULT_CHUNK_CANDIDATES,
    evaluate_chunk,
    require_numpy,
    resolve_evaluation_path,
)


#: Skip-category vocabulary shared by the explorer, the resilient sweep
#: runtime and its journal (``docs/robustness.md`` documents each).
SKIP_MAPPING_INFEASIBLE = "mapping_infeasible"
SKIP_MEMORY_CAPACITY = "memory_capacity"
SKIP_NON_FINITE = "non_finite_result"
SKIP_PRUNED = "pruned"
SKIP_WORKER_ERROR = "worker_error"

SKIP_CATEGORIES = (
    SKIP_MAPPING_INFEASIBLE,
    SKIP_MEMORY_CAPACITY,
    SKIP_NON_FINITE,
    SKIP_PRUNED,
    SKIP_WORKER_ERROR,
)


@dataclass(frozen=True)
class ExplorationResult:
    """One evaluated point of the design space."""

    parallelism: ParallelismSpec
    global_batch: int
    batch_time_s: float
    breakdown: TrainingTimeBreakdown
    microbatch_size: float
    microbatch_efficiency: float


    def __post_init__(self) -> None:
        require_finite_fields(self)

    @property
    def label(self) -> str:
        """Compact mapping descriptor for tables."""
        return self.parallelism.describe()


@dataclass(frozen=True)
class CandidateOutcome:
    """The categorized outcome of evaluating one candidate mapping.

    Exactly one of two shapes: ``result`` set and ``skip_category``
    ``None`` (evaluated), or ``result`` ``None`` and ``skip_category``
    naming *why* the candidate was discarded — the truthful record the
    sweep journal persists.
    """

    spec: ParallelismSpec
    result: Optional[ExplorationResult] = None
    skip_category: Optional[str] = None
    detail: str = ""

    @property
    def evaluated(self) -> bool:
        return self.result is not None


def explore(amped: AMPeD, global_batch: int,
            mappings: Optional[List[ParallelismSpec]] = None,
            tune_microbatches: bool = True,
            enforce_memory: bool = False,
            max_results: Optional[int] = None,
            prune: bool = True,
            evaluation_path: str = "compiled") -> List[ExplorationResult]:
    """Evaluate every mapping and return results sorted fastest-first.

    Parameters
    ----------
    amped:
        Template scenario; its parallelism field is replaced per mapping.
    global_batch:
        Batch size to evaluate at.
    mappings:
        Explicit mapping list, or every legal factorization by default.
    tune_microbatches:
        Re-tune ``N_ub`` per mapping (the paper's practice).
    enforce_memory:
        Drop mappings whose footprint exceeds the accelerator memory.
    max_results:
        Truncate the (sorted) result list; must be ``>= 1`` when given
        (:class:`~repro.errors.ConfigurationError` otherwise).
    prune:
        Skip mappings whose compute + communication lower bound (from
        the sweep compiler's term tables) exceeds the incumbent
        ``max_results``-th best time.  Exact: the truncated ranking is
        identical to the unpruned one.  No-op without ``max_results``.
    evaluation_path:
        How each candidate evaluates Eq. 1 — overrides the template's
        own setting.  ``"compiled"`` (default) reads the sweep
        compiler's term tables: whenever NumPy imports it runs as the
        ``"vectorized"`` array program over the whole candidate batch,
        otherwise as the pure-python scalar walk (see
        :func:`repro.search.vectorized.resolve_evaluation_path`).
        ``enforce_memory=True`` keeps the scalar walk, since the memory
        screen needs per-candidate scenarios.  ``"per_layer"`` keeps
        the uncompiled reference walk.  All paths agree within
        floating-point associativity (compiled and vectorized bit for
        bit) and produce identical skip categories and rankings.
    """
    validate_max_results(max_results)
    if mappings is None:
        mappings = enumerate_mappings(amped.system, amped.model)
    if not enforce_memory:
        evaluation_path = resolve_evaluation_path(evaluation_path,
                                                  len(mappings))
    elif evaluation_path == "vectorized":
        # The memory screen needs per-candidate scenario objects the
        # array path never builds; validate the request, then let the
        # scalar compiled-equivalent route below handle it.
        require_numpy()
    if evaluation_path != amped.evaluation_path:
        amped = replace(amped, evaluation_path=evaluation_path)
    # One compiled-sweep instance backs candidate evaluation (compiled
    # and vectorized paths) and the pruner's lower bound (every path,
    # so skip counters are path-independent).
    compiled = None
    if prune or amped.evaluation_path != "per_layer":
        compiled = compile_sweep(amped, global_batch)
    evaluate = partial(_evaluate_spec, amped, global_batch=global_batch,
                       tune_microbatches=tune_microbatches,
                       enforce_memory=enforce_memory)
    pruner = None
    if prune:
        pruner = _BoundPruner(amped, tune_microbatches, max_results,
                              compiled)
    with span("dse.explore", category="search") as live:
        if (amped.evaluation_path == "vectorized"
                and not enforce_memory):
            # Array-program route: pruning is exact (the pruned ranking
            # equals the unpruned one by construction), so evaluating
            # every candidate vectorized and truncating afterwards
            # returns the identical result list.
            results = _explore_vectorized(amped, compiled, global_batch,
                                          mappings, tune_microbatches,
                                          max_results)
        else:
            evaluated = _explore_serial(evaluate, mappings, pruner)
            results = [result for result in evaluated
                       if result is not None]
            results.sort(key=lambda result: result.batch_time_s)
            if max_results is not None:
                results = results[:max_results]
        live.set_attrs(n_mappings=len(mappings),
                       n_results=len(results),
                       global_batch=global_batch)
        return results


def validate_max_results(max_results: Optional[int]) -> None:
    """Raise :class:`ConfigurationError` unless ``max_results`` is
    ``None`` or a positive count: a ranking truncated to nothing has no
    incumbent for the pruner to compare against."""
    if max_results is not None and max_results < 1:
        raise ConfigurationError(
            f"max_results must be at least 1, got {max_results}")


def evaluate_candidate(template: AMPeD, spec: ParallelismSpec,
                       global_batch: int, tune_microbatches: bool = True,
                       enforce_memory: bool = False) -> CandidateOutcome:
    """Fully evaluate one mapping, categorizing any infeasibility.

    Never raises a :class:`~repro.errors.ReproError`: infeasible
    mappings come back as skipped outcomes whose category says why
    (mapping constraints vs memory capacity vs a non-finite batch time),
    which is what the sweep journal records.  Genuine programming errors
    still propagate.

    Compiled templates take a fast route through the sweep compiler's
    term tables that never constructs a per-candidate :class:`AMPeD`;
    it replicates this function's validation order, skip categories and
    detail strings exactly.  While tracing is enabled the generic route
    runs instead, so compiled sweeps emit the same per-estimate spans.
    """
    if (template.evaluation_path in ("compiled", "vectorized")
            and not get_tracer().enabled):
        # A single candidate has no batch to vectorize, so
        # "vectorized" shares the scalar term-table route here; the
        # array backend engages on whole chunks in explore/run_sweep.
        return _evaluate_candidate_compiled(
            template, spec, global_batch, tune_microbatches,
            enforce_memory)
    candidate = replace(template, parallelism=spec)
    needs_memory_check = enforce_memory
    try:
        if tune_microbatches:
            candidates = None
            if enforce_memory:
                candidates = _memory_feasible_candidates(
                    candidate, global_batch)
                if not candidates:
                    return CandidateOutcome(
                        spec=spec, skip_category=SKIP_MEMORY_CAPACITY,
                        detail="no microbatch count fits in memory")
                # Every candidate already passed fits_in_memory, and the
                # tuned spec is one of them — no re-check needed.
                needs_memory_check = False
            candidate, _ = optimize_microbatches(
                candidate, global_batch, candidates=candidates)
        microbatch = candidate.microbatch(global_batch)
        if needs_memory_check and not fits_in_memory(
                candidate.model, candidate.parallelism, microbatch,
                candidate.precision, candidate.system.accelerator,
                candidate.zero):
            return CandidateOutcome(
                spec=spec, skip_category=SKIP_MEMORY_CAPACITY,
                detail=f"microbatch {microbatch:g} does not fit in HBM")
        breakdown = candidate.estimate_batch(global_batch)
    except MemoryCapacityError as error:
        return CandidateOutcome(spec=spec,
                                skip_category=SKIP_MEMORY_CAPACITY,
                                detail=str(error))
    except MappingError as error:
        return CandidateOutcome(spec=spec,
                                skip_category=SKIP_MAPPING_INFEASIBLE,
                                detail=str(error))
    if not math.isfinite(breakdown.total):
        return CandidateOutcome(
            spec=spec, skip_category=SKIP_NON_FINITE,
            detail=f"batch time is {breakdown.total!r}")
    return CandidateOutcome(spec=spec, result=ExplorationResult(
        parallelism=candidate.parallelism,
        global_batch=global_batch,
        batch_time_s=breakdown.total,
        breakdown=breakdown,
        microbatch_size=microbatch,
        microbatch_efficiency=candidate.microbatch_efficiency(global_batch),
    ))


def _evaluate_candidate_compiled(template: AMPeD, spec: ParallelismSpec,
                                 global_batch: int,
                                 tune_microbatches: bool,
                                 enforce_memory: bool
                                 ) -> CandidateOutcome:
    """:func:`evaluate_candidate`'s fast route for compiled templates.

    Candidate evaluation through the sweep compiler's term tables: no
    per-candidate :class:`AMPeD` construction, no re-walk of Eq. 1.
    Mirrors the generic route statement for statement — the same spec
    validation outside the ``try`` (so a mapping that cannot tile the
    system raises, exactly like ``replace(template, parallelism=spec)``
    does there), the same skip categories and detail strings, and
    bit-identical batch times.
    """
    compiled = compile_sweep(template, global_batch)
    if template.validate:
        spec.validate_against(template.system)
        spec.validate_against_model(template.model.n_layers,
                                    template.model.n_heads)
    needs_memory_check = enforce_memory
    tuned = spec
    try:
        if tune_microbatches:
            candidates = None
            if enforce_memory:
                # The memory screen is the one stage that still needs a
                # full candidate (fits_in_memory reads the scenario);
                # enforce_memory sweeps pay one construction here.
                candidates = _memory_feasible_candidates(
                    replace(template, parallelism=spec), global_batch)
                if not candidates:
                    return CandidateOutcome(
                        spec=spec, skip_category=SKIP_MEMORY_CAPACITY,
                        detail="no microbatch count fits in memory")
                needs_memory_check = False
            tuned, _ = compiled.best_microbatch(spec, candidates)
        microbatch = microbatch_size(global_batch, tuned)
        if needs_memory_check and not fits_in_memory(
                template.model, tuned, microbatch,
                template.precision, template.system.accelerator,
                template.zero):
            return CandidateOutcome(
                spec=spec, skip_category=SKIP_MEMORY_CAPACITY,
                detail=f"microbatch {microbatch:g} does not fit in HBM")
        breakdown = compiled.breakdown(tuned)
    except MemoryCapacityError as error:
        return CandidateOutcome(spec=spec,
                                skip_category=SKIP_MEMORY_CAPACITY,
                                detail=str(error))
    except MappingError as error:
        return CandidateOutcome(spec=spec,
                                skip_category=SKIP_MAPPING_INFEASIBLE,
                                detail=str(error))
    if not math.isfinite(breakdown.total):
        return CandidateOutcome(
            spec=spec, skip_category=SKIP_NON_FINITE,
            detail=f"batch time is {breakdown.total!r}")
    return CandidateOutcome(spec=spec, result=ExplorationResult(
        parallelism=tuned,
        global_batch=global_batch,
        batch_time_s=breakdown.total,
        breakdown=breakdown,
        microbatch_size=microbatch,
        microbatch_efficiency=compiled.efficiency(microbatch),
    ))


def _evaluate_spec(template: AMPeD, spec: ParallelismSpec,
                   global_batch: int, tune_microbatches: bool,
                   enforce_memory: bool) -> Optional[ExplorationResult]:
    """Fully evaluate one mapping; ``None`` when it is infeasible."""
    return evaluate_candidate(template, spec, global_batch,
                              tune_microbatches, enforce_memory).result


def _explore_serial(evaluate: Callable, mappings: List[ParallelismSpec],
                    pruner: Optional["_BoundPruner"]) -> List:
    out = []
    for spec in mappings:
        if pruner is not None and pruner.should_skip(spec):
            continue
        result = evaluate(spec)
        if pruner is not None:
            pruner.record(result)
        out.append(result)
    return out


def _explore_vectorized(template: AMPeD,
                        compiled: CompiledSweep,
                        global_batch: int,
                        mappings: List[ParallelismSpec],
                        tune_microbatches: bool,
                        max_results: Optional[int]
                        ) -> List[ExplorationResult]:
    """:func:`explore`'s array-program route.

    Candidates are evaluated chunk-wise through
    :func:`repro.search.vectorized.evaluate_chunk`; candidates the
    array path cannot decide exactly (infeasible / non-finite /
    invalid) re-run through the scalar route, so results, errors and
    their ordering match the serial compiled path exactly.  Pruning is
    unnecessary: its only effect is skipping evaluations without
    changing the truncated ranking, and the array evaluation already
    covers everything.
    """
    results: List[ExplorationResult] = []
    chunk_seconds = get_metrics().histogram("sweep.chunk_seconds")
    for start in range(0, len(mappings), DEFAULT_CHUNK_CANDIDATES):
        chunk = mappings[start:start + DEFAULT_CHUNK_CANDIDATES]
        chunk_started = time.perf_counter()
        with span("dse.vectorized_eval", category="search",
                  attrs={"offset": start, "n_candidates": len(chunk),
                         "tune_microbatches": tune_microbatches}) as live:
            _, outcomes = evaluate_chunk(template, compiled, chunk,
                                         global_batch, tune_microbatches)
            fallbacks = 0
            for spec, outcome in zip(chunk, outcomes):
                if outcome is None:
                    fallbacks += 1
                    outcome = evaluate_candidate(template, spec,
                                                 global_batch,
                                                 tune_microbatches)
                if outcome.result is not None:
                    results.append(outcome.result)
            live.set_attrs(scalar_fallbacks=fallbacks)
        chunk_seconds.observe(time.perf_counter() - chunk_started)
    results.sort(key=lambda result: result.batch_time_s)
    if max_results is not None:
        results = results[:max_results]
    return results


def compute_lower_bound(amped: AMPeD, global_batch: int,
                        tune_microbatches: bool = True) -> float:
    """A compute-only lower bound on the mapping's achievable batch time.

    Evaluates the layer classes' forward + backward + weight
    update time at the *best* microbatch efficiency any candidate
    ``N_ub`` can reach (efficiency only derates compute, so the true
    compute time at the tuned ``N_ub`` is at least this), and charges
    zero communication and bubble time.  Raises :class:`MappingError`
    when no candidate yields a feasible microbatch — historically this
    returned a bare ``math.inf``, which conflated "provably infeasible"
    with "bound unknown" and made sweep-journal skip categories lie.
    """
    spec = amped.parallelism
    if tune_microbatches:
        n_ubs: Iterable[int] = microbatch_candidates(amped, global_batch)
    else:
        n_ubs = (spec.microbatches,)
    best_eff = 0.0
    for n_ub in n_ubs:
        microbatch = global_batch / (spec.dp * n_ub)
        if microbatch >= 1:
            best_eff = max(best_eff, amped.efficiency(microbatch))
    if best_eff <= 0.0:
        raise MappingError(
            f"no feasible microbatch count for batch {global_batch} "
            f"under {spec.describe()}: every candidate N_ub dices the "
            f"batch below one sequence")
    operations = build_operations(amped.model, global_batch,
                                  amped.include_embeddings)
    accelerator = amped.system.accelerator
    total = 0.0
    for cls in operations.layer_classes:
        layer = cls.representative
        total += cls.multiplicity * (
            forward_compute_time(layer, accelerator, amped.precision,
                                 best_eff)
            + backward_compute_time(layer, accelerator, amped.precision,
                                    best_eff,
                                    amped.backward_compute_multiplier)
            + weight_update_time(layer, accelerator, amped.precision,
                                 best_eff,
                                 amped.optimizer_macs_per_parameter))
    return total / spec.world_size


class _BoundPruner:
    """Branch-and-bound state shared across one :func:`explore` call.

    Tracks the ``keep`` smallest batch times seen so far; a mapping is
    skipped when its lower bound strictly exceeds the incumbent
    ``keep``-th best, which proves it cannot appear in the final
    truncated ranking.  Without a ``keep`` (``max_results is None``)
    the threshold stays infinite and nothing is pruned.

    The bound is :meth:`~repro.search.compiler.CompiledSweep.lower_bound`
    over ``compiled`` — compute at the best reachable efficiency *plus*
    the mapping's exact communication terms, strictly tighter than the
    compute-only :func:`compute_lower_bound` whenever the mapping
    communicates at all, and used for every evaluation path so skip
    counters stay path-independent.
    """

    def __init__(self, template: AMPeD, tune_microbatches: bool,
                 keep: Optional[int], compiled: CompiledSweep) -> None:
        self.template = template
        self.tune_microbatches = tune_microbatches
        self.keep = keep
        self.compiled = compiled
        self._best_times: List[float] = []

    @property
    def threshold(self) -> Optional[float]:
        """The incumbent ``keep``-th best time, or ``None`` while the
        incumbent list is not full yet (distinct from an *infinite*
        bound, which would mean a provably infeasible candidate)."""
        if self.keep is None or len(self._best_times) < self.keep:
            return None
        return self._best_times[self.keep - 1]

    def skip_category(self, spec: ParallelismSpec) -> Optional[str]:
        """``SKIP_PRUNED``/``SKIP_MAPPING_INFEASIBLE`` when the mapping
        can be discarded without a full evaluation, else ``None``.

        Without an incumbent threshold no bound is computed (same work
        profile as plain exploration); infeasibility then surfaces
        through :func:`evaluate_candidate` with the same category.
        """
        threshold = self.threshold
        if threshold is None:
            return None
        template = self.template
        try:
            if template.validate:
                # replace(template, parallelism=spec) re-validates on
                # the generic route; keep the same category for
                # mappings that cannot tile the system.
                spec.validate_against(template.system)
                spec.validate_against_model(template.model.n_layers,
                                            template.model.n_heads)
            bound = self.compiled.lower_bound(spec,
                                              self.tune_microbatches)
        except MappingError:
            return SKIP_MAPPING_INFEASIBLE
        return SKIP_PRUNED if bound > threshold else None

    def should_skip(self, spec: ParallelismSpec) -> bool:
        return self.skip_category(spec) is not None

    def record(self, result: Optional[ExplorationResult]) -> None:
        if result is None:
            return
        bisect.insort(self._best_times, result.batch_time_s)
        if self.keep is not None:
            del self._best_times[self.keep:]


def _memory_feasible_candidates(candidate: AMPeD,
                                global_batch: int) -> list:
    """Microbatch counts whose resulting microbatch size fits in HBM."""
    feasible = []
    for n_ub in microbatch_candidates(candidate, global_batch):
        spec = candidate.parallelism.with_microbatches(n_ub)
        microbatch = global_batch / (spec.dp * n_ub)
        if microbatch < 1:
            continue
        if fits_in_memory(candidate.model, spec, microbatch,
                          candidate.precision,
                          candidate.system.accelerator, candidate.zero):
            feasible.append(n_ub)
    return feasible


def best_mapping(amped: AMPeD, global_batch: int,
                 **explore_kwargs) -> ExplorationResult:
    """The fastest mapping for the scenario (raises
    :class:`MappingError` if the space is empty)."""
    explore_kwargs.setdefault("max_results", 1)
    results = explore(amped, global_batch, **explore_kwargs)
    if not results:
        raise MappingError(
            f"no feasible parallelism mapping for {amped.model.name} on "
            f"{amped.system.describe()}")
    return results[0]


def pareto_front(results: List[ExplorationResult],
                 secondary=lambda result: result.breakdown.bubble
                 ) -> List[ExplorationResult]:
    """Mappings not dominated on (batch time, ``secondary``).

    Default secondary objective is bubble time (an energy proxy per
    Case Study II); any callable on :class:`ExplorationResult` works.
    """
    front = []
    for candidate in results:
        dominated = any(
            other.batch_time_s <= candidate.batch_time_s
            and secondary(other) <= secondary(candidate)
            and (other.batch_time_s < candidate.batch_time_s
                 or secondary(other) < secondary(candidate))
            for other in results)
        if not dominated:
            front.append(candidate)
    front.sort(key=lambda result: result.batch_time_s)
    return front
