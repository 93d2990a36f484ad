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
  key projection + table lookups + additions.  A sweep runs the same
  tables as one NumPy array program over each candidate chunk
  (:mod:`repro.search.vectorized`), in this process.  The per-layer loop
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

:func:`explore` is :func:`repro.search.resilience.run_sweep` without
a journal, so both run one chunk loop and rank alike; the memory
screen (``enforce_memory``) is one more lane mask of the array
program.  Every sweep runs in one process: a worker pool lost to
in-process evaluation at every size measured (``docs/performance.md``).

:func:`evaluate_candidate` evaluates one candidate at a time (a serve
request, a candidate the arrays leave to it) with one body for both
paths: the path picks only how ``N_ub`` is tuned and how the breakdown
is produced, and tracing records the evaluation without choosing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional

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
from repro.obs.trace import span
from repro.parallelism.microbatch import microbatch_size
from repro.parallelism.spec import ParallelismSpec
from repro.search.compiler import compile_sweep
from repro.search.tuning import (
    candidate_microbatch_counts,
    microbatch_candidates,
    optimize_microbatches,
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

#: Detail of the ``memory_capacity`` skip of a tuned candidate none of
#: whose microbatch counts passes the memory screen.
NO_MICROBATCH_FITS = "no microbatch count fits in memory"


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

    The ranking of :func:`repro.search.resilience.run_sweep` without a
    journal: a mapping that cannot be evaluated (one that cannot tile
    the system, runs out of memory, or comes out non-finite) is
    skipped, a candidate that fails with a non-``ReproError`` raises
    :class:`~repro.errors.WorkerError`, and a SIGINT stops the sweep
    at the next candidate with :class:`~repro.errors.SweepInterrupted`
    carrying the partial ranking.

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
        compiler's term tables, as one array program per candidate
        chunk (:func:`repro.search.vectorized.evaluate_chunk`).
        ``"per_layer"`` keeps the uncompiled reference walk.  Both
        paths agree within floating-point associativity (the arrays
        and the scalar tables bit for bit) and produce identical skip
        categories and rankings.
    """
    # resilience imports this module; import it when called.
    from repro.search.resilience import run_sweep

    with span("dse.explore", category="search") as live:
        outcome = run_sweep(amped, global_batch, mappings=mappings,
                            tune_microbatches=tune_microbatches,
                            enforce_memory=enforce_memory,
                            max_results=max_results, prune=prune,
                            strict=True, raise_on_interrupt=True,
                            evaluation_path=evaluation_path)
        live.set_attrs(n_mappings=outcome.report.n_candidates,
                       n_results=len(outcome.results),
                       global_batch=global_batch)
        return outcome.results


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

    Infeasible candidates come back as skipped outcomes whose category
    says why (mapping constraints vs memory capacity vs a non-finite
    batch time), which is what the sweep journal records.  The mapping
    itself is validated first, outside that categorization: with the
    template's ``validate`` on, a spec that cannot tile the system, or
    that the model cannot honor, raises
    :class:`~repro.errors.MappingError` (``run_sweep`` records it as a
    ``mapping_infeasible`` skip).  Genuine programming errors still
    propagate.

    The evaluation path picks only how ``N_ub`` is tuned and how the
    breakdown is produced: from the sweep compiler's term tables, with
    no per-candidate :class:`AMPeD` (``"compiled"``), or by
    :meth:`AMPeD.estimate_batch`'s per-layer walk, the Eq. 1 oracle.
    Both screen memory with
    :meth:`~repro.search.compiler.CompiledSweep.fits_for`.  A traced
    compiled call emits one ``model.estimate_batch`` event, for the
    breakdown it evaluates.
    """
    compiled = compile_sweep(template, global_batch)
    if template.validate:
        spec.validate_against(template.system)
        spec.validate_against_model(template.model.n_layers,
                                    template.model.n_heads)
    per_layer = template.evaluation_path == "per_layer"
    candidate = replace(template, parallelism=spec) if per_layer else None
    tuned, totals = spec, None
    try:
        if tune_microbatches:
            candidates = None
            if enforce_memory:
                candidates = [n_ub for n_ub in candidate_microbatch_counts(
                    spec, global_batch) if compiled.fits_for(spec, n_ub)]
                if not candidates:
                    return CandidateOutcome(
                        spec=spec, skip_category=SKIP_MEMORY_CAPACITY,
                        detail=NO_MICROBATCH_FITS)
            # The winner is one of the screened N_ub: no re-check below.
            if per_layer:
                candidate, _ = optimize_microbatches(
                    candidate, global_batch, candidates=candidates)
                tuned = candidate.parallelism
            else:
                tuned, _, totals = compiled.tune(spec, candidates)
        microbatch = microbatch_size(global_batch, tuned)
        if (enforce_memory and not tune_microbatches
                and not compiled.fits_for(tuned, tuned.microbatches)):
            return CandidateOutcome(
                spec=spec, skip_category=SKIP_MEMORY_CAPACITY,
                detail=f"microbatch {microbatch:g} does not fit in HBM")
        if per_layer:
            breakdown = candidate.estimate_batch(global_batch)
        else:
            breakdown = compiled.breakdown(tuned, totals)
            template.emit_estimate_trace(breakdown, tuned, global_batch)
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
