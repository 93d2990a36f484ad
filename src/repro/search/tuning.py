"""Per-mapping tuning knobs: the microbatch count.

The paper tunes the number of microbatches per batch to the machine
("we tune the microbatch size according to the available memory",
§V-C; the validation runs pick ``N_ub = N_PP``).  The choice trades
pipeline-bubble share ``(N_PP - 1)/N_ub`` (favoring many microbatches)
against microbatch efficiency ``eff(b_replica / N_ub)`` (favoring few),
so the optimum depends on the efficiency fit and the mapping.
:func:`select_microbatches` searches the trade-off exhaustively over
a geometric candidate grid, for :func:`optimize_microbatches` and
:meth:`~repro.search.compiler.CompiledSweep.tune` alike.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.core.model import AMPeD
from repro.errors import MappingError, MemoryCapacityError, ReproError
from repro.parallelism.spec import ParallelismSpec


def microbatch_candidates(amped: AMPeD, global_batch: int) -> List[int]:
    """Candidate ``N_ub`` values for ``amped``'s mapping (see
    :func:`candidate_microbatch_counts`)."""
    return candidate_microbatch_counts(amped.parallelism, global_batch)


def candidate_microbatch_counts(spec: ParallelismSpec,
                                global_batch: int) -> List[int]:
    """Candidate ``N_ub`` values: powers of two from the pipeline degree
    up to the per-replica batch (an ``N_ub`` below ``N_PP`` starves the
    pipeline; above the replica batch it dices sequences).

    Depends only on ``(dp, pp)`` of the mapping, which is why the sweep
    compiler can call it without constructing an AMPeD candidate — and
    why the grid memoizes on ``(replica_batch, lowest)``: a sweep calls
    this once per mapping, but distinct mappings collapse onto a
    handful of grids."""
    replica_batch = max(1, global_batch // spec.dp)
    lowest = max(1, spec.pp)
    return list(_candidate_grid(replica_batch, lowest))


@lru_cache(maxsize=1024)
def _candidate_grid(replica_batch: int, lowest: int) -> Tuple[int, ...]:
    candidates = []
    value = 1
    while value <= replica_batch:
        if value >= lowest:
            candidates.append(value)
        value *= 2
    if not candidates:
        candidates = [lowest]
    return tuple(candidates)


def optimize_microbatches(amped: AMPeD, global_batch: int,
                          candidates: Optional[Iterable[int]] = None
                          ) -> Tuple[AMPeD, float]:
    """Pick the ``N_ub`` minimizing ``amped``'s per-batch time
    (:func:`select_microbatches`); returns the re-tuned model and its
    per-batch time."""
    def estimate(spec: ParallelismSpec) -> Tuple[float, AMPeD]:
        tuned = replace(amped, parallelism=spec)
        return tuned.estimate_batch(global_batch).total, tuned

    _, batch_time, tuned = select_microbatches(
        amped.parallelism, global_batch, candidates, estimate)
    return tuned, batch_time


def select_microbatches(spec: ParallelismSpec, global_batch: int,
                        candidates: Optional[Iterable[int]],
                        evaluate: Callable[[ParallelismSpec],
                                           Tuple[float, Any]]
                        ) -> Tuple[ParallelismSpec, float, Any]:
    """The ``N_ub`` selection loop of every tuner: ``evaluate(tuned)``
    gives ``(batch time, payload)`` for ``spec`` at each count of
    ``candidates`` (default :func:`candidate_microbatch_counts`), and
    the fastest comes back as ``(tuned, batch time, payload)``, the
    earliest on ties.  Candidates that produce an infeasible microbatch
    (below one sequence), that blow the memory budget
    (:class:`MemoryCapacityError`), or whose batch time comes back
    non-finite are skipped; if every candidate fails, the last failure
    is re-raised with the same type and the failing ``N_ub`` named.
    """
    if candidates is None:
        candidates = candidate_microbatch_counts(spec, global_batch)
    best: Optional[Tuple[ParallelismSpec, float, Any]] = None
    last_error: Optional[ReproError] = None
    last_n_ub: Optional[int] = None
    for n_ub in candidates:
        tuned = spec.with_microbatches(n_ub)
        try:
            batch_time, payload = evaluate(tuned)
        except (MappingError, MemoryCapacityError) as error:
            last_error, last_n_ub = error, n_ub
            continue
        if not math.isfinite(batch_time):
            # A NaN would poison the < comparison below (every NaN
            # comparison is false) and silently win or lose at random;
            # treat non-finite estimates as infeasible candidates.
            last_error = MappingError(
                f"batch time is non-finite ({batch_time!r})")
            last_n_ub = n_ub
            continue
        if best is None or batch_time < best[1]:
            best = (tuned, batch_time, payload)
    if best is None:
        if last_error is None:
            raise MappingError(
                f"no feasible microbatch count for batch {global_batch} "
                f"under {spec.describe()}")
        raise _with_failing_n_ub(last_error, last_n_ub) from last_error
    return best


def _with_failing_n_ub(error: ReproError, n_ub: int) -> ReproError:
    """Rebuild ``error`` (same type) with the failing ``N_ub`` named,
    preserving :class:`MemoryCapacityError`'s size attributes."""
    message = f"{error} (failing N_ub={n_ub})"
    if isinstance(error, MemoryCapacityError):
        return MemoryCapacityError(
            message, required_bytes=error.required_bytes,
            available_bytes=error.available_bytes)
    return type(error)(message)
