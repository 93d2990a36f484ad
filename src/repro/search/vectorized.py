"""Vectorized batch evaluation: whole sweeps as array programs.

The sweep compiler (:mod:`repro.search.compiler`) made candidate
evaluation sublinear — key projection + dict lookups + scalar adds —
but still walks candidates one at a time in Python.  This module turns
that inner loop into NumPy array operations:

1. **Project**: the specs are read once into int64 columns, and each
   key of :data:`repro.collectives.keys.TERM_KEYS` becomes one int64
   code per candidate, a mixed-radix number over dense column ranks
   (small integers are ranked through a presence table, not a sort);
   one ranking over all keys' codes numbers each key's classes in
   first-seen order (``tests/search/test_vectorized.py`` pins the
   partitions against the taxonomy functions).
2. **Batch-fill**: each communication and bubble table evaluates the
   batch's *missing* distinct keys in one call of its
   :class:`~repro.search.compiler.CompiledSweep` term function, on the
   keys' columns — the function the scalar accessors call on floats —
   and writes them into the compiled sweep's own dict tables, so both
   backends read identical values; the topology's ``steps(n)`` and
   ``factor(n)`` run once per distinct participant count.  Efficiency
   and compute entries stay one scalar call per distinct key.  Every
   table is then packed into ``float64`` arrays.
3. **Gather + sum**: all candidates evaluate as column-wise gathers
   into those arrays, summed by
   :meth:`~repro.search.compiler.CompiledSweep.assemble` — the one
   Eq. 1 assembly, which the scalar combiner calls on floats.  IEEE-754
   elementwise array ops round identically to the scalar ops (NumPy
   performs no re-association and no FMA contraction for these
   expressions), so array batch times are **bit-exact** against the
   scalar term-table route (:func:`~repro.search.dse.evaluate_candidate`)
   and therefore ≤ 1e-9 relative against ``"per_layer"`` — the property
   suite enforces both.

The microbatch-tuning axis rides along as extra *lanes*: communication
terms are independent of ``N_ub``, so each candidate expands into one
lane per candidate microbatch count (the grid, computed once per
distinct ``(dp, pp)``) and ``best_microbatch`` becomes a segmented
``minimum.reduceat`` (first minimum wins, matching the scalar
strictly-smaller tie-break).  The pruner's lower bound is likewise one
segmented ``maximum.reduceat`` over efficiencies plus a no-bubble
evaluation.  A memory-enforced sweep adds one more lane mask: the
compiled sweep's memory screen, one
:func:`~repro.memory.constraints.fits_in_memory` call per distinct
``(tp, pp, dp, N_ub)``, restricts the lanes ``best_microbatch`` picks
from and leaves the lower bound alone.

Every ``"compiled"`` sweep runs on this backend: ``run_sweep`` (and
``explore``, which calls it) runs it in this process, chunk by chunk
through :func:`evaluate_chunk`.  A single estimate, and every serve
request, reads the scalar term tables instead.
See ``docs/performance.md`` for the key-index layout and the full
bit-exactness argument.
"""

from __future__ import annotations

import math
import threading
import time
from itertools import chain
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MappingError
from repro.obs.metrics import VECTORIZED_STATS
from repro.parallelism.microbatch import microbatch_size
from repro.parallelism.spec import ParallelismSpec
from repro.search.compiler import (
    COMPONENT_NAMES,
    CompiledSweep,
    topology_terms,
    total_of,
)
from repro.search.tuning import candidate_microbatch_counts

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the cycle
    from repro.core.model import AMPeD
    from repro.search.dse import CandidateOutcome

#: Candidates evaluated per array batch inside ``run_sweep`` — bounds
#: array memory and keeps the journal/SIGINT boundary responsive.
DEFAULT_CHUNK_CANDIDATES = 4096

#: Lanes evaluated per internal slice of the column-wise combiner.  The
#: combiner's ~40 temporaries then stay inside a few MB, so the
#: allocator reuses warm buffers instead of faulting fresh pages per
#: array statement — worth an order of magnitude on million-lane
#: batches (slicing changes which elements an op touches, never the
#: op itself, so bit-exactness is unaffected).
_EVAL_CHUNK_LANES = 131072

#: Spec attributes a bound batch reads, one int64 column each: the six
#: degrees and the expert-parallel flag, plus ``N_ub`` when untuned.
_FIELDS = ("tp_intra", "tp_inter", "pp_intra", "pp_inter", "dp_intra",
           "dp_inter", "expert_parallel")
#: Fields read from a spec's ``__dict__`` (cheaper than attributes);
#: ``microbatches`` is a property, so an untuned batch reads attributes.
_STATE = attrgetter("__dict__")
_DEGREES = itemgetter(*_FIELDS)
_DEGREES_AND_NUB = attrgetter(*_FIELDS, "microbatches")
_RATIO = attrgetter("bubble_overlap_ratio")

#: Columns of a bound batch's rank block: ``_FIELDS``, the tp/pp/dp
#: totals, the pp term's gates ``min(pp_intra|pp_inter, 2)``, R, and
#: ``N_ub`` when untuned.
(_TPI, _TPX, _PPI, _PPX, _DPI, _DPX, _EP, _TP, _PP, _DP, _PPI_GATE, _PPX_GATE,
 _R, _NUB) = range(14)
#: TERM_KEYS as rank-block columns: tp_intra, tp_inter, pp, moe and
#: gradient (= zero); then the lane keys efficiency, bubble and the
#: memory screen's (tp, pp, dp, N_ub); then, when tuning, the N_ub grid
#: (it depends on (dp, pp) only) and the lane-table row, which fixes
#: every lane key but N_ub (tp only with the memory screen).
_TERM_KEY_ROWS = ((_TPI, _DP), (_TPI, _TPX, _DP), (_PPI_GATE, _PPX_GATE, _DP),
                  (_TP, _DP, _EP), (_TP, _DPI, _DPX, _EP))
_LANE_KEY_ROWS = ((_DP, _NUB), (_PP, _NUB, _R), (_TP, _PP, _DP, _NUB))
_GRID_ROW = (_DP, _PP)
_TABLE_ROWS = ((_DP, _PP, _R), (_DP, _PP, _R, _TP))


def resolve_evaluation_path(requested: str, n_candidates: int) -> str:
    """The evaluation path a sweep once resolved ``requested`` to.

    ``"compiled"`` maps to ``"vectorized"``, at any ``n_candidates``;
    everything else passes through untouched.  No code in ``src/``
    calls it: ``run_sweep`` runs the arrays for every ``"compiled"``
    sweep, and ``"vectorized"`` is no longer an evaluation path.  It
    stays only for ``benchmarks/e2e``'s imports, and goes with them
    (ROADMAP item 10).
    """
    if requested == "compiled":
        return "vectorized"
    return requested


def threshold_info() -> Dict[str, object]:
    """The candidate count from which ``"compiled"`` sweeps run on the
    arrays: every sweep, so the threshold is one candidate.  No code in
    ``src/`` calls it; it stays only for ``benchmarks/e2e``'s imports,
    and goes with them (ROADMAP item 10)."""
    return {"threshold": 1, "source": "constant"}


# ---------------------------------------------------------------------------
# Backend statistics (folded into cache.vectorized.* gauges)
# ---------------------------------------------------------------------------

_STATS: Dict[str, float] = dict.fromkeys(VECTORIZED_STATS, 0)

#: A bind updates the totals on whichever thread runs the sweep (a
#: library caller may sweep on several), while a metrics snapshot
#: (``collect_cache_metrics``, e.g. a ``/metrics`` handler thread) copies
#: them from another; every _STATS access goes through this.
_STATS_LOCK = threading.Lock()


def vectorized_stats() -> Dict[str, float]:
    """Cumulative binder statistics: batches bound, table build time,
    array bytes, lanes evaluated (``cache.vectorized.*`` gauges)."""
    with _STATS_LOCK:
        return dict(_STATS)


def clear_vectorized_stats() -> None:
    """Reset the cumulative binder statistics (tests, fresh runs)."""
    with _STATS_LOCK:
        for name in _STATS:
            _STATS[name] = 0


def _record_build(batch: "BoundBatch", seconds: float) -> None:
    with _STATS_LOCK:
        _STATS["builds"] += 1
        _STATS["build_seconds"] += seconds
        _STATS["array_bytes"] += batch.array_bytes
        _STATS["lanes"] += batch.n_lanes
        _STATS["batches"] += 1
        _STATS["max_batch_size"] = max(_STATS["max_batch_size"],
                                       batch.n_specs)


# ---------------------------------------------------------------------------
# The binder
# ---------------------------------------------------------------------------


class BoundBatch:
    """One candidate batch projected, filled and ready to evaluate.

    Construction performs the projection (candidate → key indices per
    term, expanded over the ``N_ub`` lanes when tuning) and the batch
    fill (each table's missing distinct keys as columns, landing in the
    compiled sweep's dict tables *and* in dense arrays).  Evaluation is then
    pure gather+sum.  With ``enforce_memory`` every lane is also
    looked up in the compiled sweep's memory screen, which masks the
    lanes :meth:`best_lanes` picks from.
    """

    def __init__(self, compiled: CompiledSweep,
                 specs: Sequence[ParallelismSpec],
                 tune_microbatches: bool = False,
                 enforce_memory: bool = False) -> None:
        started = time.perf_counter()
        self.compiled = compiled
        self.specs: List[ParallelismSpec] = list(specs)
        self.tune_microbatches = tune_microbatches
        specs = self.specs
        n = len(specs)

        # -- columns: one attribute pass over the specs --------------------
        fields = 7 if tune_microbatches else 8
        degrees = np.fromiter(
            chain.from_iterable(
                map(_DEGREES, map(_STATE, specs)) if tune_microbatches
                else map(_DEGREES_AND_NUB, specs)),
            dtype=np.int64, count=n * fields).reshape(n, fields)
        # ``+ 0.0`` folds -0.0 onto 0.0, which a dict key also merges.
        raw_ratio = np.fromiter(map(_RATIO, specs), dtype=np.float64,
                                count=n)
        ratio = raw_ratio + 0.0
        totals = degrees[:, 0:6:2] * degrees[:, 1:6:2]  # tp, pp, dp
        tp, pp, dp = totals.T
        world = tp * pp * dp
        self._workers = world.astype(np.float64)
        self._stage_share = (pp.astype(np.float64)
                             if compiled.concurrent_stage_comm
                             else np.ones(n))
        self._bub_divisor = (world * compiled.bubble_layers).astype(
            np.float64)
        self._pp_gt1 = pp > 1

        # -- keys: one int64 code per key, from dense column ranks ---------
        # The integer columns share one value set and R has its own; a
        # key's code is a mixed-radix number over its columns' ranks
        # (_*_KEY_ROWS), each digit below its column's largest rank.
        counts, _ = _rerank(np.concatenate(
            [degrees[:, :7], totals, np.minimum(degrees[:, 2:4], 2),
             degrees[:, 7:]], axis=1))
        ratios, _ = _rerank(ratio.view(np.int64))
        ranks = np.concatenate(
            [counts[:, :_R], ratios[:, None], counts[:, _R:]], axis=1)
        spans = ranks.max(axis=0, initial=0) + 1
        n_lane_keys = 3 if enforce_memory else 2
        spec_classes = _classes(*_codes(
            ranks, spans, _TERM_KEY_ROWS + (
                (_GRID_ROW, _TABLE_ROWS[enforce_memory]) if tune_microbatches
                else _LANE_KEY_ROWS[:n_lane_keys])))
        ((self._tpi_idx, tpi_first), (self._tpx_idx, tpx_first),
         (self._pp_idx, pp_first), (self._moe_idx, moe_first),
         (self._grad_idx, grad_first)) = spec_classes[:5]

        # -- lanes: one per candidate microbatch count ---------------------
        # Per lane key: (lane -> class, each class's first spec, its N_ub).
        if tune_microbatches:
            (grid_of, grid_first), (row_of, row_first) = spec_classes[5:]
            grids = [candidate_microbatch_counts(specs[row],
                                                 compiled.global_batch)
                     for row in grid_first.tolist()]
            lengths = np.array([len(grid) for grid in grids], dtype=np.intp)
            slots = int(lengths.max(initial=1))
            nubs = np.array([grid + [0] * (slots - len(grid))
                             for grid in grids],
                            dtype=np.int64).reshape(-1)
            self._counts = lengths[grid_of]
            self._lane_spec, lane_slot, self._offsets = _expand(
                self._counts)
            # The lane keys are classified on a table of (row class x
            # grid slot) entries, laid out in first-seen lane order.
            row_grid = grid_of[row_first]
            rows, slot, starts = _expand(lengths[row_grid])
            entry_spec = row_first[rows]
            entry_nub = nubs[row_grid[rows] * slots + slot]
            lane_entry = starts[row_of[self._lane_spec]] + lane_slot
            self._lane_nub = entry_nub[lane_entry]
            nub_ranks, nub_radix = _rerank(entry_nub)
            lane_classes = _classes(*_codes(
                np.concatenate([ranks[entry_spec], nub_ranks[:, None]],
                               axis=1),
                np.append(spans, nub_radix), _LANE_KEY_ROWS[:n_lane_keys]))
            lane_keys = [(ids[lane_entry], entry_spec[first],
                          entry_nub[first]) for ids, first in lane_classes]
        else:  # one lane per spec, at its own N_ub
            self._lane_nub = degrees[:, 7]
            self._counts = np.ones(n, dtype=np.intp)
            self._lane_spec = self._offsets = np.arange(n)
            lane_keys = [(ids, first, self._lane_nub[first])
                         for ids, first in spec_classes[5:]]
        (self._lane_eff_idx, eff_rows, eff_nubs), \
            (self._lane_bub_idx, bub_rows, bub_nubs) = lane_keys[:2]

        # -- memory screen: one fits_in_memory call per distinct
        # (tp, pp, dp, N_ub), masking the lanes best_lanes picks from.
        self._lane_fits = None
        if enforce_memory:
            lane_mem, mem_rows, mem_nubs = lane_keys[2]
            fits = [compiled.fits_for(specs[row], n_ub) for row, n_ub
                    in zip(mem_rows.tolist(), mem_nubs.tolist())]
            self._lane_fits = np.array(fits, dtype=bool)[lane_mem]

        # -- batch fill: each table's missing distinct keys at once -------
        # Every table but eff(ub) fills through its compiled term
        # function, run on the keys' columns (_fill), into the compiled
        # sweep's own dict tables, so both backends read identical
        # values.  Classes number in first-seen order, so the tables
        # fill in candidate order.
        effs: List[Optional[float]] = []
        for dp_key, n_ub in zip(dp[eff_rows].tolist(), eff_nubs.tolist()):
            try:
                effs.append(compiled._efficiency_at(dp_key, n_ub))
            except MappingError:
                effs.append(None)
        self._eff_ok = np.array([eff is not None for eff in effs], bool)
        # Hit-rate accounting: every feasible eff(ub) key is one lookup
        # of its own table and one of each class's compute table.
        compiled._lookups += int(self._eff_ok.sum()) * (
            1 + len(compiled.classes))
        self._eff_vals = np.array(  # 1.0: a placeholder, masked by _eff_ok
            [1.0 if eff is None else eff for eff in effs], dtype=np.float64)

        experts = degrees[:, _EP] != 0
        self._bub_vals = _fill(
            compiled, [compiled._bubble_prefactor], compiled.bubble_term,
            pp[bub_rows], bub_nubs, raw_ratio[bub_rows])[:, 0, 0]
        self._tpi_vals = _fill(
            compiled, [compiled._tp_intra], compiled.tp_intra_term,
            degrees[tpi_first, _TPI], dp[tpi_first])[:, 0, 0]
        self._tpx_vals = _fill(
            compiled, [compiled._tp_inter], compiled.tp_inter_term,
            *degrees[tpx_first, _TPI:_TPX + 1].T, dp[tpx_first])[:, 0, 0]
        self._pp_vals = _fill(
            compiled, [compiled._pp], compiled.pp_term,
            *(degrees[pp_first, _PPI:_PPX + 1] > 1).T, dp[pp_first])[:, 0, 0]
        self._moe_vals = _fill(
            compiled, [compiled._moe], compiled.moe_term, tp[moe_first],
            dp[moe_first], experts[moe_first])[:, 0, 0]
        grad_key = (tp[grad_first], *degrees[grad_first, _DPI:_DPX + 1].T,
                    experts[grad_first])
        self._grad = list(_fill(compiled, compiled.grad_tables,
                                compiled.gradient_term, *grad_key,
                                width=2).swapaxes(0, 1))
        self._zero = (list(_fill(compiled, compiled.zero_tables,
                                 compiled.zero_term, *grad_key)[:, :, 0].T)
                      if compiled.explicit_zero else None)

        # Per-class value arrays are column views of one array per table.
        n_classes = len(compiled.classes)
        comp = np.array([[(0.0, 0.0, 0.0)] * n_classes if eff is None
                         else compiled.compute_triples_for(float(eff))
                         for eff in effs], dtype=np.float64)
        self._comp = list(comp.reshape(-1, n_classes, 3).swapaxes(0, 1))

        self._lane_ok = self._eff_ok[self._lane_eff_idx]
        self._lane_components_cache: Optional[tuple] = None
        self._lane_times_cache = None
        self.build_seconds = time.perf_counter() - started
        _record_build(self, self.build_seconds)

    # -- sizes ---------------------------------------------------------------

    @property
    def n_specs(self) -> int:
        return len(self.specs)

    @property
    def n_lanes(self) -> int:
        return int(self._lane_nub.shape[0])

    @property
    def array_bytes(self) -> int:
        """Total bytes held by the batch's dense arrays."""
        total = 0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif (isinstance(value, list) and value
                  and isinstance(value[0], np.ndarray)):
                total += sum(item.nbytes for item in value)
        return total

    # -- the column-wise combiner ---------------------------------------------

    def _components(self, rows, eff_idx, bub_idx) -> tuple:
        """Eq. 1 per lane: :meth:`CompiledSweep.assemble`, the code that
        sums one candidate's floats, run on gathered float64 columns, so
        each lane's components are bit-identical to the scalar
        combiner's.  ``bub_idx`` is ``None`` for the no-bubble (lower
        bound) evaluation, where the scalar path pins ``pref = 0.0``.
        """
        grad_rows = self._grad_idx[rows]
        pref = divisor = None
        if bub_idx is not None:
            pref = self._bub_vals[bub_idx]
            divisor = self._bub_divisor[rows]
        components = self.compiled.assemble(
            ((comp[eff_idx, 0], comp[eff_idx, 1], comp[eff_idx, 2])
             for comp in self._comp),
            ((grad[grad_rows, 0], grad[grad_rows, 1])
             for grad in self._grad),
            None if self._zero is None
            else (zero[grad_rows] for zero in self._zero),
            self._tpi_vals[self._tpi_idx[rows]],
            self._tpx_vals[self._tpx_idx[rows]],
            self._pp_vals[self._pp_idx[rows]],
            self._moe_vals[self._moe_idx[rows]],
            self._workers[rows], self._stage_share[rows], pref, divisor,
            np.zeros(rows.shape[0]))
        if pref is None:
            return components
        # The scalar gate ``pref and pp > 1``, per lane (NaN prefactors
        # are truthy there and unequal to 0.0 here).
        gate = (pref != 0.0) & self._pp_gt1[rows]
        return components[:-1] + (np.where(gate, components[-1], 0.0),)

    def _components_chunked(self, rows, eff_idx, bub_idx) -> tuple:
        """:meth:`_components` over :data:`_EVAL_CHUNK_LANES`-sized
        slices, concatenated into full-length component arrays."""
        n = rows.shape[0]
        if n <= _EVAL_CHUNK_LANES:
            return self._components(rows, eff_idx, bub_idx)
        outs = tuple(np.empty(n) for _ in range(len(COMPONENT_NAMES)))
        for start in range(0, n, _EVAL_CHUNK_LANES):
            piece = slice(start, start + _EVAL_CHUNK_LANES)
            part = self._components(
                rows[piece], eff_idx[piece],
                None if bub_idx is None else bub_idx[piece])
            for out, column in zip(outs, part):
                out[piece] = column
        return outs

    # -- lane-level evaluation --------------------------------------------------

    def lane_components(self) -> tuple:
        """The 11 breakdown component arrays, one value per lane, in
        :data:`~repro.search.compiler.COMPONENT_NAMES` order."""
        if self._lane_components_cache is None:
            self._lane_components_cache = self._components_chunked(
                self._lane_spec, self._lane_eff_idx, self._lane_bub_idx)
        return self._lane_components_cache

    def lane_times(self):
        """Batch time per lane; NaN marks an infeasible microbatch."""
        if self._lane_times_cache is None:
            totals = total_of(self.lane_components())
            self._lane_times_cache = np.where(
                self._lane_ok, totals, np.nan)
        return self._lane_times_cache

    # -- per-candidate reductions ----------------------------------------------

    def best_lanes(self):
        """Batched ``best_microbatch``: ``(times, picks, feasible)``
        per candidate.

        ``times`` is the minimal finite batch time across the
        candidate's lanes, ``picks`` the first lane achieving it (the
        scalar tuner keeps the earliest candidate on ties, because only
        a strictly smaller time replaces the incumbent), and
        ``feasible`` is False when every lane is infeasible or
        non-finite — callers fall back to the scalar path there for the
        exact error semantics.  A batch bound with ``enforce_memory``
        picks only among lanes that pass the memory screen.
        """
        if not self.specs:
            empty = np.empty(0)
            return empty, np.empty(0, dtype=np.intp), \
                np.empty(0, dtype=bool)
        times = self.lane_times()
        usable = np.isfinite(times)
        if self._lane_fits is not None:
            usable &= self._lane_fits
        filled = np.where(usable, times, np.inf)
        best = np.minimum.reduceat(filled, self._offsets)
        hit = filled == np.repeat(best, self._counts)
        n_lanes = filled.shape[0]
        lane_ids = np.arange(n_lanes, dtype=np.intp)
        picks = np.minimum.reduceat(
            np.where(hit, lane_ids, n_lanes), self._offsets)
        feasible = np.isfinite(best)
        return best, picks, feasible

    def lower_bounds(self):
        """Batched pruner bound: one value per candidate, NaN when no
        microbatch count is feasible (the scalar path raises
        :class:`MappingError` there).

        Replays :meth:`CompiledSweep.lower_bound`: the best reachable
        efficiency across the candidate's lanes (a segmented max), then
        the no-bubble combine at that efficiency.
        """
        if not self.specs:
            return np.empty(0)
        eff_lane = np.where(self._lane_ok,
                            self._eff_vals[self._lane_eff_idx], -np.inf)
        best_eff = np.maximum.reduceat(eff_lane, self._offsets)
        feasible = best_eff > 0.0
        hit = eff_lane == np.repeat(best_eff, self._counts)
        n_lanes = eff_lane.shape[0]
        lane_ids = np.arange(n_lanes, dtype=np.intp)
        picks = np.minimum.reduceat(
            np.where(hit, lane_ids, n_lanes), self._offsets)
        picks = np.where(feasible, picks, 0)
        rows = np.arange(len(self.specs), dtype=np.intp)
        components = self._components_chunked(
            rows, self._lane_eff_idx[picks], None)
        bounds = total_of(components)
        return np.where(feasible, bounds, np.nan)


def _fill(compiled: CompiledSweep, tables: List[dict], term, *columns,
          width: int = 1):
    """Dense ``(key, table, width)`` values of one term over its
    distinct keys, whose fields are ``columns``: ``tables`` (one per
    layer class for the per-class terms; ``width`` 2 stores pairs) are
    read where they hold a key, and the missing keys go through the
    term function in one call and land there in key order.  A key whose
    topology raised :class:`MappingError` reads NaN and stays out, like
    a scalar fill that raised, so its lanes fall back to that path."""
    keys = list(zip(*(column.tolist() for column in columns)))
    compiled._lookups += len(keys) * len(tables)
    values = np.empty((len(keys), len(tables), width))
    head = tables[0]
    missing = [i for i, key in enumerate(keys) if key not in head]
    if len(missing) < len(keys):
        hits = [i for i, key in enumerate(keys) if key in head]
        values[hits] = np.array([[table[keys[i]] for table in tables]
                                 for i in hits]).reshape(-1, len(tables),
                                                         width)
    if not missing:
        return values
    rows = np.array(missing, dtype=np.intp)
    fresh, ok = term(*(column[rows] for column in columns), _ARRAY_OPS)
    fresh = np.array(fresh, dtype=np.float64).reshape(
        len(tables), width, len(rows)).transpose(2, 0, 1)
    ok = np.broadcast_to(ok, rows.shape)
    fresh[~ok] = np.nan
    filled = [keys[i] for i in rows[ok].tolist()]
    for index, table in enumerate(tables):
        column = fresh[ok, index]
        table.update(zip(filled, column[:, 0].tolist() if width == 1
                         else map(tuple, column.tolist())))
    compiled._misses += len(rows) * len(tables)
    values[rows] = fresh
    return values


def _topology(topology, counts, steps: bool = True) -> tuple:
    """:func:`~repro.search.compiler.topology_terms` over a column of
    participant counts, called once per distinct count and gathered:
    ``(steps, factor, ok)``, ``ok`` False where it raised
    :class:`MappingError`."""
    counts = counts.tolist()
    table = {}
    for count in set(counts):
        try:
            table[count] = (*topology_terms(topology, count, steps), True)
        except MappingError:
            table[count] = (0, 0.0, False)
    return tuple(map(np.array, zip(*map(table.__getitem__, counts))))


#: The term functions' ``ops`` on NumPy columns.
_ARRAY_OPS = SimpleNamespace(where=np.where, maximum=np.maximum,
                             topology=_topology)


#: Largest key-code span: ``code * base + digit`` then fits int64.
_CODE_LIMIT = 1 << 62


def _codes(ranks, spans, keys) -> tuple:
    """``(codes, span)``: per key, a row of int64 codes below ``span``
    reading the key's ``ranks`` columns as mixed-radix digits, column
    ``c``'s below ``spans[c]`` (one int: every column's).  A code is
    re-ranked before a digit could carry it past :data:`_CODE_LIMIT`,
    and every code once more if the keys' spans cannot share it."""
    spans = np.broadcast_to(spans, ranks.shape[1:]).tolist()
    codes, widths = [], []
    for key in keys:
        code, width = 0, 1
        for column in key:
            if width * spans[column] > _CODE_LIMIT:
                code, width = _rerank(code)
            code = code * spans[column] + ranks[:, column]
            width *= spans[column]
        codes.append(code)
        widths.append(width)
    if max(widths) * len(keys) > _CODE_LIMIT:
        codes = [_rerank(code)[0] for code in codes]
        widths = [max(1, ranks.shape[0])]
    return np.stack(codes), max(widths)


#: Widest value range :func:`_rerank` ranks through a presence table.
_TABLE_RANGE = 1 << 20


def _rerank(values) -> tuple:
    """``(dense ranks of values, shaped like values; their span)``.
    Non-negative integers below a few times their count (degrees,
    ``N_ub``, key codes) are ranked through a presence table, without a
    sort; other values through ``np.unique``."""
    high = values.max(initial=-1)
    if 0 <= high < min(_TABLE_RANGE, 4 * values.size) and \
            values.min() >= 0:
        seen = np.zeros(high + 1, dtype=bool)
        seen[values] = True
        rank_of = np.cumsum(seen) - 1
        return rank_of[values], int(rank_of[-1]) + 1
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks.reshape(values.shape), max(1, distinct.shape[0])


def _classes(codes, span: int) -> list:
    """Equality classes of each row of ``codes`` (one key per row, codes
    below ``span``), from one :func:`_rerank` over the rows tagged into
    disjoint ranges: per key ``(ids, firsts)``, ``ids[i]`` column ``i``'s
    class, ``firsts[c]`` where class ``c`` first occurs (first-seen)."""
    n_keys, n = codes.shape
    tagged = (codes + np.arange(0, n_keys * span, span)[:, None]).ravel()
    inverse, n_distinct = _rerank(tagged)
    first = np.full(n_distinct if tagged.shape[0] else 0, tagged.shape[0])
    np.minimum.at(first, inverse, np.arange(tagged.shape[0]))
    order = first.argsort()
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.shape[0])
    firsts = first[order]
    # First-seen numbering keeps each key's classes contiguous, in tag
    # order: cut at the keys' edges and shift to per-key origins.
    cuts = np.searchsorted(firsts, np.arange(n_keys + 1) * n)
    ids = renumber[inverse].reshape(n_keys, n) - cuts[:-1, None]
    cuts = cuts.tolist()
    return [(ids[key], firsts[cuts[key]:cuts[key + 1]] - key * n)
            for key in range(n_keys)]


def _expand(counts) -> tuple:
    """``(rows, slots, starts)``: row ``r`` repeated ``counts[r]`` times,
    each copy's slot ``0..counts[r]-1``, and where each row starts."""
    starts = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(counts.shape[0]), counts)
    return rows, np.arange(rows.shape[0]) - starts[rows], starts


class VectorizedSweep:
    """Thin façade binding candidate batches against one compiled sweep."""

    def __init__(self, compiled: CompiledSweep) -> None:
        self.compiled = compiled

    def bind(self, specs: Sequence[ParallelismSpec],
             tune_microbatches: bool = False) -> BoundBatch:
        """Project + batch-fill ``specs`` into a :class:`BoundBatch`."""
        return BoundBatch(self.compiled, specs, tune_microbatches)


# ---------------------------------------------------------------------------
# Candidate-outcome materialization (explore / run_sweep integration)
# ---------------------------------------------------------------------------


def evaluate_chunk(template: "AMPeD", compiled: CompiledSweep,
                   specs: Sequence[ParallelismSpec], global_batch: int,
                   tune_microbatches: bool, need_bounds: bool = False,
                   enforce_memory: bool = False
                   ) -> Tuple[Optional[List[float]],
                              List[Optional["CandidateOutcome"]]]:
    """Evaluate one candidate chunk into pruner bounds and outcomes.

    Validates ``specs``, then projects and batch-fills them and
    evaluates them as one array program.  Returns ``(bounds,
    outcomes)``: ``bounds`` is the pruner bound per
    candidate (NaN = provably infeasible; ``None`` when not requested),
    and ``outcomes`` holds one
    :class:`~repro.search.dse.CandidateOutcome` per candidate, with
    ``None`` marking candidates the array path cannot decide exactly —
    invalid mappings, all-lanes-infeasible candidates, non-finite
    results — which the caller re-evaluates through the scalar route
    (it reproduces the exact error categories and detail strings).
    With ``enforce_memory`` the memory screen masks the lanes, and a
    candidate none of whose lanes fits is a ``memory_capacity`` skip
    (untuned, only once its microbatch holds a sequence, as in the
    scalar route).  A ``per_layer`` template gets bounds only; every
    outcome is then ``None``.
    """
    from repro.core.breakdown import TrainingTimeBreakdown
    from repro.errors import ReproError
    from repro.search.dse import (
        NO_MICROBATCH_FITS,
        SKIP_MEMORY_CAPACITY,
        CandidateOutcome,
        ExplorationResult,
    )

    n = len(specs)
    valid = list(range(n))
    if template.validate:
        valid = []
        for index, spec in enumerate(specs):
            try:
                spec.validate_against(template.system)
                spec.validate_against_model(template.model.n_layers,
                                            template.model.n_heads)
            except ReproError:
                continue  # scalar fallback raises/categorizes exactly
            valid.append(index)
    outcomes: List[Optional[CandidateOutcome]] = [None] * n
    bounds = [math.nan] * n if need_bounds else None
    arrays = template.evaluation_path != "per_layer"
    if not valid or not (arrays or need_bounds):
        return bounds, outcomes
    batch = BoundBatch(compiled, [specs[i] for i in valid],
                       tune_microbatches, enforce_memory and arrays)

    if bounds is not None:
        for index, bound in zip(valid, batch.lower_bounds().tolist()):
            bounds[index] = bound
    if not arrays:
        return bounds, outcomes
    best, picks, feasible = batch.best_lanes()
    columns = [column.tolist() for column in batch.lane_components()]
    picks_list = picks.tolist()
    feasible_list = feasible.tolist()
    nubs = batch._lane_nub.tolist()
    fits_list = (np.logical_or.reduceat(batch._lane_fits, batch._offsets)
                 .tolist() if enforce_memory else None)
    # Untuned, lane j is candidate j, sized before its memory check.
    sized_list = batch._lane_ok.tolist() if enforce_memory else None

    for j, index in enumerate(valid):
        spec = specs[index]
        if not feasible_list[j]:
            if fits_list is not None and not fits_list[j] and (
                    tune_microbatches or sized_list[j]):
                outcomes[index] = CandidateOutcome(
                    spec=spec, skip_category=SKIP_MEMORY_CAPACITY,
                    detail=NO_MICROBATCH_FITS if tune_microbatches else
                    f"microbatch {microbatch_size(global_batch, spec):g} "
                    f"does not fit in HBM")
            continue  # scalar fallback reproduces the exact failure
        lane = picks_list[j]
        breakdown = TrainingTimeBreakdown(**{
            name: column[lane]
            for name, column in zip(COMPONENT_NAMES, columns)})
        tuned = (spec.with_microbatches(nubs[lane])
                 if tune_microbatches else spec)
        microbatch = microbatch_size(global_batch, tuned)
        outcomes[index] = CandidateOutcome(spec=spec, result=ExplorationResult(
            parallelism=tuned,
            global_batch=global_batch,
            batch_time_s=breakdown.total,
            breakdown=breakdown,
            microbatch_size=microbatch,
            microbatch_efficiency=compiled.efficiency(microbatch),
        ))
    return bounds, outcomes
