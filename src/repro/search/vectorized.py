"""Vectorized batch evaluation: whole sweeps as array programs.

The sweep compiler (:mod:`repro.search.compiler`) made candidate
evaluation sublinear — key projection + dict lookups + scalar adds —
but still walks candidates one at a time in Python.  This module turns
that inner loop into NumPy array operations:

1. **Project**: every candidate is projected onto integer *key
   indices*, one per term table, using the same minimal-key taxonomy as
   :data:`repro.collectives.keys.TERM_KEYS` (the projections are
   inlined in the binding loop for speed; ``tests/search/
   test_vectorized.py`` pins them against the taxonomy functions).
2. **Batch-fill**: each term table is filled once per *distinct* key
   through :class:`~repro.search.compiler.CompiledSweep`'s batch-fill
   accessors — the fills land in the compiled sweep's own dict tables,
   so the scalar and vectorized backends always read identical values —
   and the values are packed into dense ``float64`` arrays.
3. **Gather + sum**: all candidates evaluate as column-wise gathers
   into those arrays plus elementwise arithmetic that replays
   ``_combine``'s association order operation for operation.  IEEE-754
   elementwise array ops round identically to the scalar ops (NumPy
   performs no re-association and no FMA contraction for these
   expressions), so vectorized batch times are **bit-exact** against
   ``evaluation_path="compiled"`` and therefore ≤ 1e-9 relative against
   ``"per_layer"`` — the property suite enforces both.

The microbatch-tuning axis rides along as extra *lanes*: communication
terms are independent of ``N_ub``, so each candidate expands into one
lane per candidate microbatch count and ``best_microbatch`` becomes a
segmented ``minimum.reduceat`` (first minimum wins, matching the scalar
strictly-smaller tie-break).  The branch-and-bound pruner's lower bound
is likewise one segmented ``maximum.reduceat`` over efficiencies plus a
no-bubble evaluation — one array compare replaces per-candidate
``lower_bound`` calls.  A memory-enforced sweep adds one more lane
mask: the compiled sweep's memory-screen table, one
:func:`~repro.memory.constraints.fits_in_memory` call per distinct
``(tp, pp, dp, N_ub)``, restricts the lanes ``best_microbatch`` picks
from and leaves the lower bound alone.

NumPy is an **optional** dependency.  With it installed,
:func:`resolve_evaluation_path` routes every default ``"compiled"``
sweep, whatever its size, to this backend: the array program is faster
than the scalar walk even on sweeps of a few dozen candidates, and
both read the same term tables.  ``run_sweep`` (and ``explore``, which
calls it) runs it in this process, chunk by chunk through
:func:`evaluate_chunk`.  Without NumPy, sweeps run on the pure-python
``"compiled"`` path, and an explicit API request for
``evaluation_path="vectorized"`` raises a
:class:`~repro.errors.ConfigurationError`.  See
``docs/performance.md`` for the key-index layout and the full
bit-exactness argument.
"""

from __future__ import annotations

import math
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, MappingError
from repro.parallelism.microbatch import microbatch_size
from repro.parallelism.spec import ParallelismSpec
from repro.search.compiler import COMPONENT_NAMES, CompiledSweep, compile_sweep
from repro.search.tuning import candidate_microbatch_counts

try:  # Optional extra: repro[vectorized].
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI leg
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the cycle
    from repro.core.model import AMPeD
    from repro.search.dse import CandidateOutcome

#: Whether the NumPy backend is importable in this process.
HAVE_NUMPY = _np is not None

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


def require_numpy() -> None:
    """Raise :class:`ConfigurationError` when NumPy is unavailable.

    The message names the remedy and the fallback; the CLI surfaces it
    with exit code 2 like every other configuration error.
    """
    if not HAVE_NUMPY:
        raise ConfigurationError(
            "evaluation_path='vectorized' requires NumPy, an optional "
            "dependency (pip install numpy, or the repro[vectorized] "
            "extra); without it use the pure-python 'compiled' path, "
            "which is the default fallback")


def resolve_evaluation_path(requested: str, n_candidates: int) -> str:
    """The evaluation path a sweep should actually run.

    An explicit ``"vectorized"`` request validates that NumPy is
    importable (raising otherwise — never a silent downgrade); a
    default ``"compiled"`` request runs on the NumPy backend whenever
    NumPy imports, at any ``n_candidates``.  Everything else passes
    through untouched.
    """
    if requested == "vectorized":
        require_numpy()
        return requested
    if requested == "compiled" and HAVE_NUMPY:
        return "vectorized"
    return requested


def threshold_info() -> Dict[str, object]:
    """The candidate count from which ``"compiled"`` sweeps run
    vectorized: every sweep, so the threshold is one candidate."""
    return {"threshold": 1, "source": "constant"}


# ---------------------------------------------------------------------------
# Backend statistics (folded into cache.vectorized.* gauges)
# ---------------------------------------------------------------------------

_STATS: Dict[str, float] = {
    "builds": 0, "build_seconds": 0.0, "array_bytes": 0,
    "lanes": 0, "batches": 0, "max_batch_size": 0,
}

#: Serve handler threads build batches concurrently with the metrics
#: endpoint reading the totals; every _STATS access goes through this.
_STATS_LOCK = threading.Lock()


def vectorized_stats() -> Dict[str, float]:
    """Cumulative binder statistics: batches bound, table build time,
    array bytes, lanes evaluated (``cache.vectorized.*`` gauges)."""
    with _STATS_LOCK:
        stats = dict(_STATS)
    stats["available"] = 1 if HAVE_NUMPY else 0
    return stats


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
    fill (one accessor call per distinct key, landing in the compiled
    sweep's dict tables *and* in dense arrays).  Evaluation is then
    pure gather+sum.  With ``enforce_memory`` every lane is also
    looked up in the compiled sweep's memory screen, which masks the
    lanes :meth:`best_lanes` picks from.  The object is picklable: it
    holds only arrays, plain metadata and the (picklable) compiled
    sweep.
    """

    def __init__(self, compiled: CompiledSweep,
                 specs: Sequence[ParallelismSpec],
                 tune_microbatches: bool = False,
                 enforce_memory: bool = False) -> None:
        require_numpy()
        started = time.perf_counter()
        np = _np
        self.compiled = compiled
        self.specs: List[ParallelismSpec] = list(specs)
        self.tune_microbatches = tune_microbatches
        global_batch = compiled.global_batch

        # Sweep constants snapshot (scalar replay parameters).
        self._exposed = compiled.exposed
        self._bcr = compiled.backward_comm_ratio
        self._explicit_zero = compiled.explicit_zero
        eq8 = compiled.bubble_model == "eq8"
        n_layers = compiled.model.n_layers
        #: ``(weight, is_transformer, is_moe)`` per layer class, in the
        #: combiner's class order.
        self._class_meta: List[Tuple[float, bool, bool]] = [
            (weight, layer.index >= 0, layer.is_moe)
            for layer, weight, *_ in compiled.classes]
        concurrent = compiled.concurrent_stage_comm

        # -- projection: candidates -> key indices ------------------------
        # The tuple layouts below inline the TERM_KEYS projections of
        # repro.collectives.keys (tp_intra_key, tp_inter_key, pp_key,
        # moe_key, gradient_key, efficiency_key, bubble_key);
        # test_vectorized.py pins the equivalence spec by spec.
        tpi_index: Dict[tuple, int] = {}
        tpx_index: Dict[tuple, int] = {}
        pp_index: Dict[tuple, int] = {}
        moe_index: Dict[tuple, int] = {}
        grad_index: Dict[tuple, int] = {}
        eff_index: Dict[tuple, int] = {}
        bub_index: Dict[tuple, int] = {}
        tpi_reps: List[ParallelismSpec] = []
        tpx_reps: List[ParallelismSpec] = []
        pp_reps: List[ParallelismSpec] = []
        moe_reps: List[ParallelismSpec] = []
        grad_reps: List[ParallelismSpec] = []
        eff_reps: List[Tuple[ParallelismSpec, int]] = []

        tpi_idx: List[int] = []
        tpx_idx: List[int] = []
        pp_idx: List[int] = []
        moe_idx: List[int] = []
        grad_idx: List[int] = []
        workers_col: List[float] = []
        stage_col: List[float] = []
        divisor_col: List[float] = []
        pp_gt1_col: List[bool] = []
        counts: List[int] = []
        lane_eff: List[int] = []
        lane_bub: List[int] = []
        lane_nub: List[int] = []

        for spec in self.specs:
            tp_i = spec.tp_intra
            tp_x = spec.tp_inter
            ep = spec.expert_parallel
            tp = tp_i * tp_x
            pp = spec.pp_intra * spec.pp_inter
            dp = spec.dp_intra * spec.dp_inter

            key = (tp_i, dp)  # keys.tp_intra_key
            idx = tpi_index.get(key)
            if idx is None:
                idx = len(tpi_index)
                tpi_index[key] = idx
                tpi_reps.append(spec)
            tpi_idx.append(idx)

            key = (tp_i, tp_x, dp)  # keys.tp_inter_key
            idx = tpx_index.get(key)
            if idx is None:
                idx = len(tpx_index)
                tpx_index[key] = idx
                tpx_reps.append(spec)
            tpx_idx.append(idx)

            key = (spec.pp_intra > 1, spec.pp_inter > 1, dp)  # keys.pp_key
            idx = pp_index.get(key)
            if idx is None:
                idx = len(pp_index)
                pp_index[key] = idx
                pp_reps.append(spec)
            pp_idx.append(idx)

            key = (tp, dp, ep)  # keys.moe_key
            idx = moe_index.get(key)
            if idx is None:
                idx = len(moe_index)
                moe_index[key] = idx
                moe_reps.append(spec)
            moe_idx.append(idx)

            key = (tp, spec.dp_intra, spec.dp_inter, ep)  # keys.gradient_key
            idx = grad_index.get(key)
            if idx is None:
                idx = len(grad_index)
                grad_index[key] = idx
                grad_reps.append(spec)
            grad_idx.append(idx)

            workers_col.append(float(tp * pp * dp))
            stage_col.append(float(pp if concurrent else 1))
            divisor = tp * dp * pp
            if eq8:
                divisor *= n_layers
            divisor_col.append(float(divisor))
            pp_gt1_col.append(pp > 1)

            if tune_microbatches:
                n_ubs = candidate_microbatch_counts(spec, global_batch)
            else:
                n_ubs = [spec.microbatches]
            counts.append(len(n_ubs))
            ratio = spec.bubble_overlap_ratio
            for n_ub in n_ubs:
                key = (dp, n_ub)  # keys.efficiency_key
                idx = eff_index.get(key)
                if idx is None:
                    idx = len(eff_index)
                    eff_index[key] = idx
                    eff_reps.append((spec, n_ub))
                lane_eff.append(idx)
                key = (pp, n_ub, ratio)  # keys.bubble_key
                idx = bub_index.get(key)
                if idx is None:
                    idx = len(bub_index)
                    bub_index[key] = idx
                lane_bub.append(idx)
                lane_nub.append(n_ub)

        self._tpi_idx = np.asarray(tpi_idx, dtype=np.intp)
        self._tpx_idx = np.asarray(tpx_idx, dtype=np.intp)
        self._pp_idx = np.asarray(pp_idx, dtype=np.intp)
        self._moe_idx = np.asarray(moe_idx, dtype=np.intp)
        self._grad_idx = np.asarray(grad_idx, dtype=np.intp)
        self._workers = np.asarray(workers_col)
        self._stage_share = np.asarray(stage_col)
        self._bub_divisor = np.asarray(divisor_col)
        self._pp_gt1 = np.asarray(pp_gt1_col, dtype=bool)
        self._counts = np.asarray(counts, dtype=np.intp)
        self._offsets = np.zeros(len(counts), dtype=np.intp)
        if counts:
            np.cumsum(self._counts[:-1], out=self._offsets[1:])
        self._lane_spec = np.repeat(
            np.arange(len(self.specs), dtype=np.intp), self._counts)
        self._lane_eff_idx = np.asarray(lane_eff, dtype=np.intp)
        self._lane_bub_idx = np.asarray(lane_bub, dtype=np.intp)
        self._lane_nub = np.asarray(lane_nub, dtype=np.int64)

        # -- memory screen: one fits_in_memory call per distinct
        # (tp, pp, dp, N_ub), masking the lanes best_lanes picks from.
        self._lane_fits = None
        if enforce_memory:
            specs = self.specs
            self._lane_fits = np.asarray(
                [compiled.fits_for(specs[row], n_ub) for row, n_ub
                 in zip(self._lane_spec.tolist(), lane_nub)], dtype=bool)

        # -- batch fill: one accessor call per distinct key ----------------
        # Fills land in the compiled sweep's own dict tables, keeping
        # both backends reading identical values; keys whose reference
        # function raises MappingError become NaN rows, so any lane
        # touching them evaluates non-finite and falls back to the
        # scalar path for the exact error semantics.
        self._eff_vals = np.empty(len(eff_reps))
        self._eff_ok = np.zeros(len(eff_reps), dtype=bool)
        for idx, (rep, n_ub) in enumerate(eff_reps):
            try:
                self._eff_vals[idx] = compiled.efficiency_for(
                    rep.with_microbatches(n_ub))
                self._eff_ok[idx] = True
            except MappingError:
                self._eff_vals[idx] = 1.0  # placeholder, masked below

        self._bub_vals = np.empty(len(bub_index))
        for key, idx in bub_index.items():
            self._bub_vals[idx] = compiled.bubble_prefactor_for(*key)

        self._tpi_vals = _fill(np, tpi_reps, compiled.tp_intra_for)
        self._tpx_vals = _fill(np, tpx_reps, compiled.tp_inter_for)
        self._pp_vals = _fill(np, pp_reps, compiled.pp_for)
        self._moe_vals = _fill(np, moe_reps, compiled.moe_for)

        n_classes = len(compiled.classes)
        self._comp = [np.zeros((len(eff_reps), 3))
                      for _ in range(n_classes)]
        for idx in range(len(eff_reps)):
            if not self._eff_ok[idx]:
                continue
            triples = compiled.compute_triples_for(
                float(self._eff_vals[idx]))
            for cls in range(n_classes):
                self._comp[cls][idx] = triples[cls]

        self._grad = [np.empty((len(grad_reps), 2))
                      for _ in range(n_classes)]
        self._zero = ([np.empty(len(grad_reps)) for _ in range(n_classes)]
                      if self._explicit_zero else None)
        for idx, rep in enumerate(grad_reps):
            try:
                pairs = compiled.gradient_pairs_for(rep)
                for cls in range(n_classes):
                    self._grad[cls][idx] = pairs[cls]
            except MappingError:
                for cls in range(n_classes):
                    self._grad[cls][idx] = math.nan
            if self._zero is not None:
                try:
                    gathers = compiled.zero_gathers_for(rep)
                    for cls in range(n_classes):
                        self._zero[cls][idx] = gathers[cls]
                except MappingError:
                    for cls in range(n_classes):
                        self._zero[cls][idx] = math.nan

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
            if isinstance(value, _np.ndarray):
                total += value.nbytes
            elif isinstance(value, list):
                total += sum(item.nbytes for item in value
                             if isinstance(item, _np.ndarray))
        return total

    # -- the column-wise combiner ---------------------------------------------

    def _components(self, rows, eff_idx, bub_idx) -> tuple:
        """``_combine`` replayed column-wise: same class order, same
        per-term arithmetic, same accumulation association — NumPy
        elementwise float64 ops round exactly like the scalar ops, so
        each lane's components are bit-identical to the scalar
        combiner's.  ``bub_idx`` is ``None`` for the no-bubble (lower
        bound) evaluation, where the scalar path pins ``pref = 0.0``.
        """
        np = _np
        exposed = self._exposed
        bcr = self._bcr
        scale = 1.0 + bcr
        workers = self._workers[rows]
        stage_share = self._stage_share[rows]
        ratio = exposed / stage_share
        grad_rows = self._grad_idx[rows]
        n = rows.shape[0]

        v_tpi = self._tpi_vals[self._tpi_idx[rows]]
        v_tpx = self._tpx_vals[self._tpx_idx[rows]]
        v_pp = self._pp_vals[self._pp_idx[rows]]
        v_moe = self._moe_vals[self._moe_idx[rows]]
        a = v_tpi * ratio
        b = v_tpx * ratio
        d = v_pp * exposed
        ab_d = (a + b) + d  # m_f = ((a + b) + d) + c, scalar association
        c_moe_term = v_moe * ratio

        if bub_idx is not None:
            pref = self._bub_vals[bub_idx]
            divisor = self._bub_divisor[rows]
            # Scalar gate: ``if pref and pp > 1`` (NaN prefactors are
            # truthy there and non-equal to 0.0 here).
            gate = (pref != 0.0) & self._pp_gt1[rows]

        cf = np.zeros(n)
        cb = np.zeros(n)
        cw = np.zeros(n)
        c_tpi = np.zeros(n)
        c_tpx = np.zeros(n)
        c_pp = np.zeros(n)
        c_moe = np.zeros(n)
        g_intra = np.zeros(n)
        g_inter = np.zeros(n)
        c_zero = np.zeros(n)
        bub = np.zeros(n)

        for cls, (weight, is_transformer, is_moe) in \
                enumerate(self._class_meta):
            comp = self._comp[cls]
            u_f = comp[eff_idx, 0]
            u_b = comp[eff_idx, 1]
            u_w = comp[eff_idx, 2]
            cf = cf + weight * u_f / workers
            cb = cb + weight * u_b / workers
            cw = cw + weight * u_w / workers

            grad = self._grad[cls]
            g_intra = g_intra + weight * grad[grad_rows, 0] \
                / stage_share * exposed
            g_inter = g_inter + weight * grad[grad_rows, 1] \
                / stage_share * exposed
            if self._zero is not None:
                c_zero = c_zero + weight * 2.0 * self._zero[cls][grad_rows] \
                    / stage_share * exposed

            if not is_transformer:
                continue  # embedding pseudo-layer: no TP/PP/MoE/bubble
            c = c_moe_term if is_moe else 0.0
            m_f = ab_d + c
            m_b = m_f * bcr
            c_tpi = c_tpi + weight * a * scale
            c_tpx = c_tpx + weight * b * scale
            c_pp = c_pp + weight * d * scale
            c_moe = c_moe + weight * c * scale
            if bub_idx is not None:
                step = (u_f + u_b) / divisor + m_b + m_f
                bub = bub + np.where(gate, weight * (pref * step), 0.0)

        return (cf, cb, cw, c_tpi, c_tpx, c_pp, c_moe,
                g_intra, g_inter, c_zero, bub)

    def _components_chunked(self, rows, eff_idx, bub_idx) -> tuple:
        """:meth:`_components` over :data:`_EVAL_CHUNK_LANES`-sized
        slices, concatenated into full-length component arrays."""
        np = _np
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

    @staticmethod
    def _totals_of(components: tuple):
        """``TrainingTimeBreakdown.total`` replayed column-wise."""
        (cf, cb, cw, c_tpi, c_tpx, c_pp, c_moe,
         g_intra, g_inter, c_zero, bub) = components
        compute_time = cf + cb + cw
        comm_time = ((c_tpi + c_tpx) + c_pp + c_moe
                     + (g_intra + g_inter) + c_zero)
        return compute_time + comm_time + bub

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
            totals = self._totals_of(self.lane_components())
            self._lane_times_cache = _np.where(
                self._lane_ok, totals, _np.nan)
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
        np = _np
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

    def any_lane_fits(self):
        """Per candidate: whether any of its lanes passes the memory
        screen (requires a batch bound with ``enforce_memory``)."""
        return _np.logical_or.reduceat(self._lane_fits, self._offsets)

    def lower_bounds(self):
        """Batched pruner bound: one value per candidate, NaN when no
        microbatch count is feasible (the scalar path raises
        :class:`MappingError` there).

        Replays :meth:`CompiledSweep.lower_bound`: the best reachable
        efficiency across the candidate's lanes (a segmented max), then
        the no-bubble combine at that efficiency.
        """
        np = _np
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
        bounds = self._totals_of(components)
        return np.where(feasible, bounds, np.nan)


def _fill(np, reps: List[ParallelismSpec], getter):
    """Dense value array for one comm-term table: one accessor call per
    distinct key; keys whose reference function raises MappingError
    become NaN (their lanes fall back to the scalar path)."""
    values = np.empty(len(reps))
    for idx, rep in enumerate(reps):
        try:
            values[idx] = getter(rep)
        except MappingError:
            values[idx] = math.nan
    return values


class VectorizedSweep:
    """Thin façade binding candidate batches against one compiled sweep."""

    def __init__(self, compiled: CompiledSweep) -> None:
        require_numpy()
        self.compiled = compiled

    def bind(self, specs: Sequence[ParallelismSpec],
             tune_microbatches: bool = False) -> BoundBatch:
        """Project + batch-fill ``specs`` into a :class:`BoundBatch`."""
        return BoundBatch(self.compiled, specs, tune_microbatches)

    def batch_times(self, specs: Sequence[ParallelismSpec]):
        """Batch time per candidate at its own ``N_ub`` (NaN =
        infeasible) — the array counterpart of
        :meth:`CompiledSweep.batch_time`."""
        return self.bind(specs).lane_times()

    def tuned_times(self, specs: Sequence[ParallelismSpec]):
        """Best batch time per candidate across its microbatch lanes
        (NaN = no feasible lane) — the array counterpart of
        :meth:`CompiledSweep.best_microbatch`."""
        best, _, feasible = self.bind(
            specs, tune_microbatches=True).best_lanes()
        return _np.where(feasible, best, _np.nan)


def vectorize_sweep(template: "AMPeD",
                    global_batch: int) -> VectorizedSweep:
    """A :class:`VectorizedSweep` over the process-cached compiled
    tables for ``(template, global_batch)``."""
    return VectorizedSweep(compile_sweep(template, global_batch))


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

    Validates ``specs``, then (with NumPy) projects and batch-fills
    them and evaluates them as one array program.  Returns
    ``(bounds, outcomes)``: ``bounds`` is the pruner bound per
    candidate (NaN = provably infeasible; ``None`` when not requested),
    and ``outcomes`` holds one
    :class:`~repro.search.dse.CandidateOutcome` per candidate, with
    ``None`` marking candidates the array path cannot decide exactly —
    invalid mappings, all-lanes-infeasible candidates, non-finite
    results — which the caller re-evaluates through the scalar route
    (it reproduces the exact error categories and detail strings).
    With ``enforce_memory`` the memory screen masks the lanes, and a
    tuned candidate none of whose lanes fits is a ``memory_capacity``
    skip.

    Array outcomes need NumPy and a compiled template; otherwise every
    outcome is ``None``, and bounds come from
    :meth:`CompiledSweep.lower_bound` per candidate.
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
    if not HAVE_NUMPY:
        if bounds is not None:
            for index in valid:
                try:
                    bounds[index] = compiled.lower_bound(
                        specs[index], tune_microbatches)
                except MappingError:
                    pass  # stays NaN: no feasible microbatch count
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
    fits_list = (batch.any_lane_fits().tolist()
                 if enforce_memory and tune_microbatches else None)

    for j, index in enumerate(valid):
        spec = specs[index]
        if not feasible_list[j]:
            if fits_list is not None and not fits_list[j]:
                outcomes[index] = CandidateOutcome(
                    spec=spec, skip_category=SKIP_MEMORY_CAPACITY,
                    detail=NO_MICROBATCH_FITS)
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
