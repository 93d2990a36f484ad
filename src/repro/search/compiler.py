"""Term-table sweep compiler: sublinear candidate evaluation for DSE.

A design-space sweep holds the model, the system and the global batch
fixed and varies only the mapping, yet a direct evaluation re-walks
all of Eq. 1 for every candidate.  Most terms depend on only a slice of
the mapping coordinates (the *minimal key*, see
:mod:`repro.collectives.keys`): compute terms see the mapping only
through the microbatch efficiency, each collective only through its
(ranks, shard, replica-batch) tuple, the bubble prefactor only through
``(N_PP, N_ub)``.  :class:`CompiledSweep` factors Eq. 1 along those
lines once per sweep and fills one lookup table per term on demand;
evaluating a candidate then costs a handful of key projections, table
lookups and additions (the ``planner-sweeps`` workload of
``benchmarks/e2e`` measures the throughput).  These tables are the
model's single evaluator: ``AMPeD.estimate_batch`` reads them for one
estimate (``evaluation_path="compiled"``, the default), and the NumPy
executor of :mod:`repro.search.vectorized` reads the same tables for
whole sweeps.

**Bit-exactness contract.**  Table entries are produced by calling the
*same* estimator functions the per-layer reference walk of
:meth:`repro.core.model.AMPeD.estimate_batch` calls
(:func:`~repro.core.compute.forward_compute_time`,
:func:`~repro.core.communication.tp_comm_time`, ...), once per
structural layer class, weighted by the class multiplicity.  Two
candidates with equal term keys receive bit-identical term values (the
collective memo of :mod:`repro.core.communication` is keyed on the
same scalars), so a table filled by a whole sweep answers every
candidate exactly as a table filled for that candidate alone, and the
result equals ``"per_layer"`` within floating-point associativity
(``<= 1e-9`` relative, enforced by the property suite).

**Admissible lower bound.**  Every communication term of Eq. 1 is
independent of the microbatch count, and compute time is monotone
non-increasing in the microbatch efficiency, so

    compute(best reachable eff) / world + exact communication terms

is a lower bound on the candidate's achievable batch time that is
strictly tighter than the compute-only bound whenever the mapping
communicates at all, and still never prunes a true top-k member (the
bubble term, the only one omitted, is non-negative; the bound's
additions reuse the evaluation's own association order, and IEEE
rounding is monotone, so the inequality survives floating point).
:meth:`CompiledSweep.lower_bound` feeds this to the branch-and-bound
pruner.  ``docs/performance.md`` carries the full argument.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.breakdown import TrainingTimeBreakdown
from repro.core.bubbles import BUBBLE_MODELS
from repro.core.communication import (
    CommEnvironment,
    gradient_comm_components,
    moe_comm_time,
    pp_comm_time,
    tp_comm_time,
    zero_gather_time,
)
from repro.core.compute import (
    backward_compute_time,
    forward_compute_time,
    weight_update_time,
)
from repro.core.operations import build_operations
from repro.errors import ConfigurationError, MappingError
from repro.memory.constraints import fits_in_memory
from repro.parallelism.microbatch import microbatch_size, replica_batch_size
from repro.parallelism.spec import ParallelismSpec
from repro.pipeline.schedule import bubble_prefactor
from repro.search.tuning import _with_failing_n_ub, candidate_microbatch_counts
from repro.units import Seconds

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the cycle
    from repro.core.model import AMPeD

# amplint: disable-file=AMP204 — CompiledSweep is deliberately lock-free: an
# instance is confined to one evaluating thread (the sweep's caller, or the
# serve dispatcher; each fleet worker builds its own), a lock would tax every
# table fill, and the _lookups/_misses counters are advisory hit-rate
# statistics.

#: Breakdown component names in :class:`TrainingTimeBreakdown` order.
COMPONENT_NAMES = (
    "compute_forward", "compute_backward", "compute_weight_update",
    "comm_tp_intra", "comm_tp_inter", "comm_pp", "comm_moe",
    "comm_gradient_intra", "comm_gradient_inter", "comm_zero", "bubble")

#: Compiled-sweep instances kept in the process-wide cache.
MAX_CACHED_SWEEPS = 8


class CompiledSweep:
    """Eq. 1 factored into per-term lookup tables for one sweep.

    One instance serves every candidate mapping of a (template, global
    batch) sweep.  Tables fill lazily — a miss calls the reference
    estimator functions once per distinct minimal key, in the process
    that evaluates them (every serve fleet worker builds its own).
    """

    def __init__(self, template: "AMPeD", global_batch: int) -> None:
        self.global_batch = int(global_batch)
        self.model = template.model
        self.system = template.system
        self.precision = template.precision
        self.efficiency = template.efficiency
        self.intra_topology = template.intra_topology
        self.inter_topology = template.inter_topology
        self.moe_topology = template.moe_topology
        self.accelerator = template.system.accelerator
        self.zero = template.zero
        self.backward_compute_multiplier = \
            template.backward_compute_multiplier
        self.backward_comm_ratio = template.backward_comm_ratio
        self.optimizer_macs_per_parameter = \
            template.optimizer_macs_per_parameter
        self.moe_volume_multiplier = template.moe_volume_multiplier
        self.moe_tp_sharding = template.moe_tp_sharding
        self.include_embeddings = template.include_embeddings
        self.concurrent_stage_comm = template.concurrent_stage_comm
        self.bubble_model = template.bubble_model
        if self.bubble_model not in BUBBLE_MODELS:
            # The reference path surfaces this from bubble_time() on the
            # first transformer layer; the compiled path never calls it,
            # so raise the identical error at build time instead.
            raise ConfigurationError(
                f"bubble model must be one of {BUBBLE_MODELS}, got "
                f"{self.bubble_model!r}")
        self.exposed = 1.0 - template.comm_overlap_fraction
        self.explicit_zero = (template.zero_explicit_comm
                              and template.zero.shards_parameters)
        self.zero_forward_overhead = (
            0.0 if self.explicit_zero
            else template.zero.communication_overhead)
        self.forward_scale = 1.0 + self.zero_forward_overhead

        operations = build_operations(self.model, self.global_batch,
                                      self.include_embeddings)
        #: ``(representative, multiplicity, gradient-table, zero-table,
        #: compute-table)`` per structural layer class, in
        #: ``layer_classes`` order (the combiner adds in this order).
        self.classes: List[tuple] = [
            (cls.representative, float(cls.multiplicity), {}, {}, {})
            for cls in operations.layer_classes]

        # Term tables keyed by the minimal keys of collectives/keys.py.
        self._eff: Dict[tuple, float] = {}
        self._tp_intra: Dict[tuple, float] = {}
        self._tp_inter: Dict[tuple, float] = {}
        self._pp: Dict[tuple, float] = {}
        self._moe: Dict[tuple, float] = {}
        self._bubble_prefactor: Dict[tuple, float] = {}
        #: The memory screen, keyed ``(tp, pp, dp, N_ub)``; outside the
        #: hit-rate accounting, since it is no term of Eq. 1.
        self._fits: Dict[tuple, bool] = {}

        # Hit-rate accounting (cache.compiled.* gauges): lookups are
        # counted per combine in one add; misses at the fill sites.
        self._lookups = 0
        self._misses = 0
        #: Lookups per combine: eff + bubble prefactor + per class
        #: (compute, gradient[, zero]) + per transformer class
        #: (tp_intra, tp_inter, pp[, moe]).
        self._lookups_per_eval = 2 + len(self.classes) * (
            3 if self.explicit_zero else 2) + sum(
            3 + (1 if layer.is_moe else 0)
            for layer, *_ in self.classes if layer.index >= 0)
        #: The sweep's validated CommEnvironment, built on first use.
        self._env_base: Optional[CommEnvironment] = None

    # -- misses: reference-function calls -------------------------------------

    def _environment(self, spec: ParallelismSpec) -> CommEnvironment:
        """The exact environment ``estimate_batch`` would build.

        Every field but the mapping is a sweep constant, so the first
        call builds and validates one environment and later calls copy
        it with ``spec`` swapped in, as ``ParallelismSpec._copy_with``
        does (``spec`` itself was validated when it was built).
        """
        base = self._env_base
        if base is None:
            base = self._env_base = CommEnvironment(
                system=self.system,
                parallelism=spec,
                precision=self.precision,
                intra_topology=self.intra_topology,
                inter_topology=self.inter_topology,
                moe_topology=self.moe_topology,
                zero_forward_overhead=self.zero_forward_overhead,
                moe_volume_multiplier=self.moe_volume_multiplier,
                moe_tp_sharding=self.moe_tp_sharding,
            )
            return base
        env = object.__new__(CommEnvironment)
        env.__dict__.update(base.__dict__)
        env.__dict__["parallelism"] = spec
        return env

    # -- the combiner ----------------------------------------------------------

    def _combine(self, spec: ParallelismSpec, eff: float,
                 include_bubble: bool = True) -> tuple:
        """Eq. 1's component totals for one candidate, from the tables.

        One pass over the layer classes in a fixed order, with the
        per-term arithmetic of the per-layer reference walk scaled by
        each class's multiplicity.  With ``include_bubble`` off the
        bubble total stays 0.0 (the lower bound charges no idle time).
        """
        tp_i = spec.tp_intra
        tp_x = spec.tp_inter
        dp_i = spec.dp_intra
        dp_x = spec.dp_inter
        ep = spec.expert_parallel
        tp = tp_i * tp_x
        pp = spec.pp_intra * spec.pp_inter
        dp = dp_i * dp_x
        workers = spec.world_size
        stage_share = pp if self.concurrent_stage_comm else 1
        exposed = self.exposed
        ratio = exposed / stage_share
        bcr = self.backward_comm_ratio
        scale = 1.0 + bcr
        fwd_scale = self.forward_scale
        env: Optional[CommEnvironment] = None
        replica_batch = 0.0

        if include_bubble:
            n_ub = spec.microbatches
            bubble_k = (pp, n_ub, spec.bubble_overlap_ratio)
            pref = self._bubble_prefactor.get(bubble_k)
            if pref is None:
                self._misses += 1
                pref = bubble_prefactor(pp, n_ub,
                                        spec.bubble_overlap_ratio)
                self._bubble_prefactor[bubble_k] = pref
        else:
            pref = 0.0
        eq8 = self.bubble_model == "eq8"
        n_layers = self.model.n_layers

        cf = cb = cw = 0.0
        c_tpi = c_tpx = c_pp = c_moe = 0.0
        g_intra = g_inter = c_zero = bub = 0.0

        for layer, weight, grad_table, zero_table, compute_table \
                in self.classes:
            triple = compute_table.get(eff)
            if triple is None:
                self._misses += 1
                triple = (
                    forward_compute_time(layer, self.accelerator,
                                         self.precision, eff),
                    backward_compute_time(
                        layer, self.accelerator, self.precision, eff,
                        self.backward_compute_multiplier),
                    weight_update_time(
                        layer, self.accelerator, self.precision, eff,
                        self.optimizer_macs_per_parameter))
                compute_table[eff] = triple
            u_f, u_b, u_w = triple
            cf += weight * u_f / workers
            cb += weight * u_b / workers
            cw += weight * u_w / workers

            grad_k = (tp, dp_i, dp_x, ep)
            grad = grad_table.get(grad_k)
            if grad is None:
                self._misses += 1
                if env is None:
                    env = self._environment(spec)
                components = gradient_comm_components(
                    env, layer.gradient_parameters(ep))
                grad = (components["intra"], components["inter"])
                grad_table[grad_k] = grad
            g_intra += weight * grad[0] / stage_share * exposed
            g_inter += weight * grad[1] / stage_share * exposed

            if self.explicit_zero:
                gather = zero_table.get(grad_k)
                if gather is None:
                    self._misses += 1
                    if env is None:
                        env = self._environment(spec)
                    gather = zero_gather_time(
                        env, layer.gradient_parameters(ep))
                    zero_table[grad_k] = gather
                c_zero += weight * 2.0 * gather / stage_share * exposed

            if layer.index < 0:
                continue  # embedding pseudo-layer: no TP/PP/MoE/bubble

            key = (tp_i, dp)
            v_tpi = self._tp_intra.get(key)
            if v_tpi is None:
                self._misses += 1
                if env is None:
                    env = self._environment(spec)
                if not replica_batch:
                    replica_batch = replica_batch_size(
                        self.global_batch, spec)
                v_tpi = fwd_scale * tp_comm_time(
                    env, self.model, replica_batch, "intra")
                self._tp_intra[key] = v_tpi

            key = (tp_i, tp_x, dp)
            v_tpx = self._tp_inter.get(key)
            if v_tpx is None:
                self._misses += 1
                if env is None:
                    env = self._environment(spec)
                if not replica_batch:
                    replica_batch = replica_batch_size(
                        self.global_batch, spec)
                v_tpx = fwd_scale * tp_comm_time(
                    env, self.model, replica_batch, "inter")
                self._tp_inter[key] = v_tpx

            key = (spec.pp_intra > 1, spec.pp_inter > 1, dp)
            v_pp = self._pp.get(key)
            if v_pp is None:
                self._misses += 1
                if env is None:
                    env = self._environment(spec)
                if not replica_batch:
                    replica_batch = replica_batch_size(
                        self.global_batch, spec)
                v_pp = fwd_scale * max(
                    pp_comm_time(env, self.model, replica_batch,
                                 "intra"),
                    pp_comm_time(env, self.model, replica_batch,
                                 "inter"))
                self._pp[key] = v_pp

            if layer.is_moe:
                key = (tp, dp, ep)
                v_moe = self._moe.get(key)
                if v_moe is None:
                    self._misses += 1
                    if env is None:
                        env = self._environment(spec)
                    if not replica_batch:
                        replica_batch = replica_batch_size(
                            self.global_batch, spec)
                    moe = (moe_comm_time(env, self.model, replica_batch)
                           if ep else 0.0)
                    v_moe = fwd_scale * moe
                    self._moe[key] = v_moe
            else:
                v_moe = 0.0

            # estimate_batch scales the component dict in place, then
            # sums it in insertion order — replayed exactly here.
            a = v_tpi * ratio
            b = v_tpx * ratio
            c = v_moe * ratio
            d = v_pp * exposed
            m_f = a + b + d + c
            m_b = m_f * bcr
            c_tpi += weight * a * scale
            c_tpx += weight * b * scale
            c_pp += weight * d * scale
            c_moe += weight * c * scale
            if pref and pp > 1:
                divisor = tp * dp * pp
                if eq8:
                    divisor *= n_layers
                step = (u_f + u_b) / divisor + m_b + m_f
                bub += weight * (pref * step)

        self._lookups += self._lookups_per_eval
        return (cf, cb, cw, c_tpi, c_tpx, c_pp, c_moe,
                g_intra, g_inter, c_zero, bub)

    # -- public evaluation API -------------------------------------------------

    def _efficiency_for(self, spec: ParallelismSpec) -> float:
        """``eff(ub)`` for the candidate (raises the same
        :class:`MappingError` the reference path would for ub < 1)."""
        key = (spec.dp, spec.microbatches)
        eff = self._eff.get(key)
        if eff is None:
            # Infeasible keys raise here (microbatch below one sequence)
            # and are never memoized, so a table hit is always feasible.
            self._misses += 1
            eff = self.efficiency(microbatch_size(self.global_batch,
                                                  spec))
            self._eff[key] = eff
        return eff

    def component_totals(self, spec: ParallelismSpec) -> dict:
        """Eq. 1's component totals, keyed like the breakdown fields."""
        totals = self._combine(spec, self._efficiency_for(spec))
        return dict(zip(COMPONENT_NAMES, totals))

    def breakdown(self, spec: ParallelismSpec) -> TrainingTimeBreakdown:
        """The candidate's breakdown (what ``estimate_batch`` returns
        on the default path)."""
        return TrainingTimeBreakdown(**self.component_totals(spec))

    def batch_time(self, spec: ParallelismSpec) -> Seconds:
        """The candidate's batch time, bit-identical to
        ``estimate_batch(global_batch).total`` on the default path —
        including raising the same errors for infeasible microbatches
        and non-finite components."""
        totals = self._combine(spec, self._efficiency_for(spec))
        total = _total_of(totals)
        if not math.isfinite(total):
            # The reference path surfaces non-finite components as the
            # breakdown's ConfigurationError; replay it exactly (and
            # fall through when only the *sum* overflowed, which the
            # reference path returns as an inf total).
            TrainingTimeBreakdown(**dict(zip(COMPONENT_NAMES, totals)))
        return total

    def best_microbatch(self, spec: ParallelismSpec,
                        candidates: Optional[Iterable[int]] = None
                        ) -> Tuple[ParallelismSpec, float]:
        """Pick the ``N_ub`` minimizing batch time — selection,
        tie-breaking and failure semantics identical to
        :func:`repro.search.tuning.optimize_microbatches`."""
        if candidates is None:
            candidates = candidate_microbatch_counts(spec,
                                                     self.global_batch)
        best: Optional[Tuple[ParallelismSpec, float]] = None
        last_error = None
        last_n_ub: Optional[int] = None
        for n_ub in candidates:
            tuned = spec.with_microbatches(n_ub)
            try:
                batch_time = self.batch_time(tuned)
            except MappingError as error:
                last_error, last_n_ub = error, n_ub
                continue
            if not math.isfinite(batch_time):
                last_error = MappingError(
                    f"batch time is non-finite ({batch_time!r})")
                last_n_ub = n_ub
                continue
            if best is None or batch_time < best[1]:
                best = (tuned, batch_time)
        if best is None:
            if last_error is None:
                raise MappingError(
                    f"no feasible microbatch count for batch "
                    f"{self.global_batch} under {spec.describe()}")
            raise _with_failing_n_ub(last_error, last_n_ub) \
                from last_error
        return best

    def lower_bound(self, spec: ParallelismSpec,
                    tune_microbatches: bool = True) -> float:
        """Admissible compute + communication lower bound on the
        candidate's achievable batch time (no bubble charged).

        Raises :class:`MappingError` when no candidate microbatch
        count is feasible, exactly like
        :func:`repro.search.dse.compute_lower_bound`.
        """
        if tune_microbatches:
            n_ubs: Iterable[int] = candidate_microbatch_counts(
                spec, self.global_batch)
        else:
            n_ubs = (spec.microbatches,)
        best_eff = 0.0
        dp = spec.dp
        for n_ub in n_ubs:
            microbatch = self.global_batch / (dp * n_ub)
            if microbatch >= 1:
                key = (dp, n_ub)
                eff = self._eff.get(key)
                if eff is None:
                    self._misses += 1
                    eff = self.efficiency(microbatch)
                    self._eff[key] = eff
                best_eff = max(best_eff, eff)
        if best_eff <= 0.0:
            raise MappingError(
                f"no feasible microbatch count for batch "
                f"{self.global_batch} under {spec.describe()}: every "
                f"candidate N_ub dices the batch below one sequence")
        totals = self._combine(spec, best_eff, include_bubble=False)
        return _total_of(totals)

    # -- batch-fill accessors (vectorized backend) -----------------------------
    #
    # The NumPy backend (:mod:`repro.search.vectorized`) projects a whole
    # candidate chunk to key indices and needs one value per *distinct*
    # key.  These accessors fill exactly the entry `_combine` would fill
    # — same key layout, same reference-function call, same stored value
    # — into the *same* dict tables, so the scalar and the vectorized
    # paths always read identical numbers.

    def efficiency_for(self, spec: ParallelismSpec) -> float:
        """Public face of the efficiency table: ``eff(ub)`` for the
        candidate, raising :class:`MappingError` for ub < 1."""
        return self._efficiency_for(spec)

    def fits_for(self, spec: ParallelismSpec, n_ub: int) -> bool:
        """Whether ``spec`` at ``n_ub`` microbatches passes the memory
        screen: False when the microbatch falls below one sequence
        (the screen never admits those), else
        :func:`~repro.memory.constraints.fits_in_memory`."""
        key = (spec.tp, spec.pp, spec.dp, n_ub)
        fits = self._fits.get(key)
        if fits is None:
            microbatch = self.global_batch / (spec.dp * n_ub)
            fits = microbatch >= 1 and fits_in_memory(
                self.model, spec.with_microbatches(n_ub), microbatch,
                self.precision, self.accelerator, self.zero)
            self._fits[key] = fits
        return fits

    def bubble_prefactor_for(self, pp: int, n_ub: int,
                             overlap_ratio: float) -> float:
        """The bubble prefactor for key ``(pp, n_ub, overlap_ratio)``."""
        bubble_k = (pp, n_ub, overlap_ratio)
        pref = self._bubble_prefactor.get(bubble_k)
        if pref is None:
            self._misses += 1
            pref = bubble_prefactor(pp, n_ub, overlap_ratio)
            self._bubble_prefactor[bubble_k] = pref
        return pref

    def compute_triples_for(self, eff: float) -> List[tuple]:
        """Per-class ``(U_f, U_b, U_w)`` triples at efficiency ``eff``,
        in class order."""
        triples = []
        for layer, _, _, _, compute_table in self.classes:
            triple = compute_table.get(eff)
            if triple is None:
                self._misses += 1
                triple = (
                    forward_compute_time(layer, self.accelerator,
                                         self.precision, eff),
                    backward_compute_time(
                        layer, self.accelerator, self.precision, eff,
                        self.backward_compute_multiplier),
                    weight_update_time(
                        layer, self.accelerator, self.precision, eff,
                        self.optimizer_macs_per_parameter))
                compute_table[eff] = triple
            triples.append(triple)
        return triples

    def gradient_pairs_for(self, spec: ParallelismSpec) -> List[tuple]:
        """Per-class gradient ``(intra, inter)`` pairs for the
        candidate's gradient key, in class order."""
        grad_k = (spec.tp, spec.dp_intra, spec.dp_inter,
                  spec.expert_parallel)
        env: Optional[CommEnvironment] = None
        pairs = []
        for layer, _, grad_table, _, _ in self.classes:
            grad = grad_table.get(grad_k)
            if grad is None:
                self._misses += 1
                if env is None:
                    env = self._environment(spec)
                components = gradient_comm_components(
                    env, layer.gradient_parameters(spec.expert_parallel))
                grad = (components["intra"], components["inter"])
                grad_table[grad_k] = grad
            pairs.append(grad)
        return pairs

    def zero_gathers_for(self, spec: ParallelismSpec) -> List[float]:
        """Per-class explicit ZeRO-3 gather times for the candidate's
        gradient key (meaningful only when ``explicit_zero``)."""
        grad_k = (spec.tp, spec.dp_intra, spec.dp_inter,
                  spec.expert_parallel)
        env: Optional[CommEnvironment] = None
        gathers = []
        for layer, _, _, zero_table, _ in self.classes:
            gather = zero_table.get(grad_k)
            if gather is None:
                self._misses += 1
                if env is None:
                    env = self._environment(spec)
                gather = zero_gather_time(
                    env, layer.gradient_parameters(spec.expert_parallel))
                zero_table[grad_k] = gather
            gathers.append(gather)
        return gathers

    def tp_intra_for(self, spec: ParallelismSpec) -> float:
        """The scaled intra-node TP term for key ``(tp_intra, dp)``."""
        key = (spec.tp_intra, spec.dp)
        value = self._tp_intra.get(key)
        if value is None:
            self._misses += 1
            value = self.forward_scale * tp_comm_time(
                self._environment(spec), self.model,
                replica_batch_size(self.global_batch, spec), "intra")
            self._tp_intra[key] = value
        return value

    def tp_inter_for(self, spec: ParallelismSpec) -> float:
        """The scaled inter-node TP term for key
        ``(tp_intra, tp_inter, dp)``."""
        key = (spec.tp_intra, spec.tp_inter, spec.dp)
        value = self._tp_inter.get(key)
        if value is None:
            self._misses += 1
            value = self.forward_scale * tp_comm_time(
                self._environment(spec), self.model,
                replica_batch_size(self.global_batch, spec), "inter")
            self._tp_inter[key] = value
        return value

    def pp_for(self, spec: ParallelismSpec) -> float:
        """The scaled PP term for key ``(pp_intra>1, pp_inter>1, dp)``."""
        key = (spec.pp_intra > 1, spec.pp_inter > 1, spec.dp)
        value = self._pp.get(key)
        if value is None:
            self._misses += 1
            env = self._environment(spec)
            replica_batch = replica_batch_size(self.global_batch, spec)
            value = self.forward_scale * max(
                pp_comm_time(env, self.model, replica_batch, "intra"),
                pp_comm_time(env, self.model, replica_batch, "inter"))
            self._pp[key] = value
        return value

    def moe_for(self, spec: ParallelismSpec) -> float:
        """The scaled MoE term for key ``(tp, dp, expert_parallel)``."""
        key = (spec.tp, spec.dp, spec.expert_parallel)
        value = self._moe.get(key)
        if value is None:
            self._misses += 1
            env = self._environment(spec)
            replica_batch = replica_batch_size(self.global_batch, spec)
            moe = (moe_comm_time(env, self.model, replica_batch)
                   if spec.expert_parallel else 0.0)
            value = self.forward_scale * moe
            self._moe[key] = value
        return value

    def stats(self) -> Dict[str, int]:
        """Table sizes and hit-rate counters for ``cache.compiled.*``."""
        entries = (len(self._eff) + len(self._tp_intra)
                   + len(self._tp_inter) + len(self._pp) + len(self._moe)
                   + len(self._bubble_prefactor))
        for _, _, grad_table, zero_table, compute_table in self.classes:
            entries += (len(grad_table) + len(zero_table)
                        + len(compute_table))
        return {
            "lookups": self._lookups,
            "misses": self._misses,
            "hits": max(0, self._lookups - self._misses),
            "entries": entries,
        }


def _total_of(totals: tuple) -> float:
    """``TrainingTimeBreakdown.total`` replayed on a component tuple,
    association for association."""
    (cf, cb, cw, c_tpi, c_tpx, c_pp, c_moe,
     g_intra, g_inter, c_zero, bub) = totals
    compute_time = cf + cb + cw
    comm_time = ((c_tpi + c_tpx) + c_pp + c_moe
                 + (g_intra + g_inter) + c_zero)
    return compute_time + comm_time + bub


# ---------------------------------------------------------------------------
# Process-wide compiled-sweep cache
# ---------------------------------------------------------------------------

_CACHE_LOCK = threading.Lock()
_CACHE: "OrderedDict[tuple, CompiledSweep]" = OrderedDict()
_STATS = {"builds": 0, "hits": 0, "misses": 0, "uncached": 0}


def _reset_cache_lock_after_fork() -> None:
    """Rebind a fresh cache lock in forked children.

    A fork can land while another thread holds ``_CACHE_LOCK``; the
    child would then inherit a lock that is locked forever and deadlock
    on its first ``compile_sweep`` call.  The inherited cache contents
    themselves are safe (a warm copy)."""
    global _CACHE_LOCK
    _CACHE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # absent on some platforms
    os.register_at_fork(after_in_child=_reset_cache_lock_after_fork)


def compile_sweep(template: "AMPeD", global_batch: int) -> CompiledSweep:
    """The compiled sweep for ``(template, global_batch)``.

    Sweeps are identified by :meth:`repro.core.model.AMPeD.sweep_identity`
    (everything except the mapping), so every candidate evaluation of
    one sweep — across ``explore``, the pruner and microbatch tuning —
    shares one table set.  Unhashable templates (e.g. a closure-backed
    efficiency fit) fall back to an uncached build.
    """
    try:
        key = (template.sweep_identity(), int(global_batch))
        hash(key)
    except TypeError:
        with _CACHE_LOCK:
            _STATS["uncached"] += 1
            _STATS["builds"] += 1
        return CompiledSweep(template, global_batch)
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE.move_to_end(key)
            _STATS["hits"] += 1
            return cached
        _STATS["misses"] += 1
    compiled = CompiledSweep(template, global_batch)
    with _CACHE_LOCK:
        _STATS["builds"] += 1
        _CACHE[key] = compiled
        while len(_CACHE) > MAX_CACHED_SWEEPS:
            _CACHE.popitem(last=False)
    return compiled


def compiled_cache_stats() -> Dict[str, int]:
    """Build/hit counters of the compiled-sweep cache plus aggregate
    table statistics across cached instances (folded into
    ``cache.compiled.*`` gauges by
    :func:`repro.obs.metrics.collect_cache_metrics`)."""
    with _CACHE_LOCK:
        stats = dict(_STATS)
        instances = list(_CACHE.values())
    tables = {"lookups": 0, "misses": 0, "hits": 0, "entries": 0}
    for compiled in instances:
        for name, value in compiled.stats().items():
            tables[name] += value
    stats["cached_sweeps"] = len(instances)
    for name, value in tables.items():
        stats[f"table_{name}"] = value
    return stats


def clear_compiled_cache() -> None:
    """Drop every cached compiled sweep and reset the counters."""
    with _CACHE_LOCK:
        _CACHE.clear()
        for name in _STATS:
            _STATS[name] = 0
