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

**Bit-exactness contract.**  Compute entries call the estimator
functions the per-layer reference walk of
:meth:`repro.core.model.AMPeD.estimate_batch` calls
(:func:`~repro.core.compute.forward_compute_time`, ...), once per
structural layer class, weighted by the class multiplicity.  The
communication and bubble entries come from one term function per table
(:meth:`CompiledSweep.tp_intra_term`, ...), which replays its reference
function (:func:`~repro.core.communication.tp_comm_time`, ...,
:func:`~repro.pipeline.schedule.bubble_prefactor`) operation for
operation on Python floats or float64 columns alike, so a key's entry
is bit-identical whether the scalar accessor or the NumPy batch fill
made it (``tests/search/test_batch_fill.py`` checks both against the
reference functions).  A table filled by a whole sweep therefore
answers every candidate exactly as a table filled for that candidate
alone, and the result equals ``"per_layer"`` within floating-point
associativity (``<= 1e-9`` relative, enforced by the property suite).

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

import functools
import math
import os
import threading
from collections import OrderedDict
from itertools import repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.breakdown import TrainingTimeBreakdown
from repro.core.bubbles import BUBBLE_MODELS
from repro.core.compute import (
    backward_compute_time,
    forward_compute_time,
    weight_update_time,
)
from repro.core.operations import build_operations
from repro.errors import ConfigurationError, MappingError
from repro.memory.constraints import fits_in_memory
from repro.parallelism.microbatch import microbatch_size
from repro.parallelism.spec import ParallelismSpec
from repro.parallelism.topology import CollectiveTopology
from repro.search.tuning import _with_failing_n_ub, candidate_microbatch_counts
from repro.units import Bits, Seconds

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
    batch) sweep.  Tables fill lazily, once per distinct minimal key, in
    the process that evaluates them (every serve fleet worker builds
    its own).
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

        # CommEnvironment's one check that no caller has already made.
        if self.moe_volume_multiplier <= 0:
            raise ConfigurationError(
                f"moe_volume_multiplier must be positive, got "
                f"{self.moe_volume_multiplier}")
        self.intra_link = self.system.node.intra_link
        self.inter_link = self.system.node.effective_inter_link

        operations = build_operations(self.model, self.global_batch,
                                      self.include_embeddings)
        #: ``(representative, multiplicity, gradient-table, zero-table,
        #: compute-table)`` per structural layer class, in
        #: ``layer_classes`` order (the combiner adds in this order).
        self.classes: List[tuple] = [
            (cls.representative, float(cls.multiplicity), {}, {}, {})
            for cls in operations.layer_classes]
        #: ``(multiplicity, is_transformer, is_moe)`` per layer class,
        #: in class order: what :meth:`assemble` weighs each class by.
        self.class_meta: List[Tuple[float, bool, bool]] = [
            (weight, layer.index >= 0, layer.is_moe)
            for layer, weight, *_ in self.classes]
        #: The per-class gradient and ZeRO-3 tables, in class order.
        self.grad_tables: List[dict] = [grad for _, _, grad, _, _
                                        in self.classes]
        self.zero_tables: List[dict] = [zero for _, _, _, zero, _
                                        in self.classes]
        #: Per class, the parameters the DP collectives move with and
        #: without expert parallelism.
        self._dp_parameters = [(layer.gradient_parameters(True),
                                layer.gradient_parameters(False))
                               for layer, *_ in self.classes]
        self._has_moe = any(is_moe for *_, is_moe in self.class_meta)
        #: Eq. 8's extra step divisor: the layer count under ``"eq8"``.
        self.bubble_layers = (self.model.n_layers
                              if self.bubble_model == "eq8" else 1)

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
        #: Lookups per combine, as the per-layer walk reads terms: eff +
        #: bubble prefactor + per class (compute, gradient[, zero]) +
        #: per transformer class (tp_intra, tp_inter, pp[, moe]).
        self._lookups_per_eval = 2 + len(self.classes) * (
            3 if self.explicit_zero else 2) + sum(
            3 + (1 if layer.is_moe else 0)
            for layer, *_ in self.classes if layer.index >= 0)

    # -- the term functions: Eqs. 6-11 over the minimal keys ------------------
    #
    # Each takes its table's key fields, as Python scalars or NumPy
    # columns, and returns ``(values, ok)``: one value per table (per
    # layer class for the per-class terms), and whether the topology
    # calls succeeded.  Only ``+ - * /`` touch the values; the steps
    # that differ between scalars and columns (degree-1 gates, the PP
    # ``max``, the topology's own ``steps(n)``/``factor(n)``) come
    # from ``ops``: :data:`SCALAR_OPS`, or the batch fill's NumPy ones.

    def _collective(self, link, steps, factor, n_values, bits):
        """``_collective_time``: ``C * steps + N * S / BW * T``."""
        return (link.latency_s * steps
                + n_values * bits / link.bandwidth_bits_per_s * factor)

    def _tp_term(self, n, shard, dp, link, topology, ops) -> tuple:
        """Eq. 6 at one level, ZeRO factor applied."""
        steps, factor, ok = ops.topology(topology, n)
        n_act = 2.0 * (self.global_batch / dp) * self.model.sequence_length \
            * self.model.hidden_size / shard
        value = self.forward_scale * self._collective(
            link, steps, factor, n_act, self.precision.activation_bits)
        return [ops.where(n > 1, value, 0.0)], ok

    def tp_intra_term(self, tp_intra, dp, ops) -> tuple:
        return self._tp_term(tp_intra, 1, dp, self.intra_link,
                             self.intra_topology, ops)

    def tp_inter_term(self, tp_intra, tp_inter, dp, ops) -> tuple:
        return self._tp_term(tp_inter, tp_intra, dp, self.inter_link,
                             self.inter_topology, ops)

    def pp_term(self, intra, inter, dp, ops) -> tuple:
        """Eq. 7: the slower level with more than one stage, scaled."""
        n_bits = (self.global_batch / dp * self.model.sequence_length
                  * self.model.hidden_size * self.precision.activation_bits)
        levels = [ops.where(gate, (link.latency_s + n_bits
                                   / link.bandwidth_bits_per_s)
                            / self.model.n_layers, 0.0)
                  for gate, link in ((intra, self.intra_link),
                                     (inter, self.inter_link))]
        return [self.forward_scale * ops.maximum(*levels)], True

    def moe_term(self, tp, dp, expert_parallel, ops) -> tuple:
        """Eq. 9 when experts are sharded over nodes, scaled."""
        n_nodes = self.system.n_nodes
        nodes = ops.where(expert_parallel, n_nodes, 1)
        _, factor, ok = ops.topology(self.moe_topology, nodes, False)
        n_act = (self.global_batch / dp * self.model.sequence_length
                 * self.model.hidden_size * self.moe_volume_multiplier)
        if self.moe_tp_sharding:
            n_act = n_act / tp
        latency = 2.0 * self.inter_link.latency_s * factor * n_nodes
        volume = 2.0 * n_act * self.precision.activation_bits * factor * (
            1.0 / (n_nodes * self.intra_link.bandwidth_bits_per_s)
            + (n_nodes - 1.0)
            / (n_nodes * self.inter_link.bandwidth_bits_per_s))
        return [ops.where(nodes > 1, self.forward_scale * (latency + volume),
                          0.0)], ok

    def gradient_term(self, tp, dp_intra, dp_inter, expert_parallel,
                      ops, bits: Optional[Bits] = None) -> tuple:
        """Eqs. 10-11: per class, the ``(intra, inter)`` all-reduce of
        the layer's TP-sharded gradients (of ``bits``-wide values)."""
        intra = ops.topology(self.intra_topology, dp_intra)
        inter = ops.topology(self.inter_topology, dp_inter)
        if bits is None:
            bits = self.precision.gradient_bits
        pairs = []
        for with_experts, without in self._dp_parameters:
            n_values = ops.where(expert_parallel, with_experts,
                                 without) / tp
            pairs.append((
                ops.where(dp_intra > 1, self._collective(
                    self.intra_link, *intra[:2], n_values, bits), 0.0),
                ops.where(dp_inter > 1, self._collective(
                    self.inter_link, *inter[:2], n_values / dp_intra,
                    bits), 0.0)))
        return pairs, intra[2] & inter[2]

    def zero_term(self, tp, dp_intra, dp_inter, expert_parallel,
                  ops) -> tuple:
        """Explicit ZeRO-3: per class, one all-gather of the layer's
        parameters, half an all-reduce at each level."""
        pairs, ok = self.gradient_term(tp, dp_intra, dp_inter,
                                       expert_parallel, ops,
                                       self.precision.parameter_bits)
        return [0.5 * intra + 0.5 * inter for intra, inter in pairs], ok

    @staticmethod
    def bubble_term(pp, n_ub, overlap_ratio, ops) -> tuple:
        """Eq. 8's prefactor ``R (N_PP - 1) / N_ub``."""
        return [ops.where(pp > 1, overlap_ratio * (pp - 1) / n_ub,
                          0.0)], True

    # -- the term tables: one fill per table ----------------------------------
    #
    # Each accessor owns one table's key layout and fills a miss through
    # its term function; the NumPy backend fills a batch's missing keys
    # through the same functions, as columns, into the same tables.

    def _fill_key(self, tables: List[dict], key: tuple, term) -> None:
        self._misses += len(tables)
        for table, value in zip(tables, term(*key, SCALAR_OPS)[0]):
            table[key] = value

    def _efficiency_at(self, dp: int, n_ub: int) -> Optional[float]:
        """``eff(ub)`` for key ``(dp, N_ub)``, or ``None`` when the
        microbatch falls below one sequence (never memoized, so a table
        hit is always feasible)."""
        key = (dp, n_ub)
        eff = self._eff.get(key)
        if eff is None:
            microbatch = self.global_batch / (dp * n_ub)
            if microbatch < 1:
                return None
            self._misses += 1
            eff = self._eff[key] = self.efficiency(microbatch)
        return eff

    def efficiency_for(self, spec: ParallelismSpec) -> float:
        """``eff(ub)`` for the candidate, raising the same
        :class:`MappingError` the reference path would for ub < 1."""
        eff = self._efficiency_at(spec.dp, spec.microbatches)
        if eff is None:
            # ub < 1: raise the reference path's MappingError verbatim.
            microbatch_size(self.global_batch, spec)
        return eff

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
        key = (pp, n_ub, overlap_ratio)
        if key not in self._bubble_prefactor:
            self._fill_key([self._bubble_prefactor], key, self.bubble_term)
        return self._bubble_prefactor[key]

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
        key = (spec.tp, spec.dp_intra, spec.dp_inter, spec.expert_parallel)
        if key not in self.grad_tables[0]:
            self._fill_key(self.grad_tables, key, self.gradient_term)
        return [table[key] for table in self.grad_tables]

    def zero_gathers_for(self, spec: ParallelismSpec) -> List[float]:
        """Per-class explicit ZeRO-3 gather times for the candidate's
        gradient key (meaningful only when ``explicit_zero``)."""
        key = (spec.tp, spec.dp_intra, spec.dp_inter, spec.expert_parallel)
        if key not in self.zero_tables[0]:
            self._fill_key(self.zero_tables, key, self.zero_term)
        return [table[key] for table in self.zero_tables]

    def tp_intra_for(self, spec: ParallelismSpec) -> float:
        """The scaled intra-node TP term for key ``(tp_intra, dp)``."""
        key = (spec.tp_intra, spec.dp)
        if key not in self._tp_intra:
            self._fill_key([self._tp_intra], key, self.tp_intra_term)
        return self._tp_intra[key]

    def tp_inter_for(self, spec: ParallelismSpec) -> float:
        """The scaled inter-node TP term for key
        ``(tp_intra, tp_inter, dp)``."""
        key = (spec.tp_intra, spec.tp_inter, spec.dp)
        if key not in self._tp_inter:
            self._fill_key([self._tp_inter], key, self.tp_inter_term)
        return self._tp_inter[key]

    def pp_for(self, spec: ParallelismSpec) -> float:
        """The scaled PP term for key ``(pp_intra>1, pp_inter>1, dp)``."""
        key = (spec.pp_intra > 1, spec.pp_inter > 1, spec.dp)
        if key not in self._pp:
            self._fill_key([self._pp], key, self.pp_term)
        return self._pp[key]

    def moe_for(self, spec: ParallelismSpec) -> float:
        """The scaled MoE term for key ``(tp, dp, expert_parallel)``."""
        key = (spec.tp, spec.dp, spec.expert_parallel)
        if key not in self._moe:
            self._fill_key([self._moe], key, self.moe_term)
        return self._moe[key]

    # -- Eq. 1 -------------------------------------------------------------------

    def assemble(self, computes: Iterable, grads: Iterable,
                 gathers: Optional[Iterable], tp_intra, tp_inter, pp,
                 moe, workers, stage_share, pref=None, divisor=None,
                 zero=0.0) -> tuple:
        """Eq. 1's component totals, in :data:`COMPONENT_NAMES` order.

        Each term is a Python float (one candidate, from
        :meth:`_combine`) or a float64 column with one value per lane
        (:class:`repro.search.vectorized.BoundBatch`).  ``computes``,
        ``grads`` and ``gathers`` hold each layer class's ``(U_f, U_b,
        U_w)``, ``(intra, inter)`` gradient and ZeRO-3 gather terms
        (``gathers`` is ``None`` without explicit ZeRO); the rest are
        per candidate, and the accumulators start at ``zero``.  Only
        ``+ - * /`` touch the terms, and NumPy's elementwise float64
        ops round like Python's, so both callers get bit-identical
        sums.  The associations are those of the per-layer walk in
        ``estimate_batch``, class by class, scaled by each class's
        multiplicity.  The bubble is summed only when ``pref`` is
        given, and ungated: whether Eq. 8 charges it (``pref`` non-zero
        and more than one stage) depends on the candidate alone, so
        the caller applies that gate to the sum.
        """
        exposed = self.exposed
        bcr = self.backward_comm_ratio
        scale = 1.0 + bcr
        ratio = exposed / stage_share
        a = tp_intra * ratio
        b = tp_inter * ratio
        d = pp * exposed
        ab_d = (a + b) + d
        moe_term = moe * ratio

        cf = cb = cw = c_tpi = c_tpx = c_pp = c_moe = zero
        g_intra = g_inter = c_zero = bub = zero
        for (weight, is_transformer, is_moe), (u_f, u_b, u_w), \
                (grad_intra, grad_inter), gather in zip(
                    self.class_meta, computes, grads,
                    repeat(None) if gathers is None else gathers):
            cf = cf + weight * u_f / workers
            cb = cb + weight * u_b / workers
            cw = cw + weight * u_w / workers
            g_intra = g_intra + weight * grad_intra / stage_share * exposed
            g_inter = g_inter + weight * grad_inter / stage_share * exposed
            if gather is not None:
                c_zero = c_zero + weight * 2.0 * gather / stage_share \
                    * exposed

            if not is_transformer:
                continue  # embedding pseudo-layer: no TP/PP/MoE/bubble
            c = moe_term if is_moe else 0.0
            m_f = ab_d + c
            m_b = m_f * bcr
            c_tpi = c_tpi + weight * a * scale
            c_tpx = c_tpx + weight * b * scale
            c_pp = c_pp + weight * d * scale
            c_moe = c_moe + weight * c * scale
            if pref is not None:
                step = (u_f + u_b) / divisor + m_b + m_f
                bub = bub + weight * (pref * step)

        return (cf, cb, cw, c_tpi, c_tpx, c_pp, c_moe,
                g_intra, g_inter, c_zero, bub)

    def mapping_terms(self, spec: ParallelismSpec) -> tuple:
        """The terms keyed on the mapping alone, which no ``N_ub``
        changes, in :meth:`assemble`'s order: per-class gradient pairs
        and ZeRO-3 gathers (``None`` without explicit ZeRO), then the TP
        intra, TP inter, PP and MoE terms."""
        return (self.gradient_pairs_for(spec),
                self.zero_gathers_for(spec) if self.explicit_zero
                else None,
                self.tp_intra_for(spec), self.tp_inter_for(spec),
                self.pp_for(spec),
                self.moe_for(spec) if self._has_moe else 0.0)

    def _combine(self, spec: ParallelismSpec, eff: float,
                 include_bubble: bool = True,
                 terms: Optional[tuple] = None) -> tuple:
        """Eq. 1's component totals for one candidate, from the tables.

        Reads the bubble prefactor, each class's compute terms and then
        the :meth:`mapping_terms` (unless the caller holds them), and
        sums them with :meth:`assemble`.  With ``include_bubble`` off
        the bubble total stays 0.0 (the lower bound charges no idle
        time).
        """
        pp = spec.pp_intra * spec.pp_inter
        pref = (self.bubble_prefactor_for(pp, spec.microbatches,
                                          spec.bubble_overlap_ratio)
                if include_bubble else 0.0)
        triples = self.compute_triples_for(eff)
        if terms is None:
            terms = self.mapping_terms(spec)
        self._lookups += self._lookups_per_eval
        # spec.world_size without its three nested property calls
        # (integer products are exact in any order).
        workers = (spec.tp_intra * spec.tp_inter * pp * spec.dp_intra
                   * spec.dp_inter)
        gated = bool(pref) and pp > 1
        return self.assemble(
            triples, *terms, workers,
            pp if self.concurrent_stage_comm else 1,
            pref if gated else None,
            workers * self.bubble_layers if gated else None)

    # -- public evaluation API -------------------------------------------------

    def breakdown(self, spec: ParallelismSpec,
                  totals: Optional[tuple] = None) -> TrainingTimeBreakdown:
        """The candidate's breakdown (what ``estimate_batch`` returns
        on the default path), from its component ``totals`` when the
        caller holds them."""
        if totals is None:
            totals = self._combine(spec, self.efficiency_for(spec))
        return TrainingTimeBreakdown(**dict(zip(COMPONENT_NAMES, totals)))

    def _evaluate(self, spec: ParallelismSpec,
                  terms: Optional[tuple] = None) -> Tuple[tuple, float]:
        """``(component totals, batch time)``, raising what
        :meth:`batch_time` raises."""
        totals = self._combine(spec, self.efficiency_for(spec),
                               terms=terms)
        total = total_of(totals)
        if not math.isfinite(total):
            # The reference path surfaces non-finite components as the
            # breakdown's ConfigurationError; replay it exactly (and
            # fall through when only the *sum* overflowed, which the
            # reference path returns as an inf total).
            self.breakdown(spec, totals)
        return totals, total

    def batch_time(self, spec: ParallelismSpec,
                   terms: Optional[tuple] = None) -> Seconds:
        """The candidate's batch time, bit-identical to
        ``estimate_batch(global_batch).total`` on the default path —
        including raising the same errors for infeasible microbatches
        and non-finite components.  ``terms`` are the mapping's
        :meth:`mapping_terms`, when the caller already holds them."""
        return self._evaluate(spec, terms)[1]

    def best_microbatch(self, spec: ParallelismSpec,
                        candidates: Optional[Iterable[int]] = None
                        ) -> Tuple[ParallelismSpec, float]:
        """Pick the ``N_ub`` minimizing batch time — selection,
        tie-breaking and failure semantics identical to
        :func:`repro.search.tuning.optimize_microbatches`."""
        return self.tune(spec, candidates)[:2]

    def tune(self, spec: ParallelismSpec,
             candidates: Optional[Iterable[int]] = None
             ) -> Tuple[ParallelismSpec, float, tuple]:
        """:meth:`best_microbatch`, plus the winner's component totals
        (one combine per tried ``N_ub``, none after)."""
        if candidates is None:
            candidates = candidate_microbatch_counts(spec,
                                                     self.global_batch)
        best: Optional[Tuple[ParallelismSpec, float, tuple]] = None
        last_error = None
        last_n_ub: Optional[int] = None
        terms = None
        for n_ub in candidates:
            tuned = spec.with_microbatches(n_ub)
            try:
                totals, batch_time = self._evaluate(tuned, terms)
            except MappingError as error:
                last_error, last_n_ub = error, n_ub
                continue
            if terms is None:  # filled now, and no N_ub changes them
                terms = self.mapping_terms(spec)
            if not math.isfinite(batch_time):
                last_error = MappingError(
                    f"batch time is non-finite ({batch_time!r})")
                last_n_ub = n_ub
                continue
            if best is None or batch_time < best[1]:
                best = (tuned, batch_time, totals)
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
            eff = self._efficiency_at(dp, n_ub)
            if eff is not None:
                best_eff = max(best_eff, eff)
        if best_eff <= 0.0:
            raise MappingError(
                f"no feasible microbatch count for batch "
                f"{self.global_batch} under {spec.describe()}: every "
                f"candidate N_ub dices the batch below one sequence")
        totals = self._combine(spec, best_eff, include_bubble=False)
        return total_of(totals)

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


@functools.lru_cache(maxsize=1024)
def topology_terms(topology: CollectiveTopology, n: int,
                   steps: bool = True) -> tuple:
    """The topology's ``(steps(n), factor(n))`` (``steps`` 0 unless
    asked for), and ``(0, 0.0)`` for a single participant, whose term is
    gated to 0.0 without asking the topology, as the reference does."""
    if n > 1:
        return topology.steps(n) if steps else 0, topology.factor(n)
    return 0, 0.0


#: The term functions' ``ops`` on Python scalars: topology errors raise.
SCALAR_OPS = SimpleNamespace(
    where=lambda condition, value, other: value if condition else other,
    maximum=max,
    topology=lambda topology, n, steps=True: (
        *topology_terms(topology, n, steps), True))


def total_of(components: tuple):
    """``TrainingTimeBreakdown.total`` replayed, association for
    association, on :meth:`CompiledSweep.assemble`'s components (floats
    or float64 columns)."""
    (cf, cb, cw, c_tpi, c_tpx, c_pp, c_moe,
     g_intra, g_inter, c_zero, bub) = components
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
