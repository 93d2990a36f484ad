"""The AMPeD model: Eq. 1 assembled from its parts.

:class:`AMPeD` binds a transformer, a system, a parallelism mapping, a
precision policy and an efficiency fit, and evaluates

    Time = N_batch * sum_l [ (U_f(l) + U_b(l) + U_w(l)) / (N_TP N_DP N_PP)
                             + M_f(l) + M_b(l) + M_g(l) + W(l) ]

returning the result as a :class:`TrainingTimeBreakdown` so every term
stays inspectable (the paper's Fig. 3 capability).

Typical use::

    from repro import AMPeD
    from repro.hardware import megatron_a100_cluster
    from repro.transformer import MEGATRON_145B
    from repro.parallelism import spec_from_totals, CASE_STUDY_EFFICIENCY

    system = megatron_a100_cluster()
    amped = AMPeD(
        model=MEGATRON_145B,
        system=system,
        parallelism=spec_from_totals(system, tp=8, pp=8, dp=16),
        efficiency=CASE_STUDY_EFFICIENCY,
    )
    estimate = amped.estimate(global_batch=2048, n_batches=10_000)
    print(estimate.total_time_days)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from repro.core.breakdown import TrainingEstimate, TrainingTimeBreakdown
from repro.core.bubbles import bubble_time
from repro.core.communication import (
    CommEnvironment,
    forward_comm_components,
    gradient_comm_components,
    zero_gather_time,
)
from repro.core.compute import (
    backward_compute_time,
    forward_compute_time,
    weight_update_time,
)
from repro.core.operations import build_operations

#: Recognized Eq. 1 evaluation strategies (see :class:`AMPeD`).
EVALUATION_PATHS = ("per_layer", "compiled")

#: Fields that do NOT identify a sweep (see :meth:`AMPeD.sweep_identity`):
#: the mapping varies per candidate, the evaluation path is a strategy
#: choice over the same arithmetic, and ``validate`` is a construction
#: knob with no effect on the estimate.
_SWEEP_IDENTITY_EXCLUDED = ("parallelism", "evaluation_path", "validate")
from repro.core.zero import NO_ZERO, ZeroConfig
from repro.errors import ConfigurationError, require_finite_fields
from repro.hardware.precision import MIXED_FP16, PrecisionPolicy
from repro.obs.trace import emit_component_events, get_tracer
from repro.hardware.system import SystemSpec
from repro.parallelism.microbatch import (
    MicrobatchEfficiency,
    microbatch_size,
    replica_batch_size,
)
from repro.parallelism.spec import ParallelismSpec, spec_from_totals
from repro.parallelism.topology import (
    PAIRWISE_ALLTOALL,
    RING,
    CollectiveTopology,
)
from repro.transformer.config import TransformerConfig
from repro.transformer.params import model_flops_per_batch
from repro.units import to_teraflops


@dataclass(frozen=True)
class AMPeD:
    """The analytical model, fully configured for one scenario.

    Parameters beyond the obvious:

    backward_compute_multiplier:
        ``U_b / U_f`` (2.0 standard; 3.0 models activation
        recomputation).
    backward_comm_ratio:
        ``M_b / M_f`` (1.0: errors mirror activations).
    optimizer_macs_per_parameter:
        MACs per weight in Eq. 12 (1.0 = the paper's plain update).
    include_embeddings:
        Fold embedding + vocabulary-projection compute (and their
        gradient all-reduce) into the estimate as a pseudo-layer.
    concurrent_stage_comm:
        With pipeline parallelism each layer lives on exactly one stage,
        and different stages execute their TP/MoE all-reduces and DP
        gradient reductions concurrently, so Eq. 1's per-layer sum of
        those terms is divided by ``N_PP`` (wall-clock = one stage's
        share).  Disable for a literal reading of Eq. 1.  Eq. 7's PP
        term carries its own ``1/L`` concurrency accounting and is
        never rescaled.
    bubble_model:
        ``"physical"`` (classic bubble bound; default) or ``"eq8"``
        (the printed equation, whose extra ``1/L`` makes bubbles nearly
        negligible for deep models) — see :mod:`repro.core.bubbles`.
    comm_overlap_fraction:
        Fraction of communication time hidden behind computation
        (0 = AMPeD's fully-exposed default; modern frameworks overlap
        the DP gradient all-reduce and parts of the TP traffic with
        compute, approaching ~0.5-0.8).  Applied uniformly to every
        communication component; bubbles are computed from the exposed
        share.
    zero:
        ZeRO stage; contributes Eq. 5's ``(1 + M_f_DP)`` factor.
    zero_explicit_comm:
        When the ZeRO stage shards parameters (stage 3), model the
        forward/backward parameter all-gathers explicitly (hierarchical
        all-gather per layer, reported as the ``comm_zero`` breakdown
        component) instead of Eq. 5's flat ``(1 + M_f_DP)`` factor.
    evaluation_path:
        How Eq. 1's per-layer sum is evaluated.  ``"compiled"`` (the
        default) groups layers into structural equivalence classes —
        embedding pseudo-layer, dense, MoE — and reads each class's
        terms from the sweep compiler's tables
        (:mod:`repro.search.compiler`), scaling by the class
        multiplicity; Eq. 1 is linear in every per-layer term, so this
        is exact up to floating-point associativity (``<= 1e-9``
        relative on every breakdown component, enforced by the property
        suite); in a sweep the same tables are read by the NumPy array
        program.  ``"per_layer"`` walks all ``n_layers`` layers and
        serves as the literal reference path.  See
        ``docs/performance.md``.
    validate:
        Check the mapping against the system and model on construction
        (disable only for deliberately hypothetical shapes).
    """

    model: TransformerConfig
    system: SystemSpec
    parallelism: ParallelismSpec
    precision: PrecisionPolicy = MIXED_FP16
    efficiency: MicrobatchEfficiency = field(
        default_factory=MicrobatchEfficiency)
    intra_topology: CollectiveTopology = RING
    inter_topology: CollectiveTopology = RING
    moe_topology: CollectiveTopology = PAIRWISE_ALLTOALL
    zero: ZeroConfig = NO_ZERO
    backward_compute_multiplier: float = 2.0
    backward_comm_ratio: float = 1.0
    optimizer_macs_per_parameter: float = 1.0
    moe_volume_multiplier: float = 1.0
    moe_tp_sharding: bool = True
    include_embeddings: bool = True
    concurrent_stage_comm: bool = True
    bubble_model: str = "physical"
    comm_overlap_fraction: float = 0.0
    zero_explicit_comm: bool = False
    evaluation_path: str = "compiled"
    validate: bool = True

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.evaluation_path not in EVALUATION_PATHS:
            raise ConfigurationError(
                f"evaluation_path must be one of {EVALUATION_PATHS}, got "
                f"{self.evaluation_path!r}")
        if self.backward_compute_multiplier < 0:
            raise ConfigurationError(
                f"backward_compute_multiplier must be non-negative, got "
                f"{self.backward_compute_multiplier}")
        if self.backward_comm_ratio < 0:
            raise ConfigurationError(
                f"backward_comm_ratio must be non-negative, got "
                f"{self.backward_comm_ratio}")
        if not 0 <= self.comm_overlap_fraction < 1:
            raise ConfigurationError(
                f"comm_overlap_fraction must be in [0, 1), got "
                f"{self.comm_overlap_fraction}")
        if self.validate:
            self.parallelism.validate_against(self.system)
            self.parallelism.validate_against_model(
                self.model.n_layers, self.model.n_heads)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def for_mapping(cls, model: TransformerConfig, system: SystemSpec,
                    tp: int = 1, pp: int = 1, dp: int = 1,
                    **kwargs) -> "AMPeD":
        """Build with total degrees placed TP-innermost (Megatron style)."""
        spec_kwargs = {}
        for key in ("n_microbatches", "expert_parallel",
                    "bubble_overlap_ratio"):
            if key in kwargs:
                spec_kwargs[key] = kwargs.pop(key)
        spec = spec_from_totals(system, tp=tp, pp=pp, dp=dp, **spec_kwargs)
        return cls(model=model, system=system, parallelism=spec, **kwargs)

    def with_parallelism(self, parallelism: ParallelismSpec) -> "AMPeD":
        """The same scenario under a different mapping (sweep helper)."""
        return replace(self, parallelism=parallelism)

    def with_system(self, system: SystemSpec) -> "AMPeD":
        """The same scenario on different hardware (sweep helper)."""
        return replace(self, system=system)

    # -- evaluation ------------------------------------------------------------

    def microbatch(self, global_batch: int) -> float:
        """The microbatch size this mapping yields at ``global_batch``."""
        return microbatch_size(global_batch, self.parallelism)

    def microbatch_efficiency(self, global_batch: int) -> float:
        """``eff(ub)`` at this mapping's microbatch size."""
        return self.efficiency(self.microbatch(global_batch))

    def sweep_identity(self) -> tuple:
        """Hashable identity of everything *but* the mapping.

        Two instances with equal sweep identities evaluate the same
        Eq. 1 arithmetic for any given mapping, which is what lets the
        sweep compiler (:mod:`repro.search.compiler`) share one set of
        term tables across every candidate — and every evaluation path —
        of a design-space sweep.
        """
        return tuple(getattr(self, item.name) for item in fields(self)
                     if item.name not in _SWEEP_IDENTITY_EXCLUDED)

    def estimate_batch(self, global_batch: int) -> TrainingTimeBreakdown:
        """Evaluate Eq. 1's bracket for one batch, per component."""
        spec = self.parallelism
        if self.evaluation_path != "per_layer":
            # Term-table route: identical arithmetic, factored into
            # per-term lookup tables shared across the whole sweep.
            # Imported lazily — repro.search.compiler imports this
            # module for typing.
            from repro.search.compiler import compile_sweep

            breakdown = compile_sweep(self, global_batch).breakdown(spec)
            self.emit_estimate_trace(breakdown, spec, global_batch)
            return breakdown
        eff = self.microbatch_efficiency(global_batch)
        replica_batch = replica_batch_size(global_batch, spec)
        accelerator = self.system.accelerator
        operations = build_operations(self.model, global_batch,
                                      self.include_embeddings)
        explicit_zero = (self.zero_explicit_comm
                         and self.zero.shards_parameters)
        env = CommEnvironment(
            system=self.system,
            parallelism=spec,
            precision=self.precision,
            intra_topology=self.intra_topology,
            inter_topology=self.inter_topology,
            moe_topology=self.moe_topology,
            zero_forward_overhead=(
                0.0 if explicit_zero
                else self.zero.communication_overhead),
            moe_volume_multiplier=self.moe_volume_multiplier,
            moe_tp_sharding=self.moe_tp_sharding,
        )
        workers = spec.world_size
        stage_share = spec.pp if self.concurrent_stage_comm else 1
        exposed = 1.0 - self.comm_overlap_fraction

        totals = dict.fromkeys((
            "compute_forward", "compute_backward", "compute_weight_update",
            "comm_tp_intra", "comm_tp_inter", "comm_pp", "comm_moe",
            "comm_gradient_intra", "comm_gradient_inter", "comm_zero",
            "bubble"), 0.0)

        # The per-layer reference walk, kept as the oracle: the
        # term-table route above evaluates one representative per layer
        # class instead (Eq. 1 is linear in every per-layer term).
        for layer in operations.layers:
            u_f = forward_compute_time(layer, accelerator, self.precision,
                                       eff)
            u_b = backward_compute_time(
                layer, accelerator, self.precision, eff,
                self.backward_compute_multiplier)
            u_w = weight_update_time(
                layer, accelerator, self.precision, eff,
                self.optimizer_macs_per_parameter)
            totals["compute_forward"] += u_f / workers
            totals["compute_backward"] += u_b / workers
            totals["compute_weight_update"] += u_w / workers

            gradient = gradient_comm_components(
                env, layer.gradient_parameters(spec.expert_parallel))
            totals["comm_gradient_intra"] += \
                gradient["intra"] / stage_share * exposed
            totals["comm_gradient_inter"] += \
                gradient["inter"] / stage_share * exposed

            if explicit_zero:
                # one parameter all-gather before the forward pass and
                # one before the backward pass (re-gather after free)
                gather = zero_gather_time(
                    env, layer.gradient_parameters(spec.expert_parallel))
                totals["comm_zero"] += \
                    2.0 * gather / stage_share * exposed

            if layer.index < 0:
                continue  # embedding pseudo-layer: no TP/PP/MoE traffic

            forward = forward_comm_components(env, self.model,
                                              replica_batch, layer.is_moe)
            # TP and MoE collectives of different pipeline stages overlap
            # in wall-clock time; the PP term (Eq. 7) already accounts
            # for its own overlap through the 1/L prefactor.  The
            # compute-overlap knob then hides a further fraction of
            # every component.
            forward["tp_intra"] *= exposed / stage_share
            forward["tp_inter"] *= exposed / stage_share
            forward["moe"] *= exposed / stage_share
            forward["pp"] *= exposed
            m_f = sum(forward.values())
            m_b = m_f * self.backward_comm_ratio
            scale = 1.0 + self.backward_comm_ratio
            totals["comm_tp_intra"] += forward["tp_intra"] * scale
            totals["comm_tp_inter"] += forward["tp_inter"] * scale
            totals["comm_pp"] += forward["pp"] * scale
            totals["comm_moe"] += forward["moe"] * scale
            totals["bubble"] += bubble_time(
                u_f, u_b, m_f, m_b, self.model.n_layers, spec,
                model=self.bubble_model)

        breakdown = TrainingTimeBreakdown(**totals)
        self.emit_estimate_trace(breakdown, spec, global_batch)
        return breakdown

    def emit_estimate_trace(self, breakdown: TrainingTimeBreakdown,
                            spec: ParallelismSpec,
                            global_batch: int) -> None:
        """Emit the per-component span events for one estimate of
        ``spec`` (no-op while tracing is disabled)."""
        tracer = get_tracer()
        if tracer.enabled:
            # The six split degrees + microbatch count are stamped as
            # individual attrs (not just the describe() string) so
            # repro.obs.ingest can reconstruct the exact
            # ParallelismSpec when a trace is fed back for calibration.
            emit_component_events(
                tracer, breakdown.as_dict(), breakdown.total,
                name="model.estimate_batch", track_prefix="model.eq1",
                category="model",
                attrs={"model": self.model.name,
                       "mapping": spec.describe(),
                       "global_batch": global_batch,
                       "evaluation_path": self.evaluation_path,
                       "tp_intra": spec.tp_intra,
                       "tp_inter": spec.tp_inter,
                       "pp_intra": spec.pp_intra,
                       "pp_inter": spec.pp_inter,
                       "dp_intra": spec.dp_intra,
                       "dp_inter": spec.dp_inter,
                       "n_microbatches": spec.microbatches})

    def estimate(self, global_batch: int,
                 n_batches: Optional[int] = None,
                 total_tokens: Optional[float] = None) -> TrainingEstimate:
        """Full-run estimate: Eq. 1 with its ``N_batch`` prefactor.

        Give either ``n_batches`` directly or ``total_tokens`` (the
        corpus size), from which ``N_batch = ceil(tokens / (batch * s))``.
        """
        if (n_batches is None) == (total_tokens is None):
            raise ConfigurationError(
                "provide exactly one of n_batches or total_tokens")
        if total_tokens is not None:
            n_batches = self.n_batches_for_tokens(global_batch, total_tokens)
        return TrainingEstimate(per_batch=self.estimate_batch(global_batch),
                                n_batches=n_batches)

    def n_batches_for_tokens(self, global_batch: int,
                             total_tokens: float) -> int:
        """``N_batch`` to push ``total_tokens`` through training."""
        if not (math.isfinite(total_tokens) and total_tokens > 0):
            raise ConfigurationError(
                f"total_tokens must be a finite number > 0, "
                f"got {total_tokens}")
        tokens_per_batch = global_batch * self.model.sequence_length
        return max(1, math.ceil(total_tokens / tokens_per_batch))

    # -- derived metrics ---------------------------------------------------------

    def achieved_tflops_per_gpu(self, global_batch: int) -> float:
        """The Table II metric: model TFLOPs per second per accelerator.

        ``model_flops(batch) / (batch_time * N_accelerators)`` — model
        FLOPs, not hardware FLOPs, so recomputation or multi-pass
        precision raise the time without raising the numerator.
        """
        flops = model_flops_per_batch(
            self.model, global_batch,
            backward_multiplier=self.backward_compute_multiplier,
            include_logits=self.include_embeddings)
        batch_time = self.estimate_batch(global_batch).total
        return to_teraflops(flops / (batch_time * self.system.n_accelerators))

    def tokens_per_second(self, global_batch: int) -> float:
        """Training throughput in tokens/second."""
        batch_time = self.estimate_batch(global_batch).total
        return global_batch * self.model.sequence_length / batch_time
