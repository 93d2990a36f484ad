"""Unit and behavioral tests for the assembled AMPeD model (Eq. 1)."""

import dataclasses

import pytest

from repro.core.model import AMPeD
from repro.core.zero import ZeroConfig
from repro.errors import ConfigurationError, MappingError
from repro.parallelism.microbatch import PERFECT_EFFICIENCY
from repro.parallelism.spec import ParallelismSpec


class TestConstruction:
    def test_validates_against_system(self, tiny_model, small_system):
        with pytest.raises(MappingError):
            AMPeD(model=tiny_model, system=small_system,
                  parallelism=ParallelismSpec(tp_intra=2))

    def test_validates_against_model(self, tiny_model, small_system):
        # pp = 8 > 4 layers
        with pytest.raises(MappingError):
            AMPeD(model=tiny_model, system=small_system,
                  parallelism=ParallelismSpec(pp_intra=4, pp_inter=2,
                                              dp_inter=2))

    def test_validation_can_be_disabled(self, tiny_model, small_system):
        AMPeD(model=tiny_model, system=small_system,
              parallelism=ParallelismSpec(tp_intra=2), validate=False)

    def test_for_mapping_helper(self, tiny_model, small_system):
        amped = AMPeD.for_mapping(tiny_model, small_system, tp=4, dp=4,
                                  n_microbatches=4)
        assert amped.parallelism.tp_intra == 4
        assert amped.parallelism.microbatches == 4

    def test_defaults_to_compiled_path(self, tiny_amped):
        assert tiny_amped.evaluation_path == "compiled"

    def test_rejects_removed_collapsed_path(self, tiny_model,
                                            small_system):
        with pytest.raises(ConfigurationError,
                           match="evaluation_path must be one of"):
            AMPeD(model=tiny_model, system=small_system,
                  parallelism=ParallelismSpec(tp_intra=4, dp_inter=4),
                  evaluation_path="collapsed")

    def test_rejects_negative_multipliers(self, tiny_model,
                                          small_system):
        with pytest.raises(ConfigurationError):
            AMPeD(model=tiny_model, system=small_system,
                  parallelism=ParallelismSpec(tp_intra=4, dp_inter=4),
                  backward_compute_multiplier=-1.0)


class TestEstimates:
    def test_breakdown_components_sum(self, tiny_amped):
        breakdown = tiny_amped.estimate_batch(64)
        assert breakdown.total == pytest.approx(
            breakdown.compute_time + breakdown.comm_time
            + breakdown.bubble)

    def test_estimate_scales_with_batches(self, tiny_amped):
        one = tiny_amped.estimate(64, n_batches=1)
        hundred = tiny_amped.estimate(64, n_batches=100)
        assert hundred.total_time_s \
            == pytest.approx(100 * one.total_time_s)

    def test_tokens_to_batches(self, tiny_amped, tiny_model):
        tokens_per_batch = 64 * tiny_model.sequence_length
        estimate = tiny_amped.estimate(
            64, total_tokens=10 * tokens_per_batch)
        assert estimate.n_batches == 10

    def test_tokens_round_up(self, tiny_amped, tiny_model):
        tokens_per_batch = 64 * tiny_model.sequence_length
        estimate = tiny_amped.estimate(
            64, total_tokens=10.5 * tokens_per_batch)
        assert estimate.n_batches == 11

    def test_exactly_one_duration_arg(self, tiny_amped):
        with pytest.raises(ConfigurationError):
            tiny_amped.estimate(64)
        with pytest.raises(ConfigurationError):
            tiny_amped.estimate(64, n_batches=10, total_tokens=1e6)

    def test_serial_run_has_no_comm(self, tiny_model, small_system):
        serial_system = small_system.repartitioned(1).with_n_nodes(1)
        amped = AMPeD(model=tiny_model, system=serial_system,
                      parallelism=ParallelismSpec())
        breakdown = amped.estimate_batch(8)
        assert breakdown.comm_time == 0.0
        assert breakdown.bubble == 0.0
        assert breakdown.compute_time > 0.0


class TestParallelismEffects:
    def test_dp_speeds_up_compute(self, tiny_model, small_system):
        serial_like = AMPeD(model=tiny_model, system=small_system,
                            parallelism=ParallelismSpec(dp_intra=4,
                                                        dp_inter=4),
                            efficiency=PERFECT_EFFICIENCY)
        compute = serial_like.estimate_batch(64).compute_time
        single = small_system.repartitioned(1).with_n_nodes(1)
        serial = AMPeD(model=tiny_model, system=single,
                       parallelism=ParallelismSpec(),
                       efficiency=PERFECT_EFFICIENCY)
        assert compute \
            == pytest.approx(serial.estimate_batch(64).compute_time / 16)

    def test_inter_tp_costs_more_than_intra(self, tiny_model,
                                            small_system):
        intra = AMPeD(model=tiny_model, system=small_system,
                      parallelism=ParallelismSpec(tp_intra=4,
                                                  dp_inter=4))
        inter = AMPeD(model=tiny_model, system=small_system,
                      parallelism=ParallelismSpec(dp_intra=4,
                                                  tp_inter=4))
        assert inter.estimate_batch(64).comm_tp \
            > intra.estimate_batch(64).comm_tp

    def test_stage_concurrency_flag(self, tiny_model, small_system):
        spec = ParallelismSpec(tp_intra=4, pp_inter=4, n_microbatches=8)
        concurrent = AMPeD(model=tiny_model, system=small_system,
                           parallelism=spec)
        literal = dataclasses.replace(concurrent,
                                      concurrent_stage_comm=False)
        assert concurrent.estimate_batch(64).comm_tp \
            == pytest.approx(literal.estimate_batch(64).comm_tp / 4)

    def test_zero_adds_comm(self, tiny_model, small_system):
        spec = ParallelismSpec(tp_intra=4, dp_inter=4)
        plain = AMPeD(model=tiny_model, system=small_system,
                      parallelism=spec)
        zero3 = dataclasses.replace(plain, zero=ZeroConfig(stage=3))
        assert zero3.estimate_batch(64).comm_tp \
            > plain.estimate_batch(64).comm_tp

    def test_moe_layers_add_comm(self, tiny_moe_model, small_system):
        spec = ParallelismSpec(tp_intra=4, dp_inter=4)
        amped = AMPeD(model=tiny_moe_model, system=small_system,
                      parallelism=spec)
        assert amped.estimate_batch(64).comm_moe > 0.0

    def test_bubble_model_selector(self, tiny_model, small_system):
        spec = ParallelismSpec(pp_intra=4, dp_inter=4, n_microbatches=8)
        physical = AMPeD(model=tiny_model, system=small_system,
                         parallelism=spec)
        literal = dataclasses.replace(physical, bubble_model="eq8")
        assert physical.estimate_batch(64).bubble \
            > literal.estimate_batch(64).bubble


class TestMetrics:
    def test_tflops_bounded_by_peak(self, tiny_amped, small_system):
        tflops = tiny_amped.achieved_tflops_per_gpu(64)
        peak = small_system.accelerator.peak_mac_flops_per_s / 1e12
        assert 0 < tflops < peak

    def test_tokens_per_second_positive(self, tiny_amped):
        assert tiny_amped.tokens_per_second(64) > 0

    def test_microbatch_accessors(self, tiny_amped):
        assert tiny_amped.microbatch(64) == 64 / 4  # dp=4, n_ub=1
        assert 0 < tiny_amped.microbatch_efficiency(64) <= 1.0

    def test_with_parallelism_copies(self, tiny_amped):
        new_spec = ParallelismSpec(dp_intra=4, dp_inter=4)
        assert tiny_amped.with_parallelism(new_spec).parallelism \
            is new_spec
