"""Unit tests for ParallelismSpec and placement."""

import math
import pickle
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, MappingError
from repro.parallelism.spec import ParallelismSpec, spec_from_totals


class TestDegrees:
    def test_defaults_are_serial(self, serial_spec):
        assert serial_spec.world_size == 1
        assert serial_spec.describe() == "serial"

    def test_aggregate_products(self):
        spec = ParallelismSpec(tp_intra=2, tp_inter=2, pp_intra=2,
                               pp_inter=4, dp_intra=2, dp_inter=8)
        assert (spec.tp, spec.pp, spec.dp) == (4, 8, 16)
        assert spec.world_size == 4 * 8 * 16
        assert spec.intra_degree == 8
        assert spec.inter_degree == 64

    def test_microbatches_default_to_pp(self):
        spec = ParallelismSpec(pp_inter=8)
        assert spec.microbatches == 8

    def test_microbatches_explicit(self):
        spec = ParallelismSpec(pp_inter=8, n_microbatches=32)
        assert spec.microbatches == 32

    def test_uses_inter_flags(self):
        assert ParallelismSpec(tp_inter=2).uses_inter_tp
        assert not ParallelismSpec(tp_intra=4).uses_inter_tp
        assert ParallelismSpec(pp_inter=2).uses_inter_pp

    def test_rejects_zero_degree(self):
        with pytest.raises(ConfigurationError):
            ParallelismSpec(tp_intra=0)

    def test_rejects_negative_overlap(self):
        with pytest.raises(ConfigurationError):
            ParallelismSpec(bubble_overlap_ratio=-0.1)

    def test_with_microbatches(self):
        spec = ParallelismSpec(pp_inter=4).with_microbatches(64)
        assert spec.microbatches == 64

    def test_with_overlap(self):
        assert ParallelismSpec().with_overlap(0.5) \
            .bubble_overlap_ratio == 0.5

    def test_describe_omits_unit_degrees(self):
        assert ParallelismSpec(tp_intra=8).describe() == "TP=8x1"


class TestFieldTypes:
    """Counts are genuine ints and ``expert_parallel`` a genuine bool:
    ``bool`` subclasses ``int`` and floats compare like numbers, so
    neither may slip through the range checks."""

    def test_rejects_fractional_microbatches(self):
        with pytest.raises(ConfigurationError, match="n_microbatches"):
            ParallelismSpec(n_microbatches=2.5)

    def test_rejects_integral_float_microbatches(self):
        with pytest.raises(ConfigurationError, match="n_microbatches"):
            ParallelismSpec(n_microbatches=4.0)

    def test_rejects_bool_microbatches(self):
        with pytest.raises(ConfigurationError, match="n_microbatches"):
            ParallelismSpec(n_microbatches=True)

    @pytest.mark.parametrize("name", ["tp_intra", "tp_inter", "pp_intra",
                                      "pp_inter", "dp_intra", "dp_inter"])
    def test_rejects_bool_degree(self, name):
        with pytest.raises(ConfigurationError, match=name):
            ParallelismSpec(**{name: True})

    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_rejects_non_bool_expert_parallel(self, value):
        with pytest.raises(ConfigurationError, match="expert_parallel"):
            ParallelismSpec(expert_parallel=value)

    def test_accepts_none_and_positive_int_microbatches(self):
        assert ParallelismSpec(pp_inter=4).microbatches == 4
        assert ParallelismSpec(n_microbatches=1).microbatches == 1


def _error_message(build):
    """The error's exact type and message."""
    with pytest.raises(ConfigurationError) as excinfo:
        build()
    return type(excinfo.value), str(excinfo.value)


class TestFastCopies:
    """``with_microbatches``/``with_overlap`` skip re-validating the
    unchanged fields but must otherwise behave exactly like
    ``dataclasses.replace``."""

    BASE = ParallelismSpec(tp_intra=2, pp_intra=2, dp_inter=4,
                           expert_parallel=False,
                           bubble_overlap_ratio=0.75)

    @pytest.mark.parametrize("value", [1, 7, 64, None])
    def test_with_microbatches_equals_replace(self, value):
        fast = self.BASE.with_microbatches(value)
        slow = replace(self.BASE, n_microbatches=value)
        assert type(fast) is ParallelismSpec
        assert fast == slow
        assert hash(fast) == hash(slow)
        assert repr(fast) == repr(slow)
        assert pickle.loads(pickle.dumps(fast)) == slow

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, 0.5, 1.0, 2])
    def test_with_overlap_equals_replace(self, value):
        fast = self.BASE.with_overlap(value)
        slow = replace(self.BASE, bubble_overlap_ratio=value)
        assert fast == slow
        assert hash(fast) == hash(slow)
        assert repr(fast) == repr(slow)
        assert pickle.loads(pickle.dumps(fast)) == slow

    def test_copies_leave_the_original_alone(self):
        before = repr(self.BASE)
        self.BASE.with_microbatches(3).with_overlap(0.1)
        assert repr(self.BASE) == before

    @pytest.mark.parametrize("value", [0, -3, 2.5, 4.0, True, "8", "x",
                                       -0.5, math.nan, math.inf,
                                       -math.inf])
    def test_with_microbatches_rejects_like_replace(self, value):
        assert _error_message(
            lambda: self.BASE.with_microbatches(value)) == _error_message(
            lambda: replace(self.BASE, n_microbatches=value))

    @pytest.mark.parametrize("value", [-0.1, -0.5, math.nan, math.inf,
                                       -math.inf, "x", None])
    def test_with_overlap_rejects_like_replace(self, value):
        assert _error_message(
            lambda: self.BASE.with_overlap(value)) == _error_message(
            lambda: replace(self.BASE, bubble_overlap_ratio=value))


class TestValidation:
    def test_accepts_exact_tiling(self, small_system):
        spec = ParallelismSpec(tp_intra=4, dp_inter=4)
        spec.validate_against(small_system)  # no raise

    def test_rejects_intra_mismatch(self, small_system):
        with pytest.raises(MappingError):
            ParallelismSpec(tp_intra=2, dp_inter=4) \
                .validate_against(small_system)

    def test_rejects_inter_mismatch(self, small_system):
        with pytest.raises(MappingError):
            ParallelismSpec(tp_intra=4, dp_inter=2) \
                .validate_against(small_system)

    def test_rejects_pp_deeper_than_layers(self):
        with pytest.raises(MappingError):
            ParallelismSpec(pp_inter=8).validate_against_model(
                n_layers=4, n_heads=8)

    def test_rejects_tp_not_dividing_heads(self):
        with pytest.raises(MappingError):
            ParallelismSpec(tp_intra=3).validate_against_model(
                n_layers=16, n_heads=8)


class TestPlacement:
    def test_tp_fills_node_first(self, small_system):
        spec = spec_from_totals(small_system, tp=4, dp=4)
        assert (spec.tp_intra, spec.tp_inter) == (4, 1)
        assert (spec.dp_intra, spec.dp_inter) == (1, 4)

    def test_tp_spills_across_nodes(self, small_system):
        spec = spec_from_totals(small_system, tp=8, dp=2)
        assert (spec.tp_intra, spec.tp_inter) == (4, 2)
        assert spec.dp_inter == 2

    def test_pp_after_tp(self, small_system):
        spec = spec_from_totals(small_system, tp=2, pp=4, dp=2)
        assert (spec.pp_intra, spec.pp_inter) == (2, 2)
        assert (spec.dp_intra, spec.dp_inter) == (1, 2)

    def test_rejects_wrong_world_size(self, small_system):
        with pytest.raises(MappingError):
            spec_from_totals(small_system, tp=4, dp=2)

    def test_rejects_fragmenting_split(self, small_system):
        # TP=3 cannot divide a 4-accelerator node
        with pytest.raises(MappingError):
            spec_from_totals(small_system, tp=3, dp=16)

    def test_kwargs_forwarded(self, small_system):
        spec = spec_from_totals(small_system, dp=16, n_microbatches=7)
        assert spec.microbatches == 7
