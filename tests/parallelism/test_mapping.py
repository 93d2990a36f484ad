"""Unit tests for mapping enumeration and named mappings."""

import random

import pytest

from repro.errors import ConfigurationError, MappingError
from repro.hardware.catalog import megatron_a100_cluster
from repro.parallelism.mapping import (
    enumerate_mappings,
    factor_triples,
    mapping_for,
)
from repro.parallelism.spec import ParallelismSpec
from repro.transformer.zoo import MODELS


class TestFactorTriples:
    def test_count_for_8(self):
        triples = list(factor_triples(8))
        assert len(triples) == 10  # ordered triples multiplying to 8
        assert all(x * y * z == 8 for x, y, z in triples)

    def test_one(self):
        assert list(factor_triples(1)) == [(1, 1, 1)]

    def test_unique(self):
        triples = list(factor_triples(16))
        assert len(triples) == len(set(triples))


class TestEnumeration:
    def test_every_mapping_tiles_system(self, small_system):
        for spec in enumerate_mappings(small_system):
            spec.validate_against(small_system)  # no raise

    def test_model_filter_drops_deep_pipelines(self, small_system,
                                               tiny_model):
        unfiltered = enumerate_mappings(small_system)
        filtered = enumerate_mappings(small_system, tiny_model)
        assert len(filtered) < len(unfiltered)
        assert all(spec.pp <= tiny_model.n_layers for spec in filtered)

    def test_model_filter_drops_wide_tp(self, small_system, tiny_model):
        # tiny model has 4 heads; TP degree 8+ impossible, 16 certainly
        for spec in enumerate_mappings(small_system, tiny_model):
            assert spec.tp <= 4

    def test_kwargs_forwarded(self, small_system):
        mappings = enumerate_mappings(small_system, n_microbatches=5)
        assert all(spec.microbatches == 5 for spec in mappings)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_construction(self, seed):
        # Each mapping is a copy of one validated prototype; it must
        # equal the spec built field by field, in the same order.
        rng = random.Random(seed)
        system = megatron_a100_cluster(
            n_nodes=rng.choice((1, 2, 3, 4, 12, 16, 64)),
            accelerators_per_node=rng.choice((1, 2, 4, 6, 8)), n_nics=1)
        kwargs = rng.choice([{}, {"n_microbatches": 3},
                             {"bubble_overlap_ratio": 0.5,
                              "expert_parallel": False}])
        model = MODELS[rng.choice(sorted(MODELS))]
        direct = [
            ParallelismSpec(tp_intra=tp_intra, tp_inter=tp_inter,
                            pp_intra=pp_intra, pp_inter=pp_inter,
                            dp_intra=dp_intra, dp_inter=dp_inter, **kwargs)
            for tp_intra, pp_intra, dp_intra in factor_triples(
                system.node.n_accelerators)
            for tp_inter, pp_inter, dp_inter in factor_triples(
                system.n_nodes)]
        for require_heads in (True, False):
            expected = [spec for spec in direct
                        if spec.pp <= model.n_layers and not (
                            require_heads and spec.tp > 1
                            and model.n_heads % spec.tp)]
            got = enumerate_mappings(system, model, require_heads, **kwargs)
            assert [vars(spec) for spec in got] == [vars(spec)
                                                    for spec in expected]
        got = enumerate_mappings(system, **kwargs)
        assert [vars(spec) for spec in got] == [vars(spec)
                                                for spec in direct]

    def test_bad_kwargs_raise_before_filtering(self, small_system,
                                               tiny_model):
        with pytest.raises(ConfigurationError):
            enumerate_mappings(small_system, tiny_model, n_microbatches=0)

    def test_degree_in_kwargs_is_a_type_error(self, small_system):
        with pytest.raises(TypeError):
            enumerate_mappings(small_system, tp_intra=2)


class TestMappingFor:
    def test_pure_inter(self, small_system):
        spec = mapping_for(small_system, intra="tp", inter="dp")
        assert spec.describe() == "TP=4x1, DP=1x4"

    def test_mixed_inter(self, small_system):
        spec = mapping_for(small_system, intra="tp", inter="pp+dp",
                           inter_split=(2, 2))
        assert (spec.pp_inter, spec.dp_inter) == (2, 2)

    def test_mixed_requires_split(self, small_system):
        with pytest.raises(MappingError):
            mapping_for(small_system, intra="tp", inter="pp+dp")

    def test_split_must_multiply_to_nodes(self, small_system):
        with pytest.raises(MappingError):
            mapping_for(small_system, intra="tp", inter="pp+dp",
                        inter_split=(2, 3))

    def test_unknown_type_rejected(self, small_system):
        with pytest.raises(MappingError):
            mapping_for(small_system, intra="xx", inter="dp")

    def test_result_tiles_system(self, small_system):
        spec = mapping_for(small_system, intra="dp", inter="tp+pp",
                           inter_split=(4, 1))
        spec.validate_against(small_system)
