"""Unit tests for NodeSpec bandwidth aggregation."""

import pickle
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.hardware.catalog import A100
from repro.hardware.interconnect import IB_EDR, IB_HDR, NVLINK3
from repro.hardware.node import NodeSpec


def make(n_accelerators=8, n_nics=8, inter=IB_HDR) -> NodeSpec:
    return NodeSpec(accelerator=A100, n_accelerators=n_accelerators,
                    intra_link=NVLINK3, inter_link=inter, n_nics=n_nics)


class TestBandwidthShares:
    def test_aggregate_is_nic_sum(self):
        assert make(n_nics=8).aggregate_inter_bandwidth_bits_per_s \
            == 8 * IB_HDR.bandwidth_bits_per_s

    def test_one_nic_per_accelerator_gives_full_share(self):
        node = make(n_accelerators=8, n_nics=8)
        assert node.inter_bandwidth_per_accelerator_bits_per_s \
            == IB_HDR.bandwidth_bits_per_s

    def test_shared_nic_divides_bandwidth(self):
        node = make(n_accelerators=8, n_nics=1)
        assert node.inter_bandwidth_per_accelerator_bits_per_s \
            == IB_HDR.bandwidth_bits_per_s / 8

    def test_effective_link_keeps_latency(self):
        node = make(n_nics=2)
        assert node.effective_inter_link.latency_s == IB_HDR.latency_s

    def test_case_study2_shapes(self):
        """1 accelerator + 1 EDR NIC per node: the full NIC per GPU."""
        node = make(n_accelerators=1, n_nics=1, inter=IB_EDR)
        assert node.inter_bandwidth_per_accelerator_bits_per_s == 1e11


class TestMemoizedEffectiveLink:
    """``effective_inter_link`` is computed once per node; the cache
    must be invisible to equality, hashing, repr and sweep identity."""

    @staticmethod
    def fresh(node: NodeSpec):
        return node.inter_link.with_bandwidth(
            node.inter_bandwidth_per_accelerator_bits_per_s,
            name=f"{node.inter_link.name} (per-accelerator share)")

    def test_matches_the_uncached_derivation(self):
        node = make(n_accelerators=8, n_nics=2)
        assert node.effective_inter_link == self.fresh(node)

    def test_computed_once(self):
        node = make(n_nics=2)
        assert node.effective_inter_link is node.effective_inter_link

    def test_invisible_to_eq_hash_and_repr(self):
        warm, cold = make(n_nics=2), make(n_nics=2)
        warm.effective_inter_link
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    def test_invisible_to_sweep_identity(self, small_system):
        from repro.core.model import AMPeD
        from repro.transformer.zoo import MEGATRON_1_7B

        def scenario(system):
            return AMPeD.for_mapping(MEGATRON_1_7B, system,
                                     dp=system.n_accelerators)

        warm = scenario(small_system)
        warm.system.node.effective_inter_link
        cold = scenario(replace(small_system,
                                node=replace(small_system.node)))
        assert cold.sweep_identity() == warm.sweep_identity()
        assert hash(cold.sweep_identity()) == hash(warm.sweep_identity())

    def test_pickle_round_trip(self):
        node = make(n_nics=4)
        link = node.effective_inter_link
        for source in (node, make(n_nics=4)):
            restored = pickle.loads(pickle.dumps(source))
            assert restored == node
            assert restored.effective_inter_link == link

    def test_copies_recompute(self):
        node = make(n_accelerators=8, n_nics=8)
        node.effective_inter_link
        shared = replace(node, n_nics=1)
        assert shared.effective_inter_link == self.fresh(shared)
        assert shared.effective_inter_link.bandwidth_bits_per_s \
            == IB_HDR.bandwidth_bits_per_s / 8

    def test_construction_errors_unchanged(self):
        with pytest.raises(ConfigurationError, match="n_nics"):
            make(n_nics=0)


class TestValidationAndCopies:
    def test_rejects_zero_accelerators(self):
        with pytest.raises(ConfigurationError):
            make(n_accelerators=0)

    def test_rejects_zero_nics(self):
        with pytest.raises(ConfigurationError):
            make(n_nics=0)

    def test_with_links_replaces_only_given(self):
        node = make()
        updated = node.with_links(inter_link=IB_EDR)
        assert updated.inter_link is IB_EDR
        assert updated.intra_link is NVLINK3

    def test_with_accelerator(self):
        from repro.hardware.catalog import H100
        assert make().with_accelerator(H100).accelerator is H100
