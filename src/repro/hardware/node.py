"""Multi-accelerator node description.

A node groups ``n_accelerators`` identical accelerators behind one
intra-node fabric and attaches to the cluster network through
``n_nics`` network cards.  AMPeD's equations consume two bandwidths per
node boundary:

- the intra-node link bandwidth, taken directly from ``intra_link``;
- the per-accelerator share of inter-node bandwidth, which is the
  aggregate NIC bandwidth divided by the accelerators that share it.
  Case Study II varies exactly this ratio (1/2/4/8 accelerators + NICs
  per node).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from repro.errors import ConfigurationError
from repro.hardware.accelerator import AcceleratorSpec
from repro.hardware.interconnect import LinkSpec
from repro.units import BitsPerSecond


@dataclass(frozen=True)
class NodeSpec:
    """One node: accelerators + intra-node fabric + NICs.

    Parameters
    ----------
    accelerator:
        The (homogeneous) accelerator populating the node.
    n_accelerators:
        Accelerators per node.
    intra_link:
        Link connecting accelerators inside the node (NVLink, PCIe,
        optical substrate).
    inter_link:
        One network card / fiber attachment toward other nodes.
    n_nics:
        Number of inter-node attachments on the node.
    """

    accelerator: AcceleratorSpec
    n_accelerators: int
    intra_link: LinkSpec
    inter_link: LinkSpec
    n_nics: int = 1

    def __post_init__(self) -> None:
        if self.n_accelerators < 1:
            raise ConfigurationError(
                f"n_accelerators must be >= 1, got {self.n_accelerators}")
        if self.n_nics < 1:
            raise ConfigurationError(
                f"n_nics must be >= 1, got {self.n_nics}")

    @property
    def aggregate_inter_bandwidth_bits_per_s(self) -> BitsPerSecond:
        """Total node-to-network bandwidth across all NICs."""
        return self.inter_link.bandwidth_bits_per_s * self.n_nics

    @property
    def inter_bandwidth_per_accelerator_bits_per_s(self) -> BitsPerSecond:
        """Inter-node bandwidth available to one accelerator.

        When accelerators outnumber NICs they share NIC bandwidth; when
        NICs outnumber accelerators, each accelerator can drive more than
        one card (multi-rail), so the share is simply the aggregate
        divided by the accelerator count in both regimes.
        """
        return self.aggregate_inter_bandwidth_bits_per_s / self.n_accelerators

    @cached_property
    def effective_inter_link(self) -> LinkSpec:
        """The inter-node link as seen by one accelerator.

        Latency is the NIC latency; bandwidth is this accelerator's share
        of the node's aggregate NIC bandwidth.  Computed once per node
        (the communication terms read it for every candidate of a
        sweep); the cached value lives outside the dataclass fields, so
        it never enters ``==``, ``hash`` or ``repr``.
        """
        return self.inter_link.with_bandwidth(
            self.inter_bandwidth_per_accelerator_bits_per_s,
            name=f"{self.inter_link.name} (per-accelerator share)",
        )

    def with_accelerator(self, accelerator: AcceleratorSpec) -> "NodeSpec":
        """A copy with a different accelerator model."""
        return replace(self, accelerator=accelerator)

    def with_links(self, intra_link: LinkSpec = None,
                   inter_link: LinkSpec = None) -> "NodeSpec":
        """A copy with replacement links (None keeps the current one)."""
        return replace(
            self,
            intra_link=intra_link if intra_link is not None else self.intra_link,
            inter_link=inter_link if inter_link is not None else self.inter_link,
        )
