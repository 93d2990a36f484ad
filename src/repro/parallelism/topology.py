"""Topology factors for collective operations.

Eq. 6/9/11 scale every collective's latency and volume terms by a
*topology factor* ``T``: the number of communication steps the topology
needs, divided by the number of participating accelerators [Yu et al.,
Gadget].  The paper's examples:

- ring all-reduce: ``T = 2 (N - 1) / N`` (reduce-scatter + all-gather,
  each ``N - 1`` steps, each step moving ``1/N`` of the data);
- pairwise-exchange all-to-all: ``T = (N - 1) / N``.

The classes below also report the raw *step count*, which the
step-level simulator in :mod:`repro.collectives` uses to cross-check the
closed forms.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError
from repro.units import Seconds


def _check_participants(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ConfigurationError(
            f"participant count must be a positive integer, got {n!r}")


class CollectiveTopology(ABC):
    """How a group of accelerators executes a collective operation."""

    name: str = "abstract"

    def __eq__(self, other: object) -> bool:
        # Topologies are stateless strategies: two instances of the same
        # class are interchangeable.  Value equality (rather than the
        # default identity) keeps cache keys built from topology objects
        # — e.g. :meth:`repro.core.model.AMPeD.sweep_identity` — stable
        # across equal instances and across pickling.
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))

    @abstractmethod
    def factor(self, n_participants: int) -> float:
        """Topology factor ``T``, the volume multiplier of the collective.

        Time to move a payload of ``V`` bits is ``C * steps + V / BW * T``.
        For step-symmetric topologies like the ring, ``T`` equals
        steps / participants (the paper's convention).  A single
        participant needs no communication, so ``T(1) == 0``.
        """

    @abstractmethod
    def steps(self, n_participants: int) -> int:
        """Number of sequential communication steps."""

    def latency_term(self, link_latency_s: Seconds,
                     n_participants: int) -> Seconds:
        """The latency contribution of Eqs. 6 and 11.

        The paper writes it as ``C * T * N``; for the ring this equals
        ``C * steps`` (``T * N = 2 (N - 1)``), and ``C * steps`` is the
        form that stays correct for topologies whose steps move the full
        payload, so that is what we compute.
        """
        _check_participants(n_participants)
        return link_latency_s * self.steps(n_participants)

    def volume_term(self, n_values: float, value_bits: float,
                    bandwidth_bits_per_s: float,
                    n_participants: int) -> float:
        """The ``N * S / BW * T`` bandwidth contribution of Eqs. 6 and 11."""
        _check_participants(n_participants)
        return (n_values * value_bits / bandwidth_bits_per_s
                * self.factor(n_participants))


class RingAllReduce(CollectiveTopology):
    """Bandwidth-optimal ring all-reduce: ``T = 2 (N - 1) / N``.

    The default for TP activation all-reduce (Eq. 6) and DP gradient
    all-reduce (Eq. 11), matching the paper's worked example.
    """

    name = "ring-allreduce"

    def factor(self, n_participants: int) -> float:
        _check_participants(n_participants)
        n = n_participants
        return 2.0 * (n - 1) / n

    def steps(self, n_participants: int) -> int:
        _check_participants(n_participants)
        return 2 * (n_participants - 1)


class TreeAllReduce(CollectiveTopology):
    """Latency-optimal binary-tree all-reduce: reduce up, broadcast down.

    ``2 * ceil(log2 N)`` steps, each moving the *full* payload (unlike
    the ring, whose steps move ``1/N`` of it), so the volume multiplier
    equals the step count.  Latency-cheap, bandwidth-expensive:
    preferable only for small payloads over high-latency links.
    """

    name = "tree-allreduce"

    def factor(self, n_participants: int) -> float:
        _check_participants(n_participants)
        if n_participants == 1:
            return 0.0
        return 2.0 * math.ceil(math.log2(n_participants))

    def steps(self, n_participants: int) -> int:
        _check_participants(n_participants)
        if n_participants == 1:
            return 0
        return 2 * math.ceil(math.log2(n_participants))


class FullyConnectedAllReduce(CollectiveTopology):
    """Single-step direct-exchange all-reduce over a full crossbar
    (NVSwitch-style): every rank sends its shard to every other rank in
    one step; ``T = (N - 1) / N``."""

    name = "fully-connected-allreduce"

    def factor(self, n_participants: int) -> float:
        _check_participants(n_participants)
        n = n_participants
        return (n - 1) / n

    def steps(self, n_participants: int) -> int:
        _check_participants(n_participants)
        return 0 if n_participants == 1 else 1


class PairwiseAllToAll(CollectiveTopology):
    """Pairwise-exchange all-to-all: ``T = (N - 1) / N`` (Eq. 9's default
    for MoE expert dispatch/combine)."""

    name = "pairwise-alltoall"

    def factor(self, n_participants: int) -> float:
        _check_participants(n_participants)
        n = n_participants
        return (n - 1) / n

    def steps(self, n_participants: int) -> int:
        _check_participants(n_participants)
        return n_participants - 1


#: Library defaults, matching the paper's examples.
RING = RingAllReduce()
TREE = TreeAllReduce()
FULLY_CONNECTED = FullyConnectedAllReduce()
PAIRWISE_ALLTOALL = PairwiseAllToAll()

TOPOLOGIES = {
    RING.name: RING,
    TREE.name: TREE,
    FULLY_CONNECTED.name: FULLY_CONNECTED,
    PAIRWISE_ALLTOALL.name: PAIRWISE_ALLTOALL,
}
