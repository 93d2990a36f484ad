"""Parallelism mapping description.

AMPeD distinguishes *intra-node* and *inter-node* degrees for each
parallelism type because they ride different links (Eq. 5 keeps separate
TP-intra/TP-inter and PP-intra/PP-inter terms).  A
:class:`ParallelismSpec` therefore carries six degrees:

====================  =========================================
``tp_intra``          tensor-parallel ways inside a node
``tp_inter``          tensor-parallel ways across nodes
``pp_intra``          pipeline stages inside a node
``pp_inter``          pipeline stages across nodes
``dp_intra``          data-parallel replicas inside a node
``dp_inter``          data-parallel replicas across nodes
====================  =========================================

The intra degrees must multiply to the node's accelerator count and the
inter degrees to the node count, so the mapping tiles the machine
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, MappingError, require_finite
from repro.hardware.system import SystemSpec


@dataclass(frozen=True)
class ParallelismSpec:
    """A complete mapping of DP/TP/PP (+MoE) degrees onto a system.

    Parameters
    ----------
    tp_intra, tp_inter, pp_intra, pp_inter, dp_intra, dp_inter:
        Parallelism degrees, all >= 1.
    n_microbatches:
        ``N_ub``, microbatches per (mini)batch.  Defaults to the total
        pipeline degree — the choice used by the paper's PP validation
        ("we set the number of microbatches to be equal to the pipeline
        degree").
    expert_parallel:
        Whether MoE experts are sharded across workers (adds Eq. 9's
        all-to-all for models that have experts; a no-op for dense
        models).
    bubble_overlap_ratio:
        ``R`` in Eq. 8 — 1.0 for naive/GPipe pipelining, < 1 for
        interleaved schedules that overlap bubbles.
    """

    tp_intra: int = 1
    tp_inter: int = 1
    pp_intra: int = 1
    pp_inter: int = 1
    dp_intra: int = 1
    dp_inter: int = 1
    n_microbatches: Optional[int] = None
    expert_parallel: bool = True
    bubble_overlap_ratio: float = 1.0

    def __post_init__(self) -> None:
        for name in _DEGREE_FIELDS:
            value = getattr(self, name)
            # bool subclasses int but is no count.
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < 1):
                raise ConfigurationError(
                    f"{name} must be an integer >= 1, got {value!r}")
        _check_microbatches(self.n_microbatches)
        require_finite("bubble_overlap_ratio", self.bubble_overlap_ratio)
        _check_overlap_sign(self.bubble_overlap_ratio)
        if not isinstance(self.expert_parallel, bool):
            raise ConfigurationError(
                f"expert_parallel must be a bool, got "
                f"{self.expert_parallel!r}")

    # -- aggregate degrees ---------------------------------------------------

    @property
    def tp(self) -> int:
        """Total tensor-parallel degree ``N_TP``."""
        return self.tp_intra * self.tp_inter

    @property
    def pp(self) -> int:
        """Total pipeline-parallel degree ``N_PP``."""
        return self.pp_intra * self.pp_inter

    @property
    def dp(self) -> int:
        """Total data-parallel degree ``N_DP``."""
        return self.dp_intra * self.dp_inter

    @property
    def world_size(self) -> int:
        """Total workers claimed by this mapping."""
        return self.tp * self.pp * self.dp

    @property
    def intra_degree(self) -> int:
        """Workers claimed inside one node."""
        return self.tp_intra * self.pp_intra * self.dp_intra

    @property
    def inter_degree(self) -> int:
        """Node-level replication claimed across the cluster."""
        return self.tp_inter * self.pp_inter * self.dp_inter

    @property
    def microbatches(self) -> int:
        """``N_ub``: explicit value, or the pipeline degree by default."""
        if self.n_microbatches is not None:
            return self.n_microbatches
        return self.pp

    @property
    def uses_inter_tp(self) -> bool:
        """Whether any tensor parallelism crosses the node boundary."""
        return self.tp_inter > 1

    @property
    def uses_inter_pp(self) -> bool:
        """Whether any pipeline stage boundary crosses nodes."""
        return self.pp_inter > 1

    # -- validation ----------------------------------------------------------

    def validate_against(self, system: SystemSpec) -> None:
        """Raise :class:`MappingError` unless this mapping tiles
        ``system`` exactly."""
        node_size = system.node.n_accelerators
        if self.intra_degree != node_size:
            raise MappingError(
                f"intra-node degrees tp*pp*dp = {self.intra_degree} do not "
                f"tile the node ({node_size} accelerators)")
        if self.inter_degree != system.n_nodes:
            raise MappingError(
                f"inter-node degrees tp*pp*dp = {self.inter_degree} do not "
                f"tile the cluster ({system.n_nodes} nodes)")

    def validate_against_model(self, n_layers: int, n_heads: int) -> None:
        """Raise :class:`MappingError` for degrees the model cannot honor:
        more pipeline stages than layers, or TP wider than the head count."""
        if self.pp > n_layers:
            raise MappingError(
                f"pipeline degree {self.pp} exceeds the model's "
                f"{n_layers} layers")
        if self.tp > 1 and n_heads % self.tp != 0:
            raise MappingError(
                f"tensor-parallel degree {self.tp} does not divide the "
                f"model's {n_heads} attention heads")

    # -- derived helpers -----------------------------------------------------

    def with_microbatches(self, n_microbatches: int) -> "ParallelismSpec":
        """A copy with an explicit microbatch count.

        Equal to ``dataclasses.replace(self, n_microbatches=...)`` but
        validates only the changed field: the rest were checked when
        ``self`` was built.  Sweeps call this once per tuned candidate.
        """
        _check_microbatches(n_microbatches)
        return self._copy_with(n_microbatches=n_microbatches)

    def with_overlap(self, bubble_overlap_ratio: float) -> "ParallelismSpec":
        """A copy with a different bubble overlap ratio ``R``.

        Like :meth:`with_microbatches`, validates only ``R``.
        """
        require_finite("bubble_overlap_ratio", bubble_overlap_ratio)
        _check_overlap_sign(bubble_overlap_ratio)
        return self._copy_with(bubble_overlap_ratio=bubble_overlap_ratio)

    def _copy_with(self, **values: object) -> "ParallelismSpec":
        # No validation: callers check the fields they change.
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.__dict__.update(values)
        return clone

    def describe(self) -> str:
        """Compact human-readable mapping summary."""
        parts = []
        for label, intra, inter in (("TP", self.tp_intra, self.tp_inter),
                                    ("PP", self.pp_intra, self.pp_inter),
                                    ("DP", self.dp_intra, self.dp_inter)):
            if intra > 1 or inter > 1:
                parts.append(f"{label}={intra}x{inter}")
        return ", ".join(parts) if parts else "serial"


_DEGREE_FIELDS = ("tp_intra", "tp_inter", "pp_intra",
                  "pp_inter", "dp_intra", "dp_inter")


def _check_microbatches(value: object) -> None:
    if value is None:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(
            f"n_microbatches must be an integer >= 1 or None, got "
            f"{value!r}")
    if value < 1:
        raise ConfigurationError(
            f"n_microbatches must be >= 1, got {value}")


def _check_overlap_sign(value: float) -> None:
    if value < 0:
        raise ConfigurationError(
            f"bubble_overlap_ratio must be >= 0, got {value}")


def spec_from_totals(system: SystemSpec, tp: int = 1, pp: int = 1,
                     dp: int = 1, **kwargs) -> ParallelismSpec:
    """Place total degrees onto a system, TP innermost.

    Follows the Megatron placement practice the paper validates against:
    tensor parallelism fills the node first (it is the most
    bandwidth-hungry), then pipeline stages, then data-parallel replicas;
    whatever does not fit inside the node spills across nodes.

    Raises :class:`MappingError` when the degrees cannot be split along
    the node boundary without fragmenting (e.g. TP=8 on 6-GPU nodes).
    """
    node_size = system.node.n_accelerators
    if tp * pp * dp != system.n_accelerators:
        raise MappingError(
            f"tp*pp*dp = {tp * pp * dp} does not equal the system's "
            f"{system.n_accelerators} accelerators")

    remaining = node_size
    tp_intra, tp_inter = _split_degree(tp, remaining, "TP")
    remaining //= tp_intra
    pp_intra, pp_inter = _split_degree(pp, remaining, "PP")
    remaining //= pp_intra
    dp_intra, dp_inter = _split_degree(dp, remaining, "DP")
    remaining //= dp_intra
    if remaining != 1:
        raise MappingError(
            f"degrees (tp={tp}, pp={pp}, dp={dp}) leave {remaining} "
            f"accelerators per node unused")
    return ParallelismSpec(tp_intra=tp_intra, tp_inter=tp_inter,
                           pp_intra=pp_intra, pp_inter=pp_inter,
                           dp_intra=dp_intra, dp_inter=dp_inter, **kwargs)


def _split_degree(total: int, room_in_node: int, label: str):
    """Split a total degree into (intra, inter) filling the node first."""
    if total <= room_in_node:
        if room_in_node % total != 0:
            raise MappingError(
                f"{label} degree {total} does not divide the remaining "
                f"node capacity {room_in_node}")
        return total, 1
    if total % room_in_node != 0:
        raise MappingError(
            f"{label} degree {total} does not split along a node "
            f"boundary of {room_in_node}")
    return room_in_node, total // room_in_node
