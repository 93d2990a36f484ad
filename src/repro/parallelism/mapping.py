"""Enumeration of legal parallelism mappings for a system.

Case Study I performs an "exhaustive exploration [of] all possible
combinations of data, pipeline, and tensor parallelism in intra-node and
inter-node accelerators".  This module produces those combinations: every
factorization of the node size into (tp_intra, pp_intra, dp_intra) and of
the node count into (tp_inter, pp_inter, dp_inter), optionally filtered
by model constraints (pipeline depth <= layer count, TP divides heads).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import MappingError
from repro.hardware.system import SystemSpec
from repro.parallelism.spec import ParallelismSpec
from repro.transformer.config import TransformerConfig
from repro.units import divisors


def factor_triples(total: int) -> Iterator[tuple]:
    """Yield every ordered triple ``(x, y, z)`` with ``x*y*z == total``."""
    for x in divisors(total):
        rest = total // x
        for y in divisors(rest):
            yield x, y, rest // y


def enumerate_mappings(system: SystemSpec,
                       model: Optional[TransformerConfig] = None,
                       require_tp_divides_heads: bool = True,
                       **spec_kwargs) -> List[ParallelismSpec]:
    """All parallelism mappings that tile ``system`` exactly.

    When ``model`` is given, mappings the model cannot honor (pipeline
    deeper than the layer count, TP not dividing the attention heads)
    are dropped.  Extra keyword arguments are forwarded to every
    :class:`ParallelismSpec` (e.g. ``n_microbatches`` or
    ``bubble_overlap_ratio``).
    """
    # Validated once (the explicit degrees make a degree name in
    # ``spec_kwargs`` a TypeError); every mapping is a copy with its
    # degrees set, which are positive divisors by construction.
    prototype = ParallelismSpec(tp_intra=1, tp_inter=1, pp_intra=1,
                                pp_inter=1, dp_intra=1, dp_inter=1,
                                **spec_kwargs)
    inter_triples = list(factor_triples(system.n_nodes))
    mappings = []
    for tp_intra, pp_intra, dp_intra in factor_triples(
            system.node.n_accelerators):
        for tp_inter, pp_inter, dp_inter in inter_triples:
            if model is not None and not _model_allows(
                    tp_intra * tp_inter, pp_intra * pp_inter, model,
                    require_tp_divides_heads):
                continue
            mappings.append(prototype._copy_with(
                tp_intra=tp_intra, tp_inter=tp_inter,
                pp_intra=pp_intra, pp_inter=pp_inter,
                dp_intra=dp_intra, dp_inter=dp_inter))
    return mappings


def _model_allows(tp: int, pp: int, model: TransformerConfig,
                  require_tp_divides_heads: bool) -> bool:
    if pp > model.n_layers:
        return False
    if require_tp_divides_heads and tp > 1 and model.n_heads % tp != 0:
        return False
    return True


def mapping_for(system: SystemSpec, intra: str, inter: str,
                inter_split: Optional[tuple] = None,
                **spec_kwargs) -> ParallelismSpec:
    """Build the named mappings the case studies talk about.

    ``intra`` and ``inter`` name the parallelism type occupying that
    level: one of ``"tp"``, ``"pp"``, ``"dp"`` for ``intra``; for
    ``inter`` additionally the mixed forms ``"tp+pp"``, ``"tp+dp"``,
    ``"pp+dp"``, in which case ``inter_split = (first_degree,
    second_degree)`` divides the node count between the two types.

    Examples
    --------
    >>> from repro.hardware import megatron_a100_cluster
    >>> system = megatron_a100_cluster()
    >>> mapping_for(system, intra="tp", inter="dp").describe()
    'TP=8x1, DP=1x128'
    """
    node_size = system.node.n_accelerators
    n_nodes = system.n_nodes
    degrees = {"tp_intra": 1, "tp_inter": 1, "pp_intra": 1,
               "pp_inter": 1, "dp_intra": 1, "dp_inter": 1}

    intra_key = _level_key(intra, "intra")
    degrees[intra_key] = node_size

    if "+" in inter:
        first, second = inter.split("+")
        if inter_split is None:
            raise MappingError(
                f"mixed inter-node parallelism {inter!r} needs an "
                f"inter_split=(d1, d2)")
        d1, d2 = inter_split
        if d1 * d2 != n_nodes:
            raise MappingError(
                f"inter_split {inter_split} does not multiply to the "
                f"node count {n_nodes}")
        degrees[_level_key(first, "inter")] = d1
        degrees[_level_key(second, "inter")] = d2
    else:
        degrees[_level_key(inter, "inter")] = n_nodes

    return ParallelismSpec(**degrees, **spec_kwargs)


def _level_key(kind: str, level: str) -> str:
    kind = kind.strip().lower()
    if kind not in ("tp", "pp", "dp"):
        raise MappingError(
            f"unknown parallelism type {kind!r}; expected tp/pp/dp")
    return f"{kind}_{level}"
