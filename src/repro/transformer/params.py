"""Parameter counting and aggregate FLOP formulas.

Two consumers need parameter counts:

- Eq. 12's weight update time multiplies the per-layer weight count by
  the MAC throughput reciprocal;
- Eqs. 10-11's gradient all-reduce moves one gradient per weight.

The module also provides the standard ``12 L h^2``-style closed forms and
the model-FLOPs-per-token formula used to convert AMPeD's predicted batch
time into the TFLOP/s/GPU metric of Table II and Fig. 2c.
"""

from __future__ import annotations

import functools

from repro.transformer.config import TransformerConfig
from repro.transformer.layers import (
    attention_sublayer,
    embedding_sublayer,
    layer_sublayers,
    logits_sublayer,
    mlp_sublayer,
    moe_ffn_sublayer,
)


def layer_parameters(config: TransformerConfig, layer_index: int) -> float:
    """Trainable parameters in transformer layer ``layer_index``."""
    return sum(sub.parameters
               for sub in layer_sublayers(config, 1, layer_index))


def dense_layer_parameters(config: TransformerConfig) -> float:
    """Parameters of a dense (non-MoE) transformer layer,
    ``12 h^2 + O(h)`` for the standard ``f = 4h``."""
    return (attention_sublayer(config, 1).parameters
            + mlp_sublayer(config, 1).parameters)


@functools.lru_cache(maxsize=64)
def total_parameters(config: TransformerConfig,
                     include_embeddings: bool = True) -> float:
    """Trainable parameters of the whole model.

    For MoE models this is the *expanded* count including every expert
    (the number that makes GLaM 1.2T "1.2T"), not the per-token active
    parameters.

    Memoized per ``(config, include_embeddings)``: configs are frozen
    dataclasses and the count depends on nothing else, while the
    memory screen of a sweep asks for it once per candidate.
    """
    layers = sum(layer_parameters(config, layer)
                 for layer in range(config.n_layers))
    if not include_embeddings:
        return layers
    return (layers + embedding_sublayer(config, 1).parameters
            + logits_sublayer(config, 1).parameters)


def active_parameters_per_token(config: TransformerConfig) -> float:
    """Parameters that actually process one token.

    For dense models this equals :func:`total_parameters` without
    embeddings; for MoE models each token only visits ``top_k`` of the
    ``n_experts`` experts.
    """
    total = 0.0
    for layer in range(config.n_layers):
        attention = attention_sublayer(config, 1).parameters
        if config.is_moe_layer(layer):
            moe = config.moe
            expert = mlp_sublayer(config, 1).parameters
            gating = config.hidden_size * moe.n_experts
            total += attention + expert * moe.top_k + gating
        else:
            total += attention + mlp_sublayer(config, 1).parameters
    return total


def model_flops_per_batch(config: TransformerConfig, batch_size: int,
                          backward_multiplier: float = 2.0,
                          include_logits: bool = True) -> float:
    """Model FLOPs of one optimizer step at global batch ``batch_size``.

    Forward MAC FLOPs summed over layers (plus the vocabulary projection),
    with the backward pass costing ``backward_multiplier`` times the
    forward pass (the standard 2x: gradients w.r.t. both inputs and
    weights).  This is the numerator of the achieved-TFLOP/s metric:
    ``TFLOP/s/GPU = flops_per_batch / (batch_time * n_gpus)``.
    """
    forward = 0.0
    for layer in range(config.n_layers):
        forward += sum(sub.mac_flops
                       for sub in layer_sublayers(config, batch_size, layer))
    if include_logits:
        forward += logits_sublayer(config, batch_size).mac_flops
    return forward * (1.0 + backward_multiplier)


def flops_per_token(config: TransformerConfig,
                    backward_multiplier: float = 2.0) -> float:
    """Model FLOPs per trained token (``~ 6 x active parameters`` for
    dense models with ``s << h``)."""
    tokens = config.sequence_length
    return model_flops_per_batch(
        config, 1, backward_multiplier=backward_multiplier) / tokens


__all__ = [
    "layer_parameters",
    "dense_layer_parameters",
    "total_parameters",
    "active_parameters_per_token",
    "model_flops_per_batch",
    "flops_per_token",
    "moe_ffn_sublayer",
]
