"""Default-path equivalence property: an unconfigured ``AMPeD`` ==
per-layer across the zoo.

``AMPeD`` built without an ``evaluation_path`` replaces the per-layer
sum of Eq. 1 with one evaluation per layer equivalence class times its
multiplicity (the compiled term tables).  Because Eq. 1 is linear in
the per-layer terms this is exact up to float associativity; here we
pin that guarantee for the default constructor across every zoo model
(minGPT 85M through GLaM 1.2T), with and without the embedding
pseudo-layer, and with and without explicit ZeRO-3 gather traffic, on
every component of the breakdown and on the full-run estimate.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.model import AMPeD
from repro.core.zero import NO_ZERO, ZeroConfig
from repro.hardware.catalog import A100
from repro.hardware.interconnect import IB_HDR, NVLINK3
from repro.hardware.node import NodeSpec
from repro.hardware.system import SystemSpec
from repro.parallelism.spec import ParallelismSpec
from repro.transformer.zoo import MODELS

RELATIVE_TOLERANCE = 1e-9

GLOBAL_BATCH = 256

ZERO_VARIANTS = [
    pytest.param(NO_ZERO, False, id="no-zero"),
    pytest.param(ZeroConfig(stage=3), True, id="zero3-explicit"),
]


@pytest.fixture(scope="module")
def system() -> SystemSpec:
    node = NodeSpec(accelerator=A100, n_accelerators=4,
                    intra_link=NVLINK3, inter_link=IB_HDR, n_nics=4)
    return SystemSpec(node=node, n_nodes=4)


@pytest.mark.parametrize("include_embeddings", [True, False],
                         ids=["embeddings", "no-embeddings"])
@pytest.mark.parametrize("zero,zero_explicit", ZERO_VARIANTS)
@pytest.mark.parametrize("model_key", sorted(MODELS))
def test_collapsed_matches_per_layer(model_key, zero, zero_explicit,
                                     include_embeddings, system):
    spec = ParallelismSpec(tp_intra=4, pp_inter=2, dp_inter=2)
    amped = AMPeD(model=MODELS[model_key], system=system,
                  parallelism=spec, zero=zero,
                  zero_explicit_comm=zero_explicit,
                  include_embeddings=include_embeddings, validate=False)
    reference_amped = replace(amped, evaluation_path="per_layer")
    fast = amped.estimate_batch(GLOBAL_BATCH).as_dict()
    reference = reference_amped.estimate_batch(GLOBAL_BATCH).as_dict()

    assert fast.keys() == reference.keys()
    for component, reference_value in reference.items():
        fast_value = fast[component]
        scale = max(abs(reference_value), 1e-300)
        assert abs(fast_value - reference_value) / scale \
            <= RELATIVE_TOLERANCE, (
                f"{model_key}/{component}: default {fast_value!r} vs "
                f"per-layer {reference_value!r}")
    days = amped.estimate(GLOBAL_BATCH, n_batches=1000).total_time_days
    reference_days = reference_amped.estimate(
        GLOBAL_BATCH, n_batches=1000).total_time_days
    assert abs(days - reference_days) / reference_days \
        <= RELATIVE_TOLERANCE
