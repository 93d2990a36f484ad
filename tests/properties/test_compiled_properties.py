"""Sweep-compiler equivalence property: compiled == per-layer zoo-wide.

The sweep compiler factors Eq. 1 into term tables keyed on minimal
mapping coordinates and evaluates candidates by key projection + table
lookups + additions (:mod:`repro.search.compiler`), one representative
per layer class.  Eq. 1 is linear in every per-layer term, so it agrees
with the per-layer reference within 1e-9 — here pinned across every zoo
model, and across whole sweeps: identical skip categories and coverage
counters, with pruning on, and against a one-by-one per-layer ranking.
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
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.spec import ParallelismSpec
from repro.search.dse import evaluate_candidate, explore
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


def _assert_close(compiled: dict, reference: dict, label: str) -> None:
    assert compiled.keys() == reference.keys()
    for component, reference_value in reference.items():
        compiled_value = compiled[component]
        scale = max(abs(reference_value), 1e-300)
        assert abs(compiled_value - reference_value) / scale \
            <= RELATIVE_TOLERANCE, (
                f"{label}/{component}: compiled {compiled_value!r} vs "
                f"per-layer {reference_value!r}")


@pytest.mark.parametrize("include_embeddings", [True, False],
                         ids=["embeddings", "no-embeddings"])
@pytest.mark.parametrize("zero,zero_explicit", ZERO_VARIANTS)
@pytest.mark.parametrize("model_key", sorted(MODELS))
def test_compiled_matches_per_layer(model_key, zero, zero_explicit,
                                    include_embeddings, system):
    spec = ParallelismSpec(tp_intra=4, pp_inter=2, dp_inter=2)
    amped = AMPeD(model=MODELS[model_key], system=system,
                  parallelism=spec, zero=zero,
                  zero_explicit_comm=zero_explicit,
                  include_embeddings=include_embeddings,
                  evaluation_path="compiled", validate=False)
    compiled = amped.estimate_batch(GLOBAL_BATCH).as_dict()
    reference = replace(amped, evaluation_path="per_layer") \
        .estimate_batch(GLOBAL_BATCH).as_dict()
    _assert_close(compiled, reference, model_key)


@pytest.mark.parametrize("enforce_memory", [False, True],
                         ids=["no-screen", "memory-screen"])
@pytest.mark.parametrize("tune", [True, False], ids=["tuned", "untuned"])
@pytest.mark.parametrize("model_key", sorted(MODELS))
def test_sweep_outcomes_identical_across_paths(model_key, tune,
                                               enforce_memory, system):
    """Per-candidate fates (evaluated / skip category / detail) agree
    between the compiled route and the per-layer route across every
    legal mapping of the fixture system, with and without microbatch
    tuning and the memory screen (which the 16-GPU fixture trips for
    the large zoo models)."""
    template = AMPeD.for_mapping(MODELS[model_key], system,
                                 dp=system.n_accelerators)
    mappings = enumerate_mappings(system, MODELS[model_key])
    for spec in mappings:
        compiled = evaluate_candidate(
            replace(template, evaluation_path="compiled"), spec,
            GLOBAL_BATCH, tune_microbatches=tune,
            enforce_memory=enforce_memory)
        reference = evaluate_candidate(
            replace(template, evaluation_path="per_layer"), spec,
            GLOBAL_BATCH, tune_microbatches=tune,
            enforce_memory=enforce_memory)
        assert compiled.skip_category == reference.skip_category, (
            f"{model_key}/{spec.describe()}")
        assert compiled.detail == reference.detail
        assert compiled.evaluated == reference.evaluated
        if compiled.evaluated:
            scale = max(abs(reference.result.batch_time_s), 1e-300)
            assert abs(compiled.result.batch_time_s
                       - reference.result.batch_time_s) / scale \
                <= RELATIVE_TOLERANCE


@pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
def test_explore_ranking_identical_across_paths(prune, system):
    """explore() returns the same ranked labels and times on the
    compiled and per-layer evaluation paths, with and without
    branch-and-bound pruning."""
    template = AMPeD.for_mapping(MODELS["megatron-145b"], system,
                                 dp=system.n_accelerators)
    rankings = {}
    for path in ("per_layer", "compiled"):
        results = explore(template, GLOBAL_BATCH, max_results=5,
                          prune=prune, evaluation_path=path)
        rankings[path] = [(r.label, r.batch_time_s) for r in results]
    labels = {path: [label for label, _ in ranked]
              for path, ranked in rankings.items()}
    assert labels["compiled"] == labels["per_layer"]
    for (_, compiled_t), (_, reference_t) in zip(
            rankings["compiled"], rankings["per_layer"]):
        scale = max(abs(reference_t), 1e-300)
        assert abs(compiled_t - reference_t) / scale \
            <= RELATIVE_TOLERANCE


def test_explore_matches_per_candidate_oracle(system):
    """The default sweep ranks exactly like evaluating every mapping
    one by one on the per-layer oracle and sorting."""
    template = AMPeD.for_mapping(MODELS["mingpt-85m"], system,
                                 dp=system.n_accelerators)
    ranked = explore(template, GLOBAL_BATCH, max_results=5)
    per_layer = replace(template, evaluation_path="per_layer")
    oracle = sorted(
        (outcome.result for outcome in (
            evaluate_candidate(per_layer, spec, GLOBAL_BATCH)
            for spec in enumerate_mappings(system, template.model))
         if outcome.evaluated),
        key=lambda result: result.batch_time_s)[:5]
    assert [r.label for r in ranked] == [r.label for r in oracle]
    for ours, reference in zip(ranked, oracle):
        scale = max(abs(reference.batch_time_s), 1e-300)
        assert abs(ours.batch_time_s - reference.batch_time_s) / scale \
            <= RELATIVE_TOLERANCE
