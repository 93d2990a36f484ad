"""Vectorized-backend equivalence property: arrays == scalars zoo-wide.

The vectorized backend (:mod:`repro.search.vectorized`) evaluates
batches of candidates column-wise over the compiled term tables,
summing them with the scalar combiner's own Eq. 1 assembly on float64
columns — so it owes the scalar term-table route
(:func:`~repro.search.dse.evaluate_candidate`) *bit-exact* agreement,
and therefore inherits its 1e-9 bar against the per-layer reference.
This module pins both across every zoo model, plus whole-sweep
identity: explore() rankings, run_sweep() skip counters and journal
rows, with pruning on and off.  A default (``"compiled"``) sweep runs
on the arrays; the same sweep with ``evaluate_candidate`` passed as
its ``evaluate`` walks the scalar route candidate by candidate.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from functools import partial

import pytest

from repro.core.model import AMPeD
from repro.core.zero import ZeroConfig
from repro.hardware.catalog import A100
from repro.hardware.interconnect import IB_HDR, NVLINK3
from repro.hardware.node import NodeSpec
from repro.hardware.system import SystemSpec
from repro.parallelism.mapping import enumerate_mappings
from repro.search.compiler import compile_sweep
from repro.search.dse import evaluate_candidate, explore
from repro.search.resilience import run_sweep
from repro.search.vectorized import evaluate_chunk
from repro.transformer.zoo import MODELS

RELATIVE_TOLERANCE = 1e-9

GLOBAL_BATCH = 256

#: Template options that steer the Eq. 1 assembly down its other
#: branches; each runs on one dense and one MoE zoo model, while every
#: model runs the defaults.
ASSEMBLY_OPTIONS = {
    "eq8": {"bubble_model": "eq8"},
    "zero3-explicit": {"zero": ZeroConfig(stage=3),
                       "zero_explicit_comm": True},
    "serial-stages": {"concurrent_stage_comm": False},
    "overlap": {"comm_overlap_fraction": 0.25},
    "no-embeddings": {"include_embeddings": False},
}

CHUNK_CASES = [pytest.param(key, {}, id=key) for key in sorted(MODELS)] + [
    pytest.param(key, options, id=f"{key}-{name}")
    for key in ("megatron-1.7b", "glam-1.2t")
    for name, options in ASSEMBLY_OPTIONS.items()]


@pytest.fixture(scope="module")
def system() -> SystemSpec:
    node = NodeSpec(accelerator=A100, n_accelerators=4,
                    intra_link=NVLINK3, inter_link=IB_HDR, n_nics=4)
    return SystemSpec(node=node, n_nodes=4)


@pytest.mark.parametrize("tune", [False, True], ids=["untuned", "tuned"])
@pytest.mark.parametrize("model_key, options", CHUNK_CASES)
def test_chunk_matches_scalar_paths(model_key, options, tune, system):
    """Candidate fates and times agree with the scalar compiled path
    bit-exactly (hence with per-layer to 1e-9) for every legal mapping
    of every zoo model, tuned and untuned, and under each option of
    :data:`ASSEMBLY_OPTIONS`."""
    template = replace(
        AMPeD.for_mapping(MODELS[model_key], system,
                          dp=system.n_accelerators),
        evaluation_path="compiled", **options)
    mappings = enumerate_mappings(system, MODELS[model_key])
    compiled = compile_sweep(template, GLOBAL_BATCH)
    chunk = evaluate_chunk(template, compiled, mappings, GLOBAL_BATCH,
                           tune_microbatches=tune)
    assert len(chunk.times) == len(mappings)
    decided = [index for index, batch_time in enumerate(chunk.times)
               if not math.isnan(batch_time)]
    results = dict(zip(decided, chunk.results(decided)))
    for index, spec in enumerate(mappings):
        scalar = evaluate_candidate(template, spec, GLOBAL_BATCH,
                                    tune_microbatches=tune)
        reference = evaluate_candidate(
            replace(template, evaluation_path="per_layer"), spec,
            GLOBAL_BATCH, tune_microbatches=tune)
        if index not in results:
            # The chunk defers to scalar evaluation exactly where the
            # tables cannot decide; the sweep runtime then reproduces
            # the scalar fate verbatim.
            assert not scalar.evaluated
            continue
        result = results[index]
        assert scalar.evaluated and reference.evaluated
        assert chunk.times[index] == result.batch_time_s \
            == scalar.result.batch_time_s  # bit-exact vs compiled
        assert result.breakdown.as_dict() \
            == scalar.result.breakdown.as_dict()
        assert result.parallelism == scalar.result.parallelism
        scale = max(abs(reference.result.batch_time_s), 1e-300)
        assert abs(result.batch_time_s
                   - reference.result.batch_time_s) / scale \
            <= RELATIVE_TOLERANCE, (
                f"{model_key}/{spec.describe()}: vectorized "
                f"{result.batch_time_s!r} vs per-layer "
                f"{reference.result.batch_time_s!r}")


def _scalar_route(template):
    """``evaluate_candidate`` bound as ``run_sweep`` binds its default:
    as a custom ``evaluate``, it takes every candidate one by one."""
    return partial(evaluate_candidate, template, global_batch=GLOBAL_BATCH)


@pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
def test_explore_ranking_identical_across_paths(prune, system):
    """explore() returns the same ranked labels, and times within the
    path-equivalence bars, whether candidates run one at a time or as
    one array program."""
    template = AMPeD.for_mapping(MODELS["megatron-145b"], system,
                                 dp=system.n_accelerators)
    rankings = {}
    for path in ("per_layer", "compiled"):
        results = explore(template, GLOBAL_BATCH, max_results=5,
                          prune=prune, evaluation_path=path)
        rankings[path] = [(r.label, r.batch_time_s) for r in results]
    scalar = run_sweep(template, GLOBAL_BATCH, max_results=5,
                       prune=prune, strict=True,
                       evaluate=_scalar_route(template))
    assert [label for label, _ in rankings["compiled"]] \
        == [label for label, _ in rankings["per_layer"]]
    # Bit-exact against the scalar tables; 1e-9 against per-layer.
    assert rankings["compiled"] \
        == [(r.label, r.batch_time_s) for r in scalar.results]
    for (_, vectorized_t), (_, reference_t) in zip(
            rankings["compiled"], rankings["per_layer"]):
        scale = max(abs(reference_t), 1e-300)
        assert abs(vectorized_t - reference_t) / scale \
            <= RELATIVE_TOLERANCE


def _candidate_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") not in (None, "candidate"):
            continue
        if "key" not in record:
            continue
        rows.append((record["key"], record.get("status"),
                     record.get("category"), record.get("detail")))
    return rows


@pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
def test_run_sweep_pruner_parity(prune, tmp_path, system):
    """The batched pruner walk reproduces the serial compiled sweep
    exactly: same ranking, same skip counters, same journal rows in the
    same order."""
    template = AMPeD.for_mapping(MODELS["megatron-145b"], system,
                                 dp=system.n_accelerators)
    vectorized_journal = tmp_path / "vectorized.jsonl"
    vectorized_outcome = run_sweep(template, GLOBAL_BATCH, max_results=5,
                                   prune=prune,
                                   journal_path=vectorized_journal)
    scalar_journal = tmp_path / "scalar.jsonl"
    scalar_outcome = run_sweep(template, GLOBAL_BATCH, max_results=5,
                               prune=prune, journal_path=scalar_journal,
                               evaluate=_scalar_route(template))
    assert [(r.label, r.batch_time_s)
            for r in vectorized_outcome.results] \
        == [(r.label, r.batch_time_s) for r in scalar_outcome.results]
    assert vectorized_outcome.report.skipped \
        == scalar_outcome.report.skipped
    assert vectorized_outcome.report.evaluated \
        == scalar_outcome.report.evaluated
    assert vectorized_outcome.report.n_candidates \
        == scalar_outcome.report.n_candidates
    assert _candidate_rows(vectorized_journal) \
        == _candidate_rows(scalar_journal)


def test_run_sweep_survivor_sets_identical(system):
    """With pruning on, the exact set of evaluated (surviving)
    candidates matches between backends — the batched lower bounds
    prune neither more nor less than the scalar pruner."""
    template = AMPeD.for_mapping(MODELS["mingpt-85m"], system,
                                 dp=system.n_accelerators)
    survivors = {}
    for route, evaluate in (("vectorized", None),
                            ("scalar", _scalar_route(template))):
        outcome = run_sweep(template, GLOBAL_BATCH, max_results=3,
                            prune=True, evaluate=evaluate)
        survivors[route] = (
            outcome.report.evaluated,
            dict(outcome.report.skipped),
            [(r.label, r.batch_time_s) for r in outcome.results])
    assert survivors["vectorized"] == survivors["scalar"]
