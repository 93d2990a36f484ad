"""The scalar compiled route is the oracle for every default sweep.

``run_sweep`` and ``explore`` run every default (``"compiled"``) sweep
on the vectorized binder, whatever its size, memory-enforced sweeps
included (the memory screen is a lane mask there).  These tests keep
the scalar route honest as an independent reference: on seeded planner
cells (zoo model x cluster size x global batch) the default ranked
sweep must equal the same sweep evaluated candidate by candidate
through :func:`~repro.search.dse.evaluate_candidate`, bit for bit —
labels, batch times, breakdowns, tuned mappings, the evaluated count
and every skip count, and for memory-enforced cells the report and the
journal's candidate records.  The pruner bounds both sweeps share are
checked against :meth:`CompiledSweep.lower_bound` spec by spec.  The
compiled-sweep cache is cleared between the two runs so the scalar
route fills its own term tables instead of reading the ones the array
binder filled.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from functools import partial

import pytest

from repro.core.model import AMPeD
from repro.errors import MappingError
from repro.hardware.catalog import megatron_a100_cluster
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.search import vectorized as vectorized_module
from repro.search.compiler import CompiledSweep, clear_compiled_cache
from repro.search.dse import evaluate_candidate
from repro.search.resilience import run_sweep
from repro.search.vectorized import (
    BoundBatch,
    clear_vectorized_stats,
    vectorized_stats,
)
from repro.transformer.zoo import MODELS

NODE_COUNTS = (4, 16, 64, 128)
GLOBAL_BATCHES = (512, 2048)
MODELS_PER_SHAPE = 2
SEED = 20230418
MAX_RESULTS = 10


def _cells():
    """Two seeded zoo models for every (nodes, batch) shape: 16 cells
    that cover each cluster size and batch."""
    rng = random.Random(SEED)
    keys = sorted(MODELS)
    return [(key, n_nodes, batch)
            for n_nodes in NODE_COUNTS for batch in GLOBAL_BATCHES
            for key in rng.sample(keys, MODELS_PER_SHAPE)]


CELLS = _cells()

#: Memory-enforced cells: three where most candidates are memory
#: skips (the cells the memory screen was timed on), two small models
#: where most mappings fit, and the seeded planner cells.
MEMORY_CELLS = [("megatron-1t", 128, 2048), ("gpt3-175b", 64, 1024),
                ("megatron-1t", 256, 2048), ("megatron-1.7b", 4, 512),
                ("mingpt-85m", 2, 64)] + CELLS


def _template(key, n_nodes):
    system = replace(megatron_a100_cluster(), n_nodes=n_nodes)
    return AMPeD.for_mapping(MODELS[key], system,
                             dp=system.n_accelerators,
                             efficiency=CASE_STUDY_EFFICIENCY)


def _scalar_route(template, batch, tune, enforce_memory,
                  evaluate=evaluate_candidate):
    """``evaluate`` bound as ``run_sweep`` binds its default: a custom
    evaluator takes every candidate the pruner keeps."""
    return partial(evaluate, template, global_batch=batch,
                   tune_microbatches=tune, enforce_memory=enforce_memory)


def _ranked(template, batch, mappings, evaluate=None):
    clear_compiled_cache()
    outcome = run_sweep(template, batch, mappings=mappings,
                        max_results=MAX_RESULTS, evaluate=evaluate)
    results = [(result.label, result.batch_time_s,
                result.breakdown.as_dict(), result.parallelism,
                result.microbatch_size, result.microbatch_efficiency)
               for result in outcome.results]
    report = outcome.report
    return results, report.evaluated, dict(report.skipped)


def test_cells_cover_every_shape():
    assert len(CELLS) >= 12
    assert {n_nodes for _, n_nodes, _ in CELLS} == set(NODE_COUNTS)
    assert {batch for _, _, batch in CELLS} == set(GLOBAL_BATCHES)


@pytest.mark.parametrize("key,n_nodes,batch", CELLS)
def test_default_sweep_matches_scalar_route(key, n_nodes, batch):
    template = _template(key, n_nodes)
    mappings = enumerate_mappings(template.system, template.model)
    assert vectorized_module.resolve_evaluation_path(
        "compiled", len(mappings)) == "vectorized"
    vectorized = _ranked(template, batch, mappings)
    scalar = _ranked(template, batch, mappings,
                     _scalar_route(template, batch, True, False))

    assert vectorized[0], "every planner cell ranks at least one mapping"
    assert vectorized == scalar


def _memory_sweep(template, batch, tune, journal, evaluate=None):
    clear_compiled_cache()
    outcome = run_sweep(template, batch, max_results=MAX_RESULTS,
                        tune_microbatches=tune, enforce_memory=True,
                        journal_path=journal, evaluate=evaluate)
    results = [(result.label, result.batch_time_s,
                result.breakdown.as_dict(), result.parallelism,
                result.microbatch_size, result.microbatch_efficiency)
               for result in outcome.results]
    report = outcome.report.as_dict()
    report.pop("journal_path")
    with open(journal, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    candidates = [record for record in records
                  if record["kind"] == "candidate"]
    return results, report, candidates


@pytest.mark.parametrize("tune", [True, False], ids=["tuned", "untuned"])
@pytest.mark.parametrize("key,n_nodes,batch", MEMORY_CELLS)
def test_memory_enforced_sweep_matches_scalar_route(
        key, n_nodes, batch, tune, tmp_path):
    template = _template(key, n_nodes)
    vectorized = _memory_sweep(template, batch, tune,
                               tmp_path / "vectorized.jsonl")
    scalar = _memory_sweep(template, batch, tune,
                           tmp_path / "scalar.jsonl",
                           _scalar_route(template, batch, tune, True))
    assert vectorized[2], "the journal records every candidate"
    assert vectorized == scalar


def test_memory_enforced_sweep_binds_arrays():
    clear_vectorized_stats()
    outcome = run_sweep(_template("megatron-1t", 128), 2048,
                        max_results=MAX_RESULTS, enforce_memory=True)
    assert outcome.report.skipped["memory_capacity"] > 0
    assert vectorized_stats()["lanes"] > 0


def test_untuned_memory_skips_come_from_the_lane_mask(tmp_path,
                                                      monkeypatch):
    """Untuned, memory-enforced candidates that do not fit are decided
    in the arrays: none goes back through ``evaluate_candidate``, and
    the ranking, report, skip counts and journal details equal the
    scalar route's."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return evaluate_candidate(*args, **kwargs)

    monkeypatch.setattr("repro.search.resilience.evaluate_candidate",
                        counting)
    template = _template("megatron-1t", 128)
    vectorized = _memory_sweep(template, 2048, False,
                               tmp_path / "vectorized.jsonl")
    assert calls == []
    assert vectorized[1]["skipped"]["memory_capacity"] == 280
    assert all(record["detail"].endswith("does not fit in HBM")
               for record in vectorized[2])

    scalar = _memory_sweep(template, 2048, False, tmp_path / "scalar.jsonl",
                           _scalar_route(template, 2048, False, True,
                                         counting))
    assert len(calls) == 280
    assert vectorized == scalar


@pytest.mark.parametrize("tune", [True, False], ids=["tuned", "untuned"])
@pytest.mark.parametrize("key,n_nodes,batch", CELLS)
def test_array_bounds_match_scalar_lower_bound(key, n_nodes, batch, tune):
    """The pruner bound both routes prune on: ``lower_bounds()`` equals
    :meth:`CompiledSweep.lower_bound` spec by spec, NaN where it
    raises."""
    template = _template(key, n_nodes)
    specs = enumerate_mappings(template.system, template.model)
    bounds = BoundBatch(CompiledSweep(template, batch), specs,
                        tune).lower_bounds().tolist()
    scalar = CompiledSweep(template, batch)
    for spec, bound in zip(specs, bounds):
        try:
            expected = scalar.lower_bound(spec, tune)
        except MappingError:
            assert math.isnan(bound), spec.describe()
            continue
        assert bound == expected, spec.describe()
