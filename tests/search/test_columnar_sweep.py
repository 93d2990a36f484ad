"""The columnar sweep walk: stage spans, counters, ties and the guard.

A default sweep carries each chunk's candidates as columns (pruner
bound, batch time, skip detail) and builds an ``ExplorationResult``
only for a mapping it keeps.  These tests pin what that must not
change: ties and chunk boundaries rank exactly as the object route
(``evaluate_candidate`` passed as a custom ``evaluate``) ranks them,
with and without a resumed journal; the metric counters equal the
report after complete, failed and interrupted sweeps; a lane that fails
the breakdown guard goes to the scalar route instead of escaping as a
traceback; and each chunk's stage spans nest under its
``dse.vectorized_eval`` span.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import replace
from functools import partial

import pytest

from repro.core.breakdown import TrainingTimeBreakdown
from repro.core.model import AMPeD
from repro.errors import WorkerError
from repro.hardware.catalog import megatron_a100_cluster
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.search import resilience as resilience_module
from repro.search.compiler import CompiledSweep, clear_compiled_cache
from repro.search.dse import (
    SKIP_MAPPING_INFEASIBLE,
    ExplorationResult,
    evaluate_candidate,
)
from repro.search.resilience import SweepJournal, run_sweep
from repro.search.vectorized import BoundBatch
from repro.transformer.zoo import MODELS

BATCH = 512

STAGES = ("sweep.validate", "sweep.bind", "sweep.bounds", "sweep.reduce",
          "sweep.walk", "sweep.materialize")


def _template(key="megatron-1.7b", n_nodes=4):
    system = replace(megatron_a100_cluster(), n_nodes=n_nodes)
    return AMPeD.for_mapping(MODELS[key], system,
                             dp=system.n_accelerators,
                             efficiency=CASE_STUDY_EFFICIENCY)


def _object_route(template, batch=BATCH):
    return partial(evaluate_candidate, template, global_batch=batch)


def _summary(outcome):
    """Everything a ranking shows, in rank order, plus the ledger."""
    report = outcome.report
    return ([(result.parallelism, result.batch_time_s,
              result.breakdown.as_dict(), result.microbatch_size,
              result.microbatch_efficiency)
             for result in outcome.results],
            report.evaluated, report.resumed, dict(report.skipped))


@pytest.fixture
def tracer():
    tracer = get_tracer()
    tracer.enable(reset=True)
    yield tracer
    tracer.disable()
    tracer.reset()


def _fallbacks(tracer) -> int:
    return sum(record.attrs["scalar_fallbacks"]
               for record in tracer.records()
               if record.name == "dse.vectorized_eval")


# --------------------------------------------------------------------------
# Stage spans
# --------------------------------------------------------------------------


def test_each_chunk_emits_one_span_per_stage(tracer, monkeypatch):
    monkeypatch.setattr(resilience_module, "DEFAULT_CHUNK_CANDIDATES", 16)
    template = _template()
    mappings = enumerate_mappings(template.system, template.model)
    run_sweep(template, BATCH, mappings=mappings, max_results=3)
    records = tracer.records()
    by_id = {record.span_id: record for record in records}
    runs = [record for record in records if record.name == "sweep.run"]
    chunks = [record for record in records
              if record.name == "dse.vectorized_eval"]
    assert len(runs) == 1
    assert len(chunks) == -(-len(mappings) // 16) > 1
    assert all(chunk.parent_id == runs[0].span_id for chunk in chunks)
    for chunk in chunks:
        stages = [record.name for record in records
                  if record.parent_id == chunk.span_id]
        assert sorted(stages) == sorted(STAGES)
    stage_spans = [record for record in records if record.name in STAGES]
    assert len(stage_spans) == len(STAGES) * len(chunks)
    assert all(by_id[record.parent_id].name == "dse.vectorized_eval"
               for record in stage_spans)


# --------------------------------------------------------------------------
# The breakdown guard
# --------------------------------------------------------------------------


def test_guard_failure_goes_to_the_scalar_route(tracer, monkeypatch):
    """A picked lane with a negative component is undecided: the scalar
    route evaluates it, and there the same negative component fails the
    breakdown guard, a ``mapping_infeasible`` skip."""
    template = _template()
    mappings = enumerate_mappings(template.system, template.model)
    clear_compiled_cache()
    baseline = run_sweep(template, BATCH, mappings=mappings)
    baseline_fallbacks = _fallbacks(tracer)
    target = baseline.results[0].parallelism.describe()

    lane_components = BoundBatch.lane_components
    breakdown = CompiledSweep.breakdown

    def negative_lanes(self):
        columns = lane_components(self)
        for row, spec in enumerate(self.specs):
            if spec.describe() == target:
                start = self._offsets[row]
                columns[5][start:start + self._counts[row]] = -1.0
        return columns

    def negative_breakdown(self, spec, totals=None):
        result = breakdown(self, spec, totals)
        if spec.describe() != target:
            return result
        return TrainingTimeBreakdown(**{**result.as_dict(), "comm_pp": -1.0})

    monkeypatch.setattr(BoundBatch, "lane_components", negative_lanes)
    monkeypatch.setattr(CompiledSweep, "breakdown", negative_breakdown)
    clear_compiled_cache()
    tracer.reset()
    outcome = run_sweep(template, BATCH, mappings=mappings)

    assert _fallbacks(tracer) == baseline_fallbacks + 1
    assert target not in [result.label for result in outcome.results]
    assert outcome.report.evaluated == baseline.report.evaluated - 1
    skipped = dict(baseline.report.skipped)
    skipped[SKIP_MAPPING_INFEASIBLE] = skipped.get(
        SKIP_MAPPING_INFEASIBLE, 0) + 1
    assert outcome.report.skipped == skipped


# --------------------------------------------------------------------------
# Ties and chunk boundaries
# --------------------------------------------------------------------------


def _tied_mappings(template):
    """Every mapping three times: without pipelining as three bubble
    overlap ratios (the bubble term is gated off, so their times tie
    exactly and the results still differ), otherwise as exact repeats;
    shuffled so that tie groups straddle chunks."""
    tied = []
    for spec in enumerate_mappings(template.system, template.model):
        for ratio in (1.0, 0.5, 0.25):
            tied.append(replace(spec, bubble_overlap_ratio=ratio)
                        if spec.pp == 1 else spec)
    random.Random(7).shuffle(tied)
    return tied


@pytest.mark.parametrize("resumed", [False, True],
                         ids=["fresh", "resumed"])
def test_ties_across_chunks_rank_like_the_object_route(resumed, tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(resilience_module, "DEFAULT_CHUNK_CANDIDATES", 7)
    template = _template()
    mappings = _tied_mappings(template)
    options = {}
    if resumed:
        # A journal that holds the first 40 candidate fates of a sweep.
        full = tmp_path / "full.jsonl"
        run_sweep(template, BATCH, mappings=mappings, max_results=2,
                  journal_path=full)
        head = full.read_text().splitlines()[:41]
        assert len(head) == 41
        for name in ("columns.jsonl", "objects.jsonl"):
            (tmp_path / name).write_text("\n".join(head) + "\n")
        options = {"resume": True}

    def sweep(name, evaluate=None):
        clear_compiled_cache()
        if resumed:
            options["journal_path"] = tmp_path / name
        return _summary(run_sweep(template, BATCH, mappings=mappings,
                                  max_results=2, evaluate=evaluate,
                                  **options))

    columns = sweep("columns.jsonl")
    objects = sweep("objects.jsonl", _object_route(template))
    assert columns == objects
    assert columns[3].get("pruned"), "the pruner compares against ties"
    assert bool(columns[2]) == resumed
    if resumed:
        assert (tmp_path / "columns.jsonl").read_bytes() \
            == (tmp_path / "objects.jsonl").read_bytes()


# --------------------------------------------------------------------------
# Counters and result objects
# --------------------------------------------------------------------------


def _counts():
    counters = get_metrics().snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name == "sweep.evaluated"
            or name.startswith("sweep.skipped.")}


def _delta(before, after):
    return {name: value - before.get(name, 0)
            for name, value in after.items()
            if value != before.get(name, 0)}


def _expected(evaluated, skipped):
    expected = {f"sweep.skipped.{category}": count
                for category, count in skipped.items() if count}
    if evaluated:
        expected["sweep.evaluated"] = evaluated
    return expected


def test_counters_equal_a_complete_report(monkeypatch):
    monkeypatch.setattr(resilience_module, "DEFAULT_CHUNK_CANDIDATES", 16)
    template = _template()
    before = _counts()
    outcome = run_sweep(template, BATCH, max_results=3)
    report = outcome.report
    assert report.skipped.get("pruned")
    assert _delta(before, _counts()) == _expected(report.evaluated,
                                                  report.skipped)


def test_counters_equal_the_report_of_a_failed_sweep(tmp_path,
                                                     monkeypatch):
    """A strict sweep that raises mid-chunk still flushes the chunk's
    counts; its journal's last metrics record is the report."""
    monkeypatch.setattr(resilience_module, "DEFAULT_CHUNK_CANDIDATES", 16)
    template = _template()
    real = _object_route(template)
    calls = []

    def failing(spec):
        calls.append(spec)
        if len(calls) == 20:
            raise RuntimeError("injected")
        return real(spec)

    before = _counts()
    journal = tmp_path / "journal.jsonl"
    with pytest.raises(WorkerError):
        run_sweep(template, BATCH, max_results=3, strict=True,
                  evaluate=failing, journal_path=journal)
    metrics = SweepJournal.load_metrics(journal)
    evaluated = metrics["counters"]["evaluated"]
    assert 0 < evaluated < len(calls)
    assert _delta(before, _counts()) == _expected(evaluated,
                                                  metrics["skipped"])


def test_counters_equal_the_report_of_an_interrupted_sweep(monkeypatch):
    monkeypatch.setattr(resilience_module, "DEFAULT_CHUNK_CANDIDATES", 16)
    template = _template()
    real = _object_route(template)
    calls = []

    def interrupting(spec):
        calls.append(spec)
        if len(calls) == 20:
            os.kill(os.getpid(), signal.SIGINT)
        return real(spec)

    before = _counts()
    outcome = run_sweep(template, BATCH, max_results=3,
                        evaluate=interrupting)
    report = outcome.report
    assert report.partial
    assert report.covered < report.n_candidates
    assert _delta(before, _counts()) == _expected(report.evaluated,
                                                  report.skipped)


def test_results_are_built_only_for_kept_mappings(monkeypatch):
    """An unjournaled top-10 sweep builds at most ten results per chunk,
    plus one per candidate the scalar route evaluates."""
    monkeypatch.setattr(resilience_module, "DEFAULT_CHUNK_CANDIDATES", 64)
    template = _template("megatron-1t", 128)
    mappings = enumerate_mappings(template.system, template.model)
    n_chunks = -(-len(mappings) // 64)
    built, scalar = [], []
    post_init = ExplorationResult.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    def scalar_route(template, spec, *args, **kwargs):
        scalar.append(spec)
        return evaluate_candidate(template, spec, *args, **kwargs)

    monkeypatch.setattr(ExplorationResult, "__post_init__", counting)
    monkeypatch.setattr(resilience_module, "evaluate_candidate",
                        scalar_route)
    clear_compiled_cache()
    outcome = run_sweep(template, 2048, mappings=mappings, max_results=10)
    assert len(outcome.results) == 10
    assert outcome.report.evaluated > 10 * n_chunks
    assert len(built) <= 10 * n_chunks + len(scalar)
