"""Vectorized backend unit tests: projection, exactness, fallbacks.

The zoo-wide equivalence properties live in
``tests/properties/test_vectorized_properties.py``; this module pins
the mechanics — key projection against the TERM_KEYS taxonomy, the
batched reductions against their scalar counterparts, the path
selector the benchmark still imports, and the observability surface.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.collectives import keys
from repro.core.model import AMPeD
from repro.errors import MappingError
from repro.hardware.catalog import A100
from repro.hardware.interconnect import IB_HDR, NVLINK3
from repro.hardware.node import NodeSpec
from repro.hardware.system import SystemSpec
from repro.obs.metrics import collect_cache_metrics, reset_metrics
from repro.obs.trace import get_tracer
from repro.parallelism.mapping import enumerate_mappings
from repro.search import vectorized as vectorized_module
from repro.search.compiler import compile_sweep
from repro.search.dse import evaluate_candidate, explore
from repro.search.vectorized import (
    BoundBatch,
    clear_vectorized_stats,
    evaluate_chunk,
    resolve_evaluation_path,
    threshold_info,
    vectorized_stats,
)
from repro.transformer.zoo import MODELS

GLOBAL_BATCH = 256


@pytest.fixture(scope="module")
def system() -> SystemSpec:
    node = NodeSpec(accelerator=A100, n_accelerators=4,
                    intra_link=NVLINK3, inter_link=IB_HDR, n_nics=4)
    return SystemSpec(node=node, n_nodes=4)


@pytest.fixture(scope="module")
def template(system):
    amped = AMPeD.for_mapping(MODELS["megatron-145b"], system,
                              dp=system.n_accelerators)
    return replace(amped, evaluation_path="compiled")


@pytest.fixture(scope="module")
def mappings(system, template):
    return enumerate_mappings(system, template.model)


@pytest.fixture()
def compiled(template):
    return compile_sweep(template, GLOBAL_BATCH)


class TestKeyProjection:
    """The binder's array projections must partition candidates
    exactly like the TERM_KEYS taxonomy they transcribe."""

    @pytest.mark.parametrize("attr,key_fn", [
        ("_tpi_idx", keys.tp_intra_key),
        ("_tpx_idx", keys.tp_inter_key),
        ("_pp_idx", keys.pp_key),
        ("_moe_idx", keys.moe_key),
        ("_grad_idx", keys.gradient_key),
    ])
    def test_comm_indices_match_taxonomy(self, compiled, mappings,
                                         attr, key_fn):
        batch = BoundBatch(compiled, mappings)
        indices = getattr(batch, attr)
        taxonomy = {}
        for spec, index in zip(mappings, indices.tolist()):
            key = key_fn(spec)
            assert taxonomy.setdefault(key, index) == index, (
                f"specs with equal {key_fn.__name__} map to different "
                f"array indices")
        # Distinct keys must not collapse onto one index either.
        assert len(set(taxonomy.values())) == len(taxonomy)

    def test_lane_keys_match_taxonomy(self, compiled, mappings):
        from repro.search.tuning import candidate_microbatch_counts
        batch = BoundBatch(compiled, mappings, tune_microbatches=True)
        eff_taxonomy = {}
        bub_taxonomy = {}
        lane = 0
        for spec in mappings:
            for n_ub in candidate_microbatch_counts(spec, GLOBAL_BATCH):
                tuned = spec.with_microbatches(n_ub)
                assert batch._lane_nub[lane] == n_ub
                eff_index = int(batch._lane_eff_idx[lane])
                bub_index = int(batch._lane_bub_idx[lane])
                assert eff_taxonomy.setdefault(
                    keys.efficiency_key(tuned), eff_index) == eff_index
                assert bub_taxonomy.setdefault(
                    keys.bubble_key(tuned), bub_index) == bub_index
                lane += 1
        assert lane == batch.n_lanes


#: Seed, overlap ratios and cells of the projection suite: a dense and
#: an MoE model, and a 16,384-node system at global batch 2^20, whose
#: degrees and N_ub grids are the widest the key codes meet.
PROJECTION_SEED = 20231019
RATIOS = (0.0, 0.5, 1.0, 2.0)
PROJECTION_CELLS = [("megatron-145b", 4, 256), ("glam-1.2t", 16, 1024),
                    ("megatron-1t", 16384, 2 ** 20)]


def _projection_batch(system, model, rng, size, explicit_nub):
    """A seeded candidate batch: random mappings with both
    ``expert_parallel`` values and every overlap ratio, a quarter of
    them repeated verbatim, and (``explicit_nub``) most carrying an
    explicit microbatch count."""
    mappings = enumerate_mappings(system, model)
    batch = []
    for _ in range(size):
        spec = replace(rng.choice(mappings),
                       expert_parallel=rng.random() < 0.5,
                       bubble_overlap_ratio=rng.choice(RATIOS))
        if explicit_nub and rng.random() < 0.7:
            spec = spec.with_microbatches(
                rng.choice((1, 2, 3, 8, 64, 4096)))
        batch.append(spec)
    return batch + batch[:size // 4]


def _projection_cases():
    cases = []
    for key, n_nodes, global_batch in PROJECTION_CELLS:
        for tune in (True, False):
            for size in (0, 1, 96):
                cases.append((key, n_nodes, global_batch, tune, size))
    return cases


def _lanes(specs, global_batch, tune):
    """``(spec index, N_ub)`` per lane, in lane order."""
    from repro.search.tuning import candidate_microbatch_counts
    return [(index, n_ub) for index, spec in enumerate(specs)
            for n_ub in (candidate_microbatch_counts(spec, global_batch)
                         if tune else [spec.microbatches])]


def _assert_partition(ids, keys):
    """``ids`` partitions rows exactly like ``keys`` and numbers the
    classes in first-seen order."""
    ids = list(ids)
    assert len(ids) == len(keys)
    assert len(set(zip(ids, keys))) == len(set(ids)) == len(set(keys))
    assert list(dict.fromkeys(ids)) == list(range(len(set(ids))))


def _memory_key(spec, n_ub):
    return (spec.tp, spec.pp, spec.dp, n_ub)


class TestProjectionSuite:
    """Seeded batches bound as arrays: every key's index partition is
    the TERM_KEYS partition, classes number in first-seen order, and
    each class's filled value is the one its members' keys fetch."""

    TERM_ATTRS = [("_tpi_idx", "_tpi_vals", keys.tp_intra_key, "tp_intra_for"),
                  ("_tpx_idx", "_tpx_vals", keys.tp_inter_key, "tp_inter_for"),
                  ("_pp_idx", "_pp_vals", keys.pp_key, "pp_for"),
                  ("_moe_idx", "_moe_vals", keys.moe_key, "moe_for")]

    @pytest.mark.parametrize("key,n_nodes,global_batch,tune,size",
                             _projection_cases())
    def test_indices_partition_like_the_taxonomy(
            self, key, n_nodes, global_batch, tune, size):
        import random

        from repro.hardware.catalog import megatron_a100_cluster
        system = replace(megatron_a100_cluster(), n_nodes=n_nodes)
        model = MODELS[key]
        template = AMPeD.for_mapping(model, system,
                                     dp=system.n_accelerators)
        rng = random.Random(f"{PROJECTION_SEED}-{key}-{tune}-{size}")
        specs = _projection_batch(system, model, rng, size,
                                  explicit_nub=not tune)
        compiled = compile_sweep(template, global_batch)
        batch = BoundBatch(compiled, specs, tune_microbatches=tune,
                           enforce_memory=True)

        for attr, values_attr, key_fn, getter in self.TERM_ATTRS:
            _assert_partition(getattr(batch, attr).tolist(),
                              [key_fn(spec) for spec in specs])
            values = getattr(batch, values_attr)
            for spec, index in zip(specs, getattr(batch, attr).tolist()):
                try:
                    expected = getattr(compiled, getter)(spec)
                except MappingError:
                    expected = math.nan
                np.testing.assert_array_equal(values[index], expected)
        _assert_partition(batch._grad_idx.tolist(),
                          [keys.gradient_key(spec) for spec in specs])
        for spec, index in zip(specs, batch._grad_idx.tolist()):
            pairs = compiled.gradient_pairs_for(spec)
            for cls, grad in enumerate(batch._grad):
                assert tuple(grad[index]) == pairs[cls]

        lanes = _lanes(specs, global_batch, tune)
        tuned = [specs[row].with_microbatches(n_ub) for row, n_ub in lanes]
        assert batch.n_lanes == len(lanes)
        assert batch._lane_spec.tolist() == [row for row, _ in lanes]
        assert batch._lane_nub.tolist() == [n_ub for _, n_ub in lanes]
        counts = [sum(1 for row, _ in lanes if row == index)
                  for index in range(len(specs))]
        assert batch._counts.tolist() == counts
        assert batch._offsets.tolist() == [sum(counts[:index])
                                           for index in range(len(specs))]
        _assert_partition(batch._lane_eff_idx.tolist(),
                          [keys.efficiency_key(spec) for spec in tuned])
        _assert_partition(batch._lane_bub_idx.tolist(),
                          [keys.bubble_key(spec) for spec in tuned])
        for spec, eff_index, bub_index in zip(
                tuned, batch._lane_eff_idx.tolist(),
                batch._lane_bub_idx.tolist()):
            assert batch._bub_vals[bub_index] == \
                compiled.bubble_prefactor_for(*keys.bubble_key(spec))
            try:
                expected = compiled.efficiency_for(spec)
            except MappingError:
                assert not batch._eff_ok[eff_index]
            else:
                assert batch._eff_ok[eff_index]
                assert batch._eff_vals[eff_index] == expected
        assert batch._lane_fits.tolist() == [
            compiled.fits_for(specs[row], n_ub) for row, n_ub in lanes]

    def test_tables_fill_in_first_seen_order(self, template):
        import random

        from repro.search.compiler import CompiledSweep
        rng = random.Random(PROJECTION_SEED)
        specs = _projection_batch(template.system, template.model, rng,
                                  200, explicit_nub=False)
        compiled = CompiledSweep(template, GLOBAL_BATCH)  # unseeded
        BoundBatch(compiled, specs, tune_microbatches=True,
                   enforce_memory=True)
        lanes = _lanes(specs, GLOBAL_BATCH, True)
        tuned = [specs[row].with_microbatches(n_ub) for row, n_ub in lanes]

        def first_seen(keys_in_order, table):
            return [key for key in dict.fromkeys(keys_in_order)
                    if key in table]

        for table, key_fn in ((compiled._tp_intra, keys.tp_intra_key),
                              (compiled._tp_inter, keys.tp_inter_key),
                              (compiled._pp, keys.pp_key),
                              (compiled._moe, keys.moe_key)):
            assert list(table) == first_seen(map(key_fn, specs), table)
        for _, _, grad_table, _, _ in compiled.classes:
            assert list(grad_table) == first_seen(
                map(keys.gradient_key, specs), grad_table)
        assert list(compiled._eff) == first_seen(
            map(keys.efficiency_key, tuned), compiled._eff)
        assert list(compiled._bubble_prefactor) == first_seen(
            map(keys.bubble_key, tuned), compiled._bubble_prefactor)
        assert list(compiled._fits) == first_seen(
            (_memory_key(specs[row], n_ub) for row, n_ub in lanes),
            compiled._fits)
        assert len(compiled._fits) == len(
            {_memory_key(specs[row], n_ub) for row, n_ub in lanes})

    def test_one_fill_per_distinct_key(self, template, monkeypatch):
        """Each table fills each distinct key of the batch once: the
        tables hold exactly the batch's distinct keys, every table miss
        made one entry, and binding the batch again misses nothing."""
        import random
        from collections import defaultdict

        from repro.search.compiler import CompiledSweep
        rng = random.Random(PROJECTION_SEED + 1)
        specs = _projection_batch(template.system, template.model, rng,
                                  200, explicit_nub=False)
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        calls = defaultdict(list)
        real_fits = compiled.fits_for
        monkeypatch.setattr(compiled, "fits_for", lambda spec, n_ub: (
            calls["fits_for"].append(_memory_key(spec, n_ub))
            or real_fits(spec, n_ub)))
        real_grid = vectorized_module.candidate_microbatch_counts

        def grid(spec, global_batch):
            calls["grid"].append((spec.dp, spec.pp))
            return real_grid(spec, global_batch)
        monkeypatch.setattr(vectorized_module,
                            "candidate_microbatch_counts", grid)

        BoundBatch(compiled, specs, tune_microbatches=True,
                   enforce_memory=True)
        lanes = _lanes(specs, GLOBAL_BATCH, True)
        tuned = [specs[row].with_microbatches(n_ub) for row, n_ub in lanes]
        expected = {
            "_eff": {key for key in map(keys.efficiency_key, tuned)
                     if GLOBAL_BATCH >= key[0] * key[1]},
            "_bubble_prefactor": set(map(keys.bubble_key, tuned)),
            "_tp_intra": set(map(keys.tp_intra_key, specs)),
            "_tp_inter": set(map(keys.tp_inter_key, specs)),
            "_pp": set(map(keys.pp_key, specs)),
            "_moe": set(map(keys.moe_key, specs)),
        }
        for name, distinct in expected.items():
            assert set(getattr(compiled, name)) == distinct, name
        for grad_table in compiled.grad_tables:
            assert set(grad_table) == set(map(keys.gradient_key, specs))
        effs = set(compiled._eff.values())
        for *_, compute_table in compiled.classes:
            assert set(compute_table) == effs
        stats = compiled.stats()
        assert stats["misses"] == stats["entries"]
        # Calls outside the hit-rate accounting: one per distinct key.
        assert sorted(calls["grid"]) == sorted(
            {(spec.dp, spec.pp) for spec in specs})
        assert sorted(calls["fits_for"]) == sorted(
            {_memory_key(specs[row], n_ub) for row, n_ub in lanes})

        BoundBatch(compiled, specs, tune_microbatches=True,
                   enforce_memory=True)
        again = compiled.stats()
        assert (again["misses"], again["entries"]) \
            == (stats["misses"], stats["entries"])

    def test_codes_never_overflow(self):
        """Ranks whose spans would overflow int64 are composed digit by
        digit, re-ranked on the way; the classes stay exact."""
        radix = 2 ** 40
        ranks = np.array([(0, 1, 2, 3), (radix - 1, 0, 0, 3),
                          (0, 1, 2, 3), (radix - 1, 0, 1, 3)],
                         dtype=np.int64)
        keys = ((0, 1, 2, 3), (3, 0))
        assert radix ** 4 * len(keys) > vectorized_module._CODE_LIMIT
        codes, span = vectorized_module._codes(ranks, radix, keys)
        assert span * len(keys) <= vectorized_module._CODE_LIMIT
        (ids, firsts), (pairs, pair_firsts) = vectorized_module._classes(
            codes, span)
        assert ids.tolist() == [0, 1, 0, 2]
        assert firsts.tolist() == [0, 1, 3]
        assert pairs.tolist() == [0, 1, 0, 1]
        assert pair_firsts.tolist() == [0, 1]


class TestBatchedReductions:
    def test_best_lanes_matches_scalar_tuner(self, compiled, mappings):
        batch = BoundBatch(compiled, mappings, tune_microbatches=True)
        times, picks, feasible = batch.best_lanes()
        for index, spec in enumerate(mappings):
            try:
                tuned, batch_time = compiled.best_microbatch(spec)
            except MappingError:
                assert not feasible[index]
                continue
            assert feasible[index]
            assert times[index] == batch_time  # bit-exact
            assert int(batch._lane_nub[picks[index]]) \
                == tuned.microbatches  # same tie-break

    def test_lower_bounds_match_scalar_pruner(self, compiled, mappings):
        batch = BoundBatch(compiled, mappings, tune_microbatches=True)
        bounds = batch.lower_bounds()
        for index, spec in enumerate(mappings):
            try:
                expected = compiled.lower_bound(spec)
            except MappingError:
                assert math.isnan(bounds[index])
                continue
            assert bounds[index] == expected  # bit-exact

    def test_untuned_lanes_match_batch_time(self, compiled, mappings):
        batch = BoundBatch(compiled, mappings)
        assert batch.n_lanes == len(mappings)
        times = batch.lane_times()
        for index, spec in enumerate(mappings):
            try:
                expected = compiled.batch_time(spec)
            except MappingError:
                assert math.isnan(times[index])
                continue
            assert times[index] == expected

    def test_empty_batch(self, compiled):
        batch = BoundBatch(compiled, [])
        times, picks, feasible = batch.best_lanes()
        assert times.shape == picks.shape == feasible.shape == (0,)
        assert batch.lower_bounds().shape == (0,)


class TestEvaluateChunk:
    def test_outcomes_match_scalar_evaluation(self, template, compiled,
                                              mappings):
        chunk = evaluate_chunk(
            template, compiled, mappings, GLOBAL_BATCH,
            tune_microbatches=True, need_bounds=True)
        assert len(chunk.times) == len(mappings) == len(chunk.bounds)
        assert chunk.memory == {}
        decided = [index for index, batch_time in enumerate(chunk.times)
                   if not math.isnan(batch_time)]
        results = dict(zip(decided, chunk.results(decided)))
        for index, spec in enumerate(mappings):
            reference = evaluate_candidate(template, spec, GLOBAL_BATCH,
                                           tune_microbatches=True)
            if index not in results:
                # Only undecidable candidates defer to the scalar path,
                # and those are exactly the non-evaluated ones here.
                assert not reference.evaluated
                continue
            assert reference.evaluated
            result = results[index]
            assert chunk.times[index] == result.batch_time_s \
                == reference.result.batch_time_s  # bit-exact
            assert result.breakdown.as_dict() \
                == reference.result.breakdown.as_dict()
            assert result.parallelism == reference.result.parallelism
            assert result.microbatch_size \
                == reference.result.microbatch_size
            assert result.microbatch_efficiency \
                == reference.result.microbatch_efficiency


class TestPathSelection:
    """The selector keeps its return values for the benchmark's
    imports; nothing in ``src/`` calls it."""

    def test_explicit_vectorized_passes_through(self):
        assert resolve_evaluation_path(
            "vectorized", 1) == "vectorized"

    def test_compiled_runs_vectorized_from_one_candidate(self):
        assert resolve_evaluation_path("compiled", 1) == "vectorized"

    def test_working_directory_and_environment_do_not_move_it(
            self, tmp_path, monkeypatch):
        # Measured rates that would fit a break-even of 1000 candidates,
        # and an override asking for 434: the sweep path ignores both.
        (tmp_path / "BENCH_trajectory.json").write_text(json.dumps([{
            "compiled_mappings_per_s": 1e5,
            "vectorized_mappings_per_s": 1e6,
            "vectorized_setup_seconds": 0.009,
            "vectorized_build_seconds": 0.009,
            "vectorized_n_candidates": 1000,
        }]))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("AMPED_VECTORIZE_THRESHOLD", "434")
        assert resolve_evaluation_path("compiled", 433) == "vectorized"
        assert threshold_info() == {"threshold": 1, "source": "constant"}

    @pytest.mark.parametrize("path", ["per_layer"])
    def test_other_paths_untouched(self, path):
        assert resolve_evaluation_path(path, 10**9) == path


class TestObservability:
    def test_stats_accumulate_per_bind(self, compiled, mappings):
        clear_vectorized_stats()
        BoundBatch(compiled, mappings, tune_microbatches=True)
        stats = vectorized_stats()
        assert stats["builds"] == 1
        assert stats["build_seconds"] > 0
        assert stats["array_bytes"] > 0
        assert stats["max_batch_size"] == len(mappings)
        assert stats["lanes"] >= len(mappings)
        BoundBatch(compiled, mappings[:2])
        assert vectorized_stats()["builds"] == 2

    def test_cache_gauges_folded(self, compiled, mappings):
        clear_vectorized_stats()
        BoundBatch(compiled, mappings)
        reset_metrics()
        registry = collect_cache_metrics()
        snapshot = registry.snapshot()
        gauges = snapshot["gauges"]
        assert gauges["cache.vectorized.builds"] == 1
        assert gauges["cache.vectorized.array_bytes"] > 0
        reset_metrics()

    def test_explore_emits_vectorized_span(self, template):
        tracer = get_tracer()
        tracer.enable(reset=True)
        try:
            explore(template, GLOBAL_BATCH, max_results=3)
        finally:
            tracer.disable()
        spans = [record for record in tracer.records()
                 if record.name == "dse.vectorized_eval"]
        tracer.reset()
        assert spans, "vectorized explore emitted no dse.vectorized_eval"
        assert spans[0].category == "search"
        assert spans[0].attrs["n_candidates"] >= 1
        assert "scalar_fallbacks" in spans[0].attrs
