"""Vectorized backend unit tests: projection, exactness, fallbacks.

The zoo-wide equivalence properties live in
``tests/properties/test_vectorized_properties.py``; this module pins
the mechanics — key projection against the TERM_KEYS taxonomy, the
batched reductions against their scalar counterparts, path selection,
the optional-NumPy contract, pickling/worker shipping and the
observability surface.
"""

from __future__ import annotations

import json
import math
import pickle
from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from repro.collectives import keys
from repro.core.model import AMPeD
from repro.errors import ConfigurationError, MappingError
from repro.hardware.catalog import A100
from repro.hardware.interconnect import IB_HDR, NVLINK3
from repro.hardware.node import NodeSpec
from repro.hardware.system import SystemSpec
from repro.obs.metrics import collect_cache_metrics, reset_metrics
from repro.obs.trace import get_tracer
from repro.parallelism.mapping import enumerate_mappings
from repro.search import vectorized as vectorized_module
from repro.search.compiler import (
    clear_compiled_cache,
    compile_sweep,
    install_compiled,
)
from repro.search.dse import evaluate_candidate, explore
from repro.search.vectorized import (
    BoundBatch,
    VectorizedSweep,
    clear_vectorized_stats,
    evaluate_chunk,
    require_numpy,
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
    """The binder's inlined projections must partition candidates
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
        bounds, outcomes = evaluate_chunk(
            template, compiled, mappings, GLOBAL_BATCH,
            tune_microbatches=True, need_bounds=True)
        assert len(outcomes) == len(mappings) == len(bounds)
        for spec, outcome in zip(mappings, outcomes):
            reference = evaluate_candidate(template, spec, GLOBAL_BATCH,
                                           tune_microbatches=True)
            if outcome is None:
                # Only undecidable candidates defer to the scalar path,
                # and those are exactly the non-evaluated ones here.
                assert not reference.evaluated
                continue
            assert reference.evaluated
            result = outcome.result
            assert result.batch_time_s \
                == reference.result.batch_time_s  # bit-exact
            assert result.breakdown.as_dict() \
                == reference.result.breakdown.as_dict()
            assert result.parallelism == reference.result.parallelism
            assert result.microbatch_size \
                == reference.result.microbatch_size
            assert result.microbatch_efficiency \
                == reference.result.microbatch_efficiency


class TestPathSelection:
    def test_explicit_vectorized_passes_through(self):
        assert resolve_evaluation_path(
            "vectorized", 1) == "vectorized"

    def test_compiled_runs_vectorized_from_one_candidate(self):
        assert resolve_evaluation_path("compiled", 1) == "vectorized"

    def test_compiled_stays_compiled_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vectorized_module, "HAVE_NUMPY", False)
        assert resolve_evaluation_path("compiled", 1) == "compiled"

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


class TestOptionalNumpyContract:
    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(vectorized_module, "HAVE_NUMPY", False)

    def test_require_numpy_raises_configuration_error(self, no_numpy):
        with pytest.raises(ConfigurationError, match="requires NumPy"):
            require_numpy()

    def test_explicit_request_never_downgrades(self, no_numpy):
        with pytest.raises(ConfigurationError, match="requires NumPy"):
            resolve_evaluation_path("vectorized", 10**6)

    def test_auto_upgrade_disabled(self, no_numpy):
        assert resolve_evaluation_path(
            "compiled", 10**6) == "compiled"

    def test_explore_surfaces_the_error(self, no_numpy, template):
        with pytest.raises(ConfigurationError, match="requires NumPy"):
            explore(template, GLOBAL_BATCH, max_results=3,
                    evaluation_path="vectorized")

    def test_run_sweep_surfaces_the_error(self, no_numpy, template):
        from repro.search.resilience import run_sweep
        with pytest.raises(ConfigurationError, match="requires NumPy"):
            run_sweep(template, GLOBAL_BATCH, max_results=3,
                      evaluation_path="vectorized")


class TestShipping:
    """Bound batches and their compiled tables survive pickling, and
    installed copies of shipped tables back the array backend."""

    def test_bound_batch_round_trips(self, compiled, mappings):
        batch = BoundBatch(compiled, mappings, tune_microbatches=True)
        clone = pickle.loads(pickle.dumps(batch))
        np.testing.assert_array_equal(clone.lane_times(),
                                      batch.lane_times())
        times, _, feasible = batch.best_lanes()
        clone_times, _, clone_feasible = clone.best_lanes()
        np.testing.assert_array_equal(clone_times, times)
        np.testing.assert_array_equal(clone_feasible, feasible)

    def test_installed_shipped_tables_back_the_backend(
            self, template, mappings):
        parent = compile_sweep(template, GLOBAL_BATCH)
        expected = VectorizedSweep(parent).bind(
            mappings, tune_microbatches=True).lane_times()
        shipped = pickle.loads(pickle.dumps(parent))
        clear_compiled_cache()
        install_compiled(shipped)
        installed = compile_sweep(template, GLOBAL_BATCH)
        assert installed is shipped
        actual = VectorizedSweep(installed).bind(
            mappings, tune_microbatches=True).lane_times()
        np.testing.assert_array_equal(actual, expected)

    def test_install_compiled_path(self, template, compiled, mappings):
        clone = pickle.loads(pickle.dumps(compiled))
        install_compiled(clone)
        batch = VectorizedSweep(clone).bind(mappings)
        assert batch.n_specs == len(mappings)


class TestObservability:
    def test_stats_accumulate_per_bind(self, compiled, mappings):
        clear_vectorized_stats()
        BoundBatch(compiled, mappings, tune_microbatches=True)
        stats = vectorized_stats()
        assert stats["available"] == 1
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
        assert gauges["cache.vectorized.available"] == 1
        assert gauges["cache.vectorized.builds"] == 1
        assert gauges["cache.vectorized.array_bytes"] > 0
        reset_metrics()

    def test_explore_emits_vectorized_span(self, template):
        tracer = get_tracer()
        tracer.enable(reset=True)
        try:
            explore(template, GLOBAL_BATCH, max_results=3,
                    evaluation_path="vectorized")
        finally:
            tracer.disable()
        spans = [record for record in tracer.records()
                 if record.name == "dse.vectorized_eval"]
        tracer.reset()
        assert spans, "vectorized explore emitted no dse.vectorized_eval"
        assert spans[0].category == "search"
        assert spans[0].attrs["n_candidates"] >= 1
        assert "scalar_fallbacks" in spans[0].attrs
