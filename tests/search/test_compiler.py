"""Unit tests for the sweep compiler (:mod:`repro.search.compiler`).

The zoo-wide equivalence lives in
``tests/properties/test_compiled_properties.py``; here we pin the
compiler's own contracts: shared tables answer every candidate bit for
bit as a table set filled for that candidate alone (the per-candidate
layer-class sum), microbatch-tuning parity, the admissible (and strictly tighter)
compute + communication lower bound, and the process-wide table cache.
"""

from __future__ import annotations

import json
import os
import select
import signal
from dataclasses import replace

import pytest

from repro.core.model import AMPeD
from repro.errors import ConfigurationError, MappingError
from repro.hardware.catalog import A100
from repro.hardware.interconnect import IB_HDR, NVLINK3
from repro.hardware.node import NodeSpec
from repro.hardware.system import SystemSpec
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.spec import ParallelismSpec
from repro.search import compiler as compiler_module
from repro.search.compiler import (
    CompiledSweep,
    clear_compiled_cache,
    compile_sweep,
    compiled_cache_stats,
)
from repro.search.dse import compute_lower_bound
from repro.search.tuning import optimize_microbatches
from repro.transformer.zoo import MODELS

GLOBAL_BATCH = 256


@pytest.fixture(scope="module")
def system() -> SystemSpec:
    node = NodeSpec(accelerator=A100, n_accelerators=4,
                    intra_link=NVLINK3, inter_link=IB_HDR, n_nics=4)
    return SystemSpec(node=node, n_nodes=4)


@pytest.fixture(scope="module")
def template(system) -> AMPeD:
    return AMPeD.for_mapping(MODELS["megatron-145b"], system,
                             dp=system.n_accelerators)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_compiled_cache()
    yield
    clear_compiled_cache()


class TestBitExactness:
    def test_batch_time_bit_identical_to_collapsed(self, template,
                                                   system):
        # One table set shared by the whole sweep against a fresh one
        # per candidate, which computes that candidate's layer-class
        # (collapsed) sum straight from the reference functions: a key
        # that merged two candidates with different terms would show.
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        for spec in enumerate_mappings(system, template.model):
            fresh = CompiledSweep(template, GLOBAL_BATCH)
            try:
                expected = fresh.batch_time(spec)
            except MappingError:
                with pytest.raises(MappingError, match="microbatch"):
                    compiled.batch_time(spec)
                continue
            assert compiled.batch_time(spec) == expected, spec.describe()

    def test_breakdown_components_bit_identical(self, template):
        spec = ParallelismSpec(tp_intra=4, pp_inter=2, dp_inter=2)
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        default = replace(template, parallelism=spec)
        assert compiled.breakdown(spec).as_dict() \
            == default.estimate_batch(GLOBAL_BATCH).as_dict()

    def test_infeasible_microbatch_raises_identical_message(
            self, template):
        spec = ParallelismSpec(dp_intra=4, dp_inter=4,
                               n_microbatches=GLOBAL_BATCH)
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        reference = replace(template, evaluation_path="per_layer",
                            parallelism=spec)
        with pytest.raises(MappingError) as reference_error:
            reference.estimate_batch(GLOBAL_BATCH)
        with pytest.raises(MappingError) as compiled_error:
            compiled.batch_time(spec)
        assert str(compiled_error.value) == str(reference_error.value)

    def test_rejects_bad_bubble_model_at_build(self, template):
        broken = replace(template, bubble_model="quadratic")
        with pytest.raises(ConfigurationError,
                           match="bubble model must be one of"):
            CompiledSweep(broken, GLOBAL_BATCH)


class TestBestMicrobatch:
    def test_matches_optimize_microbatches(self, template, system):
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        for spec in enumerate_mappings(system, template.model):
            reference = replace(template, parallelism=spec)
            try:
                tuned_amped, expected = optimize_microbatches(
                    reference, GLOBAL_BATCH)
            except MappingError:
                with pytest.raises(MappingError):
                    compiled.best_microbatch(spec)
                continue
            tuned_spec, batch_time = compiled.best_microbatch(spec)
            assert tuned_spec == tuned_amped.parallelism
            assert batch_time == expected

    def test_tuned_evaluation_combines_once_per_microbatch(
            self, template, monkeypatch):
        from repro.search.dse import evaluate_candidate
        from repro.search.tuning import candidate_microbatch_counts
        spec = ParallelismSpec(pp_intra=4, dp_inter=4)
        expected = compile_sweep(template, GLOBAL_BATCH).best_microbatch(
            spec)
        clear_compiled_cache()
        compiled = compile_sweep(template, GLOBAL_BATCH)
        real, combined = compiled._combine, []
        monkeypatch.setattr(compiled, "_combine", lambda candidate, *a, **k:
                            combined.append(candidate.microbatches)
                            or real(candidate, *a, **k))
        result = evaluate_candidate(template, spec, GLOBAL_BATCH).result
        # One combine per tried N_ub, and none for the winner after.
        assert combined == candidate_microbatch_counts(spec, GLOBAL_BATCH)
        assert (result.parallelism, result.batch_time_s) == expected
        assert result.breakdown == CompiledSweep(
            template, GLOBAL_BATCH).breakdown(result.parallelism)

    def test_failure_names_the_failing_n_ub(self, template):
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        spec = ParallelismSpec(dp_intra=4, dp_inter=4)
        with pytest.raises(MappingError, match="failing N_ub"):
            compiled.best_microbatch(spec, candidates=[GLOBAL_BATCH * 4])


class TestLowerBound:
    def test_admissible_for_every_feasible_candidate(self, template,
                                                     system):
        """bound <= true tuned batch time, mapping by mapping."""
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        checked = 0
        for spec in enumerate_mappings(system, template.model):
            try:
                _, best_time = compiled.best_microbatch(spec)
            except MappingError:
                continue
            assert compiled.lower_bound(spec) <= best_time, \
                spec.describe()
            checked += 1
        assert checked > 0

    def test_strictly_tighter_than_compute_only(self, template,
                                                system):
        """Charging real communication terms beats the compute-only
        bound wherever the mapping communicates at all."""
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        tighter = 0
        for spec in enumerate_mappings(system, template.model):
            candidate = replace(template, parallelism=spec)
            try:
                compute_only = compute_lower_bound(candidate,
                                                   GLOBAL_BATCH)
                combined = compiled.lower_bound(spec)
            except MappingError:
                continue
            assert combined >= compute_only, spec.describe()
            if combined > compute_only:
                tighter += 1
        assert tighter > 0

    def test_raises_when_no_microbatch_fits(self, template):
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        spec = ParallelismSpec(dp_intra=4, dp_inter=4,
                               n_microbatches=GLOBAL_BATCH)
        with pytest.raises(MappingError,
                           match="below one sequence"):
            compiled.lower_bound(spec, tune_microbatches=False)


class TestTables:
    def test_lookup_counters_accumulate(self, template):
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        spec = ParallelismSpec(tp_intra=4, pp_inter=2, dp_inter=2)
        compiled.batch_time(spec)
        first = compiled.stats()
        assert first["lookups"] > 0
        assert first["entries"] > 0
        compiled.batch_time(spec)
        second = compiled.stats()
        assert second["lookups"] == 2 * first["lookups"]
        # The second evaluation reuses every table entry.
        assert second["misses"] == first["misses"]
        assert second["entries"] == first["entries"]

    def test_binds_count_their_lookups(self, template, system):
        """hits = lookups - misses holds on the array backend too: a
        second bind of the same specs misses nothing and hits every
        distinct key it reads."""
        from repro.search.vectorized import BoundBatch
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        specs = enumerate_mappings(system, template.model)
        BoundBatch(compiled, specs, tune_microbatches=True)
        first = compiled.stats()
        assert first["lookups"] >= first["misses"] > 0
        BoundBatch(compiled, specs, tune_microbatches=True)
        second = compiled.stats()
        assert second["misses"] == first["misses"]
        assert second["hits"] > first["hits"]
        assert second["hits"] - first["hits"] \
            == second["lookups"] - first["lookups"]

    def test_default_sweep_reports_table_hits(self, template):
        from repro.search.resilience import run_sweep
        run_sweep(template, GLOBAL_BATCH)
        assert compiled_cache_stats()["table_hits"] > 0


class TestEnvironment:
    """The fills read the links of the environment estimate_batch
    would build, and the sweep rejects what that environment would."""

    def test_links_equal_a_fresh_build(self, template, system):
        from repro.core.communication import CommEnvironment
        compiled = CompiledSweep(template, GLOBAL_BATCH)
        for spec in enumerate_mappings(system, template.model)[:4]:
            env = CommEnvironment(
                system=system, parallelism=spec,
                precision=template.precision,
                intra_topology=template.intra_topology,
                inter_topology=template.inter_topology,
                moe_topology=template.moe_topology,
                zero_forward_overhead=compiled.zero_forward_overhead,
                moe_volume_multiplier=template.moe_volume_multiplier,
                moe_tp_sharding=template.moe_tp_sharding)
            assert (compiled.intra_link, compiled.inter_link) == (
                env.intra_link, env.inter_link)

    def test_invalid_environment_raises_at_build(self, template):
        with pytest.raises(ConfigurationError,
                           match="moe_volume_multiplier must be positive"):
            CompiledSweep(replace(template, moe_volume_multiplier=0.0),
                          GLOBAL_BATCH)


class TestProcessCache:
    def test_compile_sweep_caches_by_identity(self, template):
        compiled = replace(template, evaluation_path="compiled")
        first = compile_sweep(compiled, GLOBAL_BATCH)
        assert compile_sweep(compiled, GLOBAL_BATCH) is first
        # The parallelism field is not part of the sweep identity: the
        # whole point is one table set across every candidate mapping.
        moved = replace(compiled, parallelism=ParallelismSpec(
            tp_intra=2, dp_intra=2, dp_inter=4))
        assert compile_sweep(moved, GLOBAL_BATCH) is first
        stats = compiled_cache_stats()
        assert stats["builds"] == 1
        assert stats["hits"] == 2
        assert compile_sweep(compiled, GLOBAL_BATCH + 1) is not first

    def test_evaluation_path_not_part_of_identity(self, template):
        first = compile_sweep(
            replace(template, evaluation_path="per_layer"), GLOBAL_BATCH)
        second = compile_sweep(
            replace(template, evaluation_path="compiled"), GLOBAL_BATCH)
        assert first is second

    def test_stats_count_local_builds_and_hits_only(self, template):
        first = compile_sweep(template, GLOBAL_BATCH)
        compile_sweep(template, GLOBAL_BATCH)
        first.batch_time(ParallelismSpec(tp_intra=4, pp_inter=2,
                                         dp_inter=2))
        stats = compiled_cache_stats()
        assert {name: stats[name] for name in
                ("builds", "hits", "misses", "uncached",
                 "cached_sweeps")} \
            == {"builds": 1, "hits": 1, "misses": 1, "uncached": 0,
                "cached_sweeps": 1}
        assert set(stats) == {
            "builds", "hits", "misses", "uncached", "cached_sweeps",
            "table_lookups", "table_misses", "table_hits",
            "table_entries"}
        assert stats["table_entries"] == first.stats()["entries"] > 0

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="os.fork unavailable")
    def test_forked_child_builds_its_own_sweeps(self, template):
        """A fleet worker inherits the master's warm cache and builds
        every other sweep itself, even when the fork lands while the
        cache lock is held."""
        warm = compile_sweep(template, GLOBAL_BATCH)
        read_end, write_end = os.pipe()
        with compiler_module._CACHE_LOCK:
            pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                inherited = compile_sweep(template, GLOBAL_BATCH) is warm
                compile_sweep(template, GLOBAL_BATCH + 1)
                report = dict(compiled_cache_stats(),
                              inherited=inherited)
                os.write(write_end, json.dumps(report).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            ready, _, _ = select.select([pipe], [], [], 60.0)
            if not ready:  # a child stuck on the inherited lock
                os.kill(pid, signal.SIGKILL)
            report = pipe.read() if ready else b""
        os.waitpid(pid, 0)
        assert report, "the forked child never reported"
        child = json.loads(report)
        assert child["inherited"]
        assert child["builds"] == 2
        assert child["cached_sweeps"] == 2
        # The child's build stays in the child.
        assert compiled_cache_stats()["builds"] == 1
        assert compiled_cache_stats()["cached_sweeps"] == 1


class TestCachedNeighbours:
    """A sweep compiled while other sweeps are cached owes them nothing."""

    def test_build_beside_cached_sweeps_is_bit_exact(self, template,
                                                     system):
        donor = compile_sweep(template, GLOBAL_BATCH)
        for spec in enumerate_mappings(system):
            try:
                donor.best_microbatch(spec)
            except MappingError:
                continue
        wider = SystemSpec(node=system.node, n_nodes=8)
        neighbours = (
            (AMPeD.for_mapping(MODELS["megatron-145b"], wider,
                               dp=wider.n_accelerators), wider),
            (AMPeD.for_mapping(MODELS["mingpt-85m"], system,
                               dp=system.n_accelerators), system),
        )
        for moved, moved_system in neighbours:
            built = compile_sweep(moved, GLOBAL_BATCH)
            # A direct build never goes through the cache: the cold
            # reference, bit for bit on every mapping of the new sweep.
            cold = CompiledSweep(moved, GLOBAL_BATCH)
            for spec in enumerate_mappings(moved_system):
                try:
                    reference = cold.best_microbatch(spec)
                except MappingError:
                    with pytest.raises(MappingError):
                        built.best_microbatch(spec)
                    continue
                assert built.best_microbatch(spec) == reference
