"""Unit tests for the sweep compiler (:mod:`repro.search.compiler`).

The zoo-wide equivalence lives in
``tests/properties/test_compiled_properties.py``; here we pin the
compiler's own contracts: shared tables answer every candidate bit for
bit as a table set filled for that candidate alone (the per-candidate
layer-class sum), microbatch-tuning parity, the admissible (and strictly tighter)
compute + communication lower bound, the process-wide table cache, and
the pool warm-up path.
"""

from __future__ import annotations

import pickle
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
from repro.search.compiler import (
    CompiledSweep,
    clear_compiled_cache,
    compile_sweep,
    compiled_cache_stats,
    install_compiled,
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

    def test_install_compiled_round_trips_through_pickle(self,
                                                         template):
        original = compile_sweep(template, GLOBAL_BATCH)
        original.batch_time(
            ParallelismSpec(tp_intra=4, pp_inter=2, dp_inter=2))
        shipped = pickle.loads(pickle.dumps(original))
        clear_compiled_cache()
        install_compiled(shipped)
        assert compile_sweep(template, GLOBAL_BATCH) is shipped
        assert compiled_cache_stats()["installed"] == 1
        # The shipped instance carries the parent's filled tables.
        assert shipped.stats()["entries"] \
            == original.stats()["entries"]


class TestSeeding:
    """Incremental sweep deltas: fresh builds adopt cached tables."""

    @staticmethod
    def _fill(compiled, system):
        for spec in enumerate_mappings(system):
            try:
                compiled.best_microbatch(spec)
            except MappingError:
                continue

    @staticmethod
    def _assert_bit_exact(seeded, template, system):
        # A cold direct build never goes through the cache, so it is
        # the unseeded reference the seeded build must match bit for
        # bit on every mapping of the new sweep.
        cold = CompiledSweep(template, GLOBAL_BATCH)
        for spec in enumerate_mappings(system):
            try:
                reference = cold.best_microbatch(spec)
            except MappingError:
                with pytest.raises(MappingError):
                    seeded.best_microbatch(spec)
                continue
            tuned, batch_time = seeded.best_microbatch(spec)
            assert tuned == reference[0]
            assert batch_time == reference[1]

    def test_system_delta_seeds_compute_tables(self, template, system):
        donor = compile_sweep(template, GLOBAL_BATCH)
        self._fill(donor, system)
        wider = SystemSpec(node=system.node, n_nodes=8)
        moved = AMPeD.for_mapping(MODELS["megatron-145b"], wider,
                                  dp=wider.n_accelerators)
        seeded = compile_sweep(moved, GLOBAL_BATCH)
        # Same model + batch: the per-class compute tables carry over.
        assert sum(len(tables[4]) for tables in seeded.classes) > 0
        stats = compiled_cache_stats()
        assert stats["seeded_builds"] == 1
        assert stats["seeded_entries"] > 0
        self._assert_bit_exact(seeded, moved, wider)

    def test_model_delta_seeds_efficiency_tables(self, template, system):
        donor = compile_sweep(template, GLOBAL_BATCH)
        self._fill(donor, system)
        other = AMPeD.for_mapping(MODELS["mingpt-85m"], system,
                                  dp=system.n_accelerators)
        seeded = compile_sweep(other, GLOBAL_BATCH)
        # Same batch + efficiency model: eff entries carry over even
        # though the model changed; compute tables must not.
        assert len(seeded._eff) > 0
        assert sum(len(tables[4]) for tables in seeded.classes) == 0
        assert compiled_cache_stats()["seeded_entries"] > 0
        self._assert_bit_exact(seeded, other, system)

    def test_seed_from_counts_and_never_overwrites(self, template):
        donor = CompiledSweep(template, GLOBAL_BATCH)
        donor.batch_time(
            ParallelismSpec(tp_intra=4, pp_inter=2, dp_inter=2))
        fresh = CompiledSweep(template, GLOBAL_BATCH)
        expected = (len(donor._eff) + len(donor._bubble_prefactor)
                    + sum(len(tables[4]) for tables in donor.classes))
        assert fresh.seed_from(donor) == expected
        # Everything already present: a second pass adopts nothing.
        assert fresh.seed_from(donor) == 0

    def test_different_batch_skips_value_tables(self, template):
        donor = CompiledSweep(template, GLOBAL_BATCH)
        donor.batch_time(
            ParallelismSpec(tp_intra=4, pp_inter=2, dp_inter=2))
        fresh = CompiledSweep(template, GLOBAL_BATCH * 2)
        adopted = fresh.seed_from(donor)
        # Only the batch-independent bubble prefactors carry over.
        assert adopted == len(donor._bubble_prefactor)
        assert not fresh._eff
