"""Unit tests for the design-space explorer."""

import pytest

from repro.core.model import AMPeD
from repro.errors import MappingError
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.parallelism.spec import ParallelismSpec
from repro.search.dse import (
    best_mapping,
    compute_lower_bound,
    evaluate_candidate,
    explore,
    pareto_front,
)


@pytest.fixture
def template(tiny_model, small_system):
    return AMPeD(model=tiny_model, system=small_system,
                 parallelism=ParallelismSpec(tp_intra=4, dp_inter=4),
                 efficiency=CASE_STUDY_EFFICIENCY)


class TestExplore:
    def test_sorted_fastest_first(self, template):
        results = explore(template, 64)
        times = [result.batch_time_s for result in results]
        assert times == sorted(times)

    def test_max_results_truncates(self, template):
        assert len(explore(template, 64, max_results=3)) == 3

    def test_every_result_tiles_the_system(self, template,
                                           small_system):
        for result in explore(template, 64):
            result.parallelism.validate_against(small_system)

    def test_explicit_mappings(self, template):
        specs = [ParallelismSpec(tp_intra=4, dp_inter=4),
                 ParallelismSpec(dp_intra=4, dp_inter=4)]
        results = explore(template, 64, mappings=specs,
                          tune_microbatches=False)
        assert len(results) == 2

    def test_infeasible_mappings_dropped(self, template):
        # dp = 16 over batch 8 leaves sub-sequence microbatches
        specs = [ParallelismSpec(dp_intra=4, dp_inter=4)]
        assert explore(template, 8, mappings=specs,
                       tune_microbatches=False) == []

    def test_memory_filter_drops_heavy_mappings(self, small_system):
        from repro.transformer.zoo import MEGATRON_145B
        template = AMPeD(model=MEGATRON_145B, system=small_system,
                         parallelism=ParallelismSpec(tp_intra=4,
                                                     dp_inter=4),
                         efficiency=CASE_STUDY_EFFICIENCY)
        lax = explore(template, 64, tune_microbatches=False)
        strict = explore(template, 64, tune_microbatches=False,
                         enforce_memory=True)
        # 145B cannot fit 16 A100s at all
        assert len(strict) < len(lax)

    def test_label_is_mapping_description(self, template):
        result = explore(template, 64, max_results=1)[0]
        assert result.label == result.parallelism.describe()


class TestBestMapping:
    def test_best_prefers_tp_intra_for_large_models(self, small_system):
        """For compute-heavy models the explorer lands on the paper's
        preferred shape (tiny models legitimately prefer DP/PP because
        their all-reduce latency dominates)."""
        from repro.transformer.config import TransformerConfig
        medium = TransformerConfig(
            name="medium", n_layers=8, hidden_size=2048, n_heads=16,
            sequence_length=512, vocab_size=32000)
        template = AMPeD(model=medium, system=small_system,
                         parallelism=ParallelismSpec(tp_intra=4,
                                                     dp_inter=4),
                         efficiency=CASE_STUDY_EFFICIENCY)
        best = best_mapping(template, 512)
        assert best.parallelism.tp_intra > 1
        assert not best.parallelism.uses_inter_tp

    def test_raises_on_empty_space(self, template):
        with pytest.raises(MappingError):
            best_mapping(template, 64, mappings=[])


class TestPareto:
    def test_front_is_subset_and_nondominated(self, template):
        results = explore(template, 64)
        front = pareto_front(results)
        assert set(id(r) for r in front) <= set(id(r) for r in results)
        for a in front:
            for b in results:
                strictly_better = (
                    b.batch_time_s < a.batch_time_s
                    and b.breakdown.bubble <= a.breakdown.bubble) or (
                    b.batch_time_s <= a.batch_time_s
                    and b.breakdown.bubble < a.breakdown.bubble)
                assert not strictly_better

    def test_front_contains_fastest(self, template):
        results = explore(template, 64)
        front = pareto_front(results)
        assert front[0].batch_time_s == results[0].batch_time_s


class TestPruning:
    def test_pruned_topk_matches_unpruned(self, template):
        full = explore(template, 64, prune=False)
        pruned = explore(template, 64, max_results=5, prune=True)
        assert [(r.label, r.batch_time_s) for r in pruned] \
            == [(r.label, r.batch_time_s) for r in full[:5]]

    def test_noop_without_max_results(self, template):
        assert [r.label for r in explore(template, 64, prune=True)] \
            == [r.label for r in explore(template, 64, prune=False)]

    def test_lower_bound_never_exceeds_true_time(self, template,
                                                 small_system):
        from dataclasses import replace
        from repro.parallelism.mapping import enumerate_mappings
        for spec in enumerate_mappings(small_system, template.model):
            candidate = replace(template, parallelism=spec)
            bound = compute_lower_bound(candidate, 64)
            result = evaluate_candidate(template, spec, 64,
                                        tune_microbatches=True,
                                        enforce_memory=False).result
            if result is None:
                continue
            assert bound <= result.batch_time_s + 1e-12


class TestMemoryCheckDedup:
    @pytest.mark.parametrize("path", ["compiled", "per_layer"])
    def test_tuned_candidates_skip_recheck(self, template, small_system,
                                           monkeypatch, path):
        from dataclasses import replace

        from repro.parallelism.mapping import enumerate_mappings
        from repro.search.compiler import CompiledSweep
        from repro.search.tuning import candidate_microbatch_counts
        calls = []

        def screen(self, spec, n_ub):
            calls.append((spec, n_ub))
            return n_ub == 4

        monkeypatch.setattr(CompiledSweep, "fits_for", screen)
        template = replace(template, evaluation_path=path)
        mappings = enumerate_mappings(small_system, template.model)
        results = [evaluate_candidate(template, spec, 64,
                                      enforce_memory=True).result
                   for spec in mappings]
        assert any(results)  # candidates still evaluated
        # Each candidate's N_ub grid is screened once, up front; the
        # tuned winner came from that list, so it is never re-screened.
        assert calls == [(spec, n_ub) for spec in mappings
                         for n_ub in candidate_microbatch_counts(spec, 64)]


class TestEvaluateCandidateValidation:
    """A mapping that cannot tile the system raises before any skip is
    categorized, on both routes; a sweep records it as a skip."""

    BAD = ParallelismSpec(tp_intra=3, dp_inter=2)  # 3 cannot tile 8 GPUs

    @pytest.fixture
    def mingpt(self):
        from dataclasses import replace

        from repro.hardware.catalog import megatron_a100_cluster
        from repro.transformer.zoo import MODELS
        system = replace(megatron_a100_cluster(), n_nodes=2)
        return AMPeD.for_mapping(MODELS["mingpt-85m"], system,
                                 dp=system.n_accelerators)

    @pytest.mark.parametrize("path", ["compiled", "per_layer"])
    @pytest.mark.parametrize("tune", [True, False])
    def test_untileable_spec_raises(self, mingpt, path, tune):
        from dataclasses import replace
        template = replace(mingpt, evaluation_path=path)
        with pytest.raises(MappingError, match="do not tile the node"):
            evaluate_candidate(template, self.BAD, 64,
                               tune_microbatches=tune)

    def test_run_sweep_skips_it_as_mapping_infeasible(self, mingpt):
        from repro.search.resilience import run_sweep
        good = ParallelismSpec(dp_intra=8, dp_inter=2)
        outcome = run_sweep(mingpt, 64, mappings=[self.BAD, good],
                            prune=False)
        assert outcome.report.skipped == {"mapping_infeasible": 1}
        assert [result.parallelism.dp for result in outcome.results] \
            == [16]
