"""Fault-injection tests for the resumable sweep runtime.

Covers the failure paths the plain explorer cannot survive: a
candidate that raises a non-``ReproError`` (journaled as a
``worker_error`` skip, or raised under ``strict``), SIGINT mid-sweep
(exact partial top-k), and the journal's resume round trip (interrupted
+ resumed == uninterrupted, with no candidate evaluated twice).  The
memory screen's parameter count is memoized per model; a test pins
that it changes no ranking.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import replace

import pytest

from repro.core.breakdown import TrainingTimeBreakdown
from repro.core.model import AMPeD
from repro.errors import ConfigurationError, SweepInterrupted, WorkerError
from repro.hardware.catalog import megatron_a100_cluster
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.parallelism.spec import ParallelismSpec
from repro.search.dse import (
    SKIP_WORKER_ERROR,
    CandidateOutcome,
    ExplorationResult,
    evaluate_candidate,
    explore,
)
from repro.search.resilience import (
    JOURNAL_SCHEMA_VERSION,
    SweepJournal,
    run_sweep,
    spec_key,
)
from repro.transformer import params
from repro.transformer.zoo import MODELS

# --------------------------------------------------------------------------
# Fault-injection evaluation functions
# --------------------------------------------------------------------------

#: Explicit candidate list with distinct, deterministic fake timings.
FAKE_SPECS = [
    ParallelismSpec(tp_intra=4, dp_inter=4),
    ParallelismSpec(dp_intra=4, dp_inter=4),
    ParallelismSpec(pp_intra=4, dp_inter=4),
    ParallelismSpec(tp_intra=2, dp_intra=2, dp_inter=4),
    ParallelismSpec(tp_intra=2, pp_intra=2, dp_inter=4),
    ParallelismSpec(dp_intra=4, pp_inter=2, dp_inter=2),
]


def _fake_time(spec: ParallelismSpec) -> float:
    return (spec.tp * 1.0 + spec.pp * 0.13 + spec.dp * 0.017
            + spec.pp_inter * 0.003)


def _fake_outcome(spec: ParallelismSpec) -> CandidateOutcome:
    batch_time = _fake_time(spec)
    return CandidateOutcome(spec=spec, result=ExplorationResult(
        parallelism=spec,
        global_batch=64,
        batch_time_s=batch_time,
        breakdown=TrainingTimeBreakdown(compute_forward=batch_time),
        microbatch_size=1.0,
        microbatch_efficiency=0.5,
    ))


def _eval_ok(spec: ParallelismSpec) -> CandidateOutcome:
    return _fake_outcome(spec)


def _eval_raise(spec: ParallelismSpec) -> CandidateOutcome:
    raise RuntimeError("injected worker crash")


@pytest.fixture
def template(tiny_model, small_system):
    return AMPeD(model=tiny_model, system=small_system,
                 parallelism=ParallelismSpec(tp_intra=4, dp_inter=4),
                 efficiency=CASE_STUDY_EFFICIENCY)


# --------------------------------------------------------------------------
# Equivalence with the plain explorer
# --------------------------------------------------------------------------


class TestRankingEquivalence:
    def test_serial_matches_explore(self, template):
        ranked = explore(template, 64, max_results=5)
        outcome = run_sweep(template, 64, max_results=5)
        assert [(r.label, r.batch_time_s) for r in outcome.results] \
            == [(r.label, r.batch_time_s) for r in ranked]
        assert not outcome.partial

    @pytest.mark.parametrize("position", ["first", "last"])
    def test_untileable_mapping_skipped_by_both(self, template,
                                                small_system, position):
        # tp=3 cannot tile a 4-accelerator node.
        bad = ParallelismSpec(tp_intra=3, dp_inter=4)
        specs = enumerate_mappings(small_system, template.model)
        specs = [bad] + specs if position == "first" else specs + [bad]
        ranked = explore(template, 64, mappings=specs, max_results=5)
        outcome = run_sweep(template, 64, mappings=specs, max_results=5)
        assert outcome.report.skipped["mapping_infeasible"] == 1
        assert [(r.label, r.batch_time_s) for r in ranked] \
            == [(r.label, r.batch_time_s) for r in outcome.results]
        assert len(ranked) == 5

    def test_report_covers_the_space(self, template):
        outcome = run_sweep(template, 64, max_results=5)
        report = outcome.report
        assert report.covered == report.n_candidates
        assert report.evaluated >= 5

    def test_vectorized_is_not_an_evaluation_path(self, template):
        # "compiled" sweeps run on the arrays; no separate path names
        # them, so every entry point rejects the old name.
        with pytest.raises(ConfigurationError,
                           match="evaluation_path must be one of"):
            replace(template, evaluation_path="vectorized")
        with pytest.raises(ConfigurationError,
                           match="evaluation_path must be one of"):
            explore(template, 64, max_results=5,
                    evaluation_path="vectorized")
        with pytest.raises(ConfigurationError,
                           match="evaluation_path must be one of"):
            run_sweep(template, 64, max_results=5,
                      evaluation_path="vectorized")


# --------------------------------------------------------------------------
# Crashing evaluation function: a worker_error skip, or WorkerError
# --------------------------------------------------------------------------


class TestWorkerCrash:
    def test_non_repro_error_becomes_worker_error_skip(self, template):
        outcome = run_sweep(
            template, 64, mappings=list(FAKE_SPECS), prune=False,
            evaluate=_eval_raise)
        report = outcome.report
        assert report.worker_errors == len(FAKE_SPECS)
        assert report.skipped[SKIP_WORKER_ERROR] == len(FAKE_SPECS)
        assert outcome.results == []
        assert report.covered == report.n_candidates

    def test_strict_mode_raises_worker_error(self, template, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with pytest.raises(WorkerError) as excinfo:
            run_sweep(template, 64, mappings=list(FAKE_SPECS),
                      prune=False, journal_path=journal, strict=True,
                      evaluate=_eval_raise)
        assert excinfo.value.journal_path == str(journal)


# --------------------------------------------------------------------------
# SIGINT mid-sweep: exact partial top-k
# --------------------------------------------------------------------------


def _interrupting(evaluate, after: int):
    """Wrap ``evaluate`` to deliver a real SIGINT after ``after`` calls."""
    calls = {"n": 0}

    def wrapped(spec):
        calls["n"] += 1
        if calls["n"] == after:
            os.kill(os.getpid(), signal.SIGINT)
        return evaluate(spec)

    return wrapped


class TestSigint:
    def test_partial_topk_matches_serial_prefix(self, template):
        interrupt_after = 3
        outcome = run_sweep(
            template, 64, mappings=list(FAKE_SPECS), prune=False,
            evaluate=_interrupting(_eval_ok, interrupt_after))
        assert outcome.partial
        assert outcome.report.partial
        # the ranking is exact over the serial prefix evaluated so far
        prefix = sorted((_fake_time(spec) for spec
                         in FAKE_SPECS[:interrupt_after]))
        assert [r.batch_time_s for r in outcome.results] == prefix

    def test_raise_on_interrupt_carries_partials(self, template,
                                                 tmp_path):
        journal = tmp_path / "journal.jsonl"
        with pytest.raises(SweepInterrupted) as excinfo:
            run_sweep(template, 64, mappings=list(FAKE_SPECS),
                      prune=False, journal_path=journal,
                      raise_on_interrupt=True,
                      evaluate=_interrupting(_eval_ok, 2))
        error = excinfo.value
        assert error.journal_path == str(journal)
        assert len(error.partial_results) == 2

    def test_sigint_handler_is_restored(self, template):
        before = signal.getsignal(signal.SIGINT)
        run_sweep(template, 64, mappings=list(FAKE_SPECS), prune=False,
                  evaluate=_eval_ok)
        assert signal.getsignal(signal.SIGINT) is before


# --------------------------------------------------------------------------
# Journal + resume round trip
# --------------------------------------------------------------------------


class TestResume:
    def test_resume_equals_uninterrupted(self, template, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        uninterrupted = run_sweep(template, 64, max_results=5)

        first = run_sweep(
            template, 64, max_results=5, journal_path=journal,
            evaluate=_interrupting(
                lambda spec: evaluate_candidate(template, spec, 64), 4))
        assert first.partial
        assert first.report.journal_path == str(journal)

        resumed = run_sweep(template, 64, max_results=5,
                            journal_path=journal, resume=True)
        assert not resumed.partial
        assert resumed.report.resumed > 0
        assert [(r.label, r.batch_time_s) for r in resumed.results] \
            == [(r.label, r.batch_time_s) for r in uninterrupted.results]

    def test_resume_never_reevaluates(self, template, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = run_sweep(template, 64, mappings=list(FAKE_SPECS),
                          prune=False, journal_path=journal,
                          evaluate=_interrupting(_eval_ok, 3))
        already = first.report.evaluated
        assert already == 3

        calls = {"n": 0}

        def counting(spec):
            calls["n"] += 1
            return _eval_ok(spec)

        resumed = run_sweep(template, 64, mappings=list(FAKE_SPECS),
                            prune=False, journal_path=journal,
                            resume=True, evaluate=counting)
        assert calls["n"] == len(FAKE_SPECS) - already
        assert resumed.report.resumed == already
        assert [r.batch_time_s for r in resumed.results] \
            == sorted(_fake_time(spec) for spec in FAKE_SPECS)

    def test_header_records_evaluation_path(self, template, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(template, 64, max_results=3, journal_path=journal,
                  evaluation_path="per_layer")
        header, _ = SweepJournal.load(journal)
        assert header["evaluation_path"] == "per_layer"

    def test_resume_across_evaluation_paths(self, template, tmp_path):
        """The evaluation path is journal provenance, not identity: a
        sweep interrupted under the per-layer path resumes under the
        compiled default and still produces the uninterrupted ranking
        (labels exact, times within the cross-path tolerance)."""
        journal = tmp_path / "sweep.jsonl"
        uninterrupted = run_sweep(template, 64, max_results=5)

        per_layer = replace(template, evaluation_path="per_layer")
        first = run_sweep(
            template, 64, max_results=5, journal_path=journal,
            evaluation_path="per_layer",
            evaluate=_interrupting(
                lambda spec: evaluate_candidate(per_layer, spec, 64), 4))
        assert first.partial
        assert SweepJournal.load(journal)[0]["evaluation_path"] \
            == "per_layer"

        resumed = run_sweep(template, 64, max_results=5,
                            journal_path=journal, resume=True,
                            evaluation_path="compiled")
        assert not resumed.partial
        assert resumed.report.resumed > 0
        assert [r.label for r in resumed.results] \
            == [r.label for r in uninterrupted.results]
        for ours, reference in zip(resumed.results,
                                   uninterrupted.results):
            scale = max(abs(reference.batch_time_s), 1e-300)
            assert abs(ours.batch_time_s - reference.batch_time_s) \
                / scale <= 1e-9

    def test_resume_journal_from_a_removed_path(self, template,
                                                tmp_path):
        """Journals written by older versions still resume: one whose
        header names the removed ``"collapsed"`` evaluation path (the
        path is provenance, not identity), and whose metrics record
        carries the removed worker pool's ``retried`` counter (dropped;
        the other counters keep accumulating)."""
        journal = tmp_path / "sweep.jsonl"
        uninterrupted = run_sweep(template, 64, max_results=5,
                                  journal_path=journal)
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["evaluation_path"] = "collapsed"
        candidates = [line for line in lines[1:]
                      if json.loads(line)["kind"] == "candidate"]
        kept = candidates[:-3]
        metrics = {"kind": "metrics",
                   "counters": {"runs": 1, "evaluated": 0, "skipped": 0,
                                "retried": 2, "worker_errors": 1,
                                "interrupts": 1},
                   "skipped": {}}
        journal.write_text("\n".join(
            [json.dumps(header)] + kept
            + [json.dumps(metrics, sort_keys=True)]) + "\n")

        resumed = run_sweep(template, 64, max_results=5,
                            journal_path=journal, resume=True)
        assert not resumed.partial
        assert resumed.report.resumed == sum(
            json.loads(line)["status"] == "evaluated" for line in kept)
        assert [(r.label, r.batch_time_s) for r in resumed.results] \
            == [(r.label, r.batch_time_s) for r in uninterrupted.results]
        counters = resumed.cumulative["counters"]
        assert "retried" not in counters
        assert counters["runs"] == 2
        assert counters["worker_errors"] == 1
        assert counters["interrupts"] == 1

    def test_resume_journal_written_as_vectorized(self, template,
                                                  tmp_path):
        """Default sweeps once wrote ``"vectorized"`` into the journal
        header.  Such a journal resumes with the uninterrupted ranking
        and skip counts, and a new journal records ``"compiled"``."""
        journal = tmp_path / "sweep.jsonl"
        uninterrupted = run_sweep(template, 64, max_results=3,
                                  journal_path=journal)
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["evaluation_path"] == "compiled"
        header["evaluation_path"] = "vectorized"
        candidates = [line for line in lines[1:]
                      if json.loads(line)["kind"] == "candidate"]
        kept = candidates[:-3]
        journal.write_text("\n".join([json.dumps(header)] + kept) + "\n")

        resumed = run_sweep(template, 64, max_results=3,
                            journal_path=journal, resume=True)
        assert not resumed.partial
        assert resumed.report.resumed == sum(
            json.loads(line)["status"] == "evaluated" for line in kept)
        assert [(r.label, r.batch_time_s) for r in resumed.results] \
            == [(r.label, r.batch_time_s) for r in uninterrupted.results]
        assert uninterrupted.report.skipped.get("pruned")
        assert resumed.report.skipped == uninterrupted.report.skipped
        assert resumed.report.evaluated + resumed.report.resumed \
            == uninterrupted.report.evaluated

    def test_journal_records_every_fate(self, template, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        outcome = run_sweep(template, 64, max_results=3,
                            journal_path=journal)
        header, done = SweepJournal.load(journal)
        assert header["schema_version"] == JOURNAL_SCHEMA_VERSION
        assert header["model"] == template.model.name
        assert len(done) == outcome.report.n_candidates
        statuses = {record["status"] for record in done.values()}
        assert statuses <= {"evaluated", "skipped"}
        for record in done.values():
            if record["status"] == "skipped":
                assert record["category"]


class TestParameterCountMemo:
    """The memory screen asks for the model's parameter count once per
    candidate; the count is memoized per model and changes nothing."""

    @pytest.fixture(scope="class")
    def megatron_1t(self):
        system = megatron_a100_cluster(128)
        return AMPeD.for_mapping(MODELS["megatron-1t"], system,
                                 dp=system.n_accelerators,
                                 efficiency=CASE_STUDY_EFFICIENCY)

    @staticmethod
    def _digest(outcome):
        return ([(r.label, r.batch_time_s, r.breakdown.as_dict())
                 for r in outcome.results], outcome.report.as_dict())

    def test_counted_once_per_model(self, megatron_1t, monkeypatch):
        params.total_parameters.cache_clear()
        cached = run_sweep(megatron_1t, 2048, max_results=10,
                           enforce_memory=True)
        info = params.total_parameters.cache_info()
        assert cached.report.n_candidates == 280
        assert info.misses == 1
        assert info.hits >= cached.report.evaluated > 0

        monkeypatch.setattr("repro.memory.footprint.total_parameters",
                            params.total_parameters.__wrapped__)
        uncached = run_sweep(megatron_1t, 2048, max_results=10,
                             enforce_memory=True)
        assert params.total_parameters.cache_info() == info
        assert self._digest(cached) == self._digest(uncached)
        assert cached.report.skipped == uncached.report.skipped
        assert cached.report.skipped["memory_capacity"] > 0


class TestJournalKeys:
    """Journal keys cost a JSON dump per candidate: a sweep without a
    journal must never compute one, on either route."""

    @pytest.fixture()
    def no_keys(self, monkeypatch):
        from repro.search import resilience

        def forbidden(spec):
            raise AssertionError("spec_key called without a journal")

        monkeypatch.setattr(resilience, "spec_key", forbidden)

    def test_default_route_without_journal(self, template, no_keys):
        reference = explore(template, 64, max_results=5)
        outcome = run_sweep(template, 64, max_results=5)
        assert [(r.label, r.batch_time_s) for r in outcome.results] \
            == [(r.label, r.batch_time_s) for r in reference]

    def test_scalar_route_without_journal(self, template, no_keys):
        outcome = run_sweep(template, 64, mappings=list(FAKE_SPECS),
                            prune=False, evaluate=_eval_ok)
        assert outcome.report.evaluated == len(FAKE_SPECS)

    def test_resume_still_skips_journaled_candidates(self, template,
                                                     tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = run_sweep(template, 64, max_results=5,
                          journal_path=journal)
        resumed = run_sweep(template, 64, max_results=5,
                            journal_path=journal, resume=True)
        assert resumed.report.evaluated == 0
        assert resumed.report.resumed == first.report.evaluated
        assert [(r.label, r.batch_time_s) for r in resumed.results] \
            == [(r.label, r.batch_time_s) for r in first.results]


def _corrupt_first_evaluated(journal, **parallelism) -> None:
    """Overwrite mapping fields of the journal's first evaluated record."""
    lines = journal.read_text().splitlines()
    for number, line in enumerate(lines):
        record = json.loads(line)
        if record.get("status") == "evaluated":
            record["parallelism"].update(parallelism)
            lines[number] = json.dumps(record, sort_keys=True)
            break
    else:
        pytest.fail("journal holds no evaluated record")
    journal.write_text("\n".join(lines) + "\n")


class TestJournalValidation:
    @pytest.mark.parametrize("corruption,message", [
        ({"n_microbatches": 2.5}, "n_microbatches"),
        ({"tp_intra": True}, "tp_intra"),
        ({"no_such_degree": 2}, "malformed candidate record"),
    ])
    def test_corrupt_record_rejected_on_resume(self, template, tmp_path,
                                               corruption, message):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(template, 64, max_results=5, journal_path=journal)
        _corrupt_first_evaluated(journal, **corruption)
        with pytest.raises(ConfigurationError, match=message):
            run_sweep(template, 64, max_results=5, journal_path=journal,
                      resume=True)

    def test_mismatched_sweep_rejected(self, template, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(template, 64, mappings=list(FAKE_SPECS), prune=False,
                  journal_path=journal, evaluate=_eval_ok)
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(template, 128, mappings=list(FAKE_SPECS),
                      prune=False, journal_path=journal, resume=True,
                      evaluate=_eval_ok)

    def test_unsupported_version_rejected(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        journal.write_text(json.dumps(
            {"kind": "header", "schema_version": 999}) + "\n")
        with pytest.raises(ConfigurationError, match="schema version"):
            SweepJournal.load(journal)

    def test_empty_journal_rejected(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        journal.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            SweepJournal.load(journal)

    def test_torn_final_line_tolerated(self, template, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(template, 64, mappings=list(FAKE_SPECS), prune=False,
                  journal_path=journal, evaluate=_eval_ok)
        intact_header, intact = SweepJournal.load(journal)
        with journal.open("a") as handle:
            handle.write('{"kind": "candidate", "key": "x", "st')
        header, done = SweepJournal.load(journal)
        assert header == intact_header
        assert done == intact

    def test_key_is_stable_across_processes(self):
        # spec_key must not depend on hash randomization or field order
        spec = ParallelismSpec(tp_intra=2, dp_intra=2, dp_inter=4)
        assert spec_key(spec) == spec_key(
            ParallelismSpec(dp_inter=4, dp_intra=2, tp_intra=2))


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------


class TestCliFlags:
    def test_parser_accepts_resilience_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["sweep", "--journal", "j.jsonl"])
        assert args.journal == "j.jsonl"
        assert args.resume is None
        args = build_parser().parse_args(["sweep", "--resume", "j.jsonl"])
        assert args.resume == "j.jsonl"

    def test_cli_sweep_writes_and_resumes_journal(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        journal = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--nodes", "2", "--model", "mingpt-85m",
                     "--batch", "256", "--top", "5",
                     "--journal", str(journal)])
        assert code == 0
        assert journal.exists()
        out = capsys.readouterr().out
        assert "sweep coverage" in out
        # resuming a *finished* journal evaluates nothing new
        code = main(["sweep", "--nodes", "2", "--model", "mingpt-85m",
                     "--batch", "256", "--top", "5",
                     "--resume", str(journal)])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from journal" in out

    def test_cli_rejects_fractional_microbatches_in_journal(
            self, tmp_path, capsys):
        """A journal record whose mapping carries a fractional
        microbatch count is corrupt: resuming it is a structured
        configuration error (exit 2, no traceback), never a ranking
        built on ``ub = global_batch / 2.5``."""
        from repro.cli import main
        journal = tmp_path / "sweep.jsonl"
        sweep = ["sweep", "--nodes", "2", "--model", "mingpt-85m",
                 "--batch", "256", "--top", "5"]
        assert main(sweep + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        _corrupt_first_evaluated(journal, n_microbatches=2.5)
        code = main(sweep + ["--resume", str(journal)])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_microbatches" in err
        assert "Traceback" not in err

    def test_cli_reports_journal_mismatch_cleanly(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        journal = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--nodes", "2", "--model", "mingpt-85m",
                     "--batch", "256", "--journal", str(journal)]) == 0
        capsys.readouterr()
        # resuming with a different batch is a user error, not a crash
        code = main(["sweep", "--nodes", "2", "--model", "mingpt-85m",
                     "--batch", "512", "--resume", str(journal)])
        assert code == 2
        assert "different sweep" in capsys.readouterr().err
