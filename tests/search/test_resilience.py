"""Fault-injection tests for the resilient sweep runtime.

Covers the failure paths the plain explorer cannot survive: a worker
that hangs (the batch timeout fires and the pool is rebuilt), a worker
that raises a non-``ReproError`` (retry with backoff, then graceful
degradation to serial), SIGINT mid-sweep (exact partial top-k), and the
journal's resume round trip (interrupted + resumed == uninterrupted,
with no candidate evaluated twice).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import replace

import pytest

from repro.core.breakdown import TrainingTimeBreakdown
from repro.core.model import AMPeD
from repro.errors import ConfigurationError, SweepInterrupted, WorkerError
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

# --------------------------------------------------------------------------
# Picklable fault-injection evaluation functions (module level so worker
# processes can unpickle them by qualified name).
# --------------------------------------------------------------------------

_MAIN_PID = os.getpid()

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


def _eval_hang_in_worker(spec: ParallelismSpec) -> CandidateOutcome:
    """Hang forever in pool workers; evaluate instantly in the parent
    (i.e. after degradation to serial execution)."""
    if os.getpid() != _MAIN_PID:
        time.sleep(300.0)
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

    def test_pool_matches_explore(self, template):
        ranked = explore(template, 64, max_results=5)
        outcome = run_sweep(template, 64, max_results=5, workers=2)
        assert [(r.label, r.batch_time_s) for r in outcome.results] \
            == [(r.label, r.batch_time_s) for r in ranked]

    def test_report_covers_the_space(self, template):
        outcome = run_sweep(template, 64, max_results=5)
        report = outcome.report
        assert report.covered == report.n_candidates
        assert report.evaluated >= 5
        assert not report.degraded


# --------------------------------------------------------------------------
# Hung worker: timeout fires, pool is retried, then degraded
# --------------------------------------------------------------------------


class TestHungWorker:
    def test_timeout_degrades_and_completes(self, template):
        outcome = run_sweep(
            template, 64, mappings=list(FAKE_SPECS), prune=False,
            workers=2, timeout=1.0, retries=1, backoff_s=0.01,
            evaluate=_eval_hang_in_worker)
        assert outcome.report.degraded
        assert "consecutive" in outcome.report.degraded_reason
        assert outcome.report.retried == 1
        # degradation completed the sweep serially instead of hanging
        assert len(outcome.results) == len(FAKE_SPECS)
        times = [r.batch_time_s for r in outcome.results]
        assert times == sorted(times)
        assert not outcome.partial


# --------------------------------------------------------------------------
# Crashing worker function: retry with backoff, then degrade
# --------------------------------------------------------------------------


class TestWorkerCrash:
    def test_non_repro_error_retries_then_degrades(self, template):
        outcome = run_sweep(
            template, 64, mappings=list(FAKE_SPECS), prune=False,
            workers=2, retries=2, backoff_s=0.01, evaluate=_eval_raise)
        report = outcome.report
        assert report.retried == 2
        assert report.degraded
        # serial evaluation still fails -> journaled worker_error skips
        assert report.worker_errors == len(FAKE_SPECS)
        assert report.skipped[SKIP_WORKER_ERROR] == len(FAKE_SPECS)
        assert outcome.results == []
        assert report.covered == report.n_candidates

    def test_strict_mode_raises_worker_error(self, template, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with pytest.raises(WorkerError) as excinfo:
            run_sweep(template, 64, mappings=list(FAKE_SPECS),
                      prune=False, retries=0, backoff_s=0.0,
                      journal_path=journal, strict=True,
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
        """Journals written while ``"collapsed"`` was an evaluation path
        still resume: the path is provenance, not identity."""
        journal = tmp_path / "sweep.jsonl"
        uninterrupted = run_sweep(template, 64, max_results=5,
                                  journal_path=journal)
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["evaluation_path"] = "collapsed"
        candidates = [line for line in lines[1:]
                      if json.loads(line)["kind"] == "candidate"]
        kept = candidates[:-3]
        journal.write_text("\n".join([json.dumps(header)] + kept) + "\n")

        resumed = run_sweep(template, 64, max_results=5,
                            journal_path=journal, resume=True)
        assert not resumed.partial
        assert resumed.report.resumed == sum(
            json.loads(line)["status"] == "evaluated" for line in kept)
        assert [(r.label, r.batch_time_s) for r in resumed.results] \
            == [(r.label, r.batch_time_s) for r in uninterrupted.results]

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
        args = build_parser().parse_args(
            ["sweep", "--timeout", "5", "--retries", "3",
             "--journal", "j.jsonl"])
        assert args.timeout == 5.0
        assert args.retries == 3
        assert args.journal == "j.jsonl"
        assert args.resume is None

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


# --------------------------------------------------------------------------
# Full-jitter retry backoff
# --------------------------------------------------------------------------


class TestRetryJitter:
    def test_backoff_is_uniform_draw_under_the_cap(self, monkeypatch):
        import random as random_mod

        from repro.obs.metrics import get_metrics
        from repro.search.resilience import _PoolSupervisor

        sleeps = []
        monkeypatch.setattr("repro.search.resilience.time.sleep",
                            sleeps.append)
        seed = 20230423
        supervisor = _PoolSupervisor(
            2, _eval_ok, timeout=None, retries=5, backoff_s=0.25,
            rng=random_mod.Random(seed))
        before = get_metrics().histogram(
            "sweep.retry_sleep_seconds").count
        for _ in range(3):
            supervisor._note_failure(RuntimeError("injected"))
        oracle = random_mod.Random(seed)
        expected = [oracle.uniform(0.0, cap)
                    for cap in (0.25, 0.5, 1.0)]
        assert [s for s in sleeps if s > 0] \
            == [e for e in expected if e > 0]
        for sleep, cap in zip(expected, (0.25, 0.5, 1.0)):
            assert 0.0 <= sleep <= cap
        assert get_metrics().histogram(
            "sweep.retry_sleep_seconds").count == before + 3

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        from repro.search.resilience import _PoolSupervisor

        sleeps = []
        monkeypatch.setattr("repro.search.resilience.time.sleep",
                            sleeps.append)
        supervisor = _PoolSupervisor(2, _eval_ok, timeout=None,
                                     retries=3, backoff_s=0.0)
        supervisor._note_failure(RuntimeError("injected"))
        assert sleeps == []

    def test_retry_span_carries_the_chosen_sleep(self, monkeypatch):
        import random as random_mod

        from repro.obs.trace import get_tracer
        from repro.search.resilience import _PoolSupervisor

        monkeypatch.setattr("repro.search.resilience.time.sleep",
                            lambda _s: None)
        tracer = get_tracer()
        tracer.enable(reset=True)
        try:
            supervisor = _PoolSupervisor(
                2, _eval_ok, timeout=None, retries=3, backoff_s=0.125,
                rng=random_mod.Random(7))
            supervisor._note_failure(RuntimeError("injected"))
            retry_spans = [record for record in tracer.records()
                           if record.name == "dse.retry"]
            assert len(retry_spans) == 1
            attrs = retry_spans[0].attrs
            assert attrs["attempt"] == 1
            assert attrs["cap_s"] == 0.125
            assert 0.0 <= attrs["sleep_s"] <= attrs["cap_s"]
        finally:
            tracer.disable()
            tracer.reset()


# --------------------------------------------------------------------------
# Vectorized sweeps run in process, whatever ``workers`` says
# --------------------------------------------------------------------------


class TestVectorizedPool:
    def test_pool_matches_serial_vectorized(self, template, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setattr(
            "repro.search.resilience.DEFAULT_CHUNK_CANDIDATES", 4)
        serial = run_sweep(template, 64, max_results=5,
                           evaluation_path="vectorized")
        pooled = run_sweep(template, 64, max_results=5, workers=2,
                           evaluation_path="vectorized")
        assert [(r.label, r.batch_time_s) for r in pooled.results] \
            == [(r.label, r.batch_time_s) for r in serial.results]
        assert pooled.report.evaluated == serial.report.evaluated
        assert pooled.report.skipped == serial.report.skipped
        assert not pooled.report.degraded
        assert pooled.report.retried == 0

    def test_vectorized_route_never_builds_a_pool(self, template,
                                                  monkeypatch):
        pytest.importorskip("numpy")
        import concurrent.futures

        serial = run_sweep(template, 64, max_results=5)
        attempts = []

        def no_pool(*args, **kwargs):
            attempts.append(kwargs)
            raise AssertionError("the vectorized route built a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        pooled = run_sweep(template, 64, max_results=5, workers=2)
        assert attempts == []
        assert [(r.label, r.batch_time_s, r.breakdown.as_dict())
                for r in pooled.results] \
            == [(r.label, r.batch_time_s, r.breakdown.as_dict())
                for r in serial.results]
        assert pooled.report.evaluated == serial.report.evaluated
        assert pooled.report.skipped == serial.report.skipped
        assert not pooled.report.degraded
        assert pooled.report.retried == 0


# --------------------------------------------------------------------------
# Supervision settings are validated before any work starts
# --------------------------------------------------------------------------


class TestSupervisionValidation:
    @pytest.mark.parametrize("kwargs,message", [
        ({"timeout": -5.0}, "timeout must be a finite number"),
        ({"timeout": float("nan")}, "timeout must be a finite number"),
        ({"timeout": float("inf")}, "timeout must be a finite number"),
        ({"timeout": 0.0}, "timeout must be a finite number"),
        ({"retries": -1}, "retries must be >= 0"),
        ({"backoff_s": -0.5}, "backoff_s must be a finite number"),
        ({"backoff_s": float("nan")}, "backoff_s must be a finite number"),
        ({"workers": -2}, "workers must be >= 0"),
    ])
    def test_rejects_invalid_settings(self, template, kwargs, message):
        # enforce_memory keeps the sweep on the pooled scalar route,
        # where a bad timeout used to fail every batch at once.
        settings = {"workers": 2, **kwargs}
        with pytest.raises(ConfigurationError, match=message):
            run_sweep(template, 64, enforce_memory=True, max_results=3,
                      **settings)

    def test_accepts_boundary_settings(self, template):
        outcome = run_sweep(template, 64, max_results=3, workers=0,
                            timeout=30.0, retries=0, backoff_s=0.0)
        assert outcome.results
