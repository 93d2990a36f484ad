"""End-to-end observability acceptance tests (ISSUE 4 criteria).

- A traced Megatron-1T evaluation exports a span tree whose per-term
  durations sum to the :class:`TrainingTimeBreakdown` total.
- The CLI ``--trace`` / ``--metrics`` flags write files that the
  ``python -m repro.obs`` validator accepts, and ``--log-level``
  controls the default output.
- Sweep journals carry a metrics record whose counters accumulate
  across a resumed run.
"""

import json

import pytest

from repro.cli import main
from repro.core.model import AMPeD
from repro.hardware.catalog import megatron_a100_cluster
from repro.obs.__main__ import main as validate_main
from repro.obs.export import span_tree, validate_chrome_trace
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.search.resilience import SweepJournal, run_sweep
from repro.transformer.zoo import MEGATRON_1T


class TestTracedMegatron1T:
    def test_term_durations_sum_to_breakdown_total(self):
        """The span tree of a traced evaluation IS the Eq. 1 split."""
        system = megatron_a100_cluster()
        amped = AMPeD.for_mapping(MEGATRON_1T, system, tp=8, pp=8,
                                  dp=16,
                                  efficiency=CASE_STUDY_EFFICIENCY)
        tracer = get_tracer()
        tracer.enable(reset=True)
        breakdown = amped.estimate_batch(2048)
        tracer.disable()
        roots = span_tree(tracer.records())
        (root,) = [r for r in roots
                   if r["name"] == "model.estimate_batch"]
        assert root["duration_s"] == pytest.approx(breakdown.total)
        terms = {c["name"]: c["duration_s"] for c in root["children"]}
        assert terms == {
            f"term.{key}": pytest.approx(value)
            for key, value in breakdown.as_dict().items()}
        assert sum(terms.values()) == pytest.approx(breakdown.total)
        assert root["attrs"]["model"] == MEGATRON_1T.name

    def test_sweep_evaluations_get_distinct_tracks(self, tiny_amped):
        tracer = get_tracer()
        tracer.enable(reset=True)
        tiny_amped.estimate_batch(64)
        tiny_amped.estimate_batch(128)
        tracer.disable()
        tracks = {r.track for r in tracer.records()
                  if r.name == "model.estimate_batch"}
        assert len(tracks) == 2


class TestCliFlags:
    ESTIMATE = ["estimate", "--nodes", "4", "--tp", "8", "--dp", "4",
                "--batch", "512"]

    def test_trace_flag_writes_valid_chrome_trace(self, tmp_path,
                                                  capsys):
        trace_path = tmp_path / "trace.json"
        exit_code = main(self.ESTIMATE + ["--trace", str(trace_path)])
        assert exit_code == 0
        payload = json.loads(trace_path.read_text())
        validate_chrome_trace(payload)
        names = {e["name"] for e in payload["traceEvents"]}
        assert "cli.estimate" in names
        assert "model.estimate_batch" in names
        assert f"wrote trace to {trace_path}" in capsys.readouterr().out

    def test_metrics_flag_writes_snapshot(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        exit_code = main(self.ESTIMATE
                         + ["--metrics", str(metrics_path)])
        assert exit_code == 0
        payload = json.loads(metrics_path.read_text())
        assert any(name.startswith("cache.")
                   for name in payload["gauges"])
        assert "wrote metrics to" in capsys.readouterr().out

    def test_metrics_flag_without_path_prints_table(self, capsys):
        exit_code = main(self.ESTIMATE + ["--metrics"])
        assert exit_code == 0
        assert "metrics snapshot" in capsys.readouterr().out

    def test_log_level_warning_silences_stdout(self, capsys):
        exit_code = main(self.ESTIMATE + ["--log-level", "warning"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_default_output_unchanged(self, capsys):
        main(self.ESTIMATE)
        default = capsys.readouterr().out
        main(self.ESTIMATE + ["--log-level", "info"])
        explicit = capsys.readouterr().out
        assert default == explicit
        assert "training time breakdown" in default

    def test_errors_go_to_stderr(self, capsys):
        # TP=64 does not divide Megatron-145B's 96 attention heads.
        exit_code = main(["estimate", "--nodes", "16", "--tp", "64",
                          "--dp", "2", "--batch", "512",
                          "--log-level", "warning"])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_sweep_reports_journal_cumulative(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        base = ["sweep", "--nodes", "2", "--model", "mingpt-85m",
                "--batch", "256", "--top", "3"]
        assert main(base + ["--journal", str(journal)]) == 0
        assert "journal cumulative: 1 run(s)" in capsys.readouterr().out
        assert main(base + ["--resume", str(journal)]) == 0
        assert "journal cumulative: 2 run(s)" in capsys.readouterr().out


class TestJournalMetricsRecord:
    def test_cumulative_counters_accumulate_across_resume(
            self, tiny_amped, efficiency, tmp_path):
        from dataclasses import replace

        template = replace(tiny_amped, efficiency=efficiency)
        journal = tmp_path / "journal.jsonl"
        first = run_sweep(template, 64, max_results=5,
                          journal_path=journal)
        assert first.cumulative["counters"]["runs"] == 1
        evaluated = first.cumulative["counters"]["evaluated"]
        assert evaluated > 0

        stored = SweepJournal.load_metrics(journal)
        assert stored["counters"] == first.cumulative["counters"]

        second = run_sweep(template, 64, max_results=5,
                           journal_path=journal, resume=True)
        counters = second.cumulative["counters"]
        assert counters["runs"] == 2
        # Resume replays the journal: coverage stays, nothing re-runs.
        assert counters["evaluated"] == evaluated

    def test_sweep_populates_process_metrics(self, tiny_amped,
                                             efficiency):
        from dataclasses import replace

        template = replace(tiny_amped, efficiency=efficiency)
        run_sweep(template, 64, max_results=5)
        snapshot = get_metrics().snapshot()
        assert snapshot["counters"]["sweep.evaluated"] > 0
        assert snapshot["gauges"]["sweep.heartbeat_monotonic_s"] > 0
        # The default route evaluates whole chunks as array programs.
        assert snapshot["histograms"]["sweep.chunk_seconds"]["count"] > 0
        # The one-by-one route (per_layer) times every candidate.
        run_sweep(template, 64, max_results=5, evaluation_path="per_layer")
        snapshot = get_metrics().snapshot()
        assert snapshot["histograms"]["sweep.candidate_seconds"][
            "count"] > 0


class TestValidatorCli:
    def _write_trace(self, tmp_path):
        tracer = get_tracer()
        tracer.enable(reset=True)
        tracer.add_event("e", 0.0, 1.0, track="row")
        from repro.obs.export import write_chrome_trace
        path = write_chrome_trace(tracer.records(),
                                  tmp_path / "trace.json")
        tracer.disable()
        return path

    def test_accepts_valid_files(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        metrics = tmp_path / "metrics.json"
        registry = get_metrics()
        registry.counter("c").inc()
        from repro.obs.export import write_metrics_snapshot
        write_metrics_snapshot(registry.snapshot(), metrics)
        assert validate_main([str(trace), str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "(trace)" in out
        assert "(metrics)" in out

    def test_rejects_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert validate_main([str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_rejects_unknown_payload(self, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text('{"hello": 1}')
        assert validate_main([str(other)]) == 1

    def test_rejects_missing_file(self, tmp_path):
        assert validate_main([str(tmp_path / "absent.json")]) == 1
