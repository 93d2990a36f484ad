"""Trace/CSV ingestion: the read half of the observability loop.

Every happy path goes through a real tracer → export → ingest cycle
(no hand-rolled fixtures drifting from the exporter); every error
path asserts a structured :class:`IngestError` naming the file and
offset — never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.collectives.ring import simulate_ring_allreduce
from repro.errors import IngestError, ReproError
from repro.hardware.interconnect import NVLINK3
from repro.obs.export import write_chrome_trace
from repro.obs.ingest import (
    TERM_NAMES,
    load_chrome_trace,
    load_csv_timings,
    load_observations,
)
from repro.obs.trace import get_tracer
from repro.parallelism.spec import ParallelismSpec


@pytest.fixture
def traced_estimate(tiny_amped, tmp_path):
    """One traced evaluation exported to disk: (path, breakdown)."""
    tracer = get_tracer()
    tracer.enable(reset=True)
    breakdown = tiny_amped.estimate_batch(64)
    simulate_ring_allreduce(8 * 1024 * 8, 4, NVLINK3)
    tracer.disable()
    path = write_chrome_trace(tracer.records(),
                              tmp_path / "trace.json")
    return path, breakdown


class TestChromeTraceRoundTrip:
    def test_observation_terms_equal_breakdown_exactly(
            self, traced_estimate):
        """Bit-exact: the term attrs carry the unquantized seconds."""
        path, breakdown = traced_estimate
        (observation,) = load_chrome_trace(path).observations()
        assert dict(observation.terms) == breakdown.as_dict()
        assert observation.term_sum_s == pytest.approx(breakdown.total)
        assert observation.total_s == pytest.approx(breakdown.total)

    def test_observation_identity_attrs(self, traced_estimate,
                                        tiny_amped):
        path, _ = traced_estimate
        (observation,) = load_chrome_trace(path).observations()
        assert observation.model == tiny_amped.model.name
        assert observation.global_batch == 64
        assert observation.evaluation_path == "compiled"
        assert observation.source.endswith("#0")

    def test_mapping_reconstructed_from_degree_attrs(
            self, traced_estimate, tiny_amped):
        from dataclasses import replace

        path, _ = traced_estimate
        (observation,) = load_chrome_trace(path).observations()
        # The emission resolves the defaulted microbatch count, so the
        # reconstruction equals the spec with n_microbatches explicit.
        original = tiny_amped.parallelism
        assert observation.mapping == replace(
            original, n_microbatches=original.microbatches)

    def test_collective_samples_carry_cost_attrs(self,
                                                 traced_estimate):
        path, _ = traced_estimate
        (sample,) = load_chrome_trace(path).collectives()
        assert sample.name == "collective.ring_allreduce"
        assert sample.algorithm == "ring-allreduce"
        assert sample.n_ranks == 4
        assert sample.payload_bytes == 8 * 1024
        assert sample.steps > 0
        assert sample.modeled_time_s > 0

    def test_stage_tracks_collect_named_timelines(self, tmp_path):
        tracer = get_tracer()
        tracer.enable(reset=True)
        tracer.add_event("stage0.fwd", 0.0, 1.0,
                         track="pipeline.stage 0")
        tracer.add_event("stage1.fwd", 1.0, 1.0,
                         track="pipeline.stage 1")
        tracer.add_event("stage0.bwd", 2.0, 2.0,
                         track="pipeline.stage 0")
        tracer.disable()
        path = write_chrome_trace(tracer.records(),
                                  tmp_path / "stages.json")
        tracks = load_chrome_trace(path).stage_tracks()
        assert [t.track for t in tracks] == ["pipeline.stage 0",
                                             "pipeline.stage 1"]
        assert tracks[0].busy_s == pytest.approx(3.0)
        assert [e.name for e in tracks[0].events] == ["stage0.fwd",
                                                      "stage0.bwd"]

    def test_foreign_trace_synthesizes_span_ids(self, tmp_path):
        """Traces from other profilers (no span_id args) still load."""
        target = tmp_path / "foreign.json"
        target.write_text(json.dumps({"traceEvents": [
            {"name": "kernel", "ph": "X", "ts": 0, "dur": 10,
             "pid": 1, "tid": 1},
            {"name": "kernel", "ph": "X", "ts": 10, "dur": 5,
             "pid": 1, "tid": 1},
        ]}))
        trace = load_chrome_trace(target)
        assert [r.span_id for r in trace.records] == [-1, -2]
        assert trace.observations() == []


class TestChromeTraceErrors:
    def _expect(self, target, match):
        with pytest.raises(IngestError, match=match) as excinfo:
            load_chrome_trace(target)
        assert str(target) in str(excinfo.value)

    def test_missing_file(self, tmp_path):
        self._expect(tmp_path / "absent.json", "cannot read trace")

    def test_invalid_json(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text("{nope")
        self._expect(target, "not valid JSON")

    def test_missing_envelope(self, tmp_path):
        target = tmp_path / "bare.json"
        target.write_text(json.dumps([{"ph": "X"}]))
        self._expect(target, "traceEvents")

    def test_events_not_a_list(self, tmp_path):
        target = tmp_path / "scalar.json"
        target.write_text(json.dumps({"traceEvents": 7}))
        self._expect(target, "must be an array")

    def _write_events(self, tmp_path, events):
        target = tmp_path / "trace.json"
        target.write_text(json.dumps({"traceEvents": events}))
        return target

    def test_unsupported_phase(self, tmp_path):
        target = self._write_events(tmp_path, [
            {"name": "b", "ph": "B", "ts": 0, "pid": 1, "tid": 1}])
        self._expect(target, "unsupported event phase 'B'")

    def test_missing_required_key(self, tmp_path):
        target = self._write_events(tmp_path, [
            {"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}])
        self._expect(target, "missing required key 'dur'")

    def test_negative_timestamp(self, tmp_path):
        target = self._write_events(tmp_path, [
            {"name": "x", "ph": "X", "ts": -3, "dur": 1,
             "pid": 1, "tid": 1}])
        self._expect(target, "invalid ts=-3")

    def test_error_carries_event_offset(self, tmp_path):
        target = self._write_events(tmp_path, [
            {"name": "ok", "ph": "X", "ts": 0, "dur": 1,
             "pid": 1, "tid": 1},
            {"name": "bad", "ph": "X", "ts": 0, "dur": "soon",
             "pid": 1, "tid": 1}])
        with pytest.raises(IngestError) as excinfo:
            load_chrome_trace(target)
        assert excinfo.value.offset == 1
        assert f"{target}:1:" in str(excinfo.value)

    def test_non_integer_span_id(self, tmp_path):
        target = self._write_events(tmp_path, [
            {"name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 1,
             "tid": 1, "args": {"span_id": "one"}}])
        self._expect(target, "non-integer span_id")

    def test_duplicate_span_id(self, tmp_path):
        event = {"name": "x", "ph": "X", "ts": 0, "dur": 1,
                 "pid": 1, "tid": 1, "args": {"span_id": 5}}
        target = self._write_events(tmp_path, [event, dict(event)])
        self._expect(target, "duplicate span_id 5")

    def test_unknown_parent_id(self, tmp_path):
        target = self._write_events(tmp_path, [
            {"name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 1,
             "tid": 1, "args": {"span_id": 1, "parent_id": 99}}])
        self._expect(target, "unknown parent_id 99")

    def test_thread_name_without_label(self, tmp_path):
        target = self._write_events(tmp_path, [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {}}])
        self._expect(target, "lacks args.name")

    def test_ingest_error_is_a_repro_error(self):
        assert issubclass(IngestError, ReproError)


class TestCsvTimings:
    def _write(self, tmp_path, text):
        target = tmp_path / "timings.csv"
        target.write_text(text)
        return target

    def test_groups_rows_into_observations(self, tmp_path):
        target = self._write(tmp_path, "\n".join([
            "term,seconds,observation,model,global_batch,tp,pp,dp",
            "compute_forward,1.5,a,tiny,64,4,1,1",
            "comm_pp,0.25,a,tiny,64,4,1,1",
            "compute_forward,1.4,b,tiny,128,2,2,1",
            ""]))
        first, second = load_csv_timings(target)
        assert first.terms == {"compute_forward": 1.5, "comm_pp": 0.25}
        assert first.total_s == pytest.approx(1.75)
        assert first.model == "tiny"
        assert first.global_batch == 64
        assert first.mapping == ParallelismSpec(tp_intra=4)
        assert second.global_batch == 128
        assert second.mapping == ParallelismSpec(tp_intra=2,
                                                 pp_intra=2)

    def test_six_degree_columns_win_over_totals(self, tmp_path):
        target = self._write(tmp_path, "\n".join([
            "term,seconds,tp_intra,tp_inter,pp_intra,pp_inter,"
            "dp_intra,dp_inter,n_microbatches,global_batch",
            "compute_forward,2.0,2,2,1,4,1,1,8,256",
            ""]))
        (observation,) = load_csv_timings(target)
        assert observation.mapping == ParallelismSpec(
            tp_intra=2, tp_inter=2, pp_inter=4, n_microbatches=8)

    def test_rows_without_mapping_yield_none(self, tmp_path):
        target = self._write(tmp_path,
                             "term,seconds\ncompute_forward,1.0\n")
        (observation,) = load_csv_timings(target)
        assert observation.mapping is None
        assert observation.global_batch == 0

    def test_missing_required_column(self, tmp_path):
        target = self._write(tmp_path, "term,millis\nfwd,1\n")
        with pytest.raises(IngestError, match="missing required "
                                              "column 'seconds'"):
            load_csv_timings(target)

    def test_empty_file(self, tmp_path):
        target = self._write(tmp_path, "")
        with pytest.raises(IngestError, match="no header row"):
            load_csv_timings(target)

    def test_header_only(self, tmp_path):
        target = self._write(tmp_path, "term,seconds\n")
        with pytest.raises(IngestError, match="no timing rows"):
            load_csv_timings(target)

    def test_non_numeric_seconds_names_the_line(self, tmp_path):
        target = self._write(
            tmp_path,
            "term,seconds\ncompute_forward,1.0\ncomm_pp,soon\n")
        with pytest.raises(IngestError, match="non-numeric") as excinfo:
            load_csv_timings(target)
        assert excinfo.value.offset == 3

    def test_negative_seconds(self, tmp_path):
        target = self._write(tmp_path,
                             "term,seconds\ncompute_forward,-1\n")
        with pytest.raises(IngestError, match="invalid seconds"):
            load_csv_timings(target)

    def test_duplicate_term_in_observation(self, tmp_path):
        target = self._write(
            tmp_path,
            "term,seconds\ncompute_forward,1\ncompute_forward,2\n")
        with pytest.raises(IngestError, match="twice"):
            load_csv_timings(target)

    def test_conflicting_metadata(self, tmp_path):
        target = self._write(tmp_path, "\n".join([
            "term,seconds,observation,global_batch",
            "compute_forward,1,a,64",
            "comm_pp,1,a,128",
            ""]))
        with pytest.raises(IngestError, match="conflicting "
                                              "global_batch"):
            load_csv_timings(target)


class TestLoadObservations:
    def test_requires_at_least_one_source(self):
        with pytest.raises(IngestError, match="nothing to ingest"):
            load_observations()

    def test_concatenates_trace_then_csv(self, traced_estimate,
                                         tmp_path):
        trace_path, _ = traced_estimate
        csv_path = tmp_path / "extra.csv"
        csv_path.write_text("term,seconds\ncompute_forward,9.0\n")
        observations = load_observations(trace_path, csv_path)
        assert len(observations) == 2
        assert observations[1].terms == {"compute_forward": 9.0}

    def test_term_names_match_breakdown_order(self, tiny_amped):
        assert tuple(tiny_amped.estimate_batch(64).as_dict()) \
            == TERM_NAMES
