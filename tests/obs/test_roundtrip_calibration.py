"""The closed observability loop, end to end (this PR's acceptance).

One test module walks the entire pipeline on a zoo model:

    estimate under tracer → export Chrome trace → ingest → fit → drift

asserting the three headline criteria: (a) ingested per-term seconds
equal the breakdown **exactly** (bit-for-bit, via the term attrs);
(b) self-calibration against a machine obeying known coefficients
recovers every coefficient to ≤1e-6 relative; (c) the recalibrated
model shows ~zero drift against the same observations.
"""

from __future__ import annotations

import pytest

from repro.core.model import AMPeD
from repro.fitting.trace_fit import (
    FIT_PARAMETERS,
    FittedCoefficients,
    fit_from_observations,
)
from repro.hardware.catalog import megatron_a100_cluster
from repro.obs.export import write_chrome_trace
from repro.obs.ingest import load_chrome_trace
from repro.obs.trace import get_tracer
from repro.parallelism.microbatch import MicrobatchEfficiency
from repro.reporting.drift import compute_drift
from repro.transformer.zoo import MEGATRON_530B

#: The "machine being measured": known coefficients the fit must find.
TRUTH = FittedCoefficients(
    efficiency_a=0.95, efficiency_b=30.0, flops_fraction=0.88,
    link_latency_scale=1.4, link_bandwidth_scale=0.75)

#: (tp, pp, dp, n_microbatches, global_batch) mappings spanning the
#: microbatch regimes that keep every coefficient identifiable.
MAPPINGS = (
    (8, 8, 16, None, 2048),
    (8, 8, 16, 32, 4096),
    (8, 16, 8, 16, 1024),
    (4, 8, 32, 8, 512),
)


@pytest.fixture(scope="module")
def loop(tmp_path_factory):
    """Run the pipeline once, share its artifacts across the tests."""
    system = megatron_a100_cluster()
    base = AMPeD.for_mapping(
        MEGATRON_530B, system, tp=8, pp=8, dp=16,
        efficiency=MicrobatchEfficiency(a=1.0, b=16.0, floor=0.05))

    measured = TRUTH.apply(base)
    tracer = get_tracer()
    tracer.enable(reset=True)
    breakdowns = []
    for tp, pp, dp, n_microbatches, global_batch in MAPPINGS:
        scenario = AMPeD.for_mapping(
            MEGATRON_530B, measured.system, tp=tp, pp=pp, dp=dp,
            n_microbatches=n_microbatches,
            efficiency=measured.efficiency)
        breakdowns.append(scenario.estimate_batch(global_batch))
    records = tracer.records()
    tracer.disable()
    tracer.reset()

    path = write_chrome_trace(
        records, tmp_path_factory.mktemp("loop") / "measured.json")
    observations = load_chrome_trace(path).observations()
    fit = fit_from_observations(base, observations)
    drift = compute_drift(fit.coefficients.apply(base), observations)
    return {"base": base, "breakdowns": breakdowns,
            "observations": observations, "fit": fit, "drift": drift}


class TestIngestFidelity:
    def test_one_observation_per_estimate(self, loop):
        assert len(loop["observations"]) == len(MAPPINGS)

    def test_terms_equal_breakdowns_exactly(self, loop):
        """Bit-exact recovery — not approx — via the term attrs."""
        for observation, breakdown in zip(loop["observations"],
                                          loop["breakdowns"]):
            assert dict(observation.terms) == breakdown.as_dict()

    def test_observations_carry_their_mappings(self, loop):
        for observation, (tp, pp, dp, n_microbatches, global_batch) \
                in zip(loop["observations"], MAPPINGS):
            mapping = observation.mapping
            assert mapping is not None
            assert mapping.tp == tp
            assert mapping.pp == pp
            assert mapping.dp == dp
            assert observation.global_batch == global_batch
            assert observation.model == MEGATRON_530B.name


class TestSelfCalibration:
    def test_recovers_coefficients_to_1e6(self, loop):
        fit = loop["fit"]
        assert fit.converged
        for name in FIT_PARAMETERS:
            recovered = getattr(fit.coefficients, name)
            truth = getattr(TRUTH, name)
            assert abs(recovered - truth) / truth < 1e-6, name

    def test_fit_is_well_conditioned_and_exact(self, loop):
        fit = loop["fit"]
        assert fit.warnings == []
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.n_observations == len(MAPPINGS)

    def test_drift_after_recalibration_is_zero(self, loop):
        drift = loop["drift"]
        assert drift.healthy
        assert drift.max_rel_error < 1e-6

    def test_uncalibrated_base_drifts(self, loop):
        """Sanity: before calibration the same observations DO drift
        (the loop is measuring something real)."""
        report = compute_drift(loop["base"], loop["observations"])
        assert not report.healthy
