"""Multi-point trace calibration: recovery and identifiability.

The central property is *self-calibration*: observations synthesized
from known coefficients must be recovered exactly (noiseless) or
within the reported confidence bounds (noisy).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro.core.model import AMPeD
from repro.errors import ConfigurationError
from repro.fitting.trace_fit import (
    CONDITION_WARNING_THRESHOLD,
    FIT_PARAMETERS,
    FittedCoefficients,
    fit_from_observations,
)
from repro.obs.ingest import EstimateObservation
from repro.parallelism.microbatch import MicrobatchEfficiency
from repro.parallelism.spec import ParallelismSpec

TRUTH = FittedCoefficients(
    efficiency_a=0.92, efficiency_b=28.0, flops_fraction=0.83,
    link_latency_scale=1.7, link_bandwidth_scale=0.64)

#: Mappings spanning microbatch regimes and both link tiers, so every
#: coefficient leaves a distinct fingerprint on some observation.
CONFIGS = (
    (ParallelismSpec(tp_intra=4, dp_inter=4), 512),
    (ParallelismSpec(tp_intra=4, dp_inter=4, n_microbatches=8), 4096),
    (ParallelismSpec(tp_intra=2, pp_intra=2, dp_inter=4,
                     n_microbatches=4), 2048),
    (ParallelismSpec(tp_intra=4, pp_inter=2, dp_inter=2,
                     n_microbatches=4), 1024),
    (ParallelismSpec(tp_intra=2, dp_intra=2, dp_inter=4,
                     n_microbatches=2), 256),
    (ParallelismSpec(pp_intra=4, dp_inter=4, n_microbatches=8), 64),
)


@pytest.fixture
def base(tiny_model, small_system) -> AMPeD:
    """The uncalibrated starting scenario (identity coefficients)."""
    return AMPeD(model=tiny_model, system=small_system,
                 parallelism=ParallelismSpec(tp_intra=4, dp_inter=4),
                 efficiency=MicrobatchEfficiency(a=1.0, b=16.0,
                                                 floor=0.05))


def synthesize(base: AMPeD, truth: FittedCoefficients,
               configs=CONFIGS, noise=0.0):
    """Observations measured by an imaginary machine obeying ``truth``.

    ``noise`` is the relative sigma of seeded gaussian perturbations —
    iid (matching the fitter's covariance model) yet reproducible.
    """
    rng = random.Random(20260809)
    observations = []
    for index, (spec, global_batch) in enumerate(configs):
        scenario = truth.apply(replace(base, parallelism=spec,
                                       validate=False))
        terms = {}
        for term, value in scenario.estimate_batch(global_batch) \
                .as_dict().items():
            wiggle = noise * rng.gauss(0.0, 1.0) if noise else 0.0
            terms[term] = value * (1.0 + wiggle)
        observations.append(EstimateObservation(
            terms=terms, model=base.model.name,
            global_batch=global_batch, mapping=spec,
            total_s=sum(terms.values()),
            source=f"synthetic#{index}"))
    return observations


class TestFittedCoefficients:
    def test_defaults_are_identity(self, base):
        identity = FittedCoefficients(
            efficiency_a=base.efficiency.a,
            efficiency_b=base.efficiency.b)
        applied = identity.apply(base)
        assert applied.system is base.system
        assert applied.efficiency.a == base.efficiency.a

    def test_as_dict_follows_report_order(self):
        assert tuple(TRUTH.as_dict()) == FIT_PARAMETERS

    def test_rejects_non_positive_values(self):
        with pytest.raises(ConfigurationError, match="flops_fraction "
                                                     "must be positive"):
            FittedCoefficients(flops_fraction=0.0)

    def test_apply_derates_clock_and_links(self, base):
        applied = TRUTH.apply(base)
        accelerator = base.system.accelerator
        assert applied.system.accelerator.frequency_hz \
            == pytest.approx(accelerator.frequency_hz * 0.83)
        assert applied.system.node.intra_link.latency_s \
            == pytest.approx(base.system.node.intra_link.latency_s
                             * 1.7)
        assert applied.system.node.inter_link.bandwidth_bits_per_s \
            == pytest.approx(
                base.system.node.inter_link.bandwidth_bits_per_s
                * 0.64)
        assert applied.efficiency.a == 0.92
        assert applied.efficiency.floor == base.efficiency.floor
        assert applied.efficiency.ceiling == base.efficiency.ceiling


class TestNoiselessRecovery:
    def test_recovers_every_coefficient(self, base):
        fit = fit_from_observations(base, synthesize(base, TRUTH))
        assert fit.converged
        assert fit.warnings == []
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.condition_number < CONDITION_WARNING_THRESHOLD
        for name in FIT_PARAMETERS:
            recovered = getattr(fit.coefficients, name)
            truth = getattr(TRUTH, name)
            assert abs(recovered - truth) / truth < 1e-6, name

    def test_residuals_are_flat(self, base):
        fit = fit_from_observations(base, synthesize(base, TRUTH))
        assert fit.residuals
        for residual in fit.residuals:
            if residual.measured_s > 0:
                assert abs(residual.relative_error) < 1e-9


class TestNoisyRecovery:
    def test_truth_lies_within_confidence_bounds(self, base):
        fit = fit_from_observations(
            base, synthesize(base, TRUTH, noise=0.005))
        assert fit.converged
        for name in FIT_PARAMETERS:
            low, high = fit.confidence_interval(name, sigmas=3.0)
            assert low <= getattr(TRUTH, name) <= high, name

    def test_stderr_is_finite_and_positive(self, base):
        fit = fit_from_observations(
            base, synthesize(base, TRUTH, noise=0.005))
        for name in FIT_PARAMETERS:
            assert 0 < fit.stderr[name] < math.inf


class TestSubsetFit:
    def test_unfitted_parameters_stay_at_base(self, base):
        observations = synthesize(
            base, FittedCoefficients(
                efficiency_a=1.0, efficiency_b=16.0,
                flops_fraction=0.7))
        fit = fit_from_observations(base, observations,
                                    parameters=("flops_fraction",))
        assert fit.fitted_parameters == ("flops_fraction",)
        assert fit.coefficients.flops_fraction \
            == pytest.approx(0.7, rel=1e-6)
        assert fit.coefficients.efficiency_a == base.efficiency.a
        assert fit.coefficients.link_latency_scale == 1.0
        assert set(fit.stderr) == {"flops_fraction"}


class TestIdentifiability:
    def test_serial_mapping_cannot_see_the_links(self, base):
        """No communication → zero Jacobian columns for link scales."""
        serial = replace(base, parallelism=ParallelismSpec(),
                         validate=False)
        observations = synthesize(
            serial, TRUTH, configs=((ParallelismSpec(), 64),
                                    (ParallelismSpec(), 256)))
        fit = fit_from_observations(serial, observations)
        flagged = " ".join(fit.warnings)
        assert "link_latency_scale" in flagged
        assert "not identifiable" in flagged
        assert fit.condition_number > CONDITION_WARNING_THRESHOLD \
            or math.isinf(fit.condition_number)

    def test_single_observation_reports_ill_conditioning(self, base):
        observations = synthesize(base, TRUTH,
                                  configs=(CONFIGS[0],))
        fit = fit_from_observations(base, observations)
        assert any("ill-conditioned" in warning
                   for warning in fit.warnings)

    def test_fewer_residuals_than_parameters_is_rank_deficient(self,
                                                               base):
        """Three residuals cannot pin five parameters: the Jacobian's
        missing singular values are zero, so the condition is inf."""
        observations = synthesize(base, TRUTH, configs=CONFIGS[:1])
        fit = fit_from_observations(
            base, observations,
            terms=("compute_forward", "comm_tp_intra",
                   "comm_gradient_inter"))
        assert len(fit.residuals) < len(fit.fitted_parameters)
        assert math.isinf(fit.condition_number)
        assert any("ill-conditioned" in warning
                   for warning in fit.warnings)


class TestValidation:
    def test_unknown_parameter(self, base):
        with pytest.raises(ConfigurationError, match="unknown fit "
                                                     "parameter"):
            fit_from_observations(base, synthesize(base, TRUTH),
                                  parameters=("warp_factor",))

    def test_empty_parameter_list(self, base):
        with pytest.raises(ConfigurationError, match="no parameters"):
            fit_from_observations(base, synthesize(base, TRUTH),
                                  parameters=())

    def test_no_aligned_terms(self, base):
        stranger = EstimateObservation(terms={"wall_clock": 1.0},
                                       global_batch=64)
        with pytest.raises(ConfigurationError, match="no aligned"):
            fit_from_observations(base, [stranger])

    def test_observation_without_batch_size(self, base):
        broken = EstimateObservation(terms={"compute_forward": 1.0},
                                     global_batch=0, source="x#0")
        with pytest.raises(ConfigurationError, match="no positive "
                                                     "global_batch"):
            fit_from_observations(base, [broken])

    def test_confidence_interval_with_unknown_stderr(self, base):
        fit = fit_from_observations(base, synthesize(base, TRUTH))
        fit.stderr["efficiency_a"] = math.inf
        assert fit.confidence_interval("efficiency_a") \
            == (0.0, math.inf)
