"""Multi-point calibration: fit the model's free coefficients to traces.

The one-anchor workflows in :mod:`repro.fitting.calibration` move a
single knob to hit a single number.  This module fits **all** of the
model's free coefficients at once from many aligned (measured, modeled)
per-term pairs — the observations :mod:`repro.obs.ingest` extracts from
a Chrome trace or CSV timing file:

==========================  =============================================
``efficiency_a``            microbatch-efficiency asymptote ``a``
``efficiency_b``            half-saturation microbatch size ``b``
``flops_fraction``          achievable fraction of the datasheet peak
                            (whole-chip clock derate)
``link_latency_scale``      uniform multiplier on link latencies ``C``
``link_bandwidth_scale``    uniform multiplier on link bandwidths ``BW``
==========================  =============================================

The solver is a damped Gauss–Newton iteration on the **relative**
per-term residuals, run in log-parameter space (every coefficient is
positive, and log-space makes the step scale-free across ``a`` ~ 1 and
``b`` ~ 40).  The Jacobian is numeric (central differences); the normal
equations are solved with NumPy.

The result reports per-term residuals, R², parameter standard errors
(Gauss–Newton covariance), and *identifiability* diagnostics: the
condition number of the Jacobian and warnings for parameters the data
cannot constrain.  The classic trap is ``efficiency_a`` vs
``flops_fraction``: while ``eff(ub) = a·ub/(b+ub)`` is unclamped, every
compute term sees only the product ``a · fraction`` — only observations
where the efficiency ceiling binds (large microbatches) separate them.
See ``docs/calibration.md`` §4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import AMPeD
from repro.errors import ConfigurationError, require_finite_fields
from repro.hardware.catalog_io import derated_system
from repro.obs.ingest import TERM_NAMES, EstimateObservation
from repro.obs.trace import span
from repro.parallelism.microbatch import MicrobatchEfficiency

#: Every coefficient the fitter knows, in report order.
FIT_PARAMETERS: Tuple[str, ...] = (
    "efficiency_a", "efficiency_b", "flops_fraction",
    "link_latency_scale", "link_bandwidth_scale")

#: Condition number above which the fit is flagged as ill-conditioned.
CONDITION_WARNING_THRESHOLD = 1e8


@dataclass(frozen=True)
class FittedCoefficients:
    """The five fitted coefficients (identity values = uncalibrated)."""

    efficiency_a: float = 1.0
    efficiency_b: float = 4.0
    flops_fraction: float = 1.0
    link_latency_scale: float = 1.0
    link_bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        for name in FIT_PARAMETERS:
            if not getattr(self, name) > 0:
                raise ConfigurationError(
                    f"{name} must be positive, got "
                    f"{getattr(self, name)!r}")

    def as_dict(self) -> Dict[str, float]:
        """Coefficients as a plain name→value dict (report order)."""
        return {name: getattr(self, name) for name in FIT_PARAMETERS}

    def apply(self, base: AMPeD) -> AMPeD:
        """``base`` recalibrated with these coefficients.

        The efficiency curve keeps the base's floor/ceiling clamps; the
        flops fraction and link scales derate the system through
        :func:`~repro.hardware.catalog_io.derated_system`.
        """
        template = base.efficiency
        efficiency = MicrobatchEfficiency(
            a=self.efficiency_a, b=self.efficiency_b,
            floor=template.floor, ceiling=template.ceiling)
        system = derated_system(
            base.system, flops_fraction=self.flops_fraction,
            link_latency_scale=self.link_latency_scale,
            link_bandwidth_scale=self.link_bandwidth_scale)
        return replace(base, efficiency=efficiency, system=system)


@dataclass(frozen=True)
class TermResidual:
    """One aligned (measured, modeled) pair at the fitted coefficients."""

    observation: str
    term: str
    measured_s: float
    modeled_s: float

    def __post_init__(self) -> None:
        require_finite_fields(self)

    @property
    def error_s(self) -> float:
        """Signed absolute error (modeled − measured)."""
        return self.modeled_s - self.measured_s

    @property
    def relative_error(self) -> float:
        """Signed relative error, against the measured value."""
        if self.measured_s != 0.0:
            return self.error_s / self.measured_s
        return 0.0 if self.modeled_s == 0.0 else math.inf  # amplint: disable=AMP003 — reporting value: a zero measurement against a non-zero prediction is infinitely wrong


@dataclass
class TraceFitResult:  # amplint: disable=AMP005 — condition_number and stderr carry inf as designed "unidentifiable" reporting values
    """Everything :func:`fit_from_observations` learned.

    ``stderr`` maps each *fitted* parameter to its log-space standard
    error — for small values this reads directly as a relative
    one-sigma uncertainty; :meth:`confidence_interval` converts it to
    multiplicative bounds.  ``condition_number`` is ``σmax/σmin`` of
    the final Jacobian over the fitted parameters (``inf`` when a
    parameter has no effect at all).
    """

    coefficients: FittedCoefficients
    fitted_parameters: Tuple[str, ...]
    residuals: List[TermResidual]
    r_squared: float
    sum_squared_relative: float
    iterations: int
    converged: bool
    condition_number: float
    stderr: Dict[str, float]
    warnings: List[str]
    backend: str
    n_observations: int

    def confidence_interval(self, name: str, sigmas: float = 2.0
                            ) -> Tuple[float, float]:
        """Multiplicative ``±sigmas`` bound on a fitted parameter."""
        value = getattr(self.coefficients, name)
        spread = self.stderr.get(name)
        if spread is None or not math.isfinite(spread):
            return (0.0, math.inf)  # amplint: disable=AMP003 — reporting value: unbounded interval for an unknown stderr
        return (value * math.exp(-sigmas * spread),
                value * math.exp(sigmas * spread))


def _aligned_pairs(observations: Sequence[EstimateObservation],
                   terms: Optional[Sequence[str]]
                   ) -> List[Tuple[EstimateObservation, str, float]]:
    wanted = tuple(terms) if terms is not None else TERM_NAMES
    pairs = []
    for observation in observations:
        for term in wanted:
            if term in observation.terms:
                pairs.append((observation, term,
                              float(observation.terms[term])))
    return pairs


def _prepare(base: AMPeD, observations: Sequence[EstimateObservation]
             ) -> List[Tuple[AMPeD, int]]:
    """One evaluation template per observation (mapping + batch bound,
    coefficients left for the solver to move)."""
    prepared = []
    for observation in observations:
        mapping = observation.mapping or base.parallelism
        global_batch = observation.global_batch
        if global_batch <= 0:
            raise ConfigurationError(
                f"observation {observation.source or '<unknown>'} "
                f"carries no positive global_batch; calibration needs "
                f"the batch size each measurement was taken at")
        prepared.append((replace(base, parallelism=mapping,
                                 validate=False), global_batch))
    return prepared


def fit_from_observations(base: AMPeD,
                          observations: Sequence[EstimateObservation],
                          parameters: Sequence[str] = FIT_PARAMETERS,
                          terms: Optional[Sequence[str]] = None,
                          max_iterations: int = 60,
                          tolerance: float = 1e-12) -> TraceFitResult:
    """Fit the model's free coefficients to measured per-term times.

    Parameters
    ----------
    base:
        The scenario to calibrate — its model/precision/topologies are
        held fixed; its efficiency curve and system provide the
        starting coefficients.  Each observation's mapping and batch
        size override ``base``'s.
    observations:
        Aligned measurements from :mod:`repro.obs.ingest`.
    parameters:
        Subset of :data:`FIT_PARAMETERS` to fit (the rest stay at their
        base values).
    terms:
        Breakdown components to align on (default: every component
        present in an observation).
    max_iterations, tolerance:
        Gauss–Newton iteration cap and log-space step-norm stop.
    """
    fitted = tuple(parameters)
    for name in fitted:
        if name not in FIT_PARAMETERS:
            raise ConfigurationError(
                f"unknown fit parameter {name!r}; choose from "
                f"{FIT_PARAMETERS}")
    if not fitted:
        raise ConfigurationError("no parameters selected to fit")
    pairs = _aligned_pairs(observations, terms)
    if not pairs:
        raise ConfigurationError(
            "no aligned (measured, modeled) term pairs — the "
            "observations carry no recognizable breakdown terms")

    with span("calibrate.fit", category="fitting",
              attrs={"parameters": ",".join(fitted),
                     "n_observations": len(observations),
                     "n_residuals": len(pairs),
                     "backend": "numpy"}):
        return _fit(base, observations, fitted, pairs,
                    max_iterations, tolerance)


def _fit(base: AMPeD, observations: Sequence[EstimateObservation],
         fitted: Tuple[str, ...],
         pairs: List[Tuple[EstimateObservation, str, float]],
         max_iterations: int, tolerance: float) -> TraceFitResult:
    prepared = _prepare(base, observations)
    by_observation: Dict[int, List[Tuple[str, float]]] = {}
    for index, observation in enumerate(observations):
        by_observation[index] = [
            (term, measured) for source, term, measured in pairs
            if source is observation]

    start = FittedCoefficients(
        efficiency_a=base.efficiency.a, efficiency_b=base.efficiency.b)
    measured_scale = max((measured for _, _, measured in pairs),
                         default=1.0) or 1.0

    def coefficients_at(x: Sequence[float]) -> FittedCoefficients:
        values = start.as_dict()
        for name, log_value in zip(fitted, x):
            values[name] = math.exp(log_value)
        return FittedCoefficients(**values)

    def residual_vector(x: Sequence[float]) -> List[float]:
        coefficients = coefficients_at(x)
        residuals: List[float] = []
        for index, (template, global_batch) in enumerate(prepared):
            wanted = by_observation[index]
            if not wanted:
                continue
            modeled = coefficients.apply(template) \
                .estimate_batch(global_batch).as_dict()
            for term, measured in wanted:
                scale = measured if measured > 0 else measured_scale
                residuals.append((modeled[term] - measured) / scale)
        return residuals

    x = [math.log(getattr(start, name)) for name in fitted]
    r = residual_vector(x)
    ssr = sum(value * value for value in r)
    n = len(fitted)
    damping = 0.0
    converged = False
    iterations = 0
    jacobian: List[List[float]] = []

    for iterations in range(1, max_iterations + 1):
        jacobian = _numeric_jacobian(residual_vector, x, r)
        step = None
        for _ in range(10):
            try:
                step = _solve_normal_equations(jacobian, r, damping)
            except ConfigurationError:
                damping = max(damping * 10.0, 1e-8)
                continue
            trial = [xi + di for xi, di in zip(x, step)]
            trial_r = residual_vector(trial)
            trial_ssr = sum(value * value for value in trial_r)
            if trial_ssr <= ssr or trial_ssr <= ssr * (1 + 1e-14):
                x, r, ssr = trial, trial_r, trial_ssr
                damping /= 10.0
                if damping < 1e-14:
                    damping = 0.0
                break
            damping = max(damping * 10.0, 1e-8)
            step = None
        if step is None:
            # Even a heavily damped step cannot reduce the residual:
            # the gradient is numerically zero, i.e. the iteration sits
            # on a stationary point (typically the noise floor of a
            # noisy fit).  That *is* convergence.
            converged = True
            break
        if max(abs(value) for value in step) < tolerance:
            converged = True
            break

    coefficients = coefficients_at(x)
    warnings: List[str] = []
    condition = _condition_number(jacobian, n, fitted, warnings)
    stderr = _parameter_stderr(jacobian, ssr, len(r), fitted, warnings)
    if not converged and iterations >= max_iterations:
        warnings.append(
            f"did not converge within {max_iterations} iterations "
            f"(last sum of squares {ssr:.3e})")

    residuals: List[TermResidual] = []
    for index, (template, global_batch) in enumerate(prepared):
        wanted = by_observation[index]
        if not wanted:
            continue
        modeled = coefficients.apply(template) \
            .estimate_batch(global_batch).as_dict()
        for term, measured in wanted:
            residuals.append(TermResidual(
                observation=observations[index].source,
                term=term, measured_s=measured,
                modeled_s=modeled[term]))

    measured_values = [item.measured_s for item in residuals]
    mean_measured = sum(measured_values) / len(measured_values)
    total_ss = sum((value - mean_measured) ** 2
                   for value in measured_values)
    residual_ss = sum(item.error_s ** 2 for item in residuals)
    if total_ss > 0:
        r_squared = 1.0 - residual_ss / total_ss
    else:
        r_squared = 1.0 if residual_ss == 0 else 0.0

    return TraceFitResult(
        coefficients=coefficients,
        fitted_parameters=fitted,
        residuals=residuals,
        r_squared=r_squared,
        sum_squared_relative=ssr,
        iterations=iterations,
        converged=converged,
        condition_number=condition,
        stderr=stderr,
        warnings=warnings,
        backend="numpy",
        n_observations=len(observations),
    )


# ---------------------------------------------------------------------------
# Numerics
# ---------------------------------------------------------------------------


def _numeric_jacobian(residual_fn: Callable[[Sequence[float]],
                                            List[float]],
                      x: Sequence[float],
                      r0: List[float],
                      step: float = 1e-6) -> List[List[float]]:
    """Central-difference Jacobian, rows = residuals, cols = params."""
    m, n = len(r0), len(x)
    jacobian = [[0.0] * n for _ in range(m)]
    for column in range(n):
        forward = list(x)
        backward = list(x)
        forward[column] += step
        backward[column] -= step
        r_forward = residual_fn(forward)
        r_backward = residual_fn(backward)
        inv = 1.0 / (2.0 * step)
        for row in range(m):
            jacobian[row][column] = (r_forward[row]
                                     - r_backward[row]) * inv
    return jacobian


def _solve_normal_equations(jacobian: List[List[float]],
                            residuals: List[float],
                            damping: float) -> List[float]:
    """Solve ``(JᵀJ + λ diag(JᵀJ)) δ = -Jᵀ r`` (Levenberg damping)."""
    j = np.asarray(jacobian, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    jtj = j.T @ j
    if damping:
        jtj = jtj + damping * np.diag(np.maximum(np.diag(jtj), 1e-30))
    rhs = -(j.T @ r)
    try:
        return list(np.linalg.solve(jtj, rhs))
    except np.linalg.LinAlgError as error:
        raise ConfigurationError(
            f"normal equations are singular ({error})") from None


def _solve_linear(matrix: List[List[float]],
                  rhs: List[float]) -> List[float]:
    """Gaussian elimination with partial pivoting (n ≤ 5 here)."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for column in range(n):
        pivot = max(range(column, n), key=lambda r: abs(a[r][column]))
        if abs(a[pivot][column]) < 1e-300:
            raise ConfigurationError("normal equations are singular")
        a[column], a[pivot] = a[pivot], a[column]
        inv = 1.0 / a[column][column]
        for row in range(column + 1, n):
            factor = a[row][column] * inv
            if factor == 0.0:
                continue
            for k in range(column, n + 1):
                a[row][k] -= factor * a[column][k]
    solution = [0.0] * n
    for row in range(n - 1, -1, -1):
        accumulated = a[row][n] - sum(a[row][k] * solution[k]
                                      for k in range(row + 1, n))
        solution[row] = accumulated / a[row][row]
    return solution


def _condition_number(jacobian: List[List[float]], n: int,
                      fitted: Tuple[str, ...],
                      warnings: List[str]) -> float:
    """``σmax/σmin`` of the Jacobian + per-parameter zero-column and
    overall conditioning warnings."""
    if not jacobian:
        return math.inf  # amplint: disable=AMP003 — reporting value: no residuals means no conditioning at all
    column_norms = [math.sqrt(sum(row[i] ** 2 for row in jacobian))
                    for i in range(n)]
    largest = max(column_norms) or 1.0
    for name, norm in zip(fitted, column_norms):
        if norm < 1e-12 * largest:
            warnings.append(
                f"parameter {name!r} has no measurable effect on the "
                f"aligned terms (zero Jacobian column) — it is not "
                f"identifiable from this data")
    singular = np.linalg.svd(np.asarray(jacobian, dtype=np.float64),
                             compute_uv=False)
    # An m x n Jacobian has only min(m, n) singular values; with fewer
    # residuals than parameters the missing ones are zero.
    smallest = float(singular[-1]) if len(jacobian) >= n else 0.0
    if smallest == 0.0:
        condition = math.inf  # amplint: disable=AMP003 — reporting value: zero singular value = unidentifiable direction
    else:
        condition = float(singular[0]) / smallest
    if condition > CONDITION_WARNING_THRESHOLD:
        warnings.append(
            f"ill-conditioned fit (condition number {condition:.2e}) — "
            f"some parameter combination is nearly degenerate; the "
            f"usual suspect is efficiency_a vs flops_fraction when no "
            f"observation saturates the efficiency ceiling")
    return condition


def _parameter_stderr(jacobian: List[List[float]], ssr: float,
                      n_residuals: int, fitted: Tuple[str, ...],
                      warnings: List[str]) -> Dict[str, float]:
    """Log-space standard errors from the Gauss–Newton covariance
    ``σ² (JᵀJ)⁻¹``."""
    n = len(fitted)
    dof = n_residuals - n
    if dof <= 0:
        warnings.append(
            f"{n_residuals} residuals for {n} parameters — no degrees "
            f"of freedom left, uncertainty is unreported")
        return {name: math.inf for name in fitted}  # amplint: disable=AMP003 — reporting value: unknown uncertainty
    sigma_sq = ssr / dof
    jtj = [[sum(jacobian[k][i] * jacobian[k][j]
                for k in range(len(jacobian)))
            for j in range(n)] for i in range(n)]
    stderr: Dict[str, float] = {}
    try:
        for index, name in enumerate(fitted):
            basis = [1.0 if i == index else 0.0 for i in range(n)]
            inverse_column = _solve_linear(jtj, basis)
            variance = sigma_sq * inverse_column[index]
            stderr[name] = math.sqrt(variance) if variance > 0 else 0.0
    except ConfigurationError:
        return {name: math.inf for name in fitted}  # amplint: disable=AMP003 — reporting value: singular JtJ leaves uncertainty unknown
    return stderr
