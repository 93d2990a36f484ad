"""Model-vs-measured drift: is the calibrated model still honest?

The last stage of the observability loop: given a (possibly freshly
calibrated) :class:`~repro.core.model.AMPeD` scenario and the measured
observations :mod:`repro.obs.ingest` extracted, diff the modeled
per-term times against the measured ones and flag every term whose
relative error exceeds a threshold.  ``amped calibrate --report``
prints/writes this; run it periodically against production traces to
catch the model drifting away from the machine it was calibrated on
(kernel upgrades, link renegotiation, a changed collective algorithm).

Instrumented with its own observability: a ``calibrate.drift`` span
around the evaluation and ``drift.*`` metrics —

==========================  =============================================
``drift.max_rel_error``     gauge, worst |relative error| over all terms
``drift.flagged_terms``     gauge, count of terms above the threshold
``drift.observations``      counter, observations checked (cumulative)
==========================  =============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence

from repro.core.model import AMPeD
from repro.errors import ConfigurationError, require_finite_fields
from repro.obs.ingest import TERM_NAMES, EstimateObservation
from repro.obs.metrics import get_metrics
from repro.obs.trace import span
from repro.reporting.tables import render_table

#: Default relative-error threshold above which a term is flagged.
DEFAULT_DRIFT_THRESHOLD = 0.05


@dataclass(frozen=True)
class TermDrift:  # amplint: disable=AMP005 — max/mean_rel_error carry inf as designed "measured zero, modeled non-zero" reporting values
    """Aggregated modeled-vs-measured error for one breakdown term."""

    term: str
    n_samples: int
    measured_total_s: float
    modeled_total_s: float
    max_abs_rel_error: float
    mean_rel_error: float
    flagged: bool

    @property
    def total_rel_error(self) -> float:
        """Relative error of the term's summed time."""
        if self.measured_total_s != 0.0:
            return (self.modeled_total_s - self.measured_total_s) \
                / self.measured_total_s
        return 0.0 if self.modeled_total_s == 0.0 else math.inf  # amplint: disable=AMP003 — reporting value: zero measurement vs non-zero prediction


@dataclass(frozen=True)
class DriftReport:
    """Per-term drift between a model and a set of observations."""

    threshold: float
    n_observations: int
    terms: List[TermDrift]

    def __post_init__(self) -> None:
        require_finite_fields(self)

    @property
    def max_rel_error(self) -> float:
        """Worst per-sample |relative error| across every term."""
        return max((item.max_abs_rel_error for item in self.terms),
                   default=0.0)

    @property
    def flagged(self) -> List[TermDrift]:
        """Terms whose worst sample exceeds the threshold."""
        return [item for item in self.terms if item.flagged]

    @property
    def healthy(self) -> bool:
        """True when no term drifts past the threshold."""
        return not self.flagged

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (``amped calibrate --report``).

        Non-finite relative errors (a measured-zero term the model
        prices) serialize as ``null`` so the payload stays strict JSON.
        """
        def finite_or_none(value: float):
            return value if math.isfinite(value) else None

        return {
            "threshold": self.threshold,
            "n_observations": self.n_observations,
            "max_rel_error": finite_or_none(self.max_rel_error),
            "healthy": self.healthy,
            "terms": [{
                "term": item.term,
                "n_samples": item.n_samples,
                "measured_total_s": item.measured_total_s,
                "modeled_total_s": item.modeled_total_s,
                "max_abs_rel_error": finite_or_none(
                    item.max_abs_rel_error),
                "mean_rel_error": finite_or_none(item.mean_rel_error),
                "flagged": item.flagged,
            } for item in self.terms],
        }

    def format_table(self) -> str:
        """Aligned text table, worst term first."""
        ordered = sorted(self.terms,
                         key=lambda item: -item.max_abs_rel_error)
        rows = [(item.term, item.n_samples,
                 f"{item.measured_total_s:.6g}",
                 f"{item.modeled_total_s:.6g}",
                 f"{item.max_abs_rel_error:+.3%}"
                 if math.isfinite(item.max_abs_rel_error) else "inf",
                 "DRIFT" if item.flagged else "ok")
                for item in ordered]
        verdict = "healthy" if self.healthy else (
            f"{len(self.flagged)} term(s) above threshold")
        return render_table(
            ["term", "samples", "measured (s)", "modeled (s)",
             "worst rel err", "status"],
            rows,
            title=f"model-vs-measured drift over "
                  f"{self.n_observations} observation(s) — {verdict} "
                  f"(threshold {self.threshold:.1%})")


def compute_drift(amped: AMPeD,
                  observations: Sequence[EstimateObservation],
                  threshold: float = DEFAULT_DRIFT_THRESHOLD
                  ) -> DriftReport:
    """Diff ``amped``'s per-term predictions against measurements.

    Each observation is evaluated at its own mapping and batch size
    (``amped``'s mapping is the fallback for observations that carry
    none); terms absent from an observation are skipped.
    """
    if not 0 < threshold:
        raise ConfigurationError(
            f"drift threshold must be positive, got {threshold!r}")
    if not observations:
        raise ConfigurationError("no observations to compute drift on")
    with span("calibrate.drift", category="fitting",
              attrs={"n_observations": len(observations),
                     "threshold": threshold}):
        per_term: Dict[str, List[float]] = {}
        measured_totals: Dict[str, float] = {}
        modeled_totals: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for observation in observations:
            mapping = observation.mapping or amped.parallelism
            global_batch = observation.global_batch
            if global_batch <= 0:
                raise ConfigurationError(
                    f"observation {observation.source or '<unknown>'} "
                    f"carries no positive global_batch")
            modeled = replace(amped, parallelism=mapping,
                              validate=False) \
                .estimate_batch(global_batch).as_dict()
            for term in TERM_NAMES:
                if term not in observation.terms:
                    continue
                measured = float(observation.terms[term])
                predicted = modeled[term]
                if measured != 0.0:
                    rel = (predicted - measured) / measured
                elif predicted == 0.0:
                    rel = 0.0
                else:
                    rel = math.inf  # amplint: disable=AMP003 — reporting value: zero measurement vs non-zero prediction
                per_term.setdefault(term, []).append(rel)
                measured_totals[term] = measured_totals.get(term, 0.0) \
                    + measured
                modeled_totals[term] = modeled_totals.get(term, 0.0) \
                    + predicted
                counts[term] = counts.get(term, 0) + 1
        terms = []
        for term in TERM_NAMES:
            if term not in per_term:
                continue
            rels = per_term[term]
            worst = max(abs(value) for value in rels)
            finite = [value for value in rels if math.isfinite(value)]
            mean = sum(finite) / len(finite) if finite else math.inf  # amplint: disable=AMP003 — reporting value: every sample was infinitely wrong
            terms.append(TermDrift(
                term=term,
                n_samples=counts[term],
                measured_total_s=measured_totals[term],
                modeled_total_s=modeled_totals[term],
                max_abs_rel_error=worst,
                mean_rel_error=mean,
                flagged=worst > threshold,
            ))
        report = DriftReport(threshold=threshold,
                             n_observations=len(observations),
                             terms=terms)
        metrics = get_metrics()
        metrics.gauge("drift.max_rel_error").set(
            report.max_rel_error if math.isfinite(report.max_rel_error)
            else -1.0)
        metrics.gauge("drift.flagged_terms").set(len(report.flagged))
        metrics.counter("drift.observations").inc(len(observations))
        return report
