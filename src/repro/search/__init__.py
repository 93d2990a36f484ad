"""Design-space exploration: exhaustive sweeps, tuning, heuristics,
feasibility diagnosis, and the fault-tolerant sweep runtime.

The package loads lazily (PEP 562): a public name imports its
submodule on first access, so ``amped estimate``, which needs only
:mod:`repro.search.diagnose`, does not pay for the sweep runtime or
NumPy.
"""

from importlib import import_module

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "explore": "dse",
    "best_mapping": "dse",
    "pareto_front": "dse",
    "ExplorationResult": "dse",
    "CandidateOutcome": "dse",
    "evaluate_candidate": "dse",
    "SKIP_CATEGORIES": "dse",
    "run_sweep": "resilience",
    "spec_key": "resilience",
    "SweepOutcome": "resilience",
    "SweepJournal": "resilience",
    "JOURNAL_SCHEMA_VERSION": "resilience",
    "optimize_microbatches": "tuning",
    "microbatch_candidates": "tuning",
    "recommend_mapping": "heuristics",
    "MappingRecommendation": "heuristics",
    "LOW_BANDWIDTH_THRESHOLD_BITS_PER_S": "heuristics",
    "diagnose_mapping": "diagnose",
    "require_feasible": "diagnose",
    "MappingDiagnosis": "diagnose",
    "FeasibilityIssue": "diagnose",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
