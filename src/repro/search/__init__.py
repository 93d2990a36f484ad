"""Design-space exploration: exhaustive sweeps, tuning, heuristics,
feasibility diagnosis, and the fault-tolerant sweep runtime."""

from repro.search.diagnose import (
    FeasibilityIssue,
    MappingDiagnosis,
    diagnose_mapping,
    require_feasible,
)
from repro.search.dse import (
    SKIP_CATEGORIES,
    CandidateOutcome,
    ExplorationResult,
    best_mapping,
    evaluate_candidate,
    explore,
    pareto_front,
)
from repro.search.heuristics import (
    LOW_BANDWIDTH_THRESHOLD_BITS_PER_S,
    MappingRecommendation,
    recommend_mapping,
)
from repro.search.resilience import (
    JOURNAL_SCHEMA_VERSION,
    SweepJournal,
    SweepOutcome,
    run_sweep,
    spec_key,
)
from repro.search.tuning import microbatch_candidates, optimize_microbatches

__all__ = [
    "explore",
    "best_mapping",
    "pareto_front",
    "ExplorationResult",
    "CandidateOutcome",
    "evaluate_candidate",
    "SKIP_CATEGORIES",
    "run_sweep",
    "spec_key",
    "SweepOutcome",
    "SweepJournal",
    "JOURNAL_SCHEMA_VERSION",
    "optimize_microbatches",
    "microbatch_candidates",
    "recommend_mapping",
    "MappingRecommendation",
    "LOW_BANDWIDTH_THRESHOLD_BITS_PER_S",
    "diagnose_mapping",
    "require_feasible",
    "MappingDiagnosis",
    "FeasibilityIssue",
]
