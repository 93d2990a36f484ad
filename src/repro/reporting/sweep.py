"""Structured accounting for resilient design-space sweeps.

A long sweep is only trustworthy when it can say what happened to every
candidate: evaluated, resumed from a journal, or skipped (and *why*).  :class:`SweepReport` is that ledger — the
resilient sweep runtime (:mod:`repro.search.resilience`) fills one in
as it runs and surfaces it next to the ranked results, so "the sweep
finished" and "the sweep covered the space" stop being the same claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.reporting.tables import render_table


@dataclass
class SweepReport:
    """Counters describing how a sweep covered its candidate space.

    Attributes
    ----------
    n_candidates:
        Size of the full candidate space (resumed + pending).
    evaluated:
        Candidates fully evaluated *this run*.
    resumed:
        Candidates restored from the journal instead of re-evaluated.
    skipped:
        Per-category counts of discarded candidates (categories from
        :data:`repro.search.dse.SKIP_CATEGORIES`).
    worker_errors:
        Candidates that raised non-``ReproError`` exceptions and were
        journaled as ``worker_error`` skips.
    partial:
        True when the sweep was cancelled before covering the space —
        the ranking is exact over everything evaluated so far.
    journal_path:
        Where progress was persisted (``None`` when journaling is off).
    """

    n_candidates: int = 0
    evaluated: int = 0
    resumed: int = 0
    skipped: Dict[str, int] = field(default_factory=dict)
    worker_errors: int = 0
    partial: bool = False
    journal_path: Optional[str] = None

    def record_skip(self, category: str) -> None:
        """Count one skipped candidate under ``category``."""
        self.skipped[category] = self.skipped.get(category, 0) + 1

    @property
    def total_skipped(self) -> int:
        """Candidates discarded across every skip category."""
        return sum(self.skipped.values())

    @property
    def covered(self) -> int:
        """Candidates with a journaled fate (evaluated/resumed/skipped)."""
        return self.evaluated + self.resumed + self.total_skipped

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (journal footers, bench payloads)."""
        return {
            "n_candidates": self.n_candidates,
            "evaluated": self.evaluated,
            "resumed": self.resumed,
            "skipped": dict(sorted(self.skipped.items())),
            "worker_errors": self.worker_errors,
            "partial": self.partial,
            "journal_path": self.journal_path,
        }

    def format_table(self, title: str = "sweep coverage") -> str:
        """A small aligned text table of the coverage counters."""
        rows = [("candidates", self.n_candidates),
                ("evaluated", self.evaluated),
                ("resumed from journal", self.resumed)]
        rows += [(f"skipped: {category}", count)
                 for category, count in sorted(self.skipped.items())]
        rows.append(("worker errors", self.worker_errors))
        if self.partial:
            rows.append(("PARTIAL", "sweep interrupted before full "
                                    "coverage"))
        if self.journal_path:
            rows.append(("journal", self.journal_path))
        return render_table(["counter", "value"],
                            [(k, str(v)) for k, v in rows], title=title)
