"""``repro.lint`` — dimensional-consistency static analysis for this repo.

AMPeD's closed-form equations mix seconds, bits, bits/second, FLOPs and
FLOP/second — quantities spanning ~20 orders of magnitude — and the only
runtime defense is the convention that :mod:`repro.units` is the single
conversion boundary.  This package machine-checks that convention: an
AST-based analyzer (``python -m repro.lint [paths]``, stdlib only) with a
rule registry, per-line suppressions (``# amplint: disable=AMP00x``),
JSON/text output and CI-friendly exit codes.

Rules
-----
AMP001  raw SI-magnitude literal bypassing a ``repro.units`` constant
AMP002  bit/byte arithmetic with a literal 8 outside ``units.py``
AMP003  bare infinity sentinel instead of raising ``MappingError``
AMP004  time-returning function without ``_s`` suffix or ``Seconds``
AMP005  dataclass float fields without ``require_finite`` validation
AMP006  broad ``except Exception`` without the supervised-boundary
        contract (``# noqa: BLE001 — <justification>``)

Whole-program rules (``--flow``, see :mod:`repro.lint.dataflow`)
----------------------------------------------------------------
AMP101  addition/subtraction of two different known dimensions
AMP102  ``Dim``-annotated function whose return flow carries a
        different dimension
AMP103  unit conversion applied to a value already in the wrong
        (or already-converted) unit
AMP104  unannotated public parameter that demonstrably receives one
        agreed dimension at multiple call sites
AMP201  module-level mutable state mutated from a thread context
        without a lock
AMP203  fork-unsafe capture: import-time file/socket, or a module
        lock in pool workers without an ``os.register_at_fork`` reset
AMP204  instance attribute written from a thread context without a
        lock while read elsewhere

Exit codes: 0 clean, 1 violations found, 2 file/parse errors.
"""

from __future__ import annotations

from repro.lint.baseline import (
    filter_new,
    read_baseline,
    write_baseline,
)
from repro.lint.dataflow import FLOW_RULES, FlowRule, run_flow
from repro.lint.engine import (
    FileContext,
    LintResult,
    ParseFailure,
    Violation,
    run_lint,
)
from repro.lint.rules import Rule, all_rules, get_rule

__all__ = [
    "FLOW_RULES",
    "FileContext",
    "FlowRule",
    "LintResult",
    "ParseFailure",
    "Rule",
    "Violation",
    "all_rules",
    "filter_new",
    "get_rule",
    "read_baseline",
    "run_flow",
    "run_lint",
    "write_baseline",
]
