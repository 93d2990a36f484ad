"""Whole-program dataflow rules: dimension flow + concurrency safety.

Two rule families run over the :class:`~repro.lint.callgraph.ProjectIndex`
instead of one file at a time:

**Dimension flow (AMP10x)** — an abstract interpretation over the unit
domain ``{unknown, scalar, dim(u)}``.  Units are seeded from the
``Dim``-tagged aliases of :mod:`repro.units` (``Seconds`` → ``s``),
from canonical name suffixes (``deadline_s``, ``size_bits``) and from
the conversion-helper table (``seconds_to_days`` consumes ``s`` and
produces ``day``), then propagated through assignments, arithmetic,
returns and resolved call sites:

========  ==========================================================
AMP101    addition/subtraction of two *different* known dimensions
AMP102    ``Dim``-annotated function whose return flow carries a
          different dimension than the annotation promises
AMP103    conversion helper applied to a value already carrying its
          output unit (applied twice) or a different input unit
AMP104    unannotated public parameter that demonstrably receives one
          agreed dimension at two or more resolved call sites
========  ==========================================================

The domain is optimistic: ``unknown`` never participates in a finding,
so every report is justified by *resolved* facts, never by the absence
of information.

**Concurrency safety (AMP20x)** — thread roots (``ThreadingHTTPServer``
handler methods, ``threading.Thread`` targets, thread-pool submissions)
and process roots (``ProcessPoolExecutor`` payloads and initializers)
are discovered from the call graph, and everything reachable from them
is checked:

========  ==========================================================
AMP201    module-level mutable state mutated from a thread context
          without an enclosing lock
AMP203    fork-unsafety: files/sockets opened at module import, or a
          module-level lock used by process-pool worker code without
          an ``os.register_at_fork`` reset
AMP204    instance attribute written from a thread context without a
          lock while other code reads it
========  ==========================================================

Both families report through the per-file suppression contract of
:mod:`repro.lint.engine` (``# amplint: disable=AMP201 — why``), run via
``amped-lint --flow``, and stay stdlib-``ast`` only.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    trailing_name,
)
from repro.lint.engine import FileContext, Violation


@dataclass(frozen=True)
class FlowRule:
    """Catalogue entry for one whole-program rule."""

    rule_id: str
    name: str
    summary: str


FLOW_RULES: Tuple[FlowRule, ...] = (
    FlowRule("AMP101", "dim-mismatch-add",
             "addition/subtraction of two different known dimensions"),
    FlowRule("AMP102", "dim-return-drift",
             "Dim-annotated function whose return flow carries a "
             "different dimension"),
    FlowRule("AMP103", "double-conversion",
             "unit conversion applied to a value already carrying the "
             "wrong (or already-converted) unit"),
    FlowRule("AMP104", "unannotated-dim-param",
             "public parameter that demonstrably receives one agreed "
             "dimension but is not annotated with it"),
    FlowRule("AMP201", "unlocked-global-mutation",
             "module-level mutable state mutated from a thread context "
             "without a lock"),
    FlowRule("AMP203", "fork-unsafe-capture",
             "file/socket opened at module import, or module-level "
             "lock used in process-pool workers without an at-fork "
             "reset"),
    FlowRule("AMP204", "unlocked-attribute-write",
             "instance attribute written from a thread context without "
             "a lock while read elsewhere"),
)


def flow_rule_ids() -> List[str]:
    """Stable-ordered ids of every whole-program rule."""
    return [rule.rule_id for rule in FLOW_RULES]


# ---------------------------------------------------------------------------
# Abstract unit domain
# ---------------------------------------------------------------------------

_UNKNOWN = "unknown"
_SCALAR = "scalar"
_DIM = "dim"


@dataclass(frozen=True)
class AbstractUnit:
    """One point of the unit lattice: unknown, dimensionless, or a
    concrete dimension like ``s`` / ``bit`` / ``FLOP/s``."""

    kind: str
    unit: str = ""

    @property
    def is_dim(self) -> bool:
        return self.kind == _DIM


UNKNOWN = AbstractUnit(_UNKNOWN)
SCALAR = AbstractUnit(_SCALAR)


def dim(unit: str) -> AbstractUnit:
    return AbstractUnit(_DIM, unit)


def join(left: AbstractUnit, right: AbstractUnit) -> AbstractUnit:
    """Pessimistic merge: anything short of agreement is unknown."""
    if left == right:
        return left
    return UNKNOWN


#: ``Dim``-tagged alias name → canonical unit string (repro.units).
ALIAS_UNITS: Dict[str, str] = {
    "Seconds": "s",
    "Bits": "bit",
    "Bytes": "byte",
    "BitsPerSecond": "bit/s",
    "Flops": "FLOP",
    "FlopsPerSecond": "FLOP/s",
    "Watts": "W",
}

#: Name suffixes that canonically carry a unit, longest first so
#: ``_bits_per_s`` wins over ``_s``.
_SUFFIX_UNITS: Tuple[Tuple[str, str], ...] = (
    ("_bits_per_s", "bit/s"),
    ("_bits_per_second", "bit/s"),
    ("_flops_per_s", "FLOP/s"),
    ("_flops_per_second", "FLOP/s"),
    ("_microseconds", "us"),
    ("_milliseconds", "ms"),
    ("_seconds", "s"),
    ("_minutes", "min"),
    ("_hours", "hour"),
    ("_days", "day"),
    ("_bytes", "byte"),
    ("_bits", "bit"),
    ("_flops", "FLOP"),
    ("_watts", "W"),
    ("_bps", "bit/s"),
    ("_us", "us"),
    ("_ms", "ms"),
    ("_ns", "ns"),
    ("_s", "s"),
)

#: Bare names that are themselves unit-bearing (``seconds`` the
#: parameter of ``seconds_to_days``).
_EXACT_NAME_UNITS: Dict[str, str] = {
    "seconds": "s",
    "days": "day",
    "hours": "hour",
    "n_bits": "bit",
    "n_bytes": "byte",
    "flops": "FLOP",
    "flops_per_second": "FLOP/s",
    "watts": "W",
}

#: repro.units conversion helper → (input unit, output unit).
CONVERSIONS: Dict[str, Tuple[str, str]] = {
    "seconds_to_days": ("s", "day"),
    "days_to_seconds": ("day", "s"),
    "seconds_to_hours": ("s", "hour"),
    "seconds_to_microseconds": ("s", "us"),
    "bytes_to_bits": ("byte", "bit"),
    "bits_to_bytes": ("bit", "byte"),
    "gbps_to_bits_per_second": ("Gbit/s", "bit/s"),
    "gbytes_per_second_to_bits_per_second": ("GB/s", "bit/s"),
    "teraflops": ("TFLOP/s", "FLOP/s"),
    "to_teraflops": ("FLOP/s", "TFLOP/s"),
}

#: ``dim / dim`` quotients with a known result dimension.
_QUOTIENTS: Dict[Tuple[str, str], str] = {
    ("bit", "bit/s"): "s",
    ("byte", "byte/s"): "s",
    ("FLOP", "FLOP/s"): "s",
    ("bit", "s"): "bit/s",
    ("FLOP", "s"): "FLOP/s",
}

#: ``dim * dim`` products with a known result dimension.
_PRODUCTS: Dict[Tuple[str, str], str] = {
    ("bit/s", "s"): "bit",
    ("FLOP/s", "s"): "FLOP",
}

#: Builtins that return their (joined) numeric argument unchanged.
_UNIT_PRESERVING_BUILTINS = {"abs", "float", "round", "min", "max",
                             "sum"}


def suffix_unit(name: Optional[str]) -> Optional[str]:
    """The unit a variable/attribute name canonically carries."""
    if name is None:
        return None
    if name in _EXACT_NAME_UNITS:
        return _EXACT_NAME_UNITS[name]
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix) and len(name) > len(suffix):
            return unit
    return None


def annotation_unit(node: Optional[ast.AST]) -> Optional[str]:
    """The unit a ``Dim``-alias annotation carries, if any."""
    name = trailing_name(node)
    if name is None:
        return None
    return ALIAS_UNITS.get(name)


# ---------------------------------------------------------------------------
# Reporting through the per-file suppression contract
# ---------------------------------------------------------------------------


class _Reporter:
    """Collects flow violations, honoring per-file suppressions and
    the ``--select``/``--ignore`` filters."""

    def __init__(self, active: Set[str]) -> None:
        self.active = active
        self.violations: List[Violation] = []

    def wants(self, rule_id: str) -> bool:
        return rule_id in self.active

    def emit(self, rule_id: str, context: FileContext, node: ast.AST,
             message: str) -> None:
        if rule_id not in self.active:
            return
        violation = context.violation(rule_id, node, message)
        if not context.is_suppressed(rule_id, violation.line):
            self.violations.append(violation)


# ---------------------------------------------------------------------------
# Dimension-flow analysis (AMP101-AMP104)
# ---------------------------------------------------------------------------

#: Call-site record feeding AMP104: (callee qualname, parameter name)
#: → list of (caller, call node, abstract unit of the argument).
_ArgRecord = Tuple[FunctionInfo, ast.Call, AbstractUnit]


class UnitAnalysis:
    """Seed → propagate → report over the abstract unit domain."""

    def __init__(self, index: ProjectIndex,
                 reporter: _Reporter) -> None:
        self.index = index
        self.reporter = reporter
        #: Function qualname → abstract unit of its return value.
        self.summaries: Dict[str, AbstractUnit] = {}
        self.arg_records: Dict[Tuple[str, str], List[_ArgRecord]] = {}

    def run(self) -> None:
        self._seed_summaries()
        # Two silent propagation rounds let suffix/annotation facts
        # chain through one level of unannotated helpers.
        for _round in range(2):
            for info in self.index.functions.values():
                if info.qualname in self.summaries:
                    continue
                evaluator = _FunctionEvaluator(self, info, report=False)
                evaluator.run()
                summary = self._returns_summary(evaluator)
                if summary is not None:
                    self.summaries[info.qualname] = summary
        # Reporting round: AMP101/AMP103 fire inline, AMP102 on the
        # collected returns, AMP104 from the call-site records.
        for info in self.index.functions.values():
            evaluator = _FunctionEvaluator(self, info, report=True)
            evaluator.run()
            self._check_return_drift(info, evaluator)
        self._check_unannotated_params()

    # -- summaries ----------------------------------------------------

    def _seed_summaries(self) -> None:
        for qualname, info in self.index.functions.items():
            annotated = annotation_unit(info.node.returns)
            if annotated is not None:
                self.summaries[qualname] = dim(annotated)
                continue
            if info.module.name == "repro.units" \
                    and info.name in CONVERSIONS:
                self.summaries[qualname] = dim(CONVERSIONS[info.name][1])
                continue
            named = suffix_unit(info.name)
            if named is not None and not info.is_method:
                self.summaries[qualname] = dim(named)

    @staticmethod
    def _returns_summary(evaluator: "_FunctionEvaluator"
                         ) -> Optional[AbstractUnit]:
        units = [unit for _node, unit in evaluator.returns
                 if unit.is_dim]
        if not units:
            return None
        first = units[0]
        if all(unit == first for unit in units[1:]):
            return first
        return None

    # -- AMP102 -------------------------------------------------------

    def _check_return_drift(self, info: FunctionInfo,
                            evaluator: "_FunctionEvaluator") -> None:
        expected = annotation_unit(info.node.returns)
        if expected is None or not self.reporter.wants("AMP102"):
            return
        alias = trailing_name(info.node.returns)
        for node, unit in evaluator.returns:
            if unit.is_dim and unit.unit != expected:
                self.reporter.emit(
                    "AMP102", info.module.context, node,
                    f"function {info.name!r} is annotated -> {alias} "
                    f"({expected!r}) but this return flow carries "
                    f"{unit.unit!r}; the declared dimension is lost at "
                    f"every call site")

    # -- AMP104 -------------------------------------------------------

    def record_argument(self, callee: FunctionInfo, param: ast.arg,
                        caller: FunctionInfo, node: ast.Call,
                        unit: AbstractUnit) -> None:
        if not unit.is_dim:
            return
        key = (callee.qualname, param.arg)
        self.arg_records.setdefault(key, []).append(
            (caller, node, unit))

    def _check_unannotated_params(self) -> None:
        if not self.reporter.wants("AMP104"):
            return
        for (qualname, param_name), records in \
                sorted(self.arg_records.items()):
            info = self.index.functions.get(qualname)
            if info is None or len(records) < 2:
                continue
            units = {unit.unit for _caller, _node, unit in records}
            if len(units) != 1:
                continue  # conflicting evidence: not demonstrable
            unit = units.pop()
            if not self._param_flaggable(info, param_name):
                continue
            self.reporter.emit(
                "AMP104", info.module.context, info.node,
                f"public parameter {param_name!r} of {info.name!r} "
                f"receives {unit!r} values at {len(records)} resolved "
                f"call sites but carries no Dim annotation or unit "
                f"suffix; annotate it (e.g. repro.units aliases) so "
                f"the dimension is checkable")

    def _param_flaggable(self, info: FunctionInfo,
                         param_name: str) -> bool:
        if info.name.startswith("_") or info.is_nested:
            return False
        if info.module.name.startswith("repro.units"):
            return False  # conversion helpers take raw floats by design
        annotation = info.param_annotation(param_name)
        if annotation is None:
            return True
        if annotation_unit(annotation) is not None:
            return False
        if suffix_unit(param_name) is not None:
            return False
        return trailing_name(annotation) == "float"

    # -- call typing shared with the evaluator ------------------------

    def conversion_for(self, info: FunctionInfo, node: ast.Call,
                       resolved: Optional[str]
                       ) -> Optional[Tuple[str, str, str]]:
        """``(name, input unit, output unit)`` when the call is a
        registered repro.units conversion helper."""
        name = trailing_name(node.func)
        if name is None or name not in CONVERSIONS:
            return None
        if resolved is not None and \
                resolved != f"repro.units.{name}":
            return None  # shadowed by an unrelated local definition
        source, target = CONVERSIONS[name]
        return name, source, target


class _FunctionEvaluator:
    """Abstract interpretation of one function body."""

    def __init__(self, analysis: UnitAnalysis, info: FunctionInfo,
                 report: bool) -> None:
        self.analysis = analysis
        self.index = analysis.index
        self.info = info
        self.report = report
        self.local_types = self.index.local_types_for(info)
        self.returns: List[Tuple[ast.AST, AbstractUnit]] = []
        self.env: Dict[str, AbstractUnit] = {}
        for arg in (info.positional_params()
                    + list(info.node.args.kwonlyargs)):
            annotated = annotation_unit(arg.annotation)
            if annotated is not None:
                self.env[arg.arg] = dim(annotated)
                continue
            named = suffix_unit(arg.arg)
            if named is not None:
                self.env[arg.arg] = dim(named)

    def run(self) -> None:
        self._eval_statements(self.info.node.body)

    # -- statements ---------------------------------------------------

    def _eval_statements(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self._eval_statement(statement)

    def _eval_statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, (ast.FunctionDef,
                                  ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            return  # nested defs evaluate as their own functions
        if isinstance(statement, ast.Assign):
            value = self.eval(statement.value)
            for target in statement.targets:
                self._bind(target, value)
            return
        if isinstance(statement, ast.AnnAssign):
            annotated = annotation_unit(statement.annotation)
            value = (self.eval(statement.value)
                     if statement.value is not None else UNKNOWN)
            if annotated is not None:
                value = dim(annotated)
            self._bind(statement.target, value)
            return
        if isinstance(statement, ast.AugAssign):
            left = self.eval(statement.target)
            right = self.eval(statement.value)
            combined = self._combine(statement, statement.op,
                                     left, right)
            self._bind(statement.target, combined)
            return
        if isinstance(statement, ast.Return):
            if statement.value is not None:
                self.returns.append(
                    (statement, self.eval(statement.value)))
            return
        # Control flow: evaluate guards/iterables for their inline
        # checks, then fall through every branch with a shared,
        # flow-insensitive environment.
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.stmt):
                self._eval_statement(child)
            elif isinstance(child, ast.ExceptHandler):
                self._eval_statements(child.body)
            elif isinstance(child, ast.withitem):
                self.eval(child.context_expr)
            elif isinstance(child, ast.expr):
                self.eval(child)

    def _bind(self, target: ast.AST, value: AbstractUnit) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, UNKNOWN)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.eval(target.value)

    # -- expressions --------------------------------------------------

    def eval(self, node: ast.AST) -> AbstractUnit:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return SCALAR
            if isinstance(node.value, (int, float)):
                return SCALAR
            return UNKNOWN
        if isinstance(node, ast.Name):
            known = self.env.get(node.id)
            if known is not None and known is not UNKNOWN:
                return known
            named = suffix_unit(node.id)
            return dim(named) if named is not None else UNKNOWN
        if isinstance(node, ast.Attribute):
            self.eval(node.value)
            named = suffix_unit(node.attr)
            return dim(named) if named is not None else UNKNOWN
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            return self._combine(node, node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.BoolOp):
            units = [self.eval(value) for value in node.values]
            result = units[0]
            for unit in units[1:]:
                result = join(result, unit)
            return result
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for comparator in node.comparators:
                self.eval(comparator)
            return SCALAR
        if isinstance(node, ast.Lambda):
            self.eval(node.body)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        # Containers, comprehensions, f-strings, subscripts, ...:
        # evaluate children for their inline checks, value unknown.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
            elif isinstance(child, ast.comprehension):
                self.eval(child.iter)
                for condition in child.ifs:
                    self.eval(condition)
        return UNKNOWN

    def _combine(self, node: ast.AST, op: ast.operator,
                 left: AbstractUnit, right: AbstractUnit
                 ) -> AbstractUnit:
        if isinstance(op, (ast.Add, ast.Sub)):
            if left.is_dim and right.is_dim:
                if left.unit != right.unit:
                    if self.report:
                        self.analysis.reporter.emit(
                            "AMP101", self.info.module.context, node,
                            f"adding {left.unit!r} to {right.unit!r}; "
                            f"these dimensions are incompatible — "
                            f"convert through repro.units before "
                            f"combining them")
                    return UNKNOWN
                return left
            if left.is_dim:
                return left
            if right.is_dim:
                return right
            return join(left, right)
        if isinstance(op, ast.Mult):
            if left.is_dim and right.kind == _SCALAR:
                return left
            if right.is_dim and left.kind == _SCALAR:
                return right
            if left.is_dim and right.is_dim:
                product = _PRODUCTS.get((left.unit, right.unit))
                if product is None:
                    product = _PRODUCTS.get((right.unit, left.unit))
                return dim(product) if product is not None else UNKNOWN
            return UNKNOWN
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if left.is_dim and right.kind == _SCALAR:
                return left
            if left.is_dim and right.is_dim:
                if left.unit == right.unit:
                    return SCALAR
                quotient = _QUOTIENTS.get((left.unit, right.unit))
                return dim(quotient) if quotient is not None \
                    else UNKNOWN
            return UNKNOWN
        if isinstance(op, (ast.Mod, ast.Pow)):
            if left.kind == _SCALAR and right.kind == _SCALAR:
                return SCALAR
            return UNKNOWN
        return UNKNOWN

    def _eval_call(self, node: ast.Call) -> AbstractUnit:
        arg_units = [self.eval(argument) for argument in node.args]
        keyword_units: Dict[str, AbstractUnit] = {}
        for keyword in node.keywords:
            unit = self.eval(keyword.value)
            if keyword.arg is not None:
                keyword_units[keyword.arg] = unit
        resolved = self.index.resolve_callee(self.info, node,
                                             self.local_types)
        conversion = self.analysis.conversion_for(self.info, node,
                                                  resolved)
        if conversion is not None:
            name, source, target = conversion
            if node.args and arg_units[0].is_dim \
                    and arg_units[0].unit != source:
                if self.report:
                    got = arg_units[0].unit
                    hint = ("the conversion has already been applied"
                            if got == target else
                            f"{name} expects {source!r}")
                    self.analysis.reporter.emit(
                        "AMP103", self.info.module.context, node,
                        f"{name}() applied to a value already in "
                        f"{got!r}; {hint}")
            return dim(target)
        target_info = self.index.function_for(resolved)
        if target_info is not None:
            self._record_arguments(target_info, node, arg_units,
                                   keyword_units)
            summary = self.analysis.summaries.get(target_info.qualname)
            if summary is not None:
                return summary
            return UNKNOWN
        func_name = trailing_name(node.func)
        if func_name in _UNIT_PRESERVING_BUILTINS and arg_units:
            result = arg_units[0]
            for unit in arg_units[1:]:
                result = join(result, unit)
            return result
        return UNKNOWN

    def _record_arguments(self, target: FunctionInfo, node: ast.Call,
                          arg_units: List[AbstractUnit],
                          keyword_units: Dict[str, AbstractUnit]
                          ) -> None:
        parameters = target.positional_params()
        if target.is_method and parameters \
                and parameters[0].arg in ("self", "cls"):
            parameters = parameters[1:]
        for position, argument in enumerate(node.args):
            if isinstance(argument, ast.Starred):
                break
            if position >= len(parameters):
                break
            self.analysis.record_argument(
                target, parameters[position], self.info, node,
                arg_units[position])
        named = {parameter.arg: parameter
                 for parameter in (parameters
                                   + list(target.node.args.kwonlyargs))}
        for keyword in node.keywords:
            if keyword.arg is None or keyword.arg not in named:
                continue
            self.analysis.record_argument(
                target, named[keyword.arg], self.info, node,
                keyword_units[keyword.arg])


# ---------------------------------------------------------------------------
# Concurrency-safety analysis (AMP201-AMP204)
# ---------------------------------------------------------------------------

#: Receiver methods that mutate a dict/list/set in place.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "appendleft",
    "popleft",
}

#: Constructor names whose module-level result is mutable shared state.
_MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict",
                      "OrderedDict", "deque", "Counter"}

#: threading primitives that are fork-hazardous when created at import.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore",
                   "BoundedSemaphore"}

#: Identifier fragments that mark a ``with`` context as a lock.
_LOCKISH_FRAGMENTS = ("lock", "mutex", "cond")

#: Methods that never need external locking (object construction).
_CONSTRUCTION_METHODS = {"__init__", "__post_init__", "__new__",
                         "__init_subclass__"}


def _is_lockish(node: ast.AST) -> bool:
    name = trailing_name(node.func if isinstance(node, ast.Call)
                         else node)
    if name is None:
        return False
    lowered = name.lower()
    return any(fragment in lowered for fragment in _LOCKISH_FRAGMENTS)


def _held_lines(info: FunctionInfo) -> Set[int]:
    """Physical lines executed under a lock-guarded ``with`` block."""
    held: Set[int] = set()
    for node in ast.walk(info.node):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if not any(_is_lockish(item.context_expr)
                   for item in node.items):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        held.update(range(node.lineno, end + 1))
    return held


class ConcurrencyAnalysis:
    """Root discovery + reachability + the AMP20x checks."""

    def __init__(self, index: ProjectIndex,
                 reporter: _Reporter) -> None:
        self.index = index
        self.reporter = reporter
        self.thread_roots: Set[str] = set()
        self.process_roots: Set[str] = set()
        #: (class qualname, attribute) → function qualnames reading it.
        self.attr_readers: Dict[Tuple[str, str], Set[str]] = {}

    def run(self) -> None:
        self._collect_roots_and_pool_sites()
        self._collect_attribute_reads()
        thread_reachable = self.index.reachable_from(self.thread_roots)
        process_reachable = self.index.reachable_from(
            self.process_roots)
        self._check_import_time_captures(process_reachable)
        for qualname in sorted(thread_reachable):
            info = self.index.functions.get(qualname)
            if info is None:
                continue
            self._check_thread_context(info)

    # -- roots --------------------------------------------------------

    def _collect_roots_and_pool_sites(self) -> None:
        for class_info in self.index.classes.values():
            bases = self.index.mro_base_names(class_info)
            if "BaseHTTPRequestHandler" in bases:
                # Every handler method runs on a per-connection thread
                # of ThreadingHTTPServer.
                for method in class_info.methods.values():
                    self.thread_roots.add(method.qualname)
            if "Thread" in bases and "run" in class_info.methods:
                self.thread_roots.add(
                    class_info.methods["run"].qualname)
        for info in list(self.index.functions.values()):
            local_types = self.index.local_types_for(info)
            for node in self.index.own_nodes(info):
                if isinstance(node, ast.Call):
                    self._inspect_call(info, node, local_types)

    def _inspect_call(self, info: FunctionInfo, node: ast.Call,
                      local_types: Dict[str, str]) -> None:
        name = trailing_name(node.func)
        if name in ("Thread", "Timer"):
            for keyword in node.keywords:
                if keyword.arg in ("target", "function"):
                    self._add_root(info, keyword.value, local_types,
                                   thread=True)
            return
        if name == "ProcessPoolExecutor":
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    self._add_root(info, keyword.value, local_types,
                                   thread=False)
            return
        if name == "ThreadPoolExecutor":
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    self._add_root(info, keyword.value, local_types,
                                   thread=True)
            return
        if not isinstance(node.func, ast.Attribute) \
                or node.func.attr not in ("submit", "map") \
                or not node.args:
            return
        receiver = self.index.infer_type(node.func.value, info,
                                         local_types)
        payload = node.args[0]
        if receiver == "ProcessPoolExecutor":
            for argument in node.args[1:]:
                self._check_pool_argument(info, argument, local_types)
            for keyword in node.keywords:
                self._check_pool_argument(info, keyword.value,
                                          local_types)
            self._add_root(info, payload, local_types, thread=False)
        elif receiver == "ThreadPoolExecutor":
            self._add_root(info, payload, local_types, thread=True)

    def _add_root(self, info: FunctionInfo, node: ast.AST,
                  local_types: Dict[str, str], thread: bool) -> None:
        resolved = self.index.resolve_func_expr(info, node,
                                                local_types)
        target = self.index.function_for(resolved)
        if target is None:
            return
        if thread:
            self.thread_roots.add(target.qualname)
        else:
            self.process_roots.add(target.qualname)

    # -- AMP203 -------------------------------------------------------

    def _check_pool_argument(self, info: FunctionInfo, node: ast.AST,
                             local_types: Dict[str, str]) -> None:
        if not self.reporter.wants("AMP203"):
            return
        if isinstance(node, ast.Name):
            assigned = info.module.module_assigns.get(node.id)
            if assigned is not None and isinstance(assigned, ast.Call) \
                    and trailing_name(assigned.func) in _LOCK_FACTORIES:
                self.reporter.emit(
                    "AMP203", info.module.context, node,
                    f"module-level lock {node.id!r} shipped as a "
                    f"process-pool argument; locks do not pickle and "
                    f"cannot synchronize across processes")

    def _check_import_time_captures(
            self, process_reachable: Set[str]) -> None:
        if not self.reporter.wants("AMP203"):
            return
        for module in self.index.modules.values():
            lock_globals = self._module_locks(module)
            reset_names = self._at_fork_reset_names(module)
            for statement in module.context.tree.body:
                value = self._assigned_value(statement)
                if value is None or not isinstance(value, ast.Call):
                    continue
                dotted = self.index.resolve_symbol(module, value.func)
                opens_resource = (
                    (isinstance(value.func, ast.Name)
                     and value.func.id == "open")
                    or (dotted is not None
                        and dotted.startswith("socket.")))
                if opens_resource:
                    self.reporter.emit(
                        "AMP203", module.context, value,
                        "file/socket opened at module import; forked "
                        "pool workers inherit the open descriptor — "
                        "open it lazily inside the function that "
                        "needs it")
            if not lock_globals:
                continue
            for qualname in sorted(process_reachable):
                function = self.index.functions.get(qualname)
                if function is None or function.module is not module:
                    continue
                for node in self.index.own_nodes(function):
                    if isinstance(node, ast.Name) \
                            and isinstance(node.ctx, ast.Load) \
                            and node.id in lock_globals \
                            and node.id not in reset_names:
                        self.reporter.emit(
                            "AMP203", module.context, node,
                            f"module-level lock {node.id!r} (created "
                            f"at import) is used by process-pool "
                            f"worker code; a forked child inherits "
                            f"its state — register an "
                            f"os.register_at_fork(after_in_child=...) "
                            f"reset for it")

    @staticmethod
    def _assigned_value(statement: ast.stmt) -> Optional[ast.AST]:
        if isinstance(statement, ast.Assign):
            return statement.value
        if isinstance(statement, ast.AnnAssign):
            return statement.value
        return None

    @staticmethod
    def _module_locks(module: ModuleInfo) -> Set[str]:
        locks: Set[str] = set()
        for name, value in module.module_assigns.items():
            if isinstance(value, ast.Call) \
                    and trailing_name(value.func) in _LOCK_FACTORIES:
                locks.add(name)
        return locks

    def _at_fork_reset_names(self, module: ModuleInfo) -> Set[str]:
        """Lock names rebound by an ``os.register_at_fork`` child hook
        somewhere in the module — the documented AMP203 remediation."""
        registers = any(
            isinstance(node, ast.Call)
            and trailing_name(node.func) == "register_at_fork"
            for node in ast.walk(module.context.tree))
        if not registers:
            return set()
        rebound: Set[str] = set()
        for function in module.functions.values():
            declared: Set[str] = set()
            for node in ast.walk(function.node):
                if isinstance(node, ast.Global):
                    declared.update(node.names)
            if not declared:
                continue
            for node in ast.walk(function.node):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) \
                                and target.id in declared:
                            rebound.add(target.id)
        return rebound

    # -- attribute reads (AMP204 evidence) ----------------------------

    def _collect_attribute_reads(self) -> None:
        for info in self.index.functions.values():
            local_types = self.index.local_types_for(info)
            for node in self.index.own_nodes(info):
                if not isinstance(node, ast.Attribute) \
                        or not isinstance(node.ctx, ast.Load):
                    continue
                receiver = self.index.infer_type(node.value, info,
                                                 local_types)
                class_info = self.index.class_for(receiver, info.module)
                if class_info is None:
                    continue
                self.attr_readers.setdefault(
                    (class_info.qualname, node.attr),
                    set()).add(info.qualname)

    # -- AMP201 / AMP204 ----------------------------------------------

    def _check_thread_context(self, info: FunctionInfo) -> None:
        module = info.module
        held = _held_lines(info)
        mutable_globals = {
            name for name, value in module.module_assigns.items()
            if isinstance(value, (ast.Dict, ast.List, ast.Set,
                                  ast.DictComp, ast.ListComp,
                                  ast.SetComp))
            or (isinstance(value, ast.Call)
                and trailing_name(value.func) in _MUTABLE_FACTORIES)}
        rebinds = {
            name for node in ast.walk(info.node)
            if isinstance(node, ast.Global) for name in node.names}
        for node in self.index.own_nodes(info):
            lineno = getattr(node, "lineno", None)
            if lineno is None or lineno in held:
                continue
            self._check_global_mutation(info, node, mutable_globals,
                                        rebinds)
            self._check_attribute_write(info, node)

    def _check_global_mutation(self, info: FunctionInfo, node: ast.AST,
                               mutable_globals: Set[str],
                               rebinds: Set[str]) -> None:
        if not self.reporter.wants("AMP201"):
            return
        name: Optional[str] = None
        action = "mutated"
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in mutable_globals:
                    name = target.value.id
                elif isinstance(target, ast.Name) \
                        and target.id in rebinds \
                        and target.id in info.module.module_assigns:
                    name, action = target.id, "rebound"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in mutable_globals:
                    name = target.value.id
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in mutable_globals \
                and node.func.attr in _MUTATOR_METHODS:
            name = node.func.value.id
        if name is None:
            return
        self.reporter.emit(
            "AMP201", info.module.context, node,
            f"module-level mutable {name!r} is {action} from a "
            f"thread context without an enclosing lock; concurrent "
            f"handlers race on it — guard the mutation with a "
            f"module-level threading.Lock")

    def _check_attribute_write(self, info: FunctionInfo,
                               node: ast.AST) -> None:
        if not self.reporter.wants("AMP204"):
            return
        if not info.is_method or info.name in _CONSTRUCTION_METHODS:
            return
        target: Optional[ast.Attribute] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Attribute):
            target = node.targets[0]
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Attribute):
            target = node.target
        if target is None or not (isinstance(target.value, ast.Name)
                                  and target.value.id == "self"):
            return
        class_qualname = info.class_qualname or ""
        readers = self.attr_readers.get((class_qualname, target.attr),
                                        set())
        if not (readers - {info.qualname}):
            return  # written here but never read elsewhere: private
        self.reporter.emit(
            "AMP204", info.module.context, node,
            f"attribute self.{target.attr} is written from a "
            f"thread context without a lock while other code reads "
            f"it; guard the write (or publish it through an Event/"
            f"queue that provides the happens-before edge)")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_flow(contexts: Sequence[FileContext],
             select: Optional[Sequence[str]] = None,
             ignore: Optional[Sequence[str]] = None
             ) -> List[Violation]:
    """Run the whole-program rule families over parsed file contexts.

    Honors the same ``--select``/``--ignore`` semantics and per-file
    suppression directives as the per-file rules; returns the surviving
    violations (unsorted — the engine owns final ordering).
    """
    active = set(flow_rule_ids())
    if select:
        active &= set(select)
    if ignore:
        active -= set(ignore)
    if not active or not contexts:
        return []
    index = ProjectIndex.build(contexts)
    reporter = _Reporter(active)
    if any(rule_id.startswith("AMP1") for rule_id in active):
        UnitAnalysis(index, reporter).run()
    if any(rule_id.startswith("AMP2") for rule_id in active):
        ConcurrencyAnalysis(index, reporter).run()
    return reporter.violations


__all__ = [
    "ALIAS_UNITS",
    "AbstractUnit",
    "CONVERSIONS",
    "FLOW_RULES",
    "FlowRule",
    "SCALAR",
    "UNKNOWN",
    "dim",
    "flow_rule_ids",
    "join",
    "run_flow",
    "suffix_unit",
]


# Keep the unused-import linters honest: these names participate in
# type annotations only on some branches.
_ = (ClassInfo, Iterator)
