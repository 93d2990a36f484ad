"""Project-wide symbol index and call graph for whole-program analyses.

The per-file rules of :mod:`repro.lint.rules` see one AST at a time;
the dimension-flow and concurrency-safety families of
:mod:`repro.lint.dataflow` need to follow values *across* files: a
``Seconds`` produced in ``core/communication.py`` flows through
``serve/lifecycle.py`` into a handler, and a dict defined at module
level in ``search/vectorized.py`` is mutated from a thread spawned in
``serve/server.py``.  This module builds the shared substrate:

* a :class:`ProjectIndex` over every parsed file — modules by dotted
  name, functions and classes by qualified name, imports resolved to
  their dotted targets (including function-local and relative imports),
* a *lightweight type environment* — class attribute annotations,
  ``self.x = <annotated param>`` assignments in ``__init__`` and
  constructor calls give enough typing to resolve attribute-chained
  method calls like ``self.server.service.submit(...)``,
* a call graph (caller qualname → callee qualnames) with recorded call
  sites, plus reverse-BFS reachability used to decide which functions
  execute on handler threads or pool workers.

Everything here is stdlib-``ast`` only and heuristic by design: an
unresolvable call simply contributes no edge.  Analyses built on top
must only report findings that are justified by *resolved* facts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.lint.engine import FileContext

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``, walking up through packages.

    ``src/repro/core/compute.py`` → ``repro.core.compute`` as long as
    each parent directory carries an ``__init__.py``.  A file outside
    any package is addressed by its stem alone.
    """
    resolved = Path(path).resolve()
    parts: List[str] = [] if resolved.name == "__init__.py" \
        else [resolved.stem]
    current = resolved.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) if parts else resolved.stem


def trailing_name(node: Optional[ast.AST]) -> Optional[str]:
    """The final identifier of a ``Name``/``Attribute``/string node."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1].rsplit("[", 1)[0]
    return None


def unwrap_annotation(node: Optional[ast.AST]) -> Optional[str]:
    """The payload type name of an annotation, unwrapping ``Optional``.

    ``Optional[EstimationService]`` → ``EstimationService``;
    ``"CircuitBreaker"`` (string forward reference) →
    ``CircuitBreaker``; subscripted containers (``List[int]``) resolve
    to ``None`` — element types are beyond this analysis.
    """
    if node is None:
        return None
    if isinstance(node, ast.Subscript):
        head = trailing_name(node.value)
        if head in ("Optional",):
            return unwrap_annotation(node.slice)
        return None
    return trailing_name(node)


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module: "ModuleInfo"
    node: FunctionNode
    #: Owning class qualname for methods, else ``None``.
    class_qualname: Optional[str] = None
    #: Enclosing function qualname for nested defs, else ``None``.
    parent: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None

    @property
    def is_nested(self) -> bool:
        return self.parent is not None

    def positional_params(self) -> List[ast.arg]:
        args = self.node.args
        return list(args.posonlyargs) + list(args.args)

    def param_annotation(self, name: str) -> Optional[ast.AST]:
        for arg in (self.positional_params()
                    + list(self.node.args.kwonlyargs)):
            if arg.arg == name:
                return arg.annotation
        return None


@dataclass
class ClassInfo:
    """One class definition plus its lightweight attribute typing."""

    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    #: Trailing identifiers of base-class expressions.
    base_names: List[str] = field(default_factory=list)
    #: Resolved dotted names of project-internal bases.
    base_qualnames: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Attribute name → trailing type name (from class-body
    #: annotations, annotated ``self.x`` assignments, ``self.x =
    #: <annotated param>`` and ``self.x = ClassName(...)``).
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ModuleInfo:
    """One parsed module: imports, top-level bindings, defs."""

    name: str
    context: FileContext
    #: Local name → dotted import target (``f`` → ``repro.units.f``
    #: for ``from repro.units import f``; ``np`` → ``numpy`` for
    #: ``import numpy as np``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-qualified local name (``f``, ``C.m``) → function.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level name → the last value expression assigned to it.
    module_assigns: Dict[str, ast.AST] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge with its source location."""

    caller: str
    callee: str
    node: ast.Call


class ProjectIndex:
    """Symbol tables + call graph over a set of parsed files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Trailing class name → candidate classes (for annotation
        #: resolution when the defining module is not importable).
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: caller qualname → callee qualnames.
        self.edges: Dict[str, Set[str]] = {}
        self.call_sites: List[CallSite] = []

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectIndex":
        index = cls()
        for context in contexts:
            index._index_module(context)
        for info in list(index.functions.values()):
            index._link_calls(info)
        return index

    def _index_module(self, context: FileContext) -> None:
        module = ModuleInfo(name=module_name_for(context.path),
                            context=context)
        self.modules[module.name] = module
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module.name, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}" \
                        if base else alias.name
        for statement in context.tree.body:
            self._index_statement(module, statement, prefix="",
                                  class_info=None)

    @staticmethod
    def _import_base(module_name: str,
                     node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module or ""
        parts = module_name.split(".")
        if node.level > len(parts):
            return None
        base_parts = parts[:len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    def _index_statement(self, module: ModuleInfo, statement: ast.stmt,
                         prefix: str,
                         class_info: Optional[ClassInfo],
                         parent: Optional[str] = None) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = f"{prefix}{statement.name}"
            qualname = f"{module.name}.{local}"
            info = FunctionInfo(
                qualname=qualname, module=module, node=statement,
                class_qualname=class_info.qualname if class_info
                else None,
                parent=parent)
            module.functions[local] = info
            self.functions[qualname] = info
            if class_info is not None:
                class_info.methods[statement.name] = info
                self._harvest_attr_types(class_info, info)
            for child in statement.body:
                self._index_statement(module, child,
                                      prefix=f"{local}.",
                                      class_info=None, parent=qualname)
        elif isinstance(statement, ast.ClassDef):
            local = f"{prefix}{statement.name}"
            qualname = f"{module.name}.{local}"
            info = ClassInfo(qualname=qualname, module=module,
                             node=statement)
            for base in statement.bases:
                name = trailing_name(base)
                if name is not None:
                    info.base_names.append(name)
                resolved = self.resolve_symbol(module, base)
                if resolved is not None:
                    info.base_qualnames.append(resolved)
            module.classes[local] = info
            self.classes[qualname] = info
            self.classes_by_name.setdefault(statement.name,
                                            []).append(info)
            for child in statement.body:
                if isinstance(child, ast.AnnAssign) and \
                        isinstance(child.target, ast.Name):
                    annotated = unwrap_annotation(child.annotation)
                    if annotated is not None:
                        info.attr_types[child.target.id] = annotated
                self._index_statement(module, child,
                                      prefix=f"{local}.",
                                      class_info=info, parent=parent)
        elif prefix == "":
            # Module-level bindings only (class/function bodies are
            # covered by attr_types / local analysis respectively).
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        module.module_assigns[target.id] = \
                            statement.value
            elif isinstance(statement, ast.AnnAssign) and \
                    isinstance(statement.target, ast.Name) and \
                    statement.value is not None:
                module.module_assigns[statement.target.id] = \
                    statement.value

    def _harvest_attr_types(self, class_info: ClassInfo,
                            method: FunctionInfo) -> None:
        """Type ``self.x`` attributes from assignments in a method."""
        for node in ast.walk(method.node):
            target: Optional[ast.Attribute] = None
            value: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Attribute):
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Attribute):
                target, value = node.target, node.value
                annotation = node.annotation
            if target is None or not (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            attr = target.attr
            typed = unwrap_annotation(annotation)
            if typed is None and isinstance(value, ast.Call):
                callee = trailing_name(value.func)
                if callee is not None and callee[:1].isupper():
                    typed = callee
            if typed is None and isinstance(value, ast.Name):
                typed = unwrap_annotation(
                    method.param_annotation(value.id))
            if typed is not None and attr not in class_info.attr_types:
                class_info.attr_types[attr] = typed

    # -- symbol resolution --------------------------------------------

    def resolve_symbol(self, module: ModuleInfo,
                       node: ast.AST) -> Optional[str]:
        """Dotted target of a ``Name``/``Attribute`` expression, using
        the module's import map (``units.Seconds`` →
        ``repro.units.Seconds``)."""
        if isinstance(node, ast.Name):
            if node.id in module.imports:
                return module.imports[node.id]
            if node.id in module.functions or node.id in module.classes:
                return f"{module.name}.{node.id}"
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve_symbol(module, node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def function_for(self, dotted: Optional[str]
                     ) -> Optional[FunctionInfo]:
        """Look a dotted name up as a project function, tolerating the
        ``module.Class.method`` and re-export spellings."""
        if dotted is None:
            return None
        if dotted in self.functions:
            return self.functions[dotted]
        # A constructor call edge lands on ``__init__``.
        constructed = self.classes.get(dotted)
        if constructed is not None:
            return self.lookup_method(constructed, "__init__")
        # ``from repro.serve.lifecycle import EstimationService`` makes
        # ``EstimationService.submit`` resolvable through the class map.
        head, __, method = dotted.rpartition(".")
        class_info = self.classes.get(head)
        if class_info is not None:
            return self.lookup_method(class_info, method)
        return None

    def class_for(self, name: Optional[str],
                  module: Optional[ModuleInfo] = None
                  ) -> Optional[ClassInfo]:
        """A class by dotted qualname or (uniquely) trailing name."""
        if name is None:
            return None
        if name in self.classes:
            return self.classes[name]
        if module is not None:
            resolved = module.imports.get(name)
            if resolved is not None and resolved in self.classes:
                return self.classes[resolved]
            local = module.classes.get(name)
            if local is not None:
                return local
        candidates = self.classes_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def lookup_method(self, class_info: ClassInfo,
                      method: str) -> Optional[FunctionInfo]:
        """Find ``method`` on ``class_info`` or its project bases."""
        seen: Set[str] = set()
        stack = [class_info]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            for base in current.base_qualnames:
                base_class = self.classes.get(base)
                if base_class is not None:
                    stack.append(base_class)
        return None

    def mro_base_names(self, class_info: ClassInfo) -> Set[str]:
        """Trailing base-class names over the project-visible MRO."""
        names: Set[str] = set()
        seen: Set[str] = set()
        stack = [class_info]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            names.update(current.base_names)
            for base in current.base_qualnames:
                base_class = self.classes.get(base)
                if base_class is not None:
                    stack.append(base_class)
        return names

    # -- lightweight expression typing --------------------------------

    def local_types_for(self, info: FunctionInfo) -> Dict[str, str]:
        """Flow-insensitive local-variable typing for one function.

        A local is typed when it is annotated, assigned a constructor
        call, assigned from a call whose return annotation names a
        project class, or assigned a typed attribute chain.  Two
        passes propagate one level of chaining (``service =
        self.server.service``).
        """
        types: Dict[str, str] = {}
        for arg in (info.positional_params()
                    + list(info.node.args.kwonlyargs)):
            typed = unwrap_annotation(arg.annotation)
            if typed is not None:
                types[arg.arg] = typed
        for _pass in range(2):
            for node in ast.walk(info.node):
                name: Optional[str] = None
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign) and \
                        len(node.targets) == 1 and \
                        isinstance(node.targets[0], ast.Name):
                    name, value = node.targets[0].id, node.value
                elif isinstance(node, ast.AnnAssign) and \
                        isinstance(node.target, ast.Name):
                    annotated = unwrap_annotation(node.annotation)
                    if annotated is not None:
                        types[node.target.id] = annotated
                    continue
                if name is None or value is None:
                    continue
                typed = self.infer_type(value, info, types)
                if typed is not None:
                    types[name] = typed
        return types

    def infer_type(self, node: ast.AST, info: FunctionInfo,
                   local_types: Dict[str, str]) -> Optional[str]:
        """Trailing class name of ``node``'s value, if derivable."""
        if isinstance(node, ast.Name):
            if node.id == "self" and info.class_qualname is not None:
                return self.classes[info.class_qualname].name
            return local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.infer_type(node.value, info, local_types)
            owner_class = self.class_for(owner, info.module)
            if owner_class is None:
                return None
            attr_type = self._attr_type(owner_class, node.attr)
            return attr_type
        if isinstance(node, ast.Call):
            callee = trailing_name(node.func)
            if callee is not None and self.class_for(
                    callee, info.module) is not None:
                return callee
            resolved = self.resolve_callee(info, node, local_types)
            if resolved is not None:
                target = self.function_for(resolved)
                if target is not None:
                    return unwrap_annotation(target.node.returns)
            if callee is not None and callee[:1].isupper():
                # External constructor (ProcessPoolExecutor, Thread,
                # ...): type by class name even though the class body
                # itself is outside the project index.
                return callee
        return None

    def _attr_type(self, class_info: ClassInfo,
                   attr: str) -> Optional[str]:
        seen: Set[str] = set()
        stack = [class_info]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if attr in current.attr_types:
                return current.attr_types[attr]
            for base in current.base_qualnames:
                base_class = self.classes.get(base)
                if base_class is not None:
                    stack.append(base_class)
        return None

    # -- call resolution ----------------------------------------------

    def resolve_callee(self, info: FunctionInfo, node: ast.Call,
                       local_types: Optional[Dict[str, str]] = None
                       ) -> Optional[str]:
        """Qualified name of the function a call lands on, or ``None``."""
        return self.resolve_func_expr(info, node.func, local_types)

    def resolve_func_expr(self, info: FunctionInfo, func: ast.AST,
                          local_types: Optional[Dict[str, str]] = None
                          ) -> Optional[str]:
        """Resolve a bare function-valued expression — a callee, a
        ``Thread(target=...)`` argument, a pool-``submit`` payload —
        to a dotted name, or ``None``."""
        module = info.module
        if local_types is None:
            local_types = {}
        if isinstance(func, ast.Name):
            # Nested function in the enclosing scope chain?
            scope: Optional[FunctionInfo] = info
            while scope is not None:
                local = scope.qualname[len(module.name) + 1:]
                candidate = module.functions.get(f"{local}.{func.id}")
                if candidate is not None:
                    return candidate.qualname
                scope = self.functions.get(scope.parent or "")
            resolved = self.resolve_symbol(module, func)
            return resolved
        if isinstance(func, ast.Attribute):
            # self.method() / typed-receiver method calls.
            receiver_type = self.infer_type(func.value, info,
                                            local_types)
            receiver_class = self.class_for(receiver_type, module)
            if receiver_class is not None:
                method = self.lookup_method(receiver_class, func.attr)
                if method is not None:
                    return method.qualname
            resolved = self.resolve_symbol(module, func)
            if resolved is not None:
                return resolved
        return None

    def _link_calls(self, info: FunctionInfo) -> None:
        local_types = self.local_types_for(info)
        edges = self.edges.setdefault(info.qualname, set())
        for node in self.own_nodes(info):
            if not isinstance(node, ast.Call):
                continue
            callee = self.resolve_callee(info, node, local_types)
            target = self.function_for(callee)
            if target is None:
                continue
            edges.add(target.qualname)
            self.call_sites.append(CallSite(
                caller=info.qualname, callee=target.qualname,
                node=node))

    def own_nodes(self, info: FunctionInfo) -> Iterator[ast.AST]:
        """Walk a function's body without descending into nested
        defs (they are linked as their own callers), but *including*
        lambda bodies — a lambda runs in its definer's context as far
        as these analyses care."""
        stack: List[ast.AST] = list(info.node.body)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    continue
                stack.append(child)

    # -- reachability -------------------------------------------------

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Every function reachable over call edges from ``roots``."""
        seen: Set[str] = set()
        stack = [root for root in roots]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen


def body_and_nested(node: FunctionNode) -> Iterator[ast.AST]:
    """Every node inside a function including nested defs."""
    for child in ast.walk(node):
        if child is not node:
            yield child


__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "body_and_nested",
    "module_name_for",
    "trailing_name",
    "unwrap_annotation",
]
