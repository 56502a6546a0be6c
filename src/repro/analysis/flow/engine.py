"""The whole-program flow engine: call graph + transitive summary queries.

:class:`FlowAnalysis` parses nothing itself -- it is handed every module's
AST (the driver parses each file exactly once), builds the symbol tables,
resolves a conservative call graph, and memoizes the transitive queries the
interprocedural rules ask:

* *direct calls* to module-level functions, imported names and classes,
* ``self.`` / ``cls.`` method dispatch through the class MRO (including
  class-body method aliases),
* attribute dispatch through ``__init__``-inferred attribute types
  (``self._engine = TreeMaintenanceEngine()`` types ``self._engine``) and
  through constructor-assigned locals (``recorder = OverlayDeltaRecorder()``),

and every call it cannot resolve degrades the caller to "may call
anything": the :attr:`FunctionNode.calls_unknown` flag.  Degradation is
*sound for the rules as stated* -- an unknown callee never satisfies a
notification/maintenance obligation (RPL001/RPL002 stay strict) and never
extends hot-path reachability (RPL005 only follows proven edges), so the
engine can be wrong only in the direction of asking for an explicit call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.astutils import dotted_name, own_nodes
from repro.analysis.flow.summaries import (
    FunctionSummary,
    is_hot_marked,
    summarize_function,
)
from repro.analysis.flow.symbols import (
    ClassDecl,
    ModuleSymbols,
    build_module_symbols,
)

__all__ = ["ProjectModule", "FunctionNode", "FlowAnalysis"]

#: Builtin callables that are never project edges (kept small on purpose:
#: an unlisted builtin merely degrades to calls_unknown, it cannot create
#: a false edge).
_BUILTINS = frozenset(
    {
        "abs", "all", "any", "bool", "dict", "divmod", "enumerate", "filter",
        "float", "frozenset", "getattr", "hasattr", "hash", "id", "int",
        "isinstance", "issubclass", "iter", "len", "list", "map", "max", "min",
        "next", "object", "print", "range", "repr", "reversed", "round", "set",
        "setattr", "sorted", "str", "sum", "tuple", "type", "zip",
        "ArithmeticError", "AssertionError", "AttributeError", "Exception",
        "KeyError", "IndexError", "NotImplementedError", "OSError",
        "RuntimeError", "StopIteration", "TypeError", "ValueError",
    }
)


@dataclass(frozen=True)
class ProjectModule:
    """One module handed to the engine: its identity plus its parsed AST."""

    path: str
    module: Optional[str]
    tree: ast.Module

    @property
    def key(self) -> str:
        """Stable module key: the dotted name when known, else the path."""
        return self.module if self.module is not None else self.path


@dataclass
class FunctionNode:
    """One function in the call graph, with its summary and resolved edges."""

    key: str
    module_key: str
    module: Optional[str]
    class_name: Optional[str]
    name: str
    node: ast.AST
    summary: FunctionSummary
    hot: bool = False
    callees: List[str] = field(default_factory=list)
    calls_unknown: bool = False

    @property
    def qualified(self) -> str:
        return f"{self.class_name}.{self.name}" if self.class_name else self.name


class FlowAnalysis:
    """Symbol tables + call graph + memoized transitive queries."""

    def __init__(self, modules: Sequence[ProjectModule]) -> None:
        self._symbols: Dict[str, ModuleSymbols] = {}
        self._by_module_name: Dict[str, ModuleSymbols] = {}
        for project_module in modules:
            symbols = build_module_symbols(
                project_module.key,
                project_module.module,
                project_module.path,
                project_module.tree,
            )
            self._symbols[project_module.key] = symbols
            if project_module.module is not None:
                self._by_module_name[project_module.module] = symbols

        self._functions: Dict[str, FunctionNode] = {}
        self._by_node: Dict[int, FunctionNode] = {}
        self._class_index: Dict[str, List[Tuple[ModuleSymbols, ClassDecl]]] = {}
        for symbols in self._symbols.values():
            for class_name, decl in symbols.classes.items():
                self._class_index.setdefault(class_name, []).append((symbols, decl))
        self._build_functions()
        self._mro_cache: Dict[Tuple[str, str], List[Tuple[ModuleSymbols, ClassDecl]]] = {}
        self._resolve_calls()
        self._closure_cache: Dict[str, frozenset] = {}
        self._hot_reachable: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "FlowAnalysis":
        """Build an analysis from ``{dotted_module_name: source}`` (tests)."""
        modules = [
            ProjectModule(path=f"<{name}>", module=name, tree=ast.parse(text))
            for name, text in sources.items()
        ]
        return cls(modules)

    def _build_functions(self) -> None:
        for symbols in self._symbols.values():
            seen: Set[int] = set()
            for qualname, node in symbols.functions.items():
                key = f"{symbols.key}::{qualname}"
                parts = qualname.split(".")
                class_name = parts[0] if len(parts) == 2 else None
                info = FunctionNode(
                    key=key,
                    module_key=symbols.key,
                    module=symbols.module,
                    class_name=class_name,
                    name=parts[-1],
                    node=node,
                    summary=summarize_function(node),
                    hot=is_hot_marked(node),
                )
                self._functions[key] = info
                # Aliased methods share one AST node; keep the first (the
                # definition) as the node's canonical graph entry.
                if id(node) not in seen:
                    seen.add(id(node))
                    self._by_node[id(node)] = info

    # ------------------------------------------------------------------
    # Class resolution
    # ------------------------------------------------------------------
    def _resolve_class_ref(
        self, symbols: ModuleSymbols, ref: Optional[str]
    ) -> Optional[Tuple[ModuleSymbols, ClassDecl]]:
        """Resolve a dotted class reference as seen from one module."""
        if ref is None:
            return None
        parts = ref.split(".")
        head, tail = parts[0], parts[1:]
        if not tail:
            decl = symbols.classes.get(head)
            if decl is not None:
                return symbols, decl
            imported = symbols.imports.get(head)
            if imported is not None and imported.kind == "name":
                target = self._by_module_name.get(imported.module)
                if target is not None:
                    decl = target.classes.get(imported.symbol or head)
                    if decl is not None:
                        return target, decl
                    return None
            # Fall back to a project-unique bare name (covers classes that
            # are imported under ``if TYPE_CHECKING`` for annotations only).
            candidates = self._class_index.get(head, [])
            if len(candidates) == 1:
                return candidates[0]
            return None
        # ``m.ClassName`` through an imported module handle.
        imported = symbols.imports.get(head)
        if imported is not None and imported.kind == "module" and len(tail) == 1:
            target = self._by_module_name.get(imported.module)
            if target is not None:
                decl = target.classes.get(tail[0])
                if decl is not None:
                    return target, decl
        return None

    def _mro(
        self, symbols: ModuleSymbols, decl: ClassDecl
    ) -> List[Tuple[ModuleSymbols, ClassDecl]]:
        """Linearized project-visible ancestry (class first, then bases)."""
        cache_key = (symbols.key, decl.name)
        cached = self._mro_cache.get(cache_key)
        if cached is not None:
            return cached
        order: List[Tuple[ModuleSymbols, ClassDecl]] = []
        seen: Set[Tuple[str, str]] = set()
        stack: List[Tuple[ModuleSymbols, ClassDecl]] = [(symbols, decl)]
        while stack:
            current_symbols, current = stack.pop(0)
            identity = (current_symbols.key, current.name)
            if identity in seen:
                continue
            seen.add(identity)
            order.append((current_symbols, current))
            for base_ref in current.bases:
                if base_ref == "object":
                    continue
                resolved = self._resolve_class_ref(current_symbols, base_ref)
                if resolved is not None:
                    stack.append(resolved)
        self._mro_cache[cache_key] = order
        return order

    def _lookup_method(
        self, symbols: ModuleSymbols, decl: ClassDecl, method: str
    ) -> Optional[str]:
        """Method lookup through the MRO; returns a function key."""
        for ancestor_symbols, ancestor in self._mro(symbols, decl):
            node = ancestor.methods.get(method)
            if node is not None:
                return f"{ancestor_symbols.key}::{ancestor.name}.{method}"
        return None

    def _class_attr(
        self, symbols: ModuleSymbols, decl: ClassDecl, attr: str
    ) -> Optional[object]:
        """Class-level constant lookup through the MRO (nearest wins)."""
        for _, ancestor in self._mro(symbols, decl):
            if attr in ancestor.constants:
                return ancestor.constants[attr]
        return None

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def _resolve_calls(self) -> None:
        for info in list(self._functions.values()):
            if self._by_node.get(id(info.node)) is not info:
                # Alias entry: share the canonical node's resolution later.
                continue
            symbols = self._symbols[info.module_key]
            self._resolve_function_calls(symbols, info)
        for info in self._functions.values():
            canonical = self._by_node.get(id(info.node))
            if canonical is not None and canonical is not info:
                info.callees = canonical.callees
                info.calls_unknown = canonical.calls_unknown

    def _local_types(
        self, symbols: ModuleSymbols, info: FunctionNode
    ) -> Dict[str, Tuple[ModuleSymbols, ClassDecl]]:
        """Names with a known class type inside one function scope."""
        types: Dict[str, Tuple[ModuleSymbols, ClassDecl]] = {}
        enclosing = symbols.classes.get(info.class_name) if info.class_name else None
        args = getattr(info.node, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.arg in {"self", "cls"} and enclosing is not None:
                    types[arg.arg] = (symbols, enclosing)
                elif arg.annotation is not None:
                    resolved = self._resolve_class_ref(
                        symbols, _annotation_class(arg.annotation)
                    )
                    if resolved is not None:
                        types[arg.arg] = resolved
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name) or not isinstance(node.value, ast.Call):
                continue
            constructor = dotted_name(node.value.func)
            resolved = self._resolve_constructor(symbols, info, constructor)
            if resolved is not None:
                types[target.id] = resolved
        return types

    def _resolve_constructor(
        self, symbols: ModuleSymbols, info: FunctionNode, constructor: Optional[str]
    ) -> Optional[Tuple[ModuleSymbols, ClassDecl]]:
        if constructor is None:
            return None
        if constructor == "cls" and info.class_name is not None:
            decl = symbols.classes.get(info.class_name)
            if decl is not None:
                return symbols, decl
            return None
        return self._resolve_class_ref(symbols, constructor)

    def _resolve_function_calls(self, symbols: ModuleSymbols, info: FunctionNode) -> None:
        types = self._local_types(symbols, info)
        enclosing = symbols.classes.get(info.class_name) if info.class_name else None
        callees: List[str] = []
        unknown = False
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved, is_unknown = self._resolve_call(symbols, info, enclosing, types, node)
            if resolved is not None:
                callees.append(resolved)
            unknown = unknown or is_unknown
        info.callees = sorted(set(callees))
        info.calls_unknown = unknown

    def _resolve_call(
        self,
        symbols: ModuleSymbols,
        info: FunctionNode,
        enclosing: Optional[ClassDecl],
        types: Dict[str, Tuple[ModuleSymbols, ClassDecl]],
        call: ast.Call,
    ) -> Tuple[Optional[str], bool]:
        """Resolve one call site -> ``(callee_key_or_None, is_unknown)``."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in _BUILTINS:
                return None, False
            if name in {"cls"} and info.class_name is not None:
                return self._constructor_edge(symbols, symbols.classes.get(info.class_name))
            if name in symbols.classes:
                return self._constructor_edge(symbols, symbols.classes[name])
            if name in symbols.functions and "." not in name:
                return f"{symbols.key}::{name}", False
            imported = symbols.imports.get(name)
            if imported is not None and imported.kind == "name":
                target = self._by_module_name.get(imported.module)
                if target is None:
                    return None, True
                symbol = imported.symbol or name
                if symbol in target.classes:
                    return self._constructor_edge(target, target.classes[symbol])
                if symbol in target.functions:
                    return f"{target.key}::{symbol}", False
                return None, True
            return None, True
        if isinstance(func, ast.Attribute):
            return self._resolve_method_call(symbols, enclosing, types, func)
        return None, True

    def _resolve_method_call(
        self,
        symbols: ModuleSymbols,
        enclosing: Optional[ClassDecl],
        types: Dict[str, Tuple[ModuleSymbols, ClassDecl]],
        func: ast.Attribute,
    ) -> Tuple[Optional[str], bool]:
        owner = func.value
        method = func.attr
        if isinstance(owner, ast.Name):
            typed = types.get(owner.id)
            if typed is not None:
                key = self._lookup_method(typed[0], typed[1], method)
                return (key, key is None)
            imported = symbols.imports.get(owner.id)
            if imported is not None and imported.kind == "module":
                target = self._by_module_name.get(imported.module)
                if target is None:
                    return None, True
                if method in target.classes:
                    return self._constructor_edge(target, target.classes[method])
                if method in target.functions:
                    return f"{target.key}::{method}", False
                return None, True
            return None, True
        if isinstance(owner, ast.Attribute):
            # ``self._engine.apply(...)`` through __init__-inferred types.
            base = owner.value
            if (
                isinstance(base, ast.Name)
                and base.id in {"self", "cls"}
                and enclosing is not None
            ):
                constructor = self._inherited_attr_constructor(symbols, enclosing, owner.attr)
                if constructor is not None:
                    resolved = self._resolve_class_ref(symbols, constructor)
                    if resolved is not None:
                        key = self._lookup_method(resolved[0], resolved[1], method)
                        return (key, key is None)
            return None, True
        return None, True

    def _inherited_attr_constructor(
        self, symbols: ModuleSymbols, decl: ClassDecl, attr: str
    ) -> Optional[str]:
        for _, ancestor in self._mro(symbols, decl):
            constructor = ancestor.attr_constructors.get(attr)
            if constructor is not None:
                return constructor
        return None

    def _constructor_edge(
        self, symbols: ModuleSymbols, decl: Optional[ClassDecl]
    ) -> Tuple[Optional[str], bool]:
        if decl is None:
            return None, True
        key = self._lookup_method(symbols, decl, "__init__")
        # A class without a visible __init__ (dataclasses, plain records)
        # still resolves -- to "no effects", not to "unknown".
        return key, False

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def function(self, node: ast.AST) -> Optional[FunctionNode]:
        """The graph node of a function AST (``None`` for nested defs)."""
        return self._by_node.get(id(node))

    def resolve_call_site(
        self, function: ast.AST, call: ast.Call
    ) -> Optional[str]:
        """Resolve one call inside ``function`` to a callee key, if provable."""
        info = self._by_node.get(id(function))
        if info is None:
            return None
        symbols = self._symbols[info.module_key]
        types = self._local_types(symbols, info)
        enclosing = symbols.classes.get(info.class_name) if info.class_name else None
        resolved, _ = self._resolve_call(symbols, info, enclosing, types, call)
        return resolved

    def function_by_key(self, key: str) -> Optional[FunctionNode]:
        return self._functions.get(key)

    def functions(self) -> Iterator[FunctionNode]:
        return iter(self._functions.values())

    def closure(self, key: str) -> frozenset:
        """Every function key transitively reachable from ``key`` (incl. it)."""
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack = [key]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self._functions.get(current)
            if info is None:
                continue
            stack.extend(info.callees)
        result = frozenset(seen)
        self._closure_cache[key] = result
        return result

    def _any_in_closure(self, key: str, predicate_attr: str) -> bool:
        for reached in self.closure(key):
            info = self._functions.get(reached)
            if info is not None and getattr(info.summary, predicate_attr):
                return True
        return False

    def transitively_notifies(self, node: ast.AST) -> bool:
        """Does the function (or anything it provably calls) notify recorders?"""
        info = self.function(node)
        return info is not None and self._any_in_closure(info.key, "notifies_recorders")

    def transitively_maintains_index(self, node: ast.AST) -> bool:
        info = self.function(node)
        return info is not None and self._any_in_closure(info.key, "maintains_index")

    def transitively_raises_convergence(self, key: str) -> bool:
        return self._any_in_closure(key, "raises_convergence")

    def transitively_invalidates_engine(self, key: str) -> bool:
        return self._any_in_closure(key, "invalidates_engine")

    def hot_reachable(self) -> Dict[str, str]:
        """``{function key: hot entry qualname}`` over proven edges only."""
        if self._hot_reachable is not None:
            return self._hot_reachable
        reachable: Dict[str, str] = {}
        for info in self._functions.values():
            if not info.hot:
                continue
            entry_label = info.qualified
            for key in self.closure(info.key):
                reachable.setdefault(key, entry_label)
        self._hot_reachable = reachable
        return reachable

    def path_independent_classes(
        self,
    ) -> Iterator[Tuple[ModuleSymbols, ClassDecl]]:
        """Every project class whose resolved ``path_independent`` is truthy."""
        for symbols in self._symbols.values():
            for decl in symbols.classes.values():
                if bool(self._class_attr(symbols, decl, "path_independent")):
                    yield symbols, decl

    def select_closure(self, symbols: ModuleSymbols, decl: ClassDecl) -> frozenset:
        """Function keys transitively reachable from a class's ``select*``."""
        keys: Set[str] = set()
        for method_name in decl.methods:
            if not method_name.startswith("select"):
                continue
            method_key = f"{symbols.key}::{decl.name}.{method_name}"
            keys.update(self.closure(method_key))
        return frozenset(keys)

    def mutable_global_reads(self, info: FunctionNode) -> List[Tuple[int, str]]:
        """``(line, name)`` reads of mutable module-level state by one function."""
        symbols = self._symbols.get(info.module_key)
        if symbols is None:
            return []
        reads: List[Tuple[int, str]] = []
        for read in info.summary.global_reads:
            if symbols.globals_mutability.get(read.name):
                reads.append((read.line, read.name))
                continue
            imported = symbols.imports.get(read.name)
            if imported is not None and imported.kind == "name":
                origin = self._by_module_name.get(imported.module)
                if origin is not None and origin.globals_mutability.get(
                    imported.symbol or read.name
                ):
                    reads.append((read.line, read.name))
        return reads

    def module_symbols(self, key: str) -> Optional[ModuleSymbols]:
        return self._symbols.get(key)

    def modules(self) -> Iterable[ModuleSymbols]:
        return self._symbols.values()


def _annotation_class(annotation: ast.AST) -> Optional[str]:
    """Extract a class reference from a (possibly quoted/Optional) annotation."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        # Optional[X] / "X | None" style wrappers: look inside.
        wrapper = dotted_name(annotation.value)
        if wrapper is not None and wrapper.split(".")[-1] in {"Optional", "Final"}:
            return _annotation_class(annotation.slice)
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        left = _annotation_class(annotation.left)
        if left is not None:
            return left
        return _annotation_class(annotation.right)
    name = dotted_name(annotation)
    if name is not None and name.split(".")[-1] == "None":
        return None
    return name
