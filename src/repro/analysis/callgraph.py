"""Pass 1 of the interprocedural engine: symbols and the call graph.

:func:`build_call_graph` walks every parsed module of a project and
produces a :class:`CallGraph`: one node per function, method, class and
module body, plus a resolved call edge for every call site whose target
can be named statically.  Resolution understands the project's own
import graph (absolute and relative imports, aliases), ``self.method``
dispatch through the class hierarchy, decorator application, and a
guarded unique-method heuristic for ``obj.method(...)`` receivers whose
class cannot be inferred.

Anything the resolver cannot see -- ``getattr`` dispatch, calls on call
results, starred dynamic invocations -- degrades to a *recorded skip*
(:class:`GraphSkip`), never a crash: the graph reports how much of the
project it could not follow, and the dataflow rules treat those edges
as absent rather than guessing.

The graph serializes to a stable JSON document (:meth:`CallGraph.to_json`)
so ``repro-experiments analyze --graph PATH`` can publish it as an
artifact; a golden test pins the format.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "GraphSkip",
    "ModuleSymbols",
    "build_call_graph",
    "module_name_for",
]

GRAPH_VERSION = 1

#: Method names owned by the builtin containers and file objects; the
#: unique-method heuristic never resolves these, because a receiver is
#: far more likely to be a ``list``/``dict``/``set``/file than the one
#: project class that happens to define the same name.
_BUILTIN_METHOD_NAMES = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "index",
        "count", "sort", "reverse", "copy", "get", "items", "keys",
        "values", "setdefault", "add", "discard", "union", "update",
        "join", "split", "strip", "startswith", "endswith", "format",
        "read", "write", "close", "flush", "seek", "tell", "readline",
        "encode", "decode", "lower", "upper", "replace", "open",
    }
)


def module_name_for(path: str) -> str:
    """The dotted module name a repo-relative path imports as.

    ``src/repro/stream/processor.py`` -> ``repro.stream.processor``;
    a package ``__init__.py`` maps to the package itself.  Components
    up to and including a ``src`` directory are dropped; paths with no
    ``src`` component use every directory component.
    """
    parts = list(path.replace("\\", "/").split("/"))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


@dataclass(frozen=True)
class FunctionInfo:
    """One graph node: a function, method, class or module body."""

    key: str  #: ``path::qualname`` -- the node's stable identity.
    path: str
    qualname: str  #: ``f``, ``Class.method``, ``<module>`` ...
    lineno: int
    kind: str  #: ``function`` | ``method`` | ``class`` | ``module``
    params: tuple[str, ...] = ()
    decorators: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        """The bare (un-qualified) name."""
        return self.qualname.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class ClassInfo:
    """One class definition: its bases and methods, for dispatch."""

    key: str
    path: str
    name: str
    lineno: int
    bases: tuple[str, ...]  #: dotted base names as written
    methods: tuple[str, ...]


@dataclass(frozen=True)
class CallSite:
    """One call expression, resolved or not."""

    caller: str  #: key of the enclosing function node
    path: str
    lineno: int
    name: str  #: the dotted call text as written (``self.f``, ``np.sum``)
    callee: str | None  #: resolved project node key, or ``None``


@dataclass(frozen=True)
class GraphSkip:
    """One thing pass 1 could not follow, recorded instead of guessed."""

    path: str
    lineno: int
    reason: str  #: short machine-readable tag (``dynamic-getattr`` ...)
    detail: str


@dataclass
class ModuleSymbols:
    """Everything pass 1 learned about one module."""

    path: str
    module: str  #: dotted module name
    #: local alias -> absolute dotted target (``np`` -> ``numpy``,
    #: ``plane_decision`` -> ``repro.sketch.plane.plane_decision``).
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def resolve_dotted(self, dotted: str) -> str:
        """Expand the first segment of ``dotted`` through the imports.

        ``np.random.default_rng`` -> ``numpy.random.default_rng`` when
        the module did ``import numpy as np``; names with no matching
        import come back unchanged.
        """
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


@dataclass
class CallGraph:
    """The project-wide call graph produced by pass 1."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    modules: dict[str, ModuleSymbols] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)
    skips: list[GraphSkip] = field(default_factory=list)
    #: callee key -> caller keys (derived, rebuilt on load).
    callers: dict[str, set[str]] = field(default_factory=dict)
    #: caller key -> its call sites (derived, rebuilt on load).
    calls_from: dict[str, list[CallSite]] = field(default_factory=dict)

    def _index(self) -> None:
        self.callers = {}
        self.calls_from = {}
        for site in self.calls:
            self.calls_from.setdefault(site.caller, []).append(site)
            if site.callee is not None:
                self.callers.setdefault(site.callee, set()).add(site.caller)

    def caller_closure(self, key: str) -> set[str]:
        """``key`` plus every function that transitively calls it."""
        seen = {key}
        frontier = [key]
        while frontier:
            current = frontier.pop()
            for caller in self.callers.get(current, ()):
                if caller not in seen:
                    seen.add(caller)
                    frontier.append(caller)
        return seen

    def callee_closure(self, key: str) -> set[str]:
        """``key`` plus every project function it transitively calls."""
        seen = {key}
        frontier = [key]
        while frontier:
            current = frontier.pop()
            for site in self.calls_from.get(current, ()):
                if site.callee is not None and site.callee not in seen:
                    seen.add(site.callee)
                    frontier.append(site.callee)
        return seen

    def call_path(self, start: str, goal: str) -> list[CallSite]:
        """A shortest resolved call chain from ``start`` to ``goal``.

        Empty when no chain exists (or start == goal).  Used to build
        the ``why`` evidence attached to interprocedural findings.
        """
        if start == goal:
            return []
        parents: dict[str, CallSite] = {}
        frontier = [start]
        seen = {start}
        while frontier:
            current = frontier.pop(0)
            for site in self.calls_from.get(current, ()):
                callee = site.callee
                if callee is None or callee in seen:
                    continue
                parents[callee] = site
                if callee == goal:
                    chain: list[CallSite] = []
                    node = goal
                    while node != start:
                        site = parents[node]
                        chain.append(site)
                        node = site.caller
                    return list(reversed(chain))
                seen.add(callee)
                frontier.append(callee)
        return []

    def base_closure(self, class_key: str) -> set[str]:
        """Bare names of ``class_key``'s ancestors (project + external).

        Project bases are walked transitively; bases the project does
        not define contribute their final dotted component
        (``ValueError``, ``Exception``) and stop there.
        """
        names: set[str] = set()
        frontier = [class_key]
        seen = {class_key}
        by_name = {info.name: info for info in self.classes.values()}
        while frontier:
            info = self.classes.get(frontier.pop())
            if info is None:
                continue
            for base in info.bases:
                bare = base.rsplit(".", 1)[-1]
                names.add(bare)
                parent = by_name.get(bare)
                if parent is not None and parent.key not in seen:
                    seen.add(parent.key)
                    frontier.append(parent.key)
        return names

    def to_dict(self) -> dict[str, Any]:
        """A stable JSON-compatible form (sorted keys, no derived maps)."""
        return {
            "version": GRAPH_VERSION,
            "functions": [
                {
                    "key": info.key,
                    "path": info.path,
                    "qualname": info.qualname,
                    "lineno": info.lineno,
                    "kind": info.kind,
                    "params": list(info.params),
                    "decorators": list(info.decorators),
                }
                for info in sorted(
                    self.functions.values(), key=lambda f: f.key
                )
            ],
            "classes": [
                {
                    "key": info.key,
                    "path": info.path,
                    "name": info.name,
                    "lineno": info.lineno,
                    "bases": list(info.bases),
                    "methods": list(info.methods),
                }
                for info in sorted(self.classes.values(), key=lambda c: c.key)
            ],
            "calls": [
                {
                    "caller": site.caller,
                    "path": site.path,
                    "lineno": site.lineno,
                    "name": site.name,
                    "callee": site.callee,
                }
                for site in sorted(
                    self.calls,
                    key=lambda s: (s.path, s.lineno, s.name, s.caller),
                )
            ],
            "skips": [
                {
                    "path": skip.path,
                    "lineno": skip.lineno,
                    "reason": skip.reason,
                    "detail": skip.detail,
                }
                for skip in sorted(
                    self.skips, key=lambda s: (s.path, s.lineno, s.reason)
                )
            ],
        }

    def to_json(self) -> str:
        """The serialized artifact ``analyze --graph`` writes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CallGraph":
        """Rebuild a graph (with derived indexes) from :meth:`to_dict`."""
        version = data.get("version")
        if version != GRAPH_VERSION:
            raise ValueError(
                f"call-graph artifact has version {version!r}; this "
                f"analyzer reads version {GRAPH_VERSION}"
            )
        graph = cls()
        for entry in data.get("functions", []):
            info = FunctionInfo(
                key=entry["key"],
                path=entry["path"],
                qualname=entry["qualname"],
                lineno=entry["lineno"],
                kind=entry["kind"],
                params=tuple(entry.get("params", ())),
                decorators=tuple(entry.get("decorators", ())),
            )
            graph.functions[info.key] = info
        for entry in data.get("classes", []):
            info_c = ClassInfo(
                key=entry["key"],
                path=entry["path"],
                name=entry["name"],
                lineno=entry["lineno"],
                bases=tuple(entry.get("bases", ())),
                methods=tuple(entry.get("methods", ())),
            )
            graph.classes[info_c.key] = info_c
        for entry in data.get("calls", []):
            graph.calls.append(
                CallSite(
                    caller=entry["caller"],
                    path=entry["path"],
                    lineno=entry["lineno"],
                    name=entry["name"],
                    callee=entry.get("callee"),
                )
            )
        for entry in data.get("skips", []):
            graph.skips.append(
                GraphSkip(
                    path=entry["path"],
                    lineno=entry["lineno"],
                    reason=entry["reason"],
                    detail=entry.get("detail", ""),
                )
            )
        graph._index()
        return graph

    def summary(self) -> str:
        """One line of totals for the CLI."""
        resolved = sum(1 for site in self.calls if site.callee is not None)
        return (
            f"{len(self.functions)} function(s), {len(self.classes)} "
            f"class(es), {resolved}/{len(self.calls)} call(s) resolved, "
            f"{len(self.skips)} skip(s)"
        )


# ---------------------------------------------------------------------------
# Pass 1: symbol collection.
# ---------------------------------------------------------------------------


def _collect_imports(
    tree: ast.Module, module: str, is_package: bool
) -> dict[str, str]:
    imports: dict[str, str] = {}
    package_parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; attribute chains
                    # through it already spell the absolute name.
                    head = alias.name.split(".", 1)[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: climb ``level`` packages.  A package
                # ``__init__`` is its own level-1 base; a plain module
                # climbs to its containing package first.
                climb = node.level - 1 if is_package else node.level
                base_parts = package_parts[: len(package_parts) - climb]
                prefix = ".".join(base_parts)
                source = (
                    f"{prefix}.{node.module}" if node.module else prefix
                )
            else:
                source = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = (
                    f"{source}.{alias.name}" if source else alias.name
                )
    return imports


class _SymbolCollector(ast.NodeVisitor):
    """Collect functions, methods and classes of one module."""

    def __init__(self, path: str, symbols: ModuleSymbols) -> None:
        self.path = path
        self.symbols = symbols
        self._stack: list[str] = []
        self._class_stack: list[str] = []

    def _qualname(self, name: str) -> str:
        return ".".join([*self._stack, name])

    def _add_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        qualname = self._qualname(node.name)
        kind = "method" if self._class_stack and len(self._stack) == len(
            self._class_stack
        ) else "function"
        decorators = tuple(
            dotted for dotted in (
                _decorator_name(d) for d in node.decorator_list
            ) if dotted is not None
        )
        params = tuple(
            arg.arg
            for arg in [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]
        )
        info = FunctionInfo(
            key=f"{self.path}::{qualname}",
            path=self.path,
            qualname=qualname,
            lineno=node.lineno,
            kind=kind,
            params=params,
            decorators=decorators,
        )
        self.symbols.functions[qualname] = info
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._add_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._add_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualname(node.name)
        bases = tuple(
            dotted for dotted in (
                _decorator_name(base) for base in node.bases
            ) if dotted is not None
        )
        methods = tuple(
            child.name
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        self.symbols.classes[qualname] = ClassInfo(
            key=f"{self.path}::{qualname}",
            path=self.path,
            name=node.name,
            lineno=node.lineno,
            bases=bases,
            methods=methods,
        )
        self._stack.append(node.name)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()
        self._stack.pop()


def _decorator_name(node: ast.expr) -> str | None:
    """The dotted name of a decorator/base, unwrapping one call layer."""
    if isinstance(node, ast.Call):
        node = node.func
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if isinstance(node, ast.Subscript):
        return _decorator_name(node.value)
    return None


# ---------------------------------------------------------------------------
# Pass 1: call-site extraction and resolution.
# ---------------------------------------------------------------------------


class _Resolver:
    """Resolve dotted call names to project node keys."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: dotted module name -> ModuleSymbols
        self.by_module = {
            symbols.module: symbols for symbols in graph.modules.values()
        }
        #: bare method name -> class keys defining it (for the guarded
        #: unique-method heuristic).
        self.method_owners: dict[str, list[ClassInfo]] = {}
        for info in graph.classes.values():
            for method in info.methods:
                self.method_owners.setdefault(method, []).append(info)

    def node_key(self, path: str, qualname: str) -> str | None:
        key = f"{path}::{qualname}"
        if key in self.graph.functions:
            return key
        return None

    def _resolve_in_module(
        self, symbols: ModuleSymbols, name: str
    ) -> str | None:
        """Resolve ``name`` (``f`` or ``Class.method`` or ``Class``) in
        one module, following the class hierarchy for methods and
        mapping a class call to its constructor."""
        if name in symbols.functions:
            return symbols.functions[name].key
        if name in symbols.classes:
            init = self.node_key(symbols.path, f"{name}.__init__")
            return init or symbols.classes[name].key
        if "." in name:
            cls, _, method = name.partition(".")
            if cls in symbols.classes:
                return self._resolve_method(symbols, cls, method)
        return None

    def _resolve_method(
        self, symbols: ModuleSymbols, cls: str, method: str
    ) -> str | None:
        """``cls.method`` in ``symbols``, walking project base classes."""
        seen: set[str] = set()
        queue = [(symbols, cls)]
        while queue:
            mod, name = queue.pop(0)
            info = mod.classes.get(name)
            if info is None or info.key in seen:
                continue
            seen.add(info.key)
            direct = self.node_key(mod.path, f"{name}.{method}")
            if direct is not None:
                return direct
            for base in info.bases:
                target = self.resolve_absolute(mod.resolve_dotted(base))
                if target is not None and target in self.graph.classes:
                    owner = self.graph.classes[target]
                    owner_symbols = self.graph.modules.get(owner.path)
                    if owner_symbols is not None:
                        local = owner.key.split("::", 1)[1]
                        queue.append((owner_symbols, local))
                bare = base.rsplit(".", 1)[-1]
                for candidate in self.method_owners.get(method, []):
                    if candidate.name == bare:
                        return self.node_key(
                            candidate.path,
                            f"{candidate.key.split('::', 1)[1]}.{method}",
                        ) or None
        return None

    def resolve_absolute(self, dotted: str) -> str | None:
        """An absolute dotted name to a project node/class key.

        Finds the longest module prefix the project defines, then
        resolves the remainder inside it.  Returns a function key, a
        class key (bases/classes), or ``None`` for external names.
        """
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            symbols = self.by_module.get(module)
            if symbols is None:
                continue
            remainder = ".".join(parts[cut:])
            if not remainder:
                return self.node_key(symbols.path, "<module>")
            resolved = self._resolve_in_module(symbols, remainder)
            if resolved is not None:
                return resolved
            if remainder in symbols.classes:
                return symbols.classes[remainder].key
            return None
        return None

    def resolve_call(
        self, symbols: ModuleSymbols, caller: FunctionInfo, dotted: str
    ) -> str | None:
        """One call's dotted text to a project node key (or ``None``)."""
        head, _, rest = dotted.partition(".")
        # self.method() / cls.method(): dispatch inside the enclosing
        # class, walking project bases.
        if head in ("self", "cls") and rest and "." not in rest:
            enclosing = caller.qualname.rsplit(".", 1)[0]
            if enclosing and enclosing != caller.qualname:
                resolved = self._resolve_method(symbols, enclosing, rest)
                if resolved is not None:
                    return resolved
            return None
        # Bare name: module-local function/class, or a from-import.
        if not rest:
            local = self._resolve_in_module(symbols, head)
            if local is not None:
                return local
            target = symbols.imports.get(head)
            if target is not None:
                return self.resolve_absolute(target)
            return None
        # Dotted: expand the head through the imports.
        expanded = symbols.resolve_dotted(dotted)
        resolved = self.resolve_absolute(expanded)
        if resolved is not None:
            return resolved
        # Unique-method heuristic: ``receiver.method(...)`` where the
        # receiver's type is unknown but exactly one project class
        # defines ``method`` (and it is not a builtin-container name).
        if "." not in rest and rest not in _BUILTIN_METHOD_NAMES:
            owners = self.method_owners.get(rest, [])
            if len(owners) == 1:
                owner = owners[0]
                local = f"{owner.key.split('::', 1)[1]}.{rest}"
                return self.node_key(owner.path, local)
        return None


class _CallCollector(ast.NodeVisitor):
    """Record every call site inside one module, resolving each."""

    def __init__(
        self,
        symbols: ModuleSymbols,
        resolver: _Resolver,
        graph: CallGraph,
    ) -> None:
        self.symbols = symbols
        self.resolver = resolver
        self.graph = graph
        self._stack: list[str] = ["<module>"]

    def _caller(self) -> FunctionInfo:
        # Class bodies are not function nodes; calls there (decorators
        # ran already, attribute defaults, enum values) attribute to the
        # nearest enclosing function or the module body.
        for qualname in reversed(self._stack):
            info = self.symbols.functions.get(qualname)
            if info is not None:
                return info
        return self.symbols.functions["<module>"]

    def _enter(self, node: ast.AST, name: str) -> None:
        parent = self._stack[-1]
        qualname = name if parent == "<module>" else f"{parent}.{name}"
        self._stack.append(qualname)
        self.generic_visit(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._record_decorators(node)
        self._enter(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._record_decorators(node)
        self._enter(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._record_decorators(node)
        self._enter(node, node.name)

    def _record_decorators(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    ) -> None:
        # Decorator application runs at import time: record it as a
        # call from the *enclosing* scope so ``@register(...)``-style
        # registration shows up in the graph.
        for decorator in node.decorator_list:
            dotted = _decorator_name(decorator)
            if dotted is None:
                continue
            caller = self._caller()
            self.graph.calls.append(
                CallSite(
                    caller=caller.key,
                    path=self.symbols.path,
                    lineno=decorator.lineno,
                    name=dotted,
                    callee=self.resolver.resolve_call(
                        self.symbols, caller, dotted
                    ),
                )
            )

    def visit_Call(self, node: ast.Call) -> None:
        caller = self._caller()
        dotted = _call_name(node.func)
        if dotted is None:
            reason, detail = _dynamic_shape(node.func)
            self.graph.skips.append(
                GraphSkip(
                    path=self.symbols.path,
                    lineno=node.lineno,
                    reason=reason,
                    detail=detail,
                )
            )
        else:
            callee = self.resolver.resolve_call(self.symbols, caller, dotted)
            if callee is None and _is_getattr_dispatch(node):
                self.graph.skips.append(
                    GraphSkip(
                        path=self.symbols.path,
                        lineno=node.lineno,
                        reason="dynamic-getattr",
                        detail="getattr(...) dispatch cannot be resolved",
                    )
                )
            self.graph.calls.append(
                CallSite(
                    caller=caller.key,
                    path=self.symbols.path,
                    lineno=node.lineno,
                    name=dotted,
                    callee=callee,
                )
            )
        self.generic_visit(node)


def _call_name(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _dynamic_shape(node: ast.expr) -> tuple[str, str]:
    """Classify an unresolvable callee expression for the skip record."""
    if isinstance(node, ast.Call):
        inner = _call_name(node.func)
        if inner == "getattr":
            return "dynamic-getattr", "getattr(...)() dispatch"
        return "call-on-call-result", f"({inner or '<expr>'})(...)(...)"
    return "dynamic-callee", ast.dump(node)[:80]


def _is_getattr_dispatch(node: ast.Call) -> bool:
    return (
        isinstance(node.func, ast.Name) and node.func.id == "getattr"
    )


def build_call_graph(
    modules: Mapping[str, ast.Module],
) -> CallGraph:
    """Build the project call graph from parsed modules.

    ``modules`` maps repo-relative posix paths to parsed trees (files
    that failed to parse are simply absent -- the engine records those
    as R000 findings and skips).  Circular imports are no obstacle:
    resolution works on the collected symbol tables, never by importing
    anything.
    """
    graph = CallGraph()
    for path, tree in modules.items():
        is_package = path.replace("\\", "/").endswith("__init__.py")
        symbols = ModuleSymbols(path=path, module=module_name_for(path))
        symbols.imports = _collect_imports(tree, symbols.module, is_package)
        # The module body is itself a node, so module-level calls
        # (registrations, constants) have a caller.
        module_node = FunctionInfo(
            key=f"{path}::<module>",
            path=path,
            qualname="<module>",
            lineno=1,
            kind="module",
        )
        symbols.functions["<module>"] = module_node
        collector = _SymbolCollector(path, symbols)
        collector.visit(tree)
        graph.modules[path] = symbols
        for info in symbols.functions.values():
            graph.functions[info.key] = info
        for info_c in symbols.classes.values():
            graph.classes[info_c.key] = info_c

    resolver = _Resolver(graph)
    for path, tree in modules.items():
        symbols = graph.modules[path]
        _CallCollector(symbols, resolver, graph).visit(tree)
    graph._index()
    return graph


def iter_function_bodies(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.AST]]:
    """(qualname, node) for the module body and every def, outermost
    first.  The module body is reported as ``<module>`` with the def
    statements excluded implicitly (visitors must skip nested defs
    themselves)."""
    yield "<module>", tree
    stack: list[tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                qualname = (
                    f"{prefix}.{child.name}" if prefix else child.name
                )
                if isinstance(child, ast.ClassDef):
                    stack.append((qualname, child))
                else:
                    yield qualname, child
                    stack.append((qualname, child))
