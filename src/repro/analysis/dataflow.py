"""Pass 2 of the interprocedural engine: the dataflow rules (R008-R010).

These rules run over the whole-project call graph of
:mod:`repro.analysis.callgraph` instead of one file at a time:

R008  seed-taint -- a value originating from a non-deterministic source
      (``os.urandom``, ``uuid.uuid4``, ``secrets``, stdlib ``random``,
      the legacy ``np.random`` globals, wall-clock time, an *unseeded*
      ``np.random.default_rng()``) must never reach a generator, sketch
      or cluster-chaos call.  Taint propagates through assignments,
      arbitrary expressions, call arguments and project function
      returns; clean provenance (a manifest field, a ``SchemeSpec``
      seed schema, an injected RNG/seed parameter) is simply *not* a
      source, so values that flow from it never taint.

R009  capability contracts -- call sites of capability-gated APIs
      (``batched_range_sums``, direct packed-plane kernel construction,
      the registry codecs) must be dominated by a registry capability
      check (``plane_decision`` / ``require_plane`` / ``counter_plane``
      / ``spec_for`` / ``spec.fast_range_sum`` ...), either earlier in
      the same function or in some transitive caller.

R010  exception flow -- every typed error declared in
      ``stream/errors.py`` / ``cluster/errors.py`` must actually be
      raised, and every raise site must either be caught by name (the
      class or a typed ancestor) on some caller path or propagate to a
      surface module (``cli.py`` / ``coordinator.py``) where it is part
      of the public raising contract.  Anything else is a silently-dead
      error type.

Each finding carries its dataflow evidence in ``Violation.why`` --
``analyze --why FINGERPRINT`` prints it.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.analysis.base import (
    ProjectRule,
    dotted_name,
    path_segments,
    snippet_at,
)
from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleSymbols,
    build_call_graph,
)
from repro.analysis.violations import Violation

__all__ = [
    "Project",
    "ProjectRule",
    "PROJECT_RULES",
    "SeedTaint",
    "CapabilityContract",
    "ExceptionFlow",
    "build_project_graph",
]


@dataclass
class Project:
    """Everything pass 2 sees: parsed modules plus the call graph."""

    #: path -> parsed tree (unparseable files are absent).
    trees: dict[str, ast.Module] = field(default_factory=dict)
    #: path -> source lines, for snippets.
    lines: dict[str, list[str]] = field(default_factory=dict)
    graph: CallGraph = field(default_factory=CallGraph)


def build_project_graph(trees: Mapping[str, ast.Module]) -> CallGraph:
    """Build the call graph for a set of parsed modules."""
    return build_call_graph(dict(trees))


def _function_node(
    tree: ast.Module, qualname: str
) -> ast.AST | None:
    """The def (or module) node for ``qualname`` in one parsed file."""
    if qualname == "<module>":
        return tree
    node: ast.AST = tree
    for part in qualname.split("."):
        found = None
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and child.name == part:
                found = child
                break
        if found is None:
            return None
        node = found
    return node


def _iter_body(node: ast.AST) -> Iterator[ast.AST]:
    """Every AST node of a function body, nested defs excluded.

    Yields in source order (breadth-first over statements), which the
    taint sweeps rely on: a forward assignment chain converges in one
    sweep instead of one sweep per link.
    """
    queue: deque[ast.AST]
    if isinstance(node, ast.Module):
        queue = deque(
            child
            for child in node.body
            if not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        )
    else:
        queue = deque(getattr(node, "body", []))
    while queue:
        current = queue.popleft()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Lambda),
            ):
                continue
            queue.append(child)


def _target_names(target: ast.expr) -> Iterator[str]:
    """Names an assignment to ``target`` binds (or containers it fills).

    ``cells[key] = value`` taints ``cells`` but never ``key`` -- the
    index is read, not written.  Attribute writes (``obj.attr = value``)
    taint nothing: field-level taint on an object is too coarse for the
    seed-flow question and was the main source of false positives.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    elif isinstance(target, ast.Subscript):
        yield from _target_names(target.value)


# ---------------------------------------------------------------------------
# R008: seed-taint.
# ---------------------------------------------------------------------------

#: Absolute dotted names that always produce non-deterministic values.
_TAINT_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
    }
)

_GLOBAL_RNG_ATTRS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "choice",
        "shuffle", "permutation", "uniform", "normal", "zipf",
        "exponential", "poisson", "bytes",
    }
)

_STDLIB_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "getrandbits", "choice",
        "choices", "sample", "shuffle", "uniform", "gauss",
        "normalvariate", "betavariate", "expovariate",
    }
)


def _taint_source_label(
    symbols: ModuleSymbols, node: ast.Call
) -> str | None:
    """A label when ``node`` is a taint source, else ``None``."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    absolute = symbols.resolve_dotted(dotted)
    if absolute in _TAINT_CALLS:
        return absolute
    if absolute.startswith("secrets."):
        return absolute
    if absolute == "numpy.random.default_rng" and not (
        node.args or node.keywords
    ):
        return "numpy.random.default_rng()  [unseeded]"
    head, _, attr = absolute.rpartition(".")
    if head == "numpy.random" and attr in _GLOBAL_RNG_ATTRS:
        return absolute
    if head == "random" and attr in _STDLIB_RANDOM_FUNCS:
        return absolute
    return None


class _TaintScan:
    """Per-function taint state: tainted names and their origins."""

    def __init__(
        self,
        symbols: ModuleSymbols,
        info: FunctionInfo,
        body: ast.AST,
        returns_taint: Mapping[str, str],
        site_index: Mapping[tuple[str, int, str], str],
    ) -> None:
        self.symbols = symbols
        self.info = info
        self.body = body
        self.returns_taint = returns_taint  #: callee key -> origin label
        self.site_index = site_index
        self.tainted: dict[str, str] = {}  #: local name -> origin label
        self.return_origin: str | None = None
        #: (call node, origin, tainted-arg text) for sink checking.
        self.tainted_calls: list[tuple[ast.Call, str, str]] = []
        #: Call positions already recorded, so repeat sweeps (and
        #: repeat fixpoint rounds) report each site once.
        self._recorded: set[tuple[int, int]] = set()

    def expr_taint(self, node: ast.expr | None) -> str | None:
        """The origin label when ``node``'s value is tainted."""
        if node is None:
            return None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self.tainted:
                return self.tainted[sub.id]
            if isinstance(sub, ast.Call):
                label = _taint_source_label(self.symbols, sub)
                if label is not None:
                    return label
                callee = self._resolved(sub)
                if callee is not None and callee in self.returns_taint:
                    return self.returns_taint[callee]
        return None

    def _resolved(self, node: ast.Call) -> str | None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        return self.site_index.get((self.info.key, node.lineno, dotted))

    def run(self) -> None:
        # Two passes so loop-carried assignments converge; taint only
        # ever grows, so two linear sweeps reach the fixpoint for the
        # assignment chains these rules care about.
        for _ in range(2):
            before = dict(self.tainted)
            self._sweep()
            if self.tainted == before:
                break

    def _sweep(self) -> None:
        for stmt in _iter_body(self.body):
            if isinstance(stmt, ast.Assign):
                origin = self.expr_taint(stmt.value)
                if origin is not None:
                    for target in stmt.targets:
                        for name in _target_names(target):
                            self.tainted[name] = origin
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                origin = self.expr_taint(stmt.value)
                if origin is not None:
                    for name in _target_names(stmt.target):
                        self.tainted[name] = origin
            elif isinstance(stmt, ast.Return):
                origin = self.expr_taint(stmt.value)
                if origin is not None:
                    self.return_origin = origin
            if isinstance(stmt, ast.Call):
                self._check_call(stmt)

    def _check_call(self, node: ast.Call) -> None:
        position = (node.lineno, node.col_offset)
        if position in self._recorded:
            return
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            origin = self.expr_taint(arg)
            if origin is not None:
                text = ast.unparse(arg) if hasattr(ast, "unparse") else "?"
                self.tainted_calls.append((node, origin, text))
                self._recorded.add(position)
                return


class SeedTaint(ProjectRule):
    """R008: non-deterministic values must not reach seed consumers."""

    id = "R008"
    title = "seed-taint reaches a generator/sketch/chaos call"

    #: Sink scope: resolved callees living under these path fragments.
    _SINK_FRAGMENTS = ("generators/", "sketch/", "cluster/faults.py")

    #: Unresolved bare names that are still obviously generator
    #: constructors (fixtures and not-yet-imported call sites).
    _SINK_NAMES = frozenset(
        {
            "EH3", "BCH", "BCH3", "BCH5", "RM7", "PolynomialsOverPrimes",
            "Toeplitz", "DMAP", "SeedSource", "SketchMatrix",
            "StreamProcessor", "ClusterProcessor", "make_family",
            "family_grid",
        }
    )

    def applies_to(self, path: str) -> bool:
        return "analysis" not in path_segments(path)

    def _is_sink(self, graph: CallGraph, callee: str | None, name: str) -> bool:
        if callee is not None:
            path = callee.split("::", 1)[0].replace("\\", "/")
            if any(frag in path for frag in self._SINK_FRAGMENTS):
                return True
        bare = name.rsplit(".", 1)[-1]
        return bare in self._SINK_NAMES

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = project.graph
        # Site index: (caller key, lineno, name) -> resolved callee, so
        # the taint scans can look up interprocedural summaries.
        site_index: dict[tuple[str, int, str], str] = {}
        for site in graph.calls:
            if site.callee is not None:
                site_index[(site.caller, site.lineno, site.name)] = (
                    site.callee
                )

        # Interprocedural pass: which project functions *return* taint.
        returns_taint: dict[str, str] = {}
        scans: dict[str, _TaintScan] = {}

        def make_scan(key: str) -> _TaintScan | None:
            info = graph.functions.get(key)
            if info is None or info.kind == "class":
                return None
            tree = project.trees.get(info.path)
            if tree is None:
                return None
            body = _function_node(tree, info.qualname)
            if body is None:
                return None
            return _TaintScan(
                graph.modules[info.path], info, body, returns_taint,
                site_index,
            )

        # Fixpoint on return-taint summaries: bounded by the longest
        # call chain through helper returns, in practice 2-3 sweeps.
        for _ in range(10):
            changed = False
            for key in graph.functions:
                scan = make_scan(key)
                if scan is None:
                    continue
                scan.run()
                scans[key] = scan
                if scan.return_origin is not None and key not in returns_taint:
                    returns_taint[key] = scan.return_origin
                    changed = True
            if not changed:
                break

        for key, scan in sorted(scans.items()):
            info = graph.functions[key]
            if not self.applies_to(info.path):
                continue
            for node, origin, arg_text in scan.tainted_calls:
                dotted = dotted_name(node.func) or "<dynamic>"
                callee = site_index.get((key, node.lineno, dotted))
                if not self._is_sink(graph, callee, dotted):
                    continue
                lines = project.lines.get(info.path, [])
                where = callee or dotted
                yield self._violation(
                    info.path,
                    node,
                    f"seed-taint: value derived from {origin} reaches "
                    f"{dotted}(...); seeds must flow from a manifest, a "
                    "SchemeSpec seed schema, or an injected RNG/seed "
                    "parameter -- thread the seed in explicitly",
                    lines,
                    why=(
                        f"source: {origin}",
                        f"tainted argument: {arg_text}",
                        f"sink: {where} at {info.path}:{node.lineno}",
                    ),
                )


# ---------------------------------------------------------------------------
# R009: capability contracts.
# ---------------------------------------------------------------------------


class CapabilityContract(ProjectRule):
    """R009: gated APIs are dominated by a registry capability check."""

    id = "R009"
    title = "capability-gated call without a dominating registry check"

    #: Call sites needing a dominating check.
    _GATED = frozenset(
        {
            "batched_range_sums",
            "encode_generator",
            "decode_generator",
            "encode_channel",
            "decode_channel",
        }
    )

    #: Registry guards: seeing one of these call names (or capability
    #: attribute reads) before the gated call satisfies the contract.
    _GUARD_CALLS = frozenset(
        {
            "plane_decision",
            "require_plane",
            "counter_plane",
            "spec_for",
            "get_spec",
            "channel_kind",
            "registered_schemes",
            "registered_kinds",
            "registered_channel_kinds",
        }
    )

    _GUARD_ATTRS = frozenset(
        {
            "fast_range_sum",
            "interval_kind",
            "plane_kind",
            "batched",
            "dmap_inner",
            "codec",
        }
    )

    #: Modules that *are* the gate or its implementation.
    _EXEMPT_SUFFIXES = (
        "rangesum/batched.py",
        "sketch/plane.py",
        "sketch/serialize.py",
    )

    def applies_to(self, path: str) -> bool:
        posix = path.replace("\\", "/")
        segments = path_segments(path)
        if "schemes" in segments or "analysis" in segments:
            return False
        return not posix.endswith(self._EXEMPT_SUFFIXES)

    def _gated_name(self, graph: CallGraph, name: str) -> str | None:
        bare = name.rsplit(".", 1)[-1]
        if bare in self._GATED:
            return bare
        # Direct packed-plane kernel construction: any project class
        # named ``*Plane`` defined under sketch/ or schemes/.
        if bare.endswith("Plane"):
            for info in graph.classes.values():
                if info.name == bare and (
                    "sketch" in path_segments(info.path)
                    or "schemes" in path_segments(info.path)
                ):
                    return bare
        return None

    def _function_has_guard(
        self, project: Project, key: str, before_line: int | None = None
    ) -> int | None:
        """The line of a guard inside ``key`` (optionally before a line)."""
        info = project.graph.functions.get(key)
        if info is None:
            return None
        tree = project.trees.get(info.path)
        if tree is None:
            return None
        body = _function_node(tree, info.qualname)
        if body is None:
            return None
        for node in _iter_body(body):
            lineno = getattr(node, "lineno", None)
            if lineno is None:
                continue
            if before_line is not None and lineno > before_line:
                continue
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is not None and (
                    dotted.rsplit(".", 1)[-1] in self._GUARD_CALLS
                ):
                    return lineno
            elif isinstance(node, ast.Attribute):
                if node.attr in self._GUARD_ATTRS:
                    return lineno
        return None

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = project.graph
        for site in graph.calls:
            if not self.applies_to(site.path):
                continue
            gated = self._gated_name(graph, site.name)
            if gated is None:
                continue
            caller = site.caller
            # Same-function domination (guard at or before the call).
            local = self._function_has_guard(
                project, caller, before_line=site.lineno
            )
            if local is not None:
                continue
            # Interprocedural: a guard anywhere in a transitive caller.
            guarded_by: tuple[str, int] | None = None
            for ancestor in sorted(graph.caller_closure(caller) - {caller}):
                line = self._function_has_guard(project, ancestor)
                if line is not None:
                    guarded_by = (ancestor, line)
                    break
            if guarded_by is not None:
                continue
            lines = project.lines.get(site.path, [])
            info = graph.functions.get(caller)
            where = info.qualname if info is not None else caller
            yield Violation(
                rule=self.id,
                path=site.path,
                line=site.lineno,
                column=1,
                message=(
                    f"capability-gated call {gated}(...) is not dominated "
                    "by a registry capability check; gate it behind "
                    "plane_decision/require_plane/spec_for or a "
                    "spec.fast_range_sum/interval_kind test so schemes "
                    "without the capability fail with a typed reason, "
                    "not a kernel error"
                ),
                snippet=snippet_at(lines, site.lineno),
                why=(
                    f"gated call: {site.name} in {where}",
                    "no guard in the enclosing function before line "
                    f"{site.lineno}",
                    f"no guard in any of {len(graph.caller_closure(caller)) - 1} "
                    "transitive caller(s)",
                ),
            )


# ---------------------------------------------------------------------------
# R010: exception flow.
# ---------------------------------------------------------------------------


@dataclass
class _RaiseSite:
    error: str
    function: str  #: graph key
    path: str
    lineno: int


class ExceptionFlow(ProjectRule):
    """R010: no silently-dead typed error."""

    id = "R010"
    title = "silently-dead typed error"

    _ERROR_MODULE_SUFFIXES = ("stream/errors.py", "cluster/errors.py")
    _SURFACE_SUFFIXES = ("cli.py", "coordinator.py")
    _GENERIC = frozenset({"Exception", "BaseException"})

    def applies_to(self, path: str) -> bool:
        return "analysis" not in path_segments(path)

    def _error_classes(self, project: Project) -> dict[str, str]:
        """Bare error name -> class key, from the error modules."""
        found: dict[str, str] = {}
        for info in project.graph.classes.values():
            posix = info.path.replace("\\", "/")
            if posix.endswith(self._ERROR_MODULE_SUFFIXES):
                found[info.name] = info.key
        return found

    def _handlers(
        self, project: Project
    ) -> dict[str, list[tuple[str, int]]]:
        """Caught bare name -> [(function key, lineno)] project-wide."""
        caught: dict[str, list[tuple[str, int]]] = {}
        graph = project.graph
        for key, info in graph.functions.items():
            if info.kind == "class":
                continue
            tree = project.trees.get(info.path)
            if tree is None:
                continue
            body = _function_node(tree, info.qualname)
            if body is None:
                continue
            for node in _iter_body(body):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    continue
                entries = (
                    node.type.elts
                    if isinstance(node.type, ast.Tuple)
                    else [node.type]
                )
                for entry in entries:
                    dotted = dotted_name(entry)
                    if dotted is None:
                        continue
                    bare = dotted.rsplit(".", 1)[-1]
                    caught.setdefault(bare, []).append((key, node.lineno))
        return caught

    def _raises(self, project: Project, names: set[str]) -> list[_RaiseSite]:
        sites: list[_RaiseSite] = []
        graph = project.graph
        for key, info in graph.functions.items():
            if info.kind == "class":
                continue
            tree = project.trees.get(info.path)
            if tree is None:
                continue
            body = _function_node(tree, info.qualname)
            if body is None:
                continue
            for node in _iter_body(body):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                dotted = dotted_name(exc)
                if dotted is None:
                    continue
                bare = dotted.rsplit(".", 1)[-1]
                if bare in names:
                    sites.append(
                        _RaiseSite(bare, key, info.path, node.lineno)
                    )
        return sites

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = project.graph
        errors = self._error_classes(project)
        if not errors:
            return
        handlers = self._handlers(project)
        raise_sites = self._raises(project, set(errors))
        raised_names = {site.error for site in raise_sites}

        # Ancestor names per error (for ``except StreamError`` catching
        # a subclass), minus the generic handlers R004 already audits.
        ancestors: dict[str, set[str]] = {}
        subclasses: dict[str, set[str]] = {}
        for name, key in errors.items():
            bases = graph.base_closure(key) - self._GENERIC
            ancestors[name] = bases
            for base in bases:
                subclasses.setdefault(base, set()).add(name)

        for name in sorted(errors):
            raised_here = name in raised_names
            subclass_raised = any(
                sub in raised_names for sub in subclasses.get(name, ())
            )
            if not raised_here and not subclass_raised:
                info = graph.classes[errors[name]]
                lines = project.lines.get(info.path, [])
                yield Violation(
                    rule=self.id,
                    path=info.path,
                    line=info.lineno,
                    column=1,
                    message=(
                        f"dead error type: {name} is declared but never "
                        "raised anywhere in the project (and no subclass "
                        "is); delete it or wire the failure path that "
                        "should raise it"
                    ),
                    snippet=snippet_at(lines, info.lineno),
                    why=(f"declared at {info.path}:{info.lineno}",),
                )

        # Consumption is judged per error *type*, not per raise site:
        # dispatch through shared method names and calls arriving from
        # outside the package make per-site caller closures structurally
        # incomplete.  A raised type is alive when a typed handler for
        # it (or a non-generic ancestor) exists anywhere in the project,
        # or when some raise site's caller closure reaches a surface
        # module -- the error then escapes through the documented public
        # contract.  A type with neither is one no caller can ever
        # observe by type.
        sites_by_error: dict[str, list[_RaiseSite]] = {}
        for site in raise_sites:
            sites_by_error.setdefault(site.error, []).append(site)

        for name in sorted(sites_by_error):
            sites = sorted(
                sites_by_error[name], key=lambda s: (s.path, s.lineno)
            )
            catchable = {name} | ancestors.get(name, set())
            if any(handlers.get(catch) for catch in catchable):
                continue
            reaches_surface = False
            for site in sites:
                closure = graph.caller_closure(site.function)
                if any(
                    key.split("::", 1)[0]
                    .replace("\\", "/")
                    .endswith(self._SURFACE_SUFFIXES)
                    for key in closure
                ):
                    reaches_surface = True
                    break
            if reaches_surface:
                continue
            anchor = sites[0]
            lines = project.lines.get(anchor.path, [])
            others = len(sites) - 1
            yield Violation(
                rule=self.id,
                path=anchor.path,
                line=anchor.lineno,
                column=1,
                message=(
                    f"silently-dead error: {name} is raised but no typed "
                    "handler anywhere catches it (or a non-generic "
                    "ancestor), and no raising path reaches a surface "
                    "module (cli.py / coordinator.py); add a typed "
                    "handler at the consuming boundary or delete the "
                    "error type"
                ),
                snippet=snippet_at(lines, anchor.lineno),
                why=(
                    f"raised in {anchor.function}"
                    + (f" (and {others} more site(s))" if others else ""),
                    f"no project handler for any of {sorted(catchable)}",
                    "no raise site's caller closure reaches "
                    "cli.py/coordinator.py",
                ),
            )


PROJECT_RULES: tuple[ProjectRule, ...] = (
    SeedTaint(),
    CapabilityContract(),
    ExceptionFlow(),
)
