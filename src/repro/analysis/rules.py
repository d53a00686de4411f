"""The per-file domain rules (R001-R006, R012) and the rule registry.

Each rule encodes an invariant the generic linters cannot see because it
is about *this* codebase's arithmetic and architecture:

R001  scheme dispatch goes through the capability registry, never through
      ``isinstance`` ladders over generator/channel classes;
R002  kernel modules pin every numpy dtype -- the exact bit-level
      arithmetic (Mersenne reduction, GF(2) products, packed uint64
      planes) breaks silently under platform-default integer widths;
R003  nothing on an estimator or generator path consumes unseeded
      randomness or wall-clock time -- reproducibility is a paper-level
      invariant (every figure must replay bit-identically from a seed);
R004  broad exception handlers on the durability paths (the ``stream``
      layer and the ``cluster`` shard supervisor) are deliberate,
      documented boundaries, never accidental swallows;
R005  all timing flows through the observability layer's injected clock
      (``repro.obs.monotonic``) -- direct ``time.monotonic()`` /
      ``time.perf_counter()`` calls outside ``repro.obs`` and
      ``repro.bench`` make recorded durations impossible to replay
      deterministically under a fake clock;
R006  kernel-tier modules (the packed plane and its kernels) stay
      vectorized and branch-free: no Python-level ``%``
      (Mersenne moduli fold with shifts and adds, see
      ``repro.core.primefield``) and no per-element loops -- a
      whole-batch traversal that must iterate (per seed bit, per index
      byte, per Horner degree) carries a ``# repro: allow[R006]``
      justification on the loop header;
R012  ``obs.span()`` / ``obs.start_span()`` handles are either used as
      context managers or explicitly ``.end()``ed -- an unclosed span
      records nothing and unbalances the trace collector's stack,
      corrupting the parent links of every later span in the stitched
      trace.

Rules here see one parsed file at a time and yield :class:`Violation`
records; suppression filtering happens in :mod:`repro.analysis.engine`.
The interprocedural dataflow rules (R008-R010) live in
:mod:`repro.analysis.dataflow` and run over the project call graph; this
module registers both tiers in :data:`ALL_RULES`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.base import (
    Rule,
    dotted_name as _dotted,
    path_segments as _segments,
    snippet_at as _snippet,
)
from repro.analysis.dataflow import PROJECT_RULES
from repro.analysis.violations import Violation

__all__ = ["Rule", "ALL_RULES", "FILE_RULES", "PROJECT_RULES", "rule_by_id"]

#: Generator/channel classes owned by the scheme registry.  ``isinstance``
#: against any of these outside ``repro.schemes`` is hand-wired dispatch
#: that a new scheme registration would silently miss (R001).
DISPATCH_TYPES = frozenset(
    {
        "Generator",
        "EH3",
        "BCH",
        "BCH3",
        "BCH5",
        "RM7",
        "PolynomialsOverPrimes",
        "Toeplitz",
        "ToeplitzHash",
        "DMAP",
        "DyadicMapper",
        "RangeSummable",
        "ProductGenerator",
        "ProductDMAP",
        "AtomicChannel",
        "GeneratorChannel",
        "DMAPChannel",
        "ProductChannel",
        "ProductDMAPChannel",
    }
)

#: numpy array constructors whose platform-default dtype (``intp`` --
#: int32 on 64-bit Windows) silently narrows kernel arithmetic, plus the
#: positional index at which each accepts ``dtype``.
_CONSTRUCTOR_DTYPE_POS = {
    "arange": 3,
    "zeros": 1,
    "ones": 1,
    "empty": 1,
    "full": 2,
}

#: numpy reductions whose *accumulator* dtype defaults to the platform
#: integer for integer inputs -- the classic silent-overflow vector.
_ACCUMULATORS = frozenset({"sum", "prod", "cumsum", "cumprod"})

#: Legacy global-state numpy RNG entry points (unseedable per call site).
_GLOBAL_RNG_ATTRS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "seed",
        "uniform",
        "normal",
        "zipf",
        "exponential",
        "poisson",
    }
)

#: stdlib ``random`` module functions that draw from hidden global state.
_STDLIB_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "seed",
    }
)

_BLE_BOUNDARY_RE = re.compile(r"#\s*noqa:\s*BLE001\s*--\s*\S")


class RegistryBypass(Rule):
    """R001: ``isinstance``/``issubclass`` over scheme-owned classes."""

    id = "R001"
    title = "registry-bypass dispatch"

    def applies_to(self, path: str) -> bool:
        segments = _segments(path)
        # repro.schemes owns the one blessed set of structural checks
        # (the registered channel codecs); the analyzer itself is meta.
        return "schemes" not in segments and "analysis" not in segments

    def _class_names(self, node: ast.expr) -> Iterable[str]:
        candidates = (
            node.elts if isinstance(node, ast.Tuple) else [node]
        )
        for candidate in candidates:
            dotted = _dotted(candidate)
            if dotted is None:
                continue
            if dotted.startswith(("np.", "numpy.")):
                # numpy's own types (np.integer, np.random.Generator, ...)
                # are structural value checks, not scheme dispatch.
                continue
            name = dotted.rsplit(".", 1)[-1]
            if name in DISPATCH_TYPES:
                yield name

    def check(
        self, tree: ast.AST, lines: list[str], path: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Name)
                and func.id in ("isinstance", "issubclass")
            ):
                continue
            if len(node.args) < 2:
                continue
            for name in self._class_names(node.args[1]):
                yield self._violation(
                    path,
                    node,
                    f"{func.id} dispatch on scheme-owned class {name!r}; "
                    "use the capability registry (repro.schemes.spec_for / "
                    "channel_kind) so new scheme registrations are not "
                    "silently skipped",
                    lines,
                )


class IntegerWidthHazard(Rule):
    """R002: numpy calls in kernel modules must pin their dtype."""

    id = "R002"
    title = "unpinned numpy dtype in kernel module"

    def applies_to(self, path: str) -> bool:
        segments = _segments(path)
        if "core" in segments or "rangesum" in segments:
            return True
        posix = path.replace("\\", "/")
        return posix.endswith(("sketch/plane.py", "sketch/kernels.py"))

    def check(
        self, tree: ast.AST, lines: list[str], path: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None or "." not in dotted:
                continue
            prefix, attr = dotted.rsplit(".", 1)
            if prefix not in ("np", "numpy"):
                continue
            has_dtype = any(kw.arg == "dtype" for kw in node.keywords)
            if attr in _CONSTRUCTOR_DTYPE_POS:
                positional = len(node.args) > _CONSTRUCTOR_DTYPE_POS[attr]
                if not has_dtype and not positional:
                    yield self._violation(
                        path,
                        node,
                        f"np.{attr} without an explicit dtype in a kernel "
                        "module; the platform-default integer (int32 on "
                        "64-bit Windows) silently narrows exact bit-level "
                        "arithmetic -- pin dtype=np.uint64/np.int64",
                        lines,
                    )
            elif attr in _ACCUMULATORS and not has_dtype:
                yield self._violation(
                    path,
                    node,
                    f"np.{attr} without an explicit accumulator dtype in a "
                    "kernel module; integer reductions accumulate in the "
                    "platform default width and can overflow silently",
                    lines,
                )


class DeterminismGuard(Rule):
    """R003: no unseeded or global-state randomness, no wall-clock."""

    id = "R003"
    title = "non-deterministic source"

    def applies_to(self, path: str) -> bool:
        return "analysis" not in _segments(path)

    def _random_aliases(self, tree: ast.AST) -> tuple[set[str], set[str]]:
        """(module aliases of ``random``, names imported from it)."""
        modules: set[str] = set()
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        modules.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in _STDLIB_RANDOM_FUNCS:
                        names.add(alias.asname or alias.name)
        return modules, names

    def check(
        self, tree: ast.AST, lines: list[str], path: str
    ) -> Iterator[Violation]:
        random_modules, random_names = self._random_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is not None:
                if dotted.endswith("random.default_rng") and not (
                    node.args or node.keywords
                ):
                    yield self._violation(
                        path,
                        node,
                        "unseeded np.random.default_rng(); every figure and "
                        "estimate must replay bit-identically from an "
                        "explicit seed -- thread a seed or Generator in",
                        lines,
                    )
                    continue
                head, _, attr = dotted.rpartition(".")
                if (
                    head in ("np.random", "numpy.random")
                    and attr in _GLOBAL_RNG_ATTRS
                ):
                    yield self._violation(
                        path,
                        node,
                        f"legacy global-state np.random.{attr}; use an "
                        "explicitly seeded np.random.Generator",
                        lines,
                    )
                    continue
                if dotted in ("time.time", "time.time_ns"):
                    yield self._violation(
                        path,
                        node,
                        "wall-clock time on a deterministic path; use "
                        "the injected clock (repro.obs.monotonic) for "
                        "measurement or pass timestamps in",
                        lines,
                    )
                    continue
                if (
                    "." in dotted
                    and dotted.split(".", 1)[0] in random_modules
                    and dotted.rsplit(".", 1)[-1] in _STDLIB_RANDOM_FUNCS
                ):
                    yield self._violation(
                        path,
                        node,
                        f"stdlib {dotted} draws from hidden global state; "
                        "use an explicitly seeded np.random.Generator",
                        lines,
                    )
                    continue
                if "." not in dotted and dotted in random_names:
                    yield self._violation(
                        path,
                        node,
                        f"stdlib random.{dotted} draws from hidden global "
                        "state; use an explicitly seeded np.random.Generator",
                        lines,
                    )


class ExceptionBoundaryAudit(Rule):
    """R004: broad handlers on durability paths carry a boundary note.

    Covers both the single-process durability layer (``stream``) and the
    shard cluster (``cluster``), whose coordinator and workers catch
    broadly at supervision boundaries for the same reason the WAL code
    does: to convert worker faults into replies and restarts instead of
    losing acknowledged updates.
    """

    id = "R004"
    title = "undocumented broad exception handler"

    def applies_to(self, path: str) -> bool:
        segments = _segments(path)
        return "stream" in segments or "cluster" in segments

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for entry in types:
            dotted = _dotted(entry)
            if dotted is not None and dotted.rsplit(".", 1)[-1] in (
                "Exception",
                "BaseException",
            ):
                return True
        return False

    def check(
        self, tree: ast.AST, lines: list[str], path: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            if _BLE_BOUNDARY_RE.search(_snippet(lines, node.lineno)):
                continue
            yield self._violation(
                path,
                node,
                "broad exception handler in the durability layer without a "
                "'# noqa: BLE001 -- reason' boundary comment; swallowed "
                "errors here can silently drop acknowledged updates",
                lines,
            )


#: ``time`` module functions R005 reserves for the observability layer.
_MONOTONIC_FUNCS = frozenset(
    {"monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)


class ClockInjectionGuard(Rule):
    """R005: timing goes through the injected clock, not ``time.*``."""

    id = "R005"
    title = "direct monotonic clock call"

    def applies_to(self, path: str) -> bool:
        # repro.obs owns the injected clock and repro.bench is the one
        # blessed raw-timing harness (its numbers *should* be wall time).
        segments = _segments(path)
        if "obs" in segments:
            return False
        return not path.replace("\\", "/").endswith("repro/bench.py")

    def _time_aliases(self, tree: ast.AST) -> tuple[set[str], set[str]]:
        """(module aliases of ``time``, names imported from it)."""
        modules: set[str] = set()
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        modules.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _MONOTONIC_FUNCS:
                        names.add(alias.asname or alias.name)
        return modules, names

    def check(
        self, tree: ast.AST, lines: list[str], path: str
    ) -> Iterator[Violation]:
        time_modules, time_names = self._time_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if "." in dotted:
                head, _, attr = dotted.rpartition(".")
                flagged = head in time_modules and attr in _MONOTONIC_FUNCS
            else:
                attr = dotted
                flagged = dotted in time_names
            if flagged:
                yield self._violation(
                    path,
                    node,
                    f"direct time.{attr}() outside repro.obs/repro.bench; "
                    "read the injected clock (repro.obs.monotonic / "
                    "obs.span) so recorded durations replay "
                    "deterministically under a fake clock",
                    lines,
                )


class KernelLoopGuard(Rule):
    """R006: kernel-tier code is vectorized and branch-free.

    The packed-plane layer and its kernels are the hot tier: a
    Python-level ``%`` there usually means a scalar Mersenne reduction
    leaked out of :mod:`repro.core.primefield`'s shift-add folds, and a
    ``for``/``while`` statement usually means per-element iteration that
    belongs in a whole-batch numpy pass.  Only the *outermost* loop of a
    nesting is flagged: the justification on a per-word pass covers its
    per-byte body.
    """

    id = "R006"
    title = "scalar modulo or Python-level loop in the kernel tier"

    #: Kernel-hosting modules.
    _TIER_SUFFIXES = (
        "sketch/plane.py",
        "sketch/kernels.py",
        "schemes/builtin.py",
    )

    def applies_to(self, path: str) -> bool:
        return path.replace("\\", "/").endswith(self._TIER_SUFFIXES)

    def _is_string_format(self, node: ast.BinOp) -> bool:
        left = node.left
        return isinstance(left, ast.JoinedStr) or (
            isinstance(left, ast.Constant) and isinstance(left.value, str)
        )

    _MOD_MESSAGE = (
        "Python-level '%' in the kernel tier; Mersenne moduli reduce "
        "branch-free via shift-add folds "
        "(repro.core.primefield.mod_mersenne_array) -- justify anything "
        "else with '# repro: allow[R006] reason'"
    )

    _LOOP_MESSAGE = (
        "Python-level loop in the kernel tier; per-element iteration "
        "belongs in a vectorized whole-batch pass "
        "-- per-bit/per-byte/per-degree traversals must say so with "
        "'# repro: allow[R006] reason' on the loop header"
    )

    def _loop_violations(
        self, node: ast.AST, lines: list[str], path: str
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                # Flag the outermost loop only; nested loops are the
                # body of the traversal the outer justification covers.
                yield self._violation(path, child, self._LOOP_MESSAGE, lines)
            else:
                yield from self._loop_violations(child, lines, path)

    def check(
        self, tree: ast.AST, lines: list[str], path: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            mod_binop = (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and not self._is_string_format(node)
            )
            mod_augassign = isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Mod
            )
            if mod_binop or mod_augassign:
                yield self._violation(path, node, self._MOD_MESSAGE, lines)
        yield from self._loop_violations(tree, lines, path)


class SpanLifecycleGuard(Rule):
    """R012: span handles are context-managed or explicitly ended.

    ``obs.span()`` returns a context manager and ``obs.start_span()`` an
    already-entered span: a handle that never reaches ``__exit__`` /
    ``.end()`` records nothing and leaves the trace collector's stack
    unbalanced, silently corrupting every later parent/child link in the
    stitched trace.  The check is per scope: a span call must be a
    ``with`` item, or be bound to a name that is later used as a ``with``
    item or has ``.end()`` called on it in the same scope.  A bare
    expression statement discards the handle outright.  Calls forwarded
    elsewhere (returned, passed as an argument) transfer ownership and
    are not flagged.  ``repro.obs`` itself (which implements the
    machinery) is exempt.
    """

    id = "R012"
    title = "span handle never closed"

    _FACTORIES = frozenset(
        {"span", "obs.span", "start_span", "obs.start_span"}
    )

    def applies_to(self, path: str) -> bool:
        return "obs" not in _segments(path)

    def _scope_walk(self, body: Iterable[ast.stmt]) -> Iterator[ast.AST]:
        """Every node of a scope, not descending into nested functions."""
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                # A nested (or module-level) function is its own scope;
                # ``check`` walks its body separately.
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_scope(
        self, body: Iterable[ast.stmt], lines: list[str], path: str
    ) -> Iterator[Violation]:
        with_calls: set[int] = set()  # span calls used as `with` items
        with_names: set[str] = set()  # names used as `with` items
        ended: set[str] = set()  # names with a .end() call
        discarded: set[int] = set()  # bare-Expr statement calls
        assigned: dict[int, tuple[str, ast.Call]] = {}
        span_calls: list[ast.Call] = []
        for node in self._scope_walk(body):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        with_calls.add(id(expr))
                    elif isinstance(expr, ast.Name):
                        with_names.add(expr.id)
            elif isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                discarded.add(id(node.value))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if (
                    isinstance(value, ast.Call)
                    and _dotted(value.func) in self._FACTORIES
                    and len(targets) == 1
                    and isinstance(targets[0], ast.Name)
                ):
                    assigned[id(value)] = (targets[0].id, value)
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in self._FACTORIES:
                    span_calls.append(node)
                elif dotted is not None and dotted.endswith(".end"):
                    owner = dotted[: -len(".end")]
                    if "." not in owner:
                        ended.add(owner)
        for call in span_calls:
            if id(call) in with_calls:
                continue
            binding = assigned.get(id(call))
            if binding is not None:
                name = binding[0]
                if name in ended or name in with_names:
                    continue
                yield self._violation(
                    path,
                    call,
                    f"span handle {name!r} is never closed in this scope; "
                    "use it as a `with` item or call its .end() on every "
                    "path so the duration records and the trace stack "
                    "stays balanced -- or justify with "
                    "'# repro: allow[R012] reason'",
                    lines,
                )
            elif id(call) in discarded:
                yield self._violation(
                    path,
                    call,
                    "span handle discarded: the span never enters/exits, "
                    "so no duration records and nothing reaches the trace "
                    "collector; wrap the timed region in `with "
                    "obs.span(...)` -- or justify with "
                    "'# repro: allow[R012] reason'",
                    lines,
                )

    def check(
        self, tree: ast.AST, lines: list[str], path: str
    ) -> Iterator[Violation]:
        scopes: list[list[ast.stmt]] = [list(getattr(tree, "body", []))]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node.body)
        for body in scopes:
            yield from self._check_scope(body, lines, path)


FILE_RULES: tuple[Rule, ...] = (
    RegistryBypass(),
    IntegerWidthHazard(),
    DeterminismGuard(),
    ExceptionBoundaryAudit(),
    ClockInjectionGuard(),
    KernelLoopGuard(),
    SpanLifecycleGuard(),
)

ALL_RULES: tuple[Rule, ...] = (*FILE_RULES, *PROJECT_RULES)


def rule_by_id(rule_id: str) -> Rule:
    """The rule instance registered under ``rule_id``."""
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    known = ", ".join(rule.id for rule in ALL_RULES)
    raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}")
