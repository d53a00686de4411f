"""The interprocedural pass: call graph, dataflow rules, degradation.

Pass 1 (the call graph) is pinned by a golden serialization of a small
fixture project; each dataflow rule (R008-R010) gets violating and
compliant fixtures exercising the interprocedural machinery (taint
through helper returns, guards in transitive callers, per-type
exception consumption).  Malformed inputs -- syntax
errors, circular imports, dynamic dispatch -- must degrade to recorded
skips, never crash the scan.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import Violation, analyze_project, rule_by_id
from repro.analysis.callgraph import (
    CallGraph,
    build_call_graph,
    module_name_for,
)
from repro.analysis.engine import analyze_source

import ast

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).parent / "data" / "callgraph_golden.json"


def project_scan(
    sources: dict[str, str], *rule_ids: str
) -> list[Violation]:
    """Scan a ``{path: source}`` fixture with the named rules only."""
    rules = [rule_by_id(rule_id) for rule_id in rule_ids]
    dedented = {
        path: textwrap.dedent(source) for path, source in sources.items()
    }
    return analyze_project(dedented, rules).violations


def build(sources: dict[str, str]) -> CallGraph:
    trees = {
        path: ast.parse(textwrap.dedent(source))
        for path, source in sources.items()
    }
    return build_call_graph(trees)


# ---------------------------------------------------------------------------
# Pass 1: the call graph.
# ---------------------------------------------------------------------------

#: Fixture project shared by the resolution tests and the golden test.
#: Touches every resolution feature: absolute and relative imports,
#: aliasing, self-dispatch, class -> __init__, decorators, and a
#: dynamic-getattr site that must degrade to a recorded skip.
GRAPH_FIXTURE = {
    "src/pkg/__init__.py": """\
        from pkg.util import shared
        """,
    "src/pkg/util.py": """\
        def shared(x):
            return x + 1

        def only_here():
            return shared(0)
        """,
    "src/pkg/core.py": """\
        from pkg.util import shared as sh
        from . import util

        def trace(fn):
            return fn

        class Engine:
            def __init__(self, size):
                self.size = size

            def step(self):
                return self.helper()

            def helper(self):
                return sh(self.size)

        @trace
        def run():
            engine = Engine(4)
            engine.step()
            return util.only_here()

        def dynamic(name):
            return getattr(util, name)()
        """,
}


class TestCallGraph:
    def test_module_name_mapping(self) -> None:
        assert module_name_for("src/repro/stream/processor.py") == (
            "repro.stream.processor"
        )
        assert module_name_for("src/repro/stream/__init__.py") == (
            "repro.stream"
        )
        assert module_name_for("tools/gen.py") == "tools.gen"

    def test_import_alias_resolution(self) -> None:
        graph = build(GRAPH_FIXTURE)
        resolved = {
            (site.caller, site.name): site.callee
            for site in graph.calls
            if site.callee is not None
        }
        # Aliased cross-module call: sh -> pkg.util.shared.
        assert (
            resolved[("src/pkg/core.py::Engine.helper", "sh")]
            == "src/pkg/util.py::shared"
        )
        # Module-attribute call through a relative import.
        assert (
            resolved[("src/pkg/core.py::run", "util.only_here")]
            == "src/pkg/util.py::only_here"
        )

    def test_self_dispatch_and_class_init(self) -> None:
        graph = build(GRAPH_FIXTURE)
        resolved = {
            (site.caller, site.name): site.callee
            for site in graph.calls
            if site.callee is not None
        }
        assert (
            resolved[("src/pkg/core.py::Engine.step", "self.helper")]
            == "src/pkg/core.py::Engine.helper"
        )
        # Constructing Engine resolves to its __init__.
        assert (
            resolved[("src/pkg/core.py::run", "Engine")]
            == "src/pkg/core.py::Engine.__init__"
        )

    def test_decorator_is_a_call_edge(self) -> None:
        graph = build(GRAPH_FIXTURE)
        decorator_edges = [
            site
            for site in graph.calls
            if site.name == "trace"
            and site.callee == "src/pkg/core.py::trace"
        ]
        assert decorator_edges, "decorator application must be an edge"

    def test_dynamic_getattr_recorded_as_skip(self) -> None:
        graph = build(GRAPH_FIXTURE)
        reasons = {skip.reason for skip in graph.skips}
        assert "dynamic-getattr" in reasons

    def test_caller_closure_crosses_modules(self) -> None:
        graph = build(GRAPH_FIXTURE)
        closure = graph.caller_closure("src/pkg/util.py::shared")
        assert "src/pkg/core.py::Engine.helper" in closure
        assert "src/pkg/core.py::run" in closure
        assert "src/pkg/util.py::only_here" in closure

    def test_call_path_shortest_chain(self) -> None:
        graph = build(GRAPH_FIXTURE)
        # Two routes exist (run -> Engine.step -> Engine.helper -> sh,
        # and run -> util.only_here -> shared); BFS picks the shorter.
        chain = graph.call_path(
            "src/pkg/core.py::run", "src/pkg/util.py::shared"
        )
        assert chain is not None
        assert [site.caller for site in chain] == [
            "src/pkg/core.py::run",
            "src/pkg/util.py::only_here",
        ]
        assert chain[-1].callee == "src/pkg/util.py::shared"

    def test_json_round_trip(self) -> None:
        graph = build(GRAPH_FIXTURE)
        clone = CallGraph.from_dict(json.loads(graph.to_json()))
        assert clone.to_dict() == graph.to_dict()


class TestCallGraphGolden:
    """The serialized pass-1 artifact is pinned against a golden file.

    Any change to symbol collection, qualnames, import resolution or
    skip recording shows up as a golden diff; refresh deliberately with
    ``python tests/test_dataflow.py`` after reviewing the change.
    """

    def test_matches_golden(self) -> None:
        graph = build(GRAPH_FIXTURE)
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert graph.to_dict() == golden, (
            "call-graph serialization drifted from "
            f"{GOLDEN_PATH}; review the diff, then regenerate with "
            "'python tests/test_dataflow.py'"
        )


# ---------------------------------------------------------------------------
# R008: seed taint.
# ---------------------------------------------------------------------------


class TestSeedTaint:
    def test_direct_clock_seed_flagged(self) -> None:
        found = project_scan(
            {
                "src/repro/apps/run.py": """\
                    import time
                    from repro.generators.eh3 import EH3

                    def make():
                        seed = time.time_ns()
                        return EH3(seed)
                    """,
            },
            "R008",
        )
        assert [v.rule for v in found] == ["R008"]
        assert "time.time_ns" in found[0].message
        assert found[0].why  # evidence chain present

    def test_taint_through_helper_return(self) -> None:
        found = project_scan(
            {
                "src/repro/apps/seeds.py": """\
                    import time

                    def fresh_seed():
                        return time.time_ns()
                    """,
                "src/repro/apps/run.py": """\
                    from repro.apps.seeds import fresh_seed
                    from repro.generators.eh3 import EH3

                    def make():
                        value = fresh_seed()
                        shifted = value + 1
                        return EH3(shifted)
                    """,
            },
            "R008",
        )
        assert [v.rule for v in found] == ["R008"]
        assert found[0].path == "src/repro/apps/run.py"

    def test_unseeded_default_rng_flagged(self) -> None:
        found = project_scan(
            {
                "src/repro/apps/run.py": """\
                    import numpy as np
                    from repro.sketch.ams import SketchMatrix

                    def make():
                        rng = np.random.default_rng()
                        return SketchMatrix(rng.integers(0, 2**31))
                    """,
            },
            "R008",
        )
        assert [v.rule for v in found] == ["R008"]
        assert "unseeded" in found[0].message

    def test_injected_seed_clean(self) -> None:
        found = project_scan(
            {
                "src/repro/apps/run.py": """\
                    import numpy as np
                    from repro.generators.eh3 import EH3
                    from repro.sketch.ams import SketchMatrix

                    def make(seed):
                        rng = np.random.default_rng(seed)
                        generator = EH3(seed)
                        return SketchMatrix(int(rng.integers(0, 2**31)))
                    """,
            },
            "R008",
        )
        assert found == []

    def test_tainted_index_does_not_spread_to_container_key(self) -> None:
        # cells[key] = tainted taints the container, never the key --
        # the regression that falsely tainted bench.py's loop variables.
        found = project_scan(
            {
                "src/repro/apps/run.py": """\
                    import time
                    from repro.generators.eh3 import EH3

                    def measure(names, seed):
                        cells = {}
                        for name in names:
                            cells[name] = time.perf_counter()
                        return EH3(seed)
                    """,
            },
            "R008",
        )
        assert found == []

    def test_analysis_package_exempt(self) -> None:
        found = project_scan(
            {
                "src/repro/analysis/fixture_gen.py": """\
                    import time
                    from repro.generators.eh3 import EH3

                    def make():
                        return EH3(time.time_ns())
                    """,
            },
            "R008",
        )
        assert found == []


# ---------------------------------------------------------------------------
# R009: capability contracts.
# ---------------------------------------------------------------------------


class TestCapabilityContract:
    def test_unguarded_batched_call_flagged(self) -> None:
        found = project_scan(
            {
                "src/repro/apps/run.py": """\
                    from repro.rangesum.batched import batched_range_sums

                    def totals(generator, intervals):
                        return batched_range_sums(generator, intervals)
                    """,
            },
            "R009",
        )
        assert [v.rule for v in found] == ["R009"]
        assert "batched_range_sums" in found[0].message

    def test_local_guard_dominates(self) -> None:
        found = project_scan(
            {
                "src/repro/apps/run.py": """\
                    from repro.rangesum.batched import batched_range_sums
                    from repro.sketch.plane import plane_decision

                    def totals(generator, intervals, grid):
                        decision = plane_decision(grid)
                        return batched_range_sums(generator, intervals)
                    """,
            },
            "R009",
        )
        assert found == []

    def test_capability_attribute_guard_dominates(self) -> None:
        found = project_scan(
            {
                "src/repro/apps/run.py": """\
                    from repro.rangesum.batched import batched_range_sums

                    def totals(spec, generator, intervals):
                        if not spec.fast_range_sum:
                            raise ValueError("scheme cannot range-sum")
                        return batched_range_sums(generator, intervals)
                    """,
            },
            "R009",
        )
        assert found == []

    def test_guard_in_transitive_caller_dominates(self) -> None:
        found = project_scan(
            {
                "src/repro/apps/inner.py": """\
                    from repro.rangesum.batched import batched_range_sums

                    def totals(generator, intervals):
                        return batched_range_sums(generator, intervals)
                    """,
                "src/repro/apps/outer.py": """\
                    from repro.apps.inner import totals
                    from repro.sketch.plane import require_plane

                    def entry(grid, generator, intervals):
                        require_plane(grid)
                        return totals(generator, intervals)
                    """,
            },
            "R009",
        )
        assert found == []

    def test_gate_implementation_modules_exempt(self) -> None:
        found = project_scan(
            {
                "src/repro/rangesum/batched.py": """\
                    def batched_range_sums(generator, intervals):
                        return batched_range_sums(generator, intervals)
                    """,
                "src/repro/sketch/plane.py": """\
                    from repro.rangesum.batched import batched_range_sums

                    def kernel(generator, intervals):
                        return batched_range_sums(generator, intervals)
                    """,
            },
            "R009",
        )
        assert found == []


# ---------------------------------------------------------------------------
# R010: exception flow.
# ---------------------------------------------------------------------------

_ERRORS_MODULE = """\
    class StreamError(Exception):
        pass

    class DeadError(StreamError):
        pass

    class LiveError(StreamError):
        pass
    """


class TestExceptionFlow:
    def test_never_raised_type_is_dead(self) -> None:
        found = project_scan(
            {
                "src/repro/stream/errors.py": _ERRORS_MODULE,
                "src/repro/stream/worker.py": """\
                    from repro.stream.errors import LiveError

                    def work():
                        raise LiveError("boom")

                    def consume():
                        try:
                            work()
                        except LiveError:
                            return None
                    """,
            },
            "R010",
        )
        dead = [v for v in found if "dead error type" in v.message]
        assert [v.rule for v in dead] == ["R010"]
        assert "DeadError" in dead[0].message
        assert dead[0].path == "src/repro/stream/errors.py"

    def test_base_class_alive_through_subclass_raise(self) -> None:
        found = project_scan(
            {
                "src/repro/stream/errors.py": """\
                    class StreamError(Exception):
                        pass

                    class LiveError(StreamError):
                        pass
                    """,
                "src/repro/stream/worker.py": """\
                    from repro.stream.errors import LiveError

                    def work():
                        raise LiveError("boom")

                    def consume():
                        try:
                            work()
                        except LiveError:
                            return None
                    """,
            },
            "R010",
        )
        assert found == []

    def test_raised_but_unconsumed_type_flagged(self) -> None:
        found = project_scan(
            {
                "src/repro/stream/errors.py": """\
                    class StreamError(Exception):
                        pass

                    class OrphanError(StreamError):
                        pass
                    """,
                "src/repro/stream/worker.py": """\
                    from repro.stream.errors import OrphanError

                    def work():
                        raise OrphanError("nobody can catch me by type")
                    """,
            },
            "R010",
        )
        orphan = [v for v in found if "silently-dead" in v.message]
        assert [v.rule for v in orphan] == ["R010"]
        assert orphan[0].path == "src/repro/stream/worker.py"
        assert "OrphanError" in orphan[0].message

    def test_typed_handler_anywhere_keeps_type_alive(self) -> None:
        found = project_scan(
            {
                "src/repro/stream/errors.py": """\
                    class StreamError(Exception):
                        pass

                    class CaughtError(StreamError):
                        pass
                    """,
                "src/repro/stream/worker.py": """\
                    from repro.stream.errors import CaughtError

                    def work():
                        raise CaughtError("boom")
                    """,
                "src/repro/stream/boundary.py": """\
                    from repro.stream.errors import StreamError
                    from repro.stream.worker import work

                    def guard():
                        try:
                            work()
                        except StreamError:
                            return None
                    """,
            },
            "R010",
        )
        assert found == []

    def test_generic_handler_does_not_count(self) -> None:
        found = project_scan(
            {
                "src/repro/stream/errors.py": """\
                    class StreamError(Exception):
                        pass

                    class SwallowedError(StreamError):
                        pass
                    """,
                "src/repro/stream/worker.py": """\
                    from repro.stream.errors import SwallowedError

                    def work():
                        raise SwallowedError("boom")

                    def consume():
                        try:
                            work()
                        except Exception:
                            return None
                    """,
            },
            "R010",
        )
        assert any("SwallowedError" in v.message for v in found)

    def test_surface_reachability_keeps_type_alive(self) -> None:
        found = project_scan(
            {
                "src/repro/stream/errors.py": """\
                    class StreamError(Exception):
                        pass

                    class PublicError(StreamError):
                        pass
                    """,
                "src/repro/stream/worker.py": """\
                    from repro.stream.errors import PublicError

                    def work():
                        raise PublicError("escapes through the CLI")
                    """,
                "src/repro/cli.py": """\
                    from repro.stream.worker import work

                    def main():
                        return work()
                    """,
            },
            "R010",
        )
        assert found == []


# ---------------------------------------------------------------------------
# Malformed inputs degrade to recorded skips, never crashes.
# ---------------------------------------------------------------------------


class TestMalformedInputs:
    def test_syntax_error_reports_r000_and_scans_the_rest(self) -> None:
        result = analyze_project(
            {
                "src/repro/apps/broken.py": "def broken(:\n",
                "src/repro/apps/fine.py": textwrap.dedent(
                    """\
                    import time
                    from repro.generators.eh3 import EH3

                    def make():
                        return EH3(time.time_ns())
                    """
                ),
            }
        )
        rules = [v.rule for v in result.violations]
        assert "R000" in rules  # the parse failure
        assert "R008" in rules  # the healthy file still got scanned
        assert any(
            skip.reason == "syntax-error"
            for skip in result.project.graph.skips
        )

    def test_circular_imports_build_a_graph(self) -> None:
        graph = build(
            {
                "src/pkg/a.py": """\
                    from pkg.b import beta

                    def alpha():
                        return beta()
                    """,
                "src/pkg/b.py": """\
                    from pkg.a import alpha

                    def beta():
                        return alpha()
                    """,
            }
        )
        resolved = {
            site.name: site.callee
            for site in graph.calls
            if site.callee is not None
        }
        assert resolved["beta"] == "src/pkg/b.py::beta"
        assert resolved["alpha"] == "src/pkg/a.py::alpha"

    def test_dynamic_dispatch_is_a_skip_not_a_guess(self) -> None:
        graph = build(
            {
                "src/pkg/a.py": """\
                    def run(registry, name):
                        handler = getattr(registry, name)
                        return handler()
                    """,
            }
        )
        assert any(
            skip.reason == "dynamic-getattr" for skip in graph.skips
        )
        # The unresolvable call produced no made-up edge.
        assert all(
            site.callee is None
            for site in graph.calls
            if site.name == "handler"
        )

    def test_single_file_scan_still_works(self) -> None:
        # analyze_source treats one file as a whole project.
        found = analyze_source(
            "import time\nseed = time.time()\n",
            "src/repro/generators/fixture.py",
        )
        assert any(v.rule == "R003" for v in found)


def _regenerate_golden() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    graph = build(GRAPH_FIXTURE)
    GOLDEN_PATH.write_text(
        json.dumps(graph.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate_golden()
