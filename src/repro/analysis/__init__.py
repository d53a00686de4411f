"""Domain-aware static analysis for the reproduction's invariants.

The generic toolchain (ruff, mypy) cannot see what makes *this* codebase
correct: exact modular arithmetic that a platform-default dtype corrupts
silently, a capability registry that an ``isinstance`` ladder bypasses,
seeded randomness that one stray ``default_rng()`` breaks.  This package
is an AST-based framework encoding those invariants as named rules, with
inline suppressions that require a written reason and a checked-in
violation baseline.

The engine runs two passes.  Pass 1 (:mod:`repro.analysis.callgraph`)
parses every file and builds a project-wide symbol table and call graph;
pass 2 runs the per-file rules (R001-R006 and R012,
:mod:`repro.analysis.rules`) and the interprocedural dataflow rules
(R008-R010, :mod:`repro.analysis.dataflow`) over it.

Run it as ``repro-experiments analyze --strict`` (the CI gate) or
programmatically through :func:`analyze_paths` /
:func:`analyze_project`.  ``docs/static-analysis.md`` documents every
rule and the suppression workflow.
"""

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.cli import BASELINE_FILENAME, run_analyze
from repro.analysis.dataflow import Project, ProjectRule
from repro.analysis.engine import (
    AnalysisReport,
    ScanResult,
    analyze_paths,
    analyze_project,
    analyze_source,
    load_baseline,
    scan_paths,
    write_baseline,
)
from repro.analysis.rules import ALL_RULES, FILE_RULES, PROJECT_RULES, Rule, rule_by_id
from repro.analysis.suppressions import Suppression, collect_suppressions
from repro.analysis.violations import Violation

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "BASELINE_FILENAME",
    "CallGraph",
    "FILE_RULES",
    "PROJECT_RULES",
    "Project",
    "ProjectRule",
    "Rule",
    "ScanResult",
    "Suppression",
    "Violation",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "build_call_graph",
    "collect_suppressions",
    "load_baseline",
    "rule_by_id",
    "run_analyze",
    "scan_paths",
    "write_baseline",
]
