"""End-to-end stream benchmark: four seeded workloads against the public API.

``run.py`` is the command; ``workloads.py`` holds the workloads and the
closed loop that runs them; ``verify.py`` checks every output against a
reference; ``trace.py`` wraps the layer entry points for the per-layer
ledger; ``compare.py`` judges two sets of recorded runs.  See README.md.

The modules import as the ``e2e`` package (``benchmarks/`` on the path)
so that ``e2e.trace`` never shadows the standard library's ``trace``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS_DIR = HERE / "results"
WORK_DIR = HERE / ".work"


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    source = str(SRC)
    if source not in sys.path:
        sys.path.insert(0, source)
