"""Judge a change against its parent from recorded benchmark runs.

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the run records ``run.py`` appends to its ``--record``
file (one JSON object per line), made with identical benchmark code and
settings on the two commits, alternating which side runs first.  Runs
pair up by workload, trace mode and seed.  Each (workload, metric) pair
gets one verdict, following the ``choosing-metrics`` rules:

``gain``
    at least 10 pairs, the change wins at least 9/10 of them (ties count
    for neither side), and the medians differ by more than the parent's
    interquartile range;
``regression``
    the change's median is worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
``unresolved``
    either side's interquartile range is wider than the bound, unless
    every change run beats every parent run;
``same``
    none of the above.

Per-layer metrics have no bound: they can only read ``gain`` or
``same``.  One row is printed per workload; the exit status is 1 when
any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> list[dict[str, Any]]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def metric_specs(benchmark: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {spec["name"]: spec for spec in benchmark["end_to_end"] + benchmark["per_layer"]}


def pair_runs(
    parent: list[dict[str, Any]], change: list[dict[str, Any]]
) -> dict[tuple[str, int], list[tuple[dict[str, Any], dict[str, Any]]]]:
    """``(workload, trace) -> [(parent run, change run)]`` matched by seed."""
    waiting: dict[tuple[str, int, int], list[dict[str, Any]]] = defaultdict(list)
    for run in parent:
        waiting[(run["workload"], run["trace"], run["seed"])].append(run)
    pairs: dict[tuple[str, int], list[tuple[dict[str, Any], dict[str, Any]]]] = defaultdict(
        list
    )
    for run in change:
        queue = waiting.get((run["workload"], run["trace"], run["seed"]))
        if queue:
            pairs[(run["workload"], run["trace"])].append((queue.pop(0), run))
    return pairs


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def verdict(
    parent: list[float], change: list[float], better: str, bound: float | None
) -> tuple[str, float]:
    """The verdict and the change's median shift, signed so that + is worse."""
    sign = 1.0 if better == "lower" else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    scale = abs(parent_median) or 1.0
    worse_by = sign * (change_median - parent_median) / scale
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    dominates = max(sign * c for c in change) < min(sign * p for p in parent)
    gain = (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and worse_by < 0
        and abs(change_median - parent_median) > _iqr(parent)
    )
    if bound is not None:
        spread = max(_iqr(parent) / scale, _iqr(change) / (abs(change_median) or 1.0))
        if spread > bound and not dominates:
            return "unresolved", worse_by
        if worse_by > bound:
            return "regression", worse_by
    return ("gain" if gain else "same"), worse_by


def compare(
    parent: list[dict[str, Any]], change: list[dict[str, Any]], benchmark: dict[str, Any]
) -> list[tuple[str, dict[str, tuple[str, float]]]]:
    """One ``(row label, {metric: (verdict, shift)})`` per workload and mode."""
    specs = metric_specs(benchmark)
    rows = []
    for (workload, traced), pairs in sorted(pair_runs(parent, change).items()):
        verdicts = {}
        for name in pairs[0][1]["metrics"]:
            spec = specs.get(name)
            if spec is None:
                continue
            parent_values = [p["metrics"][name] for p, _ in pairs]
            change_values = [c["metrics"][name] for _, c in pairs]
            verdicts[name] = verdict(
                parent_values, change_values, spec["better"], spec.get("bound")
            )
        rows.append((f"{workload}{' (traced)' if traced else ''} n={len(pairs)}", verdicts))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_runs(args.parent), load_runs(args.change), benchmark)
    regressed = False
    for label, verdicts in rows:
        cells = [f"{name}={kind}({shift:+.1%})" for name, (kind, shift) in verdicts.items()]
        regressed |= any(kind == "regression" for kind, _ in verdicts.values())
        print(f"{label}: " + "  ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
