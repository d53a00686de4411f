"""Run the end-to-end benchmark and print every metric with its unit.

    python3 benchmarks/e2e/run.py --seed 1                     # all four workloads
    python3 benchmarks/e2e/run.py --workload tuple_ingest --seed 1 --seconds 10
    python3 benchmarks/e2e/run.py --workload batch_ingest --seed 1 --trace 1

Each measurement runs in fresh interpreters (see ``workloads.spawn``):
four set-up-only processes and one full process per untraced run, so
``setup_s`` is the median of five set-ups; three passes per traced run
(see ``trace.measure``).  Outputs are checked against references; a run
with any failure exits 1.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.  Every run
is also appended to ``--record`` (default ``results/runs.jsonl``) for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    # Import this directory as the ``e2e`` package, never as top-level
    # modules: ``trace.py`` would shadow the standard library's ``trace``.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path.insert(0, str(HERE.parent))

from e2e import RESULTS_DIR, SRC, trace, workloads  # noqa: E402

#: Set-ups measured per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Every run ends well inside three minutes, children included.
BUDGET_S = 170.0
DEFAULT_SECONDS = 10

#: End-to-end metric -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "ingest_items_per_s": "1/s",
    "ingest_p50_us": "us",
    "query_p50_us": "us",
}


def end_to_end_metrics(runs: list[dict[str, Any]]) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)``: ``setup_s`` over every run, the rest from the last."""
    full = runs[-1]
    values = {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "peak_rss_mb": full["peak_rss_mb"],
        "ops_per_s": full["ops_per_s"],
        "ingest_items_per_s": full["ingest_items_per_s"],
        "ingest_p50_us": full["latency"]["ingest"]["p50_us"],
        "query_p50_us": full["latency"]["query"]["p50_us"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def describe(full: dict[str, Any]) -> list[str]:
    """Sample counts and the metrics the JSON line leaves out, for the reader."""
    latency = full["latency"]
    lines = [
        f"  samples: {full['ops']} ops in {len(full['segment_wall_s'])} segments, "
        f"{full['wall_s']:.2f} s; {full['readback_ops']} read-back queries"
    ]
    for kind, summary in sorted(latency.items()):
        if summary["n"]:
            lines.append(
                f"  {kind:<12} n={summary['n']:<7} p50 {summary['p50_us']:>12.1f} us"
                f"   p99 {summary['p99_us']:>12.1f} us ({summary['n'] // 100} beyond)"
            )
    recovery = full["recovery"]
    if recovery is not None:
        lines.append(
            f"  recovery     {recovery['seconds']:.3f} s for {recovery['items']} items"
        )
    lines.append(f"  error_rate   {full['failed'] / max(full['attempted'], 1):.6f}")
    lines += [f"  FAILURE {problem}" for problem in full["failures"]]
    return lines


def measure_untraced(
    name: str, seed: int, seconds: float, deadline: float
) -> tuple[dict[str, tuple[float, str]], dict[str, Any], list[str]]:
    runs = [
        workloads.spawn(
            {"name": name, "seed": seed, "setup_only": True}, deadline - time.monotonic()
        )
        for _ in range(SETUP_REPEATS - 1)
    ]
    full = workloads.spawn(
        {"name": name, "seed": seed, "seconds": seconds}, deadline - time.monotonic()
    )
    runs.append(full)
    return end_to_end_metrics(runs), full, describe(full)


def run_one(name: str, seed: int, seconds: float, traced: bool, record: Path) -> bool:
    """Measure one workload, print its report and JSON line; True if correct."""
    deadline = time.monotonic() + BUDGET_S
    if traced:
        trace_path = RESULTS_DIR / f"{name}-seed{seed}.trace.jsonl"
        outcome = trace.measure(name, seed, seconds, deadline, trace_path)
        metrics = outcome["metrics"]
        base, traced_pass, _ = outcome["passes"]
        correct, attempted, failed = (
            outcome["correct"], outcome["attempted"], outcome["failed"]
        )
        notes = describe(base) + trace.layer_table(traced_pass)
        notes.append(f"  spans written to {trace_path}")
    else:
        metrics, full, notes = measure_untraced(name, seed, seconds, deadline)
        correct, attempted, failed = full["correct"], full["attempted"], full["failed"]

    print(f"{name} seed={seed} seconds={seconds} {'traced' if traced else 'untraced'}:")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<40}{value:>16.6g} {unit}")
    print("\n".join(notes))

    record.parent.mkdir(parents=True, exist_ok=True)
    with record.open("a") as handle:
        entry = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: value for m, (value, _) in metrics.items()},
        }
        handle.write(json.dumps(entry) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m: {"value": value, "unit": unit} for m, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--record", type=Path, default=RESULTS_DIR / "runs.jsonl")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traced = bool(args.trace) or args.traced
    correct = True
    for name in names:
        correct &= run_one(name, args.seed, args.seconds, traced, args.record)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
