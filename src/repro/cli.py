"""Command-line entry point: regenerate any paper table or figure.

Usage::

    repro-experiments table1
    repro-experiments fig2 --quick
    repro-experiments all
    repro-experiments bench
    repro-experiments faults
    repro-experiments analyze --strict

``--quick`` shrinks trial counts for a fast sanity pass; the defaults match
the benchmark harness (see EXPERIMENTS.md for recorded outputs).

``bench`` measures the vectorized plane/batched kernels against their
scalar counterparts and writes ``BENCH_bulk.json``/``BENCH_table2.json``/
``BENCH_durability.json`` (into ``--output-dir``, or the working
directory).  ``--scheme NAME`` benches any single registered scheme
(``repro.schemes.registered_schemes()``) instead of the defaults,
exercising whichever capabilities it declares.

``faults`` runs the deterministic fault-injection suite
(:mod:`repro.stream.faults`): torn WAL tails, corrupted sealed segments,
partial snapshots, and plane-kernel failures, verifying the recovery
invariants end to end.  Exits non-zero if any scenario fails.

``cluster-faults`` runs the shard-cluster chaos suite
(:mod:`repro.cluster.faults`): SIGKILL mid-batch, hung workers, torn WAL
tails on restart, duplicate/late command delivery, and unrestartable
shards, asserting bit-identical recovery against a single-process
reference and honestly degraded answers.  Exits non-zero if any
scenario fails.

``cluster-bench`` measures the cluster itself -- shard-scaling ingest
throughput, crash-recovery time, and availability under faults -- and
publishes the report under the ``"cluster"`` key of
``BENCH_durability.json`` (creating the file if absent).

``hh-bench`` sweeps sketch space (the ``averages`` axis) over a zipf
stream and records heavy-hitter descent recall against the
paper-predicted error envelope, publishing the curve under the ``"hh"``
key of ``BENCH_table2.json`` (creating the file if absent).

``analyze`` runs the domain-aware static-analysis rules
(:mod:`repro.analysis`, rules R001-R012) over ``src/repro``; with
``--strict`` it exits non-zero on any violation outside the checked-in
baseline (``analysis-baseline.json``).  See ``docs/static-analysis.md``.

``slo`` drives the live SLO workload (ground-truth calibration plus a
traced inline-cluster round trip), evaluates the declarative objectives
of :mod:`repro.obs.slo` against the resulting snapshot and the
``BENCH_*.json`` documents in ``--bench-dir``, and publishes the report
under the ``"slo"`` key of ``BENCH_durability.json`` when
``--output-dir`` is given.  With ``--strict`` it exits non-zero when
any error budget is burned -- the CI gate.  ``--trace`` additionally
writes the stitched coordinator+worker trace.

``metrics`` runs a small deterministic workload through every
instrumented layer and prints the resulting registry snapshot
(``--format json`` or ``--format prometheus``); ``--require-golden
PATH`` exits non-zero when any instrument named in the golden list is
missing.  ``--trace out.jsonl`` (on ``bench``, ``faults``, and
``metrics``) writes Chrome-trace span events, one JSON object per line.
See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.experiments import (
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig567,
    run_table1,
    run_table2,
)
from repro.experiments.ablations import run_ablations

__all__ = ["main"]


def _quick_overrides(name: str) -> dict:
    return {
        "table1": {"batch": 20_000, "scalar_samples": 500, "min_seconds": 0.02},
        "table2": {"intervals": 100, "rm7_intervals": 3, "min_seconds": 0.02},
        "fig2": {"averages": 20, "trials": 5, "zipf_values": (0.0, 0.5, 1.0, 2.0)},
        "fig3": {"averages": 20, "trials": 3, "zipf_values": (0.0, 0.5, 1.0, 2.0)},
        "fig4": {"total_points": 5_000, "trials": 1, "queries": 10,
                 "zipf_values": (0.0, 1.0, 2.0)},
        "fig567": {"counter_budgets": (256, 1024), "trials": 1,
                   "max_segments": 2_000},
        "ablations": {},
    }[name]


EXPERIMENTS: dict[str, Callable] = {
    "table1": run_table1,
    "table2": run_table2,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig567": run_fig567,
    "ablations": run_ablations,
}


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments and print their tables."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of Rusu & Dobra, "
        "SIGMOD 2006.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            *EXPERIMENTS,
            "all",
            "bench",
            "faults",
            "cluster-faults",
            "cluster-bench",
            "hh-bench",
            "analyze",
            "metrics",
            "slo",
        ],
        help="which table/figure to regenerate ('bench' for the "
        "vectorized-kernel benchmark reports, 'faults' for the "
        "fault-injection suite, 'cluster-faults' for the shard-cluster "
        "chaos suite, 'cluster-bench' for the cluster scaling/recovery/"
        "availability report, 'hh-bench' for the heavy-hitter "
        "accuracy-vs-space curve, 'analyze' for the static-analysis "
        "gate, 'metrics' for the observability snapshot, 'slo' for the "
        "error-budget gate)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink trial counts for a fast sanity pass",
    )
    parser.add_argument(
        "--seed", type=int, default=20060627, help="master random seed"
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="also write each result as JSON into this directory",
    )
    parser.add_argument(
        "--scheme",
        default=None,
        help="bench only: a registered scheme name to bench instead of "
        "the defaults (see repro.schemes.registered_schemes())",
    )
    parser.add_argument(
        "--check-floors",
        action="store_true",
        help="bench only: exit non-zero when any workload's speedup "
        "drops below the floors recorded in the BENCH_bulk.json config, "
        "or any workload's counters are not bit-identical",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="analyze: exit non-zero on any non-baselined violation; "
        "slo: exit non-zero when any error budget is burned",
    )
    parser.add_argument(
        "--bench-dir",
        default=None,
        metavar="DIR",
        help="slo only: directory holding the BENCH_*.json documents "
        "the bench-sourced objectives read (default: the working "
        "directory)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="analyze only: refresh analysis-baseline.json from this scan",
    )
    parser.add_argument(
        "--path",
        action="append",
        default=None,
        help="analyze only: file/directory to scan (repeatable; defaults "
        "to src/repro)",
    )
    parser.add_argument(
        "--graph",
        default=None,
        metavar="PATH",
        dest="graph_path",
        help="analyze only: write the project call graph (JSON) to PATH",
    )
    parser.add_argument(
        "--why",
        default=None,
        metavar="FINGERPRINT",
        help="analyze only: print the evidence chain behind the finding "
        "with this fingerprint (a unique prefix is enough)",
    )
    parser.add_argument(
        "--diff",
        default=None,
        metavar="REF",
        dest="diff_ref",
        help="analyze only: report only findings on lines changed since "
        "the git ref (the pre-commit configuration)",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        dest="sarif_path",
        help="analyze only: also write the scan as a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default=None,
        dest="metrics_format",
        help="metrics only: exposition format for the registry snapshot "
        "(default: json)",
    )
    parser.add_argument(
        "--require-golden",
        default=None,
        metavar="PATH",
        help="metrics only: exit non-zero if any instrument named in "
        "this golden list (one name per line, '#' comments) is missing",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="bench/faults/metrics: write Chrome-trace span events to "
        "this JSONL file",
    )
    args = parser.parse_args(argv)

    analyze_flags = (
        args.write_baseline
        or args.path
        or args.graph_path
        or args.why
        or args.diff_ref
        or args.sarif_path
    )
    if analyze_flags and args.experiment != "analyze":
        parser.error(
            "--write-baseline/--path/--graph/--why/--diff/"
            "--sarif only apply to 'analyze'"
        )
    if args.strict and args.experiment not in ("analyze", "slo"):
        parser.error("--strict only applies to 'analyze' and 'slo'")
    if args.bench_dir and args.experiment != "slo":
        parser.error("--bench-dir only applies to 'slo'")
    if (
        args.metrics_format or args.require_golden
    ) and args.experiment != "metrics":
        parser.error("--format/--require-golden only apply to 'metrics'")
    if args.trace and args.experiment not in (
        "bench", "faults", "cluster-faults", "cluster-bench", "metrics",
        "slo",
    ):
        parser.error(
            "--trace only applies to 'bench', 'faults', 'cluster-faults', "
            "'cluster-bench', 'metrics' and 'slo'"
        )
    if args.experiment == "analyze":
        from repro.analysis.cli import run_analyze

        return run_analyze(
            paths=args.path,
            strict=args.strict,
            refresh_baseline=args.write_baseline,
            graph_path=args.graph_path,
            why=args.why,
            diff_ref=args.diff_ref,
            sarif_path=args.sarif_path,
        )

    collector = None
    if args.trace:
        from repro import obs

        collector = obs.TraceCollector()
        obs.set_trace_collector(collector)

    def _finish_trace() -> None:
        if collector is None:
            return
        from repro import obs

        obs.set_trace_collector(None)
        count = collector.write_jsonl(args.trace)
        print(f"trace: {args.trace} ({count} span events)", file=sys.stderr)

    if args.experiment == "metrics":
        import json as json_module

        from repro import obs
        from repro.obs.exposition import (
            exercise_all_layers,
            missing_instruments,
            read_golden_list,
        )

        snapshot = exercise_all_layers(seed=args.seed)
        _finish_trace()
        if (args.metrics_format or "json") == "prometheus":
            print(obs.snapshot_to_prometheus(snapshot), end="")
        else:
            print(
                json_module.dumps(
                    {"schema_version": 1, "instruments": snapshot},
                    indent=2,
                    sort_keys=True,
                )
            )
        if args.require_golden:
            missing = missing_instruments(
                snapshot, read_golden_list(args.require_golden)
            )
            if missing:
                print(
                    "missing golden instruments: " + ", ".join(missing),
                    file=sys.stderr,
                )
                return 1
        return 0

    if args.experiment == "slo":
        import json as json_module
        import os

        from repro import obs
        from repro.obs.slo import evaluate_slos, run_slo_workload

        obs.reset_metrics()
        snapshot = run_slo_workload(seed=args.seed)
        bench_dir = args.bench_dir or "."
        bench: dict = {}
        for key, filename in (
            ("durability", "BENCH_durability.json"),
            ("bulk", "BENCH_bulk.json"),
        ):
            bench_path = os.path.join(bench_dir, filename)
            if os.path.exists(bench_path):
                try:
                    with open(bench_path) as handle:
                        bench[key] = json_module.load(handle)
                except ValueError:
                    print(
                        f"warning: {bench_path} is not valid JSON; "
                        "bench-sourced objectives will be skipped",
                        file=sys.stderr,
                    )
        report = evaluate_slos(snapshot=snapshot, bench=bench)
        _finish_trace()
        print(report.to_text())
        if args.output_dir:
            os.makedirs(args.output_dir, exist_ok=True)
            path = os.path.join(args.output_dir, "BENCH_durability.json")
            data: dict = {}
            if os.path.exists(path):
                with open(path) as handle:
                    data = json_module.load(handle)
            data["slo"] = report.to_dict()
            with open(path, "w") as handle:
                json_module.dump(data, handle, indent=2)
                handle.write("\n")
            print(
                f"BENCH_durability.json: {path} (slo key updated)",
                file=sys.stderr,
            )
        if args.strict and not report.ok:
            print(
                f"slo gate FAILED: {len(report.burned)} budget(s) burned",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.scheme is not None and args.experiment != "bench":
        parser.error("--scheme only applies to the 'bench' experiment")
    if args.check_floors and args.experiment != "bench":
        parser.error("--check-floors only applies to the 'bench' experiment")
    if args.scheme is not None:
        from repro.schemes import get_spec

        try:
            get_spec(args.scheme)
        except Exception as exc:  # noqa: BLE001 -- UnknownSchemeError lists the registry
            parser.error(str(exc))

    if args.experiment == "faults":
        from repro.stream.faults import run_fault_suite

        results = run_fault_suite(seed=args.seed)
        _finish_trace()
        width = max(len(result.name) for result in results)
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status}  {result.name:<{width}}  {result.detail}")
        failed = sum(1 for result in results if not result.passed)
        print(
            f"\n{len(results) - failed}/{len(results)} fault scenarios passed"
        )
        return 1 if failed else 0

    if args.experiment == "cluster-faults":
        from repro.cluster.faults import run_cluster_fault_suite

        results = run_cluster_fault_suite(seed=args.seed)
        _finish_trace()
        width = max(len(result.name) for result in results)
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status}  {result.name:<{width}}  {result.detail}")
        failed = sum(1 for result in results if not result.passed)
        print(
            f"\n{len(results) - failed}/{len(results)} cluster fault "
            "scenarios passed"
        )
        return 1 if failed else 0

    if args.experiment == "cluster-bench":
        import json as json_module
        import os

        from repro import obs
        from repro.bench import run_cluster_bench

        overrides = (
            {"shard_counts": (1, 2), "points": 6_000, "batch": 500}
            if args.quick
            else {}
        )
        obs.reset_metrics()
        report = run_cluster_bench(**overrides)
        report["metrics"] = {
            "schema_version": 1,
            "instruments": obs.snapshot(),
        }
        output_dir = args.output_dir or "."
        os.makedirs(output_dir, exist_ok=True)
        path = os.path.join(output_dir, "BENCH_durability.json")
        data: dict = {}
        if os.path.exists(path):
            with open(path) as handle:
                data = json_module.load(handle)
        data["cluster"] = report
        with open(path, "w") as handle:
            json_module.dump(data, handle, indent=2)
            handle.write("\n")
        _finish_trace()
        print(f"BENCH_durability.json: {path} (cluster key updated)")
        for shards, entry in report["scaling"].items():
            print(
                f"  scaling {shards} shard(s): "
                f"{entry['points_per_second']:,.0f} points/s "
                f"(x{entry['speedup_vs_first']:.2f} vs first)"
            )
        recovery = report["recovery"]
        print(
            f"  recovery: {recovery['seconds'] * 1e3:.1f} ms to restart, "
            f"replay {recovery['replayed_commands']} commands, and rejoin"
        )
        availability = report["availability"]
        print(
            f"  availability: {availability['answers_served']}/"
            f"{availability['answers_attempted']} answers served "
            f"({availability['degraded_answers']} degraded) -> "
            f"{availability['availability']:.3f}"
        )
        return 0

    if args.experiment == "hh-bench":
        import json as json_module
        import os

        from repro import obs
        from repro.bench import run_hh_bench

        hh_overrides = (
            {"averages_sweep": (16, 32), "points": 6_000}
            if args.quick
            else {}
        )
        obs.reset_metrics()
        report = run_hh_bench(seed=args.seed, **hh_overrides)
        report["metrics"] = {
            "schema_version": 1,
            "instruments": obs.snapshot(),
        }
        output_dir = args.output_dir or "."
        os.makedirs(output_dir, exist_ok=True)
        path = os.path.join(output_dir, "BENCH_table2.json")
        data: dict = {}
        if os.path.exists(path):
            with open(path) as handle:
                data = json_module.load(handle)
        data["hh"] = report
        with open(path, "w") as handle:
            json_module.dump(data, handle, indent=2)
            handle.write("\n")
        _finish_trace()
        print(f"BENCH_table2.json: {path} (hh key updated)")
        for entry in report["curve"]:
            print(
                f"  averages={entry['averages']:>4}: "
                f"{entry['space_words']:,} words, "
                f"recall {entry['recall']:.3f}, "
                f"envelope {entry['predicted_leaf_envelope']:.1f}, "
                f"worst error {entry['worst_true_hitter_error']:.1f}"
            )
        return 0

    if args.experiment == "bench":
        import json as json_module

        from repro.bench import check_floors, write_bench_files

        overrides: dict = {}
        if args.quick:
            overrides = {
                "BENCH_bulk": {"intervals": 500, "points": 5_000, "repeats": 2},
                "BENCH_table2": {"intervals": 500, "repeats": 2},
                "BENCH_durability": {
                    "points": 5_000,
                    "intervals": 500,
                    "repeats": 2,
                },
            }
        if args.scheme is not None:
            # Any registered scheme is bench-selectable; each report
            # exercises whichever capabilities the scheme declares.
            overrides.setdefault("BENCH_bulk", {})["schemes"] = (args.scheme,)
            overrides.setdefault("BENCH_table2", {})["schemes"] = (args.scheme,)
            overrides.setdefault("BENCH_durability", {})["scheme"] = args.scheme
        written = write_bench_files(args.output_dir or ".", **overrides)
        _finish_trace()
        for name, path in written.items():
            print(f"{name}: {path}")
            with open(path) as handle:
                print(handle.read())
        if args.check_floors:
            with open(written["BENCH_bulk"]) as handle:
                problems = check_floors(json_module.load(handle))
            if problems:
                for problem in problems:
                    print(f"floor check FAILED: {problem}", file=sys.stderr)
                return 1
            print("floor check passed", file=sys.stderr)
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner = EXPERIMENTS[name]
        overrides = _quick_overrides(name) if args.quick else {}
        result = runner(seed=args.seed, **overrides)
        print(result.to_text())
        print()
        if args.output_dir:
            import os

            os.makedirs(args.output_dir, exist_ok=True)
            path = os.path.join(args.output_dir, f"{name}.json")
            with open(path, "w") as handle:
                handle.write(result.to_json() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
