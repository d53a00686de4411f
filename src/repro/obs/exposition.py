"""Exposition support: the exercise workload and golden-list checks.

Instruments are created lazily, on first use -- an idle process exposes
an empty registry.  The ``repro-experiments metrics`` subcommand
therefore runs :func:`exercise_all_layers` first: a small, deterministic
workload that drives every instrumented layer (stream ingestion and
validation, a quarantined plane failure, WAL + snapshot durability, recovery,
the packed plane kernels, scheme range-sum dispatch, a small inline
shard cluster, and one static-analysis scan) so the snapshot it prints
covers the full instrument catalogue.

CI keeps that catalogue honest with a *golden list*
(``tests/metrics_golden.txt``): :func:`missing_instruments` compares a
snapshot against the list, and ``metrics --require-golden`` exits
non-zero when an instrument disappears -- the regression this catches is
someone refactoring a hot path and silently dropping its telemetry.

This module imports the stream and scheme layers, so it lives outside
``repro.obs.__init__`` (which must stay stdlib-only) and is imported
lazily by the CLI.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any, Iterable

from repro import obs
from repro.generators.seeds import SeedSource

__all__ = [
    "exercise_all_layers",
    "missing_instruments",
    "read_golden_list",
]


def exercise_all_layers(seed: int = 20060627) -> dict[str, dict[str, Any]]:
    """Touch every instrumented layer once; returns the snapshot.

    Deterministic for a fixed ``seed`` (counter values replay exactly;
    durations follow the real clock unless a fake one is injected).  The
    durable state lives in a temporary directory that is removed before
    returning.
    """
    from repro.schemes import (
        get_spec,
        range_sum,
        range_sums,
        registered_schemes,
    )
    from repro.stream.durability import DurabilityConfig
    from repro.stream.faults import breaking_plane
    from repro.stream.processor import StreamProcessor

    directory = tempfile.mkdtemp(prefix="repro-metrics-")
    try:
        config = DurabilityConfig(
            directory=os.path.join(directory, "wal"), sync="fsync"
        )
        with StreamProcessor(
            medians=3,
            averages=4,
            seed=seed,
            policy="quarantine",
            durability=config,
        ) as processor:
            processor.register_relation("stream", 12)
            processor.register_hierarchy("stream")
            processor.process_points("stream", list(range(64)))
            processor.process_intervals(
                "stream", [(0, 1023), (16, 255)], weights=[1.0, 2.0]
            )
            processor.process_point("stream", 5)
            processor.process_interval("stream", 3, 300)
            processor.process_point("stream", -1)  # -> quarantine
            with breaking_plane(processor, "stream", fail_after=0):
                processor.process_points("stream", [1, 2, 3])  # -> apply-failed
            from repro.query.types import (
                F2Query,
                JoinSizeQuery,
                PointQuery,
                QuantileQuery,
                RangeSumQuery,
            )

            processor.query(PointQuery("stream", 5))
            processor.query(RangeSumQuery("stream", 10, 200))
            processor.query(F2Query("stream"))
            processor.query(JoinSizeQuery("stream", "stream"))
            processor.query(QuantileQuery("stream", 0.5))
            processor.heavy_hitters("stream", threshold=2.0)
            processor.checkpoint()
            processor.process_points("stream", [7, 9])  # replays on recover
        StreamProcessor.recover(config).close()
        clamping = StreamProcessor(
            medians=3, averages=4, seed=seed, policy="clamp"
        )
        clamping.register_relation("clamped", 8)
        clamping.process_point("clamped", 999)  # -> clamped into domain
        for name in registered_schemes():
            generator = get_spec(name).factory(8, SeedSource(seed))
            range_sum(generator, 3, 17)
            range_sums(generator, [0, 8], [7, 15])
        from repro.cluster import ClusterConfig, ClusterProcessor

        # The cluster leg runs under a trace collector so the worker
        # span-shipping/stitching path (obs.trace.remote.*) is
        # exercised; an already-installed collector (``--trace``) is
        # reused, a throwaway one is swapped in otherwise.
        collector = obs.trace_collector()
        installed = None
        if collector is None:
            installed = obs.TraceCollector()
            obs.set_trace_collector(installed)
        try:
            with ClusterProcessor(
                os.path.join(directory, "cluster"),
                shards=2,
                medians=3,
                averages=4,
                seed=seed,
                transport="inline",
                config=ClusterConfig(heartbeat_interval=0.0),
            ) as cluster:
                cluster.register_relation("cluster", 8)
                handle = cluster.register_self_join("cluster")
                cluster.ingest_points("cluster", list(range(32)))
                cluster.ingest_intervals("cluster", [(0, 255), (16, 63)])
                cluster.supervise()
                cluster.answer(handle)
        finally:
            if installed is not None:
                obs.set_trace_collector(None)
        from repro.obs.calibration import run_calibration_workload
        from repro.obs.slo import evaluate_slos

        # A trimmed calibration pass plus one SLO evaluation so the
        # query.calibration.* and slo.* instruments are present.
        run_calibration_workload(
            seed,
            schemes=("eh3",),
            medians=3,
            averages=8,
            domain_bits=8,
            points=800,
            range_queries=2,
            point_queries=2,
        )
        evaluate_slos()
        from repro.analysis import analyze_project

        # One tiny in-memory scan so the analysis.* instruments (run
        # counts, call-graph sizes, per-rule findings) are present.
        analyze_project(
            {
                "src/repro/apps/_metrics_probe.py": (
                    "import time\n"
                    "from repro.generators.eh3 import EH3\n"
                    "\n"
                    "def probe():\n"
                    "    return EH3(time.time_ns())\n"
                )
            }
        )
        return obs.snapshot()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def read_golden_list(path: str) -> list[str]:
    """Instrument names from a golden-list file (one per line).

    Blank lines and ``#`` comments are ignored.
    """
    names: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            name = line.split("#", 1)[0].strip()
            if name:
                names.append(name)
    return names


def missing_instruments(
    snapshot: dict[str, Any], required: Iterable[str]
) -> list[str]:
    """Required instrument names absent from ``snapshot``, sorted."""
    return sorted(name for name in required if name not in snapshot)
