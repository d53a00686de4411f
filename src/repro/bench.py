"""Measured throughput of the vectorized sketch plane and batched kernels.

Two machine-readable benchmark reports back the engineering claims of the
bulk layer:

* ``BENCH_bulk.json`` -- the packed counter plane
  (:mod:`repro.sketch.plane`) against the per-cell vectorized loops it
  replaces, on an interval-batch and a point-batch workload;
* ``BENCH_table2.json`` -- the batched range-sum kernels
  (:mod:`repro.rangesum.batched`) against their scalar counterparts, per
  scheme, in the Table 2 setting.

Both report nanoseconds per elementary operation plus the speedup over
the scalar path, and both verify the fast path produces bit-identical
counters/sums before timing anything.  ``python -m repro.cli bench``
regenerates the files; the pytest benchmarks reuse the same entry points.
"""

from __future__ import annotations

import json
import time
from typing import Callable

import numpy as np

__all__ = [
    "run_bulk_bench",
    "run_table2_bench",
    "run_durability_bench",
    "run_hh_bench",
    "check_floors",
    "write_bench_files",
]

# Top-level report keys owned by other subcommands; write_bench_files
# carries them over instead of erasing them on a core bench re-run.
_MERGED_BENCH_KEYS = ("cluster", "hh", "slo")

#: Regression floors enforced by ``repro-experiments bench --check-floors``:
#: per workload, the minimum acceptable plane-over-scalar speedup.
#: Written into the report's ``config.floors`` so the check runs against
#: the recorded config, not whatever the code says later.
#: ``quaternary_cover_batch`` is the broadcast cover against one scalar
#: ``minimal_quaternary_cover`` per interval: it measured 20-66x in
#: ``--quick`` mode (500 intervals) on a shared 2-core x86 VM, where the
#: per-level walk it replaced read 8-9x; 15x leaves >2x headroom below
#: the typical ~35x and still fails if planning slides back to that walk.
BULK_SPEEDUP_FLOORS: dict[str, float] = {
    "eh3_point_batch": 10.0,
    "quaternary_cover_batch": 15.0,
}


def _best_seconds(operation: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - start)
    return best


def _random_intervals(rng, domain_bits: int, count: int):
    lows = rng.integers(0, 1 << domain_bits, size=count, dtype=np.uint64)
    highs = rng.integers(0, 1 << domain_bits, size=count, dtype=np.uint64)
    return [
        (int(min(a, b)), int(max(a, b))) for a, b in zip(lows, highs)
    ]


def run_bulk_bench(
    medians: int = 7,
    averages: int = 100,
    domain_bits: int = 20,
    intervals: int = 2_000,
    points: int = 20_000,
    seed: int = 3,
    repeats: int = 3,
    schemes=None,
) -> dict:
    """Plane kernels vs the per-cell loops, on one sketch grid.

    The grid defaults to the paper's ``7 x 100`` stream-processor shape.
    Every comparison first asserts the two paths produce identical
    counters, then reports best-of-``repeats`` timings.

    ``schemes`` names registered schemes to bench (default: the paper's
    ``eh3``/``bch3`` comparison).  Workloads follow each scheme's
    declared capabilities: an interval batch when it has an
    ``interval_kind``, a point batch when its grid has a packed plane.
    Schemes with neither are reported under ``"skipped"`` with the
    plane's recorded reason instead of being silently dropped.  One
    scheme-free workload, ``quaternary_cover_batch``, times the batch's
    broadcast cover against the scalar cover per interval.
    """
    from repro.core.dyadic import minimal_quaternary_cover, quaternary_cover_arrays
    from repro.generators import SeedSource
    from repro.schemes import get_spec
    from repro.sketch import bulk
    from repro.sketch.ams import SketchScheme
    from repro.sketch.atomic import GeneratorChannel, points_total
    from repro.sketch.plane import plane_decision

    default = schemes is None
    names = ("eh3", "bch3") if default else tuple(schemes)

    rng = np.random.default_rng(seed)
    interval_batch = _random_intervals(rng, domain_bits, intervals)
    point_batch = rng.integers(
        0, 1 << domain_bits, size=points, dtype=np.uint64
    )
    weights = rng.integers(1, 10, size=intervals).astype(np.float64)

    report: dict = {
        "config": {
            "medians": medians,
            "averages": averages,
            "domain_bits": domain_bits,
            "intervals": intervals,
            "points": points,
            "repeats": repeats,
            "floors": BULK_SPEEDUP_FLOORS,
        },
        "workloads": {},
    }
    skipped: dict = {}

    def compare(name, percell_fn, plane_fn, grid, operations):
        baseline = grid.sketch()
        percell_fn(baseline)
        scalar_seconds = _best_seconds(
            lambda: percell_fn(grid.sketch()), repeats
        )
        fast = grid.sketch()
        plane_fn(fast)
        identical = np.array_equal(baseline.values(), fast.values())
        plane_seconds = _best_seconds(lambda: plane_fn(grid.sketch()), repeats)
        report["workloads"][name] = {
            "scalar_ns_per_op": scalar_seconds / operations * 1e9,
            "scalar_ms": scalar_seconds * 1e3,
            "plane_ns_per_op": plane_seconds / operations * 1e9,
            "plane_ms": plane_seconds * 1e3,
            "speedup": scalar_seconds / plane_seconds,
            "identical": bool(identical),
        }

    # -- interval-batch cover: one broadcast vs a scalar cover per interval
    alphas = np.asarray([low for low, _ in interval_batch], dtype=np.uint64)
    betas = np.asarray([high for _, high in interval_batch], dtype=np.uint64)

    def scalar_covers():
        return [
            (owner, piece.low, piece.level)
            for owner, (low, high) in enumerate(interval_batch)
            for piece in minimal_quaternary_cover(low, high)
        ]

    def broadcast_covers():
        cover = quaternary_cover_arrays(alphas, betas)
        return list(
            zip(cover.index.tolist(), cover.lows.tolist(), cover.levels.tolist())
        )

    identical = scalar_covers() == broadcast_covers()
    # Both sides take milliseconds: a few extra repeats steady the floored ratio.
    cover_repeats = max(repeats, 5)
    scalar_seconds = _best_seconds(scalar_covers, cover_repeats)
    cover_seconds = _best_seconds(
        lambda: quaternary_cover_arrays(alphas, betas), cover_repeats
    )
    report["workloads"]["quaternary_cover_batch"] = {
        "scalar_ns_per_op": scalar_seconds / intervals * 1e9,
        "scalar_ms": scalar_seconds * 1e3,
        "plane_ns_per_op": cover_seconds / intervals * 1e9,
        "plane_ms": cover_seconds * 1e3,
        "speedup": scalar_seconds / cover_seconds,
        "identical": identical,
    }

    for scheme_name in names:
        spec = get_spec(scheme_name)
        grid = SketchScheme.from_factory(
            lambda src: GeneratorChannel(spec.factory(domain_bits, src)),
            medians,
            averages,
            SeedSource(seed),
        )
        decision = plane_decision(grid)
        ran_any = False

        # -- interval batch: plane vs the per-cell counter loop ----------
        if spec.interval_kind == "quaternary":
            pieces = bulk.decompose_quaternary(interval_batch, weights)
            report["config"]["quaternary_pieces"] = int(pieces.lows.size)
            compare(
                f"{scheme_name}_interval_batch",
                lambda s: bulk.eh3_percell_interval_update(s, pieces),
                lambda s: bulk.eh3_bulk_interval_update(s, pieces),
                grid,
                intervals,
            )
            ran_any = True
        elif spec.interval_kind == "binary":
            binary_pieces = bulk.decompose_binary(interval_batch, weights)

            def binary_total(channel):
                # Mirrors the module's own per-channel fallback loop.
                generator = channel.generator
                alive = generator.alive_level_array()
                values = generator.values(binary_pieces.lows)
                scales = np.ldexp(
                    alive[binary_pieces.levels], binary_pieces.levels
                )
                return float(
                    np.dot(
                        values.astype(np.float64) * scales,
                        binary_pieces.weights,
                    )
                )

            def percell_binary(sketch):
                sketch.table += sketch.scheme.channel_totals(binary_total)

            compare(
                f"{scheme_name}_interval_batch",
                percell_binary,
                lambda s: bulk.bch3_bulk_interval_update(s, binary_pieces),
                grid,
                intervals,
            )
            ran_any = True

        # -- point batch: plane vs the per-cell vectorized loop ----------
        # The default report keeps the seed benchmark's shape: one point
        # workload (EH3's) alongside the two interval workloads.
        if decision.plane is not None and (
            not default or scheme_name == "eh3"
        ):
            def percell_points(sketch):
                sketch.table += sketch.scheme.channel_totals(
                    lambda channel: points_total(channel, point_batch)
                )

            compare(
                f"{scheme_name}_point_batch",
                percell_points,
                lambda s: bulk.bulk_point_update(s, point_batch),
                grid,
                points,
            )
            ran_any = True

        if not ran_any:
            skipped[scheme_name] = (
                decision.reason
                or "no interval decomposition and no packed plane"
            )

    if skipped:
        report["skipped"] = skipped
    return report


def check_floors(report: dict) -> list[str]:
    """Problems in a bulk-bench report, per its recorded speedup floors.

    Rejects any workload whose plane counters were not bit-identical to
    the scalar path, any workload named in ``config.floors`` (written by
    :func:`run_bulk_bench`) whose speedup is below its floor, and any
    floored workload missing from the report -- a floor that silently
    stops applying is itself a regression.  Returns human-readable
    problem strings; empty means the report passes.
    """
    problems: list[str] = []
    workloads = report.get("workloads", {})
    for name, entry in workloads.items():
        if not entry.get("identical", False):
            problems.append(
                f"{name}: plane counters are not bit-identical to the "
                "scalar path"
            )
    for name, floor in report.get("config", {}).get("floors", {}).items():
        entry = workloads.get(name)
        if entry is None:
            problems.append(
                f"floored workload {name!r} is missing from the report"
            )
            continue
        speedup = entry.get("speedup", 0.0)
        if speedup < floor:
            problems.append(
                f"{name}: speedup {speedup:.2f}x is below the {floor}x floor"
            )
    return problems


def run_table2_bench(
    domain_bits: int = 32,
    intervals: int = 2_000,
    seed: int = 20060627,
    repeats: int = 3,
    schemes=None,
) -> dict:
    """Batched range-sum kernels vs scalar loops, per scheme.

    The Table 2 setting (random intervals over ``2^domain_bits``), but
    measuring this implementation's batched numpy kernels against the
    scalar per-interval algorithms they vectorize.

    By default the report covers the seed benchmark's four cases (EH3,
    BCH3, and the DMAP interval/point baselines).  Pass ``schemes`` to
    bench explicit registered schemes instead: each needs both a scalar
    ``range_sum`` and a batched ``range_sums`` capability; schemes
    without them land in ``"skipped"`` with the missing capability named.
    """
    from repro.generators import SeedSource
    from repro.rangesum import DMAP
    from repro.schemes import get_spec
    from repro.schemes import range_sums as dispatch_range_sums

    source = SeedSource(seed)
    rng = np.random.default_rng(seed)
    batch = _random_intervals(rng, domain_bits, intervals)
    alphas = np.array([a for a, _ in batch], dtype=np.uint64)
    betas = np.array([b for _, b in batch], dtype=np.uint64)
    point_batch = rng.integers(
        0, 1 << domain_bits, size=intervals, dtype=np.uint64
    )
    points = [int(p) for p in point_batch]

    report: dict = {
        "config": {
            "domain_bits": domain_bits,
            "intervals": intervals,
            "repeats": repeats,
        },
        "schemes": {},
    }
    skipped: dict = {}
    cases: dict = {}
    dispatch_generators: dict = {}

    if schemes is None:
        eh3_spec = get_spec("eh3")
        bch3_spec = get_spec("bch3")
        eh3 = eh3_spec.factory(domain_bits, source)
        bch3 = bch3_spec.factory(domain_bits, source)
        dmap = DMAP.from_source(domain_bits, source)
        cases["EH3 (interval)"] = (
            lambda: [eh3_spec.range_sum(eh3, a, b) for a, b in batch],
            lambda: eh3_spec.range_sums(eh3, alphas, betas),
        )
        cases["BCH3 (interval)"] = (
            lambda: [bch3_spec.range_sum(bch3, a, b) for a, b in batch],
            lambda: bch3_spec.range_sums(bch3, alphas, betas),
        )
        dispatch_generators["EH3 (interval)"] = eh3
        dispatch_generators["BCH3 (interval)"] = bch3
        cases["DMAP (interval)"] = (
            lambda: [dmap.interval_contribution(a, b) for a, b in batch],
            lambda: dmap.interval_contributions(alphas, betas),
        )
        cases["DMAP (point)"] = (
            lambda: [dmap.point_contribution(p) for p in points],
            lambda: dmap.point_contributions(point_batch),
        )
    else:
        for scheme_name in schemes:
            spec = get_spec(scheme_name)
            if spec.range_sum is None or spec.range_sums is None:
                missing = (
                    "range_sum" if spec.range_sum is None else "range_sums"
                )
                skipped[scheme_name] = (
                    f"scheme {scheme_name!r} declares no {missing} capability"
                )
                continue
            generator = spec.factory(domain_bits, source)

            def scalar(spec=spec, generator=generator):
                return [spec.range_sum(generator, a, b) for a, b in batch]

            def batched(spec=spec, generator=generator):
                return spec.range_sums(generator, alphas, betas)

            cases[f"{scheme_name} (interval)"] = (scalar, batched)
            dispatch_generators[f"{scheme_name} (interval)"] = generator

    for name, (scalar, batched) in cases.items():
        identical = list(scalar()) == list(batched())
        generator = dispatch_generators.get(name)
        if generator is not None:
            # The public dispatch path must agree with the raw kernels
            # timed below; going through it here also lands the
            # schemes.dispatch.* counters in the report's metrics
            # snapshot without touching the timed loops.
            identical = identical and (
                list(dispatch_range_sums(generator, alphas, betas))
                == list(batched())
            )
        scalar_seconds = _best_seconds(scalar, repeats)
        batched_seconds = _best_seconds(batched, repeats)
        report["schemes"][name] = {
            "scalar_ns_per_op": scalar_seconds / intervals * 1e9,
            "batched_ns_per_op": batched_seconds / intervals * 1e9,
            "speedup": scalar_seconds / batched_seconds,
            "identical": bool(identical),
        }
    if skipped:
        report["skipped"] = skipped
    return report


def run_durability_bench(
    medians: int = 7,
    averages: int = 100,
    domain_bits: int = 20,
    points: int = 20_000,
    intervals: int = 2_000,
    batch: int = 500,
    seed: int = 3,
    repeats: int = 3,
    sync: str = "flush",
    scheme: str | None = None,
) -> dict:
    """WAL-on vs WAL-off ingestion cost on the paper's 7 x 100 grid.

    Measures :class:`~repro.stream.processor.StreamProcessor` end to end
    (validation front door included) with and without a write-ahead log,
    on batched point and interval workloads plus the per-record single
    point path.  Batched appends are group-committed -- one framed write
    and one flush per batch -- which is what keeps the durable overhead
    low.  Reports ns per elementary update and the WAL-on/WAL-off
    overhead ratio.

    ``scheme`` selects any registered scheme (default ``eh3``).  Interval
    workloads only run for schemes that can range-sum an interval in
    sub-linear time (a declared ``interval_kind`` or ``fast_range_sum``);
    otherwise they land in ``"skipped"`` rather than timing a brute-force
    enumeration of the domain.
    """
    import os
    import shutil
    import tempfile

    from repro.schemes import get_spec
    from repro.stream.durability import DurabilityConfig
    from repro.stream.processor import StreamProcessor

    spec = get_spec(scheme or "eh3")
    fast_intervals = spec.interval_kind is not None or spec.fast_range_sum

    rng = np.random.default_rng(seed)
    point_batches = [
        rng.integers(0, 1 << domain_bits, size=batch, dtype=np.uint64)
        for _ in range(points // batch)
    ]
    interval_batches = []
    for _ in range(intervals // batch + 1):
        lows = rng.integers(0, 1 << domain_bits, size=batch, dtype=np.uint64)
        highs = rng.integers(0, 1 << domain_bits, size=batch, dtype=np.uint64)
        interval_batches.append(
            np.stack(
                [np.minimum(lows, highs), np.maximum(lows, highs)], axis=1
            )
        )
    single_points = [
        int(p) for p in rng.integers(0, 1 << domain_bits, size=500)
    ]

    base = tempfile.mkdtemp(prefix="repro-durability-bench-")

    def fresh(durable: bool, tag: str) -> StreamProcessor:
        config = None
        if durable:
            directory = os.path.join(base, tag)
            shutil.rmtree(directory, ignore_errors=True)
            config = DurabilityConfig(directory=directory, sync=sync)
        processor = StreamProcessor(
            medians=medians,
            averages=averages,
            seed=seed,
            durability=config,
            scheme=scheme,
        )
        processor.register_relation("r", domain_bits)
        return processor

    def feed_points(processor):
        for batch_items in point_batches:
            processor.process_points("r", batch_items)
        processor.close()

    def feed_intervals(processor):
        for batch_intervals in interval_batches:
            processor.process_intervals("r", batch_intervals)
        processor.close()

    def feed_singles(processor):
        for item in single_points:
            processor.process_point("r", item)
        processor.close()

    workloads = {
        "point_batches": (feed_points, len(point_batches) * batch),
        "interval_batches": (
            feed_intervals,
            len(interval_batches) * batch,
        ),
        "single_points": (feed_singles, len(single_points)),
    }
    if not fast_intervals:
        del workloads["interval_batches"]
    report: dict = {
        "config": {
            "medians": medians,
            "averages": averages,
            "domain_bits": domain_bits,
            "batch": batch,
            "sync": sync,
            "repeats": repeats,
        },
        "workloads": {},
    }
    if not fast_intervals:
        report["skipped"] = {
            "interval_batches": (
                f"scheme {spec.name!r} cannot range-sum an interval in "
                "sub-linear time (no interval_kind, no fast_range_sum)"
            )
        }
    try:
        counter = [0]

        def timed(durable: bool, feeder) -> float:
            def run():
                counter[0] += 1
                feeder(fresh(durable, f"run-{counter[0]}"))

            return _best_seconds(run, repeats)

        for name, (feeder, operations) in workloads.items():
            off = timed(False, feeder)
            on = timed(True, feeder)
            report["workloads"][name] = {
                "wal_off_ns_per_op": off / operations * 1e9,
                "wal_on_ns_per_op": on / operations * 1e9,
                "overhead": on / off,
            }
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return report


def run_cluster_bench(
    shard_counts=(1, 2, 4),
    medians: int = 5,
    averages: int = 32,
    domain_bits: int = 16,
    points: int = 24_000,
    batch: int = 800,
    seed: int = 3,
) -> dict:
    """Shard-scaling throughput, recovery time, availability under faults.

    Three measurements over the supervised shard cluster
    (:mod:`repro.cluster`), all on real worker processes:

    * **scaling** -- end-to-end ingest throughput of the same point
      stream at each shard count in ``shard_counts`` (durable workers,
      pipelined commands, one flush at the end);
    * **recovery** -- wall-clock seconds from "worker is dead (SIGKILL)"
      to "worker restarted, WAL replayed, fingerprints verified, backlog
      resent" as measured around one :meth:`supervise` pass;
    * **availability** -- answers served while a shard is down and
      recovering: every query must return (degraded, never failing),
      and the report records how many were degraded.

    Published under the ``"cluster"`` key of ``BENCH_durability.json``
    by ``repro-experiments cluster-bench``.
    """
    import os
    import shutil
    import tempfile

    from repro.cluster import ClusterConfig, ClusterProcessor

    rng = np.random.default_rng(seed)
    batches = [
        rng.integers(0, 1 << domain_bits, size=batch, dtype=np.uint64)
        for _ in range(points // batch)
    ]
    total = sum(len(b) for b in batches)
    config = ClusterConfig(
        command_timeout=2.0,
        retries=3,
        backoff_base=0.01,
        heartbeat_interval=0.05,
        heartbeat_deadline=0.5,
        max_inflight=8,
    )
    report: dict = {
        "config": {
            "shard_counts": list(shard_counts),
            "medians": medians,
            "averages": averages,
            "domain_bits": domain_bits,
            "points": total,
            "batch": batch,
            "seed": seed,
            "transport": "process",
        },
        "scaling": {},
    }
    base = tempfile.mkdtemp(prefix="repro-cluster-bench-")
    try:
        for shards in shard_counts:
            directory = os.path.join(base, f"scale-{shards}")
            with ClusterProcessor(
                directory,
                shards=shards,
                medians=medians,
                averages=averages,
                seed=seed,
                config=config,
            ) as cluster:
                cluster.register_relation("r", domain_bits)
                start = time.perf_counter()
                for one in batches:
                    cluster.ingest_points("r", one)
                cluster.flush()
                elapsed = time.perf_counter() - start
            report["scaling"][str(shards)] = {
                "seconds": elapsed,
                "points_per_second": total / elapsed,
            }
        baseline = report["scaling"][str(shard_counts[0])]["points_per_second"]
        for entry in report["scaling"].values():
            entry["speedup_vs_first"] = entry["points_per_second"] / baseline

        shards = shard_counts[-1]
        directory = os.path.join(base, "recovery")
        with ClusterProcessor(
            directory,
            shards=shards,
            medians=medians,
            averages=averages,
            seed=seed,
            config=config,
        ) as cluster:
            cluster.register_relation("r", domain_bits)
            half = len(batches) // 2
            for one in batches[:half]:
                cluster.ingest_points("r", one)
            cluster.flush()
            cluster._shards[0].link.kill()
            start = time.perf_counter()
            cluster.supervise()  # detect, restart, replay WAL, resend
            recovery_seconds = time.perf_counter() - start
            restarts = cluster.stats()["shards"]["shard-0"]["restarts"]
        report["recovery"] = {
            "shards": shards,
            "replayed_commands": half,
            "seconds": recovery_seconds,
            "restarts": restarts,
        }

        directory = os.path.join(base, "availability")
        with ClusterProcessor(
            directory,
            shards=shards,
            medians=medians,
            averages=averages,
            seed=seed,
            config=config,
        ) as cluster:
            cluster.register_relation("r", domain_bits)
            handle = cluster.register_self_join("r")
            third = len(batches) // 3
            for one in batches[:third]:
                cluster.ingest_points("r", one)
            cluster.flush()
            cluster.answer(handle)  # prime the shipped-sketch caches
            attempted = served = degraded = 0
            cluster._shards[0].link.kill()
            for position, one in enumerate(batches[third:]):
                if position == 0:
                    # Query while the shard is dead, before any ingest
                    # has tripped recovery: must serve from the cache.
                    answer = cluster.answer(handle)
                    attempted += 1
                    served += 1
                    degraded += int(answer.degraded)
                cluster.ingest_points("r", one)
                if position % 4 == 3:
                    answer = cluster.answer(handle)
                    attempted += 1
                    served += 1
                    degraded += int(answer.degraded)
            cluster.flush()
        report["availability"] = {
            "answers_attempted": attempted,
            "answers_served": served,
            "degraded_answers": degraded,
            "availability": served / attempted if attempted else 1.0,
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return report


def run_hh_bench(
    averages_sweep=(16, 32, 64, 128),
    medians: int = 5,
    domain_bits: int = 12,
    points: int = 20_000,
    zipf: float = 1.3,
    threshold_fraction: float = 0.01,
    slack_multiplier: float = 2.0,
    seed: int = 7,
) -> dict:
    """Heavy-hitter accuracy vs sketch space on a zipf workload.

    One :class:`~repro.query.hierarchy.DyadicHierarchy` per ``averages``
    value in the sweep, all fed the same zipf stream.  Each point of the
    curve records the hierarchy's total counter space against descent
    quality at threshold ``threshold_fraction * n``: recall over the
    true hitters, the reported-set size, the paper-predicted leaf
    envelope (``sqrt(2/pi) * sqrt(F2 / averages)``) and the worst
    observed leaf error -- space buys accuracy exactly as the envelope
    predicts.  The descent prunes with ``slack_multiplier`` times the
    per-level predicted envelopes (see
    :meth:`DyadicHierarchy.heavy_hitters`).
    """
    from repro.generators import EH3, SeedSource
    from repro.query.hierarchy import DyadicHierarchy
    from repro.sketch.ams import SketchScheme

    rng = np.random.default_rng(seed)
    data = rng.zipf(zipf, size=points)
    data = data[data < (1 << domain_bits)].astype(np.uint64)
    counts = np.bincount(
        data.astype(np.int64), minlength=1 << domain_bits
    ).astype(np.float64)
    n = int(data.size)
    threshold = threshold_fraction * n
    true_hitters = np.nonzero(counts >= threshold)[0]
    report: dict = {
        "config": {
            "averages_sweep": list(averages_sweep),
            "medians": medians,
            "domain_bits": domain_bits,
            "points": n,
            "zipf": zipf,
            "threshold": threshold,
            "slack_multiplier": slack_multiplier,
            "seed": seed,
            "true_hitters": int(true_hitters.size),
        },
        "curve": [],
    }
    for averages in averages_sweep:
        scheme = SketchScheme.from_generators(
            lambda source: EH3.from_source(domain_bits, source),
            medians,
            averages,
            SeedSource(seed),
        )
        hierarchy = DyadicHierarchy(scheme, domain_bits)
        hierarchy.update_points(data)
        envelopes = hierarchy.predicted_envelopes()
        start = time.perf_counter()
        hitters = hierarchy.heavy_hitters(
            threshold, slack=[slack_multiplier * e for e in envelopes]
        )
        descent_seconds = time.perf_counter() - start
        found = {hitter.item for hitter in hitters}
        recalled = sum(1 for item in true_hitters if int(item) in found)
        leaf_estimates = hierarchy.estimate_blocks(0, true_hitters)
        worst_error = (
            float(np.abs(leaf_estimates - counts[true_hitters]).max())
            if true_hitters.size
            else 0.0
        )
        report["curve"].append(
            {
                "averages": averages,
                "space_words": hierarchy.levels * scheme.counters,
                "recall": (
                    recalled / true_hitters.size if true_hitters.size else 1.0
                ),
                "reported": len(found),
                "predicted_leaf_envelope": envelopes[0],
                "worst_true_hitter_error": worst_error,
                "descent_seconds": descent_seconds,
            }
        )
    return report


def write_bench_files(output_dir: str = ".", **overrides) -> dict[str, str]:
    """Run the benches and write ``BENCH_bulk.json`` / ``BENCH_table2.json``
    / ``BENCH_durability.json``.

    Returns the written paths keyed by report name.

    Each report carries a schema-versioned ``"metrics"`` key: the
    observability registry snapshot accumulated by that bench run alone
    (the registry is reset before each runner), so the reports record
    *what the benchmark actually exercised* -- covers decomposed, pieces
    deduplicated, WAL appends/fsyncs, plane-vs-fallback path counts --
    alongside its timings.

    Keys merged into these files by other subcommands (``cluster-bench``
    -> ``"cluster"``, ``hh-bench`` -> ``"hh"``, ``slo`` -> ``"slo"``) are
    carried over from the existing file, so re-running the core bench
    does not erase them.
    """
    import os

    from repro import obs

    os.makedirs(output_dir, exist_ok=True)
    written = {}
    for name, runner in (
        ("BENCH_bulk", run_bulk_bench),
        ("BENCH_table2", run_table2_bench),
        ("BENCH_durability", run_durability_bench),
    ):
        obs.reset_metrics()
        report = runner(**overrides.get(name, {}))
        report["metrics"] = {
            "schema_version": 1,
            "instruments": obs.snapshot(),
        }
        path = os.path.join(output_dir, f"{name}.json")
        if os.path.exists(path):
            try:
                with open(path) as handle:
                    previous = json.load(handle)
            except (OSError, ValueError):
                previous = {}
            for key in _MERGED_BENCH_KEYS:
                if key in previous and key not in report:
                    report[key] = previous[key]
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        written[name] = path
    return written
