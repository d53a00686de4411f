"""The four workloads and the closed loop that measures them.

Load model: one client in a closed loop.  The system under test is a
synchronous in-process library, so the next operation is issued the
moment the previous one returns and throughput equals service capacity.
Every workload runs one relation grid of the paper's stream processor:
EH3 channels, ``7 x 100`` counters, a 2^20 domain.

A workload process does, in order:

1. **prepare** -- draw the seeded inputs that exist before the program
   runs (pre-load arrays, Zipf tables).  ``repro`` is not imported yet.
2. **set-up** -- from the first ``import repro`` to the first timed op:
   construction, registration, pre-load, and one warm-up op that builds
   the lazy packed plane.  Reported as ``setup_s``.
3. **timed phase** -- seeded ops for ``seconds`` of wall time (or
   ``max_ops`` ops), in segments of about a second that hold whole
   cycles of the op mix.  Each op's inputs are drawn just before it
   runs, with the clock paused, and fed into an exact reference
   frequency vector.  Every 50th scalar query is checked, also with the
   clock paused.  Rates and latency medians are read from the quiet
   quarter of the segments (see :func:`across_segments`).
4. **read-back** -- after each segment, ingest-only workloads answer a
   burst of range-sum queries (off the ingest clock): the reads a caller
   makes while loading, spread over the run like the segments.
5. **verification** -- counter cells, recovery and program counters
   (see :mod:`e2e.verify`).

The workload seed only shapes the inputs: the program is built with
its own fixed master seed and receives nothing but the generated values.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from . import HERE, ROOT, SRC, WORK_DIR, use_source_tree, verify
from .trace import Tracer, install

MEDIANS = 7
AVERAGES = 100
DOMAIN_BITS = 20
DOMAIN = 1 << DOMAIN_BITS
#: The program's own master seed; the workload seed never reaches it.
SKETCH_SEED = 2006
#: Read-back queries after each timed segment of an ingest-only workload.
READBACK_BURST = 120

INGEST_KINDS = frozenset({"point", "interval", "points", "intervals"})
SCALAR_QUERY_KINDS = frozenset({"range_sum", "point_query", "join", "f2"})
HIERARCHY_KINDS = frozenset({"heavy_hitters", "quantile"})

_RUN_IDS = itertools.count()


@dataclass
class Op:
    """One closed-loop operation: the call, its size, its answer check."""

    kind: str
    call: Callable[[], Any]
    items: int = 0
    check: Callable[[Any], list[str]] | None = None


class ZipfSampler:
    """Items with ``P(rank k) ~ 1 / k^z``, ranks placed by a seeded shuffle."""

    def __init__(self, domain: int, z: float, rng: np.random.Generator) -> None:
        weights = np.arange(1, domain + 1, dtype=np.float64) ** -z
        self.cdf = np.cumsum(weights)
        self.cdf /= self.cdf[-1]
        self.placement = rng.permutation(domain).astype(np.uint64)
        self.rng = rng

    def sample(self, count: int) -> np.ndarray:
        ranks = np.searchsorted(self.cdf, self.rng.random(count), side="right")
        return self.placement[np.minimum(ranks, self.cdf.size - 1)]


class Frequencies:
    """The exact integer frequency vector of everything one relation got."""

    def __init__(self, domain: int) -> None:
        self.points = np.zeros(domain, dtype=np.int64)
        self.edges = np.zeros(domain + 1, dtype=np.int64)

    def add_points(self, items: np.ndarray, weight: int = 1) -> None:
        np.add.at(self.points, items.astype(np.int64), weight)

    def add_intervals(self, lows: np.ndarray, highs: np.ndarray) -> None:
        np.add.at(self.edges, lows.astype(np.int64), 1)
        np.add.at(self.edges, highs.astype(np.int64) + 1, -1)

    def vector(self) -> np.ndarray:
        return self.points + np.cumsum(self.edges[:-1])

    def total(self) -> int:
        return int(self.vector().sum())


def uniform_intervals(
    rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` intervals with independent uniform endpoints."""
    ends = rng.integers(0, DOMAIN, size=(2, count), dtype=np.int64)
    return ends.min(axis=0), ends.max(axis=0)


class Workload:
    """Shared shape of a workload; subclasses fill in the system and ops."""

    name = ""
    #: Relation name -> domain bits.
    relations: dict[str, int] = {"r": DOMAIN_BITS}
    #: True when the timed phase itself issues scalar queries.
    serves_queries = False
    #: Ops per segment: whole cycles of the op mix, about a second each.
    SEGMENT_OPS = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.workdir = workdir
        self.freq = {rel: Frequencies(1 << bits) for rel, bits in self.relations.items()}
        #: Elementary updates fed so far (set-up included): what recovery replays.
        self.fed = 0

    def prepare(self) -> None:
        """Draw the inputs that exist before the program is imported."""

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def readback(self) -> Iterator[Op]:
        """Range-sum queries on ``r`` with uniform endpoints, forever."""
        while True:
            lows, highs = uniform_intervals(self.rng, 1)
            yield self.range_sum_op("r", int(lows[0]), int(highs[0]))

    def close_ingest(self) -> float:
        """Seconds spent draining ingestion after the timed phase."""
        return 0.0

    def cell_states(self) -> Iterator[tuple[str, np.ndarray, Any, np.ndarray]]:
        """``(label, counter values, channel grid, frequencies)`` to check."""
        raise NotImplementedError

    def recover(self) -> tuple[float, list[str]] | None:
        """Close, recover from the WAL, compare; ``None`` without a WAL."""
        return None

    def close(self) -> None:
        """Release the system (idempotent)."""

    # -- scalar queries --------------------------------------------------

    def values_of(self, relation: str) -> np.ndarray:
        raise NotImplementedError

    def channels_of(self, relation: str) -> Any:
        raise NotImplementedError

    def query_op(self, kind: str, query: Any, args: tuple = ()) -> Op:
        """A scalar query through :meth:`answer`, checked against a reference."""
        return Op(kind, partial(self.answer, query), check=partial(self._check, kind, query, args))

    def range_sum_op(self, relation: str, low: int, high: int) -> Op:
        from repro.query.types import RangeSumQuery

        return self.query_op("range_sum", RangeSumQuery(relation, low, high), (low, high))

    def answer(self, query: Any) -> Any:
        raise NotImplementedError

    def _check(self, kind: str, query: Any, args: tuple, estimate: Any) -> list[str]:
        relation = getattr(query, "relation", None) or query.left
        values = self.values_of(relation)
        other = self.values_of(query.right) if kind == "join" else None
        reference = verify.reference_answer(
            "point" if kind == "point_query" else kind,
            values,
            self.channels_of(relation),
            args,
            other,
        )
        if estimate.value == reference:
            return []
        return [f"{kind} {query}: answer {estimate.value!r} != reference {reference!r}"]


class ProcessorWorkload(Workload):
    """A workload against one :class:`~repro.stream.processor.StreamProcessor`."""

    durable = True

    @property
    def wal_dir(self) -> Path:
        return self.workdir / "wal"

    def setup(self) -> None:
        from repro.query.types import PointQuery
        from repro.stream.durability import DurabilityConfig
        from repro.stream.processor import StreamProcessor

        durability = (
            DurabilityConfig(directory=str(self.wal_dir), sync="flush")
            if self.durable
            else None
        )
        self.processor = StreamProcessor(
            MEDIANS, AVERAGES, seed=SKETCH_SEED, scheme="eh3", durability=durability
        )
        for relation, bits in self.relations.items():
            self.processor.register_relation(relation, bits)
        self.load()
        self.processor.query(PointQuery("r", 0))  # builds the lazy packed plane

    def load(self) -> None:
        """Registrations and pre-load beyond the relations themselves."""

    def answer(self, query: Any) -> Any:
        return self.processor.query(query)

    def values_of(self, relation: str) -> np.ndarray:
        return self.processor.sketch_of(relation).values()

    def channels_of(self, relation: str) -> Any:
        return self.processor.scheme_of(relation).channels

    def cell_states(self) -> Iterator[tuple[str, np.ndarray, Any, np.ndarray]]:
        for relation in self.relations:
            yield (
                relation,
                self.values_of(relation),
                self.channels_of(relation),
                self.freq[relation].vector(),
            )

    def recover(self) -> tuple[float, list[str]] | None:
        if not self.durable:
            return None
        from repro.stream.processor import StreamProcessor

        live = {relation: self.values_of(relation) for relation in self.relations}
        self.processor.close()
        start = time.perf_counter()
        recovered = StreamProcessor.recover(str(self.wal_dir))
        seconds = time.perf_counter() - start
        failures = []
        for relation, values in live.items():
            failures += verify.check_recovery(
                f"recovered {relation}", values, recovered.sketch_of(relation).values()
            )
        recovered.close()
        return seconds, failures

    def close(self) -> None:
        processor = getattr(self, "processor", None)
        if processor is not None:
            processor.close()


class TupleIngest(ProcessorWorkload):
    """The paper's tuple-at-a-time model: one record per call, WAL on."""

    name = "tuple_ingest"
    SEGMENT_OPS = 4000
    INTERVAL_SHARE = 0.10
    DELETE_SHARE = 0.05
    MAX_INTERVAL = 1 << 16

    def ops(self) -> Iterator[Op]:
        processor, rng, freq = self.processor, self.rng, self.freq["r"]
        while True:
            draw = rng.random()
            item = int(rng.integers(0, DOMAIN))
            self.fed += 1
            if draw < self.INTERVAL_SHARE:
                high = min(item + int(rng.integers(0, self.MAX_INTERVAL)), DOMAIN - 1)
                freq.edges[item] += 1
                freq.edges[high + 1] -= 1
                yield Op("interval", partial(processor.process_interval, "r", item, high), 1)
            else:
                weight = -1 if draw < self.INTERVAL_SHARE + self.DELETE_SHARE else 1
                freq.points[item] += weight
                yield Op(
                    "point", partial(processor.process_point, "r", item, float(weight)), 1
                )


class BatchIngest(ProcessorWorkload):
    """Batched ingest: three Zipf point batches to one interval batch, WAL on."""

    name = "batch_ingest"
    SEGMENT_OPS = 256
    POINT_BATCH = 4096
    INTERVAL_BATCH = 512

    def prepare(self) -> None:
        self.zipf = ZipfSampler(DOMAIN, 1.2, self.rng)

    def ops(self) -> Iterator[Op]:
        processor, freq = self.processor, self.freq["r"]
        for turn in itertools.count():
            if turn % 4 == 3:
                lows, highs = uniform_intervals(self.rng, self.INTERVAL_BATCH)
                freq.add_intervals(lows, highs)
                self.fed += self.INTERVAL_BATCH
                batch = np.stack([lows, highs], axis=1)
                yield Op(
                    "intervals",
                    partial(processor.process_intervals, "r", batch),
                    self.INTERVAL_BATCH,
                )
            else:
                items = self.zipf.sample(self.POINT_BATCH)
                freq.add_points(items)
                self.fed += self.POINT_BATCH
                yield Op("points", partial(processor.process_points, "r", items), items.size)


class QueryServing(ProcessorWorkload):
    """Reads next to writes on pre-loaded relations; no WAL."""

    name = "query_serving"
    relations = {"r": DOMAIN_BITS, "s": DOMAIN_BITS, "h": 16}
    serves_queries = True
    durable = False
    PRELOAD = 200_000
    HIERARCHY_PRELOAD = 60_000
    WRITE = 64
    HIERARCHY_EVERY = 400
    SEGMENT_OPS = HIERARCHY_EVERY
    #: One shuffled block of 100 ops.  Writes are a quarter of the ops so
    #: the ingest p99 has ten samples beyond it in a 10 s run, and r-writes
    #: are the majority so the ingest median sits inside one latency mode.
    BLOCK = (
        ["range_sum"] * 45 + ["point_query"] * 20 + ["join"] * 5 + ["f2"] * 5
        + ["write_r"] * 15 + ["write_h"] * 10
    )

    def prepare(self) -> None:
        self.zipf = ZipfSampler(DOMAIN, 1.2, self.rng)
        self.hzipf = ZipfSampler(1 << self.relations["h"], 1.3, self.rng)
        self.preload = {
            "r": self.zipf.sample(self.PRELOAD),
            "s": self.zipf.sample(self.PRELOAD),
            "h": self.hzipf.sample(self.HIERARCHY_PRELOAD),
        }

    def load(self) -> None:
        self.processor.register_hierarchy("h")
        for relation, items in self.preload.items():
            self.processor.process_points(relation, items)
            self.freq[relation].add_points(items)
            self.fed += items.size

    def ops(self) -> Iterator[Op]:
        from repro.query.types import (
            F2Query,
            HeavyHittersQuery,
            JoinSizeQuery,
            PointQuery,
            QuantileQuery,
        )

        processor, rng = self.processor, self.rng
        count = 0
        while True:
            for kind in map(str, rng.permutation(self.BLOCK)):
                count += 1
                if count % self.HIERARCHY_EVERY == 0:
                    count += 1
                    if (count // self.HIERARCHY_EVERY) % 2:
                        threshold = 0.01 * self.freq["h"].total()
                        query = HeavyHittersQuery("h", threshold)
                        yield Op("heavy_hitters", partial(processor.query, query))
                    else:
                        query = QuantileQuery("h", float(rng.uniform(0.1, 0.9)))
                        yield Op("quantile", partial(processor.query, query))
                if kind == "range_sum":
                    lows, highs = uniform_intervals(rng, 1)
                    yield self.range_sum_op("r", int(lows[0]), int(highs[0]))
                elif kind == "point_query":
                    item = int(rng.integers(0, DOMAIN))
                    yield self.query_op(kind, PointQuery("r", item), (item,))
                elif kind == "join":
                    yield self.query_op(kind, JoinSizeQuery("r", "s"))
                elif kind == "f2":
                    yield self.query_op(kind, F2Query("r"))
                else:
                    relation = "r" if kind == "write_r" else "h"
                    sampler = self.zipf if relation == "r" else self.hzipf
                    items = sampler.sample(self.WRITE)
                    self.freq[relation].add_points(items)
                    self.fed += items.size
                    yield Op(
                        "points", partial(processor.process_points, relation, items), items.size
                    )

    def cell_states(self) -> Iterator[tuple[str, np.ndarray, Any, np.ndarray]]:
        yield from super().cell_states()
        hierarchy = self.processor.hierarchy_of("h")
        frequencies = self.freq["h"].vector()
        for level in range(hierarchy.levels):
            sketch = hierarchy.sketch_at(level)
            yield (
                f"h level {level}",
                sketch.values(),
                sketch.scheme.channels,
                verify.level_frequencies(frequencies, level),
            )


class ClusterInline(Workload):
    """A 2-shard cluster over the inline transport: routing, framing, merge."""

    name = "cluster_inline"
    serves_queries = True
    SHARDS = 2
    BATCH = 1024
    #: One query every ``QUERY_EVERY`` ops, cycling through ``QUERY_KINDS``.
    #: A 1-in-4 share gives the query p99 ten samples beyond it in a 10 s
    #: run; two range-sums per F2 keep the query median inside one mode.
    QUERY_EVERY = 4
    QUERY_KINDS = ("range_sum", "range_sum", "f2")
    SEGMENT_OPS = 40 * QUERY_EVERY * len(QUERY_KINDS)

    def prepare(self) -> None:
        self.zipf = ZipfSampler(DOMAIN, 1.2, self.rng)
        self.warm_items = self.zipf.sample(self.BATCH)

    @property
    def directory(self) -> Path:
        return self.workdir / "cluster"

    def setup(self) -> None:
        from repro.cluster import ClusterProcessor
        from repro.query.types import RangeSumQuery

        self.cluster = ClusterProcessor(
            str(self.directory),
            shards=self.SHARDS,
            seed=SKETCH_SEED,
            scheme="eh3",
            transport="inline",
        )
        self.cluster.register_relation("r", DOMAIN_BITS)
        self.cluster.ingest_points("r", self.warm_items)
        self.freq["r"].add_points(self.warm_items)
        self.fed += self.warm_items.size
        self.cluster.query(RangeSumQuery("r", 0, DOMAIN - 1))

    def ops(self) -> Iterator[Op]:
        from repro.query.types import F2Query

        kinds = itertools.cycle(self.QUERY_KINDS)
        for turn in itertools.count(1):
            if turn % self.QUERY_EVERY == 0:
                kind = next(kinds)
                if kind == "f2":
                    yield self.query_op(kind, F2Query("r"))
                else:
                    lows, highs = uniform_intervals(self.rng, 1)
                    yield self.range_sum_op("r", int(lows[0]), int(highs[0]))
            else:
                items = self.zipf.sample(self.BATCH)
                self.freq["r"].add_points(items)
                self.fed += items.size
                yield Op("points", partial(self.cluster.ingest_points, "r", items), items.size)

    def close_ingest(self) -> float:
        start = time.perf_counter()
        self.cluster.flush()
        return time.perf_counter() - start

    def answer(self, query: Any) -> Any:
        return self.cluster.query(query)

    def values_of(self, relation: str) -> np.ndarray:
        return self.cluster.merged_sketch(relation).values()

    def channels_of(self, relation: str) -> Any:
        return self.cluster.merged_sketch(relation).scheme.channels

    def cell_states(self) -> Iterator[tuple[str, np.ndarray, Any, np.ndarray]]:
        merged = self.cluster.merged_sketch("r")
        yield "merged r", merged.values(), merged.scheme.channels, self.freq["r"].vector()

    def recover(self) -> tuple[float, list[str]] | None:
        from repro.stream.processor import StreamProcessor

        # The inline transport keeps each shard's processor in-process.
        live = [shard.link.server.processor.sketch_of("r").values() for shard in self.cluster]
        self.close()
        seconds = 0.0
        failures = []
        for sid, values in enumerate(live):
            start = time.perf_counter()
            recovered = StreamProcessor.recover(str(self.directory / f"shard-{sid:03d}"))
            seconds += time.perf_counter() - start
            failures += verify.check_recovery(
                f"recovered shard {sid}", values, recovered.sketch_of("r").values()
            )
            recovered.close()
        return seconds, failures

    def close(self) -> None:
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            self.cluster = None
            cluster.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TupleIngest, BatchIngest, QueryServing, ClusterInline)
}


# -- the closed loop -------------------------------------------------------------


class Segment:
    """A stretch of consecutive ops: the unit the run's statistics are taken over."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.ops = 0
        self.items = 0
        self.ingest_s = 0.0
        self.wall_s = 0.0

    def samples(self, kinds: frozenset[str]) -> list[float]:
        return [x for kind in kinds for x in self.latencies.get(kind, ())]


class Ledger:
    """What one driven phase did, segment by segment, and what failed."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        self.queries = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.failures += problems

    def total(self, field: str) -> float:
        return sum(getattr(segment, field) for segment in self.segments)


def drive(
    ops: Iterator[Op],
    ledger: Ledger,
    segment_ops: int,
    seconds: float | None = None,
    max_ops: int | None = None,
    tracer: Tracer | None = None,
    between: Callable[[], None] | None = None,
) -> None:
    """Run ops back to back until ``seconds`` of op wall time or ``max_ops``.

    Ops are grouped into segments of ``segment_ops``; ``between`` runs
    after each segment, off the clock.  Drawing an op's inputs and
    checking an answer pause the clock too, so a segment's wall holds
    only the program's work and the loop around it.
    """
    clock = time.perf_counter
    elapsed = 0.0
    count = 0
    while (seconds is None or elapsed < seconds) and (max_ops is None or count < max_ops):
        segment = Segment()
        ledger.segments.append(segment)
        start = clock()
        paused = 0.0
        while segment.ops < segment_ops and (max_ops is None or count < max_ops):
            drawn = clock()
            op = next(ops)
            begin = clock()
            paused += begin - drawn
            if tracer is not None:
                tracer.begin_op(count)
            try:
                result = op.call()
            except Exception as exc:  # noqa: BLE001 -- a failed op is counted; the loop goes on
                result = exc
            end = clock()
            if tracer is not None:
                tracer.end_op()
            count += 1
            segment.ops += 1
            latency = end - begin
            segment.latencies[op.kind].append(latency)
            if op.kind in INGEST_KINDS:
                segment.items += op.items
                segment.ingest_s += latency
            if isinstance(result, Exception):
                ledger.fail([f"{op.kind} raised {result!r}"])
            elif op.check is not None:
                ledger.queries += 1
                if ledger.queries % verify.CHECK_EVERY == 1:
                    problems = op.check(result)
                    if problems:
                        ledger.fail(problems)
                    paused += clock() - end
            segment.wall_s = end - start - paused
            if seconds is not None and elapsed + segment.wall_s >= seconds:
                break
        elapsed += segment.wall_s
        if between is not None:
            between()


def _percentile_us(samples: list[float], q: float) -> float | None:
    return float(np.percentile(samples, q)) * 1e6 if samples else None


#: Percentile over segments that rates and latencies report: the quiet quarter.
QUIET_RATE = 75
QUIET_LATENCY = 25


def across_segments(
    segments: list[Segment], value: Callable[[Segment], float | None], q: float
) -> float:
    """The ``q``-th percentile over segments of a per-segment value.

    Contention on a shared host comes in episodes of a second or more
    that can cover half a run.  Reading the quiet quarter of ~1 s
    segments -- the 75th percentile of rates, the 25th of latency
    medians -- measures the program's own speed through them, the way a
    best-of-N timing does.  ``None`` values are skipped.
    """
    values = [v for v in map(value, segments) if v is not None]
    return float(np.percentile(values, q)) if values else 0.0


def latency_summary(segments: list[Segment], kinds: frozenset[str]) -> dict[str, float]:
    """Quiet-quarter segment median, whole-run p99, sample count (us)."""
    samples = [x for segment in segments for x in segment.samples(kinds)]
    return {
        "n": len(samples),
        "p50_us": across_segments(
            segments,
            lambda segment: _percentile_us(segment.samples(kinds), 50),
            QUIET_LATENCY,
        ),
        "p99_us": _percentile_us(samples, 99) or 0.0,
    }


#: Program counters whose timed-phase deltas feed the per-layer ledger.
PHASE_COUNTERS = (
    "durability.wal.bytes_total",
    "sketch.bulk.pieces_total",
    "sketch.bulk.pieces_deduped_total",
    "cluster.command.retries_total",
)


def _counter_deltas(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    return {
        name: float(after.get(name, {}).get("value", 0.0))
        - float(before.get(name, {}).get("value", 0.0))
        for name in PHASE_COUNTERS
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float | None = None,
    max_ops: int | None = None,
    *,
    readback: int = READBACK_BURST,
    setup_only: bool = False,
    traced: bool = False,
    obs_enabled: bool = True,
    recover: bool = True,
    trace_path: str | None = None,
) -> dict[str, Any]:
    """Run one workload in this process and return its measurements.

    ``seconds`` bounds the timed phase by wall time, ``max_ops`` by op
    count (the self-test passes small counts here).  ``traced`` wraps
    the layer entry points (:mod:`e2e.trace`); ``obs_enabled=False``
    switches the program's own instrumentation off.
    """
    workdir = WORK_DIR / f"{name}-{os.getpid()}-{next(_RUN_IDS)}"
    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    use_source_tree()
    start = time.perf_counter()  # setup_s runs from the first import of repro
    from repro import obs

    previous = obs.set_enabled(obs_enabled)
    tracer = Tracer() if traced else None
    restore = None
    try:
        if tracer is not None:
            restore = install(tracer)
        before_setup = obs.snapshot()
        workload.setup()
        result: dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "setup_s": time.perf_counter() - start,
        }
        if setup_only:
            return result

        phase = Ledger()
        reads = Ledger()
        readback_burst = None
        if readback and not workload.serves_queries:
            queries = workload.readback()
            readback_burst = partial(drive, queries, reads, readback, max_ops=readback)
        before_phase = obs.snapshot()
        drive(
            workload.ops(),
            phase,
            workload.SEGMENT_OPS,
            seconds,
            max_ops,
            tracer,
            between=readback_burst,
        )
        phase.segments[-1].ingest_s += workload.close_ingest()
        counters = _counter_deltas(before_phase, obs.snapshot())
        rss = peak_rss_mb()

        problems: list[str] = []
        sample = verify.cell_sample(seed, MEDIANS, AVERAGES)
        for label, values, channels, frequencies in workload.cell_states():
            problems += verify.check_cells(label, values, channels, frequencies, sample)
        recovery = workload.recover() if recover else None
        if recovery is not None:
            problems += recovery[1]
        if obs_enabled:
            problems += verify.check_counters(before_setup, obs.snapshot())

        # Statistics run over whole segments; a short final one is left out.
        segments = [
            s for s in phase.segments if s.ops * 2 >= workload.SEGMENT_OPS
        ] or phase.segments
        queries_from = segments if workload.serves_queries else reads.segments
        latency = {
            "ingest": latency_summary(segments, INGEST_KINDS),
            "query": latency_summary(queries_from, SCALAR_QUERY_KINDS),
            "hierarchy": latency_summary(segments, HIERARCHY_KINDS),
        }
        for kind in SCALAR_QUERY_KINDS:
            summary = latency_summary(queries_from, frozenset({kind}))
            if summary["n"]:
                latency[kind] = summary

        attempted = int(phase.total("ops") + reads.total("ops"))
        failed = min(attempted, phase.failed + reads.failed + len(problems))
        result.update(
            {
                "ops": int(phase.total("ops")),
                "wall_s": phase.total("wall_s"),
                "segment_wall_s": [segment.wall_s for segment in phase.segments],
                "ops_per_s": across_segments(
                    segments,
                    lambda segment: segment.ops / segment.wall_s,
                    QUIET_RATE,
                ),
                "ingest_items_per_s": across_segments(
                    segments,
                    lambda segment: segment.items / segment.ingest_s
                    if segment.ingest_s
                    else None,
                    QUIET_RATE,
                ),
                "ingest_items": int(phase.total("items")),
                "readback_ops": int(reads.total("ops")),
                "latency": latency,
                "peak_rss_mb": rss,
                "recovery": None
                if recovery is None
                else {"seconds": recovery[0], "items": workload.fed},
                "counters": counters,
                "attempted": attempted,
                "failed": failed,
                "correct": failed == 0,
                "failures": (phase.failures + reads.failures + problems)[:20],
            }
        )
        if tracer is not None:
            result["trace"] = tracer.summary()
            if trace_path is not None:
                tracer.write_chrome_trace(trace_path)
        return result
    finally:
        workload.close()
        if restore is not None:
            restore()
        obs.set_enabled(previous)
        shutil.rmtree(workdir, ignore_errors=True)


# -- child processes ----------------------------------------------------------


def child_main() -> None:
    """Entry of a workload process: spec JSON on stdin, result JSON on stdout."""
    spec = json.loads(sys.stdin.read())
    print(json.dumps(run_workload(**spec)))


def spawn(spec: dict[str, Any], timeout: float) -> dict[str, Any]:
    """Run :func:`run_workload` in a fresh interpreter and wait for it.

    The child is killed and reaped if it outlives ``timeout`` seconds.
    """
    paths = [str(HERE.parent), str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    completed = subprocess.run(
        [sys.executable, "-c", "from e2e.workloads import child_main; child_main()"],
        input=json.dumps(spec),
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=max(timeout, 1.0),
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"workload process for {spec.get('name')} exited with "
            f"{completed.returncode}"
        )
    return json.loads(lines[-1])
