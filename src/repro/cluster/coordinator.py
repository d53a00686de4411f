"""The supervised shard cluster: partition, replicate seeds, stay up.

:class:`ClusterProcessor` partitions a relation's key space across N
shard workers, each a durable
:class:`~repro.stream.processor.StreamProcessor` with its own WAL
directory, and supervises them so the *cluster* keeps the stream
layer's guarantees even when individual workers crash, hang, or fall
behind:

* **Exactly-once ingestion.**  Every mutating command carries a
  per-shard index that the worker's own WAL doubles as a dedup cursor
  for (:mod:`repro.cluster.protocol`), so per-command timeouts with
  jittered exponential retry, duplicate delivery, and crash-replay all
  collapse to at-most-one application per command.
* **Crash recovery.**  A dead worker is restarted from its durability
  directory (WAL replay is bit-identical by the stream layer's
  guarantees), its scheme fingerprints are re-verified against the
  coordinator's reference scheme before its sketch may rejoin the
  aggregate, and every command it never acknowledged is resent.  A
  worker that comes back *missing* acknowledged updates raises
  :class:`~repro.cluster.errors.ShardLostDataError` instead of quietly
  shrinking the stream.
* **Liveness.**  :meth:`supervise` heartbeats every shard against a
  deadline; a hung worker (alive but silent) is killed and restarted.
  Ingestion applies backpressure when a shard's unacknowledged queue or
  quarantine depth crosses a watermark, and escalates a stalled queue
  to a restart rather than buffering forever.
* **Degraded answers.**  :meth:`answer` never fails because a shard is
  down: surviving shards are merged fresh, recovering shards are served
  from their last shipped sketch (marked stale), and the reply is a
  :class:`ClusterAnswer` carrying the live coverage fraction, staleness,
  and a widened error bound -- with every degradation recorded as an
  :class:`~repro.stream.validation.Incident` and on ``cluster.*``
  metrics.

Because the paper's sketches are linear and every shard derives the
*same* scheme from the same master seed, per-shard partial sketches add
exactly: for the integer-weighted workloads of the fault suite the
merged cluster sketch is bit-identical to a single-process feed of the
same stream (asserted in :mod:`repro.cluster.faults`).

All randomness (retry jitter) comes from one injected seeded RNG and
all timing flows through the injected clock (:func:`repro.obs.monotonic`),
so a chaos run replays exactly (rules R003/R005 gate this in CI).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Any, Iterator

import numpy as np

from repro import obs
from repro.cluster.errors import (
    ClusterError,
    FrameCorruptionError,
    ShardCommandError,
    ShardDeadError,
    ShardFailedError,
    ShardLostDataError,
    ShardTimeoutError,
)
from repro.cluster.protocol import decode_frame, encode_frame
from repro.cluster.transport import ShardLink, ShardTransport, get_transport
from repro.cluster.worker import WorkerSpec
from repro.query import engine as query_engine
from repro.query.plan import plan_for_scheme
from repro.query.types import (
    Estimate,
    F2Query,
    JoinSizeQuery,
    PlanStats,
    PointQuery,
    Query,
    RangeSumQuery,
    ShardInfo,
)
from repro.sketch.ams import SketchMatrix
from repro.sketch.serialize import scheme_fingerprint, sketch_from_dict
from repro.stream.durability import wire_items
from repro.stream.errors import SchemeMismatchError, UnknownRelationError
from repro.stream.processor import QueryHandle, StreamProcessor
from repro.stream.validation import (
    POLICIES,
    DeadLetterBuffer,
    Incident,
    IncidentLog,
    QuarantinedRecord,
    screen_intervals,
    screen_points,
)

__all__ = ["ClusterConfig", "ClusterAnswer", "ClusterProcessor", "split_intervals"]


def split_intervals(
    bounds: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip a ``(n, 2)`` uint64 interval batch at multiples of ``width``.

    Returns ``(shards, pieces, owners)``: for each piece, the shard
    ``low // width`` holding it, its ``[low, high]`` bounds, and the row
    of ``bounds`` it came from.  Pieces are ordered by interval, then by
    shard, so selecting one shard's pieces keeps the batch order.
    """
    if width >> 64:  # one shard spans a whole 64-bit domain
        return np.zeros(len(bounds), np.int64), bounds, np.arange(len(bounds))
    step = np.uint64(width)
    lows, highs = bounds[:, 0], bounds[:, 1]
    first = lows // step
    spans = (highs // step - first).astype(np.int64) + 1
    owners = np.repeat(np.arange(len(bounds)), spans)
    offsets = np.arange(owners.size) - np.repeat(np.cumsum(spans) - spans, spans)
    shards = first[owners] + offsets.astype(np.uint64)
    starts = shards * step
    pieces = np.empty((owners.size, 2), dtype=np.uint64)
    np.maximum(lows[owners], starts, out=pieces[:, 0])
    # starts + min(high - start, width - 1): never past 2^64 - 1.
    pieces[:, 1] = starts + np.minimum(highs[owners] - starts, step - np.uint64(1))
    return shards.astype(np.int64), pieces, owners


@dataclass(frozen=True)
class ClusterConfig:
    """Supervision knobs: timeouts, backoff, watermarks, durability.

    The retry schedule for one command is ``retries + 1`` attempts of
    ``command_timeout`` each, separated by
    ``backoff_base * backoff_factor**attempt`` seconds, jittered by a
    uniform ``+/- backoff_jitter`` fraction drawn from the cluster's
    injected RNG (so two identically seeded runs back off identically).
    """

    command_timeout: float = 2.0
    retries: int = 4
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    heartbeat_interval: float = 0.5
    heartbeat_deadline: float = 2.0
    max_inflight: int = 16
    quarantine_watermark: int = 256
    restart_limit: int = 3
    policy: str = "raise"
    sync: str = "flush"
    checkpoint_every: int = 0
    start_method: str = "fork"

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}"
            )
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if self.restart_limit < 1:
            raise ValueError("restart_limit must be positive")


@dataclass(frozen=True)
class ClusterAnswer:
    """A query answer that is honest about how much of the cluster spoke.

    ``coverage`` is the fraction of the key space served by *live*
    shards; shards answered from their last shipped sketch are counted
    in ``stale_shards`` (with ``max_staleness_ops``, the largest number
    of acknowledged commands a stale contribution is behind by) and do
    not count toward coverage.  ``error_width_factor`` widens the
    scheme's nominal error bound: the estimate saw only ``coverage`` of
    the key space live, so its confidence interval scales by
    ``1 / coverage`` (``inf`` when nothing live answered and no cache
    existed).  ``degraded`` is True whenever any of that applies.
    """

    value: float
    coverage: float
    live_shards: int
    total_shards: int
    stale_shards: int
    max_staleness_ops: int
    error_width_factor: float
    degraded: bool

    def __float__(self) -> float:
        return self.value


class _Shard:
    """Coordinator-side state of one shard: link, journal, liveness."""

    def __init__(self, sid: int, spec: WorkerSpec, link: ShardLink) -> None:
        self.sid = sid
        self.spec = spec
        self.link = link
        self.frame_seq = 0
        self.mut_index = 0  # mutating commands assigned so far
        self.acked_index = 0  # highest index acknowledged by the worker
        self.pending: dict[int, dict[str, Any]] = {}  # index -> command
        self.outstanding: dict[int, int | None] = {}  # seq -> index | None
        self.last_ok = obs.monotonic()
        self.suspect = False
        self.failed = False
        self.restarts = 0
        self.quarantine_depth = 0
        # relation -> (counter values, applied_index when shipped)
        self.cache: dict[str, tuple[np.ndarray, int]] = {}

    @property
    def name(self) -> str:
        return f"shard-{self.sid}"


class ClusterProcessor:
    """Sketch-backed continuous queries over a supervised shard cluster."""

    def __init__(
        self,
        directory: str,
        shards: int = 4,
        medians: int = 7,
        averages: int = 100,
        seed: int = 0,
        scheme: str | None = None,
        transport: str | ShardTransport = "process",
        config: ClusterConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        self.config = config or ClusterConfig()
        self.directory = os.fspath(directory)
        # The one RNG behind every nondeterministic-looking choice the
        # coordinator makes (retry jitter); injected so chaos replays.
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._transport = (
            get_transport(transport, self.config.start_method)
            if isinstance(transport, str)
            else transport
        )
        # The coordinator's reference processor: same seed, same scheme
        # derivation as every worker.  It ingests nothing; it exists so
        # the coordinator owns the schemes shards must fingerprint-match
        # and the grids shipped counters deserialize onto.
        self._local = StreamProcessor(
            medians=medians, averages=averages, seed=seed, scheme=scheme
        )
        self._medians = medians
        self._averages = averages
        self._seed = seed
        self._scheme_name = scheme
        self.incidents = IncidentLog()
        self.dead_letters = DeadLetterBuffer()
        self._domain_bits: dict[str, int] = {}
        self._widths: dict[str, int] = {}
        self._queries: dict[int, QueryHandle] = {}
        self._next_query = 0
        os.makedirs(self.directory, exist_ok=True)
        self._shards: list[_Shard] = []
        for sid in range(shards):
            spec = WorkerSpec(
                shard_id=sid,
                directory=os.path.join(self.directory, f"shard-{sid:03d}"),
                medians=medians,
                averages=averages,
                seed=seed,
                scheme=scheme,
                sync=self.config.sync,
                checkpoint_every=self.config.checkpoint_every,
            )
            self._shards.append(_Shard(sid, spec, self._transport.spawn(spec)))
        for shard in self._shards:
            self._request(shard, {"kind": "health"})

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ClusterProcessor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Best-effort clean shutdown of every worker and the links."""
        for shard in self._shards:
            if not shard.failed:
                try:
                    self._request(shard, {"kind": "shutdown"}, retries=0)
                except (ShardDeadError, ShardTimeoutError, ClusterError):
                    pass
            try:
                shard.link.close()
            except Exception:  # noqa: BLE001 -- shutdown boundary: a torn pipe during close must not block closing the remaining shards
                pass
        self._local.close()

    # -- topology --------------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of shard workers (live or not)."""
        return len(self._shards)

    def relations(self) -> list[str]:
        """Registered relation names."""
        return list(self._domain_bits)

    def shard_ranges(self, relation: str) -> list[tuple[int, int]]:
        """Per-shard ``[low, high]`` key ranges (inclusive) of a relation."""
        self._require(relation)
        width = self._widths[relation]
        domain = 1 << self._domain_bits[relation]
        return [
            (sid * width, min(domain, (sid + 1) * width) - 1)
            for sid in range(len(self._shards))
        ]

    def register_relation(self, name: str, domain_bits: int) -> None:
        """Declare a relation on every shard (and the local reference).

        Registration is a mutating command: it lands in each worker's
        WAL, so a restarted worker re-derives the same scheme during
        replay.  The worker's scheme fingerprint is verified against the
        coordinator's reference immediately -- a worker built from a
        different seed lineage fails loudly at registration time, not at
        the first merge.
        """
        self._local.register_relation(name, domain_bits)
        self._domain_bits[name] = domain_bits
        domain = 1 << domain_bits
        self._widths[name] = -(-domain // len(self._shards))
        expected = scheme_fingerprint(self._local.scheme_of(name))
        for shard in self._shards:
            self._mutate_sync(
                shard,
                {"kind": "register", "name": name, "domain_bits": domain_bits},
            )
            health = self._request(shard, {"kind": "health"})
            recorded = health["fingerprints"].get(name)
            if recorded != expected:
                raise SchemeMismatchError(
                    f"{shard.name} derived a different scheme for {name!r} "
                    "than the coordinator (fingerprint mismatch); its "
                    "sketches can never rejoin the aggregate"
                )

    def register_join(self, left: str, right: str) -> QueryHandle:
        """Continuous ``|left JOIN right|`` query over the cluster."""
        self._require(left)
        self._require(right)
        if self._domain_bits[left] != self._domain_bits[right]:
            raise ValueError(
                "joined relations must share a domain width (and thus seeds)"
            )
        return self._new_query("join", left, right)

    def register_self_join(self, relation: str) -> QueryHandle:
        """Continuous self-join size (F2) query over the cluster."""
        self._require(relation)
        return self._new_query("self_join", relation, relation)

    def _new_query(self, kind: str, left: str, right: str) -> QueryHandle:
        handle = QueryHandle(kind, left, right, self._next_query)
        self._queries[self._next_query] = handle
        self._next_query += 1
        return handle

    def query_handles(self) -> list[QueryHandle]:
        """The live handles of every registered query."""
        return list(self._queries.values())

    def shard_of(self, relation: str, item: int) -> int:
        """The shard that owns ``item`` in ``relation``'s key space."""
        self._require(relation)
        return min(item // self._widths[relation], len(self._shards) - 1)

    # -- ingestion -------------------------------------------------------

    def ingest_points(
        self, relation: str, items: Any, weights: Any = None
    ) -> None:
        """A batch of arriving tuples, routed to their owning shards.

        The batch is screened once at the coordinator (under
        ``config.policy``), partitioned by key range, and posted to each
        owning shard as one pipelined command; backpressure blocks here
        when a shard's unacknowledged queue crosses the watermark.
        """
        self._require(relation)
        screened = screen_points(
            items, weights, self._domain_bits[relation], self.config.policy
        )
        for record in screened.rejected:
            self._quarantine(relation, record)
        if screened.items.size == 0:
            return
        with obs.span("cluster.ingest", relation=relation, op="points"):
            width = self._widths[relation]
            owners = (screened.items // np.uint64(width)).astype(np.int64)
            np.minimum(owners, len(self._shards) - 1, out=owners)
            items = wire_items(screened.items, self._domain_bits[relation])
            weights = screened.weights
            for sid, shard in enumerate(self._shards):
                mask = owners == sid
                if not bool(mask.any()):
                    continue
                self._post(
                    shard,
                    {
                        "kind": "points",
                        "relation": relation,
                        "items": items[mask],
                        "weights": None if weights is None else weights[mask],
                    },
                )
        obs.counter("cluster.ingest.batches_total").inc()
        obs.counter("cluster.ingest.items_total").inc(int(screened.items.size))

    def ingest_intervals(
        self, relation: str, intervals: Any, weights: Any = None
    ) -> None:
        """A batch of arriving intervals, split at shard boundaries.

        An interval spanning several shards is decomposed into one
        sub-interval per owning shard; linearity of the sketches makes
        the sum of the parts exactly the whole.
        """
        self._require(relation)
        screened = screen_intervals(
            intervals, weights, self._domain_bits[relation], self.config.policy
        )
        for record in screened.rejected:
            self._quarantine(relation, record)
        if screened.items.shape[0] == 0:
            return
        with obs.span("cluster.ingest", relation=relation, op="intervals"):
            shards, pieces, owners = split_intervals(
                screened.items, self._widths[relation]
            )
            pieces = wire_items(pieces, self._domain_bits[relation])
            weights = screened.weights
            for sid in np.unique(shards).tolist():
                mask = shards == sid
                self._post(
                    self._shards[sid],
                    {
                        "kind": "intervals",
                        "relation": relation,
                        "intervals": pieces[mask],
                        "weights": (
                            None if weights is None else weights[owners[mask]]
                        ),
                    },
                )
        obs.counter("cluster.ingest.batches_total").inc()
        obs.counter("cluster.ingest.items_total").inc(
            int(screened.items.shape[0])
        )

    def _quarantine(self, relation: str, record: QuarantinedRecord) -> None:
        obs.counter("cluster.ingest.quarantined_total").inc()
        self.dead_letters.add(
            QuarantinedRecord(
                relation, record.kind, record.payload, record.code,
                record.reason,
            )
        )

    def flush(self) -> None:
        """Drain every shard's unacknowledged queue (restart stalled ones)."""
        for shard in self._shards:
            if not shard.failed:
                self._quiesce(shard)

    def checkpoint(self) -> None:
        """Flush, then snapshot every shard's durable state."""
        self.flush()
        for shard in self._shards:
            if not shard.failed:
                self._request(shard, {"kind": "snapshot"})

    # -- supervision -----------------------------------------------------

    def supervise(self) -> None:
        """One heartbeat pass: ping quiet shards, restart dead/hung ones.

        Call periodically (between batches, from a timer, ...).  A shard
        whose last successful reply is older than
        ``heartbeat_interval`` is pinged; one that misses its ping and
        is past ``heartbeat_deadline`` (or whose process is gone) is
        killed and restarted -- recovery replays its WAL and resends
        everything unacknowledged.
        """
        now = obs.monotonic()
        for shard in self._shards:
            if shard.failed:
                continue
            process_gone = not shard.link.alive()
            quiet = (now - shard.last_ok) >= self.config.heartbeat_interval
            if not (shard.suspect or process_gone or quiet):
                continue
            obs.counter("cluster.heartbeat.checks_total").inc()
            try:
                health = self._request(
                    shard, {"kind": "health"}, retries=1
                )
                shard.quarantine_depth = int(health["quarantine_depth"])
                shard.suspect = False
            except (ShardDeadError, ShardTimeoutError):
                obs.counter("cluster.heartbeat.misses_total").inc()
                overdue = (
                    obs.monotonic() - shard.last_ok
                ) >= self.config.heartbeat_deadline
                if process_gone or not shard.link.alive() or overdue:
                    try:
                        self._recover_shard(shard, "heartbeat-deadline")
                    except ShardFailedError:
                        pass  # marked failed; answers degrade from here
                else:
                    shard.suspect = True

    # -- answers ---------------------------------------------------------

    def answer(self, handle: QueryHandle) -> ClusterAnswer:
        """Current estimate, served even while shards are down.

        Live shards ship their sketch fresh (fingerprint- and
        checksum-verified on arrival); a shard that cannot answer is
        served from its last shipped sketch and marked stale; a shard
        with no cache at all leaves a coverage hole.  Every degradation
        is recorded as an Incident and on ``cluster.answer.*`` metrics.

        This is the :class:`ClusterAnswer` view of :meth:`query`: the
        estimate runs through the shared query engine and the answer is
        repackaged in the coordinator's historical result type.
        """
        if self._queries.get(handle.identifier) is not handle:
            raise ValueError("unknown query handle")
        if handle.left == handle.right:
            estimate = self.query(F2Query(handle.left))
        else:
            estimate = self.query(JoinSizeQuery(handle.left, handle.right))
        shards = estimate.shards
        assert shards is not None
        return ClusterAnswer(
            value=estimate.value,
            coverage=estimate.coverage,
            live_shards=shards.live_shards,
            total_shards=shards.total_shards,
            stale_shards=shards.stale_shards,
            max_staleness_ops=shards.max_staleness_ops,
            error_width_factor=estimate.error_width_factor,
            degraded=estimate.degraded,
        )

    def query(self, query: Query) -> Estimate:
        """Typed executor over the merged cluster sketches.

        Scalar queries (point, range-sum, F2, join size) run against the
        live-plus-cached merge with the same coverage/staleness honesty
        as :meth:`answer`: the returned :class:`Estimate` carries the
        coverage fraction, the ``1 / coverage`` error widening and a
        :class:`ShardInfo` provenance block.  Hierarchical queries are
        not served here -- they live on :class:`StreamProcessor`.
        """
        if isinstance(query, F2Query):
            self._require(query.relation)
            return self._product_estimate(
                query.relation, query.relation, "f2"
            )
        if isinstance(query, JoinSizeQuery):
            self._require(query.left)
            self._require(query.right)
            return self._product_estimate(query.left, query.right, "join_size")
        if isinstance(query, PointQuery):
            self._require(query.relation)
            return self._probe_estimate(
                query.relation,
                "point",
                lambda scheme: (
                    query_engine.point_probe(scheme, query.item),
                    PlanStats(kind="point", pieces=1, max_level=0),
                ),
            )
        if isinstance(query, RangeSumQuery):
            self._require(query.relation)

            def build(scheme: Any) -> tuple[np.ndarray, PlanStats]:
                plan = plan_for_scheme(scheme, query.low, query.high)
                return query_engine.probe_for_plan(scheme, plan), plan.stats()

            return self._probe_estimate(query.relation, "range_sum", build)
        raise TypeError(
            "hierarchical queries need a StreamProcessor with a registered "
            f"hierarchy, not a cluster (got {type(query).__name__})"
        )

    def _degradation(
        self, left: "_MergeResult", right: "_MergeResult", label: str
    ) -> tuple[ShardInfo, float, bool, float]:
        """Coverage/staleness bookkeeping shared by every cluster answer."""
        live = min(left.live, right.live)
        coverage = min(left.coverage, right.coverage)
        stale = left.stale + (0 if right is left else right.stale)
        behind = max(left.max_behind, right.max_behind)
        degraded = coverage < 1.0 or stale > 0
        factor = 1.0 if not degraded else (
            (1.0 / coverage) if coverage > 0 else float("inf")
        )
        obs.gauge("cluster.answer.coverage").set(coverage)
        if degraded:
            obs.counter("cluster.answer.degraded_total").inc()
            self.incidents.append(
                Incident(
                    "degraded-answer",
                    label,
                    f"coverage={coverage:.3f} stale_shards={stale} "
                    f"max_staleness_ops={behind}",
                    0,
                    True,
                )
            )
        shards = ShardInfo(
            live_shards=live,
            total_shards=len(self._shards),
            stale_shards=stale,
            max_staleness_ops=behind,
        )
        return shards, coverage, degraded, factor

    def _product_estimate(
        self, left_relation: str, right_relation: str, kind: str
    ) -> Estimate:
        with obs.span(
            "cluster.answer", left=left_relation, right=right_relation
        ):
            obs.counter("cluster.answer.queries_total").inc()
            left = self._merged(left_relation)
            right = (
                left
                if right_relation == left_relation
                else self._merged(right_relation)
            )
            shards, coverage, degraded, factor = self._degradation(
                left, right, f"{left_relation}|{right_relation}"
            )
            scheme_of = self._local.scheme_of
            if scheme_of(left_relation) is not scheme_of(right_relation):
                raise ValueError("sketches must share a scheme to be multiplied")
            estimate = query_engine.product_of_values(
                [left.values, right.values],
                kind=kind,
                coverage=coverage,
                degraded=degraded,
                error_width_factor=factor,
            )
            return replace(estimate, shards=shards)

    def _probe_estimate(
        self,
        relation: str,
        kind: str,
        build: "Any",
    ) -> Estimate:
        """Data-times-probe estimate over one relation's merge.

        ``build(scheme)`` returns the probe counters and its plan stats.
        """
        with obs.span("cluster.answer", left=relation, right=relation):
            obs.counter("cluster.answer.queries_total").inc()
            merged = self._merged(relation)
            shards, coverage, degraded, factor = self._degradation(
                merged, merged, relation
            )
            scheme = self._local.scheme_of(relation)
            probe, stats = build(scheme)
            estimate = query_engine.product_of_values(
                [merged.values, probe],
                kind=kind,
                plan=stats,
                coverage=coverage,
                degraded=degraded,
                error_width_factor=factor,
            )
            return replace(estimate, shards=shards)

    def merged_sketch(self, relation: str) -> SketchMatrix:
        """The merged cluster sketch of one relation (live + cached)."""
        self._require(relation)
        merged = self._merged(relation)
        return SketchMatrix.from_values(
            self._local.scheme_of(relation), merged.values
        )

    def _merged(self, relation: str) -> "_MergeResult":
        """Sum per-shard counters: fresh where possible, cached where not."""
        scheme = self._local.scheme_of(relation)
        domain = 1 << self._domain_bits[relation]
        width = self._widths[relation]
        values = np.zeros((scheme.medians, scheme.averages), dtype=np.float64)
        live = 0
        stale = 0
        covered = 0
        max_behind = 0
        for shard in self._shards:
            shard_width = max(
                0, min(domain, (shard.sid + 1) * width) - shard.sid * width
            )
            if not shard.failed:
                try:
                    with obs.span(
                        "cluster.shard.answer",
                        shard=shard.sid,
                        relation=relation,
                    ):
                        reply = self._request(
                            shard,
                            {"kind": "ship", "relation": relation},
                            retries=1,
                        )
                    sketch = sketch_from_dict(reply["sketch"], scheme=scheme)
                    shipped = sketch.values()
                    shard.cache[relation] = (
                        shipped, int(reply["applied_index"])
                    )
                    values += shipped
                    live += 1
                    covered += shard_width
                    continue
                except (ShardDeadError, ShardTimeoutError) as exc:
                    shard.suspect = True
                    self.incidents.append(
                        Incident(
                            "stale-read",
                            shard.name,
                            f"{type(exc).__name__} shipping {relation!r}; "
                            "serving from last shipped sketch",
                            0,
                            relation in shard.cache,
                        )
                    )
            cached = shard.cache.get(relation)
            if cached is not None:
                cached_values, shipped_at = cached
                values += cached_values
                stale += 1
                max_behind = max(max_behind, shard.mut_index - shipped_at)
        coverage = covered / domain if domain else 0.0
        return _MergeResult(values, live, stale, coverage, max_behind)

    # -- command plumbing ------------------------------------------------

    def _next_seq(self, shard: _Shard) -> int:
        shard.frame_seq += 1
        return shard.frame_seq

    def _with_trace(self, message: dict[str, Any]) -> dict[str, Any]:
        """Attach the live trace context to an outgoing command (once).

        Mutating commands are journaled with their context already
        attached, so a retry or crash-replay resends the identical frame;
        their spans keep the parent they had when first posted.
        """
        if "trace" in message:
            return message
        collector = obs.trace_collector()
        if collector is None:
            return message
        return {**message, "trace": collector.current_context()}

    def _backoff_sleep(self, attempt: int) -> None:
        config = self.config
        delay = config.backoff_base * config.backoff_factor ** (attempt - 1)
        jitter = 1.0 + config.backoff_jitter * (
            2.0 * float(self._rng.random()) - 1.0
        )
        time.sleep(max(0.0, delay * jitter))

    def _accept_reply(
        self, shard: _Shard, seq: int, message: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Process one reply frame; returns it if it was awaited."""
        shard.last_ok = obs.monotonic()
        spans = message.get("spans")
        if spans:
            # Worker-side spans shipped in the reply: stitch them into
            # the live trace under the shard's own pid track.  Late and
            # duplicate replies stitch too -- the collector deduplicates
            # by span id, so re-delivery cannot double-record a span.
            collector = obs.trace_collector()
            if collector is not None:
                added = collector.stitch_remote(spans, process=shard.sid + 1)
                if added:
                    obs.counter(
                        "obs.trace.remote.spans_stitched_total"
                    ).inc(added)
        index = shard.outstanding.pop(seq, _MISSING)
        if index is _MISSING:
            # A retry already consumed this seq: the original reply
            # arrived late.  Protocol absorbs it; the counter records it.
            obs.counter("cluster.protocol.late_replies_total").inc()
            return None
        kind = message.get("kind")
        if kind == "dup":
            obs.counter("cluster.protocol.duplicate_acks_total").inc()
        if kind == "gap":
            # The worker saw a mutation from the future: an earlier
            # command frame was lost.  Re-drive the journal from the
            # index it expects; the out-of-order command will be resent
            # in order behind it.
            obs.counter("cluster.protocol.gap_replies_total").inc()
            self._resend_pending(shard, int(message["expected_index"]))
            return None
        if kind == "error":
            raise ShardCommandError(
                f"{shard.name} rejected {message.get('error')}: "
                f"{message.get('message')}"
            )
        if index is not None and kind in ("ok", "dup"):
            shard.pending.pop(index, None)
            shard.acked_index = max(shard.acked_index, int(index))
        return message

    def _pump(self, shard: _Shard, timeout: float) -> bool:
        """Drain available replies; True if any reply was processed."""
        progressed = False
        wait = timeout
        while True:
            try:
                frame = shard.link.recv(wait)
            except ShardDeadError:
                self._recover_shard(shard, "pipe-closed")
                return True
            if frame is None:
                return progressed
            wait = 0.0
            try:
                seq, message = decode_frame(frame)
            except FrameCorruptionError:
                obs.counter("cluster.protocol.corrupt_frames_total").inc()
                continue
            self._accept_reply(shard, seq, message)
            progressed = True

    def _request(
        self,
        shard: _Shard,
        message: dict[str, Any],
        index: int | None = None,
        timeout: float | None = None,
        retries: int | None = None,
    ) -> dict[str, Any]:
        """Send one command and wait for its reply, retrying on timeout.

        Retries resend the *same frame* (same seq, same index), so a
        command that was delivered but whose ack was lost is
        deduplicated by the worker rather than applied twice.
        """
        config = self.config
        timeout = config.command_timeout if timeout is None else timeout
        retries = config.retries if retries is None else retries
        seq = self._next_seq(shard)
        shard.outstanding[seq] = index
        can_wait = getattr(shard.link, "waits", True)
        with obs.span(
            "cluster.command", shard=shard.sid, op=str(message.get("kind"))
        ):
            # The context is read inside the span, so worker-side spans
            # shipped back in the reply parent-link to this very command.
            frame = encode_frame(seq, self._with_trace(message))
            try:
                for attempt in range(retries + 1):
                    if attempt:
                        obs.counter("cluster.command.retries_total").inc()
                        self._backoff_sleep(attempt)
                    shard.link.send(frame)
                    deadline = obs.monotonic() + timeout
                    while True:
                        remaining = deadline - obs.monotonic()
                        if remaining <= 0:
                            break
                        got = shard.link.recv(min(remaining, 0.05))
                        if got is None:
                            if not can_wait:
                                # Inline transport: nothing more arrives
                                # without another send; go straight to
                                # retry.
                                break
                            continue
                        try:
                            reply_seq, reply = decode_frame(got)
                        except FrameCorruptionError:
                            obs.counter(
                                "cluster.protocol.corrupt_frames_total"
                            ).inc()
                            continue
                        accepted = self._accept_reply(shard, reply_seq, reply)
                        if reply_seq == seq and accepted is not None:
                            return accepted
                        if seq not in shard.outstanding:
                            # A gap reply consumed our seq and re-drove
                            # the journal; re-arm so the retry is
                            # awaited.
                            shard.outstanding[seq] = index
            finally:
                shard.outstanding.pop(seq, None)
            raise ShardTimeoutError(
                f"{shard.name} did not answer {message.get('kind')!r} within "
                f"{retries + 1} attempts of {timeout}s"
            )

    def _post(self, shard: _Shard, message: dict[str, Any]) -> None:
        """Pipeline one mutating command (journal first, then send)."""
        if shard.failed:
            raise ShardFailedError(
                f"{shard.name} exhausted its restart budget; ingestion "
                "routed to it cannot be accepted"
            )
        self._backpressure(shard)
        index = shard.mut_index + 1
        shard.mut_index = index
        message = self._with_trace({**message, "index": index})
        shard.pending[index] = message
        seq = self._next_seq(shard)
        shard.outstanding[seq] = index
        obs.counter("cluster.ingest.commands_total").inc()
        try:
            shard.link.send(encode_frame(seq, message))
        except ShardDeadError:
            self._recover_shard(shard, "send-failed")

    def _mutate_sync(self, shard: _Shard, message: dict[str, Any]) -> None:
        """Apply one mutating command synchronously (with recovery)."""
        if shard.failed:
            raise ShardFailedError(
                f"{shard.name} exhausted its restart budget"
            )
        index = shard.mut_index + 1
        shard.mut_index = index
        message = self._with_trace({**message, "index": index})
        shard.pending[index] = message
        try:
            self._request(shard, message, index=index)
        except (ShardDeadError, ShardTimeoutError):
            self._recover_shard(shard, "command-timeout")

    def _backpressure(self, shard: _Shard) -> None:
        """Throttle ingest while the shard's queue is past the watermark."""
        config = self.config
        self._pump(shard, 0.0)
        if (
            len(shard.pending) < config.max_inflight
            and shard.quarantine_depth <= config.quarantine_watermark
        ):
            return
        obs.counter("cluster.ingest.backpressure_waits_total").inc()
        if shard.quarantine_depth > config.quarantine_watermark:
            # Quarantine past the watermark: stop pipelining until the
            # queue drains and re-read the shard's health.
            self._quiesce(shard)
            try:
                health = self._request(shard, {"kind": "health"}, retries=1)
                shard.quarantine_depth = int(health["quarantine_depth"])
            except (ShardDeadError, ShardTimeoutError):
                self._recover_shard(shard, "backpressure-health")
            return
        budget = config.command_timeout * (config.retries + 1)
        deadline = obs.monotonic() + budget
        resent = False
        while len(shard.pending) >= config.max_inflight:
            if self._pump(shard, 0.02):
                continue
            now = obs.monotonic()
            if not resent and now >= deadline - budget / 2 and shard.pending:
                # Half the budget gone with no progress: assume lost
                # frames and re-drive before escalating to a restart.
                self._resend_pending(shard, min(shard.pending))
                resent = True
            elif now >= deadline:
                self._recover_shard(shard, "ingest-stall")
                return

    def _quiesce(self, shard: _Shard) -> None:
        """Block until every pending command is acknowledged."""
        config = self.config
        budget = config.command_timeout * (config.retries + 1)
        deadline = obs.monotonic() + budget
        resent = False
        while shard.pending:
            if self._pump(shard, 0.02):
                continue
            now = obs.monotonic()
            if not resent and now >= deadline - budget / 2 and shard.pending:
                self._resend_pending(shard, min(shard.pending))
                resent = True
            elif now >= deadline:
                self._recover_shard(shard, "flush-stall")
                return

    def _resend_pending(self, shard: _Shard, from_index: int) -> None:
        """Re-send journaled commands with index >= ``from_index``."""
        for index in sorted(shard.pending):
            if index < from_index:
                continue
            seq = self._next_seq(shard)
            shard.outstanding[seq] = index
            try:
                shard.link.send(encode_frame(seq, shard.pending[index]))
            except ShardDeadError:
                self._recover_shard(shard, "resend-failed")
                return

    # -- crash recovery --------------------------------------------------

    def _recover_shard(self, shard: _Shard, reason: str) -> None:
        """Kill, restart, replay, verify, and resend -- or mark failed.

        The restarted worker recovers its durable state from its own
        WAL directory (bit-identical by the stream layer's recovery
        guarantees).  Before the shard rejoins, its scheme fingerprints
        are verified against the coordinator's reference and its durable
        ``applied_index`` is checked against the highest index it ever
        acknowledged -- a shard that lost acknowledged data raises
        :class:`ShardLostDataError` rather than rejoining with a hole.
        Unacknowledged commands past the recovered index are resent (the
        worker deduplicates any it had already applied).
        """
        config = self.config
        with obs.span("cluster.shard.restart", shard=shard.sid, reason=reason):
            start = obs.monotonic()
            obs.counter("cluster.shard.deaths_total").inc()
            for _attempt in range(config.restart_limit):
                shard.restarts += 1
                try:
                    shard.link.kill()
                    shard.link.close()
                except Exception:  # noqa: BLE001 -- supervisor boundary: killing an already-dead worker must not abort its own recovery
                    pass
                shard.outstanding.clear()
                shard.link = self._transport.spawn(shard.spec)
                try:
                    health = self._request(shard, {"kind": "health"})
                except (ShardDeadError, ShardTimeoutError):
                    continue
                expected_prints = {
                    name: scheme_fingerprint(self._local.scheme_of(name))
                    for name in self._domain_bits
                }
                recovered_prints = health.get("fingerprints", {})
                for name, fingerprint in recovered_prints.items():
                    if fingerprint != expected_prints.get(name):
                        raise SchemeMismatchError(
                            f"{shard.name} recovered a scheme for {name!r} "
                            "that does not match the coordinator's "
                            "(fingerprint mismatch); refusing to let its "
                            "sketch rejoin the aggregate"
                        )
                applied = int(health["applied_index"])
                if applied < shard.acked_index:
                    raise ShardLostDataError(
                        f"{shard.name} recovered to command {applied} but "
                        f"had acknowledged {shard.acked_index}; its WAL "
                        "lost acknowledged updates"
                    )
                for index in [i for i in sorted(shard.pending) if i <= applied]:
                    # Applied but never acknowledged (crash in the ack
                    # window): already durable, do not resend.
                    shard.pending.pop(index)
                    shard.acked_index = max(shard.acked_index, index)
                resent = 0
                replay_ok = True
                for index in sorted(shard.pending):
                    try:
                        self._request(
                            shard, shard.pending[index], index=index
                        )
                        resent += 1
                    except (ShardDeadError, ShardTimeoutError):
                        replay_ok = False
                        break
                if not replay_ok:
                    continue
                shard.suspect = False
                shard.last_ok = obs.monotonic()
                obs.counter("cluster.shard.restarts_total").inc()
                obs.counter("cluster.recover.resent_commands_total").inc(
                    resent
                )
                obs.histogram(
                    "cluster.recover.seconds", obs.DEFAULT_TIMING_EDGES
                ).observe(obs.monotonic() - start)
                self.incidents.append(
                    Incident("shard-restart", shard.name, reason, resent, True)
                )
                return
            shard.failed = True
            obs.counter("cluster.shard.failures_total").inc()
            self.incidents.append(
                Incident(
                    "shard-failed", shard.name, reason, len(shard.pending),
                    False,
                )
            )
            raise ShardFailedError(
                f"{shard.name} failed to restart after "
                f"{config.restart_limit} attempts ({reason}); marked failed "
                "-- queries degrade, ingestion to its range raises"
            )

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Cluster supervision state, per-shard journals, and metrics."""
        live = sum(
            1 for s in self._shards if not s.failed and not s.suspect
        )
        return {
            "shards": {
                shard.name: {
                    "alive": shard.link.alive() and not shard.failed,
                    "failed": shard.failed,
                    "suspect": shard.suspect,
                    "restarts": shard.restarts,
                    "mut_index": shard.mut_index,
                    "acked_index": shard.acked_index,
                    "pending": len(shard.pending),
                    "quarantine_depth": shard.quarantine_depth,
                }
                for shard in self._shards
            },
            "live_shards": live,
            "total_shards": len(self._shards),
            "quarantined_total": self.dead_letters.total,
            "quarantine_counts": {
                **dict(self.dead_letters.counts),
                "dropped": self.dead_letters.dropped,
            },
            "incidents": self.incidents.total,
            "metrics": obs.snapshot(),
        }

    def _require(self, relation: str) -> None:
        if relation not in self._domain_bits:
            raise UnknownRelationError(f"unknown relation {relation!r}")

    def __iter__(self) -> Iterator[_Shard]:
        return iter(self._shards)


#: Sentinel distinguishing "reply for an unknown seq" from "reply for a
#: non-mutating command" (whose outstanding entry is ``None``).
_MISSING: Any = object()


@dataclass(frozen=True)
class _MergeResult:
    values: np.ndarray
    live: int
    stale: int
    coverage: float
    max_behind: int
