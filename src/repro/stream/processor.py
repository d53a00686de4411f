"""A small continuous-query engine over sketched streams.

The paper's systems story (Section 2.1): relations arrive as unbounded
update streams, memory holds only sketches, and registered aggregate
queries are answerable at any time.  :class:`StreamProcessor` packages
that story behind one object:

* **relations** are registered with a domain width; each is backed by one
  :class:`~repro.sketch.ams.SketchMatrix` under a scheme chosen at
  registration (EH3 generator channels by default, so interval updates
  are O(log range));
* **updates** -- points, intervals, weighted, deletions -- stream in via
  :meth:`process_point` / :meth:`process_interval`, screened by the
  validation front door (:mod:`repro.stream.validation`) under a
  configurable ``raise`` / ``quarantine`` / ``clamp`` policy so malformed
  records can never reach the plane kernels;
* **queries** -- size-of-join between two relations, self-join size of
  one -- are registered up front (the sketches must share seeds to be
  comparable, so relations joined together are placed on a shared scheme)
  and answered on demand with :meth:`answer`.

Because the sketches are the *only* state, the processor can make them
durable: pass a :class:`~repro.stream.durability.DurabilityConfig` (or a
directory path) and every admitted update is written ahead to a
CRC-framed, segmented log before it touches a counter;
:meth:`checkpoint` persists an atomic CRC-verified snapshot and prunes
the log; :meth:`StreamProcessor.recover` restores the latest valid
snapshot and replays the WAL tail exactly once (idempotent via sequence
numbers, tolerant of a torn final record).  See ``docs/operations.md``
for the operational lifecycle.

Every write runs compute, log, commit: the relation's new counters,
and its hierarchy's, are formed on staged copies before the WAL record
is appended, and swapped in after it.  A write that fails while its
counters are formed has changed nothing and logged nothing.  It raises
:class:`~repro.stream.errors.ApplyError` under ``raise``, is
dead-lettered as ``apply-failed`` under ``quarantine``/``clamp``, and
fails a replay with :class:`~repro.stream.errors.RecoveryError`.  There
is no second write path: input is screened first, so a failing kernel
is a bug, and it is reported rather than retried.

The processor is deliberately memory-honest: :meth:`memory_words` reports
exactly how many counters it holds, the number the paper's Figures 5-7
sweep on their x-axis.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.generators.base import Generator
from repro.generators.seeds import SeedSource
from repro.query import engine as query_engine
from repro.query.hierarchy import DyadicHierarchy
from repro.query.types import (
    Estimate,
    F2Query,
    HeavyHitter,
    HeavyHittersQuery,
    JoinSizeQuery,
    PointQuery,
    Query,
    QuantileQuery,
    RangeSumQuery,
)
from repro.schemes import get_spec
from repro.sketch.ams import SketchMatrix, SketchScheme
from repro.sketch.atomic import GeneratorChannel
from repro.sketch.plane import plane_decision
from repro.sketch.serialize import (
    scheme_fingerprint,
    sketch_from_dict,
    sketch_to_dict,
)
from repro.stream.durability import (
    DurabilityConfig,
    WriteAheadLog,
    canonical_json,
    list_snapshots,
    load_latest_snapshot,
    write_snapshot,
)
from repro.stream.errors import (
    ApplyError,
    DurabilityError,
    InvalidUpdateError,
    RecoveryError,
    SchemeMismatchError,
    UnknownRelationError,
)
from repro.stream.validation import (
    POLICIES,
    DeadLetterBuffer,
    QuarantinedRecord,
    screen_interval,
    screen_intervals,
    screen_point,
    screen_points,
)

__all__ = ["StreamProcessor", "QueryHandle"]

_MANIFEST = "manifest.json"

#: The write operations: each forms new counters before it is logged.
_WRITES = ("point", "interval", "points", "intervals")


def _write_calls(op: dict[str, Any]) -> tuple[str, tuple, tuple]:
    """A write's ``update_*`` name, its sketch arguments, its hierarchy's."""
    kind = op["op"]
    if kind == "point":
        args = (op["item"], op["weight"])
        return "update_point", args, args
    if kind == "interval":
        low, high, weight = op["low"], op["high"], op["weight"]
        return "update_interval", ((low, high), weight), (low, high, weight)
    weights = None if op["weights"] is None else np.asarray(op["weights"], dtype=np.float64)
    if kind == "points":
        items = np.asarray(op["items"], dtype=np.uint64)
    else:
        items = np.asarray(op["intervals"], dtype=np.uint64).reshape(-1, 2)
    return f"update_{kind}", (items, weights), (items, weights)


def _staged(live: Any) -> Any:
    """A shallow copy of a sketch or hierarchy holding its own counter table.

    Built by hand: ``copy.copy``'s ``__reduce_ex__`` round costs ~3 µs
    more per write.
    """
    twin = object.__new__(type(live))
    twin.__dict__.update(live.__dict__, table=live.table.copy())
    return twin


@dataclass(frozen=True)
class QueryHandle:
    """Opaque handle for a registered continuous query."""

    kind: str
    left: str
    right: str
    identifier: int


class StreamProcessor:
    """Sketch-backed continuous aggregate queries over update streams."""

    def __init__(
        self,
        medians: int = 7,
        averages: int = 100,
        seed: int | SeedSource = 0,
        generator_factory: Callable[[int, SeedSource], Generator] | None = None,
        policy: str = "raise",
        quarantine_capacity: int = 1024,
        durability: DurabilityConfig | str | None = None,
        scheme: str | None = None,
    ) -> None:
        if medians < 1 or averages < 1:
            raise ValueError("medians and averages must be positive")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {POLICIES}"
            )
        if scheme is not None and generator_factory is not None:
            raise ValueError(
                "pass either scheme= (a registered scheme name) or "
                "generator_factory=, not both"
            )
        self._medians = medians
        self._averages = averages
        self._seed_config = seed if isinstance(seed, int) else None
        self._source = seed if isinstance(seed, SeedSource) else SeedSource(seed)
        if generator_factory is not None:
            # A custom factory cannot be named in the durability manifest;
            # recover() must be handed the same factory again.
            self._scheme_name: str | None = None
            self._factory = generator_factory
        else:
            self._scheme_name = scheme or "eh3"
            self._factory = get_spec(self._scheme_name).factory
        self.policy = policy
        self.dead_letters = DeadLetterBuffer(quarantine_capacity)
        self._domain_bits: dict[str, int] = {}
        self._registration_order: list[str] = []
        self._schemes: dict[str, SketchScheme] = {}  # per domain-group
        self._sketches: dict[str, SketchMatrix] = {}
        self._groups: dict[str, str] = {}  # relation -> scheme key
        self._queries: dict[int, QueryHandle] = {}
        self._next_query = 0
        # Continuously-maintained dyadic hierarchies (heavy hitters /
        # quantiles), sharing the relation's scheme -- see
        # repro.query.hierarchy.
        self._hierarchies: dict[str, DyadicHierarchy] = {}
        # -- durability state -------------------------------------------
        self._durability = self._normalize_durability(durability)
        self._wal: WriteAheadLog | None = None
        self._applied_seq = 0
        self._records_since_checkpoint = 0
        self._replaying = False
        if self._durability is not None:
            self._attach_durability(self._durability, fresh=True)

    # -- durability plumbing ---------------------------------------------

    @staticmethod
    def _normalize_durability(
        durability: DurabilityConfig | str | None,
    ) -> DurabilityConfig | None:
        if durability is None or isinstance(durability, DurabilityConfig):
            return durability
        return DurabilityConfig(directory=os.fspath(durability))

    def _attach_durability(self, config: DurabilityConfig, fresh: bool) -> None:
        os.makedirs(config.directory, exist_ok=True)
        manifest_path = os.path.join(config.directory, _MANIFEST)
        if fresh:
            if os.path.exists(manifest_path):
                raise DurabilityError(
                    f"{config.directory} already holds durable stream state; "
                    "use StreamProcessor.recover() to resume it (or point at "
                    "an empty directory to start fresh)"
                )
            manifest = {
                "version": 1,
                "medians": self._medians,
                "averages": self._averages,
                "seed": self._seed_config,
                "policy": self.policy,
                "scheme": self._scheme_name,
            }
            with open(manifest_path, "w") as handle:
                json.dump(manifest, handle)
        self._durability = config
        self._wal = WriteAheadLog(config.directory, config)

    def checkpoint(self) -> str:
        """Snapshot all state and prune the WAL; returns the path written.

        The snapshot is CRC-guarded and written atomically, so a crash
        *during* a checkpoint leaves the previous snapshot (and the full
        WAL tail) intact.  WAL segments wholly covered by the oldest
        retained snapshot are deleted.
        """
        if self._wal is None or self._durability is None:
            raise DurabilityError("durability is not enabled on this processor")
        self._wal.flush(force=True)
        state = {
            "registrations": [
                [name, self._domain_bits[name]]
                for name in self._registration_order
            ],
            "queries": [
                [h.kind, h.left, h.right, h.identifier]
                for h in self._queries.values()
            ],
            "sketches": {
                name: sketch_to_dict(sketch, include_scheme=False)
                for name, sketch in self._sketches.items()
            },
            "quarantine_counts": dict(self.dead_letters.counts),
            "hierarchies": {
                name: hierarchy.counters_state()
                for name, hierarchy in self._hierarchies.items()
            },
        }
        path = write_snapshot(
            self._durability.directory,
            self._applied_seq,
            state,
            keep=self._durability.snapshots_keep,
        )
        # Prune only past the *oldest retained* snapshot, so recovery can
        # still fall back to it if the newest one is damaged.
        retained = list_snapshots(self._durability.directory)
        oldest_seq = min(
            int(os.path.basename(p)[5:-5], 16) for p in retained
        )
        self._wal.prune(oldest_seq)
        self._records_since_checkpoint = 0
        return path

    def close(self) -> None:
        """Flush and close the WAL (no-op without durability)."""
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "StreamProcessor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def recover(
        cls,
        durability: DurabilityConfig | str,
        generator_factory: Callable[[int, SeedSource], Generator] | None = None,
        policy: str | None = None,
        quarantine_capacity: int = 1024,
    ) -> "StreamProcessor":
        """Rebuild a processor from its durability directory.

        Restores the newest valid snapshot (a corrupted or partially
        written one falls back to its predecessor) and replays every WAL
        record past the snapshot's sequence number exactly once.  The
        schemes are re-derived from the manifest's master seed by
        replaying registrations in their original order; the result is
        verified against the scheme fingerprints recorded at checkpoint
        time, so a wrong seed or ``generator_factory`` fails loudly
        instead of silently producing incomparable sketches.
        """
        config = cls._normalize_durability(durability)
        assert config is not None
        manifest_path = os.path.join(config.directory, _MANIFEST)
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise RecoveryError(
                f"cannot read durability manifest {manifest_path}: {exc}"
            ) from exc
        seed = manifest.get("seed")
        if seed is None:
            raise RecoveryError(
                "the original processor was seeded with a live SeedSource; "
                "its schemes cannot be re-derived from the manifest"
            )
        processor = cls(
            medians=manifest["medians"],
            averages=manifest["averages"],
            seed=seed,
            generator_factory=generator_factory,
            policy=policy or manifest.get("policy", "raise"),
            quarantine_capacity=quarantine_capacity,
            durability=None,
            scheme=(
                None if generator_factory is not None
                else manifest.get("scheme")
            ),
        )
        with obs.span("durability.recover", directory=config.directory):
            processor._replaying = True
            snapshot = load_latest_snapshot(config.directory)
            applied = 0
            if snapshot is not None:
                applied, state, _failures = snapshot
                processor._restore_snapshot(state)
                processor._applied_seq = applied
            processor._attach_durability(config, fresh=False)
            expected = applied + 1
            assert processor._wal is not None
            replayed = 0
            for seq, payload in processor._wal.replay(after_seq=applied):
                if seq != expected:
                    raise RecoveryError(
                        f"WAL gap after snapshot: expected record {expected}, "
                        f"found {seq} (segments pruned too far?)"
                    )
                expected = seq + 1
                processor._commit(json.loads(payload.decode("utf-8")))
                processor._applied_seq = seq
                replayed += 1
            processor._replaying = False
            obs.counter("durability.recover.replayed_records_total").inc(
                replayed
            )
            obs.counter("durability.recover.recoveries_total").inc()
        return processor

    def _restore_snapshot(self, state: dict[str, Any]) -> None:
        """Re-derive schemes, reattach counters, verify fingerprints."""
        for name, domain_bits in state["registrations"]:
            self._do_register(name, int(domain_bits))
        sketches = state.get("sketches", {})
        for name, data in sketches.items():
            if name not in self._sketches:
                raise RecoveryError(
                    f"snapshot holds a sketch for unregistered relation "
                    f"{name!r}"
                )
            scheme = self._schemes[self._groups[name]]
            recorded = data.get("fingerprint")
            if recorded is not None and recorded != scheme_fingerprint(scheme):
                raise RecoveryError(
                    f"relation {name!r}: re-derived scheme does not match "
                    "the checkpointed fingerprint -- wrong master seed or "
                    "generator_factory passed to recover()"
                )
            try:
                self._sketches[name] = sketch_from_dict(data, scheme=scheme)
            except ValueError as exc:
                raise RecoveryError(
                    f"relation {name!r}: checkpointed counters are "
                    f"corrupted: {exc}"
                ) from exc
        for name, counters in state.get("hierarchies", {}).items():
            if name not in self._sketches:
                raise RecoveryError(
                    f"snapshot holds a hierarchy for unregistered relation "
                    f"{name!r}"
                )
            self._do_register_hierarchy(name)
            try:
                self._hierarchies[name].restore_counters(counters)
            except ValueError as exc:
                raise RecoveryError(
                    f"relation {name!r}: checkpointed hierarchy counters "
                    f"are corrupted: {exc}"
                ) from exc
        max_id = -1
        for kind, left, right, identifier in state.get("queries", []):
            identifier = int(identifier)
            self._queries[identifier] = QueryHandle(
                kind, left, right, identifier
            )
            max_id = max(max_id, identifier)
        self._next_query = max_id + 1

    # -- the write path --------------------------------------------------

    def _commit(self, op: dict[str, Any]) -> bool:
        """Form one admitted operation's new state, log it, then swap it in.

        Live ingestion and WAL replay (which skips the append) both run
        through here, which is what makes recovery bit-identical to an
        uninterrupted run.  Forming changes no live state, so a write
        that fails there is neither logged nor applied (see
        :meth:`_write_failed`).  Returns whether the operation landed.
        """
        kind = op["op"]
        with obs.span("stream.apply", op=kind):
            if kind in _WRITES:
                try:
                    swap = self._stage_write(op)
                except Exception as exc:  # noqa: BLE001 -- screened input: a bug, reported
                    self._write_failed(op, exc)
                    return False
            else:
                swap = self._deferred(op)
        seq = 0
        if self._wal is not None and not self._replaying:
            seq = self._wal.append(canonical_json(op).encode("utf-8"))
        swap()
        if seq:
            self._applied_seq = seq
            self._records_since_checkpoint += 1
            if (
                self._durability is not None
                and self._durability.checkpoint_every
                and self._records_since_checkpoint
                >= self._durability.checkpoint_every
            ):
                self.checkpoint()
        return True

    def _deferred(self, op: dict[str, Any]) -> Callable[[], None]:
        """A registration or merge, bound to run at commit time."""
        kind = op["op"]
        if kind == "register":
            return lambda: self._do_register(op["name"], op["domain_bits"])
        if kind == "register_join":
            return lambda: self._do_register_query("join", op["left"], op["right"])
        if kind == "register_self_join":
            return lambda: self._do_register_query("self_join", op["relation"], op["relation"])
        if kind == "register_hierarchy":
            return lambda: self._do_register_hierarchy(op["relation"])
        if kind == "merge":
            return lambda: self._do_merge(op["relation"], op["values"], op.get("fingerprint"))
        raise RecoveryError(f"unknown WAL operation {kind!r}")

    def _stage_write(self, op: dict[str, Any]) -> Callable[[], None]:
        """Form a write's new counters on copies; return the swap committing them.

        The relation's sketch and, when it has one, its hierarchy each
        run their own ``update_*`` on a copy holding its own counter
        table, so the floats are those of an in-place write.
        """
        relation = op["relation"]
        method, args, hierarchy_args = _write_calls(op)
        targets = [(self._sketches[relation], args)]
        hierarchy = self._hierarchies.get(relation)
        if hierarchy is not None:
            targets.append((hierarchy, hierarchy_args))
        tables = []
        for live, call_args in targets:
            twin = _staged(live)
            getattr(twin, method)(*call_args)
            tables.append((live, twin.table))

        def swap() -> None:
            for live, table in tables:
                live.table = table

        return swap

    def _write_failed(self, op: dict[str, Any], exc: Exception) -> None:
        """A write that failed while forming: raise it or dead-letter it."""
        kind, relation = op["op"], op["relation"]
        if self._replaying:
            raise RecoveryError(
                f"replaying a {kind} write to {relation!r} failed: {exc!r}"
            ) from exc
        if self.policy == "raise":
            raise ApplyError(
                f"{kind} write to {relation!r} failed while its counters "
                f"were formed; nothing was logged or applied: {exc!r}"
            ) from exc
        payload = {key: value for key, value in op.items() if key not in ("op", "relation")}
        self._quarantine(
            relation,
            QuarantinedRecord(relation, kind, payload, "apply-failed", repr(exc)),
        )

    # -- registration ----------------------------------------------------

    def register_relation(self, name: str, domain_bits: int) -> None:
        """Declare a relation before streaming into it.

        Relations of the same domain width share one scheme (same seeds),
        which is what makes joins between them well-defined.
        """
        if name in self._domain_bits:
            raise ValueError(f"relation {name!r} already registered")
        if domain_bits < 1:
            raise ValueError("domain_bits must be positive")
        self._commit({"op": "register", "name": name, "domain_bits": domain_bits})

    def _do_register(self, name: str, domain_bits: int) -> None:
        group = f"domain:{domain_bits}"
        if group not in self._schemes:
            bits = domain_bits
            grid = SketchScheme.from_factory(
                lambda src: GeneratorChannel(self._factory(bits, src)),
                self._medians,
                self._averages,
                self._source,
            )
            self._schemes[group] = grid
        self._domain_bits[name] = domain_bits
        self._registration_order.append(name)
        self._groups[name] = group
        self._sketches[name] = self._schemes[group].sketch()

    def register_join(self, left: str, right: str) -> QueryHandle:
        """Continuous ``|left JOIN right|`` query."""
        self._require(left)
        self._require(right)
        if self._groups[left] != self._groups[right]:
            raise ValueError(
                "joined relations must share a domain width (and thus seeds)"
            )
        self._commit({"op": "register_join", "left": left, "right": right})
        return self._queries[self._next_query - 1]

    def register_self_join(self, relation: str) -> QueryHandle:
        """Continuous self-join size (F2) query."""
        self._require(relation)
        self._commit({"op": "register_self_join", "relation": relation})
        return self._queries[self._next_query - 1]

    def _do_register_query(self, kind: str, left: str, right: str) -> None:
        handle = QueryHandle(kind, left, right, self._next_query)
        self._queries[self._next_query] = handle
        self._next_query += 1

    def register_hierarchy(self, relation: str) -> None:
        """Maintain a dyadic hierarchy over ``relation`` from now on.

        Enables :meth:`heavy_hitters` and :meth:`quantile` (and the
        corresponding typed queries through :meth:`query`).  The
        hierarchy keeps one extra counter grid per dyadic level, **sharing
        the relation's scheme** (same seeds), and is updated continuously by
        every subsequent point/interval record.  Updates streamed before
        registration are not back-filled -- register the hierarchy right
        after the relation.  Remote sketches folded in with
        :meth:`merge_sketch` are likewise invisible to the hierarchy
        (only level-0 counters travel); merging sites should ship their
        hierarchies separately.
        """
        self._require(relation)
        if relation in self._hierarchies:
            raise ValueError(
                f"relation {relation!r} already has a hierarchy"
            )
        self._commit({"op": "register_hierarchy", "relation": relation})

    def _do_register_hierarchy(self, relation: str) -> None:
        self._hierarchies[relation] = DyadicHierarchy(
            self._schemes[self._groups[relation]],
            self._domain_bits[relation],
        )

    # -- streaming -------------------------------------------------------

    def process_point(
        self, relation: str, item: int, weight: float = 1.0
    ) -> None:
        """One arriving tuple (negative weight = deletion)."""
        self._require(relation)
        outcome = screen_point(
            item, weight, self._domain_bits[relation], self.policy
        )
        if isinstance(outcome, QuarantinedRecord):
            self._quarantine(relation, outcome)
            return
        item, weight = outcome
        if not self._commit(
            {"op": "point", "relation": relation, "item": item,
             "weight": weight}
        ):
            return
        obs.counter("stream.ingest.points_total").inc()
        obs.rate("stream.ingest.items_rate").mark()

    def process_interval(
        self, relation: str, low: int, high: int, weight: float = 1.0
    ) -> None:
        """One arriving interval, sketched in sub-linear time.

        On plane-covered schemes (the EH3 default) the interval is
        decomposed once and lands on every counter in one batched pass.
        Invalid intervals (``low > high``, out-of-domain endpoints,
        non-finite weights) are rejected with
        :class:`~repro.stream.errors.InvalidUpdateError` before they can
        reach the kernels (or quarantined/clamped per policy).
        """
        self._require(relation)
        outcome = screen_interval(
            low, high, weight, self._domain_bits[relation], self.policy
        )
        if isinstance(outcome, QuarantinedRecord):
            self._quarantine(relation, outcome)
            return
        low, high, weight = outcome
        if not self._commit(
            {"op": "interval", "relation": relation, "low": low,
             "high": high, "weight": weight}
        ):
            return
        obs.counter("stream.ingest.intervals_total").inc()
        obs.rate("stream.ingest.items_rate").mark()

    def process_points(self, relation: str, items, weights=None) -> None:
        """A batch of arriving tuples, one plane pass for the whole grid."""
        self._require(relation)
        screened = screen_points(
            items, weights, self._domain_bits[relation], self.policy
        )
        for record in screened.rejected:
            self._quarantine(relation, record)
        if screened.items.size == 0:
            return
        if not self._commit(
            {
                "op": "points",
                "relation": relation,
                "items": [int(i) for i in screened.items],
                "weights": (
                    None
                    if screened.weights is None
                    else [float(w) for w in screened.weights]
                ),
            }
        ):
            return
        obs.counter("stream.ingest.points_total").inc(int(screened.items.size))
        obs.counter("stream.ingest.batches_total").inc()
        obs.histogram(
            "stream.ingest.batch_size", obs.DEFAULT_SIZE_EDGES
        ).observe(float(screened.items.size))
        obs.rate("stream.ingest.items_rate").mark(float(screened.items.size))

    def process_intervals(self, relation: str, intervals, weights=None) -> None:
        """A batch of arriving intervals: one decomposition, one plane pass."""
        self._require(relation)
        screened = screen_intervals(
            intervals, weights, self._domain_bits[relation], self.policy
        )
        for record in screened.rejected:
            self._quarantine(relation, record)
        if screened.items.shape[0] == 0:
            return
        if not self._commit(
            {
                "op": "intervals",
                "relation": relation,
                "intervals": [
                    [int(a), int(b)] for a, b in screened.items
                ],
                "weights": (
                    None
                    if screened.weights is None
                    else [float(w) for w in screened.weights]
                ),
            }
        ):
            return
        count = int(screened.items.shape[0])
        obs.counter("stream.ingest.intervals_total").inc(count)
        obs.counter("stream.ingest.batches_total").inc()
        obs.histogram(
            "stream.ingest.batch_size", obs.DEFAULT_SIZE_EDGES
        ).observe(float(count))
        obs.rate("stream.ingest.items_rate").mark(float(count))

    def _quarantine(self, relation: str, record: QuarantinedRecord) -> None:
        obs.counter("stream.ingest.quarantined_total").inc()
        self.dead_letters.add(
            QuarantinedRecord(
                relation, record.kind, record.payload, record.code,
                record.reason,
            )
        )

    def merge_sketch(self, relation: str, other: SketchMatrix) -> None:
        """Fold in a remote site's sketch of the same relation.

        The remote sketch must have been built under the *same seeds*:
        scheme fingerprints are compared and a mismatch raises
        :class:`~repro.stream.errors.SchemeMismatchError` instead of
        silently combining incomparable counters.  Non-finite remote
        counters are rejected as :class:`InvalidUpdateError`.
        """
        self._require(relation)
        mine = self._sketches[relation].scheme
        if other.scheme is not mine and scheme_fingerprint(
            other.scheme
        ) != scheme_fingerprint(mine):
            raise SchemeMismatchError(
                f"remote sketch for {relation!r} was built under different "
                "seeds (scheme fingerprint mismatch); merging would corrupt "
                "every future estimate"
            )
        values = other.values()
        if not np.isfinite(values).all():
            raise InvalidUpdateError(
                f"remote sketch for {relation!r} contains non-finite "
                "counters; refusing to merge",
                "non-finite-counter",
            )
        self._commit(
            {
                "op": "merge",
                "relation": relation,
                "values": values.tolist(),
                "fingerprint": scheme_fingerprint(mine),
            }
        )

    def _do_merge(
        self,
        relation: str,
        values: list[list[float]],
        fingerprint: str | None = None,
    ) -> None:
        """Apply a committed merge (live, or replayed from the WAL).

        The WAL record carries the scheme fingerprint the merge was
        validated against; it is re-verified here so a replay onto a
        re-derived scheme lineage that no longer matches (a corrupted or
        hand-edited manifest, a seed-derivation regression) fails loudly
        instead of folding incomparable counters into the sketch.  The
        finiteness check from commit time is repeated for the same
        reason: replay trusts nothing the current process did not check.
        """
        scheme = self._sketches[relation].scheme
        if fingerprint is not None and fingerprint != scheme_fingerprint(scheme):
            raise SchemeMismatchError(
                f"WAL merge record for {relation!r} was committed against a "
                "different scheme fingerprint; replaying it would corrupt "
                "the sketch"
            )
        try:
            incoming = SketchMatrix.from_values(scheme, values)
        except ValueError as exc:
            raise InvalidUpdateError(
                f"WAL merge record for {relation!r}: {exc}; refusing to apply",
                "bad-shape",
            ) from exc
        if not np.isfinite(incoming.table).all():
            raise InvalidUpdateError(
                f"WAL merge record for {relation!r} contains non-finite "
                "counters; refusing to apply",
                "non-finite-counter",
            )
        self._sketches[relation] = self._sketches[relation].combined(incoming)

    # -- answers ---------------------------------------------------------

    def answer(self, handle: QueryHandle) -> float:
        """Current estimate for a registered query.

        Dispatches through the typed query engine (:meth:`query`); the
        value is bit-identical to the historical direct product path.
        """
        if self._queries.get(handle.identifier) is not handle:
            raise ValueError("unknown query handle")
        if handle.kind == "self_join":
            return self.query(F2Query(handle.left)).value
        return self.query(JoinSizeQuery(handle.left, handle.right)).value

    def query(self, query: Query) -> Any:
        """Execute one typed query against the live sketches.

        The stream-processor executor of :mod:`repro.query`: scalar
        queries (:class:`PointQuery`, :class:`RangeSumQuery`,
        :class:`F2Query`, :class:`JoinSizeQuery`,
        :class:`QuantileQuery`) return an
        :class:`~repro.query.types.Estimate`;
        :class:`HeavyHittersQuery` returns a list of
        :class:`~repro.query.types.HeavyHitter`.  Hierarchical queries
        require :meth:`register_hierarchy` first.
        """
        if isinstance(query, PointQuery):
            self._require(query.relation)
            return query_engine.point(
                self._sketches[query.relation], query.item
            )
        if isinstance(query, RangeSumQuery):
            self._require(query.relation)
            return query_engine.range_sum(
                self._sketches[query.relation], query.low, query.high
            )
        if isinstance(query, F2Query):
            self._require(query.relation)
            return query_engine.self_join(self._sketches[query.relation])
        if isinstance(query, JoinSizeQuery):
            self._require(query.left)
            self._require(query.right)
            return query_engine.product(
                self._sketches[query.left],
                self._sketches[query.right],
                kind="join_size",
            )
        if isinstance(query, HeavyHittersQuery):
            return self._hierarchy_for(query.relation).heavy_hitters(
                query.threshold, query.slack
            )
        if isinstance(query, QuantileQuery):
            return self._hierarchy_for(query.relation).quantile(
                query.fraction
            )
        raise TypeError(f"unsupported query type {type(query).__name__}")

    def heavy_hitters(
        self,
        relation: str,
        threshold: float,
        slack: float | tuple[float, ...] = 0.0,
    ) -> list[HeavyHitter]:
        """Items of ``relation`` estimated at or above ``threshold``.

        Continuously maintained: answers reflect every admitted update
        since :meth:`register_hierarchy`.  ``slack`` lowers the descent's
        pruning bar (see :meth:`DyadicHierarchy.heavy_hitters`).
        """
        result = self.query(HeavyHittersQuery(relation, threshold, slack))
        return list(result)

    def quantile(self, relation: str, fraction: float) -> Estimate:
        """The item at rank ``fraction * total_weight`` of ``relation``."""
        result = self.query(QuantileQuery(relation, fraction))
        assert isinstance(result, Estimate)
        return result

    def hierarchy_of(self, relation: str) -> DyadicHierarchy:
        """The relation's registered hierarchy (for direct descent)."""
        return self._hierarchy_for(relation)

    def _hierarchy_for(self, relation: str) -> DyadicHierarchy:
        self._require(relation)
        hierarchy = self._hierarchies.get(relation)
        if hierarchy is None:
            raise ValueError(
                f"relation {relation!r} has no hierarchy; call "
                "register_hierarchy() before streaming to enable "
                "heavy-hitter and quantile queries"
            )
        return hierarchy

    def query_handles(self) -> list[QueryHandle]:
        """The live handles of every registered query (fresh after
        :meth:`recover`, since handles from the dead process are gone)."""
        return list(self._queries.values())

    def sketch_of(self, relation: str) -> SketchMatrix:
        """The relation's live sketch (e.g. to ship to a coordinator)."""
        self._require(relation)
        return self._sketches[relation]

    def scheme_of(self, relation: str) -> SketchScheme:
        """The scheme backing a relation (to hand to new sites)."""
        self._require(relation)
        return self._schemes[self._groups[relation]]

    def memory_words(self) -> int:
        """Total counters held -- the paper's memory metric.

        Includes the per-level sketches of registered hierarchies: the
        processor stays memory-honest about its heavy-hitter surfaces.
        """
        return sum(
            sketch.scheme.counters for sketch in self._sketches.values()
        ) + sum(
            hierarchy.levels * hierarchy.scheme.counters
            for hierarchy in self._hierarchies.values()
        )

    def relations(self) -> list[str]:
        """Registered relation names."""
        return list(self._domain_bits)

    def stats(self) -> dict[str, Any]:
        """Operational counters: quarantine, durability, planes.

        ``"planes"`` reports, per scheme group, whether the packed plane
        kernels cover its grid -- and, when they do not, the recorded
        reason (scheme name plus the missing capability) so a silent
        per-cell slowdown is visible in telemetry instead of opaque.
        ``"metrics"`` merges in the process-wide registry snapshot
        (:func:`repro.obs.snapshot`), so the one ``stats()`` call existing
        callers already make now carries every instrument too.
        """
        return {
            "policy": self.policy,
            "quarantined_total": self.dead_letters.total,
            "quarantine_counts": {
                **dict(self.dead_letters.counts),
                "dropped": self.dead_letters.dropped,
            },
            "applied_seq": self._applied_seq,
            "durable": self._wal is not None,
            "scheme": self._scheme_name,
            "hierarchies": {
                name: hierarchy.levels
                for name, hierarchy in self._hierarchies.items()
            },
            "planes": {
                group: {
                    "plane": (
                        None
                        if decision.plane is None
                        else type(decision.plane).__name__
                    ),
                    "reason": decision.reason,
                }
                for group, decision in (
                    (group, plane_decision(scheme))
                    for group, scheme in self._schemes.items()
                )
            },
            "metrics": obs.snapshot(),
        }

    def _require(self, relation: str) -> None:
        if relation not in self._domain_bits:
            raise UnknownRelationError(f"unknown relation {relation!r}")
