"""The ingestion front door: strict validation, policies, quarantine.

Sketches are the *only* state the stream processor keeps, and sketch
updates are irreversible -- one malformed record (an out-of-domain item, a
NaN weight) silently poisons every future answer.  This module screens
every record *before* it can reach the plane kernels, under one of three
policies:

``raise``
    reject the record with a typed :class:`~repro.stream.errors.InvalidUpdateError`
    (the default; bad input is a caller bug);
``quarantine``
    divert the record to a bounded :class:`DeadLetterBuffer` with
    per-reason counters and keep serving;
``clamp``
    repair what is repairable (swap inverted interval endpoints, clip
    endpoints/items into the domain) and quarantine the rest
    (non-integral items and non-finite weights have no sensible repair).

Batch screening is vectorized: a clean batch -- the overwhelmingly common
case -- costs one min/max pass; only dirty batches pay a per-element
walk to attribute reasons.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro import obs
from repro.stream.errors import InvalidUpdateError

__all__ = [
    "POLICIES",
    "QuarantinedRecord",
    "Incident",
    "IncidentLog",
    "DeadLetterBuffer",
    "screen_point",
    "screen_interval",
    "screen_points",
    "screen_intervals",
]

POLICIES = ("raise", "quarantine", "clamp")


@dataclass(frozen=True)
class QuarantinedRecord:
    """One rejected stream record, preserved for offline inspection."""

    relation: str
    kind: str  # "point" | "interval" | "batch"
    payload: Any
    code: str
    reason: str


@dataclass(frozen=True)
class Incident:
    """One recorded incident: something failed and the caller kept serving.

    The cluster records shard restarts, stale reads and degraded
    answers; the calibration monitor records coverage dips.
    """

    operation: str
    relation: str
    error: str
    batch_size: int
    recovered: bool


class IncidentLog:
    """Bounded ring of the most recent incidents, with exact totals.

    An unbounded incident list grows without limit on a long-lived
    cluster whose shards keep failing; this ring keeps the newest
    ``capacity`` incidents for inspection while ``total`` and
    ``dropped`` stay exact over the whole history.  Every drop also
    bumps the ``stream.incidents.dropped_total`` counter so overflow is
    visible in metrics, not just on the object.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("incident capacity must be positive")
        self.capacity = capacity
        self._records: deque[Incident] = deque(maxlen=capacity)
        self.total = 0
        self.dropped = 0

    def append(self, incident: Incident) -> None:
        """Record one incident, evicting the oldest when full."""
        if len(self._records) == self.capacity:
            self.dropped += 1
            obs.counter("stream.incidents.dropped_total").inc()
        self._records.append(incident)
        self.total += 1

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Incident]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Incident:
        return self._records[index]

    def clear(self) -> None:
        """Drop buffered incidents (totals are kept: they are history)."""
        self._records.clear()


@dataclass
class DeadLetterBuffer:
    """Bounded buffer of quarantined records with per-reason counters.

    The buffer keeps the most recent ``capacity`` records (older ones are
    dropped) but the counters are exact over the whole stream history.
    Every eviction is counted -- on the object (``dropped``) and on the
    ``stream.quarantine.dropped_total`` metric -- so a buffer that has
    silently rolled over is distinguishable from one that never filled.
    """

    capacity: int = 1024
    _records: deque = field(init=False, repr=False)
    counts: Counter = field(init=False)
    total: int = field(init=False, default=0)
    dropped: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("quarantine capacity must be positive")
        self._records = deque(maxlen=self.capacity)
        self.counts = Counter()

    def add(self, record: QuarantinedRecord) -> None:
        """Quarantine one record and bump its reason counter.

        At capacity the oldest record is evicted to make room; the
        eviction bumps ``dropped`` and ``stream.quarantine.dropped_total``.
        """
        if len(self._records) == self.capacity:
            self.dropped += 1
            obs.counter("stream.quarantine.dropped_total").inc()
        self._records.append(record)
        self.counts[record.code] += 1
        self.total += 1

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[QuarantinedRecord]:
        return iter(self._records)

    def clear(self) -> None:
        """Drop buffered records (counters are kept: they are history)."""
        self._records.clear()


def _domain_limit(domain_bits: int) -> int:
    return 1 << domain_bits


def _is_integral(value: Any) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return False
    if isinstance(value, (int, np.integer)):
        return True
    if isinstance(value, (float, np.floating)):
        return bool(np.isfinite(value)) and float(value).is_integer()
    return False


def _check_point(item: Any, weight: Any, domain_bits: int) -> str | None:
    """The reason code a point record is invalid, or ``None`` if clean."""
    if not _is_integral(item):
        return "non-integral-item"
    if int(item) < 0:
        return "negative-item"
    if int(item) >= _domain_limit(domain_bits):
        return "item-out-of-domain"
    try:
        finite = np.isfinite(float(weight))
    except (TypeError, ValueError):
        return "non-numeric-weight"
    if not finite:
        return "non-finite-weight"
    return None


def _check_interval(
    low: Any, high: Any, weight: Any, domain_bits: int
) -> str | None:
    """The reason code an interval record is invalid, or ``None``."""
    if not _is_integral(low) or not _is_integral(high):
        return "non-integral-bound"
    low, high = int(low), int(high)
    if low > high:
        return "inverted-interval"
    limit = _domain_limit(domain_bits)
    if high < 0 or low >= limit:
        return "interval-out-of-domain"
    if low < 0 or high >= limit:
        return "interval-out-of-domain"
    try:
        finite = np.isfinite(float(weight))
    except (TypeError, ValueError):
        return "non-numeric-weight"
    if not finite:
        return "non-finite-weight"
    return None


_UNREPAIRABLE = frozenset(
    {"non-integral-item", "non-integral-bound", "non-numeric-weight",
     "non-finite-weight"}
)


def screen_point(
    item: Any, weight: Any, domain_bits: int, policy: str
) -> tuple[int, float] | QuarantinedRecord:
    """Screen one point record under ``policy``.

    Returns the (possibly clamped) ``(item, weight)`` to apply, or the
    :class:`QuarantinedRecord` that absorbed it.  Raises
    :class:`InvalidUpdateError` under the ``raise`` policy.
    """
    code = _check_point(item, weight, domain_bits)
    if code is None:
        return int(item), float(weight)
    reason = (
        f"point item={item!r} weight={weight!r} rejected ({code}) on "
        f"domain 2^{domain_bits}"
    )
    if policy == "raise":
        raise InvalidUpdateError(reason, code)
    if policy == "clamp" and code not in _UNREPAIRABLE:
        clamped = min(max(int(item), 0), _domain_limit(domain_bits) - 1)
        obs.counter("stream.validation.clamped_total").inc()
        return clamped, float(weight)
    return QuarantinedRecord("", "point", (item, weight), code, reason)


def screen_interval(
    low: Any, high: Any, weight: Any, domain_bits: int, policy: str
) -> tuple[int, int, float] | QuarantinedRecord:
    """Screen one interval record under ``policy``.

    Clamp repairs inverted endpoints by swapping and clips partially
    out-of-domain intervals; an interval entirely outside the domain is
    quarantined (clipping it would invent points that were never there).
    """
    code = _check_interval(low, high, weight, domain_bits)
    if code is None:
        return int(low), int(high), float(weight)
    reason = (
        f"interval [{low!r}, {high!r}] weight={weight!r} rejected "
        f"({code}) on domain 2^{domain_bits}"
    )
    if policy == "raise":
        raise InvalidUpdateError(reason, code)
    if policy == "clamp" and code not in _UNREPAIRABLE:
        a, b = int(low), int(high)
        if a > b:
            a, b = b, a
        limit = _domain_limit(domain_bits)
        if b < 0 or a >= limit:
            return QuarantinedRecord(
                "", "interval", (low, high, weight), "interval-out-of-domain",
                reason,
            )
        obs.counter("stream.validation.clamped_total").inc()
        return max(a, 0), min(b, limit - 1), float(weight)
    return QuarantinedRecord("", "interval", (low, high, weight), code, reason)


@dataclass
class ScreenedBatch:
    """A screened batch: what to apply plus what was quarantined."""

    items: np.ndarray
    weights: np.ndarray | None
    rejected: list[QuarantinedRecord]


def _as_weights(weights: Any, size: int) -> np.ndarray | None:
    if weights is None:
        return None
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if weights.size != size:
        raise InvalidUpdateError(
            f"{weights.size} weights for {size} batch elements",
            "weight-shape-mismatch",
        )
    return weights


def screen_points(
    items: Any, weights: Any, domain_bits: int, policy: str
) -> ScreenedBatch:
    """Screen a point batch; vectorized fast path for clean batches."""
    raw = np.asarray(items)
    if raw.ndim != 1:
        raise InvalidUpdateError(
            f"point batch must be 1-D, got shape {raw.shape}", "bad-shape"
        )
    weight_arr = _as_weights(weights, raw.size)
    if raw.size == 0:
        return ScreenedBatch(raw.astype(np.uint64), weight_arr, [])
    limit = _domain_limit(domain_bits)
    clean = False
    if raw.dtype.kind in "iu":
        low = int(raw.min())
        high = int(raw.max())
        clean = low >= 0 and high < limit
        if clean and weight_arr is not None:
            clean = bool(np.isfinite(weight_arr).all())
    if clean:
        return ScreenedBatch(raw.astype(np.uint64), weight_arr, [])
    # Dirty (or non-integer dtype) batch: walk elements, attribute reasons.
    kept_items: list[int] = []
    kept_weights: list[float] = []
    rejected: list[QuarantinedRecord] = []
    for position in range(raw.size):
        item = raw[position]
        weight = 1.0 if weight_arr is None else weight_arr[position]
        outcome = screen_point(item, weight, domain_bits, policy)
        if isinstance(outcome, QuarantinedRecord):
            rejected.append(outcome)
        else:
            kept_items.append(outcome[0])
            kept_weights.append(outcome[1])
    kept = np.asarray(kept_items, dtype=np.uint64)
    out_weights = (
        None if weight_arr is None else np.asarray(kept_weights, dtype=np.float64)
    )
    return ScreenedBatch(kept, out_weights, rejected)


def screen_intervals(
    intervals: Any, weights: Any, domain_bits: int, policy: str
) -> ScreenedBatch:
    """Screen an interval batch; vectorized fast path for clean batches."""
    raw = np.asarray(intervals)
    if raw.size == 0:
        raw = raw.reshape(0, 2)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise InvalidUpdateError(
            f"interval batch must have shape (n, 2), got {raw.shape}",
            "bad-shape",
        )
    weight_arr = _as_weights(weights, raw.shape[0])
    if raw.shape[0] == 0:
        return ScreenedBatch(raw.astype(np.uint64), weight_arr, [])
    limit = _domain_limit(domain_bits)
    clean = False
    if raw.dtype.kind in "iu":
        lows, highs = raw[:, 0], raw[:, 1]
        clean = (
            bool((lows <= highs).all())
            and int(lows.min()) >= 0
            and int(highs.max()) < limit
        )
        if clean and weight_arr is not None:
            clean = bool(np.isfinite(weight_arr).all())
    if clean:
        return ScreenedBatch(raw.astype(np.uint64), weight_arr, [])
    kept: list[tuple[int, int]] = []
    kept_weights: list[float] = []
    rejected: list[QuarantinedRecord] = []
    for position in range(raw.shape[0]):
        low, high = raw[position]
        weight = 1.0 if weight_arr is None else weight_arr[position]
        outcome = screen_interval(low, high, weight, domain_bits, policy)
        if isinstance(outcome, QuarantinedRecord):
            rejected.append(outcome)
        else:
            kept.append((outcome[0], outcome[1]))
            kept_weights.append(outcome[2])
    kept_arr = np.asarray(kept, dtype=np.uint64).reshape(-1, 2)
    out_weights = (
        None if weight_arr is None else np.asarray(kept_weights, dtype=np.float64)
    )
    return ScreenedBatch(kept_arr, out_weights, rejected)
