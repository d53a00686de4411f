"""Typed metric instruments and the process-wide registry.

The observability layer answers "where did this batch's time go" and
"how many records were quarantined" on a *live* run -- questions the
one-off ``BENCH_*.json`` reports cannot.  Four instrument types cover
everything the hot layers need:

``Counter``
    monotonically increasing event totals (items ingested, WAL records,
    quarantined records); negative increments are rejected, so a counter can
    never run backwards between two snapshots;
``Gauge``
    a value that goes both ways (registered relations, live WAL segment
    bytes);
``Histogram``
    fixed-bucket distributions (batch sizes, kernel latencies) with
    cumulative bucket counts, a running sum, and the observation count --
    Prometheus-exposition-compatible by construction;
``EWMARate``
    an exponentially weighted events-per-second rate whose decay is
    driven by the *injected* clock, so it is exactly reproducible under
    a fake clock in tests.

Instrument names follow ``layer.component.metric`` (lowercase segments
joined by dots; see ``docs/observability.md`` for the catalogue).  All
timing flows through an injected monotonic clock -- rule R005 forbids
direct ``time.monotonic()``/``time.perf_counter()`` calls outside this
package, which is what keeps determinism rule R003 checkable: swap the
clock and every duration in a snapshot replays bit-identically.
"""

from __future__ import annotations

import bisect
import math
import re
import time
from typing import Any, Callable, Iterable, Mapping, Union

__all__ = [
    "Clock",
    "Counter",
    "Gauge",
    "Histogram",
    "EWMARate",
    "Instrument",
    "MetricsRegistry",
    "NullRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRate",
    "DEFAULT_TIMING_EDGES",
    "DEFAULT_SIZE_EDGES",
    "histogram_quantile",
    "snapshot_to_prometheus",
]

#: A monotonic clock: a zero-argument callable returning float seconds.
Clock = Callable[[], float]

#: Latency buckets (seconds): 1us .. 10s, one decade per bucket.
DEFAULT_TIMING_EDGES: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Batch-size buckets: 1 .. 1e6, one decade per bucket.
DEFAULT_SIZE_EDGES: tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


def histogram_quantile(
    edges: Iterable[float], buckets: Iterable[int], q: float
) -> float:
    """Interpolated quantile ``q`` from fixed-bucket histogram state.

    The Prometheus ``histogram_quantile`` convention: find the bucket the
    rank falls in, then interpolate linearly between its bounds
    (assuming observations spread uniformly within the bucket).  The
    lowest bucket's lower bound is 0 when its edge is positive (its edge
    otherwise), and any rank landing in the implicit ``+Inf`` overflow
    bucket reports the highest finite edge -- the histogram genuinely
    cannot resolve beyond it.  An empty histogram has no quantiles and
    returns ``nan``.

    Operates on raw state (the ``edges``/``buckets`` lists of a
    :meth:`Histogram.snapshot`), so SLO evaluation can read quantiles
    straight from serialized snapshots; :meth:`Histogram.quantile` is
    the live-instrument veneer.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    edge_list = [float(edge) for edge in edges]
    counts = [int(count) for count in buckets]
    total = sum(counts)
    if total == 0:
        return math.nan
    rank = q * total
    cumulative = 0
    for position, count in enumerate(counts):
        cumulative += count
        if cumulative < rank or count == 0:
            continue
        if position >= len(edge_list):  # the implicit +Inf bucket
            return edge_list[-1]
        upper = edge_list[position]
        if position == 0:
            lower = 0.0 if upper > 0.0 else upper
        else:
            lower = edge_list[position - 1]
        within = rank - (cumulative - count)
        return lower + (upper - lower) * (within / count)
    return edge_list[-1]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"instrument name {name!r} must be dot-joined lowercase "
            "segments (layer.component.metric), e.g. "
            "'stream.ingest.points_total'"
        )
    return name


class Counter:
    """A monotonically increasing total.  ``inc`` rejects negatives."""

    kind = "counter"
    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the running total."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        """This instrument's state as a JSON-compatible dict."""
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A value that can go up and down (current sizes, live totals)."""

    kind = "gauge"
    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.value -= amount

    def snapshot(self) -> dict[str, Any]:
        """This instrument's state as a JSON-compatible dict."""
        return {"type": self.kind, "value": self.value}


class Histogram:
    """A fixed-bucket distribution with cumulative counts.

    ``edges`` are the inclusive upper bounds of the finite buckets (an
    implicit ``+Inf`` bucket catches the rest), strictly increasing --
    the Prometheus ``le`` convention, so exposition needs no re-binning.
    An observation ``v`` lands in the first bucket with ``v <= edge``.
    """

    kind = "histogram"
    __slots__ = ("name", "description", "edges", "bucket_counts", "sum",
                 "count")

    def __init__(
        self,
        name: str,
        edges: Iterable[float] = DEFAULT_TIMING_EDGES,
        description: str = "",
    ) -> None:
        self.name = name
        self.description = description
        self.edges = tuple(float(e) for e in edges)
        if not self.edges:
            raise ValueError(f"histogram {name!r} needs at least one edge")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError(
                f"histogram {name!r} edges must be strictly increasing"
            )
        if any(not math.isfinite(e) for e in self.edges):
            raise ValueError(
                f"histogram {name!r} edges must be finite (+Inf is implicit)"
            )
        self.bucket_counts = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect.bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Interpolated quantile ``q`` of the recorded distribution.

        See :func:`histogram_quantile` for the interpolation convention
        (``nan`` when empty, capped at the highest finite edge for ranks
        in the overflow bucket).
        """
        return histogram_quantile(self.edges, self.bucket_counts, q)

    def snapshot(self) -> dict[str, Any]:
        """This instrument's state as a JSON-compatible dict."""
        return {
            "type": self.kind,
            "edges": list(self.edges),
            "buckets": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }


class EWMARate:
    """An exponentially weighted events-per-second rate.

    ``mark(n)`` folds ``n`` events at the injected clock's *now* into the
    moving rate with half-life ``halflife`` seconds.  ``value()`` decays
    the rate to now without marking.  With a fake clock the trajectory is
    exactly reproducible, so rate semantics are unit-testable.
    """

    kind = "rate"
    __slots__ = ("name", "description", "halflife", "_clock", "_rate",
                 "_last", "count")

    def __init__(
        self,
        name: str,
        clock: Clock,
        halflife: float = 5.0,
        description: str = "",
    ) -> None:
        if halflife <= 0:
            raise ValueError(f"rate {name!r} halflife must be positive")
        self.name = name
        self.description = description
        self.halflife = halflife
        self._clock = clock
        self._rate = 0.0
        self._last: float | None = None
        self.count = 0

    def _decay(self, now: float) -> float:
        if self._last is None:
            return 0.0
        dt = max(0.0, now - self._last)
        return self._rate * math.pow(2.0, -dt / self.halflife)

    def mark(self, events: int = 1) -> None:
        """Fold ``events`` occurring now into the moving rate."""
        if events < 0:
            raise ValueError(f"rate {self.name!r} cannot mark {events} events")
        now = self._clock()
        if self._last is None:
            self._rate = 0.0
        else:
            dt = max(1e-9, now - self._last)
            instantaneous = events / dt
            alpha = 1.0 - math.pow(2.0, -dt / self.halflife)
            self._rate = self._decay(now) + alpha * (
                instantaneous - self._decay(now)
            )
        self._last = now
        self.count += events

    def value(self) -> float:
        """The rate (events/second) decayed to the clock's now."""
        return self._decay(self._clock())

    def snapshot(self) -> dict[str, Any]:
        """This instrument's state as a JSON-compatible dict."""
        return {"type": self.kind, "value": self.value(), "count": self.count}


Instrument = Union[Counter, Gauge, Histogram, EWMARate]


class MetricsRegistry:
    """The process-wide table of named instruments.

    ``counter`` / ``gauge`` / ``histogram`` / ``rate`` are get-or-create:
    the first call under a name creates the instrument, later calls
    return it, and a name re-used under a different type (or a histogram
    re-requested with different edges) raises rather than silently
    splitting a metric.  ``clock`` is the injected monotonic time source
    every duration-bearing instrument reads.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock: Clock = clock if clock is not None else time.perf_counter
        self._instruments: dict[str, Instrument] = {}

    # -- clock -----------------------------------------------------------

    @property
    def clock(self) -> Clock:
        """The injected monotonic clock."""
        return self._clock

    def set_clock(self, clock: Clock) -> Clock:
        """Swap the clock (tests inject fakes); returns the old one."""
        previous = self._clock
        self._clock = clock
        return previous

    def now(self) -> float:
        """The injected clock's current reading (seconds)."""
        return self._clock()

    # -- instrument accessors -------------------------------------------

    def _get(self, name: str, kind: str) -> Instrument | None:
        existing = self._instruments.get(name)
        if existing is None:
            return None
        if existing.kind != kind:
            raise ValueError(
                f"instrument {name!r} is a {existing.kind}, requested as "
                f"a {kind}"
            )
        return existing

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the counter registered under ``name``."""
        existing = self._get(name, "counter")
        if existing is None:
            existing = self._instruments.setdefault(
                _check_name(name), Counter(name, description)
            )
        assert isinstance(existing, Counter)
        return existing

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the gauge registered under ``name``."""
        existing = self._get(name, "gauge")
        if existing is None:
            existing = self._instruments.setdefault(
                _check_name(name), Gauge(name, description)
            )
        assert isinstance(existing, Gauge)
        return existing

    def histogram(
        self,
        name: str,
        edges: Iterable[float] = DEFAULT_TIMING_EDGES,
        description: str = "",
    ) -> Histogram:
        """Get or create the histogram registered under ``name``.

        Re-requesting an existing histogram with different edges raises:
        two call sites silently observing into different bucket layouts
        is exactly the drift a registry exists to prevent.
        """
        existing = self._get(name, "histogram")
        if existing is not None:
            assert isinstance(existing, Histogram)
            requested = tuple(float(e) for e in edges)
            if requested != existing.edges:
                raise ValueError(
                    f"histogram {name!r} already registered with edges "
                    f"{existing.edges}, requested {requested}"
                )
            return existing
        created = Histogram(_check_name(name), edges, description)
        self._instruments[name] = created
        return created

    def rate(
        self, name: str, halflife: float = 5.0, description: str = ""
    ) -> EWMARate:
        """Get or create the EWMA rate registered under ``name``."""
        existing = self._get(name, "rate")
        if existing is None:
            created = EWMARate(
                _check_name(name), self._clock, halflife, description
            )
            self._instruments[name] = created
            return created
        assert isinstance(existing, EWMARate)
        return existing

    # -- snapshots and lifecycle ----------------------------------------

    def instruments(self) -> tuple[str, ...]:
        """Registered instrument names, sorted."""
        return tuple(sorted(self._instruments))

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every instrument's state, keyed by name (sorted, JSON-safe)."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def to_prometheus(self) -> str:
        """The registry's state in Prometheus text exposition format."""
        return snapshot_to_prometheus(self.snapshot())

    def reset(self) -> None:
        """Drop every instrument (scoping snapshots to one run)."""
        self._instruments.clear()


# -- disabled mode -------------------------------------------------------


class NullCounter:
    """No-op counter handed out by the disabled registry."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""


class NullGauge:
    """No-op gauge handed out by the disabled registry."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the value."""

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def dec(self, amount: float = 1.0) -> None:
        """Discard the decrement."""


class NullHistogram:
    """No-op histogram handed out by the disabled registry."""

    kind = "histogram"
    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def quantile(self, q: float) -> float:
        """Always ``nan`` (the empty-histogram convention)."""
        return math.nan


class NullRate:
    """No-op rate handed out by the disabled registry."""

    kind = "rate"
    __slots__ = ()

    def mark(self, events: int = 1) -> None:
        """Discard the events."""

    def value(self) -> float:
        """Always zero."""
        return 0.0


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()
_NULL_RATE = NullRate()


class NullRegistry:
    """The disabled registry: every accessor returns a shared no-op.

    Accessors skip name validation and allocation entirely -- the cost of
    a disabled instrument call is one attribute lookup plus an empty
    method body, which is what keeps the disabled-mode overhead budget
    (asserted in ``tests/test_obs.py``) trivially satisfiable.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock: Clock = clock if clock is not None else time.perf_counter

    @property
    def clock(self) -> Clock:
        """The injected monotonic clock (still live while disabled)."""
        return self._clock

    def set_clock(self, clock: Clock) -> Clock:
        """Swap the clock; returns the old one."""
        previous = self._clock
        self._clock = clock
        return previous

    def now(self) -> float:
        """The injected clock's current reading (seconds)."""
        return self._clock()

    def counter(self, name: str, description: str = "") -> NullCounter:
        """The shared no-op counter."""
        return _NULL_COUNTER

    def gauge(self, name: str, description: str = "") -> NullGauge:
        """The shared no-op gauge."""
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        edges: Iterable[float] = DEFAULT_TIMING_EDGES,
        description: str = "",
    ) -> NullHistogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    def rate(
        self, name: str, halflife: float = 5.0, description: str = ""
    ) -> NullRate:
        """The shared no-op rate."""
        return _NULL_RATE

    def instruments(self) -> tuple[str, ...]:
        """Always empty."""
        return ()

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Always empty."""
        return {}

    def to_prometheus(self) -> str:
        """Always empty."""
        return ""

    def reset(self) -> None:
        """Nothing to drop."""


# -- Prometheus text exposition ------------------------------------------


def _prom_name(name: str, suffix: str = "") -> str:
    return "repro_" + name.replace(".", "_") + suffix


def _prom_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


def snapshot_to_prometheus(snapshot: Mapping[str, Mapping[str, Any]]) -> str:
    """Render a registry snapshot as Prometheus text exposition.

    Names are mangled ``stream.ingest.points_total`` ->
    ``repro_stream_ingest_points_total``; histograms emit the standard
    cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count``;
    EWMA rates are exposed as gauges.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        state = snapshot[name]
        kind = state["type"]
        prom = _prom_name(name)
        if kind == "histogram":
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for edge, bucket in zip(
                list(state["edges"]) + [math.inf], state["buckets"]
            ):
                cumulative += bucket
                lines.append(
                    f'{prom}_bucket{{le="{_prom_number(float(edge))}"}} '
                    f"{cumulative}"
                )
            lines.append(f"{prom}_sum {_prom_number(state['sum'])}")
            lines.append(f"{prom}_count {state['count']}")
        else:
            prom_kind = "counter" if kind == "counter" else "gauge"
            lines.append(f"# TYPE {prom} {prom_kind}")
            lines.append(f"{prom} {_prom_number(state['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")
