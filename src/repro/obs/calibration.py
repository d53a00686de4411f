"""Estimate-calibration monitoring: realized vs predicted error, live.

Every :class:`~repro.query.types.Estimate` ships its own error
accounting -- the empirical one-sigma band around the median-of-means.
That band is a *prediction*: on a workload where the ground truth is
known, the fraction of answers whose truth actually falls inside the
``z``-widened band (the *CI coverage*) should track the nominal
confidence level.  A scheme whose coverage drifts below nominal is
lying about its error bars -- the estimator may still be unbiased, but
every downstream consumer sizing decisions off ``ci_low``/``ci_high``
is now over-trusting it.

:class:`CalibrationMonitor` turns that check into instruments: each
observed (truth, estimate) pair lands in the ``query.calibration.*``
counters and error histograms, per-scheme coverage gauges track the
hit rate, and once a scheme has ``min_samples`` observations with
coverage below ``floor`` the monitor records one
:class:`~repro.stream.validation.Incident` (the same record the
cluster uses for its degraded answers) and bumps
``query.calibration.incidents_total`` -- the signal the SLO engine's
calibration objectives and the CI gate read.

:func:`run_calibration_workload` is the canonical ground-truth
workload: the Zipf(1.3) acceptance distribution, exact answers from
``np.bincount``, and a point/range/self-join query mix per scheme.
Deterministic for a fixed seed (rule R003), so coverage numbers replay
exactly in CI.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro.query.types import Estimate
from repro.stream.validation import Incident, IncidentLog

__all__ = [
    "ERROR_EDGES",
    "SchemeCalibration",
    "CalibrationMonitor",
    "run_calibration_workload",
    "coverage_from_snapshot",
]

#: Histogram edges for relative errors: logarithmic from a tenth of a
#: percent to 5x, the span the acceptance workloads actually produce.
ERROR_EDGES = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


class SchemeCalibration:
    """Running coverage tally for one scheme."""

    __slots__ = ("samples", "hits", "flagged")

    def __init__(self) -> None:
        self.samples = 0
        self.hits = 0
        self.flagged = False

    @property
    def coverage(self) -> float:
        """Fraction of samples whose CI covered the truth (1.0 when idle)."""
        return self.hits / self.samples if self.samples else 1.0


class CalibrationMonitor:
    """Tracks realized-vs-predicted error of estimates per scheme.

    ``nominal`` is the confidence level the ``z``-widened one-sigma band
    claims (1.96 sigma ~ 95% for a near-normal estimator); ``floor`` is
    the coverage below which a scheme is declared miscalibrated.  The
    incident fires once per dip: a scheme recovering above ``floor``
    re-arms its flag, so a persistent miscalibration produces one
    incident, not one per sample.
    """

    def __init__(
        self,
        nominal: float = 0.95,
        floor: float = 0.90,
        z: float = 1.96,
        min_samples: int = 20,
    ) -> None:
        if not 0.0 < floor <= nominal <= 1.0:
            raise ValueError(
                "need 0 < floor <= nominal <= 1, got "
                f"floor={floor}, nominal={nominal}"
            )
        if z <= 0.0:
            raise ValueError("z must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        self.nominal = nominal
        self.floor = floor
        self.z = z
        self.min_samples = min_samples
        self.incidents = IncidentLog()
        self._schemes: dict[str, SchemeCalibration] = {}

    def observe(
        self, scheme: str, truth: float, estimate: Estimate | float
    ) -> bool:
        """Record one ground-truth comparison; returns CI-covered.

        ``estimate`` is normally a full :class:`Estimate` (the CI check
        uses its band); a bare float is accepted for truth-only error
        tracking and counts as a miss unless exactly right -- a scheme
        that cannot produce error bars cannot claim calibration.
        """
        value = float(estimate)
        if isinstance(estimate, Estimate):
            half = self.z * (estimate.ci_high - estimate.ci_low) / 2.0
        else:
            half = 0.0
        covered = abs(truth - value) <= half
        scale = max(abs(truth), 1.0)
        realized = abs(value - truth) / scale
        predicted = half / (self.z * scale)  # the band's own one-sigma claim
        stats = self._schemes.setdefault(scheme, SchemeCalibration())
        stats.samples += 1
        obs.counter("query.calibration.samples_total").inc()
        obs.counter(f"query.calibration.{scheme}.samples_total").inc()
        if covered:
            stats.hits += 1
            obs.counter("query.calibration.ci_hits_total").inc()
        else:
            obs.counter("query.calibration.ci_misses_total").inc()
        obs.histogram(
            "query.calibration.realized_relative_error", ERROR_EDGES
        ).observe(realized)
        obs.histogram(
            "query.calibration.predicted_relative_error", ERROR_EDGES
        ).observe(predicted)
        obs.gauge(f"query.calibration.{scheme}.coverage").set(stats.coverage)
        obs.gauge("query.calibration.coverage").set(self.coverage())
        self._check_floor(scheme, stats)
        return covered

    def _check_floor(self, scheme: str, stats: SchemeCalibration) -> None:
        if stats.samples < self.min_samples:
            return
        if stats.coverage >= self.floor:
            stats.flagged = False  # recovered: re-arm for the next dip
            return
        if stats.flagged:
            return
        stats.flagged = True
        obs.counter("query.calibration.incidents_total").inc()
        self.incidents.append(
            Incident(
                operation="calibration",
                relation=scheme,
                error=(
                    f"CI coverage {stats.coverage:.3f} below floor "
                    f"{self.floor:.2f} after {stats.samples} samples "
                    f"(nominal {self.nominal:.2f})"
                ),
                batch_size=stats.samples,
                recovered=False,
            )
        )

    def coverage(self, scheme: str | None = None) -> float:
        """Observed CI coverage, per scheme or pooled (1.0 when idle)."""
        if scheme is not None:
            stats = self._schemes.get(scheme)
            return stats.coverage if stats is not None else 1.0
        samples = sum(s.samples for s in self._schemes.values())
        hits = sum(s.hits for s in self._schemes.values())
        return hits / samples if samples else 1.0

    def report(self) -> dict[str, dict[str, Any]]:
        """Per-scheme calibration state, keyed by scheme name."""
        return {
            scheme: {
                "samples": stats.samples,
                "hits": stats.hits,
                "coverage": stats.coverage,
                "flagged": stats.flagged,
            }
            for scheme, stats in sorted(self._schemes.items())
        }


def run_calibration_workload(
    seed: int = 20060627,
    *,
    schemes: Sequence[str] = ("eh3", "bch3", "bch5"),
    medians: int = 5,
    averages: int = 16,
    domain_bits: int = 10,
    points: int = 4000,
    range_queries: int = 6,
    point_queries: int = 6,
    monitor: CalibrationMonitor | None = None,
) -> CalibrationMonitor:
    """Ground-truth calibration pass over the Zipf acceptance workload.

    Streams a Zipf(1.3) frequency vector into one sketch per scheme and
    compares point, range-sum, and self-join answers against exact
    counts from ``np.bincount``.  Returns the (possibly supplied)
    monitor with every comparison recorded.
    """
    from repro.query import engine as query_engine
    from repro.schemes import get_spec
    from repro.sketch.ams import SketchScheme
    from repro.sketch.atomic import GeneratorChannel
    from repro.generators.seeds import SeedSource

    if monitor is None:
        monitor = CalibrationMonitor()
    domain = 1 << domain_bits
    rng = np.random.default_rng(seed)
    data = rng.zipf(1.3, size=points)
    data = data[data < domain].astype(np.uint64)
    counts = np.bincount(data.astype(np.int64), minlength=domain).astype(
        np.float64
    )
    hot = np.argsort(counts)[::-1][:point_queries]
    lows = rng.integers(0, domain // 2, size=range_queries)
    spans = rng.integers(1, domain // 2, size=range_queries)
    f2_truth = float(np.square(counts).sum())
    with obs.span("query.calibration.workload", points=int(data.size)):
        for name in schemes:
            spec = get_spec(name)
            grid = SketchScheme.from_factory(
                lambda src: GeneratorChannel(spec.factory(domain_bits, src)),
                medians,
                averages,
                SeedSource(seed),
            )
            sketch = grid.sketch()
            sketch.update_points(data)
            for item in hot:
                estimate = query_engine.point(sketch, int(item))
                monitor.observe(name, float(counts[int(item)]), estimate)
            for low, span_width in zip(lows, spans):
                alpha = int(low)
                beta = min(int(low) + int(span_width), domain - 1)
                estimate = query_engine.range_sum(sketch, alpha, beta)
                truth = float(counts[alpha : beta + 1].sum())
                monitor.observe(name, truth, estimate)
            monitor.observe(name, f2_truth, query_engine.self_join(sketch))
    return monitor


def coverage_from_snapshot(snapshot: Mapping[str, Any]) -> float | None:
    """Pooled CI coverage recoverable from a metrics snapshot.

    Reads the hit/miss counters (not the gauge) so a merged or restored
    snapshot still yields the right ratio; ``None`` when the snapshot
    holds no calibration samples.
    """
    hits = snapshot.get("query.calibration.ci_hits_total")
    misses = snapshot.get("query.calibration.ci_misses_total")
    total = 0.0
    covered = 0.0
    if isinstance(hits, Mapping):
        covered = float(hits.get("value", 0.0))
        total += covered
    if isinstance(misses, Mapping):
        total += float(misses.get("value", 0.0))
    if total <= 0.0:
        return None
    return covered / total
