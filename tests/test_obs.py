"""The observability layer: instruments, registry, spans, exposition.

Unit tests pin the exact instrument semantics (counter monotonicity,
Prometheus ``le`` bucketing, EWMA decay under a fake clock), the module
switch (shared no-op singletons, state preserved across disable/enable),
and the disabled-mode overhead budget from the issue: the per-batch
instrumentation cost with ``repro.obs`` disabled must stay under 3% of a
representative batch-kernel's cost.  Integration tests drive the fault
suite and the ``metrics`` CLI end to end.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import pytest

from repro import obs
from repro.obs.metrics import (
    Counter,
    EWMARate,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullCounter,
    NullHistogram,
    histogram_quantile,
    snapshot_to_prometheus,
)
from repro.obs.tracing import RemoteSpanBuffer, TraceCollector
from repro.stream.validation import Incident, IncidentLog

SEED = 20060627
GOLDEN_LIST = Path(__file__).with_name("metrics_golden.txt")


class FakeClock:
    """A deterministic monotonic clock tests advance by hand."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fresh_obs():
    """Swap in a fresh live registry; restore the module state after."""
    previous_registry = obs.set_registry(MetricsRegistry())
    previous_enabled = obs.set_enabled(True)
    previous_collector = obs.set_trace_collector(None)
    try:
        yield obs.registry()
    finally:
        obs.set_registry(previous_registry)
        obs.set_enabled(previous_enabled)
        obs.set_trace_collector(previous_collector)


@pytest.fixture
def fake_clock(fresh_obs):
    """A fresh registry driven entirely by a hand-advanced clock."""
    clock = FakeClock()
    obs.set_clock(clock)
    return clock


# ---------------------------------------------------------------------------
# Instrument semantics.
# ---------------------------------------------------------------------------


class TestCounter:
    def test_accumulates(self) -> None:
        counter = Counter("t.counter")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert counter.snapshot() == {"type": "counter", "value": 3.5}

    def test_negative_increment_rejected(self) -> None:
        counter = Counter("t.counter")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)
        assert counter.value == 0.0


class TestGauge:
    def test_set_inc_dec(self) -> None:
        gauge = Gauge("t.gauge")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0
        assert gauge.snapshot() == {"type": "gauge", "value": 13.0}


class TestHistogram:
    def test_le_bucketing(self) -> None:
        # Edges are inclusive upper bounds (Prometheus `le`): an
        # observation lands in the first bucket with value <= edge.
        hist = Histogram("t.hist", edges=(1.0, 10.0))
        hist.observe(1.0)  # exactly on the first edge -> bucket 0
        hist.observe(1.5)  # -> bucket 1 (le 10)
        hist.observe(10.0)  # on the second edge -> bucket 1
        hist.observe(10.1)  # past every edge -> implicit +Inf bucket
        assert hist.bucket_counts == [1, 2, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(22.6)

    def test_bad_edges_rejected(self) -> None:
        with pytest.raises(ValueError, match="at least one edge"):
            Histogram("t.hist", edges=())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("t.hist", edges=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="finite"):
            Histogram("t.hist", edges=(1.0, math.inf))


class TestEWMARate:
    def test_trajectory_is_reproducible(self) -> None:
        clock = FakeClock()
        rate = EWMARate("t.rate", clock, halflife=1.0)
        rate.mark()  # first mark only anchors the clock
        assert rate.value() == 0.0
        clock.advance(1.0)
        # One event over one half-life: alpha = 1 - 2^-1 = 0.5, the
        # decayed rate is 0, the instantaneous rate is 1 event/s.
        rate.mark()
        assert rate.value() == pytest.approx(0.5)
        clock.advance(1.0)  # decays by one half-life without marking
        assert rate.value() == pytest.approx(0.25)
        assert rate.count == 2
        snap = rate.snapshot()
        assert snap["type"] == "rate"
        assert snap["count"] == 2

    def test_invalid_arguments_rejected(self) -> None:
        clock = FakeClock()
        with pytest.raises(ValueError, match="halflife"):
            EWMARate("t.rate", clock, halflife=0.0)
        rate = EWMARate("t.rate", clock)
        with pytest.raises(ValueError, match="cannot mark"):
            rate.mark(-1)


# ---------------------------------------------------------------------------
# Registry: get-or-create, conflicts, naming, snapshots.
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self) -> None:
        registry = MetricsRegistry()
        first = registry.counter("layer.part.total")
        first.inc(3)
        assert registry.counter("layer.part.total") is first
        assert registry.counter("layer.part.total").value == 3.0

    def test_kind_conflict_raises(self) -> None:
        registry = MetricsRegistry()
        registry.counter("layer.part.total")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("layer.part.total")

    def test_histogram_edge_mismatch_raises(self) -> None:
        registry = MetricsRegistry()
        hist = registry.histogram("layer.part.size", edges=(1.0, 10.0))
        assert registry.histogram(
            "layer.part.size", edges=(1.0, 10.0)
        ) is hist
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("layer.part.size", edges=(1.0, 100.0))

    @pytest.mark.parametrize(
        "name", ["single", "Upper.case", "dash-ed.name", "trailing.dot."]
    )
    def test_bad_names_rejected(self, name: str) -> None:
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="dot-joined lowercase"):
            registry.counter(name)

    def test_snapshot_sorted_and_reset(self) -> None:
        registry = MetricsRegistry()
        registry.counter("b.two").inc()
        registry.counter("a.one").inc()
        assert list(registry.snapshot()) == ["a.one", "b.two"]
        assert registry.instruments() == ("a.one", "b.two")
        registry.reset()
        assert registry.snapshot() == {}

    def test_rate_reads_registry_clock(self) -> None:
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        rate = registry.rate("t.items_rate", halflife=1.0)
        rate.mark()
        clock.advance(1.0)
        rate.mark()
        assert rate.value() == pytest.approx(0.5)
        assert registry.now() == 1.0


# ---------------------------------------------------------------------------
# Prometheus text exposition.
# ---------------------------------------------------------------------------


class TestPrometheusExposition:
    def test_counter_and_rate_lines(self) -> None:
        registry = MetricsRegistry(clock=FakeClock())
        registry.counter("stream.ingest.points_total").inc(42)
        registry.rate("stream.ingest.items_rate").mark(10)
        text = registry.to_prometheus()
        assert "# TYPE repro_stream_ingest_points_total counter" in text
        assert "repro_stream_ingest_points_total 42" in text
        # EWMA rates are exposed as gauges.
        assert "# TYPE repro_stream_ingest_items_rate gauge" in text
        assert text.endswith("\n")

    def test_histogram_buckets_cumulative(self) -> None:
        registry = MetricsRegistry()
        hist = registry.histogram("a.size", edges=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        lines = registry.to_prometheus().splitlines()
        assert 'repro_a_size_bucket{le="1"} 1' in lines
        assert 'repro_a_size_bucket{le="10"} 2' in lines
        assert 'repro_a_size_bucket{le="+Inf"} 3' in lines
        assert "repro_a_size_sum 55.5" in lines
        assert "repro_a_size_count 3" in lines

    def test_empty_snapshot_renders_empty(self) -> None:
        assert snapshot_to_prometheus({}) == ""


# ---------------------------------------------------------------------------
# Module switch: shared no-ops, preserved live state.
# ---------------------------------------------------------------------------


class TestModuleSwitch:
    def test_disabled_hands_out_shared_singletons(self, fresh_obs) -> None:
        obs.set_enabled(False)
        assert obs.counter("a.b") is obs.counter("c.d")
        assert isinstance(obs.counter("a.b"), NullCounter)
        assert isinstance(obs.histogram("a.b"), NullHistogram)
        # Name validation is skipped entirely on the no-op path.
        obs.counter("not a valid name").inc()
        assert obs.rate("a.b").value() == 0.0
        assert obs.snapshot() == {}
        assert obs.to_prometheus() == ""

    def test_live_state_survives_disable(self, fresh_obs) -> None:
        obs.counter("a.b").inc(3)
        previous = obs.set_enabled(False)
        assert previous is True
        obs.counter("a.b").inc(5)  # discarded
        obs.set_enabled(True)
        assert obs.snapshot()["a.b"]["value"] == 3.0

    def test_monotonic_works_while_disabled(self, fresh_obs) -> None:
        obs.set_enabled(False)
        before = obs.monotonic()
        after = obs.monotonic()
        assert after >= before

    def test_disabled_span_is_shared_noop(self, fresh_obs) -> None:
        obs.set_enabled(False)
        assert obs.span("a.b") is obs.span("c.d", key="value")
        with obs.span("a.b"):
            pass
        obs.set_enabled(True)
        assert obs.snapshot() == {}


# ---------------------------------------------------------------------------
# Spans and tracing.
# ---------------------------------------------------------------------------


class TestSpans:
    def test_duration_lands_in_seconds_histogram(self, fake_clock) -> None:
        with obs.span("outer.region"):
            fake_clock.advance(0.5)
        state = obs.snapshot()["outer.region.seconds"]
        assert state["count"] == 1
        assert state["sum"] == pytest.approx(0.5)

    def test_nesting_records_parent(self, fake_clock) -> None:
        collector = TraceCollector()
        obs.set_trace_collector(collector)
        with obs.span("outer.region", stage="load"):
            fake_clock.advance(1.0)
            with obs.span("inner.region"):
                fake_clock.advance(0.25)
        assert collector.depth == 0
        inner, outer = collector.events
        assert inner["name"] == "inner.region"
        assert inner["ph"] == "X"
        assert inner["dur"] == pytest.approx(0.25e6)  # microseconds
        assert inner["args"]["parent"] == "outer.region"
        assert outer["dur"] == pytest.approx(1.25e6)
        assert outer["args"] == {"stage": "load"}

    def test_exception_closes_span_and_tags_error(self, fake_clock) -> None:
        collector = TraceCollector()
        obs.set_trace_collector(collector)
        with pytest.raises(RuntimeError, match="boom"):
            with obs.span("bad.region"):
                fake_clock.advance(0.1)
                raise RuntimeError("boom")
        assert collector.depth == 0
        assert collector.events[-1]["args"]["error"] == "RuntimeError"
        assert obs.snapshot()["bad.region.seconds"]["count"] == 1

    def test_tracing_works_while_metrics_disabled(self, fresh_obs) -> None:
        obs.set_enabled(False)
        collector = TraceCollector()
        obs.set_trace_collector(collector)
        with obs.span("a.b"):
            pass
        assert len(collector.events) == 1
        assert obs.snapshot() == {}  # no histogram was recorded

    def test_write_jsonl_round_trips(self, fake_clock, tmp_path) -> None:
        collector = TraceCollector()
        obs.set_trace_collector(collector)
        with obs.span("a.b"):
            fake_clock.advance(0.01)
        target = tmp_path / "trace.jsonl"
        count = collector.write_jsonl(str(target))
        lines = target.read_text().splitlines()
        assert count == len(lines) == 1
        event = json.loads(lines[0])
        assert event["name"] == "a.b"
        assert collector.as_chrome_trace() == [collector.events[0]]


# ---------------------------------------------------------------------------
# Histogram quantiles (the SLO engine reads these from snapshots).
# ---------------------------------------------------------------------------


class TestHistogramQuantile:
    def test_empty_histogram_has_no_quantiles(self) -> None:
        assert math.isnan(histogram_quantile((1.0, 10.0), (0, 0, 0), 0.5))
        hist = Histogram("t.hist", edges=(1.0, 10.0))
        assert math.isnan(hist.quantile(0.99))

    def test_single_bucket_interpolates_from_zero(self) -> None:
        # All mass in the first bucket: lower bound is 0, upper is the
        # edge, so the median sits halfway up the bucket.
        assert histogram_quantile((4.0,), (10, 0), 0.5) == pytest.approx(2.0)
        assert histogram_quantile((4.0,), (10, 0), 1.0) == pytest.approx(4.0)

    def test_interpolation_between_edges(self) -> None:
        # 2 observations <= 1, 2 more <= 10: the median rank (2.0) lands
        # exactly on the first bucket's upper edge.
        assert histogram_quantile(
            (1.0, 10.0), (2, 2, 0), 0.5
        ) == pytest.approx(1.0)
        # Rank 3 is halfway through the second bucket: 1 + 9/2.
        assert histogram_quantile(
            (1.0, 10.0), (2, 2, 0), 0.75
        ) == pytest.approx(5.5)

    def test_overflow_bucket_reports_last_finite_edge(self) -> None:
        # Observations past every edge cannot be resolved beyond the
        # histogram's range; the quantile saturates at the last edge.
        assert histogram_quantile((1.0, 10.0), (0, 0, 5), 0.5) == 10.0
        hist = Histogram("t.hist", edges=(1.0, 10.0))
        hist.observe(1000.0)
        assert hist.quantile(0.99) == 10.0

    def test_quantile_out_of_range_rejected(self) -> None:
        with pytest.raises(ValueError, match="within"):
            histogram_quantile((1.0,), (1, 0), 1.5)
        with pytest.raises(ValueError, match="within"):
            Histogram("t.hist", edges=(1.0,)).quantile(-0.1)

    def test_null_histogram_quantile_is_nan(self) -> None:
        assert math.isnan(NullHistogram().quantile(0.5))

    def test_live_histogram_matches_snapshot_math(self) -> None:
        hist = Histogram("t.hist", edges=(1.0, 10.0, 100.0))
        for value in (0.5, 2.0, 3.0, 20.0):
            hist.observe(value)
        state = hist.snapshot()
        assert hist.quantile(0.5) == pytest.approx(
            histogram_quantile(state["edges"], state["buckets"], 0.5)
        )


# ---------------------------------------------------------------------------
# Span identity, context propagation, and remote stitching.
# ---------------------------------------------------------------------------


class TestSpanIdentity:
    def test_events_carry_top_level_ids(self, fake_clock) -> None:
        collector = TraceCollector()
        obs.set_trace_collector(collector)
        with obs.span("outer.region"):
            with obs.span("inner.region"):
                fake_clock.advance(0.1)
        inner, outer = collector.events
        assert inner["trace_id"] == outer["trace_id"] == collector.trace_id
        assert inner["span_id"] != outer["span_id"]
        assert inner["parent_span_id"] == outer["span_id"]
        assert "parent_span_id" not in outer
        # Ids stay out of args (back-compat with attribute assertions).
        assert "span_id" not in inner["args"]

    def test_current_context_tracks_innermost_span(self, fresh_obs) -> None:
        collector = TraceCollector()
        obs.set_trace_collector(collector)
        assert collector.current_context() == {"id": collector.trace_id}
        with obs.span("outer.region"):
            context = collector.current_context()
            assert context["id"] == collector.trace_id
            assert context["parent"] == collector._stack[-1][1]

    def test_adopt_joins_trace_and_parents_roots(self, fresh_obs) -> None:
        sender = TraceCollector()
        obs.set_trace_collector(sender)
        with obs.span("sender.region"):
            context = sender.current_context()
        receiver = TraceCollector()
        receiver.adopt(context)
        obs.set_trace_collector(receiver)
        with obs.span("receiver.region"):
            pass
        event = receiver.events[-1]
        assert event["trace_id"] == sender.trace_id
        assert event["parent_span_id"] == context["parent"]

    def test_stitch_remote_rebases_and_dedupes(self, fresh_obs) -> None:
        collector = TraceCollector()
        records = [
            {
                "name": "cluster.worker.command",
                "start": 100.0,
                "dur": 0.5,
                "args": {"op": "ship"},
                "trace_id": collector.trace_id,
                "span_id": "w.1.1",
                "parent_span_id": "c.1.1",
            },
            {"not a record": True},
        ]
        assert collector.stitch_remote(records, process=2) == 1
        event = collector.events[-1]
        assert event["pid"] == 2
        assert event["ts"] == pytest.approx(0.0)  # rebased onto origin
        assert event["dur"] == pytest.approx(0.5e6)
        assert event["parent_span_id"] == "c.1.1"
        # Crash-replay / duplicate delivery re-ships the same span id.
        assert collector.stitch_remote(records, process=2) == 0
        assert len(collector.events) == 1

    def test_span_ids_unique_across_collectors(self) -> None:
        # Two collectors in one process (e.g. a worker restarted after a
        # crash) must never mint colliding span ids.
        first, second = TraceCollector(), TraceCollector()
        assert first._new_span_id() != second._new_span_id()

    def test_start_span_end_is_idempotent(self, fake_clock) -> None:
        collector = TraceCollector()
        obs.set_trace_collector(collector)
        handle = obs.start_span("manual.region", op="test")
        fake_clock.advance(0.2)
        handle.end()
        handle.end()  # double close is a no-op
        assert len(collector.events) == 1
        assert collector.depth == 0
        assert obs.snapshot()["manual.region.seconds"]["count"] == 1

    def test_disabled_start_span_end_is_noop(self, fresh_obs) -> None:
        obs.set_enabled(False)
        handle = obs.start_span("manual.region")
        handle.end()
        assert obs.snapshot() == {}


class TestRemoteSpanBuffer:
    def test_records_carry_absolute_timings(self, fake_clock) -> None:
        fake_clock.advance(100.0)
        buffer = RemoteSpanBuffer()
        obs.set_trace_collector(buffer)
        with obs.span("cluster.worker.command", op="points"):
            fake_clock.advance(0.25)
        (record,) = buffer.records
        assert record["start"] == pytest.approx(100.0)  # absolute seconds
        assert record["dur"] == pytest.approx(0.25)
        assert record["args"] == {"op": "points"}
        assert record["trace_id"] == buffer.trace_id

    def test_drain_hands_over_and_clears_memory(self, fake_clock) -> None:
        buffer = RemoteSpanBuffer()
        obs.set_trace_collector(buffer)
        with obs.span("a.b"):
            pass
        assert len(buffer.drain()) == 1
        assert buffer.records == []
        assert buffer.drain() == []

    def test_spool_survives_drain_and_reloads(
        self, fake_clock, tmp_path
    ) -> None:
        # drain() must NOT clear the spool: the reply carrying the
        # drained records can still be lost with the worker.  A fresh
        # buffer (the restarted worker) re-ships them from disk.
        spool = str(tmp_path / "trace-spool.jsonl")
        buffer = RemoteSpanBuffer(spool=spool)
        obs.set_trace_collector(buffer)
        with obs.span("a.b"):
            pass
        shipped = buffer.drain()
        assert len(shipped) == 1
        reborn = RemoteSpanBuffer(spool=spool)
        assert [r["span_id"] for r in reborn.records] == [
            shipped[0]["span_id"]
        ]

    def test_spool_tolerates_torn_tail(self, tmp_path) -> None:
        spool = tmp_path / "trace-spool.jsonl"
        good = json.dumps({"name": "a.b", "start": 1.0, "dur": 0.1})
        spool.write_text(good + "\n" + '{"name": "torn', encoding="utf-8")
        buffer = RemoteSpanBuffer(spool=str(spool))
        assert [r["name"] for r in buffer.records] == ["a.b"]

    def test_spool_truncates_at_limit(self, fake_clock, tmp_path) -> None:
        spool = tmp_path / "trace-spool.jsonl"
        buffer = RemoteSpanBuffer(spool=str(spool), spool_limit=2)
        obs.set_trace_collector(buffer)
        for _ in range(5):
            with obs.span("a.b"):
                pass
        lines = spool.read_text().splitlines()
        assert len(lines) <= 2  # bounded replay window

    def test_unwritable_spool_keeps_serving_memory(self, fake_clock) -> None:
        buffer = RemoteSpanBuffer(spool="/nonexistent-dir/spool.jsonl")
        obs.set_trace_collector(buffer)
        with obs.span("a.b"):
            pass
        assert len(buffer.records) == 1


# ---------------------------------------------------------------------------
# Incident ring buffer.
# ---------------------------------------------------------------------------


def _incident(index: int) -> Incident:
    return Incident(
        operation="points",
        relation="stream",
        error=f"boom {index}",
        batch_size=1,
        recovered=True,
    )


class TestIncidentLog:
    def test_capacity_must_be_positive(self) -> None:
        with pytest.raises(ValueError, match="positive"):
            IncidentLog(capacity=0)

    def test_ring_keeps_newest_and_counts_drops(self, fresh_obs) -> None:
        log = IncidentLog(capacity=2)
        for index in range(5):
            log.append(_incident(index))
        assert len(log) == 2
        assert [incident.error for incident in log] == ["boom 3", "boom 4"]
        assert log[0].error == "boom 3"
        assert log.total == 5
        assert log.dropped == 3
        state = obs.snapshot()["stream.incidents.dropped_total"]
        assert state["value"] == 3.0

    def test_clear_keeps_totals(self, fresh_obs) -> None:
        log = IncidentLog(capacity=4)
        log.append(_incident(0))
        log.clear()
        assert len(log) == 0
        assert log.total == 1
        assert log.dropped == 0


# ---------------------------------------------------------------------------
# Disabled-mode overhead budget.
# ---------------------------------------------------------------------------


class TestDisabledOverhead:
    def test_disabled_instrumentation_under_budget(self, fresh_obs) -> None:
        """Per-batch no-op instrument calls cost <3% of the batch kernel.

        The measured sequence mirrors what ``process_points`` adds per
        batch (two counters, a histogram, a rate mark, a span); the
        reference cost is the actual batched sketch update it wraps.
        """
        from repro.stream.processor import StreamProcessor

        processor = StreamProcessor(medians=3, averages=4, seed=SEED)
        processor.register_relation("stream", 14)
        batch = list(range(8192))
        obs.set_enabled(False)
        try:
            processor.process_points("stream", batch)  # warm the kernels
            kernel_seconds = min(
                _timed(lambda: processor.process_points("stream", batch))
                for _ in range(5)
            )

            def instrumentation() -> None:
                obs.counter("stream.ingest.points_total").inc(len(batch))
                obs.counter("stream.ingest.batches_total").inc()
                obs.histogram(
                    "stream.ingest.batch_size", obs.DEFAULT_SIZE_EDGES
                ).observe(float(len(batch)))
                obs.rate("stream.ingest.items_rate").mark(len(batch))
                with obs.span("stream.apply", op="points"):
                    pass

            repeats = 100
            instrumented_seconds = min(
                _timed(lambda: _repeat(instrumentation, repeats)) / repeats
                for _ in range(5)
            )
        finally:
            processor.close()
        assert instrumented_seconds < 0.03 * kernel_seconds, (
            f"disabled-mode instrumentation {instrumented_seconds:.2e}s "
            f"per batch vs kernel {kernel_seconds:.2e}s"
        )


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def _repeat(thunk, times: int) -> None:
    for _ in range(times):
        thunk()


# ---------------------------------------------------------------------------
# Integration: the fault suite populates the registry.
# ---------------------------------------------------------------------------


class TestFaultSuiteIntegration:
    def test_fault_suite_populates_metrics(self, fresh_obs, tmp_path) -> None:
        from repro.stream.faults import run_fault_suite

        results = run_fault_suite(SEED, str(tmp_path))
        assert all(result.passed for result in results)
        snapshot = obs.snapshot()

        def value(name: str) -> float:
            return snapshot[name]["value"]

        assert value("durability.wal.appends_total") > 0
        assert value("durability.wal.records_total") > 0
        assert value("durability.recover.recoveries_total") > 0
        # 9 malformed records (quarantine-isolation) and 8 writes through
        # a failing plane (plane-failure, dead-lettered as apply-failed).
        assert value("stream.ingest.quarantined_total") == 9 + 8
        assert snapshot["stream.apply.seconds"]["count"] > 0


# ---------------------------------------------------------------------------
# Exposition workload, golden list, and the CLI.
# ---------------------------------------------------------------------------


class TestMetricsCLI:
    def test_exercise_covers_golden_list(self, fresh_obs) -> None:
        from repro.obs.exposition import (
            exercise_all_layers,
            missing_instruments,
            read_golden_list,
        )

        snapshot = exercise_all_layers(seed=SEED)
        required = read_golden_list(str(GOLDEN_LIST))
        assert required, "golden list must not be empty"
        assert missing_instruments(snapshot, required) == []

    def test_metrics_json(self, fresh_obs, capsys) -> None:
        from repro.cli import main

        assert main(["metrics"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 1
        instruments = document["instruments"]
        assert instruments["stream.ingest.points_total"]["value"] > 0
        assert instruments["schemes.dispatch.range_sum_total"]["value"] > 0

    def test_metrics_prometheus_and_golden(self, fresh_obs, capsys) -> None:
        from repro.cli import main

        code = main(
            [
                "metrics",
                "--format",
                "prometheus",
                "--require-golden",
                str(GOLDEN_LIST),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "# TYPE repro_stream_ingest_points_total counter" in captured.out
        assert 'le="+Inf"' in captured.out

    def test_missing_golden_instrument_fails(
        self, fresh_obs, tmp_path, capsys
    ) -> None:
        from repro.cli import main

        golden = tmp_path / "golden.txt"
        golden.write_text("no.such.instrument\n# a comment\n")
        assert main(["metrics", "--require-golden", str(golden)]) == 1
        assert "no.such.instrument" in capsys.readouterr().err

    def test_trace_flag_writes_span_events(
        self, fresh_obs, tmp_path, capsys
    ) -> None:
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        assert main(["metrics", "--trace", str(trace)]) == 0
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert events, "trace must contain span events"
        assert {event["ph"] for event in events} == {"X"}
        names = {event["name"] for event in events}
        assert "stream.apply" in names
        assert obs.trace_collector() is None  # CLI uninstalls it

    def test_trace_rejected_for_experiments(self, capsys) -> None:
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["table1", "--trace", "out.jsonl"])
