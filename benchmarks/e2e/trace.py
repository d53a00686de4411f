"""Traced mode: timing wrappers on layer entry points, the self-time ledger.

:func:`install` replaces each entry point below with a wrapper *where
its caller looks the name up* -- a class attribute, or the module global
the calling module imported (``repro.stream.processor.screen_point``,
``repro.query.engine.plan_for_scheme``) -- and returns a function that
puts the originals back.  The program itself is not edited.

While an op runs, every wrapped call is a span: name, start, end,
parent, and the op's trace id.  A layer's **self time** is its spans'
durations minus the time covered by their child spans, accumulated as
the spans close; the self times of all layers therefore add up to the
durations of the root spans.  A sample of spans (every tenth op) stays
in memory and is written at the end as Chrome-trace JSONL.

:func:`measure` runs one workload three times in fresh processes with
the same seeded ops: untraced (the baseline), traced, and untraced with
the program's own instrumentation off (``obs.set_enabled(False)``).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable

#: Layers in the order the per-layer table prints them.
LAYERS = (
    "stream.processor",
    "stream.validation",
    "stream.durability",
    "sketch.ams",
    "sketch.plane",
    "core.dyadic",
    "query.plan",
    "query.engine",
    "query.estimate",
    "query.hierarchy",
    "cluster.coordinator",
    "cluster.protocol",
    "cluster.worker",
    "sketch.serialize",
)

_COVERS = ("dyadic_cover_arrays", "quaternary_cover_arrays")
_PLANES = ("EH3Plane", "BCH3Plane", "BCH5Plane", "DMAPPlane")

#: ``(layer, module the caller resolves the name in, attribute path)``.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    *(
        ("stream.processor", "repro.stream.processor", f"StreamProcessor.{method}")
        for method in (
            "process_point",
            "process_interval",
            "process_points",
            "process_intervals",
            "query",
            "recover",
        )
    ),
    *(
        ("stream.validation", "repro.stream.processor", function)
        for function in ("screen_point", "screen_interval", "screen_points", "screen_intervals")
    ),
    ("stream.validation", "repro.cluster.coordinator", "screen_points"),
    ("stream.validation", "repro.cluster.coordinator", "screen_intervals"),
    ("stream.durability", "repro.stream.durability", "WriteAheadLog.append"),
    ("stream.durability", "repro.stream.durability", "_scan_segment"),
    ("stream.durability", "repro.stream.processor", "canonical_json"),
    *(
        ("sketch.ams", "repro.sketch.ams", f"SketchMatrix.{method}")
        for method in (
            "__init__",
            "update_point",
            "update_interval",
            "update_points",
            "update_intervals",
            "values",
            "combined",
            "_add_scaled",
        )
    ),
    ("sketch.ams", "repro.sketch.plane", "add_totals"),
    ("sketch.ams", "repro.sketch.bulk", "add_totals"),
    *(
        ("sketch.plane", "repro.sketch.plane", f"{plane}.{method}")
        for plane in _PLANES
        for method in ("point_totals", "interval_totals")
        if not (plane == "BCH5Plane" and method == "interval_totals")
    ),
    *(
        ("core.dyadic", module, function)
        for module in ("repro.core.dyadic", "repro.query.plan", "repro.sketch.bulk")
        for function in _COVERS
    ),
    ("core.dyadic", "repro.sketch.bulk", "decompose_quaternary"),
    ("core.dyadic", "repro.sketch.bulk", "decompose_binary"),
    ("query.plan", "repro.query.engine", "plan_for_scheme"),
    ("query.plan", "repro.cluster.coordinator", "plan_for_scheme"),
    *(
        ("query.engine", "repro.query.engine", function)
        for function in (
            "point", "range_sum", "self_join", "product", "probe_for_plan", "point_probe"
        )
    ),
    ("query.estimate", "repro.query.engine", "estimate_from_products"),
    *(
        ("query.hierarchy", "repro.query.hierarchy", f"DyadicHierarchy.{method}")
        for method in (
            "update_point",
            "update_points",
            "update_interval",
            "update_intervals",
            "heavy_hitters",
            "quantile",
            "estimate_blocks",
            "counters_state",
        )
    ),
    *(
        ("cluster.coordinator", "repro.cluster.coordinator", f"ClusterProcessor.{method}")
        for method in ("ingest_points", "ingest_intervals", "query", "flush")
    ),
    *(
        ("cluster.protocol", module, function)
        for module in ("repro.cluster.coordinator", "repro.cluster.transport")
        for function in ("encode_frame", "decode_frame")
    ),
    ("cluster.worker", "repro.cluster.worker", "ShardServer.handle"),
    ("sketch.serialize", "repro.cluster.worker", "sketch_to_dict"),
    ("sketch.serialize", "repro.cluster.coordinator", "sketch_from_dict"),
    ("sketch.serialize", "repro.stream.processor", "sketch_to_dict"),
    ("sketch.serialize", "repro.stream.processor", "sketch_from_dict"),
)


def _count_plane(tracer: "Tracer", args: tuple, result: Any, parent: str | None) -> None:
    tracer.count("sketch.plane.items", len(args[1]))


def _count_cover(tracer: "Tracer", args: tuple, result: Any, parent: str | None) -> None:
    # quaternary_cover_arrays splits a binary cover: count the outer call only.
    if parent not in _COVERS:
        tracer.count("core.dyadic.pieces", int(result.lows.size))
        tracer.count("core.dyadic.intervals", int(result.intervals))


def _count_plan(tracer: "Tracer", args: tuple, result: Any, parent: str | None) -> None:
    tracer.count("query.plan.pieces", result.pieces)


def _count_frame(tracer: "Tracer", args: tuple, result: Any, parent: str | None) -> None:
    tracer.count("cluster.protocol.bytes", len(result))


def _measure_for(path: str) -> Callable[..., None] | None:
    name = path.rsplit(".", 1)[-1]
    if path.split(".", 1)[0] in _PLANES:
        return _count_plane
    if name in _COVERS:
        return _count_cover
    if name == "plan_for_scheme":
        return _count_plan
    if name == "encode_frame":
        return _count_frame
    return None


class Tracer:
    """In-memory span recorder with an online per-layer self-time ledger."""

    #: Spans of every ``RETAIN_EVERY``-th op are kept for the JSONL trace.
    RETAIN_EVERY = 10
    MAX_SPANS = 50_000

    def __init__(self) -> None:
        self.active = False
        self.retain = False
        self.trace_id = -1
        # One frame per open span: [start, child time, span id, name].
        self.stack: list[list[Any]] = []
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.counts: dict[str, float] = {}
        self.root_s = 0.0
        self.spans: list[tuple[int, int | None, int, str, str, float, float]] = []
        self._next_span = 0

    def begin_op(self, index: int) -> None:
        """Start recording spans under trace id ``index``."""
        self.trace_id = index
        self.retain = index % self.RETAIN_EVERY == 0 and len(self.spans) < self.MAX_SPANS
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        function: Callable[..., Any],
        layer: str,
        name: str,
        measure: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``function`` timed as a span of ``layer`` while an op runs."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return function(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_span
            tracer._next_span = span_id + 1
            frame = [0.0, 0.0, span_id, name]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                if parent is None:
                    tracer.root_s += duration
                else:
                    parent[1] += duration
                if tracer.retain:
                    tracer.spans.append(
                        (
                            span_id,
                            None if parent is None else parent[2],
                            tracer.trace_id,
                            name,
                            layer,
                            start,
                            end,
                        )
                    )
            if measure is not None:
                measure(tracer, args, result, None if parent is None else parent[3])
            return result

        return traced

    def summary(self) -> dict[str, Any]:
        """The ledger as JSON-ready numbers."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "spans_kept": len(self.spans),
        }

    def write_chrome_trace(self, path: str | Path) -> None:
        """Write the retained spans as Chrome-trace complete events, one per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[5] for span in self.spans), default=0.0)
        with path.open("w") as handle:
            for span_id, parent, trace_id, name, layer, start, end in self.spans:
                event = {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"trace_id": trace_id, "span_id": span_id, "parent": parent},
                }
                handle.write(json.dumps(event) + "\n")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point; returns the function that undoes it."""
    undo: list[tuple[Any, str, Any]] = []
    for layer, module_name, path in ENTRY_POINTS:
        owner: Any = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = vars(owner)[attribute]
        measure = _measure_for(path)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(tracer.wrap(raw.__func__, layer, path, measure))
        else:
            wrapped = tracer.wrap(raw, layer, path, measure)
        setattr(owner, attribute, wrapped)
        undo.append((owner, attribute, raw))

    def restore() -> None:
        for owner, attribute, raw in reversed(undo):
            setattr(owner, attribute, raw)

    return restore


# -- the per-layer metrics -----------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _wall_ratio(run: dict[str, Any], base: dict[str, Any]) -> float:
    """Median over matching segments (same ops) of ``run`` wall / ``base`` wall."""
    ratios = [
        _ratio(mine, theirs)
        for mine, theirs in zip(run["segment_wall_s"], base["segment_wall_s"])
    ]
    return statistics.median(ratios) if ratios else 0.0


def per_layer_metrics(
    base: dict[str, Any], traced: dict[str, Any], quiet: dict[str, Any]
) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)`` from the untraced, traced and obs-off passes.

    Self-time shares and the tracer's counts come from the traced pass;
    the program's own counters, recovery rate and range-sum latency from
    the untraced baseline; ``obs.share`` and ``trace.overhead`` compare
    the passes' segment walls, segment by segment over the same ops.
    """
    ledger = traced["trace"]
    wall = traced["wall_s"]
    counts = ledger["counts"]
    counters = base["counters"]
    metrics = {
        f"{layer}.self_share": (_ratio(ledger["self_s"][layer], wall), "ratio")
        for layer in LAYERS
    }
    recovery = base["recovery"]
    metrics.update(
        {
            "core.dyadic.pieces_per_interval": (
                _ratio(counts.get("core.dyadic.pieces", 0), counts.get("core.dyadic.intervals", 0)),
                "count",
            ),
            "sketch.bulk.dedup_ratio": (
                _ratio(
                    counters["sketch.bulk.pieces_deduped_total"],
                    counters["sketch.bulk.pieces_total"],
                ),
                "ratio",
            ),
            "sketch.plane.items_per_call": (
                _ratio(counts.get("sketch.plane.items", 0), ledger["calls"]["sketch.plane"]),
                "count",
            ),
            "query.plan.pieces_per_query": (
                _ratio(counts.get("query.plan.pieces", 0), ledger["calls"]["query.plan"]),
                "count",
            ),
            "stream.durability.wal_bytes_per_item": (
                _ratio(counters["durability.wal.bytes_total"], base["ingest_items"]),
                "B",
            ),
            "cluster.protocol.bytes_per_op": (
                _ratio(counts.get("cluster.protocol.bytes", 0), traced["ops"]),
                "B",
            ),
            "cluster.command.retries_total": (counters["cluster.command.retries_total"], "count"),
            "recovery_items_per_s": (
                0.0 if recovery is None else _ratio(recovery["items"], recovery["seconds"]),
                "1/s",
            ),
            "ingest_p99_us": (base["latency"]["ingest"]["p99_us"], "us"),
            "query_p99_us": (base["latency"]["query"]["p99_us"], "us"),
            "range_sum_p50_us": (base["latency"]["range_sum"]["p50_us"], "us"),
            "obs.share": (1.0 - _wall_ratio(quiet, base), "ratio"),
            "trace.overhead": (_wall_ratio(traced, base) - 1.0, "ratio"),
            "trace.coverage": (_ratio(ledger["root_s"], wall), "ratio"),
        }
    )
    return metrics


def layer_table(traced: dict[str, Any]) -> list[str]:
    """The per-layer self-time table of one traced pass, largest first."""
    ledger = traced["trace"]
    ops = max(traced["ops"], 1)
    wall = traced["wall_s"]
    rows = sorted(LAYERS, key=lambda layer: -ledger["self_s"][layer])
    lines = [f"  {'layer':<22}{'calls/op':>10}{'self us/op':>12}{'share':>8}"]
    for layer in rows:
        self_s = ledger["self_s"][layer]
        lines.append(
            f"  {layer:<22}{ledger['calls'][layer] / ops:>10.2f}"
            f"{self_s / ops * 1e6:>12.2f}{_ratio(self_s, wall):>8.1%}"
        )
    return lines


def measure(
    name: str, seed: int, seconds: float, deadline: float, trace_path: Path
) -> dict[str, Any]:
    """The three passes of a traced run; returns them with their metrics."""
    from .workloads import spawn

    def remaining() -> float:
        return deadline - time.monotonic()

    base = spawn({"name": name, "seed": seed, "seconds": seconds}, remaining())
    same_ops = {"name": name, "seed": seed, "max_ops": base["ops"], "readback": 0, "recover": False}
    traced = spawn({**same_ops, "traced": True, "trace_path": str(trace_path)}, remaining())
    quiet = spawn({**same_ops, "obs_enabled": False}, remaining())
    passes = (base, traced, quiet)
    return {
        "passes": passes,
        "metrics": per_layer_metrics(base, traced, quiet),
        "correct": all(run["correct"] for run in passes),
        "attempted": sum(run["attempted"] for run in passes),
        "failed": sum(run["failed"] for run in passes),
    }
