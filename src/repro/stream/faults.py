"""Deterministic fault injection for the durability layer.

Recovery code is only as good as the failures it has survived.  This
module injects the failure modes that matter for sketch durability --
**torn WAL tails** (crash mid-append), **flipped bytes** in sealed
segments, **partial snapshots** (crash mid-checkpoint), and **plane-kernel
exceptions** -- and runs a scenario suite that proves the recovery
invariants: post-recovery counters bit-identical to an uninterrupted
run, corruption detected loudly, and a failing kernel's writes raised
or dead-lettered without reaching the log or a counter.

Everything is deterministic: scenarios derive all randomness from an
explicit seed, so a failing scenario replays exactly under
``PYTHONHASHSEED``-pinned CI.  The suite is callable three ways: from
pytest (``tests/test_faults.py``), from the CLI (``repro-experiments
faults``), and directly via :func:`run_fault_suite`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.sketch.plane import counter_plane
from repro.stream.durability import DurabilityConfig
from repro.stream.errors import ApplyError, InjectedFault, WALCorruptionError
from repro.stream.processor import StreamProcessor

__all__ = [
    "truncate_tail",
    "corrupt_byte",
    "wal_segments",
    "write_partial_snapshot",
    "breaking_plane",
    "ScenarioResult",
    "run_fault_suite",
]


# -- low-level injectors -------------------------------------------------


def wal_segments(directory: str) -> list[str]:
    """WAL segment paths in a durability directory, oldest first."""
    names = sorted(
        name
        for name in os.listdir(directory)
        if name.startswith("wal-") and name.endswith(".seg")
    )
    return [os.path.join(directory, name) for name in names]


def truncate_tail(path: str, drop_bytes: int) -> None:
    """Chop ``drop_bytes`` off the end of a file -- a torn final record."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(0, size - drop_bytes))


def corrupt_byte(path: str, offset: int, xor: int = 0xFF) -> None:
    """Flip bits of one byte in place -- sealed-segment bit rot."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        if not original:
            raise ValueError(f"offset {offset} past end of {path}")
        handle.seek(offset)
        handle.write(bytes([original[0] ^ xor]))


def write_partial_snapshot(directory: str, seq: int) -> str:
    """Plant a truncated snapshot *newer* than every real one.

    Models a crash mid-checkpoint on filesystems without atomic rename
    semantics; recovery must skip it and fall back.
    """
    path = os.path.join(directory, f"snap-{seq:016x}.json")
    with open(path, "w") as handle:
        handle.write('{"crc": 12345, "envelope": {"version": 1, "se')
    return path


@contextlib.contextmanager
def breaking_plane(
    processor: StreamProcessor,
    relation: str,
    fail_after: int = 0,
    method: str | Sequence[str] = "point_totals",
) -> Iterator[None]:
    """Make a relation's plane kernel raise :class:`InjectedFault`.

    ``method`` names one plane entry point or several, which then share
    one call count.  ``point_signs`` is the sign pass under
    ``point_totals`` and under every hierarchy write and descent, so
    breaking it reaches the hierarchy too.  The first ``fail_after``
    calls succeed, then every call raises -- modelling a kernel that dies
    mid-stream.  Restores the plane on exit.
    """
    plane = counter_plane(processor.scheme_of(relation))
    if plane is None:
        raise ValueError(f"relation {relation!r} has no packed plane to break")
    names = (method,) if isinstance(method, str) else tuple(dict.fromkeys(method))
    originals = {name: getattr(plane, name) for name in names}
    # Names the plane instance held itself (e.g. a kernel closure) are
    # put back; names it got from its class are deleted again.
    owned = {name for name in names if name in vars(plane)}
    calls = {"n": 0}

    def broken(name: str, *args: Any, **kwargs: Any) -> Any:
        calls["n"] += 1
        if calls["n"] > fail_after:
            raise InjectedFault(
                f"injected {name} failure on call {calls['n']}"
            )
        return originals[name](*args, **kwargs)

    for name in names:
        setattr(plane, name, functools.partial(broken, name))
    try:
        yield
    finally:
        for name in names:
            if name in owned:
                setattr(plane, name, originals[name])
            else:
                delattr(plane, name)


# -- the scenario suite --------------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one fault scenario."""

    name: str
    passed: bool
    detail: str


def _workload(seed: int, domain_bits: int = 12, points: int = 400,
              intervals: int = 60):
    """A deterministic mixed stream: single points/intervals + batches."""
    rng = np.random.default_rng(seed)
    limit = 1 << domain_bits
    ops: list[tuple] = []
    for item in rng.integers(0, limit, size=points):
        ops.append(("point", int(item), 1.0))
    for _ in range(intervals):
        a, b = sorted(rng.integers(0, limit, size=2))
        ops.append(("interval", int(a), int(b), 1.0))
    for _ in range(4):
        batch = rng.integers(0, limit, size=50)
        ops.append(("points", [int(i) for i in batch]))
    for _ in range(4):
        lows = rng.integers(0, limit // 2, size=20)
        spans = rng.integers(0, limit // 2, size=20)
        ops.append(
            ("intervals", [[int(a), int(a + s)] for a, s in zip(lows, spans)])
        )
    rng.shuffle(ops)  # interleave kinds deterministically
    return ops


def _feed(processor: StreamProcessor, ops, start: int = 0, stop=None) -> None:
    for op in ops[start:stop]:
        if op[0] == "point":
            processor.process_point("r", op[1], op[2])
        elif op[0] == "interval":
            processor.process_interval("r", op[1], op[2], op[3])
        elif op[0] == "points":
            processor.process_points("r", op[1])
        elif op[0] == "intervals":
            processor.process_intervals("r", op[1])


def _reference_counters(seed: int, ops, domain_bits: int = 12) -> np.ndarray:
    """Counters of an uninterrupted, non-durable run of the workload."""
    processor = StreamProcessor(medians=3, averages=16, seed=seed)
    processor.register_relation("r", domain_bits)
    _feed(processor, ops)
    return processor.sketch_of("r").values()


def _durable(
    directory: str, seed: int, policy: str = "raise", **config
) -> StreamProcessor:
    processor = StreamProcessor(
        medians=3,
        averages=16,
        seed=seed,
        policy=policy,
        durability=DurabilityConfig(directory=directory, **config),
    )
    processor.register_relation("r", 12)
    return processor


def _check(name: str, condition: bool, detail: str) -> ScenarioResult:
    return ScenarioResult(name, bool(condition), detail)


def _scenario_kill_and_recover(base: str, seed: int) -> ScenarioResult:
    """Kill ingestion at an arbitrary record; recover; finish the stream."""
    ops = _workload(seed)
    reference = _reference_counters(seed, ops)
    cut = len(ops) // 3
    directory = os.path.join(base, "kill")
    processor = _durable(directory, seed, checkpoint_every=57)
    _feed(processor, ops, 0, cut)
    # Simulated kill: no close(), no checkpoint -- the object just dies.
    del processor
    recovered = StreamProcessor.recover(directory)
    _feed(recovered, ops, cut)
    identical = np.array_equal(recovered.sketch_of("r").values(), reference)
    return _check(
        "kill-and-recover",
        identical,
        "post-recovery counters bit-identical to uninterrupted run"
        if identical
        else "counter mismatch after recovery",
    )


def _scenario_torn_tail(base: str, seed: int) -> ScenarioResult:
    """Tear the final WAL record; the intact prefix must replay exactly."""
    ops = _workload(seed)
    cut = len(ops) // 2
    directory = os.path.join(base, "torn")
    processor = _durable(directory, seed)
    _feed(processor, ops, 0, cut - 1)
    processor.close()
    before_tear = processor.sketch_of("r").values()
    # The (cut-1)-th op lands, then its record's tail is ripped off.
    processor2 = StreamProcessor.recover(directory)
    _feed(processor2, ops, cut - 1, cut)
    processor2.close()
    segments = wal_segments(directory)
    truncate_tail(segments[-1], drop_bytes=7)
    recovered = StreamProcessor.recover(directory)
    prefix_ok = np.array_equal(recovered.sketch_of("r").values(), before_tear)
    # The driver re-sends everything past the last durable record.
    _feed(recovered, ops, cut - 1)
    reference = _reference_counters(seed, ops)
    final_ok = np.array_equal(recovered.sketch_of("r").values(), reference)
    return _check(
        "torn-wal-tail",
        prefix_ok and final_ok,
        "torn record dropped; prefix and resumed stream bit-identical"
        if prefix_ok and final_ok
        else f"prefix_ok={prefix_ok} final_ok={final_ok}",
    )


def _scenario_partial_snapshot(base: str, seed: int) -> ScenarioResult:
    """A truncated newest snapshot must fall back to the previous one."""
    ops = _workload(seed)
    cut = 2 * len(ops) // 3
    directory = os.path.join(base, "snap")
    processor = _durable(directory, seed)
    _feed(processor, ops, 0, cut)
    processor.checkpoint()
    _feed(processor, ops, cut, cut + 5)
    processor.close()
    applied = processor.stats()["applied_seq"]
    write_partial_snapshot(directory, applied + 1000)
    recovered = StreamProcessor.recover(directory)
    _feed(recovered, ops, cut + 5)
    reference = _reference_counters(seed, ops)
    identical = np.array_equal(recovered.sketch_of("r").values(), reference)
    return _check(
        "partial-snapshot-fallback",
        identical,
        "fell back past the torn snapshot and replayed the longer tail"
        if identical
        else "counter mismatch after snapshot fallback",
    )


def _scenario_sealed_corruption(base: str, seed: int) -> ScenarioResult:
    """A flipped byte in a sealed (non-final) segment must raise."""
    ops = _workload(seed)
    directory = os.path.join(base, "rot")
    # Tiny segments force several sealed segments.
    processor = _durable(directory, seed, segment_max_bytes=2048)
    _feed(processor, ops)
    processor.close()
    segments = wal_segments(directory)
    if len(segments) < 2:
        return _check("sealed-corruption-detected", False,
                      "workload produced a single segment; cannot test")
    corrupt_byte(segments[0], offset=os.path.getsize(segments[0]) // 2)
    try:
        StreamProcessor.recover(directory)
    except WALCorruptionError:
        return _check("sealed-corruption-detected", True,
                      "WALCorruptionError raised for mid-log bit rot")
    return _check("sealed-corruption-detected", False,
                  "corrupted sealed segment replayed silently")


def _scenario_plane_failure(base: str, seed: int) -> ScenarioResult:
    """Writes through a failing plane fail loudly and reach no log or counter.

    Under ``quarantine`` each is dead-lettered as ``apply-failed``: the
    counters equal a healthy run fed only the other writes, and recovery
    reproduces them bit for bit.  Under ``raise`` the write raises
    :class:`ApplyError` chaining the kernel's exception.
    """
    ops = _workload(seed)
    cut = len(ops) // 2
    resume = cut + 8
    kernels = ("point_totals", "interval_totals")
    directory = os.path.join(base, "plane")
    processor = _durable(directory, seed, policy="quarantine")
    _feed(processor, ops, 0, cut)
    with breaking_plane(processor, "r", method=kernels):
        _feed(processor, ops, cut, resume)
    _feed(processor, ops, resume)
    processor.close()
    live = processor.sketch_of("r").values()
    admitted = np.array_equal(
        live, _reference_counters(seed, ops[:cut] + ops[resume:])
    )
    lettered = processor.dead_letters.counts["apply-failed"] == resume - cut
    recovered = StreamProcessor.recover(directory, policy="raise")
    exact = recovered.sketch_of("r").values().tobytes() == live.tobytes()
    typed = False
    with breaking_plane(recovered, "r", method=kernels):
        try:
            _feed(recovered, ops, cut, cut + 1)
        except ApplyError as exc:
            typed = isinstance(exc.__cause__, InjectedFault)
    untouched = recovered.sketch_of("r").values().tobytes() == live.tobytes()
    recovered.close()
    passed = admitted and lettered and exact and typed and untouched
    return _check(
        "plane-failure",
        passed,
        f"{resume - cut} writes dead-lettered as apply-failed, counters equal "
        "to the admitted stream, recovery bit-identical, ApplyError raised"
        if passed
        else f"admitted={admitted} lettered={lettered} exact={exact} "
        f"typed={typed} untouched={untouched}",
    )


def _scenario_quarantine_isolation(base: str, seed: int) -> ScenarioResult:
    """Malformed records must be quarantined without touching counters."""
    ops = _workload(seed)
    processor = StreamProcessor(
        medians=3, averages=16, seed=seed, policy="quarantine"
    )
    processor.register_relation("r", 12)
    _feed(processor, ops)
    # A barrage of garbage: 9 bad records, none of which may move a
    # counter; the clean members of the dirty batches must still land.
    processor.process_point("r", -7)
    processor.process_point("r", 1 << 40)
    processor.process_point("r", 3, weight=float("nan"))
    processor.process_interval("r", 900, 100)
    processor.process_interval("r", 0, 1 << 40)
    processor.process_points("r", [5, -1, 1 << 40, 9])
    processor.process_intervals("r", [[3, 9], [12, 2], [0, 1 << 50]])
    # Reference: the same stream with the garbage pre-stripped.
    probe = StreamProcessor(medians=3, averages=16, seed=seed)
    probe.register_relation("r", 12)
    _feed(probe, ops)
    probe.process_points("r", [5, 9])
    probe.process_intervals("r", [[3, 9]])
    identical = np.array_equal(
        processor.sketch_of("r").values(), probe.sketch_of("r").values()
    )
    counted = processor.dead_letters.total == 9
    return _check(
        "quarantine-isolation",
        identical and counted,
        f"{processor.dead_letters.total} records quarantined "
        f"({dict(processor.dead_letters.counts)}), counters bit-identical "
        "to the garbage-free stream"
        if identical and counted
        else f"identical={identical} quarantined={processor.dead_letters.total}",
    )


def run_fault_suite(
    seed: int = 20060627, base_dir: str | None = None
) -> list[ScenarioResult]:
    """Run every fault scenario; returns one result per scenario."""
    scenarios: list[Callable[[str, int], ScenarioResult]] = [
        _scenario_kill_and_recover,
        _scenario_torn_tail,
        _scenario_partial_snapshot,
        _scenario_sealed_corruption,
        _scenario_plane_failure,
        _scenario_quarantine_isolation,
    ]
    results: list[ScenarioResult] = []
    own_temp = base_dir is None
    base = base_dir or tempfile.mkdtemp(prefix="repro-faults-")
    try:
        for scenario in scenarios:
            try:
                results.append(scenario(base, seed))
            except Exception as exc:  # noqa: BLE001 -- suite must report
                results.append(
                    ScenarioResult(
                        scenario.__name__.replace("_scenario_", "").replace(
                            "_", "-"
                        ),
                        False,
                        f"unexpected {type(exc).__name__}: {exc}",
                    )
                )
    finally:
        if own_temp:
            shutil.rmtree(base, ignore_errors=True)
    return results
