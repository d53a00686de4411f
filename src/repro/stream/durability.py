"""Write-ahead log and snapshot checkpointing for sketched streams.

The stream processor's sketches are the only representation of an
unbounded stream -- losing them loses the whole history.  This module
makes that state durable with the classical WAL + checkpoint recipe:

**Write-ahead log.**  Every admitted update is framed and appended to a
segmented, append-only log *before* it touches the sketch counters.  A
record is::

    +---------------+---------------+---------------+--------------------+
    | length  (u32) | crc32   (u32) | seq     (u64) | payload (envelope) |
    +---------------+---------------+---------------+--------------------+

little-endian, with ``crc32`` computed over ``seq || payload``.  Sequence
numbers are assigned once, strictly increasing, and never reused -- they
are what makes replay *exactly-once*.  Segments are named by the first
sequence number they hold (``wal-<seq:016x>.seg``) and rotate at a size
threshold, so old segments can be deleted wholesale after a checkpoint.
The payload is one operation in the typed envelope (below); a payload
starting with ``{`` is a v1 record -- canonical JSON text, as written
before envelopes existed -- and is still replayed, so a durable
directory survives the upgrade.

**Typed envelope.**  One message -- a WAL operation, or a cluster frame's
command or reply (:mod:`repro.cluster.protocol`) -- is::

    +-------------+---------------------+----------------+------------------+
    | 0x82   (u8) | header length (u32) | header (JSON)  | array buffers    |
    +-------------+---------------------+----------------+------------------+

The first byte is the envelope's magic and version (high bit set, so it
is never the first byte of JSON text; version 2).  The header is the
message as canonical JSON, with each ndarray replaced by
``{"$array": k, "dtype": ..., "shape": [...]}``; array ``k``'s raw
little-endian buffer is the ``k``-th of the buffers that follow, which
fill the rest of the payload exactly.  Dtypes are limited to
:data:`ENVELOPE_DTYPES`.  Counter grids, point batches and interval
bounds therefore cross the disk and process boundaries as bytes, not as
JSON lists of numbers.

**Snapshots.**  A checkpoint serializes the processor's state (ordered
registrations, query handles, per-relation counters via
:mod:`repro.sketch.serialize`, and the last applied sequence number) into
``snap-<seq:016x>.json``, CRC-guarded and written atomically (temp file +
``os.replace``), keeping the newest ``keep`` snapshots.

**Recovery.**  :func:`load_latest_snapshot` returns the newest snapshot
that passes its CRC (a partial or corrupted latest snapshot falls back
to the previous one); the processor then replays WAL records with
``seq > snapshot.seq``.  A *torn final record* -- the expected shape of a
crash mid-append -- is detected by framing/CRC checks and tolerated (the
tail is truncated on reopen); corruption anywhere else raises
:class:`~repro.stream.errors.WALCorruptionError` because it means data
loss that must not pass silently.  A record that passes its CRC but
does not decode (:func:`decode_wal_payload`) fails the replay with
:class:`~repro.stream.errors.RecoveryError` naming its sequence number.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro import obs
from repro.stream.errors import (
    DurabilityError,
    EnvelopeError,
    SnapshotCorruptionError,
    WALCorruptionError,
)

__all__ = [
    "DurabilityConfig",
    "WriteAheadLog",
    "encode_record",
    "write_snapshot",
    "load_latest_snapshot",
    "list_snapshots",
    "canonical_json",
    "ENVELOPE_DTYPES",
    "encode_envelope",
    "decode_envelope",
    "decode_wal_payload",
    "wire_items",
]

_HEADER = struct.Struct("<IIQ")
_ENVELOPE_HEAD = struct.Struct("<BI")
_ENVELOPE_MAGIC = 0x82

#: The array dtypes an envelope carries: point batches and interval
#: bounds (``<u4``/``<u8``), signed integers, and counters and weights.
ENVELOPE_DTYPES = frozenset({"<u4", "<u8", "<i8", "<f8"})
_ARRAY_KEYS = frozenset({"$array", "dtype", "shape"})
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"
_SNAPSHOT_PREFIX = "snap-"
_SNAPSHOT_SUFFIX = ".json"


def _coerce_scalar(obj: Any) -> Any:
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _json(value: Any, default: Any) -> str:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=default
    )


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, numpy coerced."""

    def coerce(obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return _coerce_scalar(obj)

    return _json(value, coerce)


def encode_envelope(message: Any) -> bytes:
    """Pack a message into the typed envelope (see the module docstring).

    Every ndarray in ``message`` travels as its raw little-endian buffer;
    an array whose dtype is not in :data:`ENVELOPE_DTYPES` raises
    :class:`TypeError`.
    """
    buffers: list[bytes] = []

    def lift(obj: Any) -> Any:
        if not isinstance(obj, np.ndarray):
            return _coerce_scalar(obj)
        dtype = obj.dtype.newbyteorder("<")
        if dtype.str not in ENVELOPE_DTYPES:
            raise TypeError(
                f"envelope arrays must be one of {sorted(ENVELOPE_DTYPES)}, "
                f"got {obj.dtype.str}"
            )
        buffers.append(obj.astype(dtype, copy=False).tobytes())
        return {
            "$array": len(buffers) - 1,
            "dtype": dtype.str,
            "shape": list(obj.shape),
        }

    header = _json(message, lift).encode("utf-8")
    return b"".join(
        [_ENVELOPE_HEAD.pack(_ENVELOPE_MAGIC, len(header)), header, *buffers]
    )


def decode_envelope(payload: bytes) -> Any:
    """Unpack :func:`encode_envelope` output; arrays come back read-only.

    Each array is an ``np.frombuffer`` view of ``payload``: copy it before
    writing into it.  Raises :class:`~repro.stream.errors.EnvelopeError`
    when the magic byte, the header, a dtype or the buffers disagree --
    arrays that overrun the payload, or bytes left after the last one.
    """
    size = len(payload)
    if size < _ENVELOPE_HEAD.size:
        raise EnvelopeError(f"envelope of {size} bytes is shorter than its head")
    magic, length = _ENVELOPE_HEAD.unpack_from(payload)
    if magic != _ENVELOPE_MAGIC:
        raise EnvelopeError(f"unknown envelope magic byte {magic:#04x}")
    start = _ENVELOPE_HEAD.size
    offset = start + length
    if offset > size:
        raise EnvelopeError(
            f"envelope header of {length} bytes overruns a {size}-byte payload"
        )
    placed = 0

    def place(obj: dict[str, Any]) -> Any:
        nonlocal offset, placed
        if obj.keys() != _ARRAY_KEYS:
            return obj
        index, dtype, shape = obj["$array"], obj["dtype"], obj["shape"]
        if type(index) is not int or index != placed:
            raise EnvelopeError(f"array reference {obj!r} out of order")
        if dtype not in ENVELOPE_DTYPES:
            raise EnvelopeError(f"array dtype {dtype!r} is not an envelope dtype")
        if not isinstance(shape, list) or not all(
            type(extent) is int and extent >= 0 for extent in shape
        ):
            raise EnvelopeError(f"array shape {shape!r} is not a shape")
        count = math.prod(shape)
        end = offset + count * np.dtype(dtype).itemsize
        if end > size:
            raise EnvelopeError(
                f"array {placed} of shape {shape} overruns the payload "
                f"by {end - size} bytes"
            )
        array = np.frombuffer(payload, dtype, count, offset).reshape(shape)
        offset = end
        placed += 1
        return array

    try:
        header = payload[start:offset].decode("utf-8")
        # Only a header that names an array needs the per-object hook.
        hook = place if '"$array"' in header else None
        message = json.loads(header, object_hook=hook)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EnvelopeError(f"undecodable envelope header: {exc}") from exc
    if offset != size:
        raise EnvelopeError(
            f"{size - offset} bytes trail the envelope's last array"
        )
    return message


def decode_wal_payload(payload: bytes) -> Any:
    """The operation one WAL record carries.

    A payload starting with ``{`` is a v1 record, canonical JSON text;
    any other payload must be a typed envelope.  Undecodable payloads
    raise :class:`ValueError` (an ``EnvelopeError``, a
    ``JSONDecodeError`` or a ``UnicodeDecodeError``).
    """
    if payload[:1] == b"{":
        return json.loads(payload)
    return decode_envelope(payload)


def wire_items(items: np.ndarray, domain_bits: int) -> np.ndarray:
    """Points or interval bounds in the narrowest envelope dtype.

    ``<u4`` when every value fits 32 bits (``domain_bits <= 32``), else
    ``<u8``: a 20-bit point batch ships 4 bytes per point.
    """
    return items.astype("<u4" if domain_bits <= 32 else "<u8", copy=False)


def _record_crc(seq: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(seq.to_bytes(8, "little")))


def encode_record(seq: int, payload: bytes) -> bytes:
    """Frame one WAL record: length + crc32(seq || payload) + seq + payload."""
    return _HEADER.pack(len(payload), _record_crc(seq, payload), seq) + payload


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning knobs of the durability layer.

    ``sync`` selects the write barrier per append: ``"none"`` leaves
    records in the Python/OS buffers (flushed at rotation, checkpoint and
    close -- fastest, loses the buffered tail on a crash, which recovery
    treats as a torn tail), ``"flush"`` (default) pushes each append into
    the OS (survives process crashes), ``"fsync"`` forces it to disk
    (survives power loss, slowest).  ``checkpoint_every`` auto-checkpoints
    after that many applied records (0 disables auto-checkpoints).
    """

    directory: str
    segment_max_bytes: int = 4 * 1024 * 1024
    sync: str = "flush"
    checkpoint_every: int = 0
    snapshots_keep: int = 2

    def __post_init__(self) -> None:
        if self.sync not in ("none", "flush", "fsync"):
            raise ValueError(f"unknown sync mode {self.sync!r}")
        if self.segment_max_bytes < 64:
            raise ValueError("segment_max_bytes is unreasonably small")
        if self.snapshots_keep < 1:
            raise ValueError("snapshots_keep must be at least 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")


def _segment_base(path: str) -> int:
    name = os.path.basename(path)
    return int(name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)], 16)


def _scan_segment(path: str, final: bool) -> tuple[list[tuple[int, bytes]], int]:
    """Parse one segment's records.

    Returns ``(records, valid_bytes)``.  In the *final* segment a torn or
    corrupted tail ends the scan at the last valid record; in any other
    segment every byte must parse, else :class:`WALCorruptionError`.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records: list[tuple[int, bytes]] = []
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            break  # torn header
        length, crc, seq = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            break  # torn payload
        payload = data[start:end]
        if crc != _record_crc(seq, payload):
            obs.counter("durability.wal.crc_failures_total").inc()
            break  # corrupted record: treated as log end below
        records.append((seq, payload))
        offset = end
    if offset != len(data) and not final:
        raise WALCorruptionError(
            f"segment {os.path.basename(path)} is corrupted at byte "
            f"{offset} (not the final segment: this is data loss)"
        )
    return records, offset


class WriteAheadLog:
    """Append-only segmented log with CRC framing and sequence numbers."""

    def __init__(self, directory: str, config: DurabilityConfig) -> None:
        self.directory = directory
        self.config = config
        os.makedirs(directory, exist_ok=True)
        self._handle = None
        self._segment_path: str | None = None
        self._segment_bytes = 0
        self.next_seq = 1
        self._open_tail()

    # -- segment bookkeeping --------------------------------------------

    def segments(self) -> list[str]:
        """Segment paths, ordered by first sequence number."""
        names = [
            name
            for name in os.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)
        ]
        return [
            os.path.join(self.directory, name)
            for name in sorted(names, key=lambda n: _segment_base(
                os.path.join(self.directory, n)))
        ]

    def _open_tail(self) -> None:
        """Open the last segment for appending, truncating any torn tail."""
        existing = self.segments()
        if not existing:
            self._start_segment(self.next_seq)
            return
        tail = existing[-1]
        records, valid_bytes = _scan_segment(tail, final=True)
        actual = os.path.getsize(tail)
        if valid_bytes != actual:
            # Torn final record from a crash mid-append: drop it.
            with open(tail, "r+b") as handle:
                handle.truncate(valid_bytes)
        if records:
            self.next_seq = records[-1][0] + 1
        else:
            self.next_seq = _segment_base(tail)
        self._segment_path = tail
        self._segment_bytes = valid_bytes
        self._handle = open(tail, "ab")

    def _start_segment(self, base_seq: int) -> None:
        if self._handle is not None:
            self.flush(force=True)
            self._handle.close()
        name = f"{_SEGMENT_PREFIX}{base_seq:016x}{_SEGMENT_SUFFIX}"
        self._segment_path = os.path.join(self.directory, name)
        self._handle = open(self._segment_path, "ab")
        self._segment_bytes = 0

    # -- appending -------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Append one framed record; returns its sequence number."""
        return self.append_many([payload])

    def append_many(self, payloads: list[bytes]) -> int:
        """Append a batch under one write barrier; returns the last seq.

        Group commit is what keeps WAL overhead low on batched ingestion:
        the whole batch is framed into one buffer, written with one
        syscall, and synced once.
        """
        if self._handle is None:
            raise DurabilityError("write-ahead log is closed")
        if not payloads:
            return self.next_seq - 1
        frames = []
        for payload in payloads:
            frames.append(encode_record(self.next_seq, payload))
            self.next_seq += 1
        blob = b"".join(frames)
        self._handle.write(blob)
        self._segment_bytes += len(blob)
        obs.counter("durability.wal.appends_total").inc()
        obs.counter("durability.wal.records_total").inc(len(payloads))
        obs.counter("durability.wal.bytes_total").inc(len(blob))
        obs.histogram(
            "durability.wal.group_commit_size", obs.DEFAULT_SIZE_EDGES
        ).observe(float(len(payloads)))
        self.flush()
        if self._segment_bytes >= self.config.segment_max_bytes:
            self._start_segment(self.next_seq)
        return self.next_seq - 1

    def flush(self, force: bool = False) -> None:
        """Apply the configured write barrier (or a full flush if forced)."""
        if self._handle is None:
            return
        mode = self.config.sync
        if force or mode in ("flush", "fsync"):
            self._handle.flush()
            obs.counter("durability.wal.flushes_total").inc()
        if mode == "fsync":
            os.fsync(self._handle.fileno())
            obs.counter("durability.wal.fsyncs_total").inc()

    def close(self) -> None:
        """Flush and close the active segment."""
        if self._handle is not None:
            self.flush(force=True)
            self._handle.close()
            self._handle = None

    # -- replay and pruning ---------------------------------------------

    def replay(self, after_seq: int = 0) -> Iterator[tuple[int, bytes]]:
        """Yield ``(seq, payload)`` for every record with ``seq > after_seq``.

        Enforces strictly contiguous sequence numbers across segment
        boundaries; a torn tail in the final segment ends the iteration.
        """
        self.flush(force=True)
        paths = self.segments()
        expected: int | None = None
        for position, path in enumerate(paths):
            final = position == len(paths) - 1
            records, _ = _scan_segment(path, final=final)
            for seq, payload in records:
                if expected is not None and seq != expected:
                    raise WALCorruptionError(
                        f"sequence gap in WAL: expected {expected}, found "
                        f"{seq} in {os.path.basename(path)}"
                    )
                expected = seq + 1
                if seq > after_seq:
                    yield seq, payload

    def prune(self, upto_seq: int) -> list[str]:
        """Delete whole segments containing only records ``<= upto_seq``.

        The active (last) segment is always kept.  Returns deleted paths.
        """
        paths = self.segments()
        deleted: list[str] = []
        for position in range(len(paths) - 1):
            # Segment p's records all precede segment p+1's base.
            next_base = _segment_base(paths[position + 1])
            if next_base - 1 <= upto_seq:
                os.remove(paths[position])
                deleted.append(paths[position])
            else:
                break
        return deleted


# -- snapshots -----------------------------------------------------------


def _snapshot_path(directory: str, seq: int) -> str:
    return os.path.join(
        directory, f"{_SNAPSHOT_PREFIX}{seq:016x}{_SNAPSHOT_SUFFIX}"
    )


def list_snapshots(directory: str) -> list[str]:
    """Snapshot paths, oldest first."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    kept = [
        name
        for name in names
        if name.startswith(_SNAPSHOT_PREFIX) and name.endswith(_SNAPSHOT_SUFFIX)
    ]
    return [os.path.join(directory, name) for name in sorted(kept)]


def write_snapshot(
    directory: str, seq: int, state: dict[str, Any], keep: int = 2
) -> str:
    """Atomically write a CRC-guarded snapshot; prune old ones.

    The envelope's CRC covers the canonical JSON of ``{version, seq,
    state}``, so any truncation or bit damage is detected on load.
    Returns the path written.
    """
    with obs.span("durability.snapshot.write", seq=seq):
        envelope = {"version": 1, "seq": seq, "state": state}
        body = canonical_json(envelope)
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        document = f'{{"crc":{crc},"envelope":{body}}}'
        path = _snapshot_path(directory, seq)
        temp = path + ".tmp"
        with open(temp, "w") as handle:
            handle.write(document)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        snapshots = list_snapshots(directory)
        for old in snapshots[:-keep]:
            os.remove(old)
        obs.counter("durability.snapshot.writes_total").inc()
        obs.counter("durability.snapshot.bytes_total").inc(len(document))
    return path


def _load_snapshot(path: str) -> tuple[int, dict[str, Any]]:
    with open(path) as handle:
        document = json.load(handle)
    envelope = document["envelope"]
    body = canonical_json(envelope)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if crc != document["crc"]:
        obs.counter("durability.snapshot.crc_failures_total").inc()
        raise SnapshotCorruptionError(
            f"snapshot {os.path.basename(path)} failed its CRC check"
        )
    if envelope.get("version") != 1:
        raise SnapshotCorruptionError(
            f"snapshot {os.path.basename(path)} has unsupported version "
            f"{envelope.get('version')!r}"
        )
    return int(envelope["seq"]), envelope["state"]


def load_latest_snapshot(
    directory: str,
) -> tuple[int, dict[str, Any], list[str]] | None:
    """The newest loadable snapshot, or ``None`` if none exists.

    A corrupted or partially-written newest snapshot falls back to the
    previous one; the paths that failed are returned for reporting.
    Raises :class:`SnapshotCorruptionError` only when snapshots exist but
    *none* is loadable (recovery must not silently start empty).
    """
    paths = list_snapshots(directory)
    if not paths:
        return None
    failures: list[str] = []
    for path in reversed(paths):
        try:
            seq, state = _load_snapshot(path)
            return seq, state, failures
        except (SnapshotCorruptionError, json.JSONDecodeError, KeyError,
                OSError, ValueError):
            obs.counter("durability.snapshot.load_failures_total").inc()
            failures.append(path)
    raise SnapshotCorruptionError(
        f"all {len(paths)} snapshots in {directory} are corrupted"
    )
