"""The framed command protocol between coordinator and shard workers.

Every message -- command or reply -- travels as one *frame* over a
message-boundary-preserving byte channel (a ``multiprocessing``
connection, or an in-process queue in inline mode)::

    +--------------+--------------+--------------------+
    | crc32  (u32) | seq    (u64) | payload (envelope) |
    +--------------+--------------+--------------------+

little-endian, with ``crc32`` computed over ``seq || payload``.  The
payload is the message in the typed envelope of
:mod:`repro.stream.durability`: a canonical-JSON header followed by the
raw little-endian buffers of its arrays, so a shipped counter grid or a
posted point batch travels as bytes (8 per counter, 4 or 8 per point),
not as a JSON list.  The ``seq`` is a per-link nonce chosen by the
coordinator; a reply echoes
the seq of the command it answers, which is how replies are matched to
requests over a pipelined channel.  A frame that fails the CRC raises
:class:`~repro.cluster.errors.FrameCorruptionError` and is dropped --
the retry loop re-delivers the command, so corruption degrades to
latency instead of a wrong answer.

Commands that *mutate* shard state (``register``, ``points``,
``intervals``) additionally carry a per-shard ``index``: the position of
the command in that shard's mutation history, starting at 1.  Because a
shard worker applies every mutation through its
:class:`~repro.stream.processor.StreamProcessor` write-ahead log --
exactly one WAL record per mutating command -- the worker's durable
``applied_seq`` *is* the index of the last applied command.  That single
fact makes delivery exactly-once with no extra bookkeeping:

* a **duplicate** (retry of a command the shard already applied) has
  ``index <= applied_seq`` and is acknowledged without re-applying;
* a **late/out-of-order** command has ``index > applied_seq + 1`` and is
  rejected with the expected index so the coordinator can re-drive the
  gap;
* after a **crash**, the recovered ``applied_seq`` tells the coordinator
  exactly which unacknowledged commands to resend.

Reply kinds: ``ok`` (applied / answered), ``dup`` (duplicate mutation,
not re-applied), ``gap`` (out-of-order mutation, carries
``expected_index``), ``error`` (the command itself is invalid --
not retriable).
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from repro.cluster.errors import FrameCorruptionError
from repro.stream.durability import decode_envelope, encode_envelope
from repro.stream.errors import EnvelopeError

__all__ = [
    "MUTATING_KINDS",
    "encode_frame",
    "decode_frame",
    "ok_reply",
    "error_reply",
]

_HEADER = struct.Struct("<IQ")

#: Command kinds that advance a shard's mutation index (one WAL record
#: each).  Everything else (``health``, ``ship``, ``snapshot``,
#: ``fault``, ``shutdown``) is read-only or administrative.
MUTATING_KINDS = frozenset({"register", "points", "intervals"})


def _crc(seq: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(seq.to_bytes(8, "little")))


def encode_frame(seq: int, message: dict[str, Any]) -> bytes:
    """Frame one message: ``crc32(seq || payload) + seq + payload``."""
    payload = encode_envelope(message)
    return _HEADER.pack(_crc(seq, payload), seq) + payload


def decode_frame(frame: bytes) -> tuple[int, dict[str, Any]]:
    """Decode one frame into ``(seq, message)``; CRC-verified.

    Raises :class:`FrameCorruptionError` on short frames, CRC
    mismatches, and undecodable payloads -- an envelope whose arrays
    overrun, underrun or trail the payload included.  Arrays in the
    message are read-only views of the frame.
    """
    if len(frame) < _HEADER.size:
        raise FrameCorruptionError(
            f"frame of {len(frame)} bytes is shorter than its header"
        )
    crc, seq = _HEADER.unpack_from(frame)
    payload = frame[_HEADER.size:]
    expected = _crc(seq, payload)
    if crc != expected:
        raise FrameCorruptionError(
            f"frame crc mismatch (recorded {crc:#010x}, computed "
            f"{expected:#010x})"
        )
    try:
        message = decode_envelope(payload)
    except EnvelopeError as exc:
        raise FrameCorruptionError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or "kind" not in message:
        raise FrameCorruptionError("frame payload is not a command object")
    return seq, message


def ok_reply(**fields: Any) -> dict[str, Any]:
    """An ``ok`` reply payload with extra fields merged in."""
    return {"kind": "ok", **fields}


def error_reply(error: str, message: str, **fields: Any) -> dict[str, Any]:
    """A non-retriable ``error`` reply naming the failure class."""
    return {"kind": "error", "error": error, "message": message, **fields}
