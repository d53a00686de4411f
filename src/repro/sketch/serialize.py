"""Serialization of generators, schemes, and sketches.

Distributed sketching (paper Section 2.1) only works if every party uses
the SAME seeds: the coordinator fixes a scheme, ships it to the sites,
each site sketches its local data, and the numeric sketches are added.
This module provides the shipping format: dicts with explicit seed
material, round-trippable bit-for-bit.  Scheme and generator dicts are
plain JSON; a sketch dict carries its counters as a float64 ndarray,
which the typed envelope (:func:`repro.stream.durability.encode_envelope`,
used by cluster frames) ships as raw little-endian bytes and
:func:`~repro.stream.durability.canonical_json` (used by snapshots)
writes as nested lists.

Supported channel kinds: direct generators (all six schemes), DMAP, and
their d-dimensional products.

Wire-format integrity (the durability layer builds on these guarantees):

* scheme and sketch envelopes carry ``"version"`` (currently 2; absent
  means the pre-versioned v0 format, still accepted);
* :func:`scheme_fingerprint` derives a stable content hash of a scheme's
  seed material, shipped inside every sketch so a receiver can refuse to
  merge counters built under different seeds
  (:meth:`repro.stream.processor.StreamProcessor.merge_sketch` enforces
  this);
* sketches carry a CRC32 ``"checksum"`` over their counters' ``<f8``
  bytes (version 2; a version-1 sketch is verified against the CRC of
  its JSON text), and
  :func:`sketch_from_dict` rejects non-finite counters -- a corrupted
  shipped sketch cannot poison a merge.  A JSON snapshot's lists parse
  back to the same float64 bytes, so it verifies against the same
  number as a binary frame.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import Any

import numpy as np

from repro.generators.base import Generator
from repro.schemes import (
    SerializationError,
    decode_channel,
    decode_generator,
    encode_channel,
    encode_generator,
)
from repro.sketch.ams import SketchMatrix, SketchScheme
from repro.sketch.atomic import AtomicChannel

__all__ = [
    "SERIALIZE_VERSION",
    "SerializationError",
    "generator_to_dict",
    "generator_from_dict",
    "channel_to_dict",
    "channel_from_dict",
    "scheme_to_dict",
    "scheme_from_dict",
    "scheme_fingerprint",
    "sketch_to_dict",
    "sketch_from_dict",
    "values_checksum",
]

#: Current wire-format version of scheme/sketch envelopes.  Absent
#: version fields mean the pre-versioned v0 format and are accepted;
#: versions newer than this are rejected with a descriptive error.
#: Version 2 checksums the counters' bytes instead of their JSON text.
SERIALIZE_VERSION = 2


def _check_version(data: dict[str, Any], what: str) -> None:
    version = data.get("version", 0)
    if not isinstance(version, int) or version > SERIALIZE_VERSION:
        raise ValueError(
            f"serialized {what} has version {version!r}; this build reads "
            f"up to version {SERIALIZE_VERSION}"
        )


def values_checksum(values: Any) -> int:
    """CRC32 over a counter grid's little-endian float64 bytes."""
    return zlib.crc32(np.asarray(values, dtype="<f8").tobytes())


def _v1_values_checksum(values: Any) -> int:
    """CRC32 over a counter grid's JSON text (version-1 sketches)."""
    canonical = json.dumps(
        np.asarray(values, dtype=np.float64).tolist(),
        separators=(",", ":"),
    )
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def generator_to_dict(generator: Generator) -> dict[str, Any]:
    """Serialize a generator's seed material to a JSON-compatible dict.

    Dispatches through the codec each scheme registered with
    :mod:`repro.schemes`; an unregistered generator type raises
    :class:`repro.schemes.UnsupportedSchemeError` (a ``TypeError``).
    """
    return encode_generator(generator)


def generator_from_dict(data: dict[str, Any]) -> Generator:
    """Rebuild a generator from :func:`generator_to_dict` output.

    An unrecognized ``kind`` raises :class:`SerializationError` (a
    ``ValueError``) naming the kind and listing the registered kinds.
    """
    return decode_generator(data)


def channel_to_dict(channel: AtomicChannel) -> dict[str, Any]:
    """Serialize an update channel (generator, DMAP, or product).

    Dispatches through the channel codecs registered with
    :mod:`repro.schemes`.
    """
    return encode_channel(channel)


def channel_from_dict(data: dict[str, Any]) -> AtomicChannel:
    """Rebuild a channel from :func:`channel_to_dict` output.

    An unrecognized ``kind`` raises :class:`SerializationError` (a
    ``ValueError``) naming the kind and listing the registered kinds.
    """
    return decode_channel(data)


def scheme_to_dict(scheme: SketchScheme) -> dict[str, Any]:
    """Serialize a full medians x averages scheme (all seeds)."""
    return {
        "kind": "sketch_scheme",
        "version": SERIALIZE_VERSION,
        "channels": [
            [channel_to_dict(channel) for channel in row]
            for row in scheme.channels
        ],
        "fingerprint": scheme_fingerprint(scheme),
    }


def scheme_from_dict(data: dict[str, Any]) -> SketchScheme:
    """Rebuild a scheme; sketches made from it are comparable across
    processes because the seeds are identical."""
    if data.get("kind") != "sketch_scheme":
        raise ValueError("not a serialized sketch scheme")
    _check_version(data, "scheme")
    scheme = SketchScheme(
        [
            [channel_from_dict(channel) for channel in row]
            for row in data["channels"]
        ]
    )
    recorded = data.get("fingerprint")
    if recorded is not None and recorded != scheme_fingerprint(scheme):
        raise ValueError(
            "scheme fingerprint mismatch: the serialized seed material "
            "does not hash to the recorded fingerprint (corrupt wire data)"
        )
    return scheme


def scheme_fingerprint(scheme: SketchScheme) -> str:
    """A stable content hash of a scheme's full seed material.

    Two scheme objects fingerprint identically exactly when every channel
    serializes identically -- i.e. when sketches built under them are
    legitimately combinable.  The hash is cached on the scheme object (the
    channel grid is immutable after construction).
    """
    cached = getattr(scheme, "_fingerprint", None)
    if cached is not None:
        return cached
    canonical = json.dumps(
        [
            [channel_to_dict(channel) for channel in row]
            for row in scheme.channels
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    scheme._fingerprint = digest
    return digest


def sketch_to_dict(
    sketch: SketchMatrix, include_scheme: bool = True
) -> dict[str, Any]:
    """Serialize a sketch: its counters, plus (optionally) the scheme.

    ``values`` is a float64 copy of the ``(medians, averages)`` grid.

    With ``include_scheme=False`` only the numeric counters are shipped --
    the right choice when the receiver already holds the scheme (it
    distributed the seeds in the first place), since the counters are the
    whole point of sketch-sized communication.  The envelope always
    carries the scheme's fingerprint and a CRC32 checksum of the counter
    values, so the receiver can verify provenance and integrity either
    way.
    """
    values = sketch.table.copy()
    data: dict[str, Any] = {
        "kind": "sketch",
        "version": SERIALIZE_VERSION,
        "values": values,
        "checksum": values_checksum(values),
        "fingerprint": scheme_fingerprint(sketch.scheme),
    }
    if include_scheme:
        data["scheme"] = scheme_to_dict(sketch.scheme)
    return data


def sketch_from_dict(
    data: dict[str, Any], scheme: SketchScheme | None = None
) -> SketchMatrix:
    """Rebuild a sketch, verifying integrity along the way.

    Pass the receiver's ``scheme`` to attach the counters to an existing
    scheme object (required for combining with locally-built sketches);
    otherwise a fresh equivalent scheme is reconstructed.  Rejects
    shape mismatches, checksum failures, fingerprint mismatches against
    the provided scheme, and non-finite counter values -- each with a
    descriptive :class:`ValueError` -- so a corrupted shipped sketch can
    never poison a merge.
    """
    if data.get("kind") != "sketch":
        raise ValueError("not a serialized sketch")
    _check_version(data, "sketch")
    recorded_fingerprint = data.get("fingerprint")
    if scheme is None:
        if "scheme" not in data:
            raise ValueError(
                "sketch was serialized without its scheme; pass scheme="
            )
        scheme = scheme_from_dict(data["scheme"])
    if recorded_fingerprint is not None:
        if recorded_fingerprint != scheme_fingerprint(scheme):
            raise ValueError(
                "sketch was built under a different scheme than the one "
                "provided (fingerprint mismatch); merging would combine "
                "incomparable counters"
            )
    values = data["values"]
    sketch = SketchMatrix.from_values(scheme, values)  # rejects a wrong shape
    if not np.isfinite(sketch.table).all():
        bad = int(np.count_nonzero(~np.isfinite(sketch.table)))
        raise ValueError(
            f"serialized sketch contains {bad} non-finite counter value(s) "
            "(NaN/Inf); refusing to deserialize a corrupted sketch"
        )
    recorded_checksum = data.get("checksum")
    checksum = (
        values_checksum(sketch.table)
        if data.get("version", 0) >= 2
        else _v1_values_checksum(values)
    )
    if recorded_checksum is not None and recorded_checksum != checksum:
        raise ValueError(
            "sketch counter checksum mismatch: the values were corrupted "
            "in transit or at rest"
        )
    return sketch
