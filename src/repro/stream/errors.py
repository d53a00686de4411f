"""Typed error taxonomy of the stream-ingestion layer.

The continuous-query engine (:mod:`repro.stream.processor`) is the only
state holder for an unbounded stream, so every failure mode gets its own
exception type: callers can tell *bad input* (:class:`InvalidUpdateError`,
:class:`UnknownRelationError`, :class:`SchemeMismatchError`) from *damaged
durable state* (:class:`WALCorruptionError`, :class:`SnapshotCorruptionError`,
:class:`EnvelopeError`, :class:`RecoveryError`) from *a bug on the write path*
(:class:`ApplyError`) and react per class -- quarantine the first,
page an operator for the others.

The input-validation errors subclass :class:`ValueError` so existing
callers that caught ``ValueError`` keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "StreamError",
    "InvalidUpdateError",
    "UnknownRelationError",
    "SchemeMismatchError",
    "ApplyError",
    "DurabilityError",
    "WALCorruptionError",
    "SnapshotCorruptionError",
    "EnvelopeError",
    "RecoveryError",
    "InjectedFault",
]


class StreamError(Exception):
    """Base class of every stream-layer error."""


class InvalidUpdateError(StreamError, ValueError):
    """A stream record failed ingestion validation.

    Carries ``code`` -- a short machine-readable reason (for example
    ``"inverted-interval"`` or ``"non-finite-weight"``) that the
    quarantine counters aggregate on.
    """

    def __init__(self, message: str, code: str = "invalid") -> None:
        super().__init__(message)
        self.code = code


class UnknownRelationError(StreamError, ValueError):
    """An update or query referenced a relation never registered."""


class SchemeMismatchError(StreamError, ValueError):
    """A remote sketch was built under different seeds than the local one.

    Combining such sketches would silently produce garbage estimates, so
    :meth:`repro.stream.processor.StreamProcessor.merge_sketch` compares
    scheme fingerprints and raises this instead.
    """


class ApplyError(StreamError):
    """A screened write failed while its new counters were being formed.

    Input is validated before it reaches the kernels, so this is a bug
    (or an injected fault): the original exception is chained as
    ``__cause__``.  Nothing was logged or applied.  Under the
    ``quarantine``/``clamp`` policies the write is dead-lettered as
    ``apply-failed`` instead of raising.
    """


class DurabilityError(StreamError):
    """Base class of write-ahead-log / snapshot failures."""


class WALCorruptionError(DurabilityError):
    """A WAL segment failed CRC or framing checks away from the tail.

    A *torn final record* (crash mid-append) is expected and tolerated;
    corruption anywhere else is data loss and must surface loudly.
    """


class SnapshotCorruptionError(DurabilityError):
    """A snapshot file failed its CRC or envelope checks."""


class EnvelopeError(DurabilityError, ValueError):
    """A typed envelope's magic byte, header or array buffers disagree.

    Raised by :func:`repro.stream.durability.decode_envelope`; a cluster
    frame reports it as ``FrameCorruptionError`` and WAL recovery as
    :class:`RecoveryError`.
    """


class RecoveryError(DurabilityError):
    """Recovery could not reconstruct a consistent processor.

    Raised when no valid snapshot/WAL prefix exists, when the WAL has a
    gap past the snapshot's sequence number, or when the re-derived
    schemes do not match the fingerprints recorded at checkpoint time
    (wrong master seed or generator factory).
    """


class InjectedFault(RuntimeError):
    """Deliberate failure raised by the fault-injection harness."""
