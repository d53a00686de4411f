"""Stream abstractions, exact reference aggregates, and durable ingestion."""

from repro.stream.durability import DurabilityConfig, WriteAheadLog
from repro.stream.errors import (
    ApplyError,
    DurabilityError,
    EnvelopeError,
    InjectedFault,
    InvalidUpdateError,
    RecoveryError,
    SchemeMismatchError,
    SnapshotCorruptionError,
    StreamError,
    UnknownRelationError,
    WALCorruptionError,
)
from repro.stream.exact import (
    join_size,
    l1_difference,
    region_frequency_sum,
    segments_intersecting,
    self_join_size,
)
from repro.stream.processor import QueryHandle, StreamProcessor
from repro.stream.streams import (
    IntervalStream,
    IntervalUpdate,
    PointStream,
    PointUpdate,
    frequency_vector,
    stream_from_frequencies,
)
from repro.stream.validation import (
    POLICIES,
    DeadLetterBuffer,
    Incident,
    QuarantinedRecord,
)

__all__ = [
    "join_size",
    "l1_difference",
    "region_frequency_sum",
    "segments_intersecting",
    "self_join_size",
    "QueryHandle",
    "StreamProcessor",
    "IntervalStream",
    "IntervalUpdate",
    "PointStream",
    "PointUpdate",
    "frequency_vector",
    "stream_from_frequencies",
    "DurabilityConfig",
    "WriteAheadLog",
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
    "POLICIES",
    "DeadLetterBuffer",
    "Incident",
    "QuarantinedRecord",
]
