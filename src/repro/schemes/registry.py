"""The scheme capability registry.

The paper's +/-1 generating schemes are interchangeable objects
distinguished only by their *capabilities*: independence degree, seed
size, whether range-sums are fast, whether a packed counter-plane kernel
exists.  This module holds the single table describing each scheme once
-- a :class:`SchemeSpec` -- and the dispatch helpers every other layer
(plane, serialization, batched range-sums, bulk updates, bench, CLI,
stream processor) uses instead of hand-wired ``isinstance`` or
``kind ==`` ladders.

Adding a scheme is one :func:`register` call (see
:mod:`repro.schemes.builtin` for the built-in table and ``docs/api.md``
for a walkthrough); every consumer picks it up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.schemes.errors import (
    SerializationError,
    UnknownSchemeError,
    UnsupportedSchemeError,
)

__all__ = [
    "SchemeCodec",
    "SchemeSpec",
    "ChannelCodec",
    "register",
    "get_spec",
    "spec_for",
    "registered_schemes",
    "all_specs",
    "registered_kinds",
    "encode_generator",
    "decode_generator",
    "register_channel_codec",
    "encode_channel",
    "decode_channel",
    "channel_kind",
    "registered_channel_kinds",
]


@dataclass(frozen=True)
class SchemeCodec:
    """Wire codec of one generator kind.

    ``encode`` must emit a JSON-compatible dict whose ``"kind"`` equals
    :attr:`kind`; ``decode`` must rebuild a bit-identical generator from
    that dict.  The encoded dict is also the scheme-fingerprint input, so
    its content must be a complete, canonical description of the seed
    material.
    """

    kind: str
    encode: Callable[[Any], dict[str, Any]]
    decode: Callable[[Mapping[str, Any]], Any]


@dataclass(frozen=True)
class SchemeSpec:
    """Everything the system needs to know about one generating scheme.

    Construction (``cls``, ``factory``, ``seed_bits``), capabilities
    (``fast_range_sum``, ``range_sum``, ``range_sums``, ``plane``,
    ``interval_kind``, ``dmap_inner``), and the serialization ``codec``
    are declared here once; every consumer dispatches through the
    registry instead of enumerating schemes by hand.
    """

    name: str
    cls: type
    summary: str
    independence: int
    seed_bits: str
    #: ``factory(domain_bits, source)`` draws a fresh generator.
    factory: Callable[[int, Any], Any]
    codec: SchemeCodec
    #: True when range-sums are practical (paper Sections 4-5).
    fast_range_sum: bool = False
    #: Scalar ``range_sum(generator, alpha, beta)`` or ``None``.
    range_sum: Callable[[Any, int, int], int] | None = None
    #: Batched ``range_sums(generator, alphas, betas)`` or ``None``.
    range_sums: Callable[[Any, Any, Any], Any] | None = None
    #: ``plane(generators)`` packs a grid's seeds into a counter-plane
    #: kernel (see :mod:`repro.sketch.plane`), or ``None``.
    plane: Callable[[Sequence[Any]], Any] | None = None
    #: Piece shape the scheme's fast interval path consumes:
    #: ``"quaternary"`` (EH3 Theorem 2), ``"binary"`` (BCH3), or ``None``.
    interval_kind: str | None = None
    #: True when the scheme can serve as a DMAP channel's inner generator
    #: on the packed-plane path (requires ``plane``).
    dmap_inner: bool = False
    extras: Mapping[str, Any] = field(default_factory=dict)

    def capabilities(self) -> dict[str, bool]:
        """The declared capability flags, for docs and guard tests."""
        return {
            "fast_range_sum": self.fast_range_sum,
            "range_sum": self.range_sum is not None,
            "range_sums": self.range_sums is not None,
            "plane": self.plane is not None,
            "fast_intervals": self.interval_kind is not None,
            "dmap_inner": self.dmap_inner,
        }


@dataclass(frozen=True)
class ChannelCodec:
    """Wire codec of one update-channel kind (generator/DMAP/product)."""

    kind: str
    #: ``matches(channel)`` -- does this codec own the channel object?
    matches: Callable[[Any], bool]
    encode: Callable[[Any], dict[str, Any]]
    decode: Callable[[Mapping[str, Any]], Any]


_SPECS: dict[str, SchemeSpec] = {}
_BY_CLS: dict[type, SchemeSpec] = {}
_CODECS: dict[str, SchemeCodec] = {}
_CHANNEL_CODECS: dict[str, ChannelCodec] = {}


def register(spec: SchemeSpec, replace: bool = False) -> SchemeSpec:
    """Add a scheme to the registry; returns the spec for chaining.

    The spec's codec kind is registered alongside it, so a scheme can
    never ship unserializable.  Re-registering a name (or codec kind)
    raises unless ``replace=True``.
    """
    if not replace and spec.name in _SPECS:
        raise ValueError(f"scheme {spec.name!r} is already registered")
    if not replace and spec.codec.kind in _CODECS:
        raise ValueError(
            f"codec kind {spec.codec.kind!r} is already registered"
        )
    if spec.dmap_inner and spec.plane is None:
        raise ValueError(
            f"scheme {spec.name!r} declares dmap_inner without a plane kernel"
        )
    _SPECS[spec.name] = spec
    _BY_CLS[spec.cls] = spec
    _CODECS[spec.codec.kind] = spec.codec
    return spec


def get_spec(name: str) -> SchemeSpec:
    """The spec registered under ``name``; lists the registry on a miss."""
    spec = _SPECS.get(name)
    if spec is None:
        known = ", ".join(sorted(_SPECS)) or "<none>"
        raise UnknownSchemeError(
            f"unknown scheme {name!r}; registered schemes: {known}"
        )
    return spec


def spec_for(generator: Any) -> SchemeSpec | None:
    """The spec owning a generator instance (or type), else ``None``.

    Exact-type lookup first; subclasses of a registered class resolve to
    the most derived registered ancestor.
    """
    cls = generator if isinstance(generator, type) else type(generator)
    spec = _BY_CLS.get(cls)
    if spec is not None:
        return spec
    best: SchemeSpec | None = None
    for registered_cls, candidate in _BY_CLS.items():
        if issubclass(cls, registered_cls):
            if best is None or issubclass(registered_cls, best.cls):
                best = candidate
    return best


def registered_schemes() -> tuple[str, ...]:
    """Registered scheme names, in registration order."""
    return tuple(_SPECS)


def all_specs() -> tuple[SchemeSpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_SPECS.values())


def registered_kinds() -> tuple[str, ...]:
    """Registered generator codec kinds, in registration order."""
    return tuple(_CODECS)


def encode_generator(generator: Any) -> dict[str, Any]:
    """Serialize a generator through its registered codec."""
    spec = spec_for(generator)
    if spec is None:
        raise UnsupportedSchemeError(
            f"cannot serialize generator {type(generator).__name__}: "
            f"no registered scheme owns it (registered: "
            f"{', '.join(registered_schemes()) or '<none>'})"
        )
    return spec.codec.encode(generator)


def decode_generator(data: Mapping[str, Any]) -> Any:
    """Rebuild a generator from its wire dict via the codec table."""
    kind = data.get("kind")
    codec = _CODECS.get(kind) if isinstance(kind, str) else None
    if codec is None:
        known = ", ".join(sorted(_CODECS)) or "<none>"
        raise SerializationError(
            f"unknown generator kind {kind!r}; registered kinds: {known}"
        )
    return codec.decode(data)


def register_channel_codec(
    codec: ChannelCodec, replace: bool = False
) -> ChannelCodec:
    """Add an update-channel codec (generator/DMAP/product wrappers)."""
    if not replace and codec.kind in _CHANNEL_CODECS:
        raise ValueError(f"channel kind {codec.kind!r} is already registered")
    _CHANNEL_CODECS[codec.kind] = codec
    return codec


def encode_channel(channel: Any) -> dict[str, Any]:
    """Serialize a channel through the first codec that claims it."""
    for codec in _CHANNEL_CODECS.values():
        if codec.matches(channel):
            return codec.encode(channel)
    raise UnsupportedSchemeError(
        f"cannot serialize channel {type(channel).__name__}: no registered "
        f"channel codec claims it (registered: "
        f"{', '.join(registered_channel_kinds()) or '<none>'})"
    )


def decode_channel(data: Mapping[str, Any]) -> Any:
    """Rebuild a channel from its wire dict via the codec table."""
    kind = data.get("kind")
    codec = _CHANNEL_CODECS.get(kind) if isinstance(kind, str) else None
    if codec is None:
        known = ", ".join(sorted(_CHANNEL_CODECS)) or "<none>"
        raise SerializationError(
            f"unknown channel kind {kind!r}; registered kinds: {known}"
        )
    return codec.decode(data)


def channel_kind(channel: Any) -> str | None:
    """The registered kind claiming ``channel``, or ``None``.

    The structural-dispatch primitive for consumers that branch on what a
    channel *is* (generator / dmap / product / product_dmap): one lookup
    against the registered codecs' ``matches`` predicates replaces
    hand-wired ``isinstance`` ladders, so a newly registered channel kind
    is seen by every consumer at once.
    """
    for codec in _CHANNEL_CODECS.values():
        if codec.matches(channel):
            return codec.kind
    return None


def registered_channel_kinds() -> tuple[str, ...]:
    """Registered channel codec kinds, in registration order."""
    return tuple(_CHANNEL_CODECS)
