"""Built-in scheme registrations: the paper's six generating schemes.

Each scheme is described once by a :class:`~repro.schemes.registry.SchemeSpec`
-- construction, capabilities, codec -- and every layer (plane,
serialization, batched range-sums, bench, CLI, stream processor) picks it
up from the registry.  This module is also the worked example of the
one-file extension story: :class:`PolyPrimePlane` adds a packed
counter-plane kernel for the polynomials-over-primes scheme (absent from
the hand-wired plane layer before the registry existed) by subclassing
the public :class:`~repro.sketch.plane.PackedPlane` scaffolding, and the
``polyprime`` spec below wires it in for the whole system.

Import-order note: :mod:`repro.sketch.serialize` imports this package, so
``repro.sketch`` modules other than :mod:`repro.sketch.plane` and
:mod:`repro.sketch.kernels` (both import-cycle-free) are imported lazily
inside the codec closures.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro.generators.bch3 import BCH3
from repro.generators.bch5 import BCH5
from repro.generators.eh3 import EH3
from repro.generators.polyprime import PolynomialsOverPrimes, massdal2
from repro.generators.rm7 import RM7
from repro.generators.sequential import (
    bch3_sequential_bits,
    eh3_sequential_bits,
)
from repro.generators.toeplitz import Toeplitz, ToeplitzHash
from repro.schemes.registry import (
    ChannelCodec,
    SchemeCodec,
    SchemeSpec,
    decode_generator,
    encode_generator,
    register,
    register_channel_codec,
)
from repro.sketch.plane import (
    BCH3Plane,
    BCH5Plane,
    EH3Plane,
    PackedPlane,
)
from repro.sketch.kernels import poly_sign_kernel

__all__ = ["PolyPrimePlane"]


# ---------------------------------------------------------------------------
# The new packed kernel: polynomials over primes.
# ---------------------------------------------------------------------------


class PolyPrimePlane(PackedPlane):
    """All polynomial-over-primes seeds of a grid, packed for batches.

    The per-index work of the scheme is one degree-``(k-1)`` Horner
    evaluation mod ``p`` per counter, delegated to
    :func:`~repro.sketch.kernels.poly_sign_kernel`.  For Mersenne moduli
    (the scheme's standard ``p = 2^31 - 1``, or ``2^61 - 1`` for wide
    domains) every reduction is a branch-free shift-add fold -- no ``%``
    anywhere on the packed path -- and the extracted sign bits match the
    scalar :meth:`~repro.generators.polyprime.PolynomialsOverPrimes.bit`
    path bit for bit.  Non-Mersenne research primes take the kernel's
    exact generic route.

    Sign passes run in chunks to bound the ``(counters, chunk)``
    temporaries, and the finisher sums the totals chunk by chunk.
    """

    interval_kind = None
    plane_kind = "generator"

    _CHUNK = 2048

    def __init__(self, generators: Sequence[PolynomialsOverPrimes]) -> None:
        bits = {g.domain_bits for g in generators}
        primes = {g.p for g in generators}
        if len(bits) != 1 or len(primes) != 1:
            raise ValueError("plane generators must share a domain and prime")
        super().__init__(bits.pop(), len(generators))
        self.p = primes.pop()
        degree = max(len(g.coefficients) for g in generators)
        matrix = np.zeros((self.counters, degree), dtype=np.uint64)
        # repro: allow[R006] construction loop: one coefficient-row write per counter, off the batch path
        for column, generator in enumerate(generators):
            coefficients = generator.coefficients
            matrix[column, : len(coefficients)] = np.asarray(
                coefficients, dtype=np.uint64
            )
        self.coefficients = matrix
        self._signs = poly_sign_kernel(self.coefficients, self.p)

    def point_signs(self, points: Sequence[int] | np.ndarray) -> np.ndarray:
        """Packed ``(batch, words)`` sign bits of a point batch."""
        points = self._check_points(points)
        chunks = [
            self._signs(points[start : start + self._CHUNK])
            for start in range(0, points.size, self._CHUNK)
        ]
        if not chunks:
            return np.zeros((0, self.words), dtype=np.uint64)
        return np.concatenate(chunks)

    def point_totals(
        self,
        points: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-counter ``sum_p w_p * xi_c(p)`` for a point batch."""
        start_time = obs.monotonic()
        signs = self.point_signs(points)
        u = self._weights_or_none(weights, signs.shape[0])
        totals = np.zeros(self.counters, dtype=np.float64)
        # repro: allow[R006] chunk traversal: one finisher pass per (chunk, words) block
        for start in range(0, signs.shape[0], self._CHUNK):
            stop = start + self._CHUNK
            chunk_u = None if u is None else u[start:stop]
            totals += self._signed_totals(signs[start:stop], chunk_u)
        self._observe_kernel(start_time)
        return totals


# ---------------------------------------------------------------------------
# Generator specs.
# ---------------------------------------------------------------------------


def _eh3_range_sums(generator: EH3, alphas: Any, betas: Any) -> np.ndarray:
    from repro.rangesum.batched import eh3_range_sums

    return eh3_range_sums(generator, alphas, betas)


def _bch3_range_sums(generator: BCH3, alphas: Any, betas: Any) -> np.ndarray:
    from repro.rangesum.batched import bch3_range_sums

    return bch3_range_sums(generator, alphas, betas)


def _bch5_range_sums(generator: BCH5, alphas: Any, betas: Any) -> np.ndarray:
    from repro.rangesum.batched import bch5_range_sums

    return bch5_range_sums(generator, alphas, betas)


def _bch5_range_sum(generator: BCH5, alpha: int, beta: int) -> int:
    from repro.rangesum.bch5_rangesum import bch5_range_sum

    return bch5_range_sum(generator, alpha, beta)


def _rm7_range_sum(generator: RM7, alpha: int, beta: int) -> int:
    from repro.rangesum.rm7_rangesum import rm7_range_sum

    return rm7_range_sum(generator, alpha, beta)


def _toeplitz_range_sums(
    generator: Toeplitz, alphas: Any, betas: Any
) -> np.ndarray:
    from repro.rangesum.batched import bch3_range_sums

    return bch3_range_sums(generator.as_bch3(), alphas, betas)


register(
    SchemeSpec(
        name="eh3",
        cls=EH3,
        summary="3-wise independent, range-summable in O(log range) "
        "(Theorem 2 / Algorithm H3Interval)",
        independence=3,
        seed_bits="n + 1",
        factory=lambda bits, src: EH3.from_source(bits, src),
        codec=SchemeCodec(
            kind="eh3",
            encode=lambda g: {
                "kind": "eh3",
                "domain_bits": g.domain_bits,
                "s0": g.s0,
                "s1": g.s1,
            },
            decode=lambda d: EH3(d["domain_bits"], d["s0"], d["s1"]),
        ),
        fast_range_sum=True,
        range_sum=lambda g, a, b: g.range_sum(a, b),
        range_sums=_eh3_range_sums,
        plane=EH3Plane,
        interval_kind="quaternary",
        dmap_inner=True,
        extras={"sequential_bits": eh3_sequential_bits},
    )
)

register(
    SchemeSpec(
        name="bch3",
        cls=BCH3,
        summary="3-wise independent, range-summable in O(1) amortized",
        independence=3,
        seed_bits="n + 1",
        factory=lambda bits, src: BCH3.from_source(bits, src),
        codec=SchemeCodec(
            kind="bch3",
            encode=lambda g: {
                "kind": "bch3",
                "domain_bits": g.domain_bits,
                "s0": g.s0,
                "s1": g.s1,
            },
            decode=lambda d: BCH3(d["domain_bits"], d["s0"], d["s1"]),
        ),
        fast_range_sum=True,
        range_sum=lambda g, a, b: g.range_sum(a, b),
        range_sums=_bch3_range_sums,
        plane=BCH3Plane,
        interval_kind="binary",
        dmap_inner=True,
        extras={"sequential_bits": bch3_sequential_bits},
    )
)

register(
    SchemeSpec(
        name="bch5",
        cls=BCH5,
        summary="5-wise independent, not fast range-summable (Theorem 3); "
        "dyadic sums amortize via the quadratic form",
        independence=5,
        seed_bits="2n + 1",
        factory=lambda bits, src: BCH5.from_source(bits, src),
        codec=SchemeCodec(
            kind="bch5",
            encode=lambda g: {
                "kind": "bch5",
                "domain_bits": g.domain_bits,
                "s0": g.s0,
                "s1": g.s1,
                "s3": g.s3,
                "mode": g.mode,
            },
            decode=lambda d: BCH5(
                d["domain_bits"], d["s0"], d["s1"], d["s3"], mode=d["mode"]
            ),
        ),
        fast_range_sum=False,
        range_sum=_bch5_range_sum,
        range_sums=_bch5_range_sums,
        plane=BCH5Plane,
        interval_kind=None,
        dmap_inner=True,
    )
)

register(
    SchemeSpec(
        name="rm7",
        cls=RM7,
        summary="7-wise independent; range-summable in principle "
        "(2XOR-AND counting) but impractically slow",
        independence=7,
        seed_bits="1 + n + n(n-1)/2",
        factory=lambda bits, src: RM7.from_source(bits, src),
        codec=SchemeCodec(
            kind="rm7",
            encode=lambda g: {
                "kind": "rm7",
                "domain_bits": g.domain_bits,
                "s0": g.s0,
                "s1": g.s1,
                "q_rows": list(g.q_rows),
            },
            decode=lambda d: RM7(
                d["domain_bits"], d["s0"], d["s1"], d["q_rows"]
            ),
        ),
        fast_range_sum=False,
        range_sum=_rm7_range_sum,
        range_sums=None,
        plane=None,
        interval_kind=None,
        dmap_inner=False,
    )
)

register(
    SchemeSpec(
        name="polyprime",
        cls=PolynomialsOverPrimes,
        summary="k-wise independent polynomials over a Mersenne prime; "
        "not range-summable (Theorem 4)",
        independence=2,
        seed_bits="k * ceil(log2 p)",
        factory=lambda bits, src: massdal2(bits, src),
        codec=SchemeCodec(
            kind="polyprime",
            encode=lambda g: {
                "kind": "polyprime",
                "domain_bits": g.domain_bits,
                "coefficients": list(g.coefficients),
                "p": g.p,
            },
            decode=lambda d: PolynomialsOverPrimes(
                d["domain_bits"], tuple(d["coefficients"]), p=d["p"]
            ),
        ),
        fast_range_sum=False,
        range_sum=None,
        range_sums=None,
        plane=PolyPrimePlane,
        interval_kind=None,
        dmap_inner=True,
    )
)

register(
    SchemeSpec(
        name="toeplitz",
        cls=Toeplitz,
        summary="2-wise independent Toeplitz hashing; range-sums collapse "
        "to BCH3's O(1) algorithm",
        independence=2,
        seed_bits="n + 2m - 1",
        factory=lambda bits, src: Toeplitz.from_source(bits, src),
        codec=SchemeCodec(
            kind="toeplitz",
            encode=lambda g: {
                "kind": "toeplitz",
                "domain_bits": g.domain_bits,
                "m": g.hash_function.m,
                "diagonal_bits": g.hash_function.diagonal_bits,
                "offset": g.hash_function.offset,
            },
            decode=lambda d: Toeplitz(
                d["domain_bits"],
                ToeplitzHash(
                    d["domain_bits"], d["m"], d["diagonal_bits"], d["offset"]
                ),
            ),
        ),
        fast_range_sum=True,
        range_sum=lambda g, a, b: g.range_sum(a, b),
        range_sums=_toeplitz_range_sums,
        plane=None,
        interval_kind=None,
        dmap_inner=False,
    )
)


# ---------------------------------------------------------------------------
# Channel codecs (generator, DMAP, and the d-dimensional products).
# ---------------------------------------------------------------------------


def _is_generator_channel(channel: Any) -> bool:
    from repro.sketch.atomic import GeneratorChannel

    return isinstance(channel, GeneratorChannel)


def _encode_generator_channel(channel: Any) -> dict[str, Any]:
    return {
        "kind": "generator",
        "generator": encode_generator(channel.generator),
    }


def _decode_generator_channel(data: Mapping[str, Any]) -> Any:
    from repro.sketch.atomic import GeneratorChannel

    return GeneratorChannel(decode_generator(data["generator"]))


def _is_dmap_channel(channel: Any) -> bool:
    from repro.sketch.atomic import DMAPChannel

    return isinstance(channel, DMAPChannel)


def _encode_dmap_channel(channel: Any) -> dict[str, Any]:
    return {
        "kind": "dmap",
        "domain_bits": channel.dmap.domain_bits,
        "generator": encode_generator(channel.dmap.generator),
    }


def _decode_dmap_channel(data: Mapping[str, Any]) -> Any:
    from repro.rangesum.dmap import DMAP
    from repro.sketch.atomic import DMAPChannel

    return DMAPChannel(
        DMAP(data["domain_bits"], decode_generator(data["generator"]))
    )


def _is_product_channel(channel: Any) -> bool:
    from repro.sketch.atomic import ProductChannel

    return isinstance(channel, ProductChannel)


def _encode_product_channel(channel: Any) -> dict[str, Any]:
    return {
        "kind": "product",
        "factors": [
            encode_generator(factor) for factor in channel.generator.factors
        ],
    }


def _decode_product_channel(data: Mapping[str, Any]) -> Any:
    from repro.rangesum.multidim import ProductGenerator
    from repro.sketch.atomic import ProductChannel

    return ProductChannel(
        ProductGenerator([decode_generator(f) for f in data["factors"]])
    )


def _is_product_dmap_channel(channel: Any) -> bool:
    from repro.sketch.atomic import ProductDMAPChannel

    return isinstance(channel, ProductDMAPChannel)


def _encode_product_dmap_channel(channel: Any) -> dict[str, Any]:
    return {
        "kind": "product_dmap",
        "axes": [
            {
                "domain_bits": dmap.domain_bits,
                "generator": encode_generator(dmap.generator),
            }
            for dmap in channel.dmap.dmaps
        ],
    }


def _decode_product_dmap_channel(data: Mapping[str, Any]) -> Any:
    from repro.rangesum.dmap import DMAP
    from repro.rangesum.multidim import ProductDMAP
    from repro.sketch.atomic import ProductDMAPChannel

    return ProductDMAPChannel(
        ProductDMAP(
            [
                DMAP(axis["domain_bits"], decode_generator(axis["generator"]))
                for axis in data["axes"]
            ]
        )
    )


register_channel_codec(
    ChannelCodec(
        kind="generator",
        matches=_is_generator_channel,
        encode=_encode_generator_channel,
        decode=_decode_generator_channel,
    )
)

register_channel_codec(
    ChannelCodec(
        kind="dmap",
        matches=_is_dmap_channel,
        encode=_encode_dmap_channel,
        decode=_decode_dmap_channel,
    )
)

register_channel_codec(
    ChannelCodec(
        kind="product",
        matches=_is_product_channel,
        encode=_encode_product_channel,
        decode=_decode_product_channel,
    )
)

register_channel_codec(
    ChannelCodec(
        kind="product_dmap",
        matches=_is_product_dmap_channel,
        encode=_encode_product_dmap_channel,
        decode=_decode_product_dmap_channel,
    )
)
