"""Tests for generator/scheme/sketch serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import query
from repro.generators import BCH5, EH3, SeedSource
from repro.rangesum.dmap import DMAP
from repro.rangesum.multidim import ProductDMAP, ProductGenerator
from repro.schemes import all_specs, get_spec, registered_schemes
from repro.sketch.ams import SketchScheme
from repro.sketch.atomic import (
    DMAPChannel,
    GeneratorChannel,
    ProductChannel,
    ProductDMAPChannel,
)
from repro.sketch.serialize import (
    SERIALIZE_VERSION,
    channel_from_dict,
    channel_to_dict,
    generator_from_dict,
    generator_to_dict,
    scheme_fingerprint,
    scheme_from_dict,
    scheme_to_dict,
    sketch_from_dict,
    sketch_to_dict,
    values_checksum,
)


def _scheme_bits(name: str) -> int:
    # RM7's O(n^2) seed and slow sweeps want a small domain in tests.
    return 6 if name == "rm7" else 10


def _roundtrip_bitwise(generator) -> None:
    data = json.loads(json.dumps(generator_to_dict(generator)))
    rebuilt = generator_from_dict(data)
    indices = np.arange(min(generator.domain_size, 256), dtype=np.uint64)
    assert np.array_equal(
        rebuilt.bits(indices), generator.bits(indices)
    ), type(generator).__name__


class TestGeneratorRoundTrip:
    @pytest.mark.parametrize("name", registered_schemes())
    def test_registered_kinds_roundtrip_bitwise(
        self, source: SeedSource, name: str
    ):
        """Every scheme in the registry round-trips bit-for-bit -- a new
        registration is covered here with no test edit."""
        spec = get_spec(name)
        _roundtrip_bitwise(spec.factory(_scheme_bits(name), source))

    def test_bch5_arithmetic_variant_roundtrips(self, source: SeedSource):
        # The registry factory draws the default (gf) cube; the
        # arithmetic variant shares the codec kind and must survive too.
        _roundtrip_bitwise(BCH5.from_source(10, source, mode="arithmetic"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="registered kinds"):
            generator_from_dict({"kind": "mystery"})

    def test_unsupported_generator_rejected(self):
        class Custom:
            pass

        with pytest.raises(TypeError):
            generator_to_dict(Custom())


class TestChannelRoundTrip:
    def test_dmap_channel(self, source: SeedSource):
        channel = DMAPChannel(DMAP.from_source(8, source))
        rebuilt = channel_from_dict(
            json.loads(json.dumps(channel_to_dict(channel)))
        )
        for bounds in ((0, 100), (37, 201)):
            assert rebuilt.interval(bounds) == channel.interval(bounds)
        for point in (0, 99, 255):
            assert rebuilt.point(point) == channel.point(point)

    def test_product_channels(self, source: SeedSource):
        product = ProductChannel(ProductGenerator.eh3((5, 5), source))
        rebuilt = channel_from_dict(channel_to_dict(product))
        assert rebuilt.point((3, 7)) == product.point((3, 7))
        rect = ((0, 10), (4, 21))
        assert rebuilt.interval(rect) == product.interval(rect)

        pdmap = ProductDMAPChannel(ProductDMAP.from_source((5, 5), source))
        rebuilt = channel_from_dict(channel_to_dict(pdmap))
        assert rebuilt.point((3, 7)) == pdmap.point((3, 7))

    def test_unknown_channel_kind(self):
        with pytest.raises(ValueError):
            channel_from_dict({"kind": "other"})


class TestSchemeAndSketch:
    def test_distributed_protocol(self, source: SeedSource):
        """The real use-case: coordinator ships the scheme, sites sketch,
        serialized sketches merge and estimate correctly."""
        scheme = SketchScheme.from_generators(
            lambda src: EH3.from_source(10, src), 3, 40, source
        )
        wire_scheme = json.dumps(scheme_to_dict(scheme))

        # Site A (separate process, reconstructs the scheme from JSON).
        site_scheme = scheme_from_dict(json.loads(wire_scheme))
        site_sketch = site_scheme.sketch()
        for point in (5, 5, 200):
            site_sketch.update_point(point)
        wire_sketch = json.dumps(sketch_to_dict(site_sketch))

        # Coordinator rebuilds the sketch AGAINST ITS OWN scheme object
        # and compares with a locally built one.
        received = sketch_from_dict(json.loads(wire_sketch), scheme=scheme)
        local = scheme.sketch()
        for point in (5, 5, 200):
            local.update_point(point)
        assert np.allclose(received.values(), local.values())
        # And the combined estimate works.
        probe = scheme.sketch()
        probe.update_point(5)
        # X = (2 xi_5 + xi_200) xi_5 = 2 + noise of sd 1/sqrt(averages).
        assert query.product(received, probe).value == pytest.approx(2.0, abs=0.6)

    def test_shape_mismatch_rejected(self, source: SeedSource):
        scheme = SketchScheme.from_generators(
            lambda src: EH3.from_source(8, src), 2, 2, source
        )
        data = sketch_to_dict(scheme.sketch())
        data["values"] = [[0.0]]
        with pytest.raises(ValueError):
            sketch_from_dict(data)

    def test_kind_tags_checked(self):
        with pytest.raises(ValueError):
            scheme_from_dict({"kind": "nope"})
        with pytest.raises(ValueError):
            sketch_from_dict({"kind": "nope"})


# One factory per supported channel kind: every registered generator
# scheme wrapped directly (derived from the registry, so a new
# registration is exercised automatically), the BCH5 arithmetic variant,
# DMAP, and the two d-dimensional products.
ALL_CHANNEL_FACTORIES = [
    *(
        (
            f"generator-{spec.name}",
            lambda src, spec=spec: GeneratorChannel(
                spec.factory(6 if spec.name == "rm7" else 8, src)
            ),
        )
        for spec in all_specs()
    ),
    ("generator-bch5-arith",
     lambda src: GeneratorChannel(BCH5.from_source(8, src, mode="arithmetic"))),
    ("dmap", lambda src: DMAPChannel(DMAP.from_source(8, src))),
    ("product",
     lambda src: ProductChannel(ProductGenerator.eh3((4, 4), src))),
    ("product-dmap",
     lambda src: ProductDMAPChannel(ProductDMAP.from_source((4, 4), src))),
]

_MULTIDIM = {"product", "product-dmap"}


def _exercise(name: str, sketch) -> None:
    """Stream a fixed workload appropriate to the channel's domain."""
    if name in _MULTIDIM:
        for point in ((3, 7), (0, 0), (15, 15), (3, 7)):
            sketch.update_point(point, 1.0)
        sketch.update_interval(((0, 10), (4, 15)), 2.0)
        sketch.update_point((9, 2), -1.0)
    else:
        for point in (5, 5, 17, 40, 63):
            sketch.update_point(point, 1.0)
        sketch.update_interval((3, 50), 2.0)
        sketch.update_point(11, -3.5)


class TestAllChannelKindsRoundTrip:
    @pytest.mark.parametrize(
        "name, factory", ALL_CHANNEL_FACTORIES, ids=[n for n, _ in
                                                     ALL_CHANNEL_FACTORIES]
    )
    def test_sketch_roundtrip_bitwise(self, source, name, factory):
        scheme = SketchScheme.from_factory(factory, 2, 6, source)
        sketch = scheme.sketch()
        _exercise(name, sketch)
        wire = json.loads(json.dumps(sketch_to_dict(sketch)))
        rebuilt = sketch_from_dict(wire)  # scheme reconstructed from wire
        assert np.array_equal(rebuilt.values(), sketch.values())
        # The self-join answer (the paper's F2 estimate) is bit-identical.
        assert (
            query.product(rebuilt, rebuilt).value
            == query.product(sketch, sketch).value
        )

    @pytest.mark.parametrize(
        "name, factory", ALL_CHANNEL_FACTORIES, ids=[n for n, _ in
                                                     ALL_CHANNEL_FACTORIES]
    )
    def test_scheme_fingerprint_stable_across_roundtrip(
        self, source, name, factory
    ):
        scheme = SketchScheme.from_factory(factory, 2, 3, source)
        rebuilt = scheme_from_dict(
            json.loads(json.dumps(scheme_to_dict(scheme)))
        )
        assert scheme_fingerprint(rebuilt) == scheme_fingerprint(scheme)


class TestWireIntegrity:
    def _sketch(self, source):
        scheme = SketchScheme.from_generators(
            lambda src: EH3.from_source(8, src), 2, 4, source
        )
        sketch = scheme.sketch()
        sketch.update_interval((0, 100), 1.0)
        return scheme, sketch

    def test_checksum_corruption_detected(self, source):
        _, sketch = self._sketch(source)
        data = sketch_to_dict(sketch)
        data["values"][0][0] += 1.0
        with pytest.raises(ValueError, match="checksum"):
            sketch_from_dict(data)

    def test_non_finite_counters_rejected(self, source):
        _, sketch = self._sketch(source)
        data = sketch_to_dict(sketch)
        data["values"][0][0] = float("nan")
        data["values"][1][2] = float("inf")
        data["checksum"] = values_checksum(data["values"])
        with pytest.raises(ValueError, match="2 non-finite"):
            sketch_from_dict(data)

    def test_fingerprint_mismatch_against_provided_scheme(self, source):
        scheme, sketch = self._sketch(source)
        other = SketchScheme.from_generators(
            lambda src: EH3.from_source(8, src), 2, 4, source
        )
        data = sketch_to_dict(sketch, include_scheme=False)
        with pytest.raises(ValueError, match="fingerprint"):
            sketch_from_dict(data, scheme=other)

    def test_scheme_fingerprint_tamper_detected(self, source):
        scheme, _ = self._sketch(source)
        data = scheme_to_dict(scheme)
        data["fingerprint"] = "0" * 64
        with pytest.raises(ValueError, match="fingerprint"):
            scheme_from_dict(data)

    def test_future_version_rejected(self, source):
        scheme, sketch = self._sketch(source)
        bad_scheme = scheme_to_dict(scheme)
        bad_scheme["version"] = SERIALIZE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            scheme_from_dict(bad_scheme)
        bad_sketch = sketch_to_dict(sketch)
        bad_sketch["version"] = SERIALIZE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            sketch_from_dict(bad_sketch)

    def test_v0_envelopes_still_accepted(self, source):
        # Pre-versioned payloads carry no version/checksum/fingerprint.
        scheme, sketch = self._sketch(source)
        data = sketch_to_dict(sketch)
        for key in ("version", "checksum", "fingerprint"):
            data.pop(key)
            data["scheme"].pop(key, None)
        rebuilt = sketch_from_dict(data)
        assert np.array_equal(rebuilt.values(), sketch.values())

    def test_missing_scheme_needs_argument(self, source):
        _, sketch = self._sketch(source)
        data = sketch_to_dict(sketch, include_scheme=False)
        with pytest.raises(ValueError, match="pass scheme="):
            sketch_from_dict(data)


class TestSerializeProperty:
    """deserialize(serialize(s)) answers queries bit-identically."""

    @settings(max_examples=30, deadline=None)
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),
                st.floats(
                    min_value=-1e6, max_value=1e6,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            max_size=30,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_roundtrip_answers_bit_identical(self, updates, seed):
        scheme = SketchScheme.from_generators(
            lambda src: EH3.from_source(8, src), 2, 4, SeedSource(seed)
        )
        sketch = scheme.sketch()
        for item, weight in updates:
            sketch.update_point(item, weight)
        wire = json.loads(json.dumps(sketch_to_dict(sketch)))
        rebuilt = sketch_from_dict(wire)
        assert np.array_equal(rebuilt.values(), sketch.values())
        probe = scheme.sketch()
        probe.update_interval((0, 128), 1.0)
        # Attach the probe to the *rebuilt* scheme: fingerprints agree
        # because the seed material is identical, so the receiver can
        # combine sketches deserialized from different messages.
        rebuilt_probe = sketch_from_dict(
            json.loads(json.dumps(sketch_to_dict(probe))),
            scheme=rebuilt.scheme,
        )
        assert (
            query.product(rebuilt, rebuilt_probe).value
            == query.product(sketch, probe).value
        )
