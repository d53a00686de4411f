"""Distributed aggregation with serialized sketches (paper Section 2.1).

Sketches are linear, so distributed computation is: the coordinator fixes
a scheme (the seeds), ships it as JSON, every site sketches its local
tuples, ships its counters back, and the coordinator adds the sketches --
the sum IS the sketch of the union.  This demo simulates three sensor
sites estimating the size of join between their combined readings and a
reference relation, exchanging only bytes: the scheme as JSON text, the
counters in the typed envelope the cluster frames use (8 bytes per
counter, :func:`repro.stream.durability.encode_envelope`); the coordinator
answers through the typed query engine (:mod:`repro.query.engine`), so
the join size arrives as an :class:`~repro.query.types.Estimate` with
its confidence band.

Run:  python examples/distributed_sketching_demo.py
"""

from __future__ import annotations

import json

import numpy as np

from repro.generators import EH3, SeedSource
from repro.query import engine as query_engine
from repro.sketch.ams import SketchScheme
from repro.sketch.bulk import bulk_point_update
from repro.sketch.serialize import (
    scheme_from_dict,
    scheme_to_dict,
    sketch_from_dict,
    sketch_to_dict,
)
from repro.stream.durability import decode_envelope, encode_envelope
from repro.stream.exact import join_size

DOMAIN_BITS = 12
MEDIANS = 7
AVERAGES = 150
SITES = 3


def site_process(wire_scheme: str, readings: np.ndarray) -> bytes:
    """What each site runs: rebuild the scheme, sketch, serialize."""
    scheme = scheme_from_dict(json.loads(wire_scheme))
    sketch = scheme.sketch()
    bulk_point_update(sketch, readings.astype(np.uint64))
    # Values only: the coordinator already holds the seeds.
    return encode_envelope(sketch_to_dict(sketch, include_scheme=False))


def main() -> None:
    rng = np.random.default_rng(31)
    domain = 1 << DOMAIN_BITS

    # Coordinator: fix the seeds once and serialize them.
    source = SeedSource(2006)
    scheme = SketchScheme.from_generators(
        lambda src: EH3.from_source(DOMAIN_BITS, src),
        MEDIANS,
        AVERAGES,
        source,
    )
    wire_scheme = json.dumps(scheme_to_dict(scheme))
    print(
        f"coordinator: scheme of {scheme.counters} counters serialized to "
        f"{len(wire_scheme):,} bytes of JSON"
    )

    # Sites: each observes a private slice of the readings.
    site_readings = [
        rng.integers(0, domain, size=100_000) for _ in range(SITES)
    ]
    wire_sketches = [
        site_process(wire_scheme, readings) for readings in site_readings
    ]
    sizes = ", ".join(f"{len(w):,}" for w in wire_sketches)
    print(f"sites: {SITES} sketches shipped back ({sizes} bytes)")

    # Coordinator: merge (sum) the site sketches.
    merged = sketch_from_dict(decode_envelope(wire_sketches[0]), scheme=scheme)
    for wire in wire_sketches[1:]:
        merged = merged.combined(
            sketch_from_dict(decode_envelope(wire), scheme=scheme)
        )

    # Reference relation known at the coordinator.
    reference = rng.integers(0, domain, size=50_000)
    reference_sketch = scheme.sketch()
    bulk_point_update(reference_sketch, reference.astype(np.uint64))

    all_readings = np.concatenate(site_readings)
    truth = join_size(
        np.bincount(all_readings, minlength=domain).astype(float),
        np.bincount(reference, minlength=domain).astype(float),
    )
    answer = query_engine.join_size(merged, reference_sketch)
    estimate = answer.value
    half = (answer.ci_high - answer.ci_low) / 2.0
    print(f"\ntrue |readings join reference| = {truth:,.0f}")
    print(f"estimate from merged sketches  = {estimate:,.1f} +/- {half:,.1f}")
    print(f"relative error                 = {abs(estimate - truth) / truth:.2%}")
    print(
        f"\ncommunication: {sum(len(w) for w in wire_sketches):,} bytes vs "
        f"{4 * len(all_readings):,} bytes to ship the raw readings"
    )


if __name__ == "__main__":
    main()
