"""The packed-plane primitive kernels.

The packed counter planes of :mod:`repro.sketch.plane` spend all their
time in three primitives, each a plain function here:

* :func:`parity_kernel` -- the bit-sliced GF(2) dot products
  ``parity(seed_c & i)`` accumulated across every counter of a grid;
* :func:`bit_sums` -- the signed-histogram finisher
  ``sum_p u_p * bit_c(p)`` that turns packed sign bits back into
  per-counter totals;
* :func:`poly_sign_kernel` -- the polynomials-over-primes evaluation
  ``LSB(poly_c(i) mod p)``.

Two observations let the bit-sliced pass trade arithmetic for memory:

* **Parity by byte lookup.**  The per-bit reference pass runs one
  whole-batch word pass per seed *bit* (~20 passes for a 20-bit domain).
  But the XOR contribution of 8 index bits at a time is a function of one
  index *byte*, so precombining the seed table into per-byte lookup
  tables (``(256, words)`` XOR-accumulated rows) turns the pass into one
  gather per index byte -- ~3 passes for 20-bit domains, identical output.

* **Counting by vertical addition.**  The unweighted sign-bit totals are
  popcounts down each packed column.  A carry-save adder tree maps three
  weight-``w`` rows to one weight-``w`` sum row and one weight-``2w``
  carry row; repeating leaves ``O(log batch)`` rows to unpack instead of
  ``batch``.  Counts are exact integers either way, so totals stay
  bit-identical to the byte-histogram finisher.

Each primitive picks its path from the input alone (seed-table width,
batch size, grid width, whether weights are given, whether the prime is
Mersenne).  The per-bit functions (:func:`packed_linear_parity`,
:func:`unweighted_bit_sums`, :func:`weighted_bit_sums`,
:func:`generic_poly_residues`) are the references the differential tests
in ``tests/test_backends.py`` compare every path against.  All paths are
bit-identical for integer weights: every intermediate is an exact
float64 integer.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.primefield import (
    mersenne_exponent,
    mersenne_mulmod_array,
    mod_mersenne_array,
)

__all__ = [
    "parity_kernel",
    "bit_sums",
    "poly_sign_kernel",
    "pack_counter_bits",
    "unpack_counter_bits",
    "packed_linear_parity",
    "unweighted_bit_sums",
    "weighted_bit_sums",
    "generic_poly_residues",
    "SMALL_BATCH",
]

#: ``_BYTE_BITS[v, k]`` is bit ``k`` of byte value ``v`` -- the unpacking
#: matrix of the per-byte histogram finisher.
_BYTE_BITS = (
    (
        np.arange(256, dtype=np.int64)[:, np.newaxis]
        >> np.arange(8, dtype=np.int64)[np.newaxis, :]
    )
    & 1
).astype(np.float64)

#: Batches at or below this size unpack sign bits directly: the histogram
#: (or adder-tree) set-up costs more than the counters themselves.
SMALL_BATCH = 32

#: Below this many seed bits the per-bit pass beats building (and
#: gathering from) the byte lookup tables.
_MIN_TABLE_BITS = 9


def pack_counter_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(L, C)`` 0/1 matrix into ``(L, ceil(C / 64))`` words.

    Column ``c`` lands in bit ``c & 63`` of word ``c >> 6`` -- the
    counter layout every plane seed table and every kernel uses.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("bits must be a 2-D (levels, counters) matrix")
    levels, counters = bits.shape
    words = (counters + 63) // 64
    octets = np.zeros((levels, words * 8), dtype=np.uint8)
    octets[:, : (counters + 7) // 8] = np.packbits(
        bits != 0, axis=1, bitorder="little"
    )
    return octets.view("<u8").astype(np.uint64)


def unpack_counter_bits(packed: np.ndarray, counters: int) -> np.ndarray:
    """Unpack ``(rows, words)`` packed words into ``(rows, counters)`` 0/1.

    The inverse of :func:`pack_counter_bits` along the counter axis, with
    the byte order spelled out: each word is read as little-endian bytes
    and each byte least-significant bit first, so column ``c`` is bit
    ``c & 63`` of word ``c >> 6`` on any host.
    """
    octets = np.ascontiguousarray(packed, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, bitorder="little")[..., :counters]


# ---------------------------------------------------------------------------
# GF(2) parities.
# ---------------------------------------------------------------------------


def packed_linear_parity(indices: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``acc[p] = XOR_j (-(bit_j(indices[p]))) & table[j]`` -- packed parities.

    Returns the ``(batch, words)`` matrix whose bit ``c`` is
    ``parity(seed_c & indices[p])`` for the seeds packed into ``table``.
    """
    lane = np.empty(indices.size, dtype=np.uint64)
    one = np.uint64(1)
    if table.shape[1] == 1:
        # Single-word grids stay 1-D: multiplying the 0/1 lane by the
        # seed word selects it per element without any broadcasting.
        acc = np.zeros(indices.size, dtype=np.uint64)
        # The per-seed-bit loop IS the bit-sliced algorithm.
        # repro: allow[R006] each pass is one whole-batch word operation
        for j in range(table.shape[0]):
            row = table[j, 0]
            if not row:
                continue
            np.right_shift(indices, np.uint64(j), out=lane)
            np.bitwise_and(lane, one, out=lane)
            np.multiply(lane, row, out=lane)
            np.bitwise_xor(acc, lane, out=acc)
        return acc[:, np.newaxis]
    acc = np.zeros((indices.size, table.shape[1]), dtype=np.uint64)
    masked = np.empty_like(acc)
    # repro: allow[R006] per-seed-bit loop over whole-batch word passes
    for j in range(table.shape[0]):
        row = table[j]
        if not row.any():
            continue
        np.right_shift(indices, np.uint64(j), out=lane)
        np.bitwise_and(lane, one, out=lane)
        np.multiply(lane[:, np.newaxis], row[np.newaxis, :], out=masked)
        np.bitwise_xor(acc, masked, out=acc)
    return acc


def build_byte_tables(table: np.ndarray) -> np.ndarray:
    """Per-byte XOR lookup tables for a packed ``(n_bits, words)`` seed table.

    Entry ``[b, v]`` is the XOR of the seed-table rows selected by the bits
    of byte value ``v`` placed at index bits ``8b .. 8b+7``, so a parity
    pass needs one gather per index byte.
    """
    n_bits, words = table.shape
    n_bytes = (n_bits + 7) // 8
    chunks = np.zeros((n_bytes, 256, words), dtype=np.uint64)
    values = np.arange(256, dtype=np.uint64)
    # repro: allow[R006] table build: one pass per seed bit, once per grid, never on the batch path
    for j in range(n_bits):
        selected = ((values >> np.uint64(j & 7)) & np.uint64(1)).astype(bool)
        chunks[j >> 3, selected] ^= table[j]
    return chunks


def tabulated_parity(
    indices: np.ndarray, chunks: np.ndarray
) -> np.ndarray:
    """One gather per index byte through precombined XOR tables."""
    acc = chunks[0, (indices & np.uint64(0xFF)).astype(np.intp)]
    # repro: allow[R006] per-index-byte loop: each pass gathers the whole batch through one table
    for b in range(1, chunks.shape[0]):
        sub = (indices >> np.uint64(8 * b)) & np.uint64(0xFF)
        np.bitwise_xor(acc, chunks[b, sub.astype(np.intp)], out=acc)
    return acc


def parity_kernel(table: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Build ``fn(indices) -> (batch, words)`` packed parities.

    ``table`` is an ``(n_bits, words)`` bit-sliced seed matrix; bit ``c``
    of ``fn(i)[p]`` is ``parity(seed_c & indices[p])``.  The lookup
    tables are built here, once per grid, outside the batch path; seed
    tables narrower than :data:`_MIN_TABLE_BITS` bits keep the per-bit
    pass.
    """
    if table.shape[0] < _MIN_TABLE_BITS:

        def narrow(indices: np.ndarray) -> np.ndarray:
            return packed_linear_parity(indices, table)

        return narrow
    chunks = build_byte_tables(table)

    def kernel(indices: np.ndarray) -> np.ndarray:
        return tabulated_parity(indices, chunks)

    return kernel


# ---------------------------------------------------------------------------
# Signed bit sums.
# ---------------------------------------------------------------------------


def small_batch_bit_sums(
    packed: np.ndarray, u: Optional[np.ndarray]
) -> np.ndarray:
    """Direct unpack-and-contract for tiny batches."""
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((packed[:, :, np.newaxis] >> shifts) & np.uint64(1)).astype(
        np.float64
    )
    if u is None:
        return bits.sum(axis=0, dtype=np.float64).ravel()
    return np.tensordot(u, bits, axes=1).ravel()


def weighted_bit_sums(packed: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``out[c] = sum_p u[p] * bit_c(packed[p])`` via per-byte histograms."""
    batch, words = packed.shape
    out = np.zeros(words * 64, dtype=np.float64)
    if batch == 0:
        return out
    if batch <= SMALL_BATCH:
        return small_batch_bit_sums(packed, u)
    byte = np.uint64(0xFF)
    # repro: allow[R006] per-word/per-byte loop over whole-batch bincounts
    for w in range(words):
        column = packed[:, w]
        for k in range(8):
            values = ((column >> np.uint64(8 * k)) & byte).astype(np.int64)
            histogram = np.bincount(values, weights=u, minlength=256)
            base = w * 64 + k * 8
            out[base : base + 8] = histogram @ _BYTE_BITS
    return out


def unweighted_bit_sums(packed: np.ndarray) -> np.ndarray:
    """All-ones-batch bit sums via integer byte histograms.

    Skips the float weight gather of :func:`weighted_bit_sums`; counts are
    exact integers either way, so the two paths agree bit for bit.
    """
    batch, words = packed.shape
    out = np.zeros(words * 64, dtype=np.float64)
    if batch == 0:
        return out
    if batch <= SMALL_BATCH:
        return small_batch_bit_sums(packed, None)
    byte = np.uint64(0xFF)
    # repro: allow[R006] per-word/per-byte loop over whole-batch bincounts
    for w in range(words):
        column = packed[:, w]
        for k in range(8):
            values = ((column >> np.uint64(8 * k)) & byte).astype(np.int64)
            histogram = np.bincount(values, minlength=256).astype(np.float64)
            base = w * 64 + k * 8
            out[base : base + 8] = histogram @ _BYTE_BITS
    return out


def vertical_bit_counts(packed: np.ndarray) -> np.ndarray:
    """Exact per-column popcounts via a carry-save adder tree.

    Rows of equal weight (initially all weight 1) are compressed with
    full adders -- three rows become one same-weight sum (``a ^ b ^ c``)
    and one doubled-weight carry (``majority(a, b, c)``) -- so each
    weight level holds roughly half the rows of the one below; the last
    row per weight is unpacked and scaled by ``2^level``.  Total work is
    O(batch) word operations, counts are exact integers, identical to
    the histogram path.
    """
    words = packed.shape[1]
    out = np.zeros(words * 64, dtype=np.float64)
    shifts = np.arange(64, dtype=np.uint64)
    rows = packed
    level = 0
    # repro: allow[R006] adder-tree reduction: each pass compresses the whole batch 3 rows at a time
    while rows.shape[0]:
        carries: list[np.ndarray] = []
        while rows.shape[0] >= 3:
            usable = rows.shape[0] // 3 * 3
            triples = rows[:usable].reshape(-1, 3, words)
            a = triples[:, 0]
            b = triples[:, 1]
            c = triples[:, 2]
            partial = a ^ b
            carries.append((a & b) | (c & partial))
            sums = partial ^ c
            if rows.shape[0] != usable:
                sums = np.concatenate([sums, rows[usable:]], axis=0)
            rows = sums
        if rows.shape[0] == 2:
            carry = rows[0] & rows[1]
            if carry.any():
                carries.append(carry[np.newaxis, :])
            rows = (rows[0] ^ rows[1])[np.newaxis, :]
        bits = ((rows[0][:, np.newaxis] >> shifts) & np.uint64(1)).astype(
            np.float64
        )
        out += np.ldexp(bits, level).ravel()
        rows = (
            np.concatenate(carries, axis=0)
            if carries
            else np.empty((0, words), dtype=np.uint64)
        )
        level += 1
    return out


#: ``0x01`` in every byte of a word: one counting lane per byte.
_BYTE_LANES = np.uint64(0x0101010101010101)
_LANE_SHIFTS = np.arange(8, dtype=np.uint64)[:, np.newaxis, np.newaxis]
#: Most rows the byte-lane count takes: a byte lane holds counts up to 255.
_LANE_ROWS = 255


def lane_bit_counts(packed: np.ndarray) -> np.ndarray:
    """Exact per-column popcounts of up to 255 rows by byte lanes.

    ``(word >> k) & 0x0101..01`` leaves bit ``8b + k`` alone in byte
    ``b``; adding up to 255 such words never carries out of a byte, so
    one uint64 sum counts eight columns at once.  Eight shifts cover a
    word, and the byte-lane sums unpack by a little-endian byte view.
    Returns ``words * 64`` float64 counts (exact integers).
    """
    words = packed.shape[1]
    # Shift outermost, so each pass runs over contiguous (rows, words).
    lanes = packed[np.newaxis] >> _LANE_SHIFTS
    lanes &= _BYTE_LANES
    sums = np.add.reduce(lanes, axis=1, dtype=np.uint64)  # (shift, word)
    octets = sums.astype("<u8").view(np.uint8).reshape(8, words, 8)
    return octets.transpose(1, 2, 0).reshape(words * 64).astype(np.float64)


def bit_sums(packed: np.ndarray, weights: Optional[np.ndarray]) -> np.ndarray:
    """``out[c] = sum_p w_p * bit_c(packed[p])`` over a packed batch.

    ``weights`` is a float64 batch vector, or ``None`` for an all-ones
    batch (the common unweighted point path, counted exactly: direct
    unpacking up to 32 rows, byte lanes up to 255, then byte histograms
    on one-word grids and a carry-save adder tree on wider ones).
    Returns ``words * 64`` float64 sums.
    """
    if weights is not None:
        return weighted_bit_sums(packed, weights)
    if packed.shape[0] <= SMALL_BATCH:
        return small_batch_bit_sums(packed, None)
    if packed.shape[0] <= _LANE_ROWS:
        return lane_bit_counts(packed)
    if packed.shape[1] == 1:
        # Single-word grids: one byte histogram per shift already
        # beats the adder tree's per-level unpacking.
        return unweighted_bit_sums(packed)
    return vertical_bit_counts(packed)


# ---------------------------------------------------------------------------
# Polynomial signs.
# ---------------------------------------------------------------------------


def mersenne_poly_residues(
    points: np.ndarray, coefficients: np.ndarray, exponent: int
) -> np.ndarray:
    """Canonical Horner residues ``poly_c(points) mod (2^exponent - 1)``.

    Branch-free shift-add folding throughout: each Horner step is one
    limb-split modular multiply plus one fold, all canonical, so the result
    matches the scalar ``PrimeField.eval_poly`` exactly.  Returns a
    ``(counters, batch)`` uint64 matrix.
    """
    xs = mod_mersenne_array(points, exponent)[np.newaxis, :]
    acc = np.zeros((coefficients.shape[0], points.size), dtype=np.uint64)
    # repro: allow[R006] Horner recurrence: one whole-batch pass per degree
    for k in range(coefficients.shape[1] - 1, -1, -1):
        acc = mod_mersenne_array(
            mersenne_mulmod_array(acc, xs, exponent)
            + coefficients[:, k : k + 1],
            exponent,
        )
    return acc


def generic_poly_residues(
    points: np.ndarray, coefficients: np.ndarray, p: int
) -> np.ndarray:
    """Horner residues for a non-Mersenne prime (exact, object-dtype).

    The test grids use small research primes (17, 2053, ...) that have no
    shift-add reduction, so the canonical ``%`` is the honest
    implementation here.
    """
    obj = points.astype(object) % p  # repro: allow[R006] non-Mersenne modulus
    acc = np.zeros(
        (coefficients.shape[0], points.size), dtype=object
    )
    # repro: allow[R006] Horner recurrence over an object-dtype batch
    for k in range(coefficients.shape[1] - 1, -1, -1):
        # repro: allow[R006] non-Mersenne modulus: no shift-add reduction
        acc = (acc * obj + coefficients[:, k : k + 1].astype(object)) % p
    return acc.astype(np.uint64)


def poly_sign_kernel(
    coefficients: np.ndarray, p: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Build ``fn(points) -> (batch, words)`` packed polynomial LSBs.

    ``coefficients`` is a ``(counters, k)`` uint64 matrix of polynomial
    coefficients mod ``p``; bit ``c`` of ``fn(points)[j]`` is
    ``poly_c(points[j]) mod p & 1`` with the reduction canonical (in
    ``[0, p)``).  Mersenne moduli up to ``2^31 - 1`` and ``2^61 - 1``
    reduce branch-free; any other prime takes the exact object-dtype
    route.
    """
    exponent = mersenne_exponent(p)
    if exponent is not None and (exponent <= 31 or exponent == 61):
        mersenne_bits = int(exponent)

        def kernel(points: np.ndarray) -> np.ndarray:
            residues = mersenne_poly_residues(
                points, coefficients, mersenne_bits
            )
            return pack_counter_bits((residues & np.uint64(1)).T)

        return kernel

    def generic(points: np.ndarray) -> np.ndarray:
        residues = generic_poly_residues(points, coefficients, p)
        return pack_counter_bits((residues & np.uint64(1)).T)

    return generic
