"""Arithmetic in prime fields GF(p), with fast Mersenne-prime reduction.

Substrate of the polynomials-over-primes generating scheme (paper
Section 3.3): ``X_j = a_0 + a_1 j + ... + a_{k-1} j^{k-1} mod p`` with the
coefficients drawn uniformly from Z_p.  The classical implementation choice
-- also what the Massdal library the paper benchmarks does -- is the
Mersenne prime ``p = 2^31 - 1``, whose reduction needs only shifts and adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MERSENNE_31",
    "MERSENNE_61",
    "is_prime",
    "next_prime_at_least",
    "mersenne_exponent",
    "mod_mersenne31",
    "mod_mersenne31_array",
    "mod_mersenne_array",
    "mersenne_mulmod_array",
    "PrimeField",
    "prime_field",
]

#: The Mersenne prime 2^31 - 1, the scheme's standard modulus.
MERSENNE_31 = (1 << 31) - 1
#: The Mersenne prime 2^61 - 1, for domains wider than 31 bits.
MERSENNE_61 = (1 << 61) - 1

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-scale integers."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # This witness set is deterministic for n < 3.3 * 10^24.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_at_least(n: int) -> int:
    """Smallest prime ``>= n`` (the scheme requires ``p >= |domain|``)."""
    if n <= 2:
        return 2
    candidate = n | 1  # skip even numbers
    while not is_prime(candidate):
        candidate += 2
    return candidate


def mod_mersenne31(x: int) -> int:
    """Reduce a non-negative integer modulo 2^31 - 1 without division.

    Folds 31-bit limbs (``2^31 === 1 (mod p)``), the trick that makes the
    polynomials-over-primes scheme competitive in the paper's Table 1.
    """
    p = MERSENNE_31
    while x >> 31:
        x = (x & p) + (x >> 31)
    if x == p:
        x = 0
    return x


def mod_mersenne31_array(x: np.ndarray) -> np.ndarray:
    """Vectorized Mersenne-31 reduction of a ``uint64`` array.

    Valid for inputs below 2^62 (one product of two 31-bit values), which is
    exactly the range Horner evaluation produces.
    """
    return mod_mersenne_array(x, 31)


def mersenne_exponent(p: int) -> int | None:
    """``b`` when ``p == 2^b - 1``, else ``None``.

    The shift-add reduction below applies exactly to these moduli;
    :mod:`repro.sketch.kernels` uses this to decide whether a prime
    qualifies for the branch-free path.
    """
    b = p.bit_length()
    return b if p == (1 << b) - 1 else None


def mod_mersenne_array(x: np.ndarray, bits: int) -> np.ndarray:
    """Branch-free reduction of a ``uint64`` array modulo ``2^bits - 1``.

    ``2^bits === 1 (mod p)``, so folding the high limb onto the low one
    (``x -> (x & p) + (x >> bits)``) preserves the residue; two folds bring
    any ``uint64`` input under ``p + epsilon`` and one data-parallel select
    canonicalizes (Ahle/Knudsen/Thorup, arXiv 2008.08654).  No ``%``, no
    divisions, no per-element branches.
    """
    p = np.uint64((1 << bits) - 1)
    shift = np.uint64(bits)
    x = np.asarray(x, dtype=np.uint64)
    x = (x & p) + (x >> shift)
    x = (x & p) + (x >> shift)
    return np.where(x >= p, x - p, x)


def mersenne_mulmod_array(
    a: np.ndarray, b: np.ndarray, bits: int
) -> np.ndarray:
    """Branch-free ``a * b mod (2^bits - 1)`` over canonical uint64 arrays.

    Inputs must already be reduced (``< 2^bits - 1``).  For ``bits <= 31``
    the product fits ``uint64`` directly; for ``bits == 61`` the factors are
    split into 31/30-bit limbs so every partial product and the final fold
    input stay below 2^64 -- using ``2^62 === 2`` and
    ``2^31 * m === (m >> 30) + ((m & (2^30-1)) << 31) (mod 2^61 - 1)``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if bits <= 31:
        return mod_mersenne_array(a * b, bits)
    if bits != 61:
        raise ValueError(
            f"no uint64 limb decomposition for Mersenne exponent {bits}"
        )
    mask31 = np.uint64((1 << 31) - 1)
    mask30 = np.uint64((1 << 30) - 1)
    au = a >> np.uint64(31)  # < 2^30
    ad = a & mask31
    bu = b >> np.uint64(31)
    bd = b & mask31
    mid = ad * bu + au * bd  # < 2^62
    folded = (
        (au * bu) * np.uint64(2)
        + (mid >> np.uint64(30))
        + ((mid & mask30) << np.uint64(31))
        + ad * bd
    )  # < 2^63: safe input to the double fold
    return mod_mersenne_array(folded, 61)


@dataclass(frozen=True)
class PrimeField:
    """GF(p) with convenience polynomial evaluation helpers."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def _check(self, a: int) -> int:
        if not 0 <= a < self.p:
            raise ValueError(f"{a} is not an element of GF({self.p})")
        return a

    def add(self, a: int, b: int) -> int:
        """Field addition."""
        return (self._check(a) + self._check(b)) % self.p

    def sub(self, a: int, b: int) -> int:
        """Field subtraction."""
        return (self._check(a) - self._check(b)) % self.p

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        return self._check(a) * self._check(b) % self.p

    def pow(self, a: int, exponent: int) -> int:
        """Field exponentiation (supports negative exponents via inverse)."""
        self._check(a)
        return pow(a, exponent, self.p)

    def inverse(self, a: int) -> int:
        """Multiplicative inverse by Fermat's little theorem."""
        if self._check(a) == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.p}")
        return pow(a, self.p - 2, self.p)

    def eval_poly(self, coefficients: tuple[int, ...], x: int) -> int:
        """Horner evaluation of ``sum_k c_k x^k`` in GF(p).

        ``coefficients[k]`` is the coefficient of ``x^k`` -- the layout of
        the scheme's seed ``(a_0, ..., a_{k-1})``.
        """
        acc = 0
        for c in reversed(coefficients):
            acc = (acc * x + self._check(c)) % self.p
        return acc

    def eval_poly_array(
        self, coefficients: tuple[int, ...], xs: np.ndarray
    ) -> np.ndarray:
        """Vectorized Horner evaluation over an array of points.

        Mersenne moduli (2^b - 1 with b <= 31, or 2^61 - 1) stay entirely in
        ``uint64`` with branch-free fold reduction; other primes fall back to
        Python-int accumulation per Horner step.
        """
        xs = np.asarray(xs, dtype=np.uint64)
        exponent = mersenne_exponent(self.p)
        if exponent is not None and (exponent <= 31 or exponent == 61):
            xs = mod_mersenne_array(xs, exponent)
            acc = np.zeros_like(xs)
            for c in reversed(coefficients):
                acc = mod_mersenne_array(
                    mersenne_mulmod_array(acc, xs, exponent)
                    + np.uint64(self._check(c)),
                    exponent,
                )
            return acc
        acc = np.zeros(xs.shape, dtype=object)
        for c in reversed(coefficients):
            acc = (acc * xs.astype(object) + self._check(c)) % self.p
        return acc.astype(np.uint64)


@lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    """Cached :class:`PrimeField` instance for the modulus ``p``."""
    return PrimeField(p)
