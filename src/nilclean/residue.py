"""Factoring moduli: factorize(m), the (prime, exponent) pairs of m, cached
per m.  The ring of entries, matrix.MatrixRing, derives its facts from them,
and the classifier its nilpotency bounds."""

from __future__ import annotations

import functools

from .errors import InputError

MAX_MODULUS = 2**31


@functools.lru_cache(maxsize=4096)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of m, primes ascending, by trial division."""
    if not isinstance(m, int) or not (2 <= m <= MAX_MODULUS):
        raise InputError(f"modulus must be an integer in [2, 2^31], got {m!r}")
    n = m
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)
