"""Factoring moduli, and the round count of the idempotent lift.

factorize(m) gives the (prime, exponent) pairs of m, cached per m; the ring
of matrix entries, matrix.MatrixRing, keeps the facts derived from them
(primes, largest exponent, CRT idempotents, 2-3-smoothness), and the
classifier reads the largest exponent for its nilpotency bounds.  Arithmetic
on elements lives in ``matrix``: an element of Z_m or of Z_m[x]/(x^d) is a
1 x 1 RingMatrix.
"""

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


def lift_iteration_cap(radical_exponent: int) -> int:
    """The rounds after which a quadratically converging lift is exact, when
    its defect starts in a nilpotent ideal N with N^radical_exponent = 0: the
    least r with 2^r >= radical_exponent, 0 when N = 0.

    Each round of the cubic idempotent iteration x -> 3x^2 - 2x^3 squares the
    defect x^2 - x, so after r rounds it lies in N^(2^r).  Further rounds
    leave the exact idempotent fixed.
    """
    return (radical_exponent - 1).bit_length()
