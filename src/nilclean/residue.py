"""Factored moduli and 2-3-smoothness for Z_m.

A modulus is carried together with its prime factorization, because the
factorization gates which constructive decompositions apply (only 2 and 3 may
occur as prime factors) and supplies the nilpotency-exponent bookkeeping.
Arithmetic on elements lives in ``matrix``: an element of Z_m or of
Z_m[x]/(x^d) is a 1 x 1 RingMatrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InputError, UnsupportedRingError

MAX_MODULUS = 2**31


@dataclass(frozen=True)
class Modulus:
    """A modulus m >= 2 together with its prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly ascending
    primes and exponents >= 1; their product must equal m.  The facts derived
    from them are computed on first read and kept: factorize caches one
    Modulus per m, so a certificate does not recompute them.
    """

    m: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not (2 <= self.m <= MAX_MODULUS):
            raise InputError(f"modulus must be in [2, 2^31], got {self.m}")
        prod = 1
        last_p = 0
        for p, e in self.factors:
            if p <= last_p:
                raise InputError("prime factors must be strictly ascending")
            if e < 1:
                raise InputError("prime exponents must be >= 1")
            prod *= p**e
            last_p = p
        if prod != self.m:
            raise InputError(f"factors {self.factors} do not multiply to {self.m}")

    @functools.cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @functools.cached_property
    def max_exponent(self) -> int:
        """Nilpotency exponent of the nilradical of Z_m."""
        return max(e for _, e in self.factors)

    @functools.cached_property
    def crt_basis(self) -> tuple[int, ...]:
        """The CRT idempotents c_q = (m/q) * ((m/q)^-1 mod q), one per prime
        power q = p^e of ``factors``: c_q is 1 mod q and 0 mod m/q, so every
        x in Z_m is the sum of c_q * (x mod q), mod m."""
        basis = []
        for p, e in self.factors:
            r = self.m // p**e
            basis.append(r * pow(r, -1, p**e))
        return tuple(basis)

    @functools.cached_property
    def two_three_smooth(self) -> bool:
        """True iff every prime factor is 2 or 3."""
        return all(p in (2, 3) for p in self.primes)

    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def __str__(self) -> str:
        return f"Z{self.m}"


@functools.lru_cache(maxsize=4096)
def factorize(m: int) -> Modulus:
    """Factor m by trial division and return the Modulus carrying the result."""
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
    return Modulus(m, tuple(factors))


def require_two_three_smooth(mod: Modulus) -> None:
    if not mod.two_three_smooth:
        bad = next(p for p in mod.primes if p not in (2, 3))
        raise UnsupportedRingError(
            f"modulus {mod.m} has prime factor {bad}; decompositions exist only "
            f"when every prime factor is 2 or 3 (e.g. 3 in Z5 is not a sum of "
            f"two idempotents and a nilpotent)"
        )


def lift_iteration_cap(radical_exponent: int) -> int:
    """The rounds after which a quadratically converging lift is exact, when
    its defect starts in a nilpotent ideal N with N^radical_exponent = 0: the
    least r with 2^r >= radical_exponent, 0 when N = 0.

    Each round of the cubic idempotent iteration x -> 3x^2 - 2x^3 squares the
    defect x^2 - x, so after r rounds it lies in N^(2^r).  Further rounds
    leave the exact idempotent fixed.
    """
    return (radical_exponent - 1).bit_length()
