"""Factored moduli, the facts a ring of entries derives from them, and the
element-level facts of Z_m and Z_m[x]/(x^d) checked on 1 x 1 matrices: an
element is a 1 x 1 RingMatrix."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_moduli
from nilclean.decompose import _lift_idempotents, decompose_triangular
from nilclean.errors import InputError, ResourceCapError, UnsupportedRingError
from nilclean.matrix import MatrixRing, RingMatrix, _min_exponent, zm_ring
from nilclean.residue import factorize


def elem(a, m):
    """The residue a as a 1 x 1 matrix over Z_m."""
    return RingMatrix.from_rows([[a]], zm_ring(m))


def poly(coeffs, m):
    """The truncated polynomial with these coefficients, x^len(coeffs) = 0."""
    return RingMatrix.from_rows([[list(coeffs)]], MatrixRing(m, len(coeffs)))


def value(x):
    (row,) = x.to_rows()
    return row[0]


def exponent(x):
    """The minimal exponent of x, or None, as verify_certificate finds it."""
    return _min_exponent(x.coeffs, x.ring.m, x.ring.nilpotency_bound(x.n))


def lift(x):
    """_lift_idempotents on x, as _parts calls it: the ring's lift rounds."""
    ring = x.ring
    return RingMatrix(ring, _lift_idempotents(x.coeffs[None], ring.m, ring.lift_rounds)[0])


class TestFactorize:
    def test_examples(self):
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(2) == ((2, 1),)
        assert factorize(36) == ((2, 2), (3, 2))

    def test_out_of_range(self):
        for bad in (1, 0, -6, 2**31 + 1):
            with pytest.raises(InputError, match=r"modulus must be an integer in \[2, 2\^31\]"):
                factorize(bad)
            with pytest.raises(InputError, match=r"modulus must be an integer in \[2, 2\^31\]"):
                MatrixRing(bad)

    @given(st.integers(min_value=2, max_value=10**6))
    def test_roundtrip_and_primality(self, m):
        factors = factorize(m)
        assert math.prod(p**e for p, e in factors) == m
        for p, _ in factors:
            assert p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def naive_factors(m):
    """The (prime, exponent) pairs of m, dividing by every k >= 2 in turn."""
    factors, k = [], 2
    while m > 1:
        if k * k > m:
            return factors + [(m, 1)]
        e = 0
        while m % k == 0:
            m, e = m // k, e + 1
        if e:
            factors.append((k, e))
        k += 1
    return factors


def _facts(ring):
    return ring.primes, ring.max_exponent, ring.lift_rounds, ring.crt_basis, ring.two_three_smooth


class TestCachedFacts:
    def test_equal_a_fresh_computation(self):
        """For every m <= 10^4, and at 2^31 - 1 and 2^31, the facts of
        MatrixRing(m) and MatrixRing(m, 2) equal what a naive factorization
        gives: the lift rounds are the least r with 2^r >= the largest
        exponent, c_q is 1 mod q and 0 mod m/q, and the c_q sum to 1 mod m."""
        for m in [*range(2, 10**4 + 1), 2**31 - 1, 2**31]:
            ring, factors = MatrixRing(m), naive_factors(m)
            assert ring.primes == tuple(p for p, _ in factors)
            assert ring.max_exponent == max(e for _, e in factors)
            assert ring.lift_rounds == next(r for r in range(32) if 2**r >= ring.max_exponent)
            rest = m
            for p in (2, 3):
                while rest % p == 0:
                    rest //= p
            assert ring.two_three_smooth == (rest == 1)
            assert len(ring.crt_basis) == len(factors)
            for (p, e), c in zip(factors, ring.crt_basis):
                q = p**e
                assert 0 <= c < m and c % q == 1 and c % (m // q) == 0
            assert sum(ring.crt_basis) % m == 1
            trunc = MatrixRing(m, 2)
            assert _facts(trunc) == _facts(ring)

    def test_kept_after_the_first_read(self):
        for m, d in ((2, 1), (72, 2), (2**31 - 1, 1), (2**31, 64)):
            ring = MatrixRing(m, d)
            facts = _facts(ring)
            assert all(x is y for x, y in zip(_facts(ring), facts))

    def test_compares_and_hashes_by_m_and_d(self):
        ring, twin = MatrixRing(72, 2), MatrixRing(72, 2)
        _facts(ring)  # facts read on one of them only
        assert ring == twin and hash(ring) == hash(twin) and ring is not twin
        assert {ring: "x"}[twin] == "x"
        assert MatrixRing(6) == MatrixRing(6, 1) == zm_ring(6)
        rings = [MatrixRing(m, d) for m in (6, 12) for d in (1, 2) for _ in range(2)]
        assert len(set(rings)) == 4
        assert len({(r.m, r.d) for r in rings}) == 4
        assert MatrixRing(6, 2) != MatrixRing(6) and MatrixRing(6) != MatrixRing(12)

    def test_degree_refused_at_construction(self):
        for d in (0, -1):
            with pytest.raises(InputError, match="truncation degree must be >= 1"):
                MatrixRing(6, d)
        with pytest.raises(ResourceCapError, match="truncation degree 65 is over the cap 64"):
            MatrixRing(6, 65)


class TestSmoothness:
    def test_examples(self):
        assert MatrixRing(36).two_three_smooth
        assert not MatrixRing(5).two_three_smooth
        assert MatrixRing(6).two_three_smooth

    def test_against_direct_division(self):
        for m in range(2, 500):
            n = m
            for p in (2, 3):
                while n % p == 0:
                    n //= p
            assert MatrixRing(m).two_three_smooth == (n == 1)

    def test_enumerator(self):
        assert smooth_moduli(200) == [m for m in range(2, 201) if MatrixRing(m).two_three_smooth]


def crt_roundtrip(a, m):
    """a mod each prime power of m, recombined through the CRT idempotents."""
    basis = MatrixRing(m).crt_basis
    return sum(c * (a % p**e) for (p, e), c in zip(factorize(m), basis)) % m


class TestCrt:
    def test_examples(self):
        assert MatrixRing(12).crt_basis == (9, 4)
        assert MatrixRing(72).crt_basis == (9, 64)
        assert MatrixRing(8).crt_basis == (1,)
        assert crt_roundtrip(7, 12) == 7 and crt_roundtrip(0, 6) == 0

    def test_orthogonal_idempotents(self):
        # c_q c_r = 0 for q != r, c_q^2 = c_q, and the c_q sum to 1, mod m
        for m in range(2, 201):
            basis = MatrixRing(m).crt_basis
            assert sum(basis) % m == 1 % m
            for i, x in enumerate(basis):
                for j, y in enumerate(basis):
                    assert x * y % m == (x if i == j else 0)

    def test_roundtrip_exhaustive_small(self):
        # every residue of every m <= 200
        for m in range(2, 201):
            for a in range(m):
                assert crt_roundtrip(a, m) == a

    @given(st.integers(min_value=2, max_value=2**31), st.integers(min_value=0, max_value=2**31))
    def test_roundtrip_random(self, m, a):
        assert crt_roundtrip(a, m) == a % m


class TestClassify:
    def test_examples(self):
        four = elem(4, 12)
        assert four @ four == four
        assert exponent(four) is None
        six = elem(6, 12)
        assert exponent(six) == 2 and six @ six != six
        one = elem(1, 60)
        assert one @ one == one and exponent(one) is None

    def test_nilpotent_iff_power_m_vanishes(self):
        # brute-force cross-check a^m = 0 for every m and residue
        for m in range(2, 1001):
            for a in range(m):
                present = exponent(elem(a, m)) is not None
                assert present == (pow(a, m, m) == 0)

    def test_exponent_minimality(self):
        for m in range(2, 150):
            for a in range(m):
                k = exponent(elem(a, m))
                if k is not None:
                    assert pow(a, k, m) == 0
                    assert k == 1 or pow(a, k - 1, m) != 0

    def test_unit_and_nilpotent_exclusive(self):
        for m in (2, 4, 12, 36, 90):
            for a in range(m):
                assert not (math.gcd(a, m) == 1 and exponent(elem(a, m)) is not None)


class TestLiftIdempotent:
    def test_examples(self):
        assert value(lift(elem(3, 4))) == 1
        assert value(lift(elem(0, 9))) == 0
        assert value(lift(elem(4, 12))) == 4

    def test_exhaustive_prime_powers(self):
        for m in (4, 8, 16, 27, 64, 81, 72, 36):
            primes = MatrixRing(m).primes
            for x in range(m):
                if exponent(elem(x * x - x, m)) is None:
                    continue  # not idempotent mod some p | m: no lift
                e = value(lift(elem(x, m)))
                assert e * e % m == e
                # fixed point of the iteration itself
                assert (3 * e**2 - 2 * e**3) % m == e
                for p in primes:
                    assert e % p == x % p


class TestStrongDecompose:
    @staticmethod
    def parts(a, m):
        cert = decompose_triangular(elem(a, m))
        return tuple(value(x) for x in (cert.e, cert.f, cert.w))

    def test_examples(self):
        assert self.parts(5, 6) == (1, 4, 0)
        assert self.parts(0, 12) == (0, 0, 0)
        assert self.parts(2, 9) == (1, 1, 0)

    def test_unsupported_modulus(self):
        with pytest.raises(UnsupportedRingError):
            decompose_triangular(elem(3, 5))
        with pytest.raises(UnsupportedRingError):
            decompose_triangular(elem(1, 10))

    def test_exhaustive_smooth_up_to_200(self):
        for m in smooth_moduli(200):
            for a in range(m):
                e, f, w = self.parts(a, m)
                assert e * e % m == e
                assert f * f % m == f
                assert exponent(elem(w, m)) is not None
                assert (e + f + w) % m == a

    def test_matches_brute_force_feasibility(self):
        # decomposability of every element is equivalent to 2-3-smoothness
        for m in range(2, 60):
            idem = [x for x in range(m) if x * x % m == x]
            nil = {x for x in range(m) if pow(x, m, m) == 0}
            all_decomposable = all(
                any((a - e - f) % m in nil for e in idem for f in idem) for a in range(m)
            )
            assert all_decomposable == MatrixRing(m).two_three_smooth


class TestTruncPoly:
    def test_truncating_product(self):
        assert value(poly((1, 1), 3) @ poly((1, 2), 3)) == [1, 0]

    def test_nilpotent_generator(self):
        x = poly((0, 1, 0), 2)
        assert exponent(x) == 3 and x @ x != x

    def test_unit_with_char_two(self):
        u = poly((1, 1), 2)
        assert u @ u == RingMatrix.identity(1, u.ring)
        assert value(u @ u) == [1, 0]

    def test_mismatched_rings_rejected(self):
        a = poly((1, 0), 2)
        b = poly((1, 0, 0), 2)
        c = poly((1, 0), 3)
        for other in (b, c):
            with pytest.raises(InputError):
                _ = a + other

    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    @settings(max_examples=60)
    def test_ring_axioms(self, m, d, data):
        coeff = st.tuples(*[st.integers(0, m - 1)] * d)
        a, b, c = (poly(data.draw(coeff), m) for _ in range(3))
        assert a + b == b + a
        assert a @ b == b @ a
        assert (a + b) @ c == a @ c + b @ c
        assert (a @ b) @ c == a @ (b @ c)
        assert a + RingMatrix(a.ring, -a.coeffs % m) == RingMatrix.zeros(1, a.ring)

    def test_classify_unit_iff_constant_unit(self):
        ring = MatrixRing(6, 2)
        one = RingMatrix.identity(1, ring)
        elements = [poly((c0, c1), 6) for c0 in range(6) for c1 in range(6)]
        for f in elements:
            c0 = value(f)[0]
            is_unit = any(f @ g == one for g in elements)
            assert is_unit == (math.gcd(c0, 6) == 1)
            assert (exponent(f) is not None) == (c0 % 2 == 0 and c0 % 3 == 0)
