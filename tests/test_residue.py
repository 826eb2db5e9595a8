"""Factored moduli and smoothness, and the element-level facts of Z_m and
Z_m[x]/(x^d) checked on 1 x 1 matrices: an element is a 1 x 1 RingMatrix."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_moduli
from nilclean.decompose import _lift_idempotent_matrix, decompose_triangular
from nilclean.errors import DomainError, InputError, UnsupportedRingError
from nilclean.matrix import MatrixRing, RingMatrix, zm_ring
from nilclean.residue import Modulus, factorize


def elem(a, m):
    """The residue a as a 1 x 1 matrix over Z_m."""
    return RingMatrix.from_rows([[a]], zm_ring(m))


def poly(coeffs, m):
    """The truncated polynomial with these coefficients, x^len(coeffs) = 0."""
    return RingMatrix.from_rows([[list(coeffs)]], MatrixRing(factorize(m), len(coeffs)))


def value(x):
    (row,) = x.to_rows()
    return row[0]


class TestFactorize:
    def test_examples(self):
        assert factorize(12).factors == ((2, 2), (3, 1))
        assert factorize(2).factors == ((2, 1),)
        assert factorize(36).factors == ((2, 2), (3, 2))

    def test_out_of_range(self):
        for bad in (1, 0, -6, 2**31 + 1):
            with pytest.raises(InputError):
                factorize(bad)

    @given(st.integers(min_value=2, max_value=10**6))
    def test_roundtrip_and_primality(self, m):
        mod = factorize(m)
        assert math.prod(p**e for p, e in mod.factors) == m
        for p, _ in mod.factors:
            assert p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))
        assert [p for p, _ in mod.factors] == sorted({p for p, _ in mod.factors})

    def test_modulus_invariant_enforced(self):
        with pytest.raises(InputError):
            Modulus(12, ((3, 1), (2, 2)))  # wrong order
        with pytest.raises(InputError):
            Modulus(12, ((2, 1), (3, 1)))  # wrong product


def _facts(mod):
    return mod.primes, mod.max_exponent, mod.crt_basis, mod.two_three_smooth


class TestCachedFacts:
    def test_equal_a_fresh_computation(self):
        """For every m <= 10^4, the facts of factorize's one Modulus per m are
        kept (the same objects on every read) and equal those of a Modulus
        built anew and what they mean: c_q is 1 mod q and 0 mod m/q, and the
        c_q sum to 1 mod m."""
        for m in range(2, 10**4 + 1):
            mod = factorize(m)
            facts = _facts(mod)
            assert factorize(m) is mod
            assert all(x is y for x, y in zip(_facts(mod), facts))
            assert _facts(Modulus(m, mod.factors)) == facts
            assert mod.primes == tuple(p for p, _ in mod.factors)
            assert mod.max_exponent == max(e for _, e in mod.factors)
            rest = m
            for p in (2, 3):
                while rest % p == 0:
                    rest //= p
            assert mod.two_three_smooth == (rest == 1)
            assert len(mod.crt_basis) == len(mod.factors)
            for (p, e), c in zip(mod.factors, mod.crt_basis):
                q = p**e
                assert 0 <= c < m and c % q == 1 and c % (m // q) == 0
            assert sum(mod.crt_basis) % m == 1


class TestSmoothness:
    def test_examples(self):
        assert factorize(36).two_three_smooth
        assert not factorize(5).two_three_smooth
        assert factorize(6).two_three_smooth

    def test_against_direct_division(self):
        for m in range(2, 500):
            n = m
            for p in (2, 3):
                while n % p == 0:
                    n //= p
            assert factorize(m).two_three_smooth == (n == 1)

    def test_enumerator(self):
        assert smooth_moduli(200) == [m for m in range(2, 201) if factorize(m).two_three_smooth]


def crt_roundtrip(a, m):
    """a mod each prime power of m, recombined through the CRT idempotents."""
    modulus = factorize(m)
    return sum(c * (a % p**e) for (p, e), c in zip(modulus.factors, modulus.crt_basis)) % m


class TestCrt:
    def test_examples(self):
        assert factorize(12).crt_basis == (9, 4)
        assert factorize(72).crt_basis == (9, 64)
        assert factorize(8).crt_basis == (1,)
        assert crt_roundtrip(7, 12) == 7 and crt_roundtrip(0, 6) == 0

    def test_orthogonal_idempotents(self):
        # c_q c_r = 0 for q != r, c_q^2 = c_q, and the c_q sum to 1, mod m
        for m in range(2, 201):
            basis = factorize(m).crt_basis
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
        assert four.is_idempotent() and not four.is_invertible()
        assert four.nilpotency_exponent() is None
        six = elem(6, 12)
        assert six.nilpotency_exponent() == 2 and not six.is_idempotent()
        one = elem(1, 60)
        assert one.is_idempotent() and one.is_invertible()

    def test_nilpotent_iff_power_m_vanishes(self):
        # brute-force cross-check a^m = 0 for every m and residue
        for m in range(2, 1001):
            for a in range(m):
                present = elem(a, m).nilpotency_exponent() is not None
                assert present == (pow(a, m, m) == 0)

    def test_exponent_minimality(self):
        for m in range(2, 150):
            for a in range(m):
                k = elem(a, m).nilpotency_exponent()
                if k is not None:
                    assert pow(a, k, m) == 0
                    assert k == 1 or pow(a, k - 1, m) != 0

    def test_unit_and_nilpotent_exclusive(self):
        for m in (2, 4, 12, 36, 90):
            for a in range(m):
                x = elem(a, m)
                assert x.is_invertible() == (math.gcd(a, m) == 1)
                assert not (x.is_invertible() and x.nilpotency_exponent() is not None)


class TestLiftIdempotent:
    def test_examples(self):
        assert value(_lift_idempotent_matrix(elem(3, 4))) == 1
        assert value(_lift_idempotent_matrix(elem(0, 9))) == 0
        assert value(_lift_idempotent_matrix(elem(4, 12))) == 4

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            _lift_idempotent_matrix(elem(2, 12))  # 2 mod 3 = 2

    def test_exhaustive_prime_powers(self):
        for m in (4, 8, 16, 27, 64, 81, 72, 36):
            mod = factorize(m)
            for x in range(m):
                eligible = elem(x * x - x, m).nilpotency_exponent() is not None
                if not eligible:
                    with pytest.raises(DomainError):
                        _lift_idempotent_matrix(elem(x, m))
                    continue
                e = value(_lift_idempotent_matrix(elem(x, m)))
                assert e * e % m == e
                # fixed point of the iteration itself
                assert (3 * e**2 - 2 * e**3) % m == e
                for p, _ in mod.factors:
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
                assert elem(w, m).nilpotency_exponent() is not None
                assert (e + f + w) % m == a

    def test_matches_brute_force_feasibility(self):
        # decomposability of every element is equivalent to 2-3-smoothness
        for m in range(2, 60):
            mod = factorize(m)
            idem = [x for x in range(m) if x * x % m == x]
            nil = {x for x in range(m) if pow(x, m, m) == 0}
            all_decomposable = all(
                any((a - e - f) % m in nil for e in idem for f in idem) for a in range(m)
            )
            assert all_decomposable == mod.two_three_smooth


class TestTruncPoly:
    def test_truncating_product(self):
        assert value(poly((1, 1), 3) @ poly((1, 2), 3)) == [1, 0]

    def test_nilpotent_generator(self):
        x = poly((0, 1, 0), 2)
        assert x.nilpotency_exponent() == 3 and not x.is_idempotent()

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
        assert (a + (-a)).is_zero()

    def test_classify_unit_iff_constant_unit(self):
        ring = MatrixRing(factorize(6), 2)
        one = RingMatrix.identity(1, ring)
        elements = [poly((c0, c1), 6) for c0 in range(6) for c1 in range(6)]
        for f in elements:
            c0 = value(f)[0]
            is_unit = any(f @ g == one for g in elements)
            assert is_unit == (math.gcd(c0, 6) == 1)
            assert (f.nilpotency_exponent() is not None) == (c0 % 2 == 0 and c0 % 3 == 0)
