"""Polynomials over GF(p), companion blocks, and the canonical form."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import charpoly_cofactor, mat_mul_naive, poly_mul
from nilclean.errors import InputError
from nilclean.frobenius import (
    CompanionBlock,
    FieldPoly,
    companion,
    krylov_form,
    rcf,
    verify_rcf,
)
from nilclean.matrix import RingMatrix, zm_ring


def poly(p, *coeffs):
    return FieldPoly(p, tuple(coeffs))


class TestFieldPoly:
    def test_gcd_example(self):
        # gcd(x^2 - 1, x - 1) over GF(3)
        g = poly(3, -1, 0, 1).gcd(poly(3, -1, 1))
        assert g.coeffs == (2, 1) and g.is_monic()

    def test_evaluate_example(self):
        assert poly(3, 2, 2, 1).evaluate(1) == 2  # x^2 + 2x + 2 at 1

    def test_divmod_example(self):
        q, r = divmod(poly(2, 0, 0, 0, 1), poly(2, 0, 1))
        assert q.coeffs == (0, 0, 1) and r.coeffs == ()

    def test_zero_division(self):
        with pytest.raises(InputError):
            divmod(poly(3, 1), poly(3))

    def test_composite_characteristic_rejected(self):
        with pytest.raises(InputError):
            FieldPoly(6, (1,))

    @given(st.sampled_from((2, 3, 5)), st.data())
    @settings(max_examples=80)
    def test_divmod_and_gcd_properties(self, p, data):
        coeffs = st.lists(st.integers(0, p - 1), min_size=0, max_size=6)
        a = FieldPoly(p, tuple(data.draw(coeffs)))
        b = FieldPoly(p, tuple(data.draw(coeffs)))
        c = FieldPoly(p, tuple(data.draw(coeffs)))
        assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
        if b.coeffs:
            q, r = divmod(a, b)
            assert (q * b + r).coeffs == a.coeffs
            assert r.degree < b.degree
        g = a.gcd(b)
        if g.coeffs:
            assert g.is_monic()
            assert g.divides(a) and g.divides(b)


class TestCompanion:
    def test_sign_convention(self):
        # x^2 - x - 1 over GF(3)
        c = companion(poly(3, -1, -1, 1))
        assert c.to_rows() == [[0, 1], [1, 1]]

    def test_degree_one(self):
        assert companion(poly(2, 0, 1)).to_rows() == [[0]]

    def test_nilpotent_shift(self):
        assert companion(poly(3, 0, 0, 1)).to_rows() == [[0, 0], [1, 0]]

    def test_degree_zero_rejected(self):
        with pytest.raises(InputError):
            companion(poly(3, 1))
        with pytest.raises(InputError):
            CompanionBlock(poly(3, 1, 2))  # not monic

    @given(st.sampled_from((2, 3, 5)), st.data())
    @settings(max_examples=60)
    def test_charpoly_roundtrip(self, p, data):
        deg = data.draw(st.integers(1, 5))
        coeffs = tuple(data.draw(st.integers(0, p - 1)) for _ in range(deg)) + (1,)
        f = FieldPoly(p, coeffs)
        c = companion(f)
        assert charpoly_cofactor(c.to_rows(), p) == f.coeffs


class TestRcf:
    def test_companion_is_fixed_point(self):
        block = companion(poly(3, 1, 2, 0, 1))
        result = rcf(block)
        assert len(result.blocks) == 1
        assert result.blocks[0].poly.coeffs == (1, 2, 0, 1)
        assert result.transform == RingMatrix.identity(3, zm_ring(3))
        assert verify_rcf(block, result)

    def test_diagonal_merges_to_one_block(self):
        a = RingMatrix.from_rows([[1, 0], [0, 2]], zm_ring(3))
        result = rcf(a)
        assert [b.poly.coeffs for b in result.blocks] == [(2, 0, 1)]  # x^2 - 1
        assert verify_rcf(a, result)

    def test_identity_splits_into_linear_blocks(self):
        a = RingMatrix.identity(2, zm_ring(2))
        result = rcf(a)
        assert [b.poly.coeffs for b in result.blocks] == [(1, 1), (1, 1)]
        assert result.blocks[0].poly.divides(result.blocks[1].poly)

    def test_non_prime_field_rejected(self):
        with pytest.raises(InputError):
            rcf(RingMatrix.identity(2, zm_ring(6)))

    def test_verify_rejects_tampering(self, rng):
        a = RingMatrix.random(4, zm_ring(3), rng)
        result = rcf(a)
        assert verify_rcf(a, result)
        result.transform.coeffs[0, 0, 0] = (result.transform.coeffs[0, 0, 0] + 1) % 3
        assert not verify_rcf(a, result)

    def test_block_polys_multiply_to_charpoly(self, rng):
        for p in (2, 3, 5):
            ring = zm_ring(p)
            for n in (1, 2, 3, 4, 5, 6):
                for _ in range(4):
                    a = RingMatrix.random(n, ring, rng)
                    result = rcf(a)
                    prod = (1,)
                    from conftest import poly_mul

                    for b in result.blocks:
                        prod = poly_mul(prod, b.poly.coeffs, p)
                    assert prod == charpoly_cofactor(a.to_rows(), p)

    def test_divisibility_chain(self, rng):
        for p in (2, 3):
            ring = zm_ring(p)
            for _ in range(40):
                a = RingMatrix.random(int(rng.integers(1, 8)), ring, rng)
                result = rcf(a)
                assert verify_rcf(a, result)
                for fa, fb in zip(result.blocks, result.blocks[1:]):
                    assert fa.poly.divides(fb.poly)

    def test_blocks_similarity_invariant(self, rng):
        from test_matrix import random_invertible

        for p in (2, 3):
            ring = zm_ring(p)
            for _ in range(20):
                n = int(rng.integers(1, 7))
                a = RingMatrix.random(n, ring, rng)
                g = random_invertible(n, ring, rng)
                conj = g @ a @ g.inverse()
                assert [b.poly.coeffs for b in rcf(a).blocks] == [
                    b.poly.coeffs for b in rcf(conj).blocks
                ]

    def test_transport_preserves_structure(self, rng):
        # conjugation preserves idempotency and nilpotency exponents
        from test_matrix import random_invertible

        ring = zm_ring(3)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            g = random_invertible(n, ring, rng)
            g_inv = g.inverse()
            e = RingMatrix.zeros(n, ring)
            for i in range(int(rng.integers(1, n + 1))):
                e.coeffs[0, i % n, i % n] = 1
            moved = g_inv @ e @ g
            assert moved.is_idempotent()
            w = RingMatrix.zeros(n, ring)
            for i in range(1, n):
                w.coeffs[0, i, i - 1] = int(rng.integers(0, 3))
            assert (g_inv @ w @ g).nilpotency_exponent() == w.nilpotency_exponent()

    def test_deterministic(self, rng):
        for _ in range(10):
            a = RingMatrix.random(5, zm_ring(2), rng)
            r1, r2 = rcf(a), rcf(a)
            assert r1.transform == r2.transform
            assert [b.poly for b in r1.blocks] == [b.poly for b in r2.blocks]


class TestKrylovForm:
    @staticmethod
    def check_form(a, p):
        """Q^-1 A Q is block upper triangular with companion diagonal blocks
        whose polynomials multiply to the characteristic polynomial."""
        n = a.n
        cols, q, q_inv = krylov_form(a)
        q, q_inv = q.tolist(), q_inv.tolist()
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert mat_mul_naive(q, q_inv, p) == ident
        t = mat_mul_naive(mat_mul_naive(q_inv, a.to_rows(), p), q, p)
        at = 0
        charpoly = (1,)
        for col in cols:
            d = len(col)
            block = companion(FieldPoly(p, tuple(-c % p for c in col) + (1,))).to_rows()
            assert [row[at : at + d] for row in t[at : at + d]] == block
            assert all(v == 0 for row in t[at + d :] for v in row[at : at + d])
            charpoly = poly_mul(charpoly, tuple(-c % p for c in col) + (1,), p)
            at += d
        assert at == n
        assert charpoly == charpoly_cofactor(a.to_rows(), p)
        return cols

    @pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
    def test_exhaustive(self, p, n):
        for entries in itertools.product(range(p), repeat=n * n):
            rows = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
            self.check_form(RingMatrix.from_rows(rows, zm_ring(p)), p)

    def test_random_fields(self, rng):
        for p in (2, 3, 5):
            for n in (1, 4, 6):
                for _ in range(5):
                    self.check_form(RingMatrix.random(n, zm_ring(p), rng), p)

    def test_identity_gives_unit_blocks(self):
        cols = self.check_form(RingMatrix.identity(3, zm_ring(3)), 3)
        assert cols == [(1,), (1,), (1,)]

    def test_companion_is_one_block(self):
        cols = self.check_form(companion(poly(3, 1, 2, 0, 1)), 3)
        assert cols == [(2, 1, 0)]

    def test_non_prime_field_rejected(self):
        with pytest.raises(InputError):
            krylov_form(RingMatrix.identity(2, zm_ring(6)))
