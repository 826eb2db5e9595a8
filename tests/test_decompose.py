"""The constructive decomposition pipeline, bottom templates to full rings."""

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mat_mul_naive, nilpotency_naive_exact
from nilclean.decompose import (
    CaseTag,
    decompose,
    decompose_field_matrix,
    decompose_prime_power,
    decompose_triangular,
    decompose_trunc_poly_matrix,
    decompose_zm,
    lift_idempotent_matrix,
)
from nilclean.errors import DomainError, InputError, UnsupportedRingError
from nilclean.frobenius import CompanionBlock, FieldPoly, companion
from nilclean.matrix import RingMatrix, trunc_ring, zm_ring
from nilclean.residue import two_three_smooth_moduli

SMOOTH = two_three_smooth_moduli(72)


def block_of(p, last_col):
    coeffs = tuple(-c % p for c in last_col) + (1,)
    return CompanionBlock(FieldPoly(p, coeffs))


def split_block(p, last_col):
    """E, F, W and the case tag of the companion block with this last column.
    The Krylov form of a companion matrix is the matrix itself (Q = I), so
    decompose_field_matrix returns the template's parts and one tag."""
    cert = decompose_field_matrix(companion(block_of(p, last_col).poly))
    (tag,) = cert.case_tags
    assert tag.endswith(f":n{len(last_col)}")
    return cert.e, cert.f, cert.w, CaseTag(tag.rsplit(":", 1)[0])


def check_block_triple(p, last_col, e, f, w, expect_tag=None):
    a = companion(block_of(p, last_col).poly)
    assert e.is_idempotent()
    assert f.is_idempotent()
    assert (e + f + w) == a
    assert w.nilpotency_exponent() is not None


class TestCompanionGf3:
    def test_trace_one_display(self):
        e, f, w, tag = split_block(3, (1, 1))
        assert e.to_rows() == [[0, 1], [0, 1]]
        assert f.is_zero()
        assert w.to_rows() == [[0, 0], [1, 0]]
        assert tag is CaseTag.GF3_TRACE_ONE

    def test_trace_zero_dim2_display(self):
        for c0 in range(3):
            e, f, w, tag = split_block(3, (c0, 0))
            assert e == RingMatrix.identity(2, zm_ring(3))
            assert f.to_rows() == [[2, 1], [1, 2]]
            assert w.to_rows() == [[0, (c0 - 1) % 3], [0, 0]]
            assert tag is CaseTag.GF3_TRACE_ZERO_DIM2

    def test_trace_minus_one_corrected(self):
        # block [[0,1],[1,2]]: twin idempotents with last column (-c_0, ..., 1)
        e, f, w, tag = split_block(3, (1, -1))
        assert e.to_rows() == [[0, 2], [0, 1]]
        assert f == e
        assert w.to_rows() == [[0, 0], [1, 0]]
        assert tag is CaseTag.GF3_TRACE_MINUS_ONE
        check_block_triple(3, (1, 2), e, f, w)

    def test_trace_zero_dim3_display(self):
        for c0 in range(3):
            for c1 in range(3):
                e, f, w, tag = split_block(3, (c0, c1, 0))
                assert e.to_rows() == [[0, 0, 0], [0, 1, 0], [1, 0, 1]]
                assert f.to_rows() == [[0, 0, 0], [1, 2, 1], [2, 1, 2]]
                assert w.to_rows() == [
                    [0, 0, c0],
                    [0, 0, (c1 - 1) % 3],
                    [0, 0, 0],
                ]
                assert tag is CaseTag.GF3_TRACE_ZERO_BIG
                check_block_triple(3, (c0, c1, 0), e, f, w)

    @pytest.mark.parametrize("deg", range(1, 7))
    def test_exhaustive_blocks(self, deg):
        seen_tags = set()
        for last_col in itertools.product(range(3), repeat=deg):
            e, f, w, tag = split_block(3, last_col)
            check_block_triple(3, last_col, e, f, w)
            seen_tags.add(tag)
            trace = last_col[-1]
            if trace == 1:
                assert tag is CaseTag.GF3_TRACE_ONE
            elif trace == 2:
                assert tag is CaseTag.GF3_TRACE_MINUS_ONE
            elif deg == 1:
                assert tag is CaseTag.GF3_TRACE_ZERO_DIM1
            elif deg == 2:
                assert tag is CaseTag.GF3_TRACE_ZERO_DIM2
            else:
                assert tag is CaseTag.GF3_TRACE_ZERO_BIG

    @pytest.mark.parametrize("deg", (7, 8))
    def test_trace_zero_template_large_blocks(self, deg):
        # the corner template generalizes beyond the small displayed sizes;
        # pinned here by exhausting every trace-zero block of these degrees
        for rest in itertools.product(range(3), repeat=deg - 1):
            last_col = rest + (0,)
            e, f, w, tag = split_block(3, last_col)
            assert tag is CaseTag.GF3_TRACE_ZERO_BIG
            check_block_triple(3, last_col, e, f, w)

    def test_wrong_field_rejected(self):
        # templates exist over GF(2) and GF(3) only
        with pytest.raises(UnsupportedRingError):
            split_block(5, (1, 1))


class TestCompanionGf2:
    def test_trace_one(self):
        for c0 in range(2):
            e, f, w, tag = split_block(2, (c0, 1))
            assert e.to_rows() == [[0, c0], [0, 1]]
            assert f.is_zero()
            assert w.to_rows() == [[0, 0], [1, 0]]
            assert tag is CaseTag.GF2_TRACE_ONE

    def test_trace_zero_corner_split(self):
        for c0 in range(2):
            e, f, w, tag = split_block(2, (c0, 0))
            assert e.to_rows() == [[0, 0], [0, 1]]
            assert f.to_rows() == [[0, c0], [0, 1]]
            assert w.to_rows() == [[0, 0], [1, 0]]
            assert tag is CaseTag.GF2_TRACE_ZERO
            check_block_triple(2, (c0, 0), e, f, w)

    def test_zero_block_stays_zero(self):
        e, f, w, tag = split_block(2, (0,))
        assert e.is_zero() and f.is_zero() and w.is_zero()
        assert tag is CaseTag.GF2_TRACE_ZERO

    @pytest.mark.parametrize("deg", range(1, 9))
    def test_exhaustive_blocks(self, deg):
        for last_col in itertools.product(range(2), repeat=deg):
            e, f, w, tag = split_block(2, last_col)
            check_block_triple(2, last_col, e, f, w)

    def test_wrong_field_rejected(self):
        with pytest.raises(UnsupportedRingError):
            split_block(7, (1, 1))


class TestFieldMatrix:
    def test_zero_matrix(self):
        cert = decompose_field_matrix(RingMatrix.zeros(3, zm_ring(3)))
        assert cert.e.is_zero() and cert.f.is_zero() and cert.w.is_zero()
        assert cert.nilpotency_exponent == 1

    def test_already_companion(self):
        a = RingMatrix.from_rows([[0, 1], [1, 0]], zm_ring(3))
        cert = decompose_field_matrix(a)
        assert cert.e == RingMatrix.identity(2, zm_ring(3))
        assert cert.f.to_rows() == [[2, 1], [1, 2]]
        assert cert.w.is_zero()

    @pytest.mark.parametrize("p,n", [(3, 2), (2, 2), (2, 3)])
    def test_exhaustive(self, p, n):
        ring = zm_ring(p)
        for entries in itertools.product(range(p), repeat=n * n):
            a = RingMatrix(ring, np.array(entries, dtype=np.int64).reshape(1, n, n))
            cert = decompose_field_matrix(a)  # verifies internally
            assert cert.verified
            assert cert.nilpotency_exponent <= n

    def test_unsupported_field(self):
        with pytest.raises(UnsupportedRingError):
            decompose_field_matrix(RingMatrix.identity(2, zm_ring(5)))


def repeated_blocks_conjugate(p, n, deg, gen):
    """A random conjugate of diag(C, ..., C) for one random GF(p) companion
    block C of degree deg: derogatory, with n / deg equal invariant factors."""
    ring = zm_ring(p)
    col = gen.integers(0, p, deg)
    blocks = np.zeros((n, n), dtype=np.int64)
    for at in range(0, n, deg):
        for i in range(1, deg):
            blocks[at + i, at + i - 1] = 1
        blocks[at : at + deg, at + deg - 1] = col
    while True:
        t = RingMatrix.random(n, ring, gen)
        if t.is_invertible():
            return t @ RingMatrix(ring, blocks[None]) @ t.inverse()


class TestKrylovPath:
    @pytest.mark.parametrize("p", (2, 3))
    @pytest.mark.parametrize("n", (8, 16))
    def test_derogatory_against_naive(self, p, n):
        gen = np.random.default_rng(1000 * p + n)
        for deg in (1, 2, 4):
            a = repeated_blocks_conjugate(p, n, deg, gen)
            cert = decompose_field_matrix(a)
            rows_a, e, f, w = (x.to_rows() for x in (a, cert.e, cert.f, cert.w))
            assert mat_mul_naive(e, e, p) == e
            assert mat_mul_naive(f, f, p) == f
            assert [[(x + y + z) % p for x, y, z in zip(*r)] for r in zip(e, f, w)] == rows_a
            assert nilpotency_naive_exact(w, p, n) == cert.nilpotency_exponent
            assert sum(int(tag.rsplit(":n", 1)[1]) for tag in cert.case_tags) == n
            assert len(cert.case_tags) >= n // deg


class TestSelfCheckCount:
    @pytest.fixture
    def checks(self, monkeypatch):
        module = importlib.import_module("nilclean.decompose")
        original = module.verify_certificate
        calls = []

        def counting(cert):
            calls.append(cert)
            return original(cert)

        monkeypatch.setattr(module, "verify_certificate", counting)
        return calls

    @pytest.fixture
    def powerings(self, monkeypatch):
        module = importlib.import_module("nilclean.matrix")
        original = module._min_exponent
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "_min_exponent", counting)
        return calls

    @pytest.mark.parametrize("call,ring", [
        (decompose_field_matrix, zm_ring(3)),
        (decompose_prime_power, zm_ring(9)),
        (decompose_zm, zm_ring(72)),
        (decompose_zm, zm_ring(6)),
        (decompose, trunc_ring(6, 3)),
        (decompose_trunc_poly_matrix, trunc_ring(72, 2)),
    ])
    def test_one_check_per_public_call(self, checks, powerings, call, ring, rng):
        cert = call(RingMatrix.random(6, ring, rng))
        assert cert.verified
        assert checks == [cert]
        # one powering pass both finds W's exponent and proves it
        assert len(powerings) == 1


class TestLiftMatrix:
    def test_identity_fixed(self):
        ident = RingMatrix.identity(2, zm_ring(4))
        assert lift_idempotent_matrix(ident) == ident

    def test_scalar_matches_element_lift(self):
        out = lift_idempotent_matrix(RingMatrix.from_rows([[3]], zm_ring(4)))
        assert out.to_rows() == [[1]]

    def test_already_idempotent_stays(self):
        x = RingMatrix.from_rows([[1, 2], [0, 0]], zm_ring(4))
        out = lift_idempotent_matrix(x)
        assert out == x
        assert out.reduce_mod_prime(2).to_rows() == [[1, 0], [0, 0]]

    def test_nontrivial_lift(self):
        x = RingMatrix.from_rows([[1, 1], [2, 2]], zm_ring(4))
        out = lift_idempotent_matrix(x)
        assert out.is_idempotent()
        assert out.reduce_mod_prime(2) == x.reduce_mod_prime(2)

    def test_precondition_enforced(self):
        with pytest.raises(DomainError):
            lift_idempotent_matrix(RingMatrix.from_rows([[0, 1], [0, 0]], zm_ring(4)))

    @given(st.sampled_from((4, 8, 9, 27)), st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_eligible_lifts(self, q, n, seed):
        gen = np.random.default_rng(seed)
        ring = zm_ring(q)
        p = ring.modulus.primes[0]
        base = decompose_field_matrix(
            RingMatrix.random(n, zm_ring(p), gen)
        ).e  # a random-ish idempotent over GF(p)
        noise = RingMatrix.random(n, ring, gen)
        x = RingMatrix.from_rows(
            (np.array(base.to_rows()) + p * np.array(noise.to_rows())).tolist(), ring
        )
        lifted = lift_idempotent_matrix(x)
        assert lifted.is_idempotent()
        assert lifted.reduce_mod_prime(p) == base


class TestPrimePower:
    def test_degenerates_to_field(self):
        a = RingMatrix.from_rows([[0, 1], [1, 0]], zm_ring(3))
        assert decompose_prime_power(a).e == decompose_field_matrix(a).e

    def test_doubled_identity(self):
        cert = decompose_prime_power(RingMatrix.from_rows([[2, 0], [0, 2]], zm_ring(4)))
        assert cert.e.is_zero() and cert.f.is_zero()
        assert cert.w.to_rows() == [[2, 0], [0, 2]]
        assert cert.nilpotency_exponent == 2

    def test_scalar_three_mod_nine(self):
        cert = decompose_prime_power(RingMatrix.from_rows([[3]], zm_ring(9)))
        assert cert.e.is_zero() and cert.f.is_zero()
        assert cert.w.to_rows() == [[3]] and cert.nilpotency_exponent == 2

    def test_rejects_composite(self):
        with pytest.raises(InputError):
            decompose_prime_power(RingMatrix.identity(2, zm_ring(6)))
        with pytest.raises(UnsupportedRingError):
            decompose_prime_power(RingMatrix.identity(2, zm_ring(25)))


class TestZm:
    def test_prime_moduli_match_field_path(self, rng):
        for p in (2, 3):
            a = RingMatrix.random(3, zm_ring(p), rng)
            assert decompose_zm(a).e == decompose_field_matrix(a).e

    def test_idempotent_scalar(self):
        cert = decompose_zm(RingMatrix.from_rows([[4]], zm_ring(6)))
        assert cert.e.to_rows() == [[4]]
        assert cert.f.is_zero() and cert.w.is_zero()

    def test_zero_matrix_zero_certificate(self):
        cert = decompose_zm(RingMatrix.zeros(2, zm_ring(6)))
        assert cert.e.is_zero() and cert.f.is_zero() and cert.w.is_zero()

    def test_unsupported_moduli(self):
        for m in (5, 10, 35, 77):
            with pytest.raises(UnsupportedRingError):
                decompose_zm(RingMatrix.identity(1, zm_ring(m)))

    def test_trunc_entries_rejected(self):
        with pytest.raises(InputError):
            decompose_zm(RingMatrix.zeros(1, trunc_ring(6, 2)))

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2)])
    def test_exhaustive_small(self, n, m):
        ring = zm_ring(m)
        bound = ring.nilpotency_bound(n)
        for entries in itertools.product(range(m), repeat=n * n):
            a = RingMatrix(ring, np.array(entries, dtype=np.int64).reshape(1, n, n))
            cert = decompose_zm(a)
            assert cert.verified and cert.nilpotency_exponent <= bound

    @given(st.sampled_from(SMOOTH), st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_random_verified(self, m, n, seed):
        gen = np.random.default_rng(seed)
        cert = decompose_zm(RingMatrix.random(n, zm_ring(m), gen))
        assert cert.verified
        assert cert.nilpotency_exponent <= cert.a.ring.nilpotency_bound(n)

    def test_deterministic(self, rng):
        a = RingMatrix.random(4, zm_ring(36), rng)
        c1, c2 = decompose_zm(a), decompose_zm(a.copy())
        assert c1.e == c2.e and c1.f == c2.f and c1.w == c2.w
        assert c1.case_tags == c2.case_tags


class TestTriangular:
    def test_strictly_upper_goes_to_w(self):
        t = RingMatrix.from_rows([[0, 5], [0, 0]], zm_ring(6))
        cert = decompose_triangular(t)
        assert cert.e.is_zero() and cert.f.is_zero() and cert.w == t

    def test_diagonal_example(self):
        # per-entry tables: 5 = 1 + 4 + 0 and 2 = 4 + 4 + 0 in Z_6
        cert = decompose_triangular(RingMatrix.from_rows([[5, 0], [0, 2]], zm_ring(6)))
        assert cert.e.to_rows() == [[1, 0], [0, 4]]
        assert cert.f.to_rows() == [[4, 0], [0, 4]]
        assert cert.w.is_zero()

    def test_mod_nine_example(self):
        # 2 = 1 + 1 + 0 and 3 = 0 + 0 + 3 in Z_9; the strict upper part rides in W
        cert = decompose_triangular(RingMatrix.from_rows([[2, 7], [0, 3]], zm_ring(9)))
        assert cert.e.to_rows() == [[1, 0], [0, 0]]
        assert cert.f.to_rows() == [[1, 0], [0, 0]]
        assert cert.w.to_rows() == [[0, 7], [0, 3]]
        assert cert.nilpotency_exponent == 3

    def test_parts_stay_triangular(self, rng):
        for m in (6, 12, 36):
            ring = zm_ring(m)
            for _ in range(10):
                t = RingMatrix.random(4, ring, rng)
                t.coeffs[0][np.tril_indices(4, k=-1)] = 0
                cert = decompose_triangular(t)
                for part in (cert.e, cert.f, cert.w):
                    assert part.is_upper_triangular()

    def test_exhaustive_t2_z6(self):
        ring = zm_ring(6)
        for a, b, d in itertools.product(range(6), repeat=3):
            cert = decompose_triangular(RingMatrix.from_rows([[a, b], [0, d]], ring))
            assert cert.verified

    def test_rejects_non_triangular(self):
        with pytest.raises(InputError):
            decompose_triangular(RingMatrix.from_rows([[0, 0], [1, 0]], zm_ring(6)))

    def test_rejects_unsupported_modulus(self):
        with pytest.raises(UnsupportedRingError):
            decompose_triangular(RingMatrix.identity(2, zm_ring(10)))


class TestTruncPolyMatrix:
    def test_degree_one_equals_zm(self, rng):
        a = RingMatrix.random(3, zm_ring(6), rng)
        lifted = RingMatrix(trunc_ring(6, 1), a.coeffs.copy())
        assert decompose_trunc_poly_matrix(lifted).e == decompose_zm(a).e

    def test_nilpotent_generator_stays_in_w(self):
        cert = decompose_trunc_poly_matrix(RingMatrix.from_rows([[[0, 1, 0]]], trunc_ring(2, 3)))
        assert cert.e.is_zero() and cert.f.is_zero()
        assert cert.w.to_rows() == [[[0, 1, 0]]]
        assert cert.nilpotency_exponent == 3

    def test_unit_plus_x(self):
        cert = decompose_trunc_poly_matrix(RingMatrix.from_rows([[[1, 1]]], trunc_ring(3, 2)))
        assert cert.e.to_rows() == [[[1, 0]]]
        assert cert.f.is_zero()
        assert cert.w.to_rows() == [[[0, 1]]]
        assert cert.e.is_idempotent()

    def test_exhaustive_one_by_one(self):
        for m, d in ((2, 3), (3, 2)):
            ring = trunc_ring(m, d)
            for coeffs in itertools.product(range(m), repeat=d):
                a = RingMatrix.from_rows([[list(coeffs)]], ring)
                cert = decompose_trunc_poly_matrix(a)
                assert cert.verified

    @given(st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_random_z6x2(self, n, seed):
        gen = np.random.default_rng(seed)
        cert = decompose_trunc_poly_matrix(RingMatrix.random(n, trunc_ring(6, 2), gen))
        assert cert.verified

    def test_unsupported_base(self):
        with pytest.raises(UnsupportedRingError):
            decompose_trunc_poly_matrix(RingMatrix.zeros(1, trunc_ring(5, 2)))


class TestDispatch:
    def test_routes_by_ring(self, rng):
        a = RingMatrix.random(2, zm_ring(12), rng)
        assert decompose(a).verified
        b = RingMatrix.random(2, trunc_ring(6, 2), rng)
        assert decompose(b).verified
