"""The constructive decomposition pipeline, bottom templates to full rings."""

import collections
import hashlib
import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import companion, mat_mul_naive, nilpotency_naive_exact, smooth_moduli
from nilclean.classifier import min_nilpotent_index_over_decompositions, parse_ring_descriptor
from nilclean.cli import certificate_to_doc
from nilclean.decompose import (
    CaseTag,
    _krylov_solve,
    _lift_idempotent_matrix,
    _lift_idempotents,
    decompose,
    decompose_triangular,
    decompose_zm,
)
from nilclean.errors import DomainError, InputError, InternalCheckError, UnsupportedRingError
from nilclean.gfp import krylov_form
from nilclean.matrix import BLAS_MIN_DIMENSION, MatrixRing, RingMatrix, zm_ring
from nilclean.residue import factorize, lift_iteration_cap

SMOOTH = smooth_moduli(72)


def block_of(p, last_col):
    return RingMatrix.from_rows(companion(p, last_col), zm_ring(p))


def split_block(p, last_col):
    """E, F, W and the case tag of the companion block with this last column.
    The Krylov form of a companion matrix is the matrix itself (Q = I), so
    decompose returns the template's parts and one tag."""
    cert = decompose(block_of(p, last_col))
    (tag,) = cert.case_tags
    assert tag.endswith(f":n{len(last_col)}")
    return cert.e, cert.f, cert.w, CaseTag(tag.rsplit(":", 1)[0])


def check_block_triple(p, last_col, e, f, w, expect_tag=None):
    a = block_of(p, last_col)
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
        cert = decompose(RingMatrix.zeros(3, zm_ring(3)))
        assert cert.e.is_zero() and cert.f.is_zero() and cert.w.is_zero()
        assert cert.nilpotency_exponent == 1

    def test_already_companion(self):
        a = RingMatrix.from_rows([[0, 1], [1, 0]], zm_ring(3))
        cert = decompose(a)
        assert cert.e == RingMatrix.identity(2, zm_ring(3))
        assert cert.f.to_rows() == [[2, 1], [1, 2]]
        assert cert.w.is_zero()

    @pytest.mark.parametrize("p,n", [(3, 2), (2, 2), (2, 3)])
    def test_exhaustive(self, p, n):
        ring = zm_ring(p)
        for entries in itertools.product(range(p), repeat=n * n):
            a = RingMatrix(ring, np.array(entries, dtype=np.int64).reshape(1, n, n))
            cert = decompose(a)  # verifies internally
            assert cert.verified
            assert cert.nilpotency_exponent <= n

    def test_unsupported_field(self):
        with pytest.raises(UnsupportedRingError):
            decompose(RingMatrix.identity(2, zm_ring(5)))


def repeated_blocks_conjugate(p, n, deg, gen):
    """A random conjugate of diag(C, ..., C) for one random GF(p) companion
    block C of degree deg: derogatory, with n // deg copies of C, and when
    deg does not divide n a last block of degree n mod deg whose last column
    is C's cut short."""
    ring = zm_ring(p)
    col = gen.integers(0, p, deg)
    blocks = np.zeros((n, n), dtype=np.int64)
    for at in range(0, n, deg):
        size = min(deg, n - at)
        for i in range(1, size):
            blocks[at + i, at + i - 1] = 1
        blocks[at : at + size, at + size - 1] = col[:size]
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
            cert = decompose(a)
            rows_a, e, f, w = (x.to_rows() for x in (a, cert.e, cert.f, cert.w))
            assert mat_mul_naive(e, e, p) == e
            assert mat_mul_naive(f, f, p) == f
            assert [[(x + y + z) % p for x, y, z in zip(*r)] for r in zip(e, f, w)] == rows_a
            assert nilpotency_naive_exact(w, p, n) == cert.nilpotency_exponent
            assert sum(int(tag.rsplit(":n", 1)[1]) for tag in cert.case_tags) == n
            assert len(cert.case_tags) >= n // deg


class TestJointConjugation:
    """On both sides of BLAS_MIN_DIMENSION, where the conjugation of E and F
    changes route, _krylov_solve returns Q e Q^-1 and Q f Q^-1 as Python ints
    compute them, for e and f the block-diagonal templates of krylov_form's
    blocks, with one case tag per block."""

    @pytest.mark.parametrize("kind", ("random", "derogatory"))
    @pytest.mark.parametrize("p", (2, 3))
    @pytest.mark.parametrize("n", (BLAS_MIN_DIMENSION - 1, BLAS_MIN_DIMENSION))
    def test_matches_python_ints(self, n, p, kind):
        gen = np.random.default_rng([n, p])
        a = (RingMatrix.random(n, zm_ring(p), gen) if kind == "random"
             else repeated_blocks_conjugate(p, n, 3, gen))
        last_columns, q, q_inv = krylov_form(a.coeffs[0], p)
        e0 = [[0] * n for _ in range(n)]
        f0 = [[0] * n for _ in range(n)]
        tags, at = [], 0
        for col in last_columns:
            e_b, f_b, _, tag = split_block(p, col)
            for i, (row_e, row_f) in enumerate(zip(e_b.to_rows(), f_b.to_rows())):
                e0[at + i][at : at + len(col)] = row_e
                f0[at + i][at : at + len(col)] = row_f
            tags.append(f"{tag.value}:n{len(col)}")
            at += len(col)
        assert at == n and (kind == "random" or len(tags) > 1)
        q, q_inv = q.tolist(), q_inv.tolist()
        (e, f), got_tags = _krylov_solve(a.coeffs[0], p)
        assert e.shape == f.shape == (1, n, n)
        e, f = e[0], f[0]
        assert e.tolist() == mat_mul_naive(mat_mul_naive(q, e0, p), q_inv, p)
        assert f.tolist() == mat_mul_naive(mat_mul_naive(q, f0, p), q_inv, p)
        assert got_tags == tuple(tags)


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
        (decompose, zm_ring(3)),
        (decompose, zm_ring(9)),
        (decompose, zm_ring(72)),
        (decompose, zm_ring(6)),
        (decompose, MatrixRing(factorize(6), 3)),
        (decompose, MatrixRing(factorize(72), 2)),
        (decompose_triangular, zm_ring(72)),
    ])
    def test_one_check_per_public_call(self, checks, powerings, call, ring, rng):
        a = RingMatrix.random(6, ring, rng)
        if call is decompose_triangular:
            a.coeffs[0][np.tril_indices(6, k=-1)] = 0
        cert = call(a)
        assert cert.verified
        assert checks == [cert]
        # one powering pass both finds W's exponent and proves it
        assert len(powerings) == 1

    @pytest.mark.parametrize("ring", [zm_ring(72), MatrixRing(factorize(72), 2), zm_ring(6), zm_ring(3)])
    def test_lift_products(self, monkeypatch, ring, rng):
        # the E/F stack is lifted on its constant (2, 1, n, n) slice, two
        # products a round for (e - 1).bit_length() rounds, and checked only
        # by the certificate check: no convergence product
        module = importlib.import_module("nilclean.decompose")
        real, shapes = module._stack_mul, []
        monkeypatch.setattr(module, "_stack_mul", lambda a, b, m: shapes.append((a.shape, b.shape)) or real(a, b, m))
        assert decompose(RingMatrix.random(6, ring, rng)).verified
        products = 2 * (ring.modulus.max_exponent - 1).bit_length()
        assert products == (4 if ring.m == 72 else 0)
        assert shapes == [((2, 1, 6, 6), (2, 1, 6, 6))] * products


class TestLiftMatrix:
    def test_identity_fixed(self):
        ident = RingMatrix.identity(2, zm_ring(4))
        assert _lift_idempotent_matrix(ident) == ident

    def test_scalar_matches_element_lift(self):
        out = _lift_idempotent_matrix(RingMatrix.from_rows([[3]], zm_ring(4)))
        assert out.to_rows() == [[1]]

    def test_already_idempotent_stays(self):
        x = RingMatrix.from_rows([[1, 2], [0, 0]], zm_ring(4))
        out = _lift_idempotent_matrix(x)
        assert out == x
        assert out.residue_field_image(2).tolist() == [[1, 0], [0, 0]]

    def test_nontrivial_lift(self):
        x = RingMatrix.from_rows([[1, 1], [2, 2]], zm_ring(4))
        out = _lift_idempotent_matrix(x)
        assert out.is_idempotent()
        assert np.array_equal(out.residue_field_image(2), x.residue_field_image(2))

    def test_result_proved_idempotent(self, monkeypatch):
        # one round short of the radical's count leaves x unlifted, and the
        # one proof of the result names the input
        x = RingMatrix.from_rows([[1, 1], [2, 2]], zm_ring(4))
        module = importlib.import_module("nilclean.decompose")
        monkeypatch.setattr(module, "lift_iteration_cap", lambda e: lift_iteration_cap(e) - 1)
        with pytest.raises(InternalCheckError, match="ended on a non-idempotent; input") as err:
            _lift_idempotent_matrix(x)
        assert err.value.matrix is x

    def test_precondition_enforced(self):
        with pytest.raises(DomainError):
            _lift_idempotent_matrix(RingMatrix.from_rows([[0, 1], [0, 0]], zm_ring(4)))

    def test_precondition_exact_at_large_prime(self):
        # g diag(1, 1, 0, ...) g^-1 over Z_{2^31 - 1}: the precondition's
        # square has partial sums past 2^63, so a raw int64 product would
        # wrap and call this idempotent not idempotent
        m, n = 2**31 - 1, 8
        ring = zm_ring(m)
        gen = np.random.default_rng(n)
        while not (g := RingMatrix.random(n, ring, gen)).is_invertible():
            pass
        diag = np.diag([1, 1] + [0] * (n - 2)).astype(object)
        x = np.matmul(np.matmul(g.coeffs[0].astype(object), diag),
                      g.inverse().coeffs[0].astype(object)) % m
        assert (np.matmul(x, x) % m).tolist() == x.tolist()
        x = RingMatrix.from_rows(x.tolist(), ring)
        assert _lift_idempotent_matrix(x) == x

    @given(st.sampled_from((4, 8, 9, 27)), st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_eligible_lifts(self, q, n, seed):
        gen = np.random.default_rng(seed)
        ring = zm_ring(q)
        p = ring.modulus.primes[0]
        base = decompose(
            RingMatrix.random(n, zm_ring(p), gen)
        ).e  # a random-ish idempotent over GF(p)
        noise = RingMatrix.random(n, ring, gen)
        x = RingMatrix.from_rows(
            (np.array(base.to_rows()) + p * np.array(noise.to_rows())).tolist(), ring
        )
        lifted = _lift_idempotent_matrix(x)
        assert lifted.is_idempotent()
        assert lifted.residue_field_image(p).tolist() == base.to_rows()


class TestPrimePower:
    def test_degenerates_to_field(self, rng, monkeypatch):
        # E and F are lifted, together as one constant stack over Z_m, exactly
        # when m is not squarefree: a constant start point over squarefree m
        # is already idempotent, and its round count is 0
        module = importlib.import_module("nilclean.decompose")
        lift = module._lift_idempotents
        lifted = []
        monkeypatch.setattr(module, "_lift_idempotents", lambda stack, m, rounds:
                            lifted.append((m, stack.shape, rounds)) or lift(stack, m, rounds))
        for ring in (zm_ring(3), zm_ring(6), MatrixRing(factorize(6), 2), zm_ring(9), MatrixRing(factorize(36), 2)):
            decompose(RingMatrix.random(3, ring, rng))
        assert [(m, shape) for m, shape, rounds in lifted if rounds] == [(9, (2, 1, 3, 3)), (36, (2, 1, 3, 3))]

    def test_doubled_identity(self):
        cert = decompose(RingMatrix.from_rows([[2, 0], [0, 2]], zm_ring(4)))
        assert cert.e.is_zero() and cert.f.is_zero()
        assert cert.w.to_rows() == [[2, 0], [0, 2]]
        assert cert.nilpotency_exponent == 2

    def test_scalar_three_mod_nine(self):
        cert = decompose(RingMatrix.from_rows([[3]], zm_ring(9)))
        assert cert.e.is_zero() and cert.f.is_zero()
        assert cert.w.to_rows() == [[3]] and cert.nilpotency_exponent == 2


def residually_idempotent_stack(m, n, gen):
    """A (2, 1, n, n) stack over Z_m, each matrix congruent mod every p | m
    to g D g^-1, D a random 0/1 diagonal and g invertible over GF(p), plus a
    random multiple of rad(m): the shape of decompose's start points."""
    mod = factorize(m)
    rad = math.prod(mod.primes)
    stack = rad * gen.integers(0, m // rad, size=(2, 1, n, n))
    for p, c in zip(mod.primes, mod.crt_basis):
        for k in range(2):
            while not (g := RingMatrix.random(n, zm_ring(p), gen)).is_invertible():
                pass
            proj = g.coeffs[0] @ np.diag(gen.integers(0, 2, n)) @ g.inverse().coeffs[0] % p
            stack[k, 0] += c * proj
    return stack % m


def lift_until_fixed(stack, m):
    """x <- 3x^2 - 2x^3 on Python ints until x^2 = x, on a (k, d, n, n) stack
    of matrices over Z_m[x]/(x^d)."""
    def mul(a, b):
        out = np.zeros_like(a)
        for t in range(a.shape[1]):
            for i in range(t + 1):
                out[:, t] += np.matmul(a[:, i], b[:, t - i])
        return out % m

    y = stack.astype(object)
    while not ((y2 := mul(y, y)) == y).all():
        y = (3 * y2 - 2 * mul(y2, y)) % m
    return y.astype(np.int64)


class TestLiftRounds:
    """The lift runs exactly lift_iteration_cap(e) rounds, e the largest
    exponent of m: the start point is constant and idempotent mod every
    p | m, so its defect lies in rad(m) M_n(Z_m) and each round squares it."""

    @pytest.mark.parametrize("d", (1, 2, 3, 4))
    def test_fixed_rounds_equal_lift_until_fixed(self, d):
        gen = np.random.default_rng(d)
        moduli = smooth_moduli(10**4) + [2**30, 3**19]
        needed = 0
        for m in moduli * 3:
            n = int(gen.integers(1, 5))
            start = residually_idempotent_stack(m, n, gen)
            rounds = lift_iteration_cap(factorize(m).max_exponent)
            lifted = _lift_idempotents(start, m, rounds)
            # over Z_m[x]/(x^d), the lift of the constant stack is constant
            embedded = np.concatenate((start, np.zeros((2, d - 1, n, n), dtype=np.int64)), axis=1)
            want = lift_until_fixed(embedded, m)
            assert np.array_equal(lifted, want[:, :1]) and not want[:, 1:].any(), m
            assert np.array_equal(_lift_idempotents(embedded, m, rounds), want), m
            needed += not np.array_equal(want, embedded)
        assert needed > len(moduli)

    @pytest.mark.parametrize("k,seed", [(5, 4), (9, 3), (17, 0), (31, 30)])
    def test_one_round_short_fails_the_check(self, monkeypatch, k, seed):
        # a Z_{2^k} input whose E or F needs every round: one round fewer
        # leaves it unlifted, and the certificate check names it and the input
        a = RingMatrix.random(6, zm_ring(2**k), np.random.default_rng(seed))
        assert decompose(a).verified
        module = importlib.import_module("nilclean.decompose")
        monkeypatch.setattr(module, "lift_iteration_cap", lambda e: lift_iteration_cap(e) - 1)
        with pytest.raises(InternalCheckError, match=r"^certificate failed self-check: [EF] idempotency; "
                                                     r"input RingMatrix\(Z") as err:
            decompose(a)
        assert err.value.matrix is a


class TestZm:
    def test_prime_moduli_match_field_path(self, rng):
        # over GF(p) the solver's split is returned as it is
        for p in (2, 3):
            a = RingMatrix.random(3, zm_ring(p), rng)
            (e, f), tags = _krylov_solve(a.coeffs[0], p)
            cert = decompose(a)
            assert (cert.e.coeffs == e).all() and (cert.f.coeffs == f).all()
            assert cert.case_tags == tags

    def test_idempotent_scalar(self):
        cert = decompose(RingMatrix.from_rows([[4]], zm_ring(6)))
        assert cert.e.to_rows() == [[4]]
        assert cert.f.is_zero() and cert.w.is_zero()

    def test_zero_matrix_zero_certificate(self):
        cert = decompose(RingMatrix.zeros(2, zm_ring(6)))
        assert cert.e.is_zero() and cert.f.is_zero() and cert.w.is_zero()

    def test_unsupported_moduli(self):
        for m in (5, 10, 35, 77):
            with pytest.raises(UnsupportedRingError):
                decompose(RingMatrix.identity(1, zm_ring(m)))

    def test_trunc_entries_rejected(self):
        with pytest.raises(InputError):
            decompose_zm(RingMatrix.zeros(1, MatrixRing(factorize(6), 2)))

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2)])
    def test_exhaustive_small(self, n, m):
        ring = zm_ring(m)
        bound = ring.nilpotency_bound(n)
        for entries in itertools.product(range(m), repeat=n * n):
            a = RingMatrix(ring, np.array(entries, dtype=np.int64).reshape(1, n, n))
            cert = decompose(a)
            assert cert.verified and cert.nilpotency_exponent <= bound

    @given(st.sampled_from(SMOOTH), st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_random_verified(self, m, n, seed):
        gen = np.random.default_rng(seed)
        cert = decompose(RingMatrix.random(n, zm_ring(m), gen))
        assert cert.verified
        assert cert.nilpotency_exponent <= cert.a.ring.nilpotency_bound(n)

    def test_deterministic(self, rng):
        a = RingMatrix.random(4, zm_ring(36), rng)
        c1, c2 = decompose(a), decompose(RingMatrix(a.ring, a.coeffs.copy()))
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

    @given(st.sampled_from(SMOOTH),
           st.one_of(st.integers(1, 12).map(lambda n: [1] * n),
                     st.lists(st.integers(1, 8), min_size=1, max_size=4)),
           st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_decompose_keeps_block_triangular_shape(self, m, sizes, seed):
        # the Krylov scan meets the leading blocks' coordinates first, so its
        # basis, and E, F and W with it, stay block upper triangular
        n = sum(sizes)
        starts = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
        below = starts[:, None] > np.arange(n)[None, :]  # left of each row's block
        a = RingMatrix.random(n, zm_ring(m), np.random.default_rng(seed))
        a.coeffs[0][below] = 0
        cert = decompose(a)
        for part in (cert.e, cert.f, cert.w):
            assert not part.coeffs[0][below].any()
        if n == len(sizes):
            assert decompose_triangular(a) == cert

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
        lifted = RingMatrix(MatrixRing(factorize(6), 1), a.coeffs.copy())
        assert decompose(lifted).e == decompose_zm(a).e

    def test_nilpotent_generator_stays_in_w(self):
        cert = decompose(RingMatrix.from_rows([[[0, 1, 0]]], MatrixRing(factorize(2), 3)))
        assert cert.e.is_zero() and cert.f.is_zero()
        assert cert.w.to_rows() == [[[0, 1, 0]]]
        assert cert.nilpotency_exponent == 3

    def test_unit_plus_x(self):
        cert = decompose(RingMatrix.from_rows([[[1, 1]]], MatrixRing(factorize(3), 2)))
        assert cert.e.to_rows() == [[[1, 0]]]
        assert cert.f.is_zero()
        assert cert.w.to_rows() == [[[0, 1]]]
        assert cert.e.is_idempotent()

    def test_exhaustive_one_by_one(self):
        for m, d in ((2, 3), (3, 2)):
            ring = MatrixRing(factorize(m), d)
            for coeffs in itertools.product(range(m), repeat=d):
                a = RingMatrix.from_rows([[list(coeffs)]], ring)
                cert = decompose(a)
                assert cert.verified

    @given(st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_random_z6x2(self, n, seed):
        gen = np.random.default_rng(seed)
        cert = decompose(RingMatrix.random(n, MatrixRing(factorize(6), 2), gen))
        assert cert.verified

    def test_unsupported_base(self):
        with pytest.raises(UnsupportedRingError):
            decompose(RingMatrix.zeros(1, MatrixRing(factorize(5), 2)))


class TestDispatch:
    def test_routes_by_ring(self, rng):
        a = RingMatrix.random(2, zm_ring(12), rng)
        assert decompose(a).verified
        b = RingMatrix.random(2, MatrixRing(factorize(6), 2), rng)
        assert decompose(b).verified


# SHA-256 digests of certificate_to_doc over seeded matrices, recorded while
# each prime power was solved and lifted on its own before the CRT: (m, d,
# digest) per ring Z_m[x]/(x^d), over decompose(A) for each n in PINNED_SIZES
# and, over plain Z_m, decompose_triangular of A's upper triangle.  Start
# points congruent to the GF(p) solutions only mod p, not mod p^k (recombined
# modulo the product of the primes), lift to other idempotents and change the
# certificates wherever m has two primes and an exponent above 1.  The plain
# Z_m digests were re-pinned when decompose_triangular became decompose plus
# shape checks: its documents gained the case tags of their 1 x 1 blocks, and
# with that line removed they hash as before.
PINNED_SIZES = (1, 2, 3, 5, 8, 13, 21, 33)
PINNED_CERTIFICATES = [
    (2, 1, "8a0a5bde58d98ecd4e2d57af3641ea1f6cebe757d4eea0fd8ffe83cca9138066"),
    (3, 1, "c09ce6d247f70c13f8dd7e7bfc0b7b8f660c407631c9e078f09f35c932a8c0b4"),
    (4, 1, "e1bbc74b80821d482bbb86975102ed2a2500172e133b1be67eadf12db0e443f9"),
    (6, 1, "c06c22efc94200c4cea600205dc46a080b9f944363a869e85473a8577c114b5b"),
    (8, 1, "52d39e5bfe9ce94249fb5e1617d933c97ac7875b7bc352912dddb81594321294"),
    (9, 1, "5298d88c30973320e39648841b63884247e5cd73ee2510c851bccc182896f5ab"),
    (12, 1, "5d0d8e6dd093693e431fff2ad62e56e925a7e37049e73cbe10569d6208e184c9"),
    (16, 1, "680b746d1bb4dc54ff8be210b26ca2164af6b7d00236a3da3b0bb0953c44cbaf"),
    (18, 1, "10d7f3d430c89f6982fc49207f3ae3d77b2159d1e2510b3b012568712945114f"),
    (24, 1, "ea7760415829fc25a00581670140077f2978cb6a542af3339a16245b0eac7b6a"),
    (27, 1, "d9bd61ef2b575e2bd1bee06ca1e76b4a91959783bfb2b913dcbf0592337c50e3"),
    (32, 1, "b7891d9648a99fa35c8c1235226e92223859d3acbdc540e91a85b3f52d7b5ace"),
    (36, 1, "13445aca76783a48d3005c991248c71ab12853ac9db14c23579f2f94b5efc0d4"),
    (48, 1, "6c50ba73f9f3c3025c6725130f2cf397bf74157ccdd0b3791f5ac39f65cdd5f0"),
    (54, 1, "159182e45ba478de938e9433138feb18c21aa6cb351fe612404752be9fc62ff9"),
    (64, 1, "7a840aff3b855c250f2c05dabe2ef1db37edef66fd299c6946fdf7394d6679f1"),
    (72, 1, "c199bf27721c60187842c2abd98ad6072124abfc39bd3654eacc4946fa500f5a"),
    (81, 1, "6a2dc6bb28cd755a554e6773a795448014df404d53effd265af5d161a54513a0"),
    (96, 1, "1e785b0d90bf63a8ae1826788c0095f09865db3ecc20fc079f13e48b883fc60d"),
    (108, 1, "a0f0b12e3b1b2ba913f72b97687610426968ae4a9d5493e6c3ea9e4113689c66"),
    (128, 1, "87cf5bbcf00aef50faba9422c0373dc639dde4fe751c5554b5f223c13e0b2fca"),
    (144, 1, "2fbfe3092200f46d9388d35764e820d67c2929ddc6e8c68841fa78fb449aa8b8"),
    (162, 1, "8c421c3023339959eae86fa8bce66d0bb4dbb96489e9f93667bd7ce2ffda4156"),
    (192, 1, "a08cba3d5952e6b31d982cd06055a71567e1eea874ae961cd66df88b030d5fed"),
    (2**31, 1, "125d7b246be08d0deb4100627d3302d71a1e8ebed1c738721c966abc52954593"),
    (3**19, 1, "4859fed1f6b9e7723b38191d3b317e8100e918d4ab53b3aa7f04686b9c4a2a4f"),
    (2**17 * 3**8, 1, "e04fb4868dc1e3e2571bd58283de0363673a45e9680657a3ff80fd72db7fb396"),
    (2, 2, "1da9b9b9786b3c6776ef632d20b6787a80353d01f4d6b85e8ed168ca6dbaccfb"),
    (2, 3, "cc229e83e60ed0ecfc10bdc0a55e2c4db99fe387a68bec493c484a547afb100e"),
    (2, 5, "b4dd05c2282927583c6e4e6a1c844bf59c48a616db80aae73ba3b3dd40f88b52"),
    (3, 2, "7ad4eb83f983f5eb22aa420a62372c9f4d9f5f5f120d56cabfcd6fe46e6c185a"),
    (3, 3, "10ee3734bfdccefe72a417cb96ed1957d64c5fdd635b6f6955d77a938b699dd4"),
    (3, 5, "5fbd18e0a2621e1874f8131680a220addd3ebeebe6e9b1598333598e28051f81"),
    (4, 2, "6e9a78af2354810c967389f22ee295115bbfbdaf44fe9672a87a7fe2f9bd2132"),
    (4, 3, "1d4444d5d6a9dfe8dcce6bc9275caa4d21839c03cc5fe1baa9feb0f1e0d16e39"),
    (4, 5, "1959f12fc1dc6e33759852cc130c2d230961049d399eaf7c55192402d24c70b5"),
    (6, 2, "d2d7998c39eb410b23555bd31e82b4cd0eadfd0ad93b48aa6391d608b062b8cc"),
    (6, 3, "6fb9ba253a6d77e186180f9f3291a87c0aaf8111aaef8146c30b61780c52d754"),
    (6, 5, "ede9164b748794f29361c4ead0d9a92e56ed3364a77868a7d4cc4b6ebb9bd92c"),
    (8, 2, "df59915bae3c813afbbc3ba5bc1ca2826dded830e93b3cf0379bb96a00a26c8a"),
    (8, 3, "7720c0a5db20db980822423bbdeebfbe74c72c32d6d41ccc0ceac096b06de8ce"),
    (8, 5, "00d2e7658ebbe4f0d0b672d034e35262c6a3ffc466420a881d7a32d0a2bdb673"),
    (9, 2, "70a748bf1d6415c5c49aec0241bc2a658b620e675db24c100d65036ebf22c633"),
    (9, 3, "37c80789dae2fe2d6126db81731b582a9cc6eeef1a5bd154a3c5511088d1a5d4"),
    (9, 5, "0fc14858cde8c8baca633aa4cbbe673eafa0b58c7cae71379a4c7f8d6ecd5e83"),
    (12, 2, "b195d3a4cd1fd11274f1d58c3923757ac395f0f06f16a9b8e77478a2d3f39ef5"),
    (12, 3, "72528372e0015837a88479ef7c86aa28c26264f27f195d905f1237eb5da1b31b"),
    (12, 5, "7244a7ba7c2b535ac3b2fce2f453e7f9cb3f5597ded09866ea87c8555b4ec5cd"),
    (36, 2, "092912894a20881703b3cd426e67eff20386b3645de2028ac66bd1d253f46802"),
    (36, 3, "014948b74b25e70037ba7235519723469d86aaef829fa64144aa01ea1c768d93"),
    (36, 5, "1c651b0e98c6bc41dd71bab9478a14abb39805c2ffc358916d6f71e8e6e0b188"),
    (72, 2, "98a131f92f2fcf3b4770cb6c0f2d6d6d889ca531ba636dd1e3f29cb121cd214d"),
    (72, 3, "5d14513a6f440023627fc60d7ab37630a33d3b2a8f8bf2d2c5a5e8505eb60a2b"),
    (72, 5, "1415d804a90e2d0aebf01b43ed30c698b7c7ec9efc77ae312b528f0cac4543a2"),
]


class TestPinnedCertificates:
    """decompose and decompose_triangular are bit-for-bit the pinned ones on
    every 2-3-smooth m <= 200, three moduli past 2^23 and nine
    coefficient rings Z_m[x]/(x^d)."""

    @pytest.mark.parametrize("m,d,digest", PINNED_CERTIFICATES,
                             ids=[f"m{m}-d{d}" for m, d, _ in PINNED_CERTIFICATES])
    def test_digests(self, m, d, digest):
        ring = MatrixRing(factorize(m), d)
        rng = np.random.default_rng([m, d])
        h = hashlib.sha256()
        for n in PINNED_SIZES:
            a = RingMatrix.random(n, ring, rng)
            h.update(certificate_to_doc(decompose(a)).encode())
            if d == 1:
                t = RingMatrix(a.ring, a.coeffs.copy())
                t.coeffs[0][np.tril_indices(n, k=-1)] = 0
                h.update(certificate_to_doc(decompose_triangular(t)).encode())
        assert h.hexdigest() == digest


def derogatory_conjugate(n, ring, gen):
    """L D L^-1 over Z_m with D one random 4 x 4 block repeated down the
    diagonal (every invariant factor the same) and L random unit lower
    triangular; over Z_m[x]/(x^d), the same matrix as a constant term."""
    plain = zm_ring(ring.m)
    block = gen.integers(0, ring.m, (4, 4))
    d = RingMatrix.from_rows(np.kron(np.eye(n // 4, dtype=np.int64), block).tolist(), plain)
    low = np.tril(gen.integers(0, ring.m, (n, n)), -1) + np.eye(n, dtype=np.int64)
    p = RingMatrix.from_rows(low.tolist(), plain)
    x = p @ d @ p.inverse()
    return RingMatrix(ring, np.pad(x.coeffs, ((0, ring.d - 1), (0, 0), (0, 0))))


# SHA-256 of certificate_to_doc over decompose of a seeded random matrix and
# a derogatory conjugate, at n = 32 and then 64.  The plain rows were recorded
# while every product ran in int64, the Z72[x]/(x^2) row while truncated
# products did: the float64 products from BLAS_MIN_DIMENSION up, plain or
# truncated, must not move a byte.
PINNED_LARGE = [
    (72, 1, "0ac2bb0cfde5ae12a78833a015d2d304da38768b0844944eee889f7e6e0ca390"),
    (6, 1, "422f7331d86fdea1f4a4698f9c2f665ce069faae2bc3cc916a8c2bdd28395c5a"),
    (72, 2, "d680068a1e7d013feb6b1a203d4285b85f19d056b4f3abe35f59c643c8e38bc3"),
]


class TestPinnedLarge:
    @pytest.mark.parametrize("m,d,digest", PINNED_LARGE,
                             ids=[f"m{m}" if d == 1 else f"m{m}-d{d}" for m, d, _ in PINNED_LARGE])
    def test_digests(self, m, d, digest):
        ring = MatrixRing(factorize(m), d)
        gen = np.random.default_rng([m, 64])
        h = hashlib.sha256()
        for n in (32, 64):
            for make in (RingMatrix.random, derogatory_conjugate):
                h.update(certificate_to_doc(decompose(make(n, ring, gen))).encode())
        assert h.hexdigest() == digest


def every_matrix(n, m):
    for entries in itertools.product(range(m), repeat=n * n):
        yield [list(entries[i * n : (i + 1) * n]) for i in range(n)]


def every_companion(p, top):
    for d in range(1, top + 1):
        for col in itertools.product(range(p), repeat=d):
            yield companion(p, col)


# Per population: the histograms {exponent: matrices} of the certificate's W
# and of the oracle's least index of W over every decomposition.
INDEX_TABLE = [
    ("m2-z2", 2, lambda: every_matrix(2, 2), {1: 4, 2: 12}, {1: 14, 2: 2}),
    ("m2-z3", 3, lambda: every_matrix(2, 3), {1: 15, 2: 66}, {1: 53, 2: 28}),
    ("m2-z4", 4, lambda: every_matrix(2, 4), {1: 4, 2: 108, 3: 48, 4: 96}, {1: 113, 2: 143}),
    ("m3-z2", 2, lambda: every_matrix(3, 2), {1: 8, 2: 168, 3: 336}, {1: 352, 2: 160}),
    ("companion-gf2-deg4", 2, lambda: every_companion(2, 4), {1: 2, 2: 4, 3: 8, 4: 16}, {1: 15, 2: 15}),
    ("companion-gf3-deg3", 3, lambda: every_companion(3, 3), {1: 5, 2: 16, 3: 18}, {1: 17, 2: 22}),
]


class TestIndexAgainstOracle:
    """The certificate's nilpotency exponent against the least one over all
    decompositions, by the oracle, on small populations (ROADMAP item 8,
    step 1).  The certificate is one decomposition, so the oracle's least
    index is at most its exponent; the conjecture is that it is at most 2
    over GF(2) and GF(3)."""

    @pytest.mark.parametrize("m,matrices,cert_hist,oracle_hist",
                             [row[1:] for row in INDEX_TABLE], ids=[row[0] for row in INDEX_TABLE])
    def test_histograms(self, m, matrices, cert_hist, oracle_hist):
        certified, least, over_two = collections.Counter(), collections.Counter(), []
        for rows in matrices():
            k = decompose(RingMatrix.from_rows(rows, zm_ring(m))).nilpotency_exponent
            ring = parse_ring_descriptor(f"M{len(rows)}(Z{m})")
            low = min_nilpotent_index_over_decompositions(ring, (tuple(itertools.chain(*rows)),))
            assert low is not None and low <= k, rows
            certified[k] += 1
            least[low] += 1
            if low > 2:
                over_two.append(rows)
        assert not over_two, f"the oracle's least index exceeds 2 on {over_two}"
        assert dict(certified) == cert_hist
        assert dict(least) == oracle_hist
