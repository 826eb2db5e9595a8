"""The constructive decomposition pipeline, from companion blocks to full rings."""

import collections
import hashlib
import importlib
import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    companion,
    inverse_naive,
    mat_mul_naive,
    nilpotency_naive_exact,
    rank_naive,
    smooth_moduli,
    trace_family,
    trace_family_j,
    unit_triangular_inverse,
)
from nilclean.classifier import min_nilpotent_index_over_decompositions, parse_ring_descriptor
from nilclean.cli import certificate_to_doc
from nilclean.decompose import (
    _krylov_solve,
    _lift_idempotents,
    _parts,
    decompose,
    decompose_triangular,
    decompose_zm,
)
from nilclean.errors import InputError, InternalCheckError, UnsupportedRingError
from nilclean.gfp import krylov_form
from nilclean.matrix import (
    BLAS_MIN_DIMENSION,
    DecompositionCertificate,
    MatrixRing,
    RingMatrix,
    _min_exponent,
    verify_certificate,
    zm_ring,
)

SMOOTH = smooth_moduli(72)


def block_of(p, last_col):
    return RingMatrix.from_rows(companion(p, last_col), zm_ring(p))


def split_block(p, last_col):
    """E, F, W and the case tag of the companion block with this last column.
    The Krylov form of a companion matrix is the matrix itself (Q = I), so
    decompose returns the family's split and one tag."""
    cert = decompose(block_of(p, last_col))
    (tag,) = cert.case_tags
    assert tag.endswith(f":n{len(last_col)}")
    return cert.e, cert.f, cert.w, tag


def family_split(p, last_col):
    """Rows of E, F and W and the case tag that the trace family, as conftest
    rebuilds it, gives the companion block with this last column: E holds
    c_A - c_g in its last column, F = S and W = C_g - S; [0] is 0 + 0 + 0."""
    d = len(last_col)
    j = trace_family_j(p, d, last_col[-1])
    if j is None:
        return [[0]], [[0]], [[0]], f"gf{p}:zero:n1"
    c_g, s = trace_family(p, d, j)
    e = [[0] * (d - 1) + [(a - b) % p] for a, b in zip(last_col, c_g)]
    w = [[(x - y) % p for x, y in zip(row_c, row_s)] for row_c, row_s in zip(companion(p, c_g), s)]
    return e, s, w, f"gf{p}:j{j}:n{d}"


def is_zero(x):
    return not x.coeffs.any()


def check_block_triple(p, last_col, e, f, w):
    a = block_of(p, last_col)
    assert e @ e == e
    assert f @ f == f
    assert (e + f + w) == a
    return _min_exponent(w.coeffs, p, w.ring.nilpotency_bound(w.n))


def check_block(p, last_col):
    """decompose splits the block as the family does, into idempotents and a
    nilpotent of index exactly max(j, d - j) (1 for [0]); returns the tag."""
    e, f, w, tag = split_block(p, last_col)
    assert (e.to_rows(), f.to_rows(), w.to_rows(), tag) == family_split(p, last_col)
    d, j = len(last_col), trace_family_j(p, len(last_col), last_col[-1])
    assert check_block_triple(p, last_col, e, f, w) == (1 if j is None else max(j, d - j))
    return tag


class TestCompanionGf3:
    def test_trace_one_display(self):
        e, f, w, tag = split_block(3, (1, 1))
        assert e.to_rows() == [[0, 1], [0, 1]]
        assert is_zero(f)
        assert w.to_rows() == [[0, 0], [1, 0]]
        assert tag == "gf3:j0:n2"

    def test_trace_zero_dim2_display(self):
        # j = 2: g = (x - 1)^2, S = I and W = C_g - I
        for c0 in range(3):
            e, f, w, tag = split_block(3, (c0, 0))
            assert e.to_rows() == [[0, (c0 + 1) % 3], [0, 1]]
            assert f == RingMatrix.identity(2, zm_ring(3))
            assert w.to_rows() == [[2, 2], [1, 1]]
            assert tag == "gf3:j2:n2"

    def test_trace_minus_one_corrected(self):
        # block [[0,1],[1,2]]: j = 1, g = (x - 1) x, and S = C_g, so W = 0
        e, f, w, tag = split_block(3, (1, -1))
        assert e.to_rows() == [[0, 1], [0, 1]]
        assert f.to_rows() == [[0, 0], [1, 1]]
        assert is_zero(w)
        assert tag == "gf3:j1:n2"
        check_block_triple(3, (1, 2), e, f, w)

    def test_trace_zero_dim3_display(self):
        # j = 2: g = (x - 1)^2 x and s = 2x + 2x^2, which is 1 mod (x - 1)^2
        # and 0 mod x; W^2 = 0
        for c0 in range(3):
            for c1 in range(3):
                e, f, w, tag = split_block(3, (c0, c1, 0))
                assert e.to_rows() == [[0, 0, c0], [0, 0, (c1 + 1) % 3], [0, 0, 1]]
                assert f.to_rows() == [[0, 0, 0], [2, 1, 0], [2, 0, 1]]
                assert w.to_rows() == [[0, 0, 0], [2, 2, 2], [1, 1, 1]]
                assert tag == "gf3:j2:n3"
                assert check_block_triple(3, (c0, c1, 0), e, f, w) == 2

    @pytest.mark.parametrize("deg", range(1, 7))
    def test_exhaustive_blocks(self, deg):
        for last_col in itertools.product(range(3), repeat=deg):
            check_block(3, last_col)

    @pytest.mark.parametrize("deg", (7, 8))
    def test_trace_zero_template_large_blocks(self, deg):
        # every trace-zero block of these degrees: j = 2 at d = 7 (a tie with
        # 5 at distance 3/2 from d/2) and j = 5 at d = 8
        for rest in itertools.product(range(3), repeat=deg - 1):
            assert check_block(3, rest + (0,)) == f"gf3:j{2 if deg == 7 else 5}:n{deg}"

    def test_wrong_field_rejected(self):
        # decompose solves over GF(2) and GF(3) only
        with pytest.raises(UnsupportedRingError):
            split_block(5, (1, 1))


class TestCompanionGf2:
    def test_trace_one(self):
        # j = 0 (a tie with j = 2): g = x^2, S = 0
        for c0 in range(2):
            e, f, w, tag = split_block(2, (c0, 1))
            assert e.to_rows() == [[0, c0], [0, 1]]
            assert is_zero(f)
            assert w.to_rows() == [[0, 0], [1, 0]]
            assert tag == "gf2:j0:n2"

    def test_trace_zero_corner_split(self):
        # j = 1: g = (x - 1) x and S = C_g, so W = 0
        for c0 in range(2):
            e, f, w, tag = split_block(2, (c0, 0))
            assert e.to_rows() == [[0, c0], [0, 1]]
            assert f.to_rows() == [[0, 0], [1, 1]]
            assert is_zero(w)
            assert tag == "gf2:j1:n2"
            check_block_triple(2, (c0, 0), e, f, w)

    def test_zero_block_stays_zero(self):
        e, f, w, tag = split_block(2, (0,))
        assert is_zero(e) and is_zero(f) and is_zero(w)
        assert tag == "gf2:zero:n1"

    @pytest.mark.parametrize("deg", range(1, 9))
    def test_exhaustive_blocks(self, deg):
        for last_col in itertools.product(range(2), repeat=deg):
            check_block(2, last_col)

    def test_wrong_field_rejected(self):
        with pytest.raises(UnsupportedRingError):
            split_block(7, (1, 1))


FAMILY_DEGREES = (*range(1, 17), 31, 32, 33, 63, 64)


class TestTraceFamily:
    """The trace family, rebuilt by conftest in Python ints apart from the
    package, for every p in {2, 3}, d in FAMILY_DEGREES and j in [0, d]:
    S^2 = S, rk S = j, C_g - S has index exactly max(j, d - j), and a
    companion block C_A of trace j + 1 is E + S + (C_g - S) with
    E = (c_A - c_g) e_(d-1)^T idempotent (about 2 s)."""

    @staticmethod
    def power(x, k, p):
        out = np.eye(len(x), dtype=np.int64)
        while k:
            out, x, k = (out @ x % p if k & 1 else out), x @ x % p, k >> 1
        return out

    @pytest.mark.parametrize("p", (2, 3))
    def test_every_key(self, p):
        gen = np.random.default_rng(p)
        for d in FAMILY_DEGREES:
            for j in range(d + 1):
                c_g, s = trace_family(p, d, j)
                assert rank_naive(s, p) == j, (d, j)
                s, c = np.array(s, dtype=np.int64), np.array(companion(p, c_g), dtype=np.int64)
                assert (s @ s % p == s).all(), (d, j)
                w, k = (c - s) % p, max(j, d - j)
                assert not self.power(w, k, p).any() and self.power(w, k - 1, p).any(), (d, j)
                c_a = [*gen.integers(0, p, d - 1), (j + 1) % p]
                a = np.array(companion(p, c_a), dtype=np.int64)
                e = np.zeros((d, d), dtype=np.int64)
                e[:, -1] = (np.array(c_a) - c_g) % p
                assert (e @ e % p == e).all() and ((e + s + w) % p == a).all(), (d, j)

    def test_choice_of_j(self):
        # j = t - 1 (mod p) nearest d/2, so rk E + rk F = j + 1 = t (mod p)
        assert [trace_family_j(2, d, 1) for d in (1, 2, 3, 4, 64)] == [0, 0, 2, 2, 32]
        assert [trace_family_j(3, 64, t) for t in range(3)] == [32, 33, 31]
        assert trace_family_j(3, 1, 0) is None and trace_family_j(3, 2, 0) == 2


class TestFieldMatrix:
    def test_zero_matrix(self):
        cert = decompose(RingMatrix.zeros(3, zm_ring(3)))
        assert is_zero(cert.e) and is_zero(cert.f) and is_zero(cert.w)
        assert cert.nilpotency_exponent == 1

    def test_already_companion(self):
        # trace 0, so j = 2: F = S = I and W = C_g - I for g = (x - 1)^2
        a = RingMatrix.from_rows([[0, 1], [1, 0]], zm_ring(3))
        cert = decompose(a)
        assert cert.e.to_rows() == [[0, 2], [0, 1]]
        assert cert.f == RingMatrix.identity(2, zm_ring(3))
        assert cert.w.to_rows() == [[2, 2], [1, 1]]
        assert cert.nilpotency_exponent == 2

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
        if rank_naive(t.to_rows(), p) == n:
            t_inv = RingMatrix.from_rows(inverse_naive(t.to_rows(), p), ring)
            return t @ RingMatrix(ring, blocks[None]) @ t_inv


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
    compute them, for e and f the block-diagonal splits of krylov_form's
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
            tags.append(tag)
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
        (decompose, MatrixRing(6, 3)),
        (decompose, MatrixRing(72, 2)),
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

    @pytest.mark.parametrize("ring", [zm_ring(72), MatrixRing(72, 2), zm_ring(6), zm_ring(3)])
    def test_lift_products(self, monkeypatch, ring, rng):
        # the E/F stack is lifted on its constant (2, 1, n, n) slice, two
        # products a round for (e - 1).bit_length() rounds, and checked only
        # by the certificate check: no convergence product.  The solver's
        # conjugation Q X Q^-1, a chain, is not the lift's and is not counted
        module = importlib.import_module("nilclean.decompose")
        real, shapes = module._stack_mul, []
        monkeypatch.setattr(module, "_stack_mul", lambda a, b, m, c=None:
                            (c is None and shapes.append((a.shape, b.shape))) or real(a, b, m, c))
        assert decompose(RingMatrix.random(6, ring, rng)).verified
        products = 2 * (ring.max_exponent - 1).bit_length()
        assert products == (4 if ring.m == 72 else 0)
        assert shapes == [((2, 1, 6, 6), (2, 1, 6, 6))] * products


def lift(x):
    """_lift_idempotents on one matrix, as _parts calls it: the ring's lift
    rounds."""
    ring = x.ring
    return RingMatrix(ring, _lift_idempotents(x.coeffs[None], ring.m, ring.lift_rounds)[0])


def idempotent(x):
    return mat_mul_naive(x.to_rows(), x.to_rows(), x.ring.m) == x.to_rows()


class TestLiftMatrix:
    """_lift_idempotents on one matrix that is idempotent mod every p | m."""

    def test_identity_fixed(self):
        ident = RingMatrix.identity(2, zm_ring(4))
        assert lift(ident) == ident

    def test_scalar_matches_element_lift(self):
        assert lift(RingMatrix.from_rows([[3]], zm_ring(4))).to_rows() == [[1]]

    def test_already_idempotent_stays(self):
        x = RingMatrix.from_rows([[1, 2], [0, 0]], zm_ring(4))
        out = lift(x)
        assert out == x
        assert (out.coeffs[0] % 2).tolist() == [[1, 0], [0, 0]]

    def test_nontrivial_lift(self):
        x = RingMatrix.from_rows([[1, 1], [2, 2]], zm_ring(4))
        out = lift(x)
        assert idempotent(out) and not idempotent(x)
        assert np.array_equal(out.coeffs % 2, x.coeffs % 2)

    def test_result_proved_idempotent(self):
        # one round short of the count leaves x unlifted: Z4 needs its one
        # round (TestLiftRounds checks that the certificate check then names
        # the input)
        x = RingMatrix.from_rows([[1, 1], [2, 2]], zm_ring(4))
        rounds = x.ring.lift_rounds
        assert rounds == 1
        short = RingMatrix(x.ring, _lift_idempotents(x.coeffs[None], 4, rounds - 1)[0])
        assert short == x and not idempotent(short)
        assert idempotent(lift(x))

    @given(st.sampled_from((4, 8, 9, 27)), st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_eligible_lifts(self, q, n, seed):
        gen = np.random.default_rng(seed)
        ring = zm_ring(q)
        p = ring.primes[0]
        base = decompose(
            RingMatrix.random(n, zm_ring(p), gen)
        ).e  # a random-ish idempotent over GF(p)
        noise = RingMatrix.random(n, ring, gen)
        x = RingMatrix.from_rows(
            (np.array(base.to_rows()) + p * np.array(noise.to_rows())).tolist(), ring
        )
        lifted = lift(x)
        assert idempotent(lifted)
        assert (lifted.coeffs[0] % p).tolist() == base.to_rows()


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
        for ring in (zm_ring(3), zm_ring(6), MatrixRing(6, 2), zm_ring(9), MatrixRing(36, 2)):
            decompose(RingMatrix.random(3, ring, rng))
        assert [(m, shape) for m, shape, rounds in lifted if rounds] == [(9, (2, 1, 3, 3)), (36, (2, 1, 3, 3))]

    def test_doubled_identity(self):
        cert = decompose(RingMatrix.from_rows([[2, 0], [0, 2]], zm_ring(4)))
        assert is_zero(cert.e) and is_zero(cert.f)
        assert cert.w.to_rows() == [[2, 0], [0, 2]]
        assert cert.nilpotency_exponent == 2

    def test_scalar_three_mod_nine(self):
        cert = decompose(RingMatrix.from_rows([[3]], zm_ring(9)))
        assert is_zero(cert.e) and is_zero(cert.f)
        assert cert.w.to_rows() == [[3]] and cert.nilpotency_exponent == 2


def residually_idempotent_stack(m, n, gen):
    """A (2, 1, n, n) stack over Z_m, each matrix congruent mod every p | m
    to g D g^-1, D a random 0/1 diagonal and g invertible over GF(p), plus a
    random multiple of rad(m): the shape of decompose's start points."""
    mod = zm_ring(m)
    rad = math.prod(mod.primes)
    stack = rad * gen.integers(0, m // rad, size=(2, 1, n, n))
    for p, c in zip(mod.primes, mod.crt_basis):
        for k in range(2):
            while rank_naive((g := RingMatrix.random(n, zm_ring(p), gen)).to_rows(), p) < n:
                pass
            proj = g.coeffs[0] @ np.diag(gen.integers(0, 2, n)) @ np.array(inverse_naive(g.to_rows(), p)) % p
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
    """The lift runs exactly MatrixRing.lift_rounds rounds, the least r with
    2^r >= e for e the largest exponent of m: the start point is constant
    and idempotent mod every p | m, so its defect lies in rad(m) M_n(Z_m)
    and each round squares it."""

    @pytest.mark.parametrize("d", (1, 2, 3, 4))
    def test_fixed_rounds_equal_lift_until_fixed(self, d):
        gen = np.random.default_rng(d)
        moduli = smooth_moduli(10**4) + [2**30, 3**19]
        needed = 0
        for m in moduli * 3:
            n = int(gen.integers(1, 5))
            start = residually_idempotent_stack(m, n, gen)
            rounds = zm_ring(m).lift_rounds
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
        monkeypatch.setitem(a.ring.__dict__, "lift_rounds", a.ring.lift_rounds - 1)
        with pytest.raises(InternalCheckError, match=r"^certificate failed self-check: [EF] idempotency; "
                                                     r"input RingMatrix\(Z") as err:
            decompose(a)
        assert err.value.matrix is a


class TestCrtAndLiftAtFive:
    """_parts' loop does not depend on which primes have a solver: given a
    brute-force GF(5) solver, every decomposable matrix of M2(Z5), a prime
    field, every matrix of M2(Z10) that decomposes mod 5, and a sample of
    M2(Z25), which needs one lift round, get a certificate that verifies
    (about 1 s together)."""

    @pytest.fixture(scope="class")
    def splits(self):
        """{A mod 5 as a flat tuple: its first (E, F)} over M2(GF(5)), found by
        trying every pair of idempotents and every nilpotent (W^2 = 0)."""
        mats = np.array(list(itertools.product(range(5), repeat=4))).reshape(-1, 2, 2)
        idempotents = [x for x in mats if not ((x @ x - x) % 5).any()]
        nilpotents = [x for x in mats if not (x @ x % 5).any()]
        table = {}
        for e, f in itertools.product(idempotents, repeat=2):
            for w in nilpotents:
                table.setdefault(tuple(((e + f + w) % 5).ravel().tolist()), np.array([[e], [f]]))
        return table

    @pytest.fixture(scope="class")
    def solve(self, splits):
        """_krylov_solve, answering from the table at p = 5."""
        return lambda mat, p: (splits[tuple(mat.ravel().tolist())], ("gf5:brute",)) if p == 5 \
            else _krylov_solve(mat, p)

    @staticmethod
    def certify(a, solve):
        e, f, w, tags = _parts(a, solve)
        cert = DecompositionCertificate(a, e, f, w, None, tags)
        assert verify_certificate(cert), (a, cert.failure)
        return cert

    def test_every_decomposable_matrix_of_m2_z5(self, splits, solve):
        # over the field itself the solver's split is returned as it is
        assert len(splits) == 423
        ring = zm_ring(5)
        for entries, (e, f) in splits.items():
            cert = self.certify(RingMatrix.from_rows([entries[:2], entries[2:]], ring), solve)
            assert (cert.e.coeffs == e).all() and (cert.f.coeffs == f).all()
            assert cert.case_tags == ("gf5:brute",)

    def test_every_decomposable_matrix_of_m2_z10(self, splits, solve):
        ring, done = zm_ring(10), 0
        for entries in itertools.product(range(10), repeat=4):
            if tuple(x % 5 for x in entries) in splits:
                self.certify(RingMatrix.from_rows([entries[:2], entries[2:]], ring), solve)
                done += 1
        assert done == 6768

    def test_sample_of_m2_z25(self, splits, solve):
        ring = zm_ring(25)
        assert ring.lift_rounds == 1
        gen = np.random.default_rng(25)
        classes = np.array(sorted(splits)).reshape(-1, 2, 2)
        lifted = 0
        for c, noise in zip(gen.choice(classes, 2000), gen.integers(0, 5, (2000, 2, 2))):
            cert = self.certify(RingMatrix.from_rows((c + 5 * noise).tolist(), ring), solve)
            # an E or F with an entry >= 5 is not the start point: the lift moved it
            lifted += bool((cert.e.coeffs >= 5).any() or (cert.f.coeffs >= 5).any())
        assert lifted > 0


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
        assert is_zero(cert.f) and is_zero(cert.w)

    def test_zero_matrix_zero_certificate(self):
        cert = decompose(RingMatrix.zeros(2, zm_ring(6)))
        assert is_zero(cert.e) and is_zero(cert.f) and is_zero(cert.w)

    def test_unsupported_moduli(self):
        for m in (5, 10, 35, 77):
            with pytest.raises(UnsupportedRingError):
                decompose(RingMatrix.identity(1, zm_ring(m)))

    def test_trunc_entries_rejected(self):
        with pytest.raises(InputError):
            decompose_zm(RingMatrix.zeros(1, MatrixRing(6, 2)))

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
        assert is_zero(cert.e) and is_zero(cert.f) and cert.w == t

    def test_diagonal_example(self):
        # per-entry tables: 5 = 1 + 4 + 0 and 2 = 4 + 4 + 0 in Z_6
        cert = decompose_triangular(RingMatrix.from_rows([[5, 0], [0, 2]], zm_ring(6)))
        assert cert.e.to_rows() == [[1, 0], [0, 4]]
        assert cert.f.to_rows() == [[4, 0], [0, 4]]
        assert is_zero(cert.w)

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
        lifted = RingMatrix(MatrixRing(6, 1), a.coeffs.copy())
        assert decompose(lifted).e == decompose_zm(a).e

    def test_nilpotent_generator_stays_in_w(self):
        cert = decompose(RingMatrix.from_rows([[[0, 1, 0]]], MatrixRing(2, 3)))
        assert is_zero(cert.e) and is_zero(cert.f)
        assert cert.w.to_rows() == [[[0, 1, 0]]]
        assert cert.nilpotency_exponent == 3

    def test_unit_plus_x(self):
        cert = decompose(RingMatrix.from_rows([[[1, 1]]], MatrixRing(3, 2)))
        assert cert.e.to_rows() == [[[1, 0]]]
        assert is_zero(cert.f)
        assert cert.w.to_rows() == [[[0, 1]]]
        assert cert.e @ cert.e == cert.e

    def test_exhaustive_one_by_one(self):
        for m, d in ((2, 3), (3, 2)):
            ring = MatrixRing(m, d)
            for coeffs in itertools.product(range(m), repeat=d):
                a = RingMatrix.from_rows([[list(coeffs)]], ring)
                cert = decompose(a)
                assert cert.verified

    @given(st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_random_z6x2(self, n, seed):
        gen = np.random.default_rng(seed)
        cert = decompose(RingMatrix.random(n, MatrixRing(6, 2), gen))
        assert cert.verified

    def test_unsupported_base(self):
        with pytest.raises(UnsupportedRingError):
            decompose(RingMatrix.zeros(1, MatrixRing(5, 2)))


class TestDispatch:
    def test_routes_by_ring(self, rng):
        a = RingMatrix.random(2, zm_ring(12), rng)
        assert decompose(a).verified
        b = RingMatrix.random(2, MatrixRing(6, 2), rng)
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
# with that line removed they hash as before.  All were re-pinned when the
# trace family replaced the per-field companion templates: every block of
# degree 2 or more splits anew, and every case tag is renamed.
PINNED_SIZES = (1, 2, 3, 5, 8, 13, 21, 33)
PINNED_CERTIFICATES = [
    (2, 1, "fd8fd1500bdf2a0621290446c59bd0775ce3a0322359c01df46d61aef0cb2952"),
    (3, 1, "064c9c7564b48ea56b07957203138884bb8b7fd9afd69492cf2e19f8de1fbf9e"),
    (4, 1, "ade7ce41b52696b39ee14d5eac11269a0054036a18a4ca70891033087c7908a8"),
    (6, 1, "7c4cd47bdd05b4fb07be8315bdba389eb878e47f534946d9448da46befa293e7"),
    (8, 1, "0338912aa2cd34d4d81003a5659083ec22cc283eaa1a69b27d55c8af69a0b3cc"),
    (9, 1, "7e63da5a15ae22ab4c2a95e220d3c4988d4ebcd9660a114837c17c2902c91a0c"),
    (12, 1, "4c8747bbd033ee77ca3f83cbe147a6d5ae7588197f1678176e688bade464f9f0"),
    (16, 1, "06051e72a5a1e26d3724a05559ab14ea77d645c54c4d57cda9f52b2b311fbd32"),
    (18, 1, "89fd4b032c3a3b81feb86af0713381f912e84ed2227b245080bc8e086f44d2e8"),
    (24, 1, "a6df7c06abcd7b30f28e553f6445aa1a96b17a31fd6753f9489242ab1a43c2b2"),
    (27, 1, "6224d1efbcea22e7e69d264e2e6bd1b42dd247cdabb4d18a0a08fb8ee69f7464"),
    (32, 1, "bafcd069e85843d0dd673afa771ffe96415b7991d58e99ef3e295f1fd5fc5efb"),
    (36, 1, "d02adb065beb2ed07bdf3b2a1dc44fdc34552b6cebc8775d4631223ee391d35f"),
    (48, 1, "90dd773127ad0327e772e5e7535d093cf5bb1b650bbca6234a7a0533b151edf5"),
    (54, 1, "b5e5c590015089d1a50d3845d479bb615e3025f533dabfee59ae5f81e3985e0b"),
    (64, 1, "76951e4be5b029aa1833b44038095b5995f62127b1be91de0045162da2ba77a4"),
    (72, 1, "ff3064b1f6f159f18ec99bae50e38fc904186694bee7e410ee8b7248d6eb1dda"),
    (81, 1, "7d968cd99bc20f73f9aee358d4f5391262407995b93e18a9a41603682fcee42b"),
    (96, 1, "8eb4511b4184fcfbc9619173aef564e560df49c49eac4367b25f159329c2fe5f"),
    (108, 1, "19b39caa8357915178872e59e2e694162b16cba8aecc7c0c80f718bcfd20ed90"),
    (128, 1, "817281d3cdebacea59ab96b93486fd8251687f17eb3462f0daf483c3604697a8"),
    (144, 1, "f1ec611e48c6095204b30a10bdf690a88c5978309e725c6c0b64f1efc78be3a0"),
    (162, 1, "7466dbcf0a836c6e0a35e5fa4924976c63a054a15d67e69744534a81b7e9bf80"),
    (192, 1, "9827bace01940a614e5c7b08c84ba0036d7be51e96be1b338f180b56ec76a4ab"),
    (2**31, 1, "8567ece9163f19147c6251f5f75d57adc36cd19dcefa182f5976b71e6c211ed9"),
    (3**19, 1, "f02f46555ec53356e2f6e901e73fce723d29baaac3269d75bc88db90ff971483"),
    (2**17 * 3**8, 1, "9f6b3c4c9b91171d17c59c2f107635dcfae51b0a088c34ed5327bdbf102a4222"),
    (2, 2, "4352c19a7b0f2923c40e1fc80603a37f06ad1cca946d35a0dd067e770a648de1"),
    (2, 3, "9c5dc738000748f29bf6ef611ed900c145044725fe0e52673854a465933721ce"),
    (2, 5, "0d30444ccdea8097f243d7814d6f93c161e609873dda485f99c7bfa8c4185488"),
    (3, 2, "d23161ee01db359c9e00efdc40a33004acddc9c5b2f29cb2b0416761a90b3b5b"),
    (3, 3, "75a3bd3343bf5f0792cef82d2f9b8111a07f8524bdde1043108cb32a10214d84"),
    (3, 5, "6dcb60f29c33f2061ff24c116dc104de75736d21b7f5a4ab9ebdb7abb9cbb148"),
    (4, 2, "4f38cd40e3a9d09c11a45a24693ec73f0311b4c50012336af805bdf980578652"),
    (4, 3, "06332b3ee31da04d49baef74fd6a0792969cc597d75710041e7fdac9b2090a9d"),
    (4, 5, "c806b4ecae81d50d902f88d5df032c724bbb554cf3568241455e85b4c648a99e"),
    (6, 2, "fa71d3a91b9f4bf91a7de5becba99f45d1954b7d9009ad5b10268324eee9077d"),
    (6, 3, "aa7a6c2c53968d2f5acdb4f292479bb13904068bcf5c0f9726b7c537114e644b"),
    (6, 5, "1ac71ca61af7f8fe800f0ab5086998946a5d5b17af7822ea9941e6cdfe1bb7cd"),
    (8, 2, "73aa516d4c4c241b9ed3c930a56ba5e32efb4ee33eaa918db14c0d55c6793d76"),
    (8, 3, "6c7f7c6d3d4f23347b922fa0f713526d965609873e654adf55c8e6f8d7db0667"),
    (8, 5, "0a818ca73d3dcafa88580adfe3e8d5e0da6a5c3a7f5c4d67d41851e4c3751ba4"),
    (9, 2, "b1aec35475bcc53d0607d33540c7520d3d7e5fa0680e969c5a178e00a8ef69c4"),
    (9, 3, "16f2cb634cf73b1ee010767d8867b696eb1ddc8144d70aa65c1f016c7c2fff07"),
    (9, 5, "81149363d2dbfbe6032185bece60fdb078f1eeae653d6c731f136c9720fab125"),
    (12, 2, "762972b89d8fa75e8eb457fea0ba81f3aa0815298b2be4b139e3df82711799ff"),
    (12, 3, "128a01f23d40449aacb454f9b5f0c47fdbe2c9a4b555b516ee7b9fbd34a878f5"),
    (12, 5, "0fecd8fe33adc36c30b42e10c8b5acf95faf005b56acda44fd3aeaa6adad1ab3"),
    (36, 2, "627dba927b42783b93feb9f1d85a84c8326ef31bad0d97260ea4a441733b41c1"),
    (36, 3, "5d026bcb72bb4ed8492c3fae6564c30db3327fb8f7532a87932d51d4ce9528d9"),
    (36, 5, "d54958150ff60e94a78c043c663503192f00a36e1fc50dc9c245a6f2f07dd2ee"),
    (72, 2, "c73da633ffba353e844e7526936351f7de2265d5daff30706aae0f10e41fe4ee"),
    (72, 3, "0b1a30bcd603a9fe38abfbcf3a6fed971f6604a3332e1d1e44a6132a190c6305"),
    (72, 5, "5caf0447bb8680d463840d7b3a4df56043c24ca96af93957b3c05772b89da70c"),
]


class TestPinnedCertificates:
    """decompose and decompose_triangular are bit-for-bit the pinned ones on
    every 2-3-smooth m <= 200, three moduli past 2^23 and nine
    coefficient rings Z_m[x]/(x^d)."""

    @pytest.mark.parametrize("m,d,digest", PINNED_CERTIFICATES,
                             ids=[f"m{m}-d{d}" for m, d, _ in PINNED_CERTIFICATES])
    def test_digests(self, m, d, digest):
        ring = MatrixRing(m, d)
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
    x = p @ d @ RingMatrix.from_rows(unit_triangular_inverse(low.tolist(), ring.m), plain)
    return RingMatrix(ring, np.pad(x.coeffs, ((0, ring.d - 1), (0, 0), (0, 0))))


# SHA-256 of certificate_to_doc over decompose of a seeded random matrix and
# a derogatory conjugate, at n = 32 and then 64.  The plain rows were recorded
# while every product ran in int64, the Z72[x]/(x^2) row while truncated
# products did: the float64 products from BLAS_MIN_DIMENSION up, plain or
# truncated, must not move a byte.  Re-pinned with the trace family, whose
# W has about half the index on a cyclic block.
PINNED_LARGE = [
    (72, 1, "c0c548cf6982a03f0078c6f8c0b591933c2190b9acbab14ea8a01c589aba2bb0"),
    (6, 1, "f8d74076007d696feb5476304d00d8a8d39345cbdeade8a960f5f2ab56daccff"),
    (72, 2, "f84ace22a82dc5c66f98990e052163e5d77963eabca91368c62d70de9c9c0907"),
]


class TestPinnedLarge:
    @pytest.mark.parametrize("m,d,digest", PINNED_LARGE,
                             ids=[f"m{m}" if d == 1 else f"m{m}-d{d}" for m, d, _ in PINNED_LARGE])
    def test_digests(self, m, d, digest):
        ring = MatrixRing(m, d)
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
# and of the oracle's least index of W over every decomposition.  The
# certificate's were re-pinned with the trace family.
INDEX_TABLE = [
    ("m2-z2", 2, lambda: every_matrix(2, 2), {1: 8, 2: 8}, {1: 14, 2: 2}),
    ("m2-z3", 3, lambda: every_matrix(2, 3), {1: 27, 2: 54}, {1: 53, 2: 28}),
    ("m2-z4", 4, lambda: every_matrix(2, 4), {1: 8, 2: 152, 3: 32, 4: 64}, {1: 113, 2: 143}),
    ("m3-z2", 2, lambda: every_matrix(3, 2), {1: 48, 2: 384, 3: 80}, {1: 352, 2: 160}),
    ("companion-gf2-deg4", 2, lambda: every_companion(2, 4), {1: 4, 2: 18, 3: 8}, {1: 15, 2: 15}),
    ("companion-gf3-deg3", 3, lambda: every_companion(3, 3), {1: 6, 2: 24, 3: 9}, {1: 17, 2: 22}),
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


class TestHalvedIndex:
    """A uniform random matrix over GF(3) is almost always cyclic, one
    companion block of degree n, and the trace family gives its W index
    max(j, n - j) for j nearest n/2: the median certificate exponent of 20
    seeded matrices is n/2 + 1 at most, where one at index n was the rule
    (under 0.5 s)."""

    @pytest.mark.parametrize("n,median", [(16, 9), (32, 17), (64, 33)])
    def test_median_exponent_over_z3(self, n, median):
        gen = np.random.default_rng([5, n])
        exponents = [decompose(RingMatrix.random(n, zm_ring(3), gen)).nilpotency_exponent
                     for _ in range(20)]
        assert statistics.median(exponents) == median <= n // 2 + 1
