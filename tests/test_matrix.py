"""Dense matrices over Z_m: ops, predicates, CRT, certificates."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det_cofactor, from_rows_reference, mat_mul_naive, nilpotency_naive_exact
import nilclean.matrix as matrix_module
from nilclean.errors import InputError, InternalCheckError, ResourceCapError
from nilclean.matrix import (
    BLAS_MIN_DIMENSION,
    CHECK_NILPOTENCY,
    MAX_TRUNC_DEGREE,
    DecompositionCertificate,
    MatrixRing,
    RingMatrix,
    _min_exponent,
    _routed_mul,
    _stack_mul,
    check_certificate,
    verify_certificate,
    zm_ring,
)
from nilclean.residue import factorize, lift_iteration_cap

SMOOTH_SMALL = (2, 3, 4, 6, 8, 9, 12, 18, 36)


def all_matrices(n, m):
    ring = zm_ring(m)
    for entries in itertools.product(range(m), repeat=n * n):
        yield RingMatrix(ring, np.array(entries, dtype=np.int64).reshape(1, n, n))


def random_invertible(n, ring, rng):
    while True:
        cand = RingMatrix.random(n, ring, rng)
        if cand.is_invertible():
            return cand


class TestArithmetic:
    def test_identity_neutral(self, rng):
        ring = zm_ring(12)
        a = RingMatrix.random(4, ring, rng)
        ident = RingMatrix.identity(4, ring)
        assert ident @ a == a and a @ ident == a

    def test_additive_inverse(self, rng):
        ring = zm_ring(9)
        a = RingMatrix.random(3, ring, rng)
        assert (a + (-a)).is_zero()

    def test_shift_square(self):
        shift = RingMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]], zm_ring(3))
        sq = shift @ shift
        expected = RingMatrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]], zm_ring(3))
        assert sq == expected

    def test_pow_matches_naive(self, rng):
        ring = zm_ring(6)
        a = RingMatrix.random(3, ring, rng)
        rows = a.to_rows()
        acc, power = rows, a
        for _ in range(2, 7):
            acc, power = mat_mul_naive(acc, rows, 6), power @ a
            assert power.to_rows() == acc

    def test_dimension_mismatch(self):
        a = RingMatrix.identity(2, zm_ring(4))
        b = RingMatrix.identity(3, zm_ring(4))
        c = RingMatrix.identity(2, zm_ring(6))
        for other in (b, c):
            with pytest.raises(InputError):
                _ = a @ other

    def test_scalar_reduced_before_multiplying(self):
        # (2^31 - 2) * 2^40 would wrap int64; the scalar is reduced first
        m = 2**31 - 1
        a = RingMatrix.from_rows([[m - 1]], zm_ring(m))
        expected = [[(m - 1) * 2**40 % m]]
        assert expected == [[2147483135]]
        assert (a * 2**40).to_rows() == expected
        assert (2**40 * a).to_rows() == expected

    @pytest.mark.parametrize("m", (2, 72, 2**24, 3**19, 2**31))
    @pytest.mark.parametrize("d", (1, 3))
    def test_entries_are_int64(self, m, d, rng):
        # one representation for every supported modulus, at any n
        ring = MatrixRing(factorize(m), d)
        for n in (1, 64):
            a = RingMatrix.random(n, ring, rng)
            rows = a.to_rows()
            # entry by entry: ints past int64 for d = 1, ragged coefficient lists else
            slow = [[x + m * 2**64 for x in row] if d == 1 else [row[0][:1]] + row[1:]
                    for row in rows]
            for x in (RingMatrix.zeros(n, ring), a, RingMatrix.from_rows(rows, ring),
                      RingMatrix.from_rows(slow, ring)):
                assert x.coeffs.dtype == np.int64 and x.coeffs.shape == (d, n, n)
            assert RingMatrix.from_rows(rows, ring) == a

    def test_trunc_degree_cap(self):
        assert MatrixRing(factorize(6), MAX_TRUNC_DEGREE).d == MAX_TRUNC_DEGREE
        with pytest.raises(ResourceCapError):
            MatrixRing(factorize(6), MAX_TRUNC_DEGREE + 1)

    def test_huge_modulus_object_path(self):
        m = 2**31  # int64 entries, products on the split route
        ring = zm_ring(m)
        a = RingMatrix.from_rows([[m - 1, 1], [0, m - 1]], ring)
        sq = a @ a
        assert sq.to_rows() == [[(m - 1) ** 2 % m, 2 * (m - 1) % m], [0, (m - 1) ** 2 % m]]
        assert (a - a).is_zero()


def exact_product(a, b, m):
    """The product of two stacks in Python ints, reduced mod m."""
    return np.matmul(a.astype(object), b.astype(object)) % m


def exact_truncated_product(a, b, m):
    """The product of two (d, n, n) coefficient stacks, or of two (k, d, n, n)
    stacks, in Python ints, truncated at x^d, reduced mod m."""
    a, b = a.astype(object), b.astype(object)
    return np.stack([sum(np.matmul(a[..., i, :, :], b[..., t - i, :, :]) for i in range(t + 1)) % m
                     for t in range(a.shape[-3])], axis=-3)


# (m, n, route of a plain product, d_max): float64 from BLAS_MIN_DIMENSION up
# and int64 below it, unless n (m-1)^2 reaches that route's bound (2^53 for
# float64, past which a partial sum may round, and 2^63 for int64, past which
# it may wrap); then the split, which halves the right factor into 16-bit
# pieces.  Wraps modulo 2^64 are caught only by moduli that are not powers of
# two.  Truncated stacks, d = 2 up to d_max, sum d raw slice products before
# they reduce: on float64 they take the route of their slices, but on int64
# the bound is d n (m-1)^2 < 2^63, so the int64 rows of 2^17 3^8 and 2^31 - 1
# split from d = 2 (ACCUMULATION_BOUND names such cases).  The Python-int
# reference is slow at n = 64, so one n = 64 row runs truncated stacks.
PRODUCT_ROUTES = [
    (2**24, 32, "float64", 3),     # 32 (2^24 - 1)^2 = 2^53 - 2^30 + 32; twice that at d = 2
    (2**24, 64, "split", 1),       # 64 (2^24 - 1)^2 > 2^53
    (2**26 + 2, 32, "split", 3),   # (m-1)^2 < 2^53 < 32 (m-1)^2: catches a bound without n
    (72, 64, "float64", 1),
    (3, BLAS_MIN_DIMENSION, "float64", 3),
    (72, BLAS_MIN_DIMENSION - 1, "int64", 3),
    (2**31, 32, "split", 3),
    (3**19, 32, "split", 3),       # 32 (m-1)^2 > 2^63: a raw int64 product wraps
    (2 * 1073741789, 64, "split", 3),
    (2**17 * 3**8, 8, "int64", 3),   # 8 (m-1)^2 is between 2^59 and 2^63
    (2**31 - 1, 2, "int64", 3),      # 2 (m-1)^2 = 2^63 - 2^34 + 8
    (2**31 - 1, 3, "split", 3),      # 3 (m-1)^2 > 2^63
    (3**19, 8, "split", 3),          # 7 (m-1)^2 > 2^63 > 6 (m-1)^2
]


# (m, n, d) with n < 32 and n (m-1)^2 < 2^63 <= d n (m-1)^2: one int64 slice
# product is exact, but the unreduced sum of d of them would wrap, so
# _stack_mul splits them although their plain products run on int64
ACCUMULATION_BOUND = [
    (3**19, 6, 2),
    (2**31 - 1, 2, 2),
    (2**17 * 3**8, 8, 2),
    (2**17 * 3**8, 8, 3),
]


class TestProductRoutes:
    """_stack_mul equals the exact Python-int product on every route, on
    (d, n, n) and (2, d, n, n) stacks and on both sides of the 2^53 and 2^63
    bounds.  Entries all m - 1, or within 3 of it, are where float64 would
    round; at d = 2 a sum of two slice products passes 2^53 where one does not."""

    @pytest.mark.parametrize("m,n,route,d_max", PRODUCT_ROUTES,
                             ids=[f"m{m}-n{n}-{route}" for m, n, route, _ in PRODUCT_ROUTES])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), fill=st.sampled_from(("uniform", "top", "near-top")))
    def test_matches_python_ints(self, m, n, route, d_max, seed, fill):
        assert (n * (m - 1) ** 2 >= (2**53 if n >= BLAS_MIN_DIMENSION else 2**63)) == (route == "split")
        assert (n >= BLAS_MIN_DIMENSION and route != "split") == (route == "float64")
        gen = np.random.default_rng(seed)
        for d in range(1, d_max + 1):
            if fill == "uniform":
                a, b = gen.integers(0, m, (2, 2, d, n, n))
            elif fill == "top":
                a = b = np.full((2, d, n, n), m - 1)
            else:
                a, b = m - 1 - gen.integers(0, 4, (2, 2, d, n, n))
            exact = exact_truncated_product(a, b, m)
            for x, y, want in ((a[0], b[0], exact[0]), (a, b, exact)):
                out = _stack_mul(x, y, m)
                assert out.dtype == np.int64 and out.shape == x.shape
                assert out.tolist() == want.tolist()

    @pytest.mark.parametrize("m,d,n", [(3**19, 2, 33), (2 * 1073741789, 3, 64)])
    def test_truncated_matches_python_ints(self, m, d, n):
        # the truncated convolution past the bound on ring elements drawn by
        # RingMatrix.random, one (d, n, n) product and a (2, d, n, n) stack
        ring = MatrixRing(factorize(m), d)
        gen = np.random.default_rng([m, d, n])
        a, b = (np.stack([RingMatrix.random(n, ring, gen).coeffs for _ in range(2)])
                for _ in range(2))
        for x, y in ((a[0], b[0]), (a, b)):
            out = _stack_mul(x, y, m)
            assert out.shape == x.shape
            assert out.tolist() == exact_truncated_product(x, y, m).tolist()

    @pytest.mark.parametrize("m,n,d", ACCUMULATION_BOUND,
                             ids=[f"m{m}-n{n}-d{d}" for m, n, d in ACCUMULATION_BOUND])
    def test_sum_of_slices_past_int64(self, m, n, d):
        assert n < BLAS_MIN_DIMENSION and n * (m - 1) ** 2 < 2**63 <= d * n * (m - 1) ** 2
        gen = np.random.default_rng([m, n, d])
        top = np.full((d, n, n), m - 1)
        near = m - 1 - gen.integers(0, 4, (2, 2, d, n, n))
        for a, b in ((top, top), (near[0, 0], near[1, 0]), (near[0], near[1])):
            assert _stack_mul(a, b, m).tolist() == exact_truncated_product(a, b, m).tolist()
        # unsplit, the top slice of the all-(m-1) square sums to d n (m-1)^2
        # and wraps past 2^63, and m is not a power of two: the result differs
        assert _routed_mul(top, top, m).tolist() != exact_truncated_product(top, top, m).tolist()

    @pytest.mark.parametrize("n", (32, 64))
    def test_inverse_is_two_sided(self, n):
        # Z_{2^24}: the float64 route at n = 32, the split at n = 64
        ring = zm_ring(2**24)
        gen = np.random.default_rng(n)
        while not (a := RingMatrix.random(n, ring, gen)).is_invertible():
            pass
        inv = a.inverse().coeffs
        ident = RingMatrix.identity(n, ring).coeffs.tolist()
        assert exact_product(a.coeffs, inv, ring.m).tolist() == ident
        assert exact_product(inv, a.coeffs, ring.m).tolist() == ident


def _nilpotent(n, ring, gen, density):
    """P (N + R) P^T: N strictly upper triangular with about the given share
    of its entries drawn, R drawn from the ideal that the radical of m and x
    generate, P a permutation.  N + R is nilpotent modulo that ideal, which
    is nilpotent, so it is nilpotent."""
    m, d = ring.m, ring.d
    w = gen.integers(0, m, (d, n, n)) * (math.prod(ring.modulus.primes) % m)
    w[1:] = gen.integers(0, m, (d - 1, n, n))
    w[0] += np.triu(gen.integers(0, m, (n, n)) * (gen.random((n, n)) < density), 1)
    perm = gen.permutation(n)
    return RingMatrix(ring, w[:, perm][:, :, perm] % m)


def _products(k):
    """The products a stated exponent k >= 1 costs to prove at most:
    floor(log2(k-1)) + popcount(k-1), and none for k = 1."""
    return 0 if k == 1 else (k - 1).bit_length() - 1 + bin(k - 1).count("1")


EXPONENT_RINGS = (zm_ring(72), MatrixRing(factorize(6), 3), zm_ring(2**31 - 1))


class TestExponentProof:
    """A stated exponent is proved, W^(k-1) != 0 and W^k = 0, with the
    verdict of the rule it replaced: k in [1, bound] and the minimal
    exponent, as _min_exponent finds it, equal to k."""

    @pytest.mark.parametrize("ring", EXPONENT_RINGS, ids=lambda ring: ring.describe())
    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8, 32, 33))
    def test_verdict_is_the_minimal_exponent_rule(self, ring, n):
        # n = 32 and 33 run on float64 over Z72 and Z6[x]/(x^3), on the
        # split over Z_(2^31-1), which splits from n = 3 on int64 too
        gen = np.random.default_rng([ring.m, ring.d, n])
        bound = ring.nilpotency_bound(n)
        zero = RingMatrix.zeros(n, ring)
        ws = [_nilpotent(n, ring, gen, density) for density in (0.3, 0.7, 1.0)]
        ws += [RingMatrix.random(n, ring, gen), RingMatrix.identity(n, ring)]
        nilpotent = 0
        for w in ws:
            found = _min_exponent(w.coeffs, ring.m, bound)
            nilpotent += found is not None
            claims = {1, 2, n, bound} | ({found - 1, found, found + 1} if found else set())
            for k in claims:
                want = None if 1 <= k <= bound and found == k else CHECK_NILPOTENCY
                assert check_certificate(DecompositionCertificate(w, zero, zero, w, k)) == want, (k, found)
        assert nilpotent >= 3

    @pytest.mark.parametrize("ring", (MatrixRing(factorize(6), 3), zm_ring(72), MatrixRing(factorize(72), 2)),
                             ids=lambda ring: ring.describe())
    def test_products_per_stated_exponent(self, ring, monkeypatch, rng):
        from nilclean.decompose import decompose

        certs = [decompose(RingMatrix.random(n, ring, rng)) for n in range(1, 9)]
        products, searches, original = [], [], matrix_module._stack_mul

        def counting(*args):
            products.append(args)
            return original(*args)

        monkeypatch.setattr(matrix_module, "_stack_mul", counting)
        monkeypatch.setattr(matrix_module, "_min_exponent", lambda *args: searches.append(args))
        for cert in certs:
            k = cert.nilpotency_exponent
            for claim in {1, max(k - 1, 1), k, k + 1}:
                products.clear()
                ok = verify_certificate(DecompositionCertificate(cert.a, cert.e, cert.f, cert.w, claim))
                assert ok == (claim == k)
                # E^2 and F^2, then the exponent's: all of them once it holds
                steps = len(products) - 2
                assert steps == _products(claim) if ok else steps <= _products(claim)
        assert max(cert.nilpotency_exponent for cert in certs) >= 9
        assert searches == []


class TestPredicates:
    def test_idempotent_examples(self):
        ring = zm_ring(3)
        for c0 in range(3):
            assert RingMatrix.from_rows([[0, c0], [0, 1]], ring).is_idempotent()
        assert RingMatrix.from_rows([[2, 1], [1, 2]], ring).is_idempotent()
        assert not RingMatrix.from_rows([[1, 1], [1, 1]], zm_ring(2)).is_idempotent()

    def test_nilpotency_examples(self):
        shift4 = RingMatrix.from_rows(
            [[0] * 4, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], zm_ring(3)
        )
        assert shift4.nilpotency_exponent() == 4
        assert RingMatrix.from_rows([[2, 1], [1, 1]], zm_ring(3)).nilpotency_exponent() is None
        assert RingMatrix.from_rows([[2, 0], [0, 2]], zm_ring(4)).nilpotency_exponent() == 2

    @pytest.mark.parametrize("m", (4, 6, 9))
    def test_nilpotency_exhaustive_against_naive(self, m):
        bound = 2 * factorize(m).max_exponent
        for a in all_matrices(2, m):
            assert a.nilpotency_exponent() == nilpotency_naive_exact(a.to_rows(), m, bound)

    def test_nilpotent_implies_bound_power_vanishes(self, rng):
        ring = zm_ring(12)
        hits = 0
        while hits < 25:
            a = RingMatrix.random(2, ring, rng)
            k = a.nilpotency_exponent()
            if k is None:
                continue
            hits += 1
            assert nilpotency_naive_exact(a.to_rows(), 12, ring.nilpotency_bound(2)) == k

    def test_invertibility_examples(self):
        for m in (2, 3, 5, 12, 36):
            ring = zm_ring(m)
            b = RingMatrix.from_rows([[2, 1], [1, 1]], ring)
            assert b.is_invertible()
            assert b.inverse() == RingMatrix.from_rows([[1, -1], [-1, 2]], ring)
            assert RingMatrix.identity(2, ring).is_invertible()
            assert not RingMatrix.from_rows([[0, 0], [1, 1]], ring).is_invertible()

    def test_invertible_iff_two_sided_inverse(self, rng):
        for m in (4, 6, 9, 12, 27):
            ring = zm_ring(m)
            for n in (1, 2, 3, 4):
                for _ in range(8):
                    a = RingMatrix.random(n, ring, rng)
                    if a.is_invertible():
                        inv = a.inverse()
                        ident = RingMatrix.identity(n, ring)
                        assert a @ inv == ident and inv @ a == ident
                    else:
                        with pytest.raises(InputError):
                            a.inverse()

    @pytest.mark.parametrize("m", (6, 72, 2**17, 3**19))
    def test_inverse_runs_the_exact_round_count(self, monkeypatch, m):
        # x <- x(2 - ax) squares the defect 1 - ax: lift_iteration_cap of
        # m's largest exponent rounds, two products each, then one check
        ring = zm_ring(m)
        gen = np.random.default_rng(m)
        while not (a := RingMatrix.random(4, ring, gen)).is_invertible():
            pass
        real, calls = matrix_module._stack_mul, []
        monkeypatch.setattr(matrix_module, "_stack_mul", lambda *args: calls.append(1) or real(*args))
        inv = a.inverse()
        rounds = lift_iteration_cap(ring.modulus.max_exponent)
        assert len(calls) == 2 * rounds + 1
        monkeypatch.setattr(matrix_module, "_stack_mul", real)
        assert a @ inv == RingMatrix.identity(4, ring)
        if rounds:
            # a defect of order 1 needs every round: one fewer fails the check
            monkeypatch.setattr(matrix_module, "lift_iteration_cap", lambda e: lift_iteration_cap(e) - 1)
            with pytest.raises(InternalCheckError, match="inverse failed verification"):
                a.inverse()

    @pytest.mark.parametrize("m", (2**31, 3**19, 2**17 * 3**8, 2 * 1073741789))
    @pytest.mark.parametrize("n", (33, 64))
    def test_inverse_at_large_moduli(self, m, n):
        # n (m-1)^2 >= 2^53: the Newton steps run on split products of int64
        # entries; the check multiplies in Python ints
        ring = zm_ring(m)
        gen = np.random.default_rng([m, n])
        while not (a := RingMatrix.random(n, ring, gen)).is_invertible():
            pass
        assert a.coeffs.dtype == np.int64
        inv = a.inverse().coeffs
        assert inv.dtype == np.int64
        ident = RingMatrix.identity(n, ring).coeffs.tolist()
        assert exact_product(a.coeffs, inv, m).tolist() == ident
        assert exact_product(inv, a.coeffs, m).tolist() == ident

    def test_det_against_cofactor(self, rng):
        # invertible over Z_m exactly when the determinant is a unit
        for m in (5, 12, 36, 97):
            ring = zm_ring(m)
            for n in (1, 2, 3, 4):
                for _ in range(6):
                    a = RingMatrix.random(n, ring, rng)
                    unit = math.gcd(det_cofactor(a.to_rows(), m), m) == 1
                    assert a.is_invertible() == unit

    def test_transport_preserves_structure(self, rng):
        # conjugation preserves idempotency and nilpotency exponents
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

    def test_det_unit_iff_invertible(self, rng):
        for m in (4, 6, 12, 18):
            ring = zm_ring(m)
            for _ in range(20):
                a = RingMatrix.random(3, ring, rng)
                if math.gcd(det_cofactor(a.to_rows(), m), m) == 1:
                    assert a @ a.inverse() == RingMatrix.identity(3, ring)
                else:
                    with pytest.raises(InputError):
                        a.inverse()

    def test_residue_field_image_examples(self):
        a = RingMatrix.from_rows([[4, 6], [3, 9]], zm_ring(12))
        assert a.residue_field_image(3).tolist() == [[1, 0], [0, 0]]
        b = RingMatrix.from_rows([[2, 4], [1, 6]], zm_ring(7))
        assert b.residue_field_image(7).tolist() == b.to_rows()
        assert RingMatrix.from_rows([[7]], zm_ring(12)).residue_field_image(2).tolist() == [[1]]
        c = RingMatrix.from_rows([[[4, 1], [0, 5]], [[1], [2, 2]]], MatrixRing(factorize(6), 2))
        assert c.residue_field_image(3).tolist() == [[1, 0], [1, 2]]  # x -> 0
        with pytest.raises(InputError):
            a.residue_field_image(5)

    def test_upper_triangular_flag(self):
        ring = zm_ring(6)
        assert RingMatrix.from_rows([[1, 2], [0, 3]], ring).is_upper_triangular()
        assert not RingMatrix.from_rows([[1, 0], [2, 3]], ring).is_upper_triangular()


class TestMatrixCrt:
    def test_split_recombine_roundtrip(self, rng):
        # entrywise reduction mod each prime power, then recombination through
        # the CRT idempotents, is the identity, at a modulus past 2^23 too
        for m in (6, 72, 2**17 * 3**8):
            ring = zm_ring(m)
            modulus = ring.modulus
            for _ in range(10):
                a = RingMatrix.random(3, ring, rng)
                back = sum(c * (a.coeffs % p**e)
                           for (p, e), c in zip(modulus.factors, modulus.crt_basis)) % m
                assert back.tolist() == a.coeffs.tolist()

    def test_certificates_split_componentwise(self, rng):
        # a verified certificate splits into verified certificates mod 4 and 9
        from nilclean.decompose import decompose

        ring = zm_ring(36)
        for _ in range(5):
            cert = decompose(RingMatrix.random(3, ring, rng))
            for q in (4, 9):
                parts = [RingMatrix(zm_ring(q), x.coeffs % q)
                         for x in (cert.a, cert.e, cert.f, cert.w)]
                k = parts[3].nilpotency_exponent()
                assert k is not None
                piece = DecompositionCertificate(*parts, nilpotency_exponent=k)
                assert verify_certificate(piece)


class TestCertificates:
    def test_zero_certificate(self):
        z = RingMatrix.zeros(2, zm_ring(6))
        cert = DecompositionCertificate(z, z, z, z, 1)
        assert verify_certificate(cert) and cert.verified and cert.failure is None

    def test_trace_one_template_example(self):
        ring = zm_ring(3)
        a = RingMatrix.from_rows([[0, 1], [1, 1]], ring)
        e = RingMatrix.from_rows([[0, 1], [0, 1]], ring)
        f = RingMatrix.zeros(2, ring)
        w = RingMatrix.from_rows([[0, 0], [1, 0]], ring)
        cert = DecompositionCertificate(a, e, f, w, 2)
        assert verify_certificate(cert)

    def test_non_nilpotent_w_rejected(self):
        ring = zm_ring(3)
        ident = RingMatrix.identity(2, ring)
        cert = DecompositionCertificate(ident, ident, ident, -ident, 2)
        assert not verify_certificate(cert)
        assert cert.failure == "nilpotency exponent"

    def test_each_failure_is_named(self):
        ring = zm_ring(6)
        a = RingMatrix.from_rows([[4]], ring)
        e = RingMatrix.from_rows([[4]], ring)
        zero = RingMatrix.zeros(1, ring)
        assert verify_certificate(DecompositionCertificate(a, e, zero, zero, 1))

        bad_e = DecompositionCertificate(a, RingMatrix.from_rows([[2]], ring), zero, zero, 1)
        assert not verify_certificate(bad_e)
        assert bad_e.failure == "E idempotency"

        bad_f = DecompositionCertificate(a, e, RingMatrix.from_rows([[5]], ring), zero, 1)
        assert not verify_certificate(bad_f)
        assert bad_f.failure == "F idempotency"

        bad_sum = DecompositionCertificate(a, e, RingMatrix.from_rows([[1]], ring), zero, 1)
        assert not verify_certificate(bad_sum)
        assert bad_sum.failure == "sum"

        bad_k = DecompositionCertificate(a, e, zero, zero, 2)
        assert not verify_certificate(bad_k)
        assert bad_k.failure == "nilpotency exponent"

    @given(st.sampled_from(SMOOTH_SMALL), st.integers(min_value=1, max_value=3), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_similarity_stability(self, m, n, seed):
        from nilclean.decompose import decompose

        gen = np.random.default_rng(seed)
        ring = zm_ring(m)
        cert = decompose(RingMatrix.random(n, ring, gen))
        p = random_invertible(n, ring, gen)
        p_inv = p.inverse()
        conj = [p @ x @ p_inv for x in (cert.a, cert.e, cert.f, cert.w)]
        moved = DecompositionCertificate(*conj, nilpotency_exponent=cert.nilpotency_exponent)
        assert verify_certificate(moved)

    def test_ring_mismatch_raises(self):
        a = RingMatrix.zeros(2, zm_ring(6))
        b = RingMatrix.zeros(2, zm_ring(12))
        with pytest.raises(InputError):
            check_certificate(DecompositionCertificate(a, b, b, b, 1))

    def test_trunc_ring_certificates(self):
        ring = MatrixRing(factorize(3), 2)
        a = RingMatrix.from_rows([[[1, 1]]], ring)
        e = RingMatrix.from_rows([[[1, 0]]], ring)
        zero = RingMatrix.zeros(1, ring)
        w = RingMatrix.from_rows([[[0, 1]]], ring)
        cert = DecompositionCertificate(a, e, zero, w, 2)
        assert verify_certificate(cert)


_ints = st.one_of(
    st.integers(-100, 100),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(2**63, 2**64),  # numpy reads these alone as uint64, beside negatives as float64
    st.integers(-(2**70), 2**70),
)
_bad = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=2),
                st.sampled_from([{}, None]))
_KINDS = ["int", "list", "ragged", "mixed", "bad", "rows"]


@st.composite
def _rows(draw, n=None, d=None, kind=None):
    """Square rows of one kind of entry: ints, coefficient lists of one
    length (full, short or [x]), lists of mixed lengths, ints beside lists,
    or an odd entry that is neither an integer nor a list of them; or rows
    of ints of any length.  n, d and the kind are drawn unless given."""
    n = draw(st.integers(1, 4)) if n is None else n
    d = draw(st.sampled_from([1, 3])) if d is None else d
    kind = draw(st.sampled_from(_KINDS)) if kind is None else kind
    if kind == "rows":
        return draw(st.lists(st.lists(_ints, max_size=5), min_size=n, max_size=n)), d
    k = draw(st.integers(0, d + 1))
    entry = {
        "int": _ints,
        "list": st.lists(_ints, min_size=k, max_size=k),
        "ragged": st.lists(_ints, max_size=d + 1),
        "mixed": st.one_of(_ints, st.lists(_ints, max_size=d)),
        "bad": st.one_of(_ints, _bad, st.lists(st.one_of(_ints, _bad), max_size=d)),
    }[kind]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return rows, d


class TestFromRows:
    """The one-conversion path of from_rows gives what reading the rows entry
    by entry gives, and refuses what that refuses."""

    @given(_rows(), st.sampled_from([2, 72, 2**31]))
    @settings(max_examples=400, deadline=None)
    def test_matches_entry_by_entry(self, rows_d, m):
        rows, d = rows_d
        ring = MatrixRing(factorize(m), d)
        try:
            expected = from_rows_reference(rows, m, d)
        except (ValueError, TypeError) as err:
            with pytest.raises(InputError if isinstance(err, ValueError) else TypeError):
                RingMatrix.from_rows(rows, ring)
            return
        got = RingMatrix.from_rows(rows, ring)
        assert got.coeffs.tolist() == expected
        assert got.coeffs.dtype == RingMatrix.zeros(len(rows), ring).coeffs.dtype
        assert all(type(v) is int for v in got.coeffs.ravel().tolist())

    @pytest.mark.parametrize("rows,d", [
        ([[2**63, -1], [0, 1]], 1),  # float64 to numpy
        ([[[1, 2], [3]], [[4, 5, 6], []]], 3),  # ragged coefficient lists
        ([[[-1], [2**64]], [[True], [np.int64(-5)]]], 1),  # [x] entries over Z_m
    ])
    def test_examples(self, rows, d):
        for m in (2, 72, 2**31):
            ring = MatrixRing(factorize(m), d)
            assert RingMatrix.from_rows(rows, ring).coeffs.tolist() == from_rows_reference(rows, m, d)

    @given(st.data(), st.sampled_from([2, 72, 2**31]))
    @settings(max_examples=300, deadline=None)
    def test_stack_is_each_matrix_in_order(self, data, m):
        """One to four matrices of one shape and kind, so that they often
        convert at once, with at times one of another shape or kind among
        them: the same matrices as from_rows of each, or the error of the
        first one it refuses."""
        n, d = data.draw(st.integers(1, 4)), data.draw(st.sampled_from([1, 3]))
        kind = data.draw(st.sampled_from(_KINDS))
        mats = [data.draw(_rows(n, d, kind))[0] for _ in range(data.draw(st.integers(1, 4)))]
        if data.draw(st.booleans()):
            mats.insert(data.draw(st.integers(0, len(mats))), data.draw(_rows(d=d))[0])
        ring = MatrixRing(factorize(m), d)

        def outcome(build):
            try:
                return [x.coeffs.tolist() for x in build()]
            except (InputError, TypeError) as err:
                return type(err), str(err)

        assert outcome(lambda: RingMatrix.stack_from_rows(mats, ring)) == \
            outcome(lambda: [RingMatrix.from_rows(rows, ring) for rows in mats])

    def test_stack_shares_one_array_and_ring(self):
        ring = MatrixRing(factorize(6), 3)
        a, b = RingMatrix.stack_from_rows([[[[1, 2]]], [[[7, 8]]]], ring)
        assert a.coeffs.base is b.coeffs.base and a.coeffs.base.shape == (2, 3, 1, 1)
        assert a.ring is b.ring is ring
        assert a.to_rows() == b.to_rows() == [[[1, 2, 0]]]
        # one matrix owns its array: a sweep that keeps many holds no stacks
        assert RingMatrix.from_rows([[[1, 2]]], ring).coeffs.base is None

    @pytest.mark.parametrize("entry", ["", {}, "12", None, 1.0])
    def test_entry_neither_int_nor_list_refused(self, entry):
        """An empty string or object used to read as 0, having no coefficient."""
        for d in (1, 3):
            with pytest.raises(TypeError, match="neither an integer nor a list of integers"):
                RingMatrix.from_rows([[0, 1], [entry, 2**70]], MatrixRing(factorize(6), d))
        # a tuple of ints reads as a list, in one conversion or entry by entry
        for rows in ([[(1, 2), (0, 0)], [(3, 0), (4, 0)]], [[(1, 2), 2**70], [3, 4]]):
            assert RingMatrix.from_rows(rows, MatrixRing(factorize(6), 3)).to_rows()[0][0] == [1, 2, 0]
