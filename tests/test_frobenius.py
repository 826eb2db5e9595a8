"""Polynomials over GF(p), companion blocks, and the canonical form."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import charpoly_cofactor, mat_mul_naive, poly_add, poly_mul, poly_trim
from nilclean.cli import certificate_to_doc, rcf_to_doc
from nilclean.decompose import decompose_triangular
from nilclean.errors import InputError
from nilclean.frobenius import (
    CompanionBlock,
    FieldPoly,
    _pdivides,
    _pdivmod,
    _pgcd,
    _pmul,
    krylov_form,
    rcf,
    verify_rcf,
)
from nilclean.matrix import RingMatrix, zm_ring
from nilclean.residue import two_three_smooth_moduli


def poly(p, *coeffs):
    return FieldPoly(p, tuple(coeffs))


class TestFieldPoly:
    """The GF(p)[x] tuple arithmetic that rcf runs: ascending coefficient
    tuples, trimmed, () the zero polynomial."""

    def test_gcd_example(self):
        # gcd(x^2 - 1, x - 1) over GF(3)
        assert _pgcd((2, 0, 1), (2, 1), 3) == (2, 1)

    def test_evaluate_example(self):
        # factor theorem over GF(3): x - r divides g exactly when g(r) = 0;
        # x^2 + 2x + 2 has no root, x^2 - 1 has the roots 1 and 2
        for coeffs, roots in (((2, 2, 1), []), ((2, 0, 1), [1, 2])):
            g = poly(3, *coeffs)
            assert [r for r in range(3) if poly(3, -r, 1).divides(g)] == roots

    def test_divmod_example(self):
        assert _pdivmod((0, 0, 0, 1), (0, 1), 2) == ((0, 0, 1), ())

    def test_zero_division(self):
        with pytest.raises(InputError):
            _pdivmod((1,), (), 3)

    def test_composite_characteristic_rejected(self):
        with pytest.raises(InputError):
            FieldPoly(6, (1,))

    @given(st.sampled_from((2, 3, 5)), st.data())
    @settings(max_examples=80)
    def test_divmod_and_gcd_properties(self, p, data):
        coeffs = st.lists(st.integers(0, p - 1), min_size=0, max_size=6)
        a, b, c = (poly_trim(data.draw(coeffs)) for _ in range(3))
        assert _pmul(poly_add(a, b, p), c, p) == poly_add(_pmul(a, c, p), _pmul(b, c, p), p)
        if b:
            q, r = _pdivmod(a, b, p)
            assert poly_add(poly_mul(q, b, p), r, p) == a
            assert len(r) < len(b)
        g = _pgcd(a, b, p)
        if g:
            assert g[-1] == 1
            assert _pdivides(g, a, p) and _pdivides(g, b, p)
            assert FieldPoly(p, g).divides(FieldPoly(p, a))


class TestCompanion:
    def test_sign_convention(self):
        # x^2 - x - 1 over GF(3)
        c = CompanionBlock(poly(3, -1, -1, 1)).matrix()
        assert c.to_rows() == [[0, 1], [1, 1]]

    def test_degree_one(self):
        assert CompanionBlock(poly(2, 0, 1)).matrix().to_rows() == [[0]]

    def test_nilpotent_shift(self):
        assert CompanionBlock(poly(3, 0, 0, 1)).matrix().to_rows() == [[0, 0], [1, 0]]

    def test_degree_zero_rejected(self):
        with pytest.raises(InputError):
            CompanionBlock(poly(3, 1))
        with pytest.raises(InputError):
            CompanionBlock(poly(3, 1, 2))  # not monic

    @given(st.sampled_from((2, 3, 5)), st.data())
    @settings(max_examples=60)
    def test_charpoly_roundtrip(self, p, data):
        deg = data.draw(st.integers(1, 5))
        coeffs = tuple(data.draw(st.integers(0, p - 1)) for _ in range(deg)) + (1,)
        f = FieldPoly(p, coeffs)
        c = CompanionBlock(f).matrix()
        assert charpoly_cofactor(c.to_rows(), p) == f.coeffs


class TestRcf:
    def test_companion_is_fixed_point(self):
        block = CompanionBlock(poly(3, 1, 2, 0, 1)).matrix()
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

    @pytest.mark.parametrize("p", (2147483647, 2147483629))
    @pytest.mark.parametrize("n", (8, 16, 64))
    def test_primes_near_two_to_the_31(self, p, n):
        # the transforms are held in the ring's dtype: int64 products of
        # entries near 2^31 would wrap
        a = RingMatrix.random(n, zm_ring(p), np.random.default_rng([p, n]))
        result = rcf(a)
        assert verify_rcf(a, result)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert mat_mul_naive(result.transform.to_rows(), result.transform_inv.to_rows(), p) == ident

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
            block = CompanionBlock(FieldPoly(p, tuple(-c % p for c in col) + (1,))).matrix().to_rows()
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
        cols = self.check_form(CompanionBlock(poly(3, 1, 2, 0, 1)).matrix(), 3)
        assert cols == [(2, 1, 0)]

    def test_non_prime_field_rejected(self):
        with pytest.raises(InputError):
            krylov_form(RingMatrix.identity(2, zm_ring(6)))


def pinned_matrix(p, n, kind, seed):
    """A seeded random matrix, or a low-rank one with many invariant factors."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        rows = rng.integers(0, p, size=(n, n))
    else:
        k = max(1, n // 4)
        rows = rng.integers(0, p, size=(n, k)).dot(rng.integers(0, p, size=(k, n))) % p
    return RingMatrix.from_rows(rows.tolist(), zm_ring(p))


def sha256(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


# SHA-256 digests of the list-based elimination's outputs, recorded before the
# packed kernel replaced it: (p, n, kind, krylov_form digest, rcf digest)
PINNED = [
    (2, 8, "random",
     "63abbb05f7c0b026d5c2149c0f1b3de48bc1e67440c1711e78ff30d59929e510",
     "7ab2a7adeb959efd6a648ca6e33031023abaae09de3b5430e7252548a9fca6cb"),
    (2, 8, "low-rank",
     "ddb43edf05d52832a08a50680ce4d38f1c2eea99a70eba9dffb44bb24b60dbb3",
     "70355bf1f6b6525e9be4e0320b9a47fff6ba6633a2b790b9eaa467813307af15"),
    (2, 32, "random",
     "d316f7aa05ca16449eb30104d9c57c1495c5ef245ee06a615f2f3d55df6779bd",
     "208cfe2cca7ec1c245c018dbb80ecaf150cac14b7cf4098c7dbb2c2a540bc7b3"),
    (2, 32, "low-rank",
     "fe48ad5c67abcd19b8f5bd3147ed59fe8962b39d9897c3b63708c0a809ffe7d5",
     "45f8fb88f6b298dc33ba0d4c87f261f0ea254dab90384cd833d048c1759c42a6"),
    (2, 64, "random",
     "3f622d31ba0fb0a832bd44508ae867aa11f936109dcca1fcd421bad0985f629e",
     "a4c22d2fbd692218272285ec7fa172c72d47259d194ae998a11447ef39c0e548"),
    (2, 64, "low-rank",
     "7ecd22f145bc381782708abe580b3f14b374d7452d075699faf9f3d3de09e7e8",
     "5a3890b324d46260ea390606456db5753f85544c052782071cb8484486633723"),
    (3, 8, "random",
     "1330f98c776bee4d1b315ff0d4e1d2c2d0429cf6c21fffa8036847d36089731b",
     "a350716c1a23b21e7303d4233ede40b79d1eb30e45fca0e0681fad77a319ecca"),
    (3, 8, "low-rank",
     "fb185c62f8052a3fb81ac38988cfae96a32ae5211757545f121771e25452a966",
     "7d959c9493d2eaef45ec15bcdc44ebdf44f463a293aca0ddfa7ad1f877a44d5c"),
    (3, 32, "random",
     "d6593b1a87354a6d465fc3cda22adbe8002820ee8954aae5fbdb5b9151d929a5",
     "d4bf3cb0ec25a86ead7a5116fdd431380bdd9fb0e76f2fd1702689253d0ffabb"),
    (3, 32, "low-rank",
     "40a84407782fcbf4c5a7f1e2cf3e1ff3fb762eae483e08f487afd2dc431da66d",
     "cbe7663eaae19fe4cc59b7721ff459b59e2e4b99e02fd5c1c8a2b6c31c7fc4e2"),
    (3, 64, "random",
     "af2a334f278b450db9f95e65eae9d92437c8020449492f1e523e4d1979856747",
     "b843cfcb153f463bb1dc0fe1321c4d20e9d39a3de447f2b2aeb200da6783f470"),
    (3, 64, "low-rank",
     "17e938a38cf9b745b802555cc65c6b4ad84725fef8715d52bcd1f898d98081fd",
     "d69c67b0b0f931c371e3fbb248180d4236ef97be63d9afcdef11c341fa52f40d"),
    (5, 8, "random",
     None,
     "3ab4d9620126ed16ac6fbf8d3a233989847c0da5381d63321b5b3c52d76988c7"),
    (5, 16, "low-rank",
     None,
     "9809fe9c7de52668ae68d6fe34ffef9c2cb8cc8c9ee0fe5edeb503a6f9b303cb"),
]


class TestPinnedOutputs:
    """krylov_form and rcf are bit-for-bit those of the list-based kernel."""

    @pytest.mark.parametrize("p,n,kind,krylov_digest,rcf_digest", PINNED,
                             ids=[f"gf{c[0]}-n{c[1]}-{c[2]}" for c in PINNED])
    def test_digests(self, p, n, kind, krylov_digest, rcf_digest):
        a = pinned_matrix(p, n, kind, 1000 * p + n)
        if krylov_digest is not None:
            cols, q, q_inv = krylov_form(a)
            assert sha256([[list(c) for c in cols], q.tolist(), q_inv.tolist()]) == krylov_digest
        result = rcf(a)
        blocks = [list(b.poly.coeffs) for b in result.blocks]
        assert sha256([blocks, result.transform.to_rows(), result.transform_inv.to_rows()]) == rcf_digest


# SHA-256 digests of certificate_to_doc(decompose_triangular(T)): one seeded
# upper-triangular T per 2-3-smooth m <= 2^31 (split products included),
# for each n.  Re-pinned when the documents gained the case tags of their
# 1 x 1 blocks; without that line they hash as when the diagonal still went
# through the element-level decomposition.
PINNED_TRIANGULAR = [
    (1, "bad34b7be53e40eb27930676a4b33940a7aacf97bf854105a5b2060097a16ba6"),
    (2, "8cd121485e4d87ebb665d84e2ed6aefb0a704ef1ad6cc5dd2243e26fdc0298d7"),
    (5, "ba78d369b879ae7af1275f80a682aad535d4b3b526a76adf9f7ccac4ba2b83c4"),
    (12, "96fbbe95255187931b8830d580206d8dd697706747e0e4c0277d5097af92a91c"),
]


class TestPinnedTriangular:
    """decompose_triangular's certificates are bit-for-bit the pinned ones."""

    @pytest.mark.parametrize("n,digest", PINNED_TRIANGULAR,
                             ids=[f"n{n}" for n, _ in PINNED_TRIANGULAR])
    def test_digests(self, n, digest):
        rng = np.random.default_rng(7000 + n)
        h = hashlib.sha256()
        for m in two_three_smooth_moduli(2**31):
            rows = np.triu(rng.integers(0, m, size=(n, n))).tolist()
            cert = decompose_triangular(RingMatrix.from_rows(rows, zm_ring(m)))
            h.update(certificate_to_doc(cert).encode())
        assert h.hexdigest() == digest


def rcf_inputs(p):
    """Per size, one seeded matrix and one conjugate of a repeated block
    (derogatory, so the maximal-order search combines vectors)."""
    rng = np.random.default_rng([p, 11])
    ring = zm_ring(p)
    for n in (1, 2, 3, 4, 5, 8, 16, 33, 64):
        yield RingMatrix.random(n, ring, rng)
        k = max(1, n // 4)
        diag = np.kron(np.eye(n // k, dtype=np.int64), rng.integers(0, p, (k, k)))
        a = np.zeros((n, n), dtype=np.int64)
        a[: diag.shape[0], : diag.shape[0]] = diag
        while not (g := RingMatrix.random(n, ring, rng)).is_invertible():
            pass
        yield g @ RingMatrix.from_rows(a.tolist(), ring) @ g.inverse()


# SHA-256 over the rcf documents of rcf_inputs(p), recorded with the kernel
# that kept vectors and histories apart
PINNED_RCF_DOCUMENTS = [
    (2, "84d23bf2c8fb6c1a245d70f2c82426470af208ed2e474dc5f6008a66b7418dad"),
    (3, "db5569d941fe054218a85a794c48af5e412027028e058bb77a8038628db6e6c2"),
    (5, "6b9697227bd3a2c2cba946a03acfe23e76be7b512c1090ae98a2d1c447a5d074"),
]


@pytest.mark.parametrize("p,digest", PINNED_RCF_DOCUMENTS, ids=[f"gf{p}" for p, _ in PINNED_RCF_DOCUMENTS])
def test_pinned_rcf_documents(p, digest):
    h = hashlib.sha256()
    for a in rcf_inputs(p):
        h.update(rcf_to_doc(a, rcf(a)).encode())
    assert h.hexdigest() == digest
