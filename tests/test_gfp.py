"""The GF(p) elimination kernel against naive list arithmetic, on its byte
lanes in one int for GF(2) and GF(3).  Elimination rows are [vector |
history], 2n + 1 coordinates.  Then the Krylov form the kernel runs, and the
pinned outputs of the forms and of the triangular certificates."""

import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import charpoly_cofactor, companion, mat_mul_naive, poly_mul, rank_naive, smooth_moduli
from nilclean import gfp
from nilclean.cli import certificate_to_doc
from nilclean.decompose import decompose_triangular
from nilclean.errors import InputError, InternalCheckError
from nilclean.gfp import _pack_bytes, _unpack_bytes, krylov_form
from nilclean.matrix import RingMatrix, zm_ring

PRIMES = (2, 3)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def lists(vecs, width):
    """Packed vectors back to lists of `width` coordinates."""
    return _unpack_bytes(list(vecs), width).tolist()


def combination(coeffs, vecs, p):
    """sum_j coeffs[j] vecs[j] over GF(p)."""
    return [sum(c * v[i] for c, v in zip(coeffs, vecs)) % p for i in range(len(vecs[0]))]


def naive_insert(rows, x, h, n, p):
    """The reference insert, on rows {pivot lane: row of 2n + 1 ints} in
    place: x with history unit h, less x_j rows[j] at each pivot lane j.  If
    its vector part is then zero, its history coordinates; else scale its
    lead to 1, take it off the other rows at that lane, store it and return
    None."""
    v = list(x) + [0] * (n + 1)
    v[n + h] = 1
    v = [(a - sum(v[j] * r[i] for j, r in rows.items())) % p for i, a in enumerate(v)]
    piv = next((j for j in range(n) if v[j]), None)
    if piv is None:
        return v[n:]
    inv = pow(v[piv], -1, p)
    v = [a * inv % p for a in v]
    for j, r in rows.items():
        rows[j] = [(a - r[piv] * b) % p for a, b in zip(r, v)]
    rows[piv] = v
    return None


def check_insert(p, n, rows, x, h):
    """Insert x with history h into an echelon that holds rows {pivot lane:
    row}, packed and naive: the same result, and the same rows, pivots and
    mask after it."""
    f = gfp.field(p, n)
    span = gfp.Echelon(n)
    for j, row in zip(rows, _pack_bytes(np.array(list(rows.values()), np.int64).reshape(len(rows), 2 * n + 1))):
        span.rows[j] = row
        span.pivs.append(j)
        span.mask |= 1 << 8 * j
    got = f.insert(span, _pack_bytes(np.array([x]))[0], h)
    want = naive_insert(rows, x, h, n, p)
    assert (got if got is None else list(got)) == want
    assert span.pivs == list(rows) and span.mask == sum(1 << 8 * j for j in rows)
    assert dict(zip(span.pivs, lists([span.rows[j] for j in span.pivs], 2 * n + 1))) == rows


@st.composite
def echelon_rows(draw, n, h, row, max_rows):
    """Rows {pivot lane: row} that an echelon can hold before a vector goes
    in with history h: up to max_rows drawn rows, each set to 1 at its own
    pivot lane and 0 at the others and at history h; every other
    coordinate, the rest of the history included, as drawn."""
    lanes = draw(st.permutations(range(n)))
    pivs = lanes[: draw(st.integers(0, min(n, max_rows)))]
    rows = {}
    for j in pivs:
        rows[j] = list(draw(row))
        for q in pivs:
            rows[j][q] = int(q == j)
        rows[j][n + h] = 0
    return rows


def insert_all(f, rows):
    """Offer row j, packed, with history j, in order; the span and the
    indices it took."""
    span = gfp.Echelon(len(rows[0]))
    return span, [j for j, v in enumerate(_pack_bytes(np.array(rows))) if f.insert(span, v, j) is None]


def check_invariants(span, vecs, n, p):
    """Rows kept by pivot lane: the row at lane piv has a unit there that is
    its lead, zeros in the other pivot columns, and its vector equals its
    history's combination of the offered vectors; every other lane holds no
    row, the pivot list has no repeats, and the mask's pivot bytes are 1."""
    pivs = span.pivs
    assert len(span.rows) == n and len(set(pivs)) == len(pivs) == span.mask.bit_count()
    assert span.mask == sum(1 << 8 * j for j in pivs)
    for piv in range(n):
        if piv not in pivs:
            assert span.rows[piv] is None
            continue
        (row,) = lists([span.rows[piv]], 2 * n + 1)
        vector, hist = row[:n], row[n:]
        assert vector[piv] == 1 and not any(vector[:piv])
        assert all(vector[q] == 0 for q in pivs if q != piv)
        assert not any(hist[len(vecs):])
        assert combination(hist, vecs, p) == vector


@st.composite
def square(draw, max_n=8):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, max_n))
    entry = st.integers(0, p - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return p, rows


class TestPrimitives:
    @given(square())
    @settings(max_examples=80)
    def test_pack_unpack_roundtrip(self, case):
        p, rows = case
        assert lists(_pack_bytes(np.array(rows)), len(rows)) == rows

    @given(st.sampled_from(PRIMES), st.integers(1, 8), st.data())
    @settings(max_examples=120)
    def test_get_lead_scale_clear(self, p, n, data):
        """insert on full rows [vector | history] of 2n + 1 coordinates, any
        values off the pivot lanes: the history unit, the reduction, the
        lead, its scaling to 1 and the clearing of its lane from the other
        rows, against naive lists."""
        entry, h = st.integers(0, p - 1), data.draw(st.integers(0, n))
        rows = data.draw(echelon_rows(n, h, st.lists(entry, min_size=2 * n + 1, max_size=2 * n + 1), n))
        x = data.draw(st.lists(entry, min_size=n, max_size=n))
        check_insert(p, n, rows, x, h)

    @given(square(), st.data())
    @settings(max_examples=120)
    def test_matvec(self, case, data):
        p, rows = case
        n = len(rows)
        u = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        f = gfp.field(p, n)
        a = np.array(rows)
        got = f.matvec(_pack_bytes(a.T), _pack_bytes(np.array([u]))[0])
        assert lists([got], 2 * n + 1) == [[sum(e * c for e, c in zip(row, u)) % p
                                               for row in rows] + [0] * (n + 1)]


def gf3_lanes(width):
    """Vectors of GF(3) coordinates, all-2 and all-0 ones among them."""
    return st.one_of(st.lists(st.integers(0, 2), min_size=width, max_size=width),
                     st.sampled_from([[2] * width, [0] * width, [1] * width]))


class TestGf3Lanes:
    """The byte-lane GF(3) kernels at every width up to n = 64, where a row
    has 2n + 1 = 129 lanes, against naive mod-3 lists."""

    @given(st.integers(1, 64).flatmap(lambda n: st.integers(0, n).flatmap(lambda h: st.tuples(
        st.just(n), echelon_rows(n, h, gf3_lanes(2 * n + 1), 3), gf3_lanes(n), st.just(h)))))
    @settings(max_examples=300)
    def test_clear_scale_get_lead(self, case):
        """insert into up to three rows with all-0, all-1 and all-2 lanes
        among them: the new lead is 1 or 2, and so is the coordinate at it
        that the back-elimination takes off each row."""
        n, rows, x, h = case
        check_insert(3, n, rows, x, h)

    @given(st.integers(1, 64).flatmap(lambda n: st.tuples(
        st.lists(gf3_lanes(n), min_size=n, max_size=n), gf3_lanes(n))))
    @settings(max_examples=150)
    def test_matvec(self, case):
        rows, u = case
        n = len(u)
        f = gfp.field(3, n)
        got = f.matvec(_pack_bytes(np.array(rows).T), _pack_bytes(np.array([u]))[0])
        assert lists([got], n) == [[sum(e * c for e, c in zip(row, u)) % 3 for row in rows]]

    def test_all_twos_at_full_width(self):
        # every lane of the matvec accumulator at its bound 3n = 192
        n = 64
        f = gfp.field(3, n)
        twos = np.full((n, n), 2)
        got = f.matvec(_pack_bytes(twos), _pack_bytes(twos[:1])[0])
        assert lists([got], n) == [[2 * 2 * n % 3] * n]

    @pytest.mark.parametrize("pattern", ("twos", "ones", "alternating"))
    def test_reduce_at_the_lane_bound(self, pattern):
        """Rows e_j plus 2 in every off-pivot lane, history lanes included,
        all n = 64 vector lanes pivots: before the bytewise mod, a vector with
        every pivot coordinate 2 puts 2n = 128 in each history lane, and one
        with every pivot coordinate 1 puts the 3 #1 = 192 offset in each
        pivot lane; the insert finds it dependent and returns the history
        naive lists give.  The rows hold 2 at the new vector's history too,
        which no sequence of inserts leaves there, so that lane reaches the
        bound as well.  Then half the lanes pivots, the vector lanes off
        them 2 in every row as well: the vector is inserted."""
        n, width = 64, 129
        coeffs = {"twos": [2] * n, "ones": [1] * n, "alternating": [1, 2] * (n // 2)}[pattern]
        full = {j: [int(j == lane) if lane < n else 2 for lane in range(width)] for j in range(n)}
        check_insert(3, n, full, coeffs, 1)
        half = n // 2
        rows = {j: [int(j == lane) if lane < half else 2 for lane in range(width)] for j in range(half)}
        check_insert(3, n, rows, coeffs[:half] + [2] * half, n)


class TestElimination:
    @given(square())
    @settings(max_examples=150)
    def test_rank_and_invariants(self, case):
        p, rows = case
        n = len(rows)
        f = gfp.field(p, n)
        span, taken = insert_all(f, rows)
        check_invariants(span, rows, n, p)
        assert len(span.pivs) == len(taken) == rank_naive(rows, p)
        for j, row in enumerate(rows):
            assert f.insert(span, _pack_bytes(np.array([row]))[0], n) is not None
            assert (j in taken) == (rank_naive(rows[: j + 1], p) > rank_naive(rows[:j], p))

    @given(st.sampled_from(PRIMES), st.integers(1, 8), st.data())
    @settings(max_examples=150)
    def test_invariants_after_every_insert(self, p, n, data):
        """n + 1 inserts with histories 0..n, each vector random or a
        combination of the ones before it.  After every insert each row is 1
        at its pivot and 0 at the other pivot lanes, there is one pivot per
        mask bit, and a dependent insert returns the relation its history
        states: weighted by it, the vectors offered so far sum to zero, its
        own weight 1."""
        f = gfp.field(p, n)
        span, vecs = gfp.Echelon(n), []
        entry = st.integers(0, p - 1)
        for h in range(n + 1):
            if vecs and data.draw(st.booleans()):
                coeffs = data.draw(st.lists(entry, min_size=h, max_size=h))
                vecs.append(combination(coeffs, vecs, p))
            else:
                vecs.append(data.draw(st.lists(entry, min_size=n, max_size=n)))
            relation = f.insert(span, _pack_bytes(np.array([vecs[h]]))[0], h)
            assert span.mask.bit_count() == len(span.pivs)
            for piv, row in zip(span.pivs, lists([span.rows[j] for j in span.pivs], n)):
                assert [row[q] for q in span.pivs] == [int(q == piv) for q in span.pivs]
            if relation is not None:
                relation = list(relation)
                assert relation[h] == 1 and not any(relation[h + 1 :])
                assert combination(relation, vecs, p) == [0] * n

    @given(square())
    @settings(max_examples=150)
    def test_inverse_none_exactly_when_singular(self, case):
        """The rows fill the echelon exactly when they are independent, and
        then Echelon.inverse, read off the histories, is their inverse."""
        p, rows = case
        n = len(rows)
        f = gfp.field(p, n)
        span, _ = insert_all(f, rows)
        assert (len(span.pivs) == n) == (rank_naive(rows, p) == n)
        if len(span.pivs) == n:
            check_echelon_inverse(span, rows, p)

    @given(square(), st.data())
    @settings(max_examples=150)
    def test_dependent_insert_gives_coordinates(self, case, data):
        """A vector in the span is not inserted: insert returns its relation,
        history coordinates whose negation over the inserted vectors gives
        its coordinates, and leaves the rows, pivots and mask as they were."""
        p, rows = case
        n = len(rows)
        f = gfp.field(p, n)
        span, taken = insert_all(f, rows)
        before = (list(span.rows), list(span.pivs), span.mask)
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        y = combination(coeffs, rows, p)
        relation = f.insert(span, _pack_bytes(np.array([y]))[0], n)
        assert relation is not None and (span.rows, span.pivs, span.mask) == before
        hist = list(relation)
        assert len(hist) == n + 1 and hist[n] == 1
        x = [-c % p for c in hist[:n]]
        assert combination(x, rows, p) == y
        assert all(x[j] == 0 for j in range(n) if j not in taken)
        if len(taken) == n:
            assert x == coeffs
        check_invariants(span, rows, n, p)
        outside = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        in_span = rank_naive(rows + [outside], p) == rank_naive(rows, p)
        assert (f.insert(span, _pack_bytes(np.array([outside]))[0], n) is not None) == in_span


@pytest.mark.parametrize("p,bound", [(3, 84), (2, 254)])
def test_byte_lanes_up_to_their_bound(p, bound):
    """At the largest n the byte lanes hold, a matvec and an insert with
    every coordinate p - 1 off the pivots match naive lists; one n past it
    is refused, naming the bound, before a lane can carry."""
    n, width = bound, 2 * bound + 1
    f = gfp.field(p, n)
    full = np.full((n, n), p - 1)
    got = f.matvec(_pack_bytes(full), _pack_bytes(full[:1])[0])
    assert lists([got], n) == [[(p - 1) ** 2 * n % p] * n]
    rows = {j: [int(j == lane) if lane < n else p - 1 for lane in range(width)] for j in range(n)}
    check_insert(p, n, rows, [p - 1] * n, 0)
    with pytest.raises(ValueError, match=rf"GF\({p}\) byte lanes are exact only up to n = {bound}, got n = {bound + 1}"):
        gfp.field(p, bound + 1)


def check_echelon_inverse(span, rows, p):
    """Echelon.inverse of a full span of the rows, offered with histories 0
    to n - 1, is [I | X] with X their two-sided inverse."""
    n = len(rows)
    both = lists(span.inverse(), 2 * n + 1)
    assert [row[:n] for row in both] == identity(n) and not any(row[2 * n] for row in both)
    inv = [row[n : 2 * n] for row in both]
    assert mat_mul_naive(rows, inv, p) == mat_mul_naive(inv, rows, p) == identity(n)


def structured(p, n, kind, rng):
    """An invertible product of unit triangular factors, or a rank <= n/4
    product, as rows of ints in [0, p)."""
    if kind == "invertible":
        low = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
        up = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
        return (low.dot(up) % p).tolist()
    k = n // 4
    return (rng.integers(0, p, (n, k)).dot(rng.integers(0, p, (k, n))) % p).tolist()


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (63, 64))
@pytest.mark.parametrize("kind", ("invertible", "low-rank"))
def test_full_width(p, n, kind):
    """n + 1 offered vectors, so rows use all 2n + 1 coordinates (129 at
    n = 64); the last one is always dependent on a full-rank set."""
    rng = np.random.default_rng(1000 * p + n)
    rows = structured(p, n, kind, rng)
    vecs = rows + [rng.integers(0, p, n).tolist()]
    f = gfp.field(p, n)
    span, taken = insert_all(f, vecs)
    check_invariants(span, vecs, n, p)
    rank = rank_naive(rows, p)
    assert rank == (n if kind == "invertible" else len([j for j in taken if j < n]))
    assert len(span.pivs) == rank_naive(vecs, p)
    if kind == "invertible":
        assert n not in taken
        check_echelon_inverse(span, rows, p)


class TestKrylovForm:
    @staticmethod
    def check_form(a, p):
        """Q^-1 A Q is block upper triangular with companion diagonal blocks
        whose polynomials multiply to the characteristic polynomial."""
        n = a.n
        cols, q, q_inv = krylov_form(a.coeffs[0], p)
        q, q_inv = q.tolist(), q_inv.tolist()
        assert mat_mul_naive(q, q_inv, p) == identity(n)
        t = mat_mul_naive(mat_mul_naive(q_inv, a.to_rows(), p), q, p)
        at = 0
        charpoly = (1,)
        for col in cols:
            d = len(col)
            assert [row[at : at + d] for row in t[at : at + d]] == companion(p, col)
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
        for p in PRIMES:
            for n in (1, 4, 6):
                for _ in range(5):
                    self.check_form(RingMatrix.random(n, zm_ring(p), rng), p)

    def test_identity_gives_unit_blocks(self):
        cols = self.check_form(RingMatrix.identity(3, zm_ring(3)), 3)
        assert cols == [(1,), (1,), (1,)]

    def test_companion_is_one_block(self):
        cols = self.check_form(RingMatrix.from_rows(companion(3, (2, 1, 0)), zm_ring(3)), 3)
        assert cols == [(2, 1, 0)]

    def test_non_prime_field_rejected(self):
        # only GF(2) and GF(3) have a field: a prime p >= 5 is refused too
        for p in (6, 5, 7):
            with pytest.raises(InputError, match=r"GF\(2\) and GF\(3\) only"):
                krylov_form(np.eye(2, dtype=np.int64), p)

    def test_conductor_overrun_names_the_matrix(self, monkeypatch):
        """A matvec whose iterates never fall in the span (2 in lane 0, a
        value outside GF(2) that no reduction removes) runs the conductor
        search past the dimension bound: the error names the input."""
        real = gfp.field
        monkeypatch.setattr(gfp, "field", lambda p, n: real(p, n)._replace(matvec=lambda cols, u: 2))
        a = np.eye(2, dtype=np.int64)
        with pytest.raises(InternalCheckError, match="conductor search exceeded the dimension bound; input") as err:
            krylov_form(a, 2)
        assert err.value.matrix is a and repr(a) in str(err.value)


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


# SHA-256 digests of krylov_form's outputs with the list-based elimination,
# recorded before the packed kernel replaced it: (p, n, kind, digest)
PINNED = [
    (2, 8, "random", "63abbb05f7c0b026d5c2149c0f1b3de48bc1e67440c1711e78ff30d59929e510"),
    (2, 8, "low-rank", "ddb43edf05d52832a08a50680ce4d38f1c2eea99a70eba9dffb44bb24b60dbb3"),
    (2, 32, "random", "d316f7aa05ca16449eb30104d9c57c1495c5ef245ee06a615f2f3d55df6779bd"),
    (2, 32, "low-rank", "fe48ad5c67abcd19b8f5bd3147ed59fe8962b39d9897c3b63708c0a809ffe7d5"),
    (2, 64, "random", "3f622d31ba0fb0a832bd44508ae867aa11f936109dcca1fcd421bad0985f629e"),
    (2, 64, "low-rank", "7ecd22f145bc381782708abe580b3f14b374d7452d075699faf9f3d3de09e7e8"),
    (3, 8, "random", "1330f98c776bee4d1b315ff0d4e1d2c2d0429cf6c21fffa8036847d36089731b"),
    (3, 8, "low-rank", "fb185c62f8052a3fb81ac38988cfae96a32ae5211757545f121771e25452a966"),
    (3, 32, "random", "d6593b1a87354a6d465fc3cda22adbe8002820ee8954aae5fbdb5b9151d929a5"),
    (3, 32, "low-rank", "40a84407782fcbf4c5a7f1e2cf3e1ff3fb762eae483e08f487afd2dc431da66d"),
    (3, 64, "random", "af2a334f278b450db9f95e65eae9d92437c8020449492f1e523e4d1979856747"),
    (3, 64, "low-rank", "17e938a38cf9b745b802555cc65c6b4ad84725fef8715d52bcd1f898d98081fd"),
]


class TestPinnedOutputs:
    """krylov_form is bit-for-bit that of the list-based kernel."""

    @pytest.mark.parametrize("p,n,kind,digest", PINNED, ids=[f"gf{c[0]}-n{c[1]}-{c[2]}" for c in PINNED])
    def test_digests(self, p, n, kind, digest):
        cols, q, q_inv = krylov_form(pinned_matrix(p, n, kind, 1000 * p + n).coeffs[0], p)
        assert sha256([[list(c) for c in cols], q.tolist(), q_inv.tolist()]) == digest


# SHA-256 digests of certificate_to_doc(decompose_triangular(T)): one seeded
# upper-triangular T per 2-3-smooth m <= 2^31 (split products included),
# for each n, with and without the case-tags line.  Re-pinned when the
# documents gained the case tags of their 1 x 1 blocks, and again when the
# tags were renamed with the trace family; without that line they hash as
# when the diagonal still went through the element-level decomposition.
PINNED_TRIANGULAR = [
    (1, "db516781c28798cc282697bab3e50977931685618d45ed78685a8d13a5080b91",
         "b557913a3bd409255b50ceb8f0db12695aabd9f18bbc8f32ce6c97f9163a4ce2"),
    (2, "df1fddfbe04fd9d2c621b07e0e944a254616df390c2822051140fe6124a95a08",
         "2dabcd35c5e565cfeb99632638d2f509edfca53eb692561e5019df18e633cc0c"),
    (5, "36d164d70047a9fbb9d0135cf958967528f1a250c0efc15be84c584a99c4eb69",
         "c864e8d344665a7d449ea239b4a6482edaa96d351518bf50bf03bfc1da0340b6"),
    (12, "ae0c01b1da4ce013b3df2549612a2374b81e39f0f762e91aed7db02107534906",
         "0bb475ac88988846754e39b85953f4bb9895165c81b0dc5f98f8a64cfeb5e56d"),
]


class TestPinnedTriangular:
    """decompose_triangular's certificates are bit-for-bit the pinned ones."""

    @pytest.mark.parametrize("n,digest,untagged", PINNED_TRIANGULAR,
                             ids=[f"n{n}" for n, *_ in PINNED_TRIANGULAR])
    def test_digests(self, n, digest, untagged):
        rng = np.random.default_rng(7000 + n)
        h, bare = hashlib.sha256(), hashlib.sha256()
        for m in smooth_moduli(2**31):
            rows = np.triu(rng.integers(0, m, size=(n, n))).tolist()
            doc = certificate_to_doc(decompose_triangular(RingMatrix.from_rows(rows, zm_ring(m))))
            h.update(doc.encode())
            bare.update(re.sub(r"^case-tags: .*\n", "", doc, flags=re.M).encode())
        assert (h.hexdigest(), bare.hexdigest()) == (digest, untagged)
