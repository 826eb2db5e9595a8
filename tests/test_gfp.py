"""The GF(p) elimination kernel against naive list arithmetic, in every packed
representation: byte lanes in one int for GF(2) and GF(3), int lists for
p >= 5.  Elimination rows are [vector | history], 2n + 1 coordinates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mat_mul_naive, rank_naive
from nilclean import gfp

PRIMES = (2, 3, 5, 7)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def lists(f, vecs, width):
    """Packed vectors back to lists of `width` coordinates."""
    return f.unpack(list(vecs), width).tolist()


def combination(coeffs, vecs, p):
    """sum_j coeffs[j] vecs[j] over GF(p)."""
    return [sum(c * v[i] for c, v in zip(coeffs, vecs)) % p for i in range(len(vecs[0]))]


def insert_all(f, vecs):
    """Offer vecs[j] with history j, in order; the span and the indices it
    took."""
    span = gfp.Echelon(f)
    return span, [j for j, v in enumerate(vecs) if span.insert(v, j) is None]


def pivots(span, n):
    """The pivot lanes, read off the byte mask."""
    return [j for j in range(n) if span.mask >> 8 * j & 0xFF]


def check_invariants(f, span, vecs, n, p):
    """Rows kept by pivot lane: the row at lane piv has a unit there that is
    its lead, zeros in the other pivot columns, and its vector equals its
    history's combination of the offered vectors; every other lane holds the
    zero row, and the mask's pivot bytes are 1."""
    pivs = pivots(span, n)
    assert len(span.rows) == n and span.dim == len(pivs)
    assert span.mask == sum(1 << 8 * j for j in pivs)
    for piv, row in enumerate(lists(f, span.rows, 2 * n + 1)):
        vector, hist = row[:n], row[n:]
        if piv not in pivs:
            assert not any(row)
            continue
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
        f = gfp.field(p, len(rows))
        assert lists(f, f.pack(np.array(rows)), len(rows)) == rows

    @given(square(), st.data())
    @settings(max_examples=120)
    def test_get_lead_scale_axpy(self, case, data):
        """On full rows [vector | history] of 2n + 1 coordinates."""
        p, rows = case
        n = len(rows)
        f = gfp.field(p, n)
        width = 2 * n + 1
        row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
        x, y = data.draw(row), data.draw(row)
        v, r = f.pack(np.array([x, y]))
        c = data.draw(st.integers(1, p - 1))
        assert list(f.coords(v)) == x
        assert f.lead(v) == next((j for j, e in enumerate(x) if e), -1)
        assert lists(f, [f.scale(v, c)], width) == [[e * c % p for e in x]]
        assert lists(f, [f.axpy(v, c, r)], width) == [[(a - c * b) % p for a, b in zip(x, y)]]
        assert lists(f, [f.zero, f.unit(width - 1)], width) == [[0] * width, [0] * (width - 1) + [1]]

    @given(square(), st.data())
    @settings(max_examples=120)
    def test_matvec(self, case, data):
        p, rows = case
        n = len(rows)
        u = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        f = gfp.field(p, n)
        a = np.array(rows)
        got = f.matvec(f.pack(a.T), f.pack(np.array([u]))[0])
        assert lists(f, [got], 2 * n + 1) == [[sum(e * c for e, c in zip(row, u)) % p
                                               for row in rows] + [0] * (n + 1)]


def gf3_lanes(width):
    """Vectors of GF(3) coordinates, all-2 and all-0 ones among them."""
    return st.one_of(st.lists(st.integers(0, 2), min_size=width, max_size=width),
                     st.sampled_from([[2] * width, [0] * width, [1] * width]))


class TestGf3Lanes:
    """The byte-lane GF(3) primitives at every width up to n = 64, where a
    row has 2n + 1 = 129 lanes, against naive mod-3 lists."""

    @given(st.integers(1, 64).flatmap(lambda n: st.tuples(
        st.just(n), gf3_lanes(2 * n + 1), gf3_lanes(2 * n + 1), st.sampled_from([1, 2]))))
    @settings(max_examples=300)
    def test_axpy_scale_get_lead(self, case):
        n, x, y, c = case
        f = gfp.field(3, n)
        width = 2 * n + 1
        v, r = f.pack(np.array([x, y]))
        assert lists(f, [f.axpy(v, c, r)], width) == [[(a - c * b) % 3 for a, b in zip(x, y)]]
        assert lists(f, [f.scale(v, c)], width) == [[a * c % 3 for a in x]]
        assert list(f.coords(v)) == x
        assert f.lead(v) == next((j for j, e in enumerate(x) if e), -1)

    @given(st.integers(1, 64).flatmap(lambda n: st.tuples(
        st.lists(gf3_lanes(n), min_size=n, max_size=n), gf3_lanes(n))))
    @settings(max_examples=150)
    def test_matvec(self, case):
        rows, u = case
        n = len(u)
        f = gfp.field(3, n)
        got = f.matvec(f.pack(np.array(rows).T), f.pack(np.array([u]))[0])
        assert lists(f, [got], n) == [[sum(e * c for e, c in zip(row, u)) % 3 for row in rows]]

    def test_all_twos_at_full_width(self):
        # every lane of the matvec accumulator at its bound 3n = 192
        n = 64
        f = gfp.field(3, n)
        twos = np.full((n, n), 2)
        got = f.matvec(f.pack(twos), f.pack(twos[:1])[0])
        assert lists(f, [got], n) == [[2 * 2 * n % 3] * n]

    @pytest.mark.parametrize("pattern", ("twos", "ones", "alternating"))
    def test_reduce_at_the_lane_bound(self, pattern):
        """Rows e_j plus 2 in every off-pivot lane, history lanes included,
        all n = 64 vector lanes pivots: before the bytewise mod, a vector with
        every pivot coordinate 2 puts 2n = 128 in each history lane, and one
        with every pivot coordinate 1 puts the 3 #1 = 192 offset in each
        pivot lane; checked against naive lists."""
        n, width = 64, 129
        f = gfp.field(3, n)
        rows = [[int(j == lane) if lane < n else 2 for lane in range(width)] for j in range(n)]
        coeffs = {"twos": [2] * n, "ones": [1] * n, "alternating": [1, 2] * (n // 2)}[pattern]
        x = coeffs + [0] * (n + 1)
        h = n + 1
        want = [(a - b) % 3 for a, b in zip(x, mat_mul_naive([coeffs], rows, 3)[0])]
        want[h] = (want[h] + 1) % 3
        mask = sum(1 << 8 * j for j in range(n))
        got = f.reduce(f.pack(np.array([x]))[0], h, f.pack(np.array(rows)), mask)
        assert lists(f, [got], width) == [want]
        # half the lanes pivots, inserted: vector lanes off the pivots hold 2
        # in every row as well
        half = n // 2
        span = gfp.Echelon(f)
        for j in range(half):
            span.insert(f.pack(np.array([[int(j == lane) if lane < half else 2
                                          for lane in range(n)]]))[0], j)
        y = coeffs[:half] + [2] * half + [0] * (n + 1)
        got = f.reduce(f.pack(np.array([y]))[0], 2 * n, span.rows, span.mask)
        basis = lists(f, span.inverse(), width)
        want = [(a - b) % 3 for a, b in zip(y, mat_mul_naive([coeffs[:half]], basis, 3)[0])]
        want[2 * n] = 1
        assert lists(f, [got], width) == [want]


class TestElimination:
    @given(square())
    @settings(max_examples=150)
    def test_rank_and_invariants(self, case):
        p, rows = case
        n = len(rows)
        f = gfp.field(p, n)
        span, taken = insert_all(f, f.pack(np.array(rows)))
        check_invariants(f, span, rows, n, p)
        assert span.dim == len(taken) == rank_naive(rows, p)
        assert gfp.rank(np.array(rows), p) == rank_naive(rows, p)
        for j, row in enumerate(rows):
            assert span.solve(f.pack(np.array([row]))[0]) is not None
            assert (j in taken) == (rank_naive(rows[: j + 1], p) > rank_naive(rows[:j], p))

    @given(square())
    @settings(max_examples=150)
    def test_inverse_none_exactly_when_singular(self, case):
        p, rows = case
        n = len(rows)
        inv = gfp.inverse(np.array(rows), p)
        if rank_naive(rows, p) < n:
            assert inv is None
        else:
            inv = inv.tolist()
            assert mat_mul_naive(rows, inv, p) == identity(n)
            assert mat_mul_naive(inv, rows, p) == identity(n)

    @given(square(), st.data())
    @settings(max_examples=150)
    def test_solve_round_trips(self, case, data):
        p, rows = case
        n = len(rows)
        f = gfp.field(p, n)
        span, taken = insert_all(f, f.pack(np.array(rows)))
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        y = combination(coeffs, rows, p)
        x = span.solve(f.pack(np.array([y]))[0])
        assert x is not None
        x = lists(f, [x], 2 * n + 1)[0][n:]
        assert combination(x[:n], rows, p) == y
        assert all(x[j] == 0 for j in range(n) if j not in taken)
        if len(taken) == n:
            assert x[:n] == coeffs
        outside = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        in_span = rank_naive(rows + [outside], p) == rank_naive(rows, p)
        assert (span.solve(f.pack(np.array([outside]))[0]) is not None) == in_span

    @given(square(), st.data())
    @settings(max_examples=100)
    def test_copy_leaves_the_original(self, case, data):
        """Inserting into a copy (as rcf's conductor scans and solve do)
        changes neither the original's rows nor its mask, and the original
        still reduces against its own span only."""
        p, rows = case
        n = len(rows)
        f = gfp.field(p, n)
        span, _ = insert_all(f, f.pack(np.array(rows)))
        before = (list(span.rows), span.mask)
        vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
        more = data.draw(st.lists(vec, min_size=1, max_size=n))
        other = span.copy()
        for v in f.pack(np.array(more)):
            other.insert(v, n)
        assert other.dim == rank_naive(rows + more, p)
        assert (span.rows, span.mask) == before
        check_invariants(f, span, rows, n, p)
        for v in more:
            in_span = rank_naive(rows + [v], p) == rank_naive(rows, p)
            assert (span.solve(f.pack(np.array([v]))[0]) is not None) == in_span


@pytest.mark.parametrize("p,bound", [(3, 84), (2, 254)])
def test_byte_lanes_up_to_their_bound(p, bound):
    """At the largest n the byte lanes hold, a matvec and a reduction with
    every coordinate p - 1 off the pivots match naive lists; one n past it
    is refused, naming the bound, before a lane can carry."""
    n, width = bound, 2 * bound + 1
    f = gfp.field(p, n)
    full = np.full((n, n), p - 1)
    got = f.matvec(f.pack(full), f.pack(full[:1])[0])
    assert lists(f, [got], n) == [[(p - 1) ** 2 * n % p] * n]
    rows = [[int(j == lane) if lane < n else p - 1 for lane in range(width)] for j in range(n)]
    x = [p - 1] * n + [0] * (n + 1)
    want = [(a - b) % p for a, b in zip(x, mat_mul_naive([x[:n]], rows, p)[0])]
    want[n] = 1
    mask = sum(1 << 8 * j for j in range(n))
    got = f.reduce(f.pack(np.array([x]))[0], n, f.pack(np.array(rows)), mask)
    assert lists(f, [got], width) == [want]
    with pytest.raises(ValueError, match=rf"GF\({p}\) byte lanes are exact only up to n = {bound}, got n = {bound + 1}"):
        gfp.field(p, bound + 1)


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
    span, taken = insert_all(f, f.pack(np.array(vecs)))
    check_invariants(f, span, vecs, n, p)
    rank = rank_naive(rows, p)
    assert rank == (n if kind == "invertible" else len([j for j in taken if j < n]))
    assert span.dim == rank_naive(vecs, p)
    assert gfp.rank(np.array(rows), p) == rank
    inv = gfp.inverse(np.array(rows), p)
    if kind == "invertible":
        assert n not in taken
        assert mat_mul_naive(rows, inv.tolist(), p) == identity(n)
    else:
        assert inv is None
