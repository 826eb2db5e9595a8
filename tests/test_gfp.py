"""The GF(p) elimination kernel against naive list arithmetic, in every packed
representation: GF(2) ints, GF(3) bit-planes, and int lists for p >= 5."""

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
    """Offer vecs[j] with history unit(j), in order; the span and the indices
    it took."""
    span = gfp.Echelon(f)
    return span, [j for j, v in enumerate(vecs) if span.insert(v, f.unit(j)) is None]


def check_invariants(f, span, vecs, n, p):
    """Unit pivots that are each row's lead, zeros in the other pivot columns,
    and every row equal to its history's combination of the offered vectors."""
    rows = lists(f, span.rows, n)
    hists = lists(f, span.hists, n + 1)
    for row, piv, hist in zip(rows, span.pivs, hists):
        assert row[piv] == 1 and not any(row[:piv])
        assert all(row[q] == 0 for q in span.pivs if q != piv)
        assert not any(hist[len(vecs):])
        assert combination(hist, vecs, p) == row


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
        p, rows = case
        n = len(rows)
        f = gfp.field(p, n)
        x, y = rows[0], rows[-1]
        v, r = f.pack(np.array([x, y]))
        c = data.draw(st.integers(1, p - 1))
        assert [f.get(v, j) for j in range(n)] == x
        assert f.lead(v) == next((j for j, e in enumerate(x) if e), -1)
        assert lists(f, [f.scale(v, c)], n) == [[e * c % p for e in x]]
        assert lists(f, [f.axpy(v, c, r)], n) == [[(a - c * b) % p for a, b in zip(x, y)]]
        assert lists(f, [f.zero, f.unit(n - 1)], n) == [[0] * n, [0] * (n - 1) + [1]]

    @given(square(), st.data())
    @settings(max_examples=120)
    def test_matvec(self, case, data):
        p, rows = case
        n = len(rows)
        u = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        f = gfp.field(p, n)
        a = np.array(rows)
        got = f.matvec(f.pack(a.T), f.pack(np.array([u]))[0])
        assert lists(f, [got], n) == [[sum(e * c for e, c in zip(row, u)) % p for row in rows]]


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
            reduced, _ = span.reduce(f.pack(np.array([row]))[0], f.zero)
            assert f.lead(reduced) == -1
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
        x = lists(f, [x], n + 1)[0]
        assert combination(x, rows, p) == y
        assert all(x[j] == 0 for j in range(n) if j not in taken)
        if len(taken) == n:
            assert x[:n] == coeffs
        outside = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        in_span = rank_naive(rows + [outside], p) == rank_naive(rows, p)
        assert (span.solve(f.pack(np.array([outside]))[0]) is not None) == in_span


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
    """n + 1 offered vectors, so histories use all n + 1 coordinates (65 at
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
