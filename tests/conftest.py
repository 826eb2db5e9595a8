"""Shared independent oracles for the test suite.

These helpers deliberately reimplement arithmetic from scratch (plain Python,
no imports from the package) so that agreement with the library is evidence,
not circularity.  The one exception is implication_audit, which checks the
package's own predicates against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest


# --- polynomial helpers over GF(p), ascending coefficient tuples -----------

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b, p):
    n = max(len(a), len(b))
    return poly_trim(
        ((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)
    )


def poly_sub(a, b, p):
    n = max(len(a), len(b))
    return poly_trim(
        ((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)
    )


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def charpoly_cofactor(rows, p):
    """Characteristic polynomial det(xI - A) over GF(p) by cofactor expansion
    along the first column.  Exponential; intended for n <= 6."""
    n = len(rows)
    mat = [
        [
            poly_trim(((-rows[i][j]) % p,) + ((1,) if i == j else ()))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        acc = ()
        for i, row in enumerate(sub):
            if not row[0]:
                continue
            minor = [r[1:] for j, r in enumerate(sub) if j != i]
            term = poly_mul(row[0], det(minor), p)
            acc = poly_add(acc, term, p) if i % 2 == 0 else poly_sub(acc, term, p)
        return acc

    return det(mat)


def companion(p, last_col):
    """Rows of the companion matrix over GF(p) with this last column: ones on
    the subdiagonal, so its polynomial is x^n - c_{n-1} x^{n-1} - ... - c_0."""
    n = len(last_col)
    return [[int(j == i - 1) for j in range(n - 1)] + [last_col[i] % p] for i in range(n)]


def trace_family(p, d, j):
    """(c_g, S) of the trace family over GF(p), in plain Python ints: c_g is
    the last column of the companion matrix C_g of g = (x - 1)^j x^(d - j),
    and S = s(C_g) for the s of degree < d with s = 1 mod (x - 1)^j and
    s = 0 mod x^(d - j), as rows.  With y = x - 1, s = x^(d-j) u for u the
    series of x^-(d-j) = (1 + y)^-(d-j) mod y^j, whose y^i coefficient is
    the binomial C(-(d - j), i).  C_g multiplies coefficient vectors by x
    mod g, so column i of s(C_g) is x^i s mod g."""
    g = (1,)
    for _ in range(j):
        g = poly_mul(g, (p - 1, 1), p)
    c_g = [0] * (d - j) + [-c % p for c in g[:-1]]
    k, u, y_i, binom = d - j, (), (1,), 1
    for i in range(j):
        u = poly_add(u, poly_mul(y_i, (binom % p,), p), p)
        y_i, binom = poly_mul(y_i, (p - 1, 1), p), binom * (-k - i) // (i + 1)
    s = poly_mul((0,) * k + (1,), u, p)
    col = list(s) + [0] * (d - len(s))
    cols = []
    for _ in range(d):
        cols.append(col)
        col = [(low + col[-1] * c) % p for low, c in zip([0] + col[:-1], c_g)]
    return c_g, [[cols[i][r] for i in range(d)] for r in range(d)]


def trace_family_j(p, d, trace):
    """The j the trace family takes for a degree-d block of this trace: the
    one in [0, d] with j + 1 = trace (mod p) nearest d/2, the smaller on a
    tie; None for the 1 x 1 block [0], which splits as 0 + 0 + 0."""
    if d == 1 and trace % p == 0:
        return None
    return min((j for j in range(d + 1) if (j + 1 - trace) % p == 0), key=lambda j: (abs(2 * j - d), j))


def smooth_moduli(limit):
    """Every m = 2^a 3^b with 2 <= m <= limit, ascending."""
    return sorted(2**a * 3**b for a in range(limit.bit_length()) for b in range(limit.bit_length())
                  if 2 <= 2**a * 3**b <= limit)


# --- naive modular matrix arithmetic on nested lists ------------------------

def mat_mul_naive(a, b, m):
    """a b mod m for a k x l and an l x w matrix."""
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) % m for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_is_zero(a):
    return all(v == 0 for row in a for v in row)


def nilpotency_naive_exact(rows, m, cap):
    """Minimal k with rows^k = 0 searching k = 1..cap, else None."""
    if mat_is_zero(rows):
        return 1
    power = rows
    for k in range(2, cap + 1):
        power = mat_mul_naive(power, rows, m)
        if mat_is_zero(power):
            return k
    return None


def det_cofactor(rows, m):
    """Determinant mod m by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % m
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor, m)
        total = (total - term if j % 2 else total + term) % m
    return total


def _gauss_jordan_naive(rows, p, cols):
    """Plain Gauss-Jordan over GF(p) on a copy of the rows, pivots taken in
    the first `cols` columns in order: the rank and the reduced rows."""
    a = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, a


def rank_naive(rows, p):
    """Rank over GF(p) by plain Gaussian elimination on a copy of the rows."""
    return _gauss_jordan_naive(rows, p, len(rows[0]) if rows else 0)[0]


def inverse_naive(rows, p):
    """Inverse over GF(p) of a square matrix by rank_naive's elimination on
    [g | I], or None when it is singular."""
    n = len(rows)
    rank, a = _gauss_jordan_naive([list(row) + [int(i == j) for j in range(n)]
                                   for i, row in enumerate(rows)], p, n)
    return [row[n:] for row in a] if rank == n else None


def unit_triangular_inverse(rows, m):
    """(I + N)^-1 over Z_m for a unit triangular I + N: N^n = 0, so it is the
    finite series sum_{k < n} (-N)^k, summed as the product of the
    I + (-N)^(2^j) over 2^j < n, in Python ints."""
    n = len(rows)
    ident = np.eye(n, dtype=np.int64).astype(object)
    power, total, k = (ident - np.array(rows, dtype=object)) % m, ident, 1
    while k < n:
        total, power, k = total.dot(ident + power) % m, power.dot(power) % m, 2 * k
    return total.tolist()


def unit_triangular_conjugator(n, m, gen):
    """P = L U over Z_m with L and U random unit lower and upper triangular,
    and its inverse U^-1 L^-1, as rows of Python ints."""
    low = np.tril(gen.integers(0, m, (n, n)), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(gen.integers(0, m, (n, n)), 1) + np.eye(n, dtype=np.int64)
    low, up = low.astype(object), up.astype(object)
    low_inv, up_inv = (np.array(unit_triangular_inverse(x.tolist(), m), dtype=object) for x in (low, up))
    return (low.dot(up) % m).tolist(), (up_inv.dot(low_inv) % m).tolist()


# --- naive reference arithmetic of the classifier's rings, on tuples --------
# An element is a tuple with one value per factor: a residue for Z_m, a flat
# row-major tuple for M_n(Z_m) (a factor with ``n``), a coefficient tuple for
# Z_m[x]/(x^d) (a factor with ``d``).  Elements are listed mixed-radix with
# the last factor fastest, one element at a time, with no batching.

class NaiveRing:
    """Per-element tuple arithmetic over a ring descriptor's factors."""

    def __init__(self, ring):
        self.ring = ring

    @staticmethod
    def _kind(f):
        """A factor's kind read off its shape: () a residue, (d,) polynomial
        coefficients, (n, n) a row-major matrix of n * n digits.  Any other
        layout is refused rather than read as one of these."""
        kind = {0: "residue", 1: "poly", 2: "matrix"}.get(len(f.shape))
        if kind is None or f.digits != math.prod(f.shape):
            raise NotImplementedError(f"no naive arithmetic for a factor of shape {f.shape}")
        return kind

    def _digits(self, f):
        return None if self._kind(f) == "residue" else math.prod(f.shape)

    def elements(self):
        return itertools.product(*[
            range(f.m) if self._digits(f) is None
            else itertools.product(range(f.m), repeat=self._digits(f))
            for f in self.ring.factors])

    def _map(self, op, *xs):
        out = []
        for f, *vals in zip(self.ring.factors, *xs):
            if self._digits(f) is None:
                out.append(op(*vals) % f.m)
            else:
                out.append(tuple(op(*v) % f.m for v in zip(*vals)))
        return tuple(out)

    def add(self, a, b):
        return self._map(lambda x, y: x + y, a, b)

    def neg(self, a):
        return self._map(lambda x: -x, a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        out = []
        for f, x, y in zip(self.ring.factors, a, b):
            m = f.m
            kind = self._kind(f)
            if kind == "matrix":
                n = f.shape[0]
                out.append(tuple(sum(x[i * n + k] * y[k * n + j] for k in range(n)) % m
                                 for i in range(n) for j in range(n)))
            elif kind == "poly":
                out.append(tuple(sum(x[i] * y[k - i] for i in range(k + 1)) % m
                                 for k in range(f.shape[0])))
            else:
                out.append(x * y % m)
        return tuple(out)

    def commutes(self, a, b):
        return self.mul(a, b) == self.mul(b, a)

    @property
    def zero(self):
        return self._map(lambda x: 0, self.one)

    @property
    def one(self):
        out = []
        for f in self.ring.factors:
            kind, shape = self._kind(f), f.shape
            if kind == "matrix":
                out.append(tuple(1 % f.m if i == j else 0 for i in range(shape[0]) for j in range(shape[1])))
            elif kind == "poly":
                out.append((1 % f.m,) + (0,) * (shape[0] - 1))
            else:
                out.append(1 % f.m)
        return tuple(out)

    def nilpotency_exponent(self, a, bound):
        """Minimal k <= bound with a^k = 0, else None."""
        power = a
        for k in range(1, bound + 1):
            if power == self.zero:
                return k
            power = self.mul(power, a)
        return None


# --- full-sumset references for the classifier's sum predicates ----------
# The oracle's earlier algorithm: materialise every sum, then scan the ring
# for a missing element.  Each returns (holds, witness_element,
# witness_parts, counterexample) for a ring descriptor, using only the
# naive arithmetic above and its element order.

def _naive_idempotents_nilpotents(ring):
    idem = [a for a in ring.elements() if ring.mul(a, a) == a]
    bound = ring.ring.nilpotency_bound()
    nil = [a for a in ring.elements() if ring.nilpotency_exponent(a, bound) is not None]
    return idem, nil


def _naive_sum_reach(ring, parts_list):
    reach = {}
    for parts in parts_list:
        total = parts[0]
        for x in parts[1:]:
            total = ring.add(total, x)
        reach.setdefault(total, parts)
    return reach


def _naive_verdict(ring, reach):
    for a in ring.elements():
        if a not in reach:
            return False, None, None, a
    return True, ring.one, reach[ring.one], None


def naive_two_nil_clean(descriptor):
    ring = NaiveRing(descriptor)
    idem, nil = _naive_idempotents_nilpotents(ring)
    sums = _naive_sum_reach(ring, [(e, f) for e in idem for f in idem])
    return _naive_verdict(ring, _naive_sum_reach(ring, [s + (w,) for s in sums.values() for w in nil]))


def naive_nil_clean(descriptor):
    ring = NaiveRing(descriptor)
    idem, nil = _naive_idempotents_nilpotents(ring)
    return _naive_verdict(ring, _naive_sum_reach(ring, [(e, w) for e in idem for w in nil]))


def naive_weakly_nil_clean(descriptor):
    ring = NaiveRing(descriptor)
    idem, nil = _naive_idempotents_nilpotents(ring)
    reach = {}
    for e in idem:
        for w in nil:
            for sign in (1, -1):
                reach.setdefault(ring.add(w, e if sign == 1 else ring.neg(e)), (e, w, sign))
    return _naive_verdict(ring, reach)


# --- matrix rows read entry by entry ----------------------------------------

def from_rows_reference(rows, m, d):
    """The coefficient stack [t][i][j] of a square matrix over Z_m[x]/(x^d)
    given as row lists, read one entry at a time: an int (or numpy integer)
    is the constant term, a list of at most d ints (one, when d = 1) the
    ascending coefficients.  Raises ValueError for a shape the matrix ring
    refuses and TypeError for an entry that is neither an integer nor a list
    (or tuple) of integers: an empty string or object too, though it has no
    coefficient, and a bool, though Python counts it an int."""
    n = len(rows)
    if not 1 <= n <= 64:
        raise ValueError(f"dimension {n}")
    if any(len(row) != n for row in rows):
        raise ValueError("not square")
    out = [[[0] * n for _ in range(n)] for _ in range(d)]
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if isinstance(entry, (int, np.integer)) and type(entry) is not bool:
                out[0][i][j] = int(entry) % m
                continue
            if not isinstance(entry, (list, tuple)):
                raise TypeError(f"entry {entry!r}")
            if len(entry) > d or d == 1 and len(entry) > 1:
                raise ValueError("too many coefficients")
            for t, c in enumerate(entry):
                if not isinstance(c, (int, np.integer)) or type(c) is bool:
                    raise TypeError(f"coefficient {c!r}")
                out[t][i][j] = int(c) % m
    return out


# --- the obstruction witness in M_2(Z_m), on flat row-major tuples ----------

def _mat2_mul(a, b, m):
    return tuple((a[2 * i] * b[j] + a[2 * i + 1] * b[2 + j]) % m for i in range(2) for j in range(2))


def _mat2_inverses(b, inverse, m):
    one = (1 % m, 0, 0, 1 % m)
    return _mat2_mul(b, inverse, m) == one and _mat2_mul(inverse, b, m) == one


@dataclass
class MatrixWitness:
    """b = A^3 - A for A = [[1,1],[1,0]] in M_2(Z_m), with its claimed inverse."""

    m: int
    holds: bool
    witness_element: tuple  # (b,)
    witness_parts: tuple  # ((inverse,),)

    def replay(self) -> bool:
        (b,), ((inverse,),) = self.witness_element, self.witness_parts
        return _mat2_inverses(b, inverse, self.m)


def check_not_strongly_matrix_witness(m, n=2):
    """The obstruction witness in M_2(Z_m): for A = [[1,1],[1,0]] the element
    A^3 - A equals [[2,1],[1,1]] and is invertible with inverse [[1,-1],[-1,2]],
    so it is never nilpotent, whatever m."""
    if n != 2:
        raise ValueError("the witness construction is specific to n = 2")
    a = (1 % m, 1 % m, 1 % m, 0)
    b = tuple((x - y) % m for x, y in zip(_mat2_mul(_mat2_mul(a, a, m), a, m), a))
    inverse = (1 % m, -1 % m, -1 % m, 2 % m)
    holds = b == (2 % m, 1 % m, 1 % m, 1 % m) and _mat2_inverses(b, inverse, m)
    return MatrixWitness(m, holds, (b,), ((inverse,),))


# --- the implication chain nil-clean => weakly nil-clean => two-nil-clean ---

@dataclass
class ImplicationAudit:
    """Internal consistency of the oracle across the implication chain."""

    ring: object
    reports: dict = field(default_factory=dict)
    consistent: bool = True
    violations: list = field(default_factory=list)


def implication_audit(ring):
    from nilclean.classifier import decide

    chain = ["nil-clean", "weakly-nil-clean", "two-nil-clean"]
    audit = ImplicationAudit(ring, {name: decide(name, ring) for name in chain})
    for stronger, weaker in zip(chain, chain[1:]):
        if audit.reports[stronger].holds and not audit.reports[weaker].holds:
            audit.consistent = False
            audit.violations.append(f"{stronger} holds but {weaker} fails")
    return audit


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
