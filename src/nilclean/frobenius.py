"""Polynomial arithmetic over GF(p), the Frobenius (rational canonical) form
with an explicit similarity transform, and the cheaper block-triangular
Krylov form that decompositions use.

The canonical form is computed by the cyclic-chain construction: repeatedly
pick a vector of maximal order in the quotient by the invariant subspace
spanned so far, correct it to an exact annihilator representative, and append
its Krylov chain.  Orders are computed as conductor polynomials by reducing
Krylov iterates against an RREF basis while tracking the combination history;
maximal orders are realized without factoring via coprime-part splitting of
polynomial lcms.  Every step that relies on a theorem is also asserted at
runtime, so a bug surfaces as InternalCheckError rather than a wrong form.

Block order is ascending divisibility: f_1 | f_2 | ... | f_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, InternalCheckError
from .matrix import RingMatrix, zm_ring
from .residue import factorize

# ---------------------------------------------------------------------------
# GF(p)[x] on plain coefficient tuples (ascending degree, trimmed, () = zero)
# ---------------------------------------------------------------------------

def _ptrim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pdeg(a: tuple[int, ...]) -> int:
    return len(a) - 1


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    if not b:
        raise InputError("polynomial division by zero")
    a = list(a)
    lead = b[-1]
    inv = 1 if lead == 1 else pow(lead, -1, p)
    db = len(b) - 1
    quo = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv % p
        k = len(a) - 1 - db
        quo[k] = c
        for i, bi in enumerate(b):
            a[k + i] = (a[k + i] - c * bi) % p
        a.pop()
    return _ptrim(quo), _ptrim(a)


def _pmonic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmonic(a, p)


def _plcm(a, b, p):
    if not a or not b:
        return ()
    quo, rem = _pdivmod(_pmul(a, b, p), _pgcd(a, b, p), p)
    assert not rem
    return _pmonic(quo, p)


def _pcoprime_part(f, g, p):
    """The divisor of f carrying, at full multiplicity, exactly the irreducible
    factors where f's multiplicity strictly exceeds g's.  No factoring needed:
    start from f / gcd(f, g) and absorb the matching part of the gcd."""
    d = _pgcd(f, g, p)
    f1 = _pdivmod(f, d, p)[0]
    while True:
        e = _pgcd(f1, d, p)
        if _pdeg(e) < 1:
            return _pmonic(f1, p)
        f1 = _pmul(f1, e, p)
        d = _pdivmod(d, e, p)[0]


def _pdivides(a, b, p) -> bool:
    """a | b."""
    if not b:
        return True
    if not a:
        return False
    return not _pdivmod(b, a, p)[1]


@dataclass(frozen=True)
class FieldPoly:
    """Polynomial over GF(p), ascending coefficients, canonical (trimmed)."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not factorize(self.p).is_prime():
            raise InputError(f"{self.p} is not prime")
        object.__setattr__(self, "coeffs", _ptrim(int(c) % self.p for c in self.coeffs))

    @property
    def degree(self) -> int:
        return _pdeg(self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _match(self, other: "FieldPoly") -> None:
        if self.p != other.p:
            raise InputError("mixed characteristics in polynomial arithmetic")

    def __add__(self, other):
        self._match(other)
        return FieldPoly(self.p, _padd(self.coeffs, other.coeffs, self.p))

    def __sub__(self, other):
        self._match(other)
        return FieldPoly(self.p, _psub(self.coeffs, other.coeffs, self.p))

    def __mul__(self, other):
        self._match(other)
        return FieldPoly(self.p, _pmul(self.coeffs, other.coeffs, self.p))

    def __divmod__(self, other):
        self._match(other)
        q, r = _pdivmod(self.coeffs, other.coeffs, self.p)
        return FieldPoly(self.p, q), FieldPoly(self.p, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other: "FieldPoly") -> "FieldPoly":
        self._match(other)
        return FieldPoly(self.p, _pgcd(self.coeffs, other.coeffs, self.p))

    def divides(self, other: "FieldPoly") -> bool:
        self._match(other)
        return _pdivides(self.coeffs, other.coeffs, self.p)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def monic(self) -> "FieldPoly":
        return FieldPoly(self.p, _pmonic(self.coeffs, self.p))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"x^{i}" if c == 1 else f"{c}x^{i}"))
        return " + ".join(terms) + f" over GF({self.p})"


# ---------------------------------------------------------------------------
# Companion blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompanionBlock:
    """Monic polynomial of degree n >= 1 with its companion matrix: ones on the
    subdiagonal and last column (c_0, ..., c_{n-1}) where
    poly = x^n - c_{n-1} x^{n-1} - ... - c_0."""

    poly: FieldPoly

    def __post_init__(self):
        if not self.poly.is_monic() or self.poly.degree < 1:
            raise InputError("companion block requires a monic polynomial of degree >= 1")

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def last_column(self) -> tuple[int, ...]:
        p = self.poly.p
        return tuple(-c % p for c in self.poly.coeffs[:-1])

    def matrix(self) -> RingMatrix:
        n = self.degree
        out = RingMatrix.zeros(n, zm_ring(self.poly.p))
        for i in range(1, n):
            out.coeffs[0, i, i - 1] = 1
        for i, c in enumerate(self.last_column):
            out.coeffs[0, i, n - 1] = c
        return out


def companion(poly: FieldPoly) -> RingMatrix:
    """Companion matrix of a monic polynomial of degree >= 1."""
    return CompanionBlock(poly).matrix()


@dataclass
class RcfResult:
    """Frobenius form data: transform @ A @ transform_inv = diag(blocks),
    block polynomials ascending in divisibility."""

    blocks: tuple[CompanionBlock, ...]
    transform: RingMatrix
    transform_inv: RingMatrix

    @property
    def polynomials(self) -> tuple[FieldPoly, ...]:
        return tuple(b.poly for b in self.blocks)

    def block_diagonal(self) -> RingMatrix:
        n = sum(b.degree for b in self.blocks)
        out = RingMatrix.zeros(n, self.transform.ring)
        at = 0
        for b in self.blocks:
            d = b.degree
            out.coeffs[0, at : at + d, at : at + d] = b.matrix().coeffs[0]
            at += d
        return out


# ---------------------------------------------------------------------------
# Conductor machinery
# ---------------------------------------------------------------------------

# The canonical-form kernels below work on plain Python lists: the matrices in
# play are small (n <= 64, hot paths n <= 8) and list arithmetic avoids the
# per-call overhead that dominates numpy at these sizes.

def _matvec(rows: list[list[int]], u: list[int], p: int) -> list[int]:
    return [sum(map(int.__mul__, r, u)) % p for r in rows]


def _poly_apply_vec(rows: list[list[int]], coeffs: Sequence[int],
                    v: list[int], p: int) -> list[int]:
    """Evaluate (sum_j coeffs[j] * A^j) v by Horner."""
    acc = [0] * len(v)
    for c in reversed(tuple(coeffs)):
        acc = _matvec(rows, acc, p)
        if c:
            acc = [(a + c * b) % p for a, b in zip(acc, v)]
    return acc


class _Span:
    """Fully reduced row-echelon basis over GF(p): every stored row has a unit
    pivot and zeros in all other pivot columns, so one pass reduces a vector.
    Rows are replaced, never changed in place, so copies may share them.

    ``hists``, when kept (krylov_form), writes each row as a combination of
    the chain vectors inserted so far, in insertion order.
    """

    __slots__ = ("p", "rows", "pivs", "hists")

    def __init__(self, p: int, rows=None, pivs=None, hists=None):
        self.p = p
        self.rows: list[list[int]] = rows if rows is not None else []
        self.pivs: list[int] = pivs if pivs is not None else []
        self.hists: Optional[list[list[int]]] = hists

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: list[int]) -> list[int]:
        p = self.p
        v = [c % p for c in v]
        for row, piv in zip(self.rows, self.pivs):
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def insert(self, v: list[int]) -> int:
        """Insert an already-reduced nonzero vector; returns its pivot column."""
        p = self.p
        piv = next(j for j, c in enumerate(v) if c)
        inv = pow(v[piv], -1, p)
        if inv != 1:
            v = [c * inv % p for c in v]
        for idx, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[idx] = [(a - c * b) % p for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivs.append(piv)
        return piv


def _conductor(mat_rows: list[list[int]], w: list[int], span: _Span, p: int):
    """Minimal monic g with g(A)w in the span (an A-invariant subspace).

    Returns (coefficient tuple of g, [w, Aw, ..., A^{deg g - 1} w], the span
    extended by that chain).  Histories track each working row as a
    combination of the span's chain vectors (indices below span.dim, zero
    when the span keeps no histories) followed by the Krylov iterates, so the
    vanishing reduction reads off g directly (monic by design: row t never
    touches iterates beyond t).
    """
    n = len(w)
    base = span.dim
    rows = span.rows[:]
    pivs = span.pivs[:]
    hists = span.hists[:] if span.hists is not None else [[0] * (n + 1)] * base
    krylov: list[list[int]] = []
    u = [c % p for c in w]
    for t in range(n + 1):
        h = [0] * (n + 1)
        h[base + t] = 1
        v = u
        for row, piv, rh in zip(rows, pivs, hists):
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
                h = [(a - c * b) % p for a, b in zip(h, rh)]
        for piv, lead in enumerate(v):
            if lead:
                break
        else:
            return _ptrim(h[base : base + t + 1]), krylov, _Span(p, rows, pivs, hists)
        if lead != 1:
            inv = pow(lead, -1, p)
            v = [c * inv % p for c in v]
            h = [c * inv % p for c in h]
        for idx, row in enumerate(rows):
            c = row[piv]
            if c:
                rows[idx] = [(a - c * b) % p for a, b in zip(row, v)]
                hists[idx] = [(a - c * b) % p for a, b in zip(hists[idx], h)]
        rows.append(v)
        pivs.append(piv)
        hists.append(h)
        krylov.append(u)
        u = _matvec(mat_rows, u, p)
    raise InternalCheckError("conductor search exceeded the dimension bound")


def _max_order_vector(mat_rows: list[list[int]], span: _Span, p: int):
    """Vector of maximal order in V / span, scanning standard basis vectors in
    index order and combining through coprime lcm splitting."""
    n = len(mat_rows)
    target = n - span.dim
    w: Optional[list[int]] = None
    h: tuple[int, ...] = (1,)
    krylov: Optional[list[list[int]]] = None
    for i in range(n):
        if _pdeg(h) >= target:
            break
        e_i = [0] * n
        e_i[i] = 1
        if span.dim and not any(span.reduce(e_i)):
            continue
        g, kry, _ = _conductor(mat_rows, e_i, span, p)
        dg = _pdeg(g)
        if dg < 1 or (dg <= _pdeg(h) and _pdivides(g, h, p)):
            continue
        if w is None or _pdivides(h, g, p):
            # g is a strict multiple of the running order: adopt e_i outright
            w, h, krylov = e_i, g, kry
            continue
        l = _plcm(h, g, p)
        f1 = _pcoprime_part(h, g, p)
        g1 = _pdivmod(l, f1, p)[0]
        if _pdeg(_pgcd(f1, g1, p)) != 0:
            raise InternalCheckError("coprime splitting failed")
        u1 = _poly_apply_vec(mat_rows, _pdivmod(h, f1, p)[0], w, p)
        u2 = _poly_apply_vec(mat_rows, _pdivmod(g, g1, p)[0], e_i, p)
        w = [(a + b) % p for a, b in zip(u1, u2)]
        h = l
        krylov = None  # combined vector: chain must be recomputed
    if w is None:
        raise InternalCheckError("no vector outside the current span")
    if krylov is None:
        g, krylov, _ = _conductor(mat_rows, w, span, p)
        if g != h:
            raise InternalCheckError("combined vector has unexpected order")
    return w, h, krylov


def _apply_order(mat_rows: list[list[int]], h: tuple[int, ...], w: list[int],
                 krylov: list[list[int]], p: int) -> list[int]:
    """h(A) w given the Krylov iterates [w, Aw, ..., A^{deg h - 1} w]."""
    if _pdeg(h) != len(krylov) or not krylov:
        raise InternalCheckError("Krylov chain does not match the order degree")
    acc = _matvec(mat_rows, krylov[-1], p)  # A^{deg} w, h is monic
    for c, u in zip(h, krylov):
        if c:
            acc = [(a + c * b) % p for a, b in zip(acc, u)]
    return acc


def _gauss_inverse(rows: list[list[int]], p: int) -> Optional[list[list[int]]]:
    """Gauss-Jordan inverse on list rows; None when singular."""
    n = len(rows)
    aug = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] % p), None)
        if piv is None:
            return None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        if inv != 1:
            aug[col] = [c * inv % p for c in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                c = aug[i][col]
                aug[i] = [(a - c * b) % p for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _solve_chain(cols: list[list[int]], y: list[int], p: int) -> list[int]:
    """Solve sum_j x_j cols[j] = y over GF(p); cols are independent."""
    n = len(y)
    k = len(cols)
    aug = [[cols[j][i] for j in range(k)] + [y[i]] for i in range(n)]
    rank = 0
    piv_cols = []
    for col in range(k):
        piv = next((i for i in range(rank, n) if aug[i][col] % p), None)
        if piv is None:
            raise InternalCheckError("chain basis is rank deficient")
        if piv != rank:
            aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(aug[rank][col], -1, p)
        if inv != 1:
            aug[rank] = [c * inv % p for c in aug[rank]]
        for i in range(n):
            if i != rank and aug[i][col]:
                c = aug[i][col]
                aug[i] = [(a - c * b) % p for a, b in zip(aug[i], aug[rank])]
        piv_cols.append(col)
        rank += 1
    if any(aug[i][-1] for i in range(rank, n)):
        raise InternalCheckError("inconsistent chain-coordinate system")
    x = [0] * k
    for r, col in enumerate(piv_cols):
        x[col] = aug[r][-1]
    return x


def krylov_form(a: RingMatrix) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Block-upper-triangular companion form over GF(p), with its transform.

    Scans e_1, e_2, ...; each one outside the span so far contributes its
    conductor chain w, Aw, ..., A^{d-1} w, where g of degree d is the minimal
    monic polynomial with g(A) w in that span.  In the basis Q of the
    concatenated chains, Q^-1 A Q is block upper triangular with the companion
    matrix of each chain's g on the diagonal: A maps each chain vector to the
    next, and the last one to -(g_0 w + ... + g_{d-1} A^{d-1} w) plus a vector
    of the earlier chains.  Unlike rcf, blocks need not divide one another, so
    each chain is eliminated once, and its elimination histories give Q^-1.

    Returns the last columns -g[:-1] of the diagonal blocks in basis order,
    then Q and Q^-1 as int64 arrays reduced mod p.
    """
    if not a.ring.is_prime_field():
        raise InputError("krylov_form requires a matrix over a prime field GF(p)")
    p, n = a.ring.m, a.n
    mat_rows = a.coeffs[0].tolist()
    span = _Span(p, hists=[])
    last_columns: list[tuple[int, ...]] = []
    basis: list[list[int]] = []
    for i in range(n):
        if span.dim == n:
            break
        e_i = [0] * n
        e_i[i] = 1
        g, chain, span = _conductor(mat_rows, e_i, span, p)
        if chain:
            last_columns.append(tuple(-c % p for c in g[:-1]))
            basis.extend(chain)
    # the reduced rows are now the unit vectors e_piv = sum_j hist[j] q_j, so
    # column piv of Q^-1 is that row's history
    q_inv_t = [h[:n] for _, h in sorted(zip(span.pivs, span.hists))]
    return last_columns, np.array(basis, dtype=np.int64).T, np.array(q_inv_t, dtype=np.int64).T


def rcf(a: RingMatrix) -> RcfResult:
    """Frobenius normal form with explicit transform over a prime field.

    Deterministic: candidate vectors are scanned in standard-basis order.
    """
    if not a.ring.is_prime_field():
        raise InputError("rcf requires a matrix over a prime field GF(p)")
    p = a.ring.m
    n = a.n
    mat_rows = [[int(v) for v in row] for row in a.coeffs[0]]
    span = _Span(p)
    gens: list[tuple[list[int], tuple[int, ...]]] = []
    chains: list[list[list[int]]] = []
    while span.dim < n:
        w, h, krylov = _max_order_vector(mat_rows, span, p)
        if gens:
            # y = h(A) w lies in the span; rewrite it over the chain basis and
            # subtract (q_i / h)(A) v_i so that h annihilates w exactly.
            y = _apply_order(mat_rows, h, w, krylov, p)
            if any(y):
                cols = [u for chain in chains for u in chain]
                x = _solve_chain(cols, y, p)
                at = 0
                for (v_i, _), chain in zip(gens, chains):
                    d_i = len(chain)
                    q = _ptrim(x[at : at + d_i])
                    at += d_i
                    if not q:
                        continue
                    quo, rem = _pdivmod(q, h, p)
                    if rem:
                        raise InternalCheckError("adjustment divisibility failed")
                    corr = _poly_apply_vec(mat_rows, quo, v_i, p)
                    w = [(a - b) % p for a, b in zip(w, corr)]
                krylov = []
                u = w
                for _ in range(_pdeg(h)):
                    krylov.append(u)
                    u = _matvec(mat_rows, u, p)
        if any(_apply_order(mat_rows, h, w, krylov, p)):
            raise InternalCheckError("generator is not annihilated by its order")
        gens.append((w, h))
        chains.append(krylov)
        for u in krylov:
            v = span.reduce(u)
            if not any(v):
                raise InternalCheckError("chain vector already inside the span")
            span.insert(v)
    gens.reverse()
    chains.reverse()
    polys = [h for _, h in gens]
    for fa, fb in zip(polys, polys[1:]):
        if not _pdivides(fa, fb, p):
            raise InternalCheckError("invariant factors do not form a chain")
    basis_cols = [u for chain in chains for u in chain]
    q_rows = [[basis_cols[j][i] for j in range(n)] for i in range(n)]
    q_inv_rows = _gauss_inverse(q_rows, p)
    if q_inv_rows is None:
        raise InternalCheckError("chain basis is singular")
    ring = a.ring
    blocks = tuple(CompanionBlock(FieldPoly(p, f)) for f in polys)
    return RcfResult(
        blocks=blocks,
        transform=RingMatrix(ring, np.array(q_inv_rows, dtype=np.int64)[None, :, :]),
        transform_inv=RingMatrix(ring, np.array(q_rows, dtype=np.int64)[None, :, :]),
    )


def verify_rcf(a: RingMatrix, result: RcfResult) -> bool:
    """Independent re-check of an RcfResult against its input matrix."""
    if not a.ring.is_prime_field():
        return False
    n = a.n
    p = a.ring.m
    t, t_inv = result.transform, result.transform_inv
    if t.ring != a.ring or t_inv.ring != a.ring or t.n != n or t_inv.n != n:
        return False
    if sum(b.degree for b in result.blocks) != n:
        return False
    ident = RingMatrix.identity(n, a.ring)
    if not (t @ t_inv == ident and t_inv @ t == ident):
        return False
    for block in result.blocks:
        if not block.poly.is_monic() or block.poly.degree < 1 or block.poly.p != p:
            return False
    for fa, fb in zip(result.blocks, result.blocks[1:]):
        if not fa.poly.divides(fb.poly):
            return False
    return (t @ a @ t_inv) == result.block_diagonal()
