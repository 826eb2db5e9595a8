"""Polynomial arithmetic over GF(p), the Frobenius (rational canonical) form
with an explicit similarity transform, and the cheaper block-triangular
Krylov form that decompositions use.

Both forms rest on conductor polynomials: the Krylov iterates of a vector are
reduced against the ``gfp`` elimination kernel, whose histories write each
row over the chain vectors, and the first iterate that vanishes reads off the
polynomial.  ``gfp.field`` packs vectors by p: one int of byte lanes over
GF(2) and GF(3), int lists for p >= 5 (of the commands, only rcf meets
them).  The canonical form repeatedly picks a vector of maximal order modulo
the invariant subspace spanned so far (coprime splitting of lcms, no
factoring), corrects it to an exact annihilator representative, and appends
its chain; blocks ascend in divisibility, f_1 | f_2 | ... | f_k.  Each step
that relies on a theorem is asserted at runtime, so a bug surfaces as
InternalCheckError rather than a wrong form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, InternalCheckError
from .gfp import Echelon, field
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

    def divides(self, other: "FieldPoly") -> bool:
        if self.p != other.p:
            raise InputError("mixed characteristics in polynomial arithmetic")
        return _pdivides(self.coeffs, other.coeffs, self.p)


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


@dataclass
class RcfResult:
    """Frobenius form data: transform @ A @ transform_inv = diag(blocks),
    block polynomials ascending in divisibility."""

    blocks: tuple[CompanionBlock, ...]
    transform: RingMatrix
    transform_inv: RingMatrix

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
# Conductor machinery, on the packed vectors of the gfp kernel
# ---------------------------------------------------------------------------

def _chain(f, cols, w, d: int) -> list:
    """The Krylov chain [w, Aw, ..., A^{d-1} w]."""
    chain = []
    for _ in range(d):
        chain.append(w)
        w = f.matvec(cols, w)
    return chain


def _combine(f, coeffs: Sequence[int], chain: list):
    """sum_j coeffs[j] chain[j], i.e. q(A) w for q = coeffs and the chain of w."""
    if len(coeffs) > len(chain):
        raise InternalCheckError("polynomial degree exceeds the Krylov chain")
    acc = f.zero
    for c, u in zip(coeffs, chain):
        if c:
            acc = f.axpy(acc, f.p - c, u)
    return acc


def _conductor(cols, w, span: Echelon):
    """Minimal monic g with g(A)w in the span (an A-invariant subspace).

    Returns (coefficient tuple of g, [w, Aw, ..., A^{deg g - 1} w]) and
    extends the span by that chain in place.  The Krylov iterate A^t w goes in
    with history span.dim + t, after the span's own rows, so the history of
    the vanishing reduction reads off g directly (monic by design: row t never
    touches iterates beyond t).
    """
    f = span.f
    base = span.dim
    krylov: list = []
    u = w
    for t in range(len(cols) + 1):
        h = span.insert(u, base + t)
        if h is not None:
            lo = f.n + base
            return _ptrim(f.coords(h)[lo : lo + t + 1]), krylov
        krylov.append(u)
        u = f.matvec(cols, u)
    raise InternalCheckError("conductor search exceeded the dimension bound")


def _max_order_vector(cols, span: Echelon):
    """Vector of maximal order in V / span, scanning standard basis vectors in
    index order and combining through coprime lcm splitting."""
    f = span.f
    p, n = f.p, len(cols)
    target = n - span.dim
    w = None
    h: tuple[int, ...] = (1,)
    krylov: Optional[list] = None
    for i in range(n):
        if _pdeg(h) >= target:
            break
        g, kry = _conductor(cols, f.unit(i), span.copy())
        dg = _pdeg(g)
        if dg < 1 or (dg <= _pdeg(h) and _pdivides(g, h, p)):
            continue
        if w is None or _pdivides(h, g, p):
            # g is a strict multiple of the running order: adopt e_i outright
            w, h, krylov = f.unit(i), g, kry
            continue
        l = _plcm(h, g, p)
        f1 = _pcoprime_part(h, g, p)
        g1 = _pdivmod(l, f1, p)[0]
        if _pdeg(_pgcd(f1, g1, p)) != 0:
            raise InternalCheckError("coprime splitting failed")
        if krylov is None:
            krylov = _chain(f, cols, w, _pdeg(h))
        u1 = _combine(f, _pdivmod(h, f1, p)[0], krylov)
        u2 = _combine(f, _pdivmod(g, g1, p)[0], kry)
        w = f.axpy(u1, p - 1, u2)
        h = l
        krylov = None  # combined vector: chain must be recomputed
    if w is None:
        raise InternalCheckError("no vector outside the current span")
    if krylov is None:
        g, krylov = _conductor(cols, w, span.copy())
        if g != h:
            raise InternalCheckError("combined vector has unexpected order")
    return w, h, krylov


def _apply_order(f, cols, h: tuple[int, ...], krylov: list):
    """h(A) w given the Krylov iterates [w, Aw, ..., A^{deg h - 1} w]: h is
    monic, so A^{deg h} w plus the lower terms."""
    if _pdeg(h) != len(krylov) or not krylov:
        raise InternalCheckError("Krylov chain does not match the order degree")
    return f.axpy(f.matvec(cols, krylov[-1]), f.p - 1, _combine(f, h[:-1], krylov))


def _packed(a: RingMatrix, what: str):
    """The field and the packed columns of a matrix over GF(p)."""
    if not a.ring.is_prime_field():
        raise InputError(f"{what} requires a matrix over a prime field GF(p), "
                         f"not over {a.ring.describe()}")
    return (f := field(a.ring.m, a.n)), f.pack(a.coeffs[0].T)


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
    f, cols = _packed(a, "krylov_form")
    p, n = a.ring.m, a.n
    span = Echelon(f)
    last_columns: list[tuple[int, ...]] = []
    basis: list = []
    for i in range(n):
        if span.dim == n:
            break
        g, chain = _conductor(cols, f.unit(i), span)
        if chain:
            last_columns.append(tuple(-c % p for c in g[:-1]))
            basis.extend(chain)
    # the chain vectors went in with unit histories, in basis order: unpacked
    # as [vector | history], they are [Q^T | 0] over [I | Q^-T]
    both = f.unpack(basis + span.inverse(), 2 * n)
    return last_columns, both[:n, :n].T, both[n:, n:].T


def rcf(a: RingMatrix) -> RcfResult:
    """Frobenius normal form with explicit transform over a prime field,
    checked by verify_rcf.  Deterministic: candidate vectors are scanned in
    standard-basis order.
    """
    f, cols = _packed(a, "rcf")
    p, n = a.ring.m, a.n
    # every chain vector so far, with unit histories: solve() gives coordinates
    span = Echelon(f)
    polys: list[tuple[int, ...]] = []
    chains: list[list] = []
    while span.dim < n:
        w, h, krylov = _max_order_vector(cols, span)
        if polys:
            # y = h(A) w lies in the span; rewrite it over the chain basis and
            # subtract (q_i / h)(A) v_i so that h annihilates w exactly.
            y = _apply_order(f, cols, h, krylov)
            if f.lead(y) >= 0:
                x = span.solve(y)
                if x is None:
                    raise InternalCheckError("inconsistent chain-coordinate system")
                at, x = n, f.coords(x)
                for chain in chains:
                    d_i = len(chain)
                    q = _ptrim(x[at : at + d_i])
                    at += d_i
                    if not q:
                        continue
                    quo, rem = _pdivmod(q, h, p)
                    if rem:
                        raise InternalCheckError("adjustment divisibility failed")
                    w = f.axpy(w, 1, _combine(f, quo, chain))
                krylov = _chain(f, cols, w, _pdeg(h))
        if f.lead(_apply_order(f, cols, h, krylov)) >= 0:
            raise InternalCheckError("generator is not annihilated by its order")
        polys.append(h)
        chains.append(krylov)
        for u in krylov:
            if span.insert(u, span.dim) is not None:
                raise InternalCheckError("chain vector already inside the span")
    polys.reverse()
    for fa, fb in zip(polys, polys[1:]):
        if not _pdivides(fa, fb, p):
            raise InternalCheckError("invariant factors do not form a chain")
    # as in krylov_form, the histories give Q^-1 for the chains in the order
    # found; reversing the blocks permutes Q's columns and Q^-1's rows alike
    both = f.unpack([u for chain in chains for u in chain] + span.inverse(), 2 * n)
    order = np.concatenate(np.split(np.arange(n), np.cumsum([len(c) for c in chains])[:-1])[::-1])
    blocks = tuple(CompanionBlock(FieldPoly(p, g)) for g in polys)
    result = RcfResult(blocks, RingMatrix(a.ring, both[n:, n:].T[order][None]),
                       RingMatrix(a.ring, both[:n, :n].T[:, order][None]))
    if not verify_rcf(a, result):
        raise InternalCheckError("canonical form failed verification", a)
    return result


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
