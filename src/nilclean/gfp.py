"""The one GF(p) elimination kernel, on packed vectors, and the
block-triangular Krylov form that decompositions run on it.

A field over GF(p) supplies two kernels on packed vectors: ``matvec``
applies a matrix given by its packed columns, and ``insert(echelon, v, h)``
puts v into an ``Echelon`` in one call.  It sets v's history unit h,
reduces v against the rows, finds its lead, makes the pivot a unit, clears
the pivot column from the other rows and stores the row.
A field for n-vectors stores 2n + 1 coordinates: an elimination row is
[vector | history] as in Gauss-Jordan on [A | I], so one row operation
updates both.  Decompositions need only GF(2) and GF(3), and there a vector
is one int, coordinate j in byte j.  Over GF(2) a row operation is an XOR (as
in M4RI, Albrecht-Bard-Hart, ACM TOMS 2010); over GF(3) it adds lanewise and
takes 3 off every lane that reached it, six word operations.  A pivot is read
off its lane by one shift; over GF(3) the only one that is not 1 is 2, made 1
by the same six operations.  krylov_form refuses any other p.

Every lanewise sum of rows is one gather (``_gather``), in C: the matvec of a
Krylov step, and the reduction of a vector against an echelon basis, whose
rows are each zero in the other pivot columns, so v - sum_j v_j row_j over
the pivot lanes j is the whole reduction.  Over GF(3) that is
v - G1 + G2 + 3 #1, with G1 and G2 the gathers at the pivot coordinates
equal to 1 and to 2 and #1 the number of 1s, reduced bytewise: every lane
stays in [0, 3n + 2] (194 at n = 64), so byte lanes are exact to n = 84 (to
n = 254 over GF(2), where a lane reaches n + 1), and field refuses a larger n.
The back-elimination walks the echelon's list of pivot lanes.

The Krylov form rests on conductor polynomials: the Krylov iterates of a
vector are inserted into an echelon, whose histories write each row over the
chain vectors, and the first iterate that is already in the span reads off
the polynomial.

Packing a numpy row is one int.from_bytes, and unpacking one to_bytes, so
n = 3 stays as fast as plain lists.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from itertools import compress

import numpy as np

from .errors import InputError, InternalCheckError

Field = namedtuple("Field", "insert matvec")


class Echelon:
    """Fully reduced row-echelon basis of rows [vector | history], kept by
    pivot lane: rows[j] is the row whose unit pivot is coordinate j (its lead
    at insertion), or None; pivs lists those lanes in insertion order, and
    byte j of the mask is 1 exactly when j is one of them.  Every row is zero
    in the other pivot columns, so reducing a vector is one gather over its
    pivot coordinates.  The history, coordinates n..2n, is the same
    combination of the unit histories the vectors were inserted with;
    inserting the j-th vector with history j makes it coordinates over the
    inserted vectors.  History n is left for a vector known to be dependent.

    A field's ``insert(echelon, v, h)`` reduces v, with history unit h
    (coordinate n + h), and inserts it, pivot at its lead; v must be zero in
    the history coordinates, and no row may have history h yet.
    When v is already in the span it inserts nothing and returns the reduced
    row's history coordinates, a relation that the inserted vectors and v
    satisfy; otherwise it returns None."""

    __slots__ = ("rows", "pivs", "mask")

    def __init__(self, n: int):
        self.rows: list = [None] * n
        self.pivs: list[int] = []
        self.mask = 0

    def inverse(self) -> list:
        """The rows in pivot order.  With the span full each is [e_piv | h],
        so they are [I | X], X the inverse of the matrix of inserted vectors."""
        return [self.rows[j] for j in sorted(self.pivs)]


def _pack_bytes(mat: np.ndarray) -> list[int]:
    """One int per row of a matrix with entries in [0, 256), column j in byte j."""
    k, n = mat.shape
    text = mat.astype(np.uint8).tobytes()
    return [int.from_bytes(text[i * n : (i + 1) * n], "little") for i in range(k)]


def _unpack_bytes(vecs: list[int], n: int) -> np.ndarray:
    """Inverse of _pack_bytes on the low n bytes."""
    mask = (1 << 8 * n) - 1
    text = b"".join((v & mask).to_bytes(n, "little") for v in vecs)
    return np.frombuffer(text, dtype=np.uint8).astype(np.int64).reshape(len(vecs), n)


def _gather(cols: list[int], plane: int) -> int:
    """The lanewise sum of the columns at the set bits of a plane (bit 0 of
    each of its len(cols) lanes), summed in C.  Each lane of a column is at
    most 2, so no lane carries (2n <= 128), and what the callers build from
    gathers stays below 256 too: 3n for a GF(3) mat-vec, 3n + 2 for a GF(3)
    echelon reduction (194 at n = 64; exact up to n = 84)."""
    return sum(compress(cols, plane.to_bytes(len(cols), "little")), 0)


_MOD3 = bytes(i % 3 for i in range(256))
# the largest n whose lanes stay below 256: 3n + 2 over GF(3), n + 1 over GF(2)
_LANE_BOUND = {2: 254, 3: 84}


@functools.cache
def field(p: int, n: int) -> Field:
    """GF(2) or GF(3), for rows of n-vectors and their histories, on ints of
    2n + 1 byte lanes, for n up to the lanes' bound; past it a lane would
    carry into the next."""
    if n > _LANE_BOUND[p]:
        raise ValueError(f"GF({p}) byte lanes are exact only up to n = {_LANE_BOUND[p]}, got n = {n}")
    width, top = 2 * n + 1, 8 * n
    ones = int.from_bytes(b"\x01" * width, "little")
    fours, threes = ones << 2, 3 * ones

    def mod3(acc):
        """Each byte lane of acc mod 3."""
        return int.from_bytes(acc.to_bytes(width, "little").translate(_MOD3), "little")

    def matvec(cols, u):
        """Over GF(3): the columns at coordinates 1 less those at coordinates
        2, plus 3 per 2 to keep each lane in [0, 3n], reduced bytewise."""
        twos = u >> 1 & ones
        return mod3(_gather(cols, u & ones) - _gather(cols, twos) + 3 * twos.bit_count() * ones)

    def insert(e, v, h):
        """Over GF(3): the reduction is v - G1 + G2 + 3 #1, every lane in
        [0, 3n + 2].  A pivot 2 makes v 3 - v; then each row with coordinate
        c at the pivot gains v (c = 2) or 3 - v (c = 1).  Both take 3 off
        each lane that reached it."""
        rows, mask = e.rows, e.mask
        v |= 1 << (n + h << 3)
        plane, twos = v & mask, v >> 1 & mask
        if plane | twos:
            v = mod3(v - _gather(rows, plane) + _gather(rows, twos) + 3 * plane.bit_count() * ones)
        shift = (v & -v).bit_length() - 1 & -8
        if shift >= top:
            return v.to_bytes(width, "little")[n:]
        if v >> shift & 2:
            s = threes - v
            t = (s + ones) & fours
            v = s - t + (t >> 2)
        neg = threes - v
        for j in e.pivs:
            row = rows[j]
            c = row >> shift & 3
            if c:
                s = row + (v if c == 2 else neg)
                t = (s + ones) & fours
                rows[j] = s - t + (t >> 2)
        rows[shift >> 3] = v
        e.pivs.append(shift >> 3)
        e.mask = mask | 1 << shift
        return None

    if p == 2:
        def matvec(cols, u):
            return _gather(cols, u) & ones

        def insert(e, v, h):
            """Over GF(2): the reduction is the parity of v plus the rows at
            its pivot lanes, every lane at most n + 1."""
            rows, mask = e.rows, e.mask
            v |= 1 << (n + h << 3)
            plane = v & mask
            if plane:
                v = (v + _gather(rows, plane)) & ones
            shift = (v & -v).bit_length() - 1 & -8
            if shift >= top:
                return v.to_bytes(width, "little")[n:]
            for j in e.pivs:
                if rows[j] >> shift & 1:
                    rows[j] ^= v
            rows[shift >> 3] = v
            e.pivs.append(shift >> 3)
            e.mask = mask | 1 << shift
            return None

    return Field(insert, matvec)


@functools.cache
def _units(n: int) -> tuple:
    """e_0, ..., e_{n-1}, packed once."""
    return tuple(_pack_bytes(np.eye(n, dtype=np.int64)))


def krylov_form(mat: np.ndarray, p: int) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Block-upper-triangular companion form over GF(p), p = 2 or 3, of a
    square matrix with entries in [0, p), with its transform.

    Scans e_1, e_2, ...; each one outside the span so far contributes its
    conductor chain w, Aw, ..., A^{d-1} w, where g of degree d is the minimal
    monic polynomial with g(A) w in that span.  In the basis Q of the
    concatenated chains, Q^-1 A Q is block upper triangular with the companion
    matrix of each chain's g on the diagonal: A maps each chain vector to the
    next, and the last one to -(g_0 w + ... + g_{d-1} A^{d-1} w) plus a vector
    of the earlier chains.  Unlike the Frobenius form, blocks need not divide
    one another, so each chain is eliminated once, and its elimination
    histories give Q^-1.

    Returns the last columns -g[:-1] of the diagonal blocks in basis order,
    then Q and Q^-1 as int64 arrays reduced mod p.
    """
    if p not in _LANE_BOUND:
        raise InputError(f"krylov_form runs over GF(2) and GF(3) only, not Z{p}")
    n = mat.shape[0]
    insert, matvec = field(p, n)
    cols = _pack_bytes(mat.T)
    span = Echelon(n)
    last_columns: list[tuple[int, ...]] = []
    basis: list = []
    for u in _units(n):
        base = len(basis)
        if base == n:
            break
        # the iterate A^t u goes in with history base + t, after the chains
        # before it, so the relation of the first one in the span holds g:
        # monic, since no row inserted before it has history base + t
        for t in range(n + 1):
            g = insert(span, u, base + t)
            if g is not None:
                break
            basis.append(u)
            u = matvec(cols, u)
        else:
            raise InternalCheckError("conductor search exceeded the dimension bound", mat)
        if t:
            last_columns.append(tuple(-c % p for c in g[base : base + t]))
    # the chain vectors went in with unit histories, in basis order: unpacked
    # as [vector | history], they are [Q^T | 0] over [I | Q^-T]
    both = _unpack_bytes(basis + span.inverse(), 2 * n)
    return last_columns, both[:n, :n].T, both[n:, n:].T
