"""The one GF(p) elimination kernel, on packed vectors.

A field fixes how a vector over GF(p) is stored and supplies the primitives
the elimination is written in: ``get`` reads a coordinate, ``lead`` finds the
lowest nonzero index (-1 for the zero vector), ``scale`` multiplies by a unit,
``axpy(v, c, r)`` is v - c*r, and ``matvec`` applies a matrix given by its
packed columns, one column per nonzero coordinate of the vector.  A field for
n-vectors stores 2n + 1 coordinates: an elimination row is [vector | history]
as in Gauss-Jordan on [A | I], so one row operation updates both.  p alone
picks the representation:

* GF(2) and GF(3): a vector is one int, coordinate j in byte j.  Over GF(2) a
  row operation is an XOR (as in M4RI, Albrecht-Bard-Hart, ACM TOMS 2010);
  over GF(3) it adds lanewise and takes 3 off every lane that reached it, six
  word operations;
* p >= 5: a list of 2n + 1 ints; of the commands, only rcf meets it
  (decompositions need p in {2, 3}).

Packing a numpy row is one int.from_bytes, and unpacking one to_bytes, so
n = 3 stays as fast as plain lists.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from typing import Optional

import numpy as np

Field = namedtuple("Field", "p n zero unit get lead scale axpy matvec pack unpack")


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
    each lane): at most 2n <= 128 per lane, so no carry."""
    acc = 0
    while plane:
        low = plane & -plane
        acc += cols[low.bit_length() - 1 >> 3]
        plane ^= low
    return acc


_MOD3 = bytes(i % 3 for i in range(256))


@functools.cache
def _byte_lanes(p: int, n: int) -> Field:
    """GF(2) or GF(3) on ints of 2n + 1 byte lanes."""
    width = 2 * n + 1
    ones = int.from_bytes(b"\x01" * width, "little")
    fours, threes = ones << 2, 3 * ones

    def axpy(v, c, r):
        """v - c*r over GF(3): add r (c = 2) or 3 - r (c = 1), then take 3 off
        each lane that reached it."""
        s = v + r if c == 2 else v + threes - r
        t = (s + ones) & fours
        return s - t + (t >> 2)

    def matvec(cols, u):
        """Over GF(3): the columns at coordinates 1 less those at coordinates
        2, plus 3 per 2 to keep each lane in [0, 3n], reduced bytewise."""
        twos = u >> 1 & ones
        acc = _gather(cols, u & ones) - _gather(cols, twos) + 3 * twos.bit_count() * ones
        return int.from_bytes(acc.to_bytes(width, "little").translate(_MOD3), "little")

    if p == 2:
        axpy, matvec = (lambda v, c, r: v ^ r), (lambda cols, u: _gather(cols, u) & ones)
    return Field(p, n, 0, lambda j: 1 << (j << 3), lambda v, j: v >> (j << 3) & 3,
                 lambda v: (v & -v).bit_length() - 1 >> 3,
                 lambda v, c: v if c == 1 else axpy(0, 1, v), axpy, matvec,
                 _pack_bytes, _unpack_bytes)


def field(p: int, n: int) -> Field:
    """GF(p), p prime, for rows of n-vectors and their histories."""
    if p <= 3:
        return _byte_lanes(p, n)
    width = 2 * n + 1

    def axpy(v, c, r):
        return [(a - c * b) % p for a, b in zip(v, r)]

    def matvec(cols, u):
        acc = [0] * width
        for c, col in zip(u, cols):
            if c:
                acc = axpy(acc, p - c, col)
        return acc

    return Field(
        p=p, n=n, zero=[0] * width, get=lambda v, j: v[j],
        unit=lambda j: [0] * j + [1] + [0] * (width - 1 - j),
        lead=lambda v: next((j for j, c in enumerate(v) if c), -1),
        scale=lambda v, c: [a * c % p for a in v], axpy=axpy, matvec=matvec,
        pack=lambda mat: [row + [0] * (width - len(row)) for row in mat.tolist()],
        unpack=lambda vecs, k: np.array([v[:k] for v in vecs], np.int64).reshape(len(vecs), k),
    )


class Echelon:
    """Fully reduced row-echelon basis of rows [vector | history]: every row
    has a unit pivot among the n vector coordinates (its lead at insertion)
    and zeros in all other pivot columns, so one pass reduces a vector.  The
    history, coordinates n..2n, is the same combination of the unit histories
    the vectors were inserted with; inserting the j-th vector with history j
    makes it coordinates over the inserted vectors.  History n is left for a
    vector known to be dependent.  Rows are replaced, never changed in place,
    so copies may share them."""

    __slots__ = ("f", "rows", "pivs")

    def __init__(self, f: Field, rows=(), pivs=()):
        self.f = f
        self.rows, self.pivs = list(rows), list(pivs)

    def copy(self) -> "Echelon":
        return Echelon(self.f, self.rows, self.pivs)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, v, k: int):
        """Reduce v, with history unit(k), and insert it, pivot at its lead.
        When v is already in the span, insert nothing and return the reduced
        row: its history is a relation that the inserted vectors and v
        satisfy."""
        f = self.f
        get, axpy, n = f.get, f.axpy, f.n
        v = axpy(v, f.p - 1, f.unit(n + k))
        for row, piv in zip(self.rows, self.pivs):
            c = get(v, piv)
            if c:
                v = axpy(v, c, row)
        piv = f.lead(v)
        if not 0 <= piv < n:
            return v
        c = get(v, piv)
        if c != 1:
            v = f.scale(v, pow(c, -1, f.p))
        rows = self.rows
        for i, row in enumerate(rows):
            c = get(row, piv)
            if c:
                rows[i] = axpy(row, c, v)
        rows.append(v)
        self.pivs.append(piv)
        return None

    def solve(self, y):
        """A row whose history holds the coordinates of y over the inserted
        vectors (and -1 at index n), or None when y is outside the span."""
        relation = self.copy().insert(y, self.f.n)
        return None if relation is None else self.f.scale(relation, self.f.p - 1)

    def inverse(self) -> list:
        """With the span full, each row is [e_piv | h], so the rows sorted by
        pivot are [I | X], X the inverse of the matrix of inserted vectors."""
        return [row for _, row in sorted(zip(self.pivs, self.rows))]


def _row_span(mat: np.ndarray, p: int) -> Echelon:
    """The rows of a matrix with entries in [0, p), inserted in order."""
    f = field(p, mat.shape[1])
    span = Echelon(f)
    for i, row in enumerate(f.pack(mat)):
        span.insert(row, i)
    return span


def rank(mat: np.ndarray, p: int) -> int:
    """Rank over GF(p) of a square matrix with entries in [0, p)."""
    return _row_span(mat, p).dim


def inverse(mat: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Inverse over GF(p) of a square matrix with entries in [0, p), or None
    when it is singular."""
    span = _row_span(mat, p)
    n = mat.shape[0]
    return span.f.unpack(span.inverse(), 2 * n)[:, n:] if span.dim == n else None
