"""The one GF(p) elimination kernel, on packed vectors.

A field fixes how a vector over GF(p) is stored and supplies the primitives
the elimination is written in: ``get`` reads a coordinate, ``lead`` finds the
lowest nonzero index (-1 for the zero vector), ``scale`` multiplies by a unit,
``axpy(v, c, r)`` is v - c*r, and ``matvec`` applies a matrix given by its
packed columns, one column per nonzero coordinate of the vector.  p alone
picks the representation:

* GF(2): a vector is one int, coordinate j at bit 8j, and a row operation is
  an XOR (as in M4RI, Albrecht-Bard-Hart, ACM TOMS 2010);
* GF(3): a vector is a pair of such bit-planes (ones, twos); a sum takes
  seven word operations and negation swaps the planes (Boothby-Bradshaw,
  "Bitslicing and the Method of Four Russians over larger finite fields",
  arXiv:0901.1413);
* p >= 5: a list of n + 1 ints, room for a history coordinate per vector;
  of the commands, only rcf meets it (decompositions need p in {2, 3}).

One coordinate per byte: packing a numpy row is one int.from_bytes, and
unpacking one to_bytes, so n = 3 stays as fast as plain lists.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

import numpy as np

Field = namedtuple("Field", "p zero unit get lead scale axpy matvec pack unpack")


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


def _gf2_matvec(cols: list[int], u: int) -> int:
    acc = 0
    while u:
        low = u & -u
        acc ^= cols[low.bit_length() - 1 >> 3]
        u ^= low
    return acc


def _gf3_axpy(v, c, r):
    """v - c*r: negating r swaps its planes, then seven word operations add."""
    a1, a2 = v
    b2, b1 = r if c == 1 else (r[1], r[0])
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _gf3_matvec(cols, u):
    """A coordinate 1 adds its column (v - 2r = v + r), a 2 subtracts it."""
    acc = (0, 0)
    for plane, c in ((u[0], 2), (u[1], 1)):
        while plane:
            low = plane & -plane
            acc = _gf3_axpy(acc, c, cols[low.bit_length() - 1 >> 3])
            plane ^= low
    return acc


_LOW = int.from_bytes(b"\x01" * 64, "little")  # bit 0 of each byte of a row

GF2 = Field(
    p=2, zero=0, unit=lambda j: 1 << (j << 3), get=lambda v, j: v >> (j << 3) & 1,
    lead=lambda v: (v & -v).bit_length() - 1 >> 3, scale=lambda v, c: v,
    axpy=lambda v, c, r: v ^ r, matvec=_gf2_matvec, pack=_pack_bytes, unpack=_unpack_bytes,
)

GF3 = Field(
    p=3, zero=(0, 0), unit=lambda j: (1 << (j << 3), 0),
    get=lambda v, j: (v[0] | v[1] << 1) >> (j << 3) & 3,
    lead=lambda v: ((x := v[0] | v[1]) & -x).bit_length() - 1 >> 3,
    scale=lambda v, c: v if c == 1 else (v[1], v[0]), axpy=_gf3_axpy, matvec=_gf3_matvec,
    pack=lambda mat: [(x & _LOW, x >> 1 & _LOW) for x in _pack_bytes(mat)],
    unpack=lambda vecs, n: _unpack_bytes([a | b << 1 for a, b in vecs], n),
)


def field(p: int, n: int) -> Field:
    """GF(p), p prime, for vectors of n coordinates (and histories of n + 1)."""
    if p == 2:
        return GF2
    if p == 3:
        return GF3
    width = n + 1

    def axpy(v, c, r):
        return [(a - c * b) % p for a, b in zip(v, r)]

    def matvec(cols, u):
        acc = [0] * width
        for c, col in zip(u, cols):
            if c:
                acc = axpy(acc, p - c, col)
        return acc

    return Field(
        p=p, zero=[0] * width, get=lambda v, j: v[j],
        unit=lambda j: [0] * j + [1] + [0] * (width - 1 - j),
        lead=lambda v: next((j for j, c in enumerate(v) if c), -1),
        scale=lambda v, c: [a * c % p for a in v], axpy=axpy, matvec=matvec,
        pack=lambda mat: [row + [0] * (width - len(row)) for row in mat.tolist()],
        unpack=lambda vecs, k: np.array([v[:k] for v in vecs], np.int64).reshape(len(vecs), k),
    )


class Echelon:
    """Fully reduced row-echelon basis: every row has a unit pivot (its lead
    at insertion) and zeros in all other pivot columns, so one pass reduces a
    vector.  Each row carries a history, the same combination of the
    histories its vectors were inserted with; inserting the j-th vector with
    ``unit(j)`` makes the histories coordinates over the inserted vectors.
    Rows are replaced, never changed in place, so copies may share them."""

    __slots__ = ("f", "rows", "pivs", "hists")

    def __init__(self, f: Field, rows=(), pivs=(), hists=()):
        self.f = f
        self.rows, self.pivs, self.hists = list(rows), list(pivs), list(hists)

    def copy(self) -> "Echelon":
        return Echelon(self.f, self.rows, self.pivs, self.hists)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v, h):
        """(v - sum c_i row_i, h - sum c_i hist_i), zero in every pivot column."""
        get, axpy = self.f.get, self.f.axpy
        for row, piv, rh in zip(self.rows, self.pivs, self.hists):
            c = get(v, piv)
            if c:
                v = axpy(v, c, row)
                h = axpy(h, c, rh)
        return v, h

    def insert(self, v, h):
        """Reduce v, with history h, and insert it, pivot at its lead.  When v
        is already in the span, insert nothing and return the reduced history:
        a relation that the inserted vectors and v satisfy."""
        v, h = self.reduce(v, h)
        f = self.f
        piv = f.lead(v)
        if piv < 0:
            return h
        c = f.get(v, piv)
        if c != 1:
            inv = pow(c, -1, f.p)
            v, h = f.scale(v, inv), f.scale(h, inv)
        rows, hists = self.rows, self.hists
        for i, row in enumerate(rows):
            c = f.get(row, piv)
            if c:
                rows[i] = f.axpy(row, c, v)
                hists[i] = f.axpy(hists[i], c, h)
        rows.append(v)
        self.pivs.append(piv)
        hists.append(h)
        return None

    def solve(self, y):
        """Coordinates of y over the inserted vectors, or None outside the span."""
        v, h = self.reduce(y, self.f.zero)
        return self.f.scale(h, self.f.p - 1) if self.f.lead(v) < 0 else None

    def inverse(self) -> list:
        """With the span full, each row is its e_piv, so the histories sorted by
        pivot are the rows of the inverse of the matrix of inserted vectors."""
        return [h for _, h in sorted(zip(self.pivs, self.hists))]


def _row_span(mat: np.ndarray, p: int) -> Echelon:
    """The rows of a matrix with entries in [0, p), inserted in order."""
    f = field(p, mat.shape[1])
    span = Echelon(f)
    for i, row in enumerate(f.pack(mat)):
        span.insert(row, f.unit(i))
    return span


def rank(mat: np.ndarray, p: int) -> int:
    """Rank over GF(p) of a square matrix with entries in [0, p)."""
    return _row_span(mat, p).dim


def inverse(mat: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Inverse over GF(p) of a square matrix with entries in [0, p), or None
    when it is singular."""
    span = _row_span(mat, p)
    n = mat.shape[0]
    return span.f.unpack(span.inverse(), n) if span.dim == n else None
