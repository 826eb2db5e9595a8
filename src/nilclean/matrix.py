"""Dense exact matrices over Z_m and over Z_m[x]/(x^d), with certificates.

A matrix is stored as a coefficient stack ``coeffs`` of shape (d, n, n): slice
t holds the matrix coefficient of x^t, so d = 1 is the plain Z_m case.  All
slices are kept reduced into [0, m), and entries are int64 for every
supported m <= 2^31.  _stack_mul is the one exact product: it alone knows
the bound that keeps a product exact, and chooses the route by it."""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, ResourceCapError
from .residue import factorize

MAX_DIMENSION = 64
MAX_TRUNC_DEGREE = 64
BLAS_MIN_DIMENSION = 32  # measured: below it float64 loses at n = 8 and wherever it must split


@dataclass(frozen=True)
class MatrixRing:
    """The ring of matrix entries: Z_m when d == 1, otherwise Z_m[x]/(x^d).
    It compares and hashes by (m, d); the facts derived from m's
    factorization are computed on first read and kept with the ring, so a
    certificate does not recompute them."""

    m: int
    d: int = 1

    def __post_init__(self):
        factorize(self.m)  # refuses m outside [2, 2^31]
        if self.d < 1:
            raise InputError("truncation degree must be >= 1")
        if self.d > MAX_TRUNC_DEGREE:
            raise ResourceCapError(f"truncation degree {self.d} is over the cap {MAX_TRUNC_DEGREE}")

    @functools.cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in factorize(self.m))

    @functools.cached_property
    def max_exponent(self) -> int:
        """Nilpotency exponent of the nilradical of Z_m."""
        return max(e for _, e in factorize(self.m))

    @functools.cached_property
    def lift_rounds(self) -> int:
        """Rounds of x -> 3x^2 - 2x^3 that make exact a matrix idempotent mod
        every p | m: its defect x^2 - x lies in N = rad(m) M_n(Z_m), with
        N^max_exponent = 0, and each round squares it, so r rounds leave it in
        N^(2^r).  The least r with 2^r >= max_exponent, 0 when m is
        squarefree; further rounds leave the exact idempotent fixed."""
        return (self.max_exponent - 1).bit_length()

    @functools.cached_property
    def crt_basis(self) -> tuple[int, ...]:
        """The CRT idempotents c_q = (m/q) * ((m/q)^-1 mod q), one per prime
        power q = p^e of m: c_q is 1 mod q and 0 mod m/q, so every x in Z_m
        is the sum of c_q * (x mod q), mod m."""
        return tuple(self.m // p**e * pow(self.m // p**e, -1, p**e) for p, e in factorize(self.m))

    def nilpotency_bound(self, n: int) -> int:
        """Certified upper bound for the exponent of any nilpotent n x n matrix."""
        return n * self.max_exponent * self.d

    def describe(self) -> str:
        return f"Z{self.m}" if self.d == 1 else f"Z{self.m}[x]/(x^{self.d})"


def zm_ring(m: int) -> MatrixRing:
    return MatrixRing(m)


class RingMatrix:
    """Square matrix over a MatrixRing, canonical entries, value semantics."""

    __slots__ = ("ring", "n", "coeffs")

    def __init__(self, ring: MatrixRing, coeffs: np.ndarray):
        # internal: coeffs assumed already reduced and correctly shaped
        self.ring = ring
        self.n = coeffs.shape[1]
        self.coeffs = coeffs

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ring: MatrixRing) -> "RingMatrix":
        """Build from row-major nested lists; entries are ints for d = 1 and
        coefficient lists (ascending, length <= d) otherwise.  Rows holding a
        bool, which numpy reads beside ints as 0 or 1, go entry by entry,
        which refuses it."""
        coeffs = _exact_coeffs(rows, (len(rows),) * 2, ring)
        if coeffs is None or _has_bool_entry(rows):
            return cls._from_entries(rows, ring)
        return cls(ring, coeffs)

    @classmethod
    def _stack_from_rows(cls, mats: Sequence[Sequence[Sequence]], ring: MatrixRing) -> list["RingMatrix"]:
        """from_rows of each of several matrices whose rows hold no bool, as
        the CLI's do (parse_document refuses JSON true and false, and plain
        rows are digit runs), without from_rows' search for one: when they
        convert at once, views of one (k, d, n, n) stack; otherwise each
        entry by entry, one matrix after another in order."""
        coeffs = _exact_coeffs(mats, (len(mats),) + (len(mats[0]),) * 2, ring)
        if coeffs is None:
            return [cls._from_entries(rows, ring) for rows in mats]
        return [cls(ring, c) for c in coeffs]

    @classmethod
    def _from_entries(cls, rows: Sequence[Sequence], ring: MatrixRing) -> "RingMatrix":
        """from_rows one entry at a time: the one place that refuses rows.
        An entry is an int or a list (or tuple) of ints; anything else, an
        empty string, object or bool among them, is a TypeError."""
        n = len(rows)
        if not (1 <= n <= MAX_DIMENSION):
            raise InputError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")
        if any(len(r) != n for r in rows):
            raise InputError("matrix must be square")
        d = ring.d
        coeffs = np.zeros((d, n, n), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if isinstance(entry, (int, np.integer)) and not isinstance(entry, bool):
                    coeffs[0, i, j] = int(entry) % ring.m
                    continue
                if not isinstance(entry, (list, tuple)):
                    raise TypeError(f"entry {entry!r:.40} is neither an integer nor a list of integers")
                if d == 1 and len(entry) > 1:
                    raise InputError("polynomial entry in a plain Z_m matrix")
                if len(entry) > d:
                    raise InputError("entry has more coefficients than the ring degree")
                for t, c in enumerate(entry):
                    if isinstance(c, bool):
                        raise TypeError(f"coefficient {c!r} is not an integer")
                    coeffs[t, i, j] = operator.index(c) % ring.m  # no float or str
        return cls(ring, coeffs)

    @classmethod
    def zeros(cls, n: int, ring: MatrixRing) -> "RingMatrix":
        if not (1 <= n <= MAX_DIMENSION):
            raise InputError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")
        return cls(ring, np.zeros((ring.d, n, n), dtype=np.int64))

    @classmethod
    def identity(cls, n: int, ring: MatrixRing) -> "RingMatrix":
        out = cls.zeros(n, ring)
        idx = np.arange(n)
        out.coeffs[0, idx, idx] = 1 % ring.m
        return out

    @classmethod
    def random(cls, n: int, ring: MatrixRing, rng: np.random.Generator) -> "RingMatrix":
        if not (1 <= n <= MAX_DIMENSION):
            raise InputError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")
        return cls(ring, rng.integers(0, ring.m, size=(ring.d, n, n), dtype=np.int64))

    # -- ring plumbing ------------------------------------------------------

    def _match(self, other: "RingMatrix") -> None:
        if self.ring != other.ring or self.n != other.n:
            raise InputError("matrix ring/dimension mismatch")

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._match(other)
        return RingMatrix(self.ring, (self.coeffs + other.coeffs) % self.ring.m)

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        self._match(other)
        return RingMatrix(self.ring, _stack_mul(self.coeffs, other.coeffs, self.ring.m))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.n == other.n
            and np.array_equal(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def to_rows(self) -> list:
        if self.ring.d == 1:
            return self.coeffs[0].tolist()
        return self.coeffs.transpose(1, 2, 0).tolist()

    def __repr__(self) -> str:
        return f"RingMatrix({self.ring.describe()}, {self.to_rows()})"

    # -- structure ----------------------------------------------------------

    def is_upper_triangular(self) -> bool:
        n = self.n
        tril = np.tril_indices(n, k=-1)
        return not self.coeffs[:, tril[0], tril[1]].any()


# ---------------------------------------------------------------------------
# Coefficient-stack kernels
# ---------------------------------------------------------------------------

_BOOLS = frozenset((bool, np.bool_))


def _has_bool_entry(rows: Sequence) -> bool:
    """Whether a bool is among the entries of rows that _exact_coeffs read as
    one array, or among their coefficients: numpy reads one beside ints as 0
    or 1.  Such rows hold only scalar entries or only coefficient lists."""
    leaves = itertools.chain.from_iterable(rows)
    if isinstance(rows[0][0], (list, tuple, np.ndarray)):
        leaves = itertools.chain.from_iterable(leaves)
    return not _BOOLS.isdisjoint(map(type, leaves))


def _exact_coeffs(rows: Sequence, shape: tuple, ring: MatrixRing) -> Optional[np.ndarray]:
    """The coefficient stack, shape (..., d, n, n), of nested lists that numpy
    reads as one exact integer array of the given shape (..., n, n), or of
    that shape and a last axis of at most d coefficients, in one np.array
    call; None for anything else (mixed dimensions, ragged coefficient
    lists, ints past int64, every input to reject), to be read entry by
    entry."""
    n, k = shape[-1], len(shape)
    if not 1 <= n <= MAX_DIMENSION:
        return None
    try:
        block = np.array(rows)
    except ValueError:  # ragged, or nested past numpy's 64 dimensions
        return None
    if block.dtype.kind not in "iu" or block.shape[:k] != shape \
            or not (block.ndim == k or block.ndim == k + 1 and block.shape[k] <= ring.d):
        return None
    coeffs = np.zeros(shape[:-2] + (ring.d, n, n), dtype=np.int64)
    if block.ndim == k:
        np.remainder(block, ring.m, out=coeffs[..., 0, :, :])
    else:  # the coefficient axis, last in the rows, goes in front of them
        coeffs[..., :block.shape[k], :, :] = (block % ring.m).swapaxes(-1, -2).swapaxes(-2, -3)
    return coeffs


def _stack_mul(a: np.ndarray, b: np.ndarray, m: int, c: Optional[np.ndarray] = None) -> np.ndarray:
    """The product mod m of two (..., d, n, n) coefficient stacks, truncated
    at x^d, or the chain a b c of n x n a and c around a (..., 1, n, n) b.
    Slice t of a truncated product is the sum of the d raw products
    a_i b_(t-i), reduced once.

    A chain of f factors has partial sums below n^(f-1) (m-1)^f: exact on
    float64 BLAS, from BLAS_MIN_DIMENSION, while that is under 2^53, and on
    int64, which adds d of them, while d times it is under 2^63.  Past its
    bound a chain runs as two pairs, and a pair as a [b_hi | b_lo], b's
    16-bit halves side by side: every partial sum is then below
    n (m-1) 2^16 < 2^53, and (a b_hi mod m) 2^16 + a b_lo below 2^60, for
    n, d <= 64 and m <= 2^31; below m = 2^13 none passes its bound.  Both
    routes run one chain expression and one truncated-product loop: float64
    casts each operand once and each raw product to int64 before any sum,
    and reduces by x -= x // m * m, which numpy runs by a multiply; int64
    reduces by %, in one call for an unsplit pair at d = 1."""
    n, d = a.shape[-1], b.shape[-3]
    blas, f = n >= BLAS_MIN_DIMENSION, 2 if c is None else 3
    split = m > 2**13 and n ** (f - 1) * (m - 1) ** f * (1 if blas else d) >= (2**53 if blas else 2**63)
    if split and c is not None:  # no caller's chain gets here: they run over GF(2) and GF(3)
        return _stack_mul(_stack_mul(a[None], b, m), c[None], m)
    if split:
        b = np.concatenate((b >> 16, b & 0xFFFF), axis=-1)  # a [b_hi | b_lo]
    elif not blas and d == 1 and c is None:
        return np.matmul(a, b) % m
    if blas:  # each operand cast once, a square's one operand once
        square, a = b is a, a.astype(np.float64)
        b, c = a if square else b.astype(np.float64), c if c is None else c.astype(np.float64)
    if c is not None:
        out = (a @ b @ c).astype(np.int64, copy=False)
    else:
        out = np.matmul(a[..., :1, :, :], b).astype(np.int64, copy=False)
        for i in range(1, d):
            raw = np.matmul(a[..., i:i + 1, :, :], b[..., :d - i, :, :])
            out[..., i:, :, :] += raw.astype(np.int64, copy=False)
    if split:
        hi = out[..., :n]
        out = out[..., n:] + ((hi - hi // m * m if blas else hi % m) << 16)
    if blas:
        out -= out // m * m
        return out
    return out % m


def _min_exponent(x: np.ndarray, m: int, bound: int) -> Optional[int]:
    """Minimal k <= bound with x^k = 0 for a coefficient stack x, else None.

    Squares x until some x^(2^j) vanishes, keeping the squares, then descends
    greedily through them to the largest e with x^e != 0.  Both x^e != 0 and
    x^(e+1) = 0 are among the products computed on the way, so one pass of
    O(log bound) products proves the exponent minimal.
    """
    squares = [x]
    while np.count_nonzero(squares[-1]):
        if 1 << (len(squares) - 1) >= bound:
            return None
        squares.append(_stack_mul(squares[-1], squares[-1], m))
    if len(squares) == 1:
        return 1
    top = len(squares) - 2
    acc, e = squares[top], 1 << top
    for j in range(top - 1, -1, -1):
        cand = _stack_mul(acc, squares[j], m)
        if np.count_nonzero(cand):
            acc, e = cand, e + (1 << j)
    return e + 1 if e < bound else None


def _power(x: np.ndarray, m: int, k: int) -> np.ndarray:
    """x^k for a coefficient stack x and k >= 1, by square and multiply over
    the bits of k from the highest, with no product once a power on the way
    vanishes: floor(log2 k) + popcount(k) - 1 products at most."""
    out = x
    for bit in bin(k)[3:]:
        if not np.count_nonzero(out):
            break
        out = _stack_mul(out, out, m)
        if bit == "1" and np.count_nonzero(out):
            out = _stack_mul(out, x, m)
    return out


def _has_exponent(x: np.ndarray, m: int, k: int) -> bool:
    """Whether x^(k-1) != 0 and x^k = 0, for k >= 1: x^(k-1) by _power, then
    one product more; at most floor(log2(k-1)) + popcount(k-1) products."""
    if k == 1:
        return not np.count_nonzero(x)
    acc = _power(x, m, k - 1)
    return bool(np.count_nonzero(acc)) and not np.count_nonzero(_stack_mul(acc, x, m))


# ---------------------------------------------------------------------------
# Decomposition certificates
# ---------------------------------------------------------------------------

CHECK_E_IDEMPOTENT = "E idempotency"
CHECK_F_IDEMPOTENT = "F idempotency"
CHECK_SUM = "sum"
CHECK_NILPOTENCY = "nilpotency exponent"


@dataclass
class DecompositionCertificate:
    """The verified data of a = E + F + W with E, F idempotent, W nilpotent."""

    a: RingMatrix
    e: RingMatrix
    f: RingMatrix
    w: RingMatrix
    nilpotency_exponent: Optional[int]
    case_tags: tuple[str, ...] = ()
    verified: bool = False
    failure: Optional[str] = field(default=None, compare=False)


def verify_certificate(cert: DecompositionCertificate) -> bool:
    """Re-run all certificate conditions, record the first failed check's
    name (None when all hold) in cert.failure, and set and return the
    verified flag.  A stated exponent k <= bound is proved, W^(k-1) != 0 and
    W^k = 0.  A certificate under construction claims exponent None and gets
    W's minimal one filled in: one powering pass both finds the exponent and
    proves it."""
    ring, n = cert.a.ring, cert.a.n
    for x in (cert.e, cert.f, cert.w):
        if not (x.ring is ring or x.ring == ring) or x.n != n:
            raise InputError("certificate matrices disagree in ring or dimension")
    m, k, bound = ring.m, cert.nilpotency_exponent, ring.nilpotency_bound(n)
    a, e, f, w = cert.a.coeffs, cert.e.coeffs, cert.f.coeffs, cert.w.coeffs
    if np.count_nonzero(_stack_mul(e, e, m) - e):  # both in [0, m): 0 exactly when equal
        cert.failure = CHECK_E_IDEMPOTENT
    elif np.count_nonzero(_stack_mul(f, f, m) - f):
        cert.failure = CHECK_F_IDEMPOTENT
    elif np.count_nonzero((e + f + w - a) % m):
        cert.failure = CHECK_SUM
    elif k is None:
        cert.nilpotency_exponent = k = _min_exponent(w, m, bound)
        cert.failure = None if k is not None else CHECK_NILPOTENCY
    else:
        cert.failure = None if 1 <= k <= bound and _has_exponent(w, m, k) else CHECK_NILPOTENCY
    cert.verified = cert.failure is None
    return cert.verified
