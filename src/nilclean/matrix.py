"""Dense exact matrices over Z_m and over Z_m[x]/(x^d), with certificates.

A matrix is stored as a coefficient stack ``coeffs`` of shape (d, n, n): slice
t holds the matrix coefficient of x^t, so d = 1 is the plain Z_m case.  All
slices are kept reduced into [0, m), and entries are int64 for every
supported m <= 2^31.  _stack_mul is the one exact product; a truncated one
sums d raw products and reduces once.  From BLAS_MIN_DIMENSION (a crossover
measured, not derived) a product runs on float64 BLAS, exact while n*(m-1)^2
< 2^53, and below it on int64 matmul, exact while d*n*(m-1)^2 < 2^63; past
its route's bound, a product splits the right factor into 16-bit halves."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import gfp
from .errors import InputError, InternalCheckError, ResourceCapError
from .residue import Modulus, factorize, lift_iteration_cap

MAX_DIMENSION = 64
MAX_TRUNC_DEGREE = 64
BLAS_MIN_DIMENSION = 32  # measured: below it float64 loses at n = 8 and wherever it must split


@dataclass(frozen=True)
class MatrixRing:
    """Ring descriptor for matrix entries: Z_m when trunc_degree == 1,
    otherwise Z_m[x]/(x^trunc_degree)."""

    modulus: Modulus
    trunc_degree: int = 1

    def __post_init__(self):
        if self.trunc_degree < 1:
            raise InputError("truncation degree must be >= 1")
        if self.trunc_degree > MAX_TRUNC_DEGREE:
            raise ResourceCapError(
                f"truncation degree {self.trunc_degree} is over the cap {MAX_TRUNC_DEGREE}"
            )

    @property
    def m(self) -> int:
        return self.modulus.m

    @property
    def d(self) -> int:
        return self.trunc_degree

    def is_prime_field(self) -> bool:
        return self.trunc_degree == 1 and self.modulus.is_prime()

    def nilpotency_bound(self, n: int) -> int:
        """Certified upper bound for the exponent of any nilpotent n x n matrix."""
        return n * self.modulus.max_exponent * self.trunc_degree

    def radical_exponent(self) -> int:
        """Nilpotency exponent of the nilradical of the entry ring."""
        e = self.modulus.max_exponent
        return e if self.trunc_degree == 1 else e + self.trunc_degree - 1

    def describe(self) -> str:
        if self.trunc_degree == 1:
            return f"Z{self.m}"
        return f"Z{self.m}[x]/(x^{self.trunc_degree})"


def zm_ring(m: int) -> MatrixRing:
    return MatrixRing(factorize(m))


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
        coefficient lists (ascending, length <= d) otherwise."""
        coeffs = _exact_coeffs(rows, (len(rows),) * 2, ring)
        return cls._from_entries(rows, ring) if coeffs is None else cls(ring, coeffs)

    @classmethod
    def stack_from_rows(cls, mats: Sequence[Sequence[Sequence]], ring: MatrixRing) -> list["RingMatrix"]:
        """from_rows of each of several matrices: when they convert at once,
        views of one (k, d, n, n) stack; otherwise each entry by entry, one
        matrix after another in order."""
        coeffs = _exact_coeffs(mats, (len(mats),) + (len(mats[0]),) * 2, ring)
        if coeffs is None:
            return [cls._from_entries(rows, ring) for rows in mats]
        return [cls(ring, c) for c in coeffs]

    @classmethod
    def _from_entries(cls, rows: Sequence[Sequence], ring: MatrixRing) -> "RingMatrix":
        """from_rows one entry at a time: the one place that refuses rows.
        An entry is an int or a list (or tuple) of ints; anything else, an
        empty string or object among them, is a TypeError."""
        n = len(rows)
        if not (1 <= n <= MAX_DIMENSION):
            raise InputError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")
        if any(len(r) != n for r in rows):
            raise InputError("matrix must be square")
        d = ring.d
        coeffs = np.zeros((d, n, n), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if isinstance(entry, (int, np.integer)):
                    coeffs[0, i, j] = int(entry) % ring.m
                    continue
                if not isinstance(entry, (list, tuple)):
                    raise TypeError(f"entry {entry!r:.40} is neither an integer nor a list of integers")
                if d == 1 and len(entry) > 1:
                    raise InputError("polynomial entry in a plain Z_m matrix")
                if len(entry) > d:
                    raise InputError("entry has more coefficients than the ring degree")
                for t, c in enumerate(entry):
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

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        self._match(other)
        return RingMatrix(self.ring, (self.coeffs - other.coeffs) % self.ring.m)

    def __neg__(self) -> "RingMatrix":
        return RingMatrix(self.ring, (-self.coeffs) % self.ring.m)

    def __mul__(self, scalar: int) -> "RingMatrix":
        if not isinstance(scalar, (int, np.integer)):
            return NotImplemented
        m = self.ring.m
        # reduce first: an unreduced scalar could wrap the int64 product
        return RingMatrix(self.ring, (self.coeffs * (int(scalar) % m)) % m)

    __rmul__ = __mul__

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

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def to_rows(self) -> list:
        if self.ring.trunc_degree == 1:
            return self.coeffs[0].tolist()
        return self.coeffs.transpose(1, 2, 0).tolist()

    def __repr__(self) -> str:
        return f"RingMatrix({self.ring.describe()}, {self.to_rows()})"

    # -- structure ----------------------------------------------------------

    def is_idempotent(self) -> bool:
        return (self @ self) == self

    def is_upper_triangular(self) -> bool:
        n = self.n
        tril = np.tril_indices(n, k=-1)
        return not self.coeffs[:, tril[0], tril[1]].any()

    def residue_field_image(self, p: int) -> np.ndarray:
        """Image in M_n(GF(p)) killing the nilradical: x -> 0, entries mod p."""
        if p not in self.ring.modulus.primes:
            raise InputError(f"{p} does not divide {self.ring.m}")
        return self.coeffs[0] % p

    def nilpotency_exponent(self) -> Optional[int]:
        """Minimal k with self^k = 0, or None if not nilpotent: a nilpotent
        matrix has self^bound = 0 under the proven nilpotency bound."""
        return _min_exponent(self.coeffs, self.ring.m, self.ring.nilpotency_bound(self.n))

    def is_invertible(self) -> bool:
        """True iff the reduction mod every prime factor is invertible."""
        if self.ring.d != 1:
            raise InputError("is_invertible expects a plain Z_m matrix")
        return all(gfp.rank(self.residue_field_image(p), p) == self.n
                   for p in self.ring.modulus.primes)

    def inverse(self) -> "RingMatrix":
        """Explicit inverse over Z_m: invert mod each prime, recombine through
        the CRT idempotents, and Newton-lift x <- x(2 - ax), which squares the
        defect 1 - ax, for lift_iteration_cap's rounds; then ax = 1, checked
        once.  Raises InputError when singular."""
        if self.ring.d != 1:
            raise InputError("inverse expects a plain Z_m matrix")
        modulus = self.ring.modulus
        m = modulus.m
        x = np.zeros_like(self.coeffs)
        for p, c in zip(modulus.primes, modulus.crt_basis):
            x_p = gfp.inverse(self.residue_field_image(p), p)
            if x_p is None:
                raise InputError("matrix is not invertible (singular mod %d)" % p)
            x[0] = (x[0] + c * x_p % m) % m  # each term below m: nothing wraps
        ident = RingMatrix.identity(self.n, self.ring).coeffs
        for _ in range(lift_iteration_cap(modulus.max_exponent)):
            x = _stack_mul(x, (2 * ident - _stack_mul(self.coeffs, x, m)) % m, m)
        if not np.array_equal(_stack_mul(self.coeffs, x, m), ident):
            raise InternalCheckError("inverse failed verification", self)
        return RingMatrix(self.ring, x)


# ---------------------------------------------------------------------------
# Coefficient-stack kernels
# ---------------------------------------------------------------------------

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
    if block.dtype.kind not in "iub" or block.shape[:k] != shape \
            or not (block.ndim == k or block.ndim == k + 1 and block.shape[k] <= ring.d):
        return None
    coeffs = np.zeros(shape[:-2] + (ring.d, n, n), dtype=np.int64)
    if block.ndim == k:
        np.remainder(block, ring.m, out=coeffs[..., 0, :, :])
    else:  # the coefficient axis, last in the rows, goes in front of them
        coeffs[..., :block.shape[k], :, :] = (block % ring.m).swapaxes(-1, -2).swapaxes(-2, -3)
    return coeffs


def _stack_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Product of two (d, n, n) coefficient stacks, truncated at x^d, mod m;
    of two (k, d, n, n) stacks, the k products.  The product is bilinear, so
    past the bound of its route (2^53 for n (m-1)^2 on float64 BLAS, 2^63 for
    d n (m-1)^2 on int64, implied by the first from n = 32) a (b_hi 2^16 +
    b_lo) runs as two products: partial sums below n (m-1) 2^16 < 2^53, sums
    of d below 2^59, for n, d <= 64 and m <= 2^31."""
    # m first: the float64 bound is reached only from m > 2^23, int64's from 2^26
    if m > 2**23:
        n = a.shape[-1]
        if n >= BLAS_MIN_DIMENSION and n * (m - 1) ** 2 >= 2**53 or a.shape[-3] * n * (m - 1) ** 2 >= 2**63:
            return (_routed_mul(a, b >> 16, m) * 2**16 + _routed_mul(a, b & 0xFFFF, m)) % m
    return _routed_mul(a, b, m)


def _routed_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """_stack_mul for operands whose sums stay below the bound of their route.
    Slice t of a truncated product is the sum of a_i b_(t-i), d raw products
    added unreduced and reduced once.  A float64 product holds exact integers
    below 2^53, cast to int64 before any sum or reduction: sums stay < 2^59."""
    d = a.shape[-3]
    if d > 1:
        raw = np.matmul if a.shape[-1] < BLAS_MIN_DIMENSION else \
            lambda x, y: np.matmul(x.astype(np.float64), y.astype(np.float64)).astype(np.int64)
        out = raw(a[..., :1, :, :], b)
        for i in range(1, d):
            out[..., i:, :, :] += raw(a[..., i:i + 1, :, :], b[..., :d - i, :, :])
        return out % m
    if a.shape[-1] >= BLAS_MIN_DIMENSION:
        return np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(np.int64) % m
    return np.matmul(a, b) % m


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


def _has_exponent(x: np.ndarray, m: int, k: int) -> bool:
    """Whether x^(k-1) != 0 and x^k = 0, for k >= 1: x^(k-1) by square and
    multiply over the bits of k - 1, false once a power on the way vanishes,
    then one product more; at most floor(log2(k-1)) + popcount(k-1) products."""
    if k == 1:
        return not np.count_nonzero(x)
    acc = x
    for bit in bin(k - 1)[3:]:
        if not np.count_nonzero(acc):
            return False
        acc = _stack_mul(acc, acc, m)
        if bit == "1":
            acc = _stack_mul(acc, x, m)
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


def check_certificate(cert: DecompositionCertificate) -> Optional[str]:
    """Re-run all certificate conditions; return the first failed check name.
    A stated exponent k <= bound is proved, W^(k-1) != 0 and W^k = 0.  A
    certificate under construction claims exponent None and gets W's minimal
    one filled in: one powering pass both finds the exponent and proves it."""
    ring, n = cert.a.ring, cert.a.n
    for x in (cert.e, cert.f, cert.w):
        if not (x.ring is ring or x.ring == ring) or x.n != n:
            raise InputError("certificate matrices disagree in ring or dimension")
    m = ring.m
    a, e, f, w = cert.a.coeffs, cert.e.coeffs, cert.f.coeffs, cert.w.coeffs
    if np.count_nonzero((_stack_mul(e, e, m) - e) % m):
        return CHECK_E_IDEMPOTENT
    if np.count_nonzero((_stack_mul(f, f, m) - f) % m):
        return CHECK_F_IDEMPOTENT
    if np.count_nonzero((e + f + w - a) % m):
        return CHECK_SUM
    k = cert.nilpotency_exponent
    bound = ring.nilpotency_bound(n)
    if k is None:
        cert.nilpotency_exponent = k = _min_exponent(w, m, bound)
        return None if k is not None else CHECK_NILPOTENCY
    return None if 1 <= k <= bound and _has_exponent(w, m, k) else CHECK_NILPOTENCY


def verify_certificate(cert: DecompositionCertificate) -> bool:
    """Recompute the four certificate conditions and set the verified flag."""
    failure = check_certificate(cert)
    cert.failure = failure
    cert.verified = failure is None
    return cert.verified
