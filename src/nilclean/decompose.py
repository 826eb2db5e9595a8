"""Constructive idempotent + idempotent + nilpotent decompositions.

One reduce-solve-lift path serves every coefficient ring Z_m[x]/(x^d) with
2-3-smooth m, as in the paper's first theorem: modulo its nilradical the ring
is a product of copies of GF(2) and GF(3).  For each prime power p^k || m the
constant term of A is reduced to a GF(p) matrix and solved there; the
solutions are recombined through the CRT idempotents c_q into one E/F stack,
congruent to the GF(p) solutions mod each p^k; the stack is lifted once over
Z_m by the cubic idempotent iteration, for the round count that makes it
exact (none when m is squarefree), and W = A - E - F, which is nilpotent
because its image modulo the nilradical is.  E and F are proved idempotent
only by the certificate check.

There is one GF(p) solver, for the fields whose templates _TEMPLATES holds.
It brings the matrix to its block-upper-triangular Krylov form, splits each
diagonal companion block by a closed-form template keyed on the block's
bottom-right entry (the trace of a companion matrix) and conjugates back;
everything off the diagonal goes into W, which stays nilpotent because its
diagonal blocks are (the Frobenius form is not needed).  An upper-triangular
matrix has 1 x 1 blocks and Q = I, so its E and F are the 0/1 diagonals
[t_ii != 0] and [t_ii = 2] and E, F and W stay upper triangular; its
certificate carries the case tags of those blocks.

Every public certificate-producing function verifies its output once, before
returning, and raises InternalCheckError on failure: a wrong certificate is a
bug here, never a value.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import InputError, InternalCheckError, UnsupportedRingError
from .gfp import krylov_form
from .matrix import DecompositionCertificate, RingMatrix, _stack_mul, verify_certificate


class CaseTag(enum.Enum):
    """Which closed-form template handled a companion block.

    The split keys on the field and on the block's bottom-right entry c_{n-1}
    (the trace of a companion matrix); the trace-zero templates additionally
    depend on the block size.
    """

    GF3_TRACE_ONE = "gf3:trace-one"
    GF3_TRACE_MINUS_ONE = "gf3:trace-minus-one"
    GF3_TRACE_ZERO_DIM1 = "gf3:trace-zero-dim1"
    GF3_TRACE_ZERO_DIM2 = "gf3:trace-zero-dim2"
    GF3_TRACE_ZERO_BIG = "gf3:trace-zero-big"
    GF2_TRACE_ONE = "gf2:trace-one"
    GF2_TRACE_ZERO = "gf2:trace-zero"


def _companion_pair_gf3(last_col: tuple[int, ...], e: np.ndarray, f: np.ndarray) -> CaseTag:
    """Template idempotents of the GF(3) companion matrix with the given last
    column, reduced mod 3, written into the zero arrays e and f; W is the
    companion matrix minus both.  Returns the case tag."""
    n = len(last_col)
    trace = last_col[-1]
    if trace == 1:
        e[:, -1] = last_col
        return CaseTag.GF3_TRACE_ONE
    if trace == 2:
        # M with last column (c_0..c_{n-2}, -1) satisfies M^2 = -M, so -M is
        # idempotent and (-M) + (-M) = -2M = M restores the column.
        e[:, -1] = f[:, -1] = [-c % 3 for c in last_col[:-1]] + [1]
        return CaseTag.GF3_TRACE_MINUS_ONE
    if n == 1:
        return CaseTag.GF3_TRACE_ZERO_DIM1
    if n == 2:
        e[0, 0] = e[1, 1] = 1
        f[:] = ((2, 1), (1, 2))
        return CaseTag.GF3_TRACE_ZERO_DIM2
    # n >= 3: two idempotents supported on the bottom-right 3x3 corner; W
    # keeps the shortened shift and the adjusted last column.
    e[n - 2, n - 2] = e[n - 1, n - 3] = e[n - 1, n - 1] = 1
    f[n - 2 :, n - 3 :] = ((1, 2, 1), (2, 1, 2))
    return CaseTag.GF3_TRACE_ZERO_BIG


def _companion_pair_gf2(last_col: tuple[int, ...], e: np.ndarray, f: np.ndarray) -> CaseTag:
    """Template idempotents of the GF(2) companion matrix with the given last
    column, reduced mod 2, written into the zero arrays e and f: a column
    whose bottom entry is 1 is idempotent; a trace-zero block sheds a corner
    unit idempotent, after which the remainder has bottom entry 1 again."""
    n = len(last_col)
    if last_col[-1]:
        e[:, -1] = last_col
        return CaseTag.GF2_TRACE_ONE
    if n > 1:
        e[n - 1, n - 1] = 1
        f[:, -1] = last_col[:-1] + (1,)
    return CaseTag.GF2_TRACE_ZERO


# the fields GF(p) that have a solver, each with its companion-block templates
_TEMPLATES = {2: _companion_pair_gf2, 3: _companion_pair_gf3}


def _krylov_solve(mat: np.ndarray, p: int):
    """E and F of a matrix over a field in _TEMPLATES, as one (2, 1, n, n)
    stack mod p, and its case tags: the field's templates on the diagonal
    blocks of the Krylov form, written into the two slices of one stack and
    conjugated back together."""
    n = mat.shape[0]
    pair = _TEMPLATES[p]
    last_columns, q, q_inv = krylov_form(mat, p)
    ef = np.zeros((2, 1, n, n), dtype=np.int64)
    e, f = ef[0, 0], ef[1, 0]  # unpacking an array iterates it, 4x slower
    tags = []
    at = 0
    for col in last_columns:
        d = len(col)
        tag = pair(col, e[at : at + d, at : at + d], f[at : at + d, at : at + d])
        tags.append(f"{tag._value_}:n{d}")
        at += d
    return _stack_mul(q, ef, p, q_inv), tuple(tags)


def _lift_idempotents(stack: np.ndarray, m: int, rounds: int) -> np.ndarray:
    """rounds steps of x <- 3x^2 - 2x^3, two batched products each, on a
    (k, d, n, n) stack over Z_m[x]/(x^d) that is idempotent mod every p | m.
    Each step squares the defect x^2 - x, so the stack is exact after
    MatrixRing.lift_rounds; an idempotent is a fixed point, so each matrix
    ends where it would alone."""
    for _ in range(rounds):
        y2 = _stack_mul(stack, stack, m)
        stack = (3 * y2 - 2 * _stack_mul(y2, stack, m)) % m
    return stack


def _parts(a: RingMatrix, solve):
    """Unverified (E, F, W, tags) over Z_m[x]/(x^d), by one loop for every
    ring: for each prime p | m, solve(A_0 mod p, p) gives E and F over GF(p)
    as a (2, 1, n, n) stack mod p, and its case tags; c_q times each is
    summed mod m, lifted over Z_m for ring.lift_rounds rounds (none when m is
    squarefree), and W = A - E - F.  A_0 is reduced mod p when p = m, c_q is
    1 when m is a prime power, and a lone stack is reduced: those steps are
    skipped.  The start point is idempotent mod every p | m, so the rounds
    make it exact; the lift commutes with reduction mod each p^k: it is the
    CRT of theirs.  A constant stack stays constant: over Z_m[x]/(x^d) it is
    coefficient 0."""
    ring = a.ring
    m, a0 = ring.m, a.coeffs[0]
    ef, tags = None, ()
    for p, c in zip(ring.primes, ring.crt_basis):
        ef_p, tags_p = solve(a0 if p == m else a0 % p, p)
        ef_p = ef_p if c == 1 else c * ef_p
        ef, tags = ef_p if ef is None else (ef + ef_p) % m, tags + tags_p
    ef = _lift_idempotents(ef, m, ring.lift_rounds)
    if ring.d > 1:
        ef = np.concatenate((ef, np.zeros((2, ring.d - 1, a.n, a.n), dtype=np.int64)), axis=1)
    e, f = ef[0], ef[1]
    return RingMatrix(ring, e), RingMatrix(ring, f), RingMatrix(ring, (a.coeffs - e - f) % m), tags


def decompose(a: RingMatrix) -> DecompositionCertificate:
    """Decompose over Z_m or Z_m[x]/(x^d) for any 2-3-smooth m."""
    ring = a.ring
    for p in ring.primes:  # ascending: the first refused is the least
        if p not in _TEMPLATES:
            raise UnsupportedRingError(
                f"modulus {ring.m} has prime factor {p}; decompositions exist only "
                f"when every prime factor is 2 or 3 (e.g. 3 in Z5 is not a sum of "
                f"two idempotents and a nilpotent)"
            )
    e, f, w, tags = _parts(a, _krylov_solve)
    cert = DecompositionCertificate(a, e, f, w, None, tags)
    if not verify_certificate(cert):
        raise InternalCheckError(f"certificate failed self-check: {cert.failure}", a)
    return cert


def decompose_zm(a: RingMatrix) -> DecompositionCertificate:
    """decompose, for plain Z_m matrices only."""
    if a.ring.d != 1:
        raise InputError("decompose_zm expects a plain Z_m matrix")
    return decompose(a)


def decompose_triangular(t: RingMatrix) -> DecompositionCertificate:
    """decompose, for upper-triangular Z_m matrices, checking that E, F and W
    stay inside the triangular ring (they do: the Krylov form of such a
    matrix is the matrix itself, with 1 x 1 blocks)."""
    if t.ring.d != 1:
        raise InputError("decompose_triangular expects a plain Z_m matrix")
    if not t.is_upper_triangular():
        raise InputError("matrix is not upper triangular")
    cert = decompose(t)
    if not all(x.is_upper_triangular() for x in (cert.e, cert.f, cert.w)):
        raise InternalCheckError("triangular decomposition left the triangular ring", t)
    return cert
