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

There is one GF(p) solver, over GF(2) and GF(3).  It brings the matrix to
its block-upper-triangular Krylov form, splits each diagonal companion block
by one closed-form family keyed on the field, the block's degree d and its
trace t, and conjugates back.  The family takes j = t - 1 (mod p) in [0, d]
nearest d/2, so that the split's rank rk E + rk F = j + 1 matches the trace,
and leaves the block's nilpotent part of index max(j, d - j), about d/2;
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

import functools
import math

import numpy as np

from .errors import InputError, InternalCheckError, UnsupportedRingError
from .gfp import krylov_form
from .matrix import DecompositionCertificate, RingMatrix, _stack_mul, verify_certificate


@functools.cache
def _trace_split(p: int, d: int, trace: int) -> tuple[str, tuple[int, ...], np.ndarray]:
    """The trace family's split of the degree-d companion blocks over GF(p)
    with this trace: the case tag, the last column c_g of C_g, and S as int8,
    computed once for each of the p traces of each degree d <= 64.

    j is the one of [0, d] with j = trace - 1 (mod p) nearest d/2, the smaller
    on a tie, and g = (x - 1)^j x^(d-j).  A block C_A with last column c_A is
    E + S + W with E = (c_A - c_g) e_(d-1)^T, idempotent of rank 1 since its
    corner is trace - tr g = 1; C_A - E = C_g, similar to J_j(1) + J_(d-j)(0);
    S = C_g^(p^a) for p^a >= d, its spectral idempotent of rank j, since
    (I + N)^(p^a) = I + N^(p^a) in characteristic p; and W = C_g - S,
    nilpotent of index max(j, d - j).  The 1 x 1 block [0], which has no
    such j over GF(3), takes j = 0 and E = 0 over both fields: 0 + 0 + 0."""
    zero = d == 1 and not trace
    j = 0 if zero else min(range((trace - 1) % p, d + 1, p), key=lambda j: abs(2 * j - d))
    c_g = (0,) * (d - j) + tuple((-1) ** (j - i + 1) * math.comb(j, i) % p for i in range(j))
    s = np.eye(d, k=-1, dtype=np.int64)
    s[:, -1] = c_g
    power = 1
    while power < d:
        s, power = np.linalg.matrix_power(s, p) % p, power * p
    s = s.astype(np.int8)
    s.flags.writeable = False  # one array for every caller of the cache
    return f"gf{p}:zero:n1" if zero else f"gf{p}:j{j}:n{d}", c_g, s


def _krylov_solve(mat: np.ndarray, p: int):
    """E and F of a matrix over GF(2) or GF(3), as one (2, 1, n, n) stack mod
    p, and its case tags: the trace family's split of each diagonal block of
    the Krylov form, E in the block's last column and F = S, written into the
    two slices of one stack and conjugated back together."""
    n = mat.shape[0]
    last_columns, q, q_inv = krylov_form(mat, p)
    ef = np.zeros((2, 1, n, n), dtype=np.int64)
    e, f = ef[0, 0], ef[1, 0]  # unpacking an array iterates it, 4x slower
    tags = []
    at = 0
    for col in last_columns:
        d = len(col)
        tag, c_g, s = _trace_split(p, d, col[-1])
        e[at : at + d, at + d - 1] = [(a - b) % p for a, b in zip(col, c_g)]
        f[at : at + d, at : at + d] = s
        tags.append(tag)
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
        if p > 3:
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
