"""Constructive idempotent + idempotent + nilpotent decompositions.

Pipeline: companion blocks over GF(2)/GF(3) are decomposed by closed-form
templates keyed on the block's bottom-right entry (the trace of a companion
matrix); a whole field matrix is brought to the block-upper-triangular Krylov
form, the templates split its diagonal companion blocks, and everything off
the diagonal goes into W, which stays nilpotent because its diagonal blocks
are (the Frobenius form is not needed, and serves only the rcf command);
Z_{p^e} lifts the field solution through the nilpotent kernel by the cubic
idempotent iteration; composite 2-3-smooth moduli recombine the prime-power
solutions entrywise by the CRT.  Triangular and truncated polynomial variants
reuse the same machinery on the diagonal and on the constant term
respectively.

Nested layers compose unverified (E, F, W, tags) parts; every public
certificate-producing function verifies its output once, before returning,
and raises InternalCheckError on failure: a wrong certificate is a bug here,
never a value.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DomainError, InputError, InternalCheckError, UnsupportedRingError
from .frobenius import krylov_form
from .matrix import (
    DecompositionCertificate,
    MatrixRing,
    RingMatrix,
    _dtype_for,
    matrix_crt_recombine,
    matrix_crt_split,
    verify_certificate,
    zm_ring,
)
from .residue import factorize, lift_iteration_cap, require_two_three_smooth


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
    column, written into the zero arrays e and f; W is the companion matrix
    minus both.  Returns the case tag."""
    n = len(last_col)
    trace = last_col[-1] % 3
    if trace == 1:
        e[:, -1] = [c % 3 for c in last_col]
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
    """Template idempotents of the GF(2) companion matrix, written into the
    zero arrays e and f: a column whose bottom entry is 1 is idempotent; a
    trace-zero block sheds a corner unit idempotent, after which the
    remainder has bottom entry 1 again."""
    n = len(last_col)
    if last_col[-1] % 2 == 1:
        e[:, -1] = [c % 2 for c in last_col]
        return CaseTag.GF2_TRACE_ONE
    if n > 1:
        e[n - 1, n - 1] = 1
        f[:, -1] = [c % 2 for c in last_col[:-1]] + [1]
    return CaseTag.GF2_TRACE_ZERO


def _tag_string(tag: CaseTag, degree: int) -> str:
    return f"{tag.value}:n{degree}"


def _certify(a: RingMatrix, e: RingMatrix, f: RingMatrix, w: RingMatrix,
             tags: tuple[str, ...]) -> DecompositionCertificate:
    cert = DecompositionCertificate(a, e, f, w, None, tags)
    if not verify_certificate(cert):
        raise InternalCheckError(f"certificate failed self-check: {cert.failure}", a)
    return cert


def _field_parts(a: RingMatrix):
    """Unverified (E, F, W, tags) over GF(2) or GF(3): templates on the
    diagonal blocks of the Krylov form, conjugated back, and W = A - E - F."""
    if not a.ring.is_prime_field() or a.ring.m not in (2, 3):
        raise UnsupportedRingError(
            f"decompose_field_matrix supports GF(2) and GF(3), not {a.ring.describe()}"
        )
    p = a.ring.m
    n = a.n
    pair = _companion_pair_gf3 if p == 3 else _companion_pair_gf2
    last_columns, q, q_inv = krylov_form(a)
    e = np.zeros((n, n), dtype=np.int64)
    f = np.zeros((n, n), dtype=np.int64)
    tags = []
    at = 0
    for col in last_columns:
        d = len(col)
        tag = pair(col, e[at : at + d, at : at + d], f[at : at + d, at : at + d])
        tags.append(_tag_string(tag, d))
        at += d
    e = q.dot(e).dot(q_inv) % p
    f = q.dot(f).dot(q_inv) % p
    w = (a.coeffs[0] - e - f) % p
    return tuple(RingMatrix(a.ring, x[None]) for x in (e, f, w)) + (tuple(tags),)


def decompose_field_matrix(a: RingMatrix) -> DecompositionCertificate:
    """Decompose any matrix over GF(2) or GF(3) through its Krylov form."""
    return _certify(a, *_field_parts(a))


def _embed(mat: RingMatrix, ring: MatrixRing) -> RingMatrix:
    """Reinterpret canonical entries in a larger ring (same dimension)."""
    out = np.zeros((ring.d, mat.n, mat.n), dtype=_dtype_for(ring, mat.n))
    out[: mat.ring.d] = mat.coeffs % ring.m
    return RingMatrix(ring, out)


def lift_idempotent_matrix(x: RingMatrix) -> RingMatrix:
    """Lift a residually idempotent matrix to an exact idempotent.

    Requires the image of x in M_n(GF(p)) to be idempotent for every prime
    p | m (all iterates then stay congruent to x there); iterates
    x <- 3x^2 - 2x^3, whose idempotency defect lies in the square of the ideal
    generated by the previous defect, so convergence is doubly exponential.
    """
    ring = x.ring
    for p in ring.modulus.primes:
        img = x.residue_field_image(p)
        if ((img.dot(img) - img) % p).any():
            raise DomainError(
                f"matrix is not idempotent modulo {p}; the cubic iteration "
                f"would not converge to a lift of it"
            )
    cap = lift_iteration_cap(ring.radical_exponent())
    y = x
    for _ in range(cap + 1):
        y2 = y @ y
        if y2 == y:
            return y
        y = 3 * y2 - 2 * (y2 @ y)
    raise InternalCheckError("idempotent lifting exceeded its iteration cap", x)


def _prime_power_parts(a: RingMatrix):
    """Unverified parts over Z_{p^e}, p in {2, 3}: solve over GF(p), lift both
    idempotents, absorb the difference into W (nilpotent because the
    reduction kernel is)."""
    p, e = a.ring.modulus.factors[0]
    if e == 1:
        return _field_parts(a)
    base_e, base_f, _, tags = _field_parts(a.reduce_mod_prime(p))
    lifted_e = lift_idempotent_matrix(_embed(base_e, a.ring))
    lifted_f = lift_idempotent_matrix(_embed(base_f, a.ring))
    return lifted_e, lifted_f, a - lifted_e - lifted_f, tags


def decompose_prime_power(a: RingMatrix) -> DecompositionCertificate:
    """Decompose over Z_{p^e} (p in {2, 3}) by lifting the GF(p) solution."""
    ring = a.ring
    if ring.d != 1 or len(ring.modulus.factors) != 1:
        raise InputError("decompose_prime_power expects a prime-power modulus")
    p, e = ring.modulus.factors[0]
    if p not in (2, 3):
        raise UnsupportedRingError(f"unsupported prime {p}; only 2 and 3 work")
    if e == 1:
        return decompose_field_matrix(a)
    return _certify(a, *_prime_power_parts(a))


def _zm_parts(a: RingMatrix, prime_power_parts=_prime_power_parts):
    """Unverified parts over a 2-3-smooth Z_m: one solution per prime power,
    recombined entrywise by the CRT."""
    factors = a.ring.modulus.factors
    if len(factors) == 1:
        return prime_power_parts(a)
    (p1, e1), (p2, e2) = factors
    a1, a2 = matrix_crt_split(a, factorize(p1**e1), factorize(p2**e2))
    e_1, f_1, _, tags1 = prime_power_parts(a1)
    e_2, f_2, _, tags2 = prime_power_parts(a2)
    e = matrix_crt_recombine(e_1, e_2)
    f = matrix_crt_recombine(f_1, f_2)
    return e, f, a - e - f, tags1 + tags2


def decompose_zm(a: RingMatrix) -> DecompositionCertificate:
    """Decompose over Z_m for any 2-3-smooth m, by CRT to the prime powers."""
    ring = a.ring
    if ring.d != 1:
        raise InputError("decompose_zm expects a plain Z_m matrix")
    require_two_three_smooth(ring.modulus)
    if len(ring.modulus.factors) == 1:
        return decompose_prime_power(a)
    return _certify(a, *_zm_parts(a))


def _diagonal_parts(t: RingMatrix):
    """Unverified parts of an upper-triangular matrix over Z_{p^k}, p in
    {2, 3}: the 0/1 diagonals e = [t_ii mod p != 0] and f = [t_ii mod p = 2]
    are idempotent as integers, and W = T - E - F has a diagonal divisible
    by p."""
    p = t.ring.modulus.primes[0]
    diag = np.diagonal(t.coeffs[0]) % p
    idx = np.arange(t.n)
    e, f = RingMatrix.zeros(t.n, t.ring), RingMatrix.zeros(t.n, t.ring)
    for x, bits in ((e, diag != 0), (f, diag == 2)):
        # through int64: a bool array cast to object would store True, not 1
        x.coeffs[0, idx, idx] = bits.astype(np.int64).astype(x.coeffs.dtype)
    return e, f, t - e - f, ()


def decompose_triangular(t: RingMatrix) -> DecompositionCertificate:
    """Decompose an upper-triangular matrix over 2-3-smooth Z_m entirely inside
    the triangular ring: the diagonal splits entrywise per prime power,
    recombined by the CRT, and the strict upper part rides along in W (whose
    diagonal is nilpotent, so W is)."""
    ring = t.ring
    if ring.d != 1:
        raise InputError("decompose_triangular expects a plain Z_m matrix")
    if not t.is_upper_triangular():
        raise InputError("matrix is not upper triangular")
    require_two_three_smooth(ring.modulus)
    e, f, w, _ = _zm_parts(t, _diagonal_parts)
    cert = _certify(t, e, f, w, ())
    if not (e.is_upper_triangular() and f.is_upper_triangular() and w.is_upper_triangular()):
        raise InternalCheckError("triangular decomposition left the triangular ring", t)
    return cert


def decompose_trunc_poly_matrix(a: RingMatrix) -> DecompositionCertificate:
    """Decompose over Z_m[x]/(x^d): solve the constant term over Z_m, lift the
    idempotents through the ideal (x) (constants are already fixed points of
    the lifting iteration), and put every higher coefficient into W."""
    ring = a.ring
    require_two_three_smooth(ring.modulus)
    if ring.d == 1:
        return decompose_zm(a)
    base_e, base_f, _, tags = _zm_parts(RingMatrix(zm_ring(ring.m), a.coeffs[:1].copy()))
    e = lift_idempotent_matrix(_embed(base_e, ring))
    f = lift_idempotent_matrix(_embed(base_f, ring))
    return _certify(a, e, f, a - e - f, tags)


def decompose(a: RingMatrix) -> DecompositionCertificate:
    """Dispatch on the entry ring: Z_m or a truncated polynomial extension."""
    if a.ring.d == 1:
        return decompose_zm(a)
    return decompose_trunc_poly_matrix(a)
