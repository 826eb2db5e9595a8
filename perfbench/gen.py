"""Seeded input generation.  Everything here depends only on the seed, uses
the benchmark's own arithmetic, and never calls the program under test."""

from __future__ import annotations

import itertools
import json

import numpy as np

from arith import (
    dtype_for,
    first_failure,
    matmul,
    nil_exponent,
    nilpotency_bound,
    to_rows,
    unit_lower_inverse,
)

# ---------------------------------------------------------------------------
# field-sweep: the acceptance 01/02 populations
# ---------------------------------------------------------------------------

M4_Z2_SAMPLE = 2048


def field_sweep_matrices(seed: int) -> list[tuple[str, int, list]]:
    """(group, modulus, rows) for M2/M3(Z3) and M2/M3(Z2) exhaustively, in the
    order ``decompose --exhaustive`` uses, then a seeded sample of M4(Z2) in
    the same order."""
    out = []
    for n, m in ((2, 3), (3, 3), (2, 2), (3, 2)):
        for entries in itertools.product(range(m), repeat=n * n):
            out.append((f"M{n}(Z{m})", m, [list(entries[i * n:(i + 1) * n]) for i in range(n)]))
    rng = np.random.default_rng(seed)
    for index in sorted(rng.choice(2**16, size=M4_Z2_SAMPLE, replace=False).tolist()):
        bits = [(index >> (15 - b)) & 1 for b in range(16)]
        out.append(("M4(Z2)", 2, [bits[i * 4:(i + 1) * 4] for i in range(4)]))
    return out


# ---------------------------------------------------------------------------
# zm-scaling: cyclic and derogatory matrices at n = 8..64
# ---------------------------------------------------------------------------

ZM_MODULI = (72, 6)
STRUCTURES = ("cyclic", "derogatory")
ZM_SIZES = {8: 32, 16: 8, 32: 8}  # inputs per (modulus, structure)
# n = 64 costs 0.6 s cyclic and 5 s derogatory, so it gets one of each over
# Z72 and a cyclic one over Z6; more would not fit a run.
ZM_LARGEST = ((64, 72, "cyclic"), (64, 72, "derogatory"), (64, 6, "cyclic"))
DEROGATORY_BLOCK = 4


def _unimodular(n: int, m: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A random P = L U with unit triangular factors, and its inverse."""
    dt = dtype_for(m, n)
    low = (np.tril(rng.integers(0, m, (n, n)), -1) + np.eye(n, dtype=np.int64)).astype(dt)[None]
    up = (np.triu(rng.integers(0, m, (n, n)), 1) + np.eye(n, dtype=np.int64)).astype(dt)[None]
    up_inv = unit_lower_inverse(up[:, ::-1, ::-1].copy(), m)[:, ::-1, ::-1]
    return matmul(low, up, m), matmul(up_inv, unit_lower_inverse(low, m), m)


def _companion_block(coeffs, m: int) -> np.ndarray:
    k = len(coeffs)
    out = np.zeros((k, k), dtype=np.int64)
    out[np.arange(1, k), np.arange(k - 1)] = 1
    out[:, k - 1] = np.asarray(coeffs) % m
    return out


def zm_matrix(n: int, m: int, structure: str, rng) -> np.ndarray:
    """A random conjugate P D P^-1 over Z_m.  ``cyclic``: D is the companion
    matrix of a random monic polynomial of degree n (one block modulo each
    prime, as a uniform random matrix usually has).  ``derogatory``: D repeats
    one random companion block of degree DEROGATORY_BLOCK, so every invariant
    factor is the same and the canonical form has n / DEROGATORY_BLOCK blocks."""
    if structure == "cyclic":
        base = _companion_block(rng.integers(0, m, n), m)
    else:
        block = _companion_block(rng.integers(0, m, DEROGATORY_BLOCK), m)
        base = np.kron(np.eye(n // DEROGATORY_BLOCK, dtype=np.int64), block)
    p, p_inv = _unimodular(n, m, rng)
    return matmul(matmul(p, base.astype(p.dtype)[None], m), p_inv, m)


def zm_inputs(seed: int) -> list[tuple[int, int, str, np.ndarray]]:
    """(n, modulus, structure, matrix) in a seeded order, so that each size
    is measured across the whole pass rather than in one stretch of it."""
    rng = np.random.default_rng(seed)
    plan = [(n, m, structure) for n, count in ZM_SIZES.items() for m in ZM_MODULI
            for structure in STRUCTURES for _ in range(count)]
    out = [(n, m, structure, zm_matrix(n, m, structure, rng))
           for n, m, structure in plan + list(ZM_LARGEST)]
    return [out[i] for i in rng.permutation(len(out))]


# ---------------------------------------------------------------------------
# verify-stream: certificates with labelled mutations
# ---------------------------------------------------------------------------

STREAM_RINGS = ((3, 1), (2, 1), (72, 1), (6, 3))  # (modulus, truncation degree)
STREAM_DOCS = 4096
BATCH_DOCS = 32
MUTATED_SHARE = 0.25
LABEL_OK = "ok"


def _certificate(n: int, m: int, d: int, rng):
    """(E, F, W) = L (D1, D2, N) L^-1 over Z_m[x]/(x^d): D1, D2 random 0/1
    diagonals, so E and F are idempotent; N is strictly upper triangular plus
    multiples of the radical of m and of x, so W is nilpotent (it is nilpotent
    modulo a nilpotent ideal).  L is unit lower triangular."""
    radical = 1
    for p in (2, 3):
        if m % p == 0:
            radical *= p
    low = np.tril(rng.integers(0, m, (d, n, n)), -1)
    low[0] += np.eye(n, dtype=np.int64)
    low_inv = unit_lower_inverse(low, m)
    parts = []
    for _ in range(2):
        diag = np.zeros((d, n, n), dtype=np.int64)
        diag[0] = np.diag(rng.integers(0, 2, n))
        parts.append(diag)
    body = rng.integers(0, m, (d, n, n))
    body[0] = np.triu(rng.integers(0, m, (n, n)), 1) + radical * rng.integers(0, m, (n, n))
    parts.append(body % m)
    return [matmul(matmul(low, x, m), low_inv, m) for x in parts]


def _ring_label(m: int, d: int) -> str:
    return f"Z{m}" if d == 1 else f"Z{m}[x]/(x^{d})"


def certificate_doc(a, e, f, w, k: int, m: int, d: int) -> str:
    pairs = [
        ("schema", "nilclean-cert/1"), ("kind", "certificate"), ("ring", _ring_label(m, d)),
        ("modulus", m), ("trunc-degree", d), ("n", a.shape[1]),
        ("A", to_rows(a)), ("E", to_rows(e)), ("F", to_rows(f)), ("W", to_rows(w)),
        ("nilpotency-exponent", k), ("case-tags", []), ("verified", True),
    ]
    return "".join(f"{key}: {value if isinstance(value, str) else json.dumps(value)}\n"
                   for key, value in pairs)


def _mutate(a, e, f, w, k, m, rng, kind):
    """Change one field so that exactly the named invariant is the first to
    fail; returns the mutated tuple."""
    if kind == "nil":
        return a, e, f, w, (k + 1 if k == 1 or rng.integers(0, 2) else k - 1)
    target = {"E": e, "F": f, "sum": a}[kind].copy()
    t, i, j = (int(rng.integers(0, s)) for s in target.shape)
    target[t, i, j] = (target[t, i, j] + 1 + rng.integers(0, m - 1)) % m
    return {"E": (a, target, f, w, k), "F": (a, e, target, w, k),
            "sum": (target, e, f, w, k)}[kind]


def verify_stream(seed: int) -> list[tuple[str, str, str]]:
    """(ring label, document, expected verdict) for STREAM_DOCS certificates;
    the verdict is ``ok`` or ``FAILED check: <invariant>`` as computed by
    the benchmark's own checker."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < STREAM_DOCS:
        m, d = STREAM_RINGS[len(out) % len(STREAM_RINGS)]
        n = int(rng.integers(2, 9))
        e, f, w = _certificate(n, m, d, rng)
        a = (e + f + w) % m
        k = nil_exponent(w, m, nilpotency_bound(n, m, d))
        fields = (a, e, f, w, k)
        if rng.random() < MUTATED_SHARE:
            fields = _mutate(*fields, m, rng, ("E", "F", "sum", "nil")[int(rng.integers(0, 4))])
        failure = first_failure(*fields, m)
        verdict = LABEL_OK if failure is None else f"FAILED check: {failure}"
        out.append((_ring_label(m, d), certificate_doc(*fields, m, d), verdict))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


# ---------------------------------------------------------------------------
# oracle-survey: the classify command list
# ---------------------------------------------------------------------------

def survey_commands() -> list[list[str]]:
    """The fixed survey in a fixed order (no seed changes it): the Z_m
    commands ascending, with the six others spread evenly between them so
    that the short commands are measured across the whole pass."""
    zm = [["classify", f"Z{m}", "two-nil-clean"] for m in range(2, 201)]
    others = [
        ["classify", "M3(Z2)", "nil-clean,weakly-nil-clean,two-nil-clean"],
        ["classify", "M2(Z6)", "two-nil-clean,strongly-two-nil-clean"],
        ["classify", "M2(Z5)", "two-nil-clean"],
        ["classify", "M2(Z8)", "two-nil-clean"],
        ["classify", "M2(Z9)", "two-nil-clean"],
        ["demo-obstruction", "4"],
    ]
    step = len(zm) // len(others)
    cmds = []
    for i, other in enumerate(others):
        cmds += zm[i * step:(i + 1) * step] + [other]
    return cmds + zm[len(others) * step:]
