"""Exact matrix arithmetic of the benchmark's own, for generating inputs and
re-checking outputs independently of the program under test.

A matrix over Z_m[x]/(x^d) is an integer array of shape (d, n, n) holding the
coefficient of x^t in slice t, entries reduced into [0, m); d = 1 is plain
Z_m.  Products accumulate at most d * n * (m - 1)^2 before reduction, so int64
is exact below 2^62 and Python integers (object arrays) are used above it.
"""

from __future__ import annotations

import json

import numpy as np

CHECK_E = "E idempotency"
CHECK_F = "F idempotency"
CHECK_SUM = "sum"
CHECK_NIL = "nilpotency exponent"


def dtype_for(m: int, n: int, d: int = 1):
    return np.int64 if d * n * (m - 1) ** 2 < 2**62 else object


def from_rows(rows, m: int, d: int = 1) -> np.ndarray:
    """Rows of ints (d = 1) or of coefficient lists (d > 1) -> (d, n, n)."""
    n = len(rows)
    if d == 1:
        out = np.array(rows, dtype=dtype_for(m, n))
        if out.shape != (n, n) or out.tolist() != rows:
            raise ValueError("matrix is not square or has non-integer entries")
        return out[None] % m
    out = np.zeros((d, n, n), dtype=dtype_for(m, n, d))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("matrix is not square")
        for j, entry in enumerate(row):
            coeffs = [entry] if isinstance(entry, int) else entry
            if len(coeffs) > d:
                raise ValueError("entry has more coefficients than the ring degree")
            for t, c in enumerate(coeffs):
                out[t, i, j] = int(c) % m
    return out


def to_rows(a: np.ndarray) -> list:
    if a.shape[0] == 1:
        return a[0].tolist()
    return np.moveaxis(a, 0, -1).tolist()


def matmul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    d = a.shape[0]
    if d == 1:
        return (a[0] @ b[0])[None] % m
    out = np.zeros_like(a)
    for i in range(d):
        for j in range(d - i):
            out[i + j] += a[i] @ b[j]
    return out % m


def identity(n: int, m: int, d: int = 1) -> np.ndarray:
    out = np.zeros((d, n, n), dtype=dtype_for(m, n, d))
    out[0] = np.eye(n, dtype=out.dtype)
    return out


def nilpotency_bound(n: int, m: int, d: int = 1) -> int:
    """n * (largest prime exponent of m) * d bounds every nilpotent's exponent."""
    top, rest, p = 1, m, 2
    while p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        top = max(top, e)
        p += 1
    return n * top * d


def nil_exponent(w: np.ndarray, m: int, bound: int):
    """Minimal k <= bound with w^k = 0 (k = 1 for w = 0), else None."""
    power, k = w, 1
    while power.any():
        if k >= bound:
            return None
        power = matmul(power, w, m)
        k += 1
    return k


def first_failure(a, e, f, w, k: int, m: int):
    """The first certificate invariant that fails, in the order the program's
    ``verify`` documents them, or None when all four hold."""
    n, d = a.shape[1], a.shape[0]
    if (matmul(e, e, m) != e).any():
        return CHECK_E
    if (matmul(f, f, m) != f).any():
        return CHECK_F
    if ((e + f + w - a) % m).any():
        return CHECK_SUM
    if not 1 <= k <= nilpotency_bound(n, m, d):
        return CHECK_NIL
    below = identity(n, m, d)
    for _ in range(k - 1):
        below = matmul(below, w, m)
    if not below.any() or matmul(below, w, m).any():
        return CHECK_NIL
    return None


def unit_lower_inverse(low: np.ndarray, m: int) -> np.ndarray:
    """Inverse of I + X with X strictly lower triangular (X nilpotent), as
    I - X + X^2 - ..., exact over Z_m[x]/(x^d)."""
    n, d = low.shape[1], low.shape[0]
    x = (low - identity(n, m, d)) % m
    inv = identity(n, m, d)
    term = inv
    for _ in range(n):
        term = (-matmul(term, x, m)) % m
        if not term.any():
            break
        inv = (inv + term) % m
    return inv


def parse_documents(text: str) -> list[dict]:
    """Blank-line separated ``key: value`` documents with JSON values."""
    docs = []
    for chunk in text.split("\n\n"):
        doc = {}
        for line in chunk.splitlines():
            if not line.strip():
                continue
            key, _, value = line.partition(": ")
            try:
                doc[key.strip()] = json.loads(value)
            except json.JSONDecodeError:
                doc[key.strip()] = value.strip()
        if doc:
            docs.append(doc)
    return docs


def certificate_failure(doc: dict):
    """Re-check a certificate document from its contents alone; returns the
    first failed invariant or None.  Raises ValueError on a malformed one."""
    try:
        m, d = int(doc["modulus"]), int(doc.get("trunc-degree", 1))
        a, e, f, w = (from_rows(doc[key], m, d) for key in "AEFW")
        k = int(doc["nilpotency-exponent"])
    except (KeyError, TypeError, ValueError) as bad:
        raise ValueError(f"malformed certificate document: {bad!r}")
    if not a.shape == e.shape == f.shape == w.shape:
        raise ValueError("certificate matrices disagree in shape")
    return first_failure(a, e, f, w, k, m)
