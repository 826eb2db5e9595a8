#!/usr/bin/env python3
"""Randomized stress runs: decompositions and matrix inverses at scale.

Samples uniform random matrices and derogatory conjugates (one companion
block repeated down the diagonal) over a grid of dimensions and 2-3-smooth
moduli, decomposes each (certificates verified on every call), and stresses
the explicit inverse over GF(2), GF(3), GF(5) and GF(2^31 - 1): g g^-1 = I
whenever g is invertible, and InputError otherwise.  Seeded and reproducible.
Run as ``python scripts/randomized_stress.py [--seed S] [--count C]
[--max-dim N]``; the exit code is 1 when any check fails.
"""

import argparse
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from nilclean.decompose import decompose
from nilclean.errors import InputError
from nilclean.matrix import MatrixRing, RingMatrix, zm_ring
from nilclean.residue import factorize


@dataclass
class StressConfig:
    seed: int = 0
    count: int = 500
    max_dim: int = 8
    moduli: list = field(default_factory=lambda: sorted(2**a * 3**b for a in range(7) for b in range(4)
                                                        if 2 <= 2**a * 3**b <= 72))  # the 2-3-smooth m <= 72


def companion(coeffs):
    """The companion matrix with last column coeffs."""
    k = len(coeffs)
    out = np.zeros((k, k), dtype=np.int64)
    out[np.arange(1, k), np.arange(k - 1)] = 1
    out[:, k - 1] = coeffs
    return out


def derogatory(n, m, rng):
    """g D g^-1 over Z_m, g a product of unit triangular factors and D one
    random companion block of degree k <= 4 repeated down the diagonal (a
    block of degree n mod k closes it): modulo each prime, the Krylov form
    then scans several chains with the same polynomial."""
    k = int(rng.integers(1, min(n, 4) + 1))
    block = companion(rng.integers(0, m, k))
    d = np.zeros((n, n), dtype=np.int64)
    for at in range(0, n - k + 1, k):
        d[at : at + k, at : at + k] = block
    if n % k:
        d[n - n % k :, n - n % k :] = companion(rng.integers(0, m, n % k))
    low = np.tril(rng.integers(0, m, (n, n)), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(rng.integers(0, m, (n, n)), 1) + np.eye(n, dtype=np.int64)
    ring = zm_ring(m)
    g = RingMatrix.from_rows((low.dot(up) % m).tolist(), ring)
    return g @ RingMatrix.from_rows(d.tolist(), ring) @ g.inverse()


def stress_decompose(config, rng):
    start = time.perf_counter()
    worst = (0, None)
    for i in range(config.count):
        m = int(rng.choice(config.moduli))
        n = int(rng.integers(1, config.max_dim + 1))
        a = derogatory(n, m, rng) if i % 2 else RingMatrix.random(n, zm_ring(m), rng)
        cert = decompose(a)
        if cert.nilpotency_exponent > worst[0]:
            worst = (cert.nilpotency_exponent, (n, m))
    print(f"  {config.count} Z_m decompositions (uniform and derogatory) verified, "
          f"max W-exponent {worst[0]} at (n, m) = {worst[1]}, "
          f"{time.perf_counter() - start:.2f}s")


def stress_truncated(config, rng):
    start = time.perf_counter()
    # each modulus in turn with its ranges of d and n, first the three whose
    # products leave the small int64 case: 3^19 at n >= 7 splits, since
    # 7 (3^19 - 1)^2 > 2^63; 2^17 3^8 at n <= 4 stays below 2^63 and runs on
    # int64 unsplit; 72 at n >= 32 multiplies truncated stacks on float64 BLAS
    cases = [(3**19, (2, 3), (7, 8)), (2**17 * 3**8, (2, 3), (1, 4)), (72, (2, 3), (32, 40))]
    cases += [(mm, (1, 3), (1, 4)) for mm in config.moduli if mm <= 12]
    for i in range(config.count // 5):
        m, (d_lo, d_hi), (n_lo, n_hi) = cases[i % len(cases)]
        d = int(rng.integers(d_lo, d_hi + 1))
        n = int(rng.integers(n_lo, n_hi + 1))
        decompose(RingMatrix.random(n, MatrixRing(factorize(m), d), rng))
    print(f"  {config.count // 5} random truncated-polynomial decompositions verified, "
          f"{time.perf_counter() - start:.2f}s")


def stress_inverse(config, rng):
    start = time.perf_counter()
    bad = invertible = 0
    for _ in range(config.count):
        p = int(rng.choice([2, 3, 5, 2147483647]))  # the list field and split products too
        n = int(rng.integers(1, config.max_dim + 1))
        g = RingMatrix.random(n, zm_ring(p), rng)
        if g.is_invertible():
            invertible += 1
            if g @ g.inverse() != RingMatrix.identity(n, g.ring):
                bad += 1
            continue
        try:
            g.inverse()
        except InputError:
            continue
        bad += 1
    print(f"  {config.count} inverses ({invertible} invertible), {bad} failures, "
          f"{time.perf_counter() - start:.2f}s")
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max-dim", type=int, default=8)
    args = parser.parse_args(argv)
    config = StressConfig(seed=args.seed, count=args.count, max_dim=args.max_dim)
    rng = np.random.default_rng(config.seed)

    print(f"randomized stress (seed {config.seed}):")
    stress_decompose(config, rng)
    stress_truncated(config, rng)
    bad = stress_inverse(config, rng)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
