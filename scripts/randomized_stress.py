#!/usr/bin/env python3
"""Randomized stress runs: decompositions at scale.

Samples uniform random matrices and derogatory conjugates (one companion
block repeated down the diagonal) over a grid of dimensions and 2-3-smooth
moduli, and random matrices over truncated polynomial rings, and decomposes
each; every certificate is verified on the call, which raises on a failed
check.  Seeded and reproducible.  Run as ``python
scripts/randomized_stress.py [--seed S] [--count C] [--max-dim N]``; the exit
code is 0 when every decomposition verified.
"""

import argparse
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from nilclean.decompose import decompose
from nilclean.matrix import MatrixRing, RingMatrix, zm_ring


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


def unit_triangular_inverse(t, ring):
    """(I + N)^-1 = sum_{k < n} (-N)^k for a unit triangular t = I + N over
    Z_m, summed by Horner's rule: N^n = 0, so the series is finite."""
    n, m = len(t), ring.m
    ident = RingMatrix.identity(n, ring)
    neg = RingMatrix.from_rows((np.eye(n, dtype=np.int64) - t) % m, ring)
    total = ident
    for _ in range(n - 1):
        total = ident + neg @ total
    return total


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
    g_inv = unit_triangular_inverse(up, ring) @ unit_triangular_inverse(low, ring)
    return g @ RingMatrix.from_rows(d.tolist(), ring) @ g_inv


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
        decompose(RingMatrix.random(n, MatrixRing(m, d), rng))
    print(f"  {config.count // 5} random truncated-polynomial decompositions verified, "
          f"{time.perf_counter() - start:.2f}s")


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
