#!/usr/bin/env python3
"""Desk-scale exhaustive verification runs with timings.

Sweeps every matrix of the configured shapes through the constructive
decomposition (certificates verified on every call), cross-checks the
classifier oracle against theory (2-3-smoothness over a modulus range, and
the known verdicts on small matrix rings, each report replayed), and prints
the tripotent table and the obstruction-growth demo.  Exits 1 when any
oracle verdict disagrees with theory or fails to replay.
"""

import argparse
import itertools
import sys
import time
from dataclasses import dataclass

import numpy as np

from nilclean.classifier import (
    MatFactor,
    RingDescriptor,
    ZmFactor,
    decide,
    min_nilpotent_index_over_decompositions,
)
from nilclean.decompose import decompose
from nilclean.matrix import RingMatrix, zm_ring
from nilclean.residue import factorize


@dataclass
class SweepConfig:
    field_shapes: tuple = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))
    composite_shapes: tuple = ((2, 4), (2, 6), (2, 9), (2, 12))
    max_modulus: int = 200
    chain_max: int = 5
    matrix_rings: tuple = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9),
                           (3, 2), (3, 3))  # (n, m): M_n(Z_m) in the classifier survey


def expected_verdicts(n, m):
    """What theory says of M_n(Z_m) (Z_m for n = 1): two-nil-clean exactly
    when m is 2-3-smooth; M_n(Z_2) nil-clean, hence weakly nil-clean; for
    n >= 2 over a reduced ring (m in 2, 3, 6) never strongly two-nil-clean,
    since that would make it tripotent while it has nonzero nilpotents."""
    verdicts = {"two-nil-clean": factorize(m).two_three_smooth}
    if m == 2:
        verdicts["nil-clean"] = verdicts["weakly-nil-clean"] = True
    if n >= 2 and m in (2, 3, 6):
        verdicts["strongly-two-nil-clean"] = False
    return verdicts


def sweep_matrices(n, m):
    ring = zm_ring(m)
    for entries in itertools.product(range(m), repeat=n * n):
        yield RingMatrix(ring, np.array(entries, dtype=np.int64).reshape(1, n, n))


def run_sweeps(shapes):
    for n, m in shapes:
        start = time.perf_counter()
        count = 0
        worst = 0
        for mat in sweep_matrices(n, m):
            cert = decompose(mat)
            worst = max(worst, cert.nilpotency_exponent)
            count += 1
        print(f"  M_{n}(Z_{m}): {count} certificates, max W-exponent {worst}, "
              f"{time.perf_counter() - start:.2f}s")


def run_oracle_survey(config):
    """Print the survey; return the verdicts that disagree with theory or
    whose evidence does not replay."""
    start = time.perf_counter()
    rings = [(1, m) for m in range(2, config.max_modulus + 1)] + list(config.matrix_rings)
    failures = []
    for n, m in rings:
        ring = RingDescriptor((ZmFactor(m),) if n == 1 else (MatFactor(n, m),))
        for name, holds in expected_verdicts(n, m).items():
            report = decide(name, ring)
            if report.holds != holds or not report.replay():
                failures.append(f"{name}({ring.describe()})")
    status = ("every verdict agrees with 2-3-smoothness and the matrix-ring theory, and replays"
              if not failures else f"DISAGREES at {failures}")
    matrices = ", ".join(f"M{n}(Z{m})" for n, m in config.matrix_rings)
    print(f"  Z_m for m <= {config.max_modulus}, {matrices}: {status}, "
          f"{time.perf_counter() - start:.2f}s")
    tripotent = [m for m in range(2, config.max_modulus + 1)
                 if decide("tripotent", RingDescriptor((ZmFactor(m),))).holds]
    print(f"  tripotent Z_m: m in {tripotent}")
    if tripotent != [m for m in (2, 3, 6) if m <= config.max_modulus]:
        failures.append("tripotent(Z_m)")
    return failures


def run_growth_demo(config):
    print("  chain length -> min W-exponent over decompositions of 3*identity")
    for k in range(2, config.chain_max + 1):
        ring = RingDescriptor(tuple(ZmFactor(2**i) for i in range(1, k + 1)))
        tripled = tuple(3 % (2**i) for i in range(1, k + 1))
        index = min_nilpotent_index_over_decompositions(ring, tripled)
        print(f"    k={k}: {index}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-modulus", type=int, default=200)
    parser.add_argument("--chain-max", type=int, default=5)
    args = parser.parse_args(argv)
    config = SweepConfig(max_modulus=args.max_modulus, chain_max=args.chain_max)

    print("exhaustive field sweeps (every certificate re-verified):")
    run_sweeps(config.field_shapes)
    print("exhaustive composite-modulus sweeps:")
    run_sweeps(config.composite_shapes)
    print("classifier oracle survey:")
    failures = run_oracle_survey(config)
    print("obstruction growth:")
    run_growth_demo(config)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
