"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS line with the observed counts and timings (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances are zero
failures everywhere; the stated runtime ceilings are asserted.
"""

import itertools
import time

import numpy as np

from conftest import (
    check_not_strongly_matrix_witness,
    companion,
    inverse_naive,
    mat_is_zero,
    mat_mul_naive,
    nilpotency_naive_exact,
    poly_mul,
    rank_naive,
)
from nilclean.classifier import (
    RingDescriptor,
    ZmFactor,
    decide,
    min_nilpotent_index_over_decompositions,
    parse_ring_descriptor,
)
from nilclean.cli import certificate_from_doc, certificate_to_doc, parse_document
from nilclean.decompose import _lift_idempotents, decompose, decompose_triangular
from nilclean.gfp import krylov_form
from nilclean.matrix import MatrixRing, RingMatrix, zm_ring


def all_matrices(n, m):
    ring = zm_ring(m)
    for entries in itertools.product(range(m), repeat=n * n):
        yield RingMatrix(ring, np.array(entries, dtype=np.int64).reshape(1, n, n))


def random_invertible(n, ring, rng):
    """A random matrix over GF(p), redrawn until it is invertible."""
    while True:
        cand = RingMatrix.random(n, ring, rng)
        if rank_naive(cand.to_rows(), ring.m) == n:
            return cand


def test_acceptance_01_exhaustive_gf3():
    start = time.perf_counter()
    count = 0
    for n in (2, 3):
        for a in all_matrices(n, 3):
            cert = decompose(a)
            assert cert.verified
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 81 + 19683
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: {count} verified certificates over M_2/M_3(Z_3), "
          f"0 failures, {elapsed:.2f}s (< 5s)")


def test_acceptance_02_exhaustive_gf2():
    start = time.perf_counter()
    count = 0
    for n in (2, 3, 4):
        for a in all_matrices(n, 2):
            cert = decompose(a)
            assert cert.verified
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 16 + 512 + 65536
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: {count} verified certificates over M_2/M_3/M_4(Z_2), "
          f"0 failures, {elapsed:.2f}s (< 30s)")


def test_acceptance_03_randomized_composite_moduli():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    observed_max = {}
    for n, m in ((4, 12), (5, 36), (8, 6), (6, 72)):
        ring = zm_ring(m)
        bound = n * ring.max_exponent
        worst = 0
        for _ in range(1000):
            cert = decompose(RingMatrix.random(n, ring, rng))
            assert cert.verified
            assert cert.nilpotency_exponent <= bound
            worst = max(worst, cert.nilpotency_exponent)
        observed_max[(n, m)] = (worst, bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    detail = ", ".join(f"M_{n}(Z_{m}) max k {w}/{b}" for (n, m), (w, b) in observed_max.items())
    print(f"\nACCEPTANCE 3 PASS: 4000 random certificates, 0 failures, {elapsed:.2f}s "
          f"(< 60s); {detail}")


def test_acceptance_04_oracle_agreement():
    assert decide("two-nil-clean", parse_ring_descriptor("M2(Z3)")).holds
    disagreements = []
    replays = 0
    for m in range(2, 201):
        report = decide("two-nil-clean", RingDescriptor((ZmFactor(m),)))
        if report.holds != (set(zm_ring(m).primes) <= {2, 3}):
            disagreements.append(m)
        assert report.replay()  # the witness of each smooth m too
        if not report.holds:
            assert report.counterexample is not None
            replays += 1
    assert disagreements == []
    print(f"\nACCEPTANCE 4 PASS: M_2(Z_3) two-nil-clean by exhaustion; Z_m agreement "
          f"with 2-3-smoothness for all m <= 200 (0 disagreements, "
          f"{replays} replayable counterexamples)")


def test_acceptance_05_product_ring_separation():
    ring = parse_ring_descriptor("Z3xZ3")
    two = decide("two-nil-clean", ring)
    weak = decide("weakly-nil-clean", ring)
    assert two.holds
    assert not weak.holds
    assert weak.counterexample is not None
    assert weak.replay()
    print(f"\nACCEPTANCE 5 PASS: Z3xZ3 two-nil-clean yet not weakly nil-clean; "
          f"weak counterexample {weak.counterexample} replays")


def test_acceptance_06_tripotent_moduli():
    found = [m for m in range(2, 201) if decide("tripotent", RingDescriptor((ZmFactor(m),))).holds]
    assert found == [2, 3, 6]
    print(f"\nACCEPTANCE 6 PASS: Z_m tripotent exactly for m in {found} over m <= 200")


def test_acceptance_07_strongly_obstruction():
    for m in range(2, 13):
        report = check_not_strongly_matrix_witness(m)
        assert report.holds and report.replay()
    for text in ("M2(Z2)", "M2(Z3)"):
        report = decide("strongly-two-nil-clean", parse_ring_descriptor(text))
        assert not report.holds and report.replay()
    print("\nACCEPTANCE 7 PASS: cube-minus-self witness invertible with the fixed "
          "inverse for all m in 2..12; M_2(Z_2) and M_2(Z_3) not strongly "
          "two-nil-clean by exhaustion")


def test_acceptance_08_growth_mechanism():
    # golden values k = 2, 3, 4, produced by the independent brute-force oracle,
    # are attained by the tripled identity (the doubled identity is 1 + 1 + 0,
    # index 1 -- pinned here to document the distinction)
    for k in (2, 3, 4):
        ring = RingDescriptor(tuple(ZmFactor(2**i) for i in range(1, k + 1)))
        tripled = tuple(3 % (2**i) for i in range(1, k + 1))
        doubled = tuple(2 % (2**i) for i in range(1, k + 1))
        assert min_nilpotent_index_over_decompositions(ring, tripled) == k
        assert min_nilpotent_index_over_decompositions(ring, doubled) == 1
    print("\nACCEPTANCE 8 PASS: minimal nilpotency index of the tripled identity in "
          "Z_2 x ... x Z_{2^k} equals k for k = 2, 3, 4 (doubled identity: 1)")


def block_polynomial_product(a, p):
    """The product of the block polynomials of A's Krylov form, after checking
    the form: Q Q^-1 = I, and Q^-1 A Q is block upper triangular with the
    companion matrices of the returned last columns on its diagonal."""
    n = a.n
    cols, q, q_inv = krylov_form(a.coeffs[0], p)
    assert np.array_equal(q @ q_inv % p, np.eye(n, dtype=np.int64))
    t = q_inv @ a.coeffs[0] @ q % p
    product, at = (1,), 0
    for col in cols:
        d = len(col)
        assert t[at : at + d, at : at + d].tolist() == companion(p, col)
        assert not t[at + d :, at : at + d].any()
        product = poly_mul(product, tuple(-c % p for c in col) + (1,), p)
        at += d
    assert at == n
    return product


def test_acceptance_09_canonical_form_stress():
    start = time.perf_counter()
    rng = np.random.default_rng(1009)
    total = 0
    for p in (2, 3):
        ring = zm_ring(p)
        for _ in range(5000):
            n = int(rng.integers(1, 9))
            a = RingMatrix.random(n, ring, rng)
            g = random_invertible(n, ring, rng)
            conj = g @ a @ RingMatrix.from_rows(inverse_naive(g.to_rows(), p), ring)
            assert block_polynomial_product(conj, p) == block_polynomial_product(a, p)
            total += 1
    elapsed = time.perf_counter() - start
    assert total == 10000
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 9 PASS: {total} Krylov forms over GF(2)/GF(3) (n <= 8) checked "
          f"(Q Q^-1 = I, Q^-1 A Q block upper triangular with companion diagonal blocks) "
          f"with conjugation-invariant block-polynomial products, "
          f"0 failures, {elapsed:.2f}s (< 60s)")


def test_acceptance_10_lifting():
    # element level: exhaustive over Z_{2^6} and Z_{3^4}
    for q in (2**6, 3**4):
        mod = zm_ring(q)
        (p,) = mod.primes
        cap = mod.lift_rounds
        eligible = 0
        for x in range(q):
            # x lifts when x^2 - x is nilpotent, as a 1 x 1 matrix
            if nilpotency_naive_exact([[(x * x - x) % q]], q, mod.max_exponent) is None:
                continue
            eligible += 1
            value = x
            steps = 0
            while (value * value) % q != value:
                value = (3 * value * value - 2 * value**3) % q
                steps += 1
                assert steps <= cap
            assert value % p == x % p
            lifted = _lift_idempotents(np.array([[[[x]]]]), q, cap)
            assert lifted.tolist() == [[[[value]]]]
        assert eligible == (64 if q == 64 else 54)
    # matrix level: 1000 random eligible matrices across Z_4, Z_8, Z_9, Z_27
    rng = np.random.default_rng(1010)
    lifted = 0
    for q in (4, 8, 9, 27):
        ring = zm_ring(q)
        p = ring.primes[0]
        for _ in range(250):
            n = int(rng.integers(1, 5))
            base = decompose(RingMatrix.random(n, zm_ring(p), rng)).e
            noise = RingMatrix.random(n, ring, rng)
            x = RingMatrix.from_rows(
                (np.array(base.to_rows()) + p * np.array(noise.to_rows())).tolist(), ring
            )
            # the call _parts makes, on a stack of one
            rows = _lift_idempotents(x.coeffs[None], q, ring.lift_rounds)[0, 0].tolist()
            assert mat_mul_naive(rows, rows, q) == rows
            assert [[v % p for v in row] for row in rows] == base.to_rows()
            lifted += 1
    assert lifted == 1000
    print("\nACCEPTANCE 10 PASS: elementwise lifting exhaustive over Z_64 (64 eligible) "
          "and Z_81 (54 eligible) within the iteration cap; 1000 random matrix lifts "
          "over Z_4/Z_8/Z_9/Z_27 verified, 0 failures")


def test_acceptance_11_triangular_and_truncated():
    count_t = 0
    for a, b, d in itertools.product(range(6), repeat=3):
        cert = decompose_triangular(RingMatrix.from_rows([[a, b], [0, d]], zm_ring(6)))
        assert cert.verified
        count_t += 1
    count_x = 0
    for m, d in ((2, 3), (3, 2)):
        ring = MatrixRing(m, d)
        for coeffs in itertools.product(range(m), repeat=d):
            cert = decompose(RingMatrix.from_rows([[list(coeffs)]], ring))
            assert cert.verified
            count_x += 1
    rng = np.random.default_rng(1011)
    ring = MatrixRing(6, 2)
    count_r = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        cert = decompose(RingMatrix.random(n, ring, rng))
        assert cert.verified
        count_r += 1
    print(f"\nACCEPTANCE 11 PASS: T_2(Z_6) exhaustive ({count_t}), 1x1 truncated rings "
          f"exhaustive ({count_x}), {count_r} random matrices over Z_6[x]/(x^2), "
          f"0 failures")


def _named_check_actually_fails(cert, name):
    """Independent naive recheck that the reported invariant is violated."""
    m = cert.a.ring.m
    a, e, f, w = (x.to_rows() for x in (cert.a, cert.e, cert.f, cert.w))
    k = cert.nilpotency_exponent
    n = len(a)
    if name == "E idempotency":
        return mat_mul_naive(e, e, m) != e
    if name == "F idempotency":
        return mat_mul_naive(f, f, m) != f
    if name == "sum":
        total = [
            [(e[i][j] + f[i][j] + w[i][j]) % m for j in range(n)] for i in range(n)
        ]
        return total != a
    if name == "nilpotency exponent":
        if k < 1 or k > cert.a.ring.nilpotency_bound(n):
            return True
        power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        prev = None
        for _ in range(k):
            prev = power
            power = mat_mul_naive(power, w, m)
        if not mat_is_zero(power):
            return True
        return k > 1 and mat_is_zero(prev)
    return False


def test_acceptance_12_mutation_rejection(tmp_path, capsys):
    from nilclean.cli import EXIT_VERIFY, main

    rng = np.random.default_rng(1012)
    base_pool = []
    for m in (3, 6, 12, 36):
        ring = zm_ring(m)
        for _ in range(7):
            base_pool.append(decompose(RingMatrix.random(int(rng.integers(1, 4)), ring, rng)))
    rejected = 0
    targets = ("E", "F", "W", "A", "k")
    for mutation in range(100):
        cert = base_pool[mutation % len(base_pool)]
        target = targets[mutation % len(targets)]
        m = cert.a.ring.m
        n = cert.a.n
        mutated = parse_document(certificate_to_doc(cert))
        if target == "k":
            mutated["nilpotency-exponent"] = int(mutated["nilpotency-exponent"]) + 1 + (
                mutation % 3
            )
        else:
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            delta = 1 + int(rng.integers(0, m - 1))
            mutated[target][i][j] = (mutated[target][i][j] + delta) % m
        bad = certificate_from_doc(mutated)
        path = tmp_path / "mutated.txt"
        path.write_text(certificate_to_doc(bad).replace("verified: false", "verified: true"))
        code = main(["verify", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY, f"mutation of {target} slipped through"
        assert "FAILED check: " in out
        named = out.split("FAILED check: ", 1)[1].strip()
        assert _named_check_actually_fails(bad, named), (
            f"verify named {named!r} but that check holds on the mutated data"
        )
        rejected += 1
    assert rejected == 100
    print("\nACCEPTANCE 12 PASS: 100 systematically mutated certificates rejected by "
          "cmd_verify, each naming a genuinely violated invariant")
