"""Brute-force oracle: enumerations, predicates, witnesses, audits."""

import hashlib
import itertools
import json
import time

import numpy as np
import pytest

from conftest import (
    check_not_strongly_matrix_witness,
    implication_audit,
    naive_nil_clean,
    naive_two_nil_clean,
    naive_weakly_nil_clean,
)
from nilclean.classifier import (
    MatFactor,
    PropertyReport,
    RingDescriptor,
    TruncFactor,
    ZmFactor,
    enumerate_idempotents,
    enumerate_nilpotents,
    is_generalized_n_like,
    is_nil_clean,
    is_strongly_sit,
    is_strongly_two_nil_clean,
    is_tripotent,
    is_two_boolean,
    is_two_nil_clean,
    is_weakly_nil_clean,
    min_nilpotent_index_over_decompositions,
    parse_ring_descriptor,
)
from nilclean.errors import InputError, ResourceCapError
from nilclean.residue import factorize, is_two_three_smooth, two_three_smooth_moduli


def zm(m):
    return RingDescriptor((ZmFactor(m),))


def chain_ring(k):
    return RingDescriptor(tuple(ZmFactor(2**i) for i in range(1, k + 1)))


class TestParsing:
    def test_descriptors(self):
        assert parse_ring_descriptor("Z6").factors == (ZmFactor(6),)
        assert parse_ring_descriptor("Z3xZ3").factors == (ZmFactor(3), ZmFactor(3))
        assert parse_ring_descriptor("M2(Z2)").factors == (MatFactor(2, 2),)
        assert parse_ring_descriptor("Z2[x]/(x^3)").factors == (TruncFactor(2, 3),)
        mixed = parse_ring_descriptor("Z2xM2(Z3)*Z2[x]/(x^2)")
        assert mixed.factors == (ZmFactor(2), MatFactor(2, 3), TruncFactor(2, 2))

    def test_bad_descriptors(self):
        for bad in ("", "Q5", "Z", "Z6yZ2", "M2(Z2"):
            with pytest.raises(InputError):
                parse_ring_descriptor(bad)

    def test_description_roundtrip(self):
        for text in ("Z6", "Z3xZ3", "M2(Z2)", "Z2[x]/(x^3)xZ4"):
            ring = parse_ring_descriptor(text)
            assert parse_ring_descriptor(ring.describe()) == ring


class TestEnumerations:
    def test_idempotents_z6(self):
        assert [a[0] for a in enumerate_idempotents(zm(6))] == [0, 1, 3, 4]

    def test_idempotents_z9(self):
        assert [a[0] for a in enumerate_idempotents(zm(9))] == [0, 1]

    def test_idempotents_z3xz3(self):
        found = enumerate_idempotents(parse_ring_descriptor("Z3xZ3"))
        assert found == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_nilpotents_z8(self):
        assert enumerate_nilpotents(zm(8)) == [((0,), 1), ((2,), 3), ((4,), 2), ((6,), 3)]

    def test_nilpotents_z6(self):
        assert enumerate_nilpotents(zm(6)) == [((0,), 1)]

    def test_nilpotents_m2z2(self):
        # direct squaring of all 16 matrices gives exactly four nilpotents
        found = enumerate_nilpotents(parse_ring_descriptor("M2(Z2)"))
        assert len(found) == 4
        assert (((0, 0, 0, 0),), 1) in found
        assert (((0, 1, 0, 0),), 2) in found
        assert (((0, 0, 1, 0),), 2) in found
        assert (((1, 1, 1, 1),), 2) in found

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            enumerate_idempotents(parse_ring_descriptor("M2(Z36)"))


class TestTwoNilClean:
    def test_z3xz3_and_weakly(self):
        ring = parse_ring_descriptor("Z3xZ3")
        two = is_two_nil_clean(ring)
        weak = is_weakly_nil_clean(ring)
        assert two.holds and two.replay()
        assert not weak.holds
        assert weak.counterexample is not None
        assert weak.replay()

    def test_z5_counterexample(self):
        report = is_two_nil_clean(zm(5))
        assert not report.holds
        assert report.counterexample == (3,)
        assert report.replay()

    def test_m2z3_holds(self):
        assert is_two_nil_clean(parse_ring_descriptor("M2(Z3)")).holds

    def test_matches_smoothness_for_zm(self):
        for m in range(2, 73):
            assert is_two_nil_clean(zm(m)).holds == is_two_three_smooth(factorize(m))

    def test_witness_replays(self):
        for text in ("Z12", "Z3xZ3", "M2(Z2)", "Z2[x]/(x^2)"):
            report = is_two_nil_clean(parse_ring_descriptor(text))
            assert report.holds and report.replay()


class TestStrongly:
    def test_commutative_ring_is_strong(self):
        assert is_strongly_two_nil_clean(zm(12)).holds

    def test_matrix_rings_fail(self):
        for text in ("M2(Z2)", "M2(Z3)"):
            report = is_strongly_two_nil_clean(parse_ring_descriptor(text))
            assert not report.holds
            assert report.replay()

    def test_z3(self):
        assert is_strongly_two_nil_clean(zm(3)).holds


class TestIdentityPredicates:
    def test_tripotent(self):
        assert is_tripotent(zm(6)).holds
        bad = is_tripotent(zm(4))
        assert not bad.holds and bad.counterexample == (2,) and bad.replay()

    def test_tripotent_zm_only_2_3_6(self):
        found = [m for m in range(2, 201) if is_tripotent(zm(m)).holds]
        assert found == [2, 3, 6]

    def test_two_boolean(self):
        assert is_two_boolean(zm(4)).holds
        assert not is_two_boolean(zm(5)).holds

    def test_generalized_3_like(self):
        assert is_generalized_n_like(zm(2), 3).holds
        assert is_generalized_n_like(parse_ring_descriptor("Z2xZ2"), 3).holds
        report = is_generalized_n_like(zm(5), 3)
        assert not report.holds and report.counterexample is not None

    def test_generalized_against_naive_powers(self):
        def naive_holds(ring, n):
            def power(x, k):
                out = x
                for _ in range(k - 1):
                    out = ring.mul(out, x)
                return out

            return all(
                ring.sub(ring.sub(power(ring.mul(a, b), n), ring.mul(a, power(b, n))),
                         ring.sub(ring.mul(power(a, n), b), ring.mul(a, b))) == ring.zero
                for a in ring.elements() for b in ring.elements()
            )

        for text in ("Z4", "Z5", "Z6", "Z8", "M2(Z2)", "Z2[x]/(x^2)"):
            ring = parse_ring_descriptor(text)
            for n in range(2, 8):
                assert is_generalized_n_like(ring, n).holds == naive_holds(ring, n)

    def test_generalized_huge_n(self):
        # square-and-multiply: n = 10^12 costs about 40 squarings per power
        start = time.perf_counter()
        assert is_generalized_n_like(zm(2), 10**12).holds
        assert time.perf_counter() - start < 1.0

    def test_generalized_requires_n_at_least_2(self):
        with pytest.raises(InputError):
            is_generalized_n_like(zm(2), 1)

    def test_strongly_sit(self):
        assert is_strongly_sit(zm(12)).holds
        assert is_strongly_sit(zm(6)).holds
        report = is_strongly_sit(zm(5))
        assert not report.holds and report.replay()


class TestReplay:
    """replay() re-derives each verdict from the property's table entry."""

    def test_generalized_counterexample_is_rechecked(self):
        assert not PropertyReport("generalized-3-like", zm(2), False, counterexample=((0,), (0,))).replay()
        report = is_generalized_n_like(zm(5), 3)
        assert not report.holds and report.replay()

    def test_unknown_property_fails(self):
        assert not PropertyReport("bogus", zm(2), True, ((1,),), (((1,),),)).replay()
        assert not PropertyReport("generalized-1-like", zm(2), True).replay()

    def test_positive_report_needs_its_witness(self):
        assert not PropertyReport("two-nil-clean", zm(5), True).replay()
        assert not PropertyReport("strongly-sit", zm(6), True).replay()

    def test_positive_identity_report_carries_no_evidence(self):
        assert PropertyReport("tripotent", zm(6), True).replay()
        assert PropertyReport("generalized-3-like", zm(2), True).replay()

    def test_witness_must_be_a_passing_split(self):
        ring = zm(12)
        report = is_two_nil_clean(ring)
        e, f, w = report.witness_parts
        assert report.replay()
        report.witness_parts = (e, f, ring.add(w, (6,)))  # no longer sums to one
        assert not report.replay()
        report.witness_parts = ((2,), (11,), (0,))  # sums to one, but 2 is not idempotent
        assert not report.replay()

    def test_counterexample_must_have_no_passing_split(self):
        assert not PropertyReport("two-nil-clean", zm(5), False, counterexample=(2,)).replay()
        assert PropertyReport("two-nil-clean", zm(5), False, counterexample=(3,)).replay()
        assert not PropertyReport("tripotent", zm(4), False, counterexample=(3,)).replay()


class TestMatrixWitness:
    def test_inverse_display_for_all_small_m(self):
        for m in range(2, 13):
            report = check_not_strongly_matrix_witness(m)
            assert report.holds and report.replay()

    def test_mod_three_values(self):
        report = check_not_strongly_matrix_witness(3)
        assert report.witness_element == ((2, 1, 1, 1),)
        assert report.witness_parts == (((1, 2, 2, 2),),)


class TestMinIndex:
    def test_zero_is_trivial(self):
        assert min_nilpotent_index_over_decompositions(zm(8), (0,)) == 1

    def test_doubled_identity_splits_cheaply(self):
        # 2 = 1 + 1 + 0 componentwise, so the index collapses to 1
        for k in (2, 3, 4):
            ring = chain_ring(k)
            doubled = tuple(2 % (2**i) for i in range(1, k + 1))
            assert min_nilpotent_index_over_decompositions(ring, doubled) == 1

    def test_tripled_identity_forces_growth(self):
        # w is forced to 2 in every Z_{2^i} component, whose exponent is i
        for k in (2, 3, 4):
            ring = chain_ring(k)
            tripled = tuple(3 % (2**i) for i in range(1, k + 1))
            assert min_nilpotent_index_over_decompositions(ring, tripled) == k

    def test_no_decomposition_returns_none(self):
        assert min_nilpotent_index_over_decompositions(zm(5), (3,)) is None


class TestAudit:
    def test_nil_clean_ring(self):
        audit = implication_audit(zm(4))
        assert audit.reports["nil-clean"].holds and audit.consistent

    def test_weakly_only(self):
        audit = implication_audit(zm(3))
        assert not audit.reports["nil-clean"].holds
        assert audit.reports["weakly-nil-clean"].holds
        assert audit.reports["two-nil-clean"].holds
        assert audit.consistent

    def test_two_only(self):
        audit = implication_audit(parse_ring_descriptor("Z3xZ3"))
        assert not audit.reports["weakly-nil-clean"].holds
        assert audit.reports["two-nil-clean"].holds
        assert audit.consistent

    def test_chain_over_range(self):
        for m in range(2, 40):
            assert implication_audit(zm(m)).consistent


class TestOracleConstructionAgreement:
    """The exhaustive oracle and the constructive path must agree."""

    @pytest.mark.parametrize("m", (2, 3, 4, 6))
    def test_matrix_rings_two_nil_clean_and_constructive(self, m):
        from nilclean.decompose import decompose
        from nilclean.matrix import RingMatrix, zm_ring

        ring = parse_ring_descriptor(f"M2(Z{m})")
        assert is_two_nil_clean(ring).holds
        mat_ring = zm_ring(m)
        for entries in itertools.product(range(m), repeat=4):
            mat = RingMatrix(mat_ring, np.array(entries, dtype=np.int64).reshape(1, 2, 2))
            assert decompose(mat).verified

    def test_non_smooth_rings_fail_both_ways(self):
        from nilclean.decompose import decompose
        from nilclean.errors import UnsupportedRingError
        from nilclean.matrix import RingMatrix, zm_ring

        for m in (5, 7, 10):
            report = is_two_nil_clean(zm(m))
            assert not report.holds
            with pytest.raises(UnsupportedRingError):
                decompose(RingMatrix.identity(1, zm_ring(m)))

    def test_element_decompositions_agree_with_oracle(self):
        from nilclean.decompose import decompose_triangular
        from nilclean.matrix import RingMatrix, zm_ring

        for m in two_three_smooth_moduli(36):
            ring = zm(m)
            report = is_two_nil_clean(ring)
            assert report.holds
            idem = set(enumerate_idempotents(ring))
            nil = {x for x, _ in enumerate_nilpotents(ring)}
            for a in range(m):
                cert = decompose_triangular(RingMatrix.from_rows([[a]], zm_ring(m)))
                e, f, w = (x.to_rows()[0][0] for x in (cert.e, cert.f, cert.w))
                assert (e + f + w) % m == a
                assert (e,) in idem and (f,) in idem and (w,) in nil


class TestDeterminism:
    def test_witnesses_stable(self):
        ring = parse_ring_descriptor("Z3xZ3")
        r1, r2 = is_two_nil_clean(ring), is_two_nil_clean(ring)
        assert r1.witness_element == r2.witness_element
        assert r1.witness_parts == r2.witness_parts
        w1, w2 = is_weakly_nil_clean(ring), is_weakly_nil_clean(ring)
        assert w1.counterexample == w2.counterexample

    def test_iteration_order_is_mixed_radix(self):
        ring = parse_ring_descriptor("Z2xZ3")
        assert list(ring.elements()) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
        ]


# 101 rings, failing ones among them (Z5, Z10, M2(Z5), M2(Z7), Z7xM2(Z2),
# Z5xZ2 fail all three predicates, Z3[x]/(x^2)xZ4 fails nil-clean)
EQUIVALENCE_RINGS = (
    [f"Z{m}" for m in range(2, 80)]
    + [f"M2(Z{m})" for m in range(2, 8)]
    + ["M3(Z2)", "Z3xZ3", "Z7xM2(Z2)", "Z3[x]/(x^2)xZ4", "Z5xZ2", "Z2[x]/(x^3)",
       "Z2[x]/(x^4)", "Z3[x]/(x^3)", "Z4[x]/(x^2)", "Z8[x]/(x^2)", "Z9[x]/(x^2)",
       "Z2xZ4xZ8", "Z2xZ2xZ2", "Z6xZ10", "M2(Z2)xZ3", "M2(Z2)xZ5", "M2(Z3)xZ2"]
)


class TestSumsetEquivalence:
    """The early-exit search returns the full-sumset algorithm's reports."""

    @pytest.mark.parametrize("predicate,naive", [
        (is_two_nil_clean, naive_two_nil_clean),
        (is_nil_clean, naive_nil_clean),
        (is_weakly_nil_clean, naive_weakly_nil_clean),
    ], ids=["two-nil-clean", "nil-clean", "weakly-nil-clean"])
    def test_reports_identical(self, predicate, naive):
        verdicts = set()
        for text in EQUIVALENCE_RINGS:
            ring = parse_ring_descriptor(text)
            report = predicate(ring)
            got = (report.holds, report.witness_element, report.witness_parts,
                   report.counterexample)
            assert got == naive(ring), text
            assert report.replay(), text
            verdicts.add(report.holds)
        assert verdicts == {True, False}


PINNED_SMALL_RINGS = [text for text in EQUIVALENCE_RINGS if parse_ring_descriptor(text).size <= 100]

# SHA-256 over each ring's (property, ring, holds, witness_element,
# witness_parts, counterexample), recorded from the predicates written out
# one by one, before the property table replaced them
PINNED_REPORTS = [
    ("two-nil-clean", is_two_nil_clean, EQUIVALENCE_RINGS,
     "ee31d64a35012bdcb849c6ce25a4ecb1ff5a6b68450586458bcef9c94a898fe5"),
    ("nil-clean", is_nil_clean, EQUIVALENCE_RINGS,
     "adc4c826439323a2814c07a7739ba98bcbbf6ff5904b1e7e99cb99748f157371"),
    ("weakly-nil-clean", is_weakly_nil_clean, EQUIVALENCE_RINGS,
     "3be6ae2b5c6124717dc03a3ca05b497bbddd68b3dcf00b9b9942873f03ef5705"),
    ("strongly-two-nil-clean", is_strongly_two_nil_clean, EQUIVALENCE_RINGS,
     "aec693d01dc03b0147b6d86a7a2e9a35869f548dbae8836107c8d465b51f60e0"),
    ("strongly-sit", is_strongly_sit, EQUIVALENCE_RINGS,
     "76a4fdb0943cd82a10773e6d3bc8f019cd822d25615a18a8b7b6087b3c1fda8b"),
    ("tripotent", is_tripotent, EQUIVALENCE_RINGS,
     "1f2a75e93b70363b21619e49f7e8be3accc4caee26e565664825fe851f3dd886"),
    ("two-boolean", is_two_boolean, EQUIVALENCE_RINGS,
     "7b385e9de7331a6d3c131c549ecf081a86646bee5ed2ba087becb288026b2bf9"),
    ("generalized-2-like", lambda ring: is_generalized_n_like(ring, 2), PINNED_SMALL_RINGS,
     "e2ba46a41b0f094555bde4572beda5972f5af247ee7e7c6b878551be465ee71c"),
    ("generalized-3-like", lambda ring: is_generalized_n_like(ring, 3), PINNED_SMALL_RINGS,
     "34f0099278b4e62b509fb1f84195c8438fc76c9efa765660b8c91bbd358b4e95"),
]


class TestPinnedReports:
    """Every report is bit-for-bit the one the separate predicates gave."""

    @pytest.mark.parametrize("name,predicate,rings,digest", PINNED_REPORTS,
                             ids=[row[0] for row in PINNED_REPORTS])
    def test_digest(self, name, predicate, rings, digest):
        h = hashlib.sha256()
        for text in rings:
            report = predicate(parse_ring_descriptor(text))
            assert report.property == name
            h.update(json.dumps([name, text, report.holds, report.witness_element,
                                 report.witness_parts, report.counterexample]).encode())
        assert h.hexdigest() == digest
