"""Brute-force oracle: enumerations, predicates, witnesses, audits."""

import functools
import hashlib
import itertools
import json
import math
import time
import tracemalloc
import types

import numpy as np
import pytest

from conftest import (
    NaiveRing,
    check_not_strongly_matrix_witness,
    implication_audit,
    naive_nil_clean,
    naive_two_nil_clean,
    naive_weakly_nil_clean,
    smooth_moduli,
)
from nilclean import classifier
from nilclean.classifier import (
    MatFactor,
    PropertyReport,
    RingDescriptor,
    TruncFactor,
    ZmFactor,
    decide,
    enumerate_idempotents,
    enumerate_nilpotents,
    min_nilpotent_index_over_decompositions,
    parse_ring_descriptor,
)
from nilclean.errors import InputError, ResourceCapError
from nilclean.matrix import zm_ring


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


def elements_at(ring, indices):
    return [ring.element(int(i)) for i in indices]


class TestEnumerations:
    def test_idempotents_z6(self):
        assert [a[0] for a in elements_at(zm(6), enumerate_idempotents(zm(6)))] == [0, 1, 3, 4]

    def test_idempotents_z9(self):
        assert [a[0] for a in elements_at(zm(9), enumerate_idempotents(zm(9)))] == [0, 1]

    def test_idempotents_z3xz3(self):
        ring = parse_ring_descriptor("Z3xZ3")
        assert elements_at(ring, enumerate_idempotents(ring)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_nilpotents_z8(self):
        assert elements_at(zm(8), enumerate_nilpotents(zm(8))) == [(0,), (2,), (4,), (6,)]

    def test_nilpotents_z6(self):
        assert elements_at(zm(6), enumerate_nilpotents(zm(6))) == [(0,)]

    def test_nilpotents_m2z2(self):
        # direct squaring of all 16 matrices gives exactly four nilpotents
        ring = parse_ring_descriptor("M2(Z2)")
        assert elements_at(ring, enumerate_nilpotents(ring)) == [
            ((0, 0, 0, 0),), ((0, 0, 1, 0),), ((0, 1, 0, 0),), ((1, 1, 1, 1),)]

    @pytest.mark.parametrize("text", ["Z72", "M2(Z4)", "M3(Z2)", "Z2xM2(Z3)", "Z4[x]/(x^3)xZ3",
                                      "Z8[x]/(x^2)", "Z32", "Z2[x]/(x^5)xZ9", "M2(Z8)"])
    def test_enumerations_match_the_naive_arithmetic(self, text):
        # the last three have nilpotency bounds 5, 5 and 6, past which the
        # nilpotents' repeated squaring overshoots to 8
        ring = parse_ring_descriptor(text)
        naive, bound = NaiveRing(ring), ring.nilpotency_bound()
        assert elements_at(ring, enumerate_idempotents(ring)) == [
            a for a in naive.elements() if naive.mul(a, a) == a]
        assert elements_at(ring, enumerate_nilpotents(ring)) == [
            a for a in naive.elements() if naive.nilpotency_exponent(a, bound) is not None]

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            enumerate_idempotents(parse_ring_descriptor("M2(Z36)"))


class TestBatchedArithmetic:
    """Sums, differences and products of digit-major batches, shape (D, ...),
    decoded, are those of the naive tuple arithmetic, for every pair of
    elements of small rings."""

    @pytest.mark.parametrize("text", ["Z6", "M2(Z2)", "M2(Z3)", "Z4[x]/(x^3)", "Z2xM2(Z2)",
                                      "Z3[x]/(x^2)xZ4xZ2"])
    def test_every_pair(self, text):
        ring = parse_ring_descriptor(text)
        naive, q = NaiveRing(ring), np.arange(ring.size)
        a, b = ring.digits(q)[:, :, None], ring.digits(q)[:, None, :]
        elements = list(naive.elements())
        for batched, reference in ((ring.add, naive.add), (ring.sub, naive.sub), (ring.mul, naive.mul)):
            got = ring.indices(batched(a, b))
            assert [[ring.element(int(i)) for i in row] for row in got] == [
                [reference(x, y) for y in elements] for x in elements]

    @pytest.mark.parametrize("text", ["M2(Z9)", "Z9[x]/(x^3)", "M2(Z12)", "Z5xM2(Z12)"])
    def test_sampled_pairs_with_the_widest_products(self, text, rng):
        # the element with every digit m - 1 makes the largest unreduced products
        ring = parse_ring_descriptor(text)
        naive = NaiveRing(ring)
        q = np.concatenate([[ring.size - 1, ring.size - 1], rng.integers(0, ring.size, 400)])
        x, y = ring.digits(q), ring.digits(np.roll(q, 1))
        for batched, reference in ((ring.add, naive.add), (ring.sub, naive.sub), (ring.mul, naive.mul)):
            got = [ring.element(int(i)) for i in ring.indices(batched(x, y))]
            assert got == [reference(ring.element(int(a)), ring.element(int(b)))
                           for a, b in zip(q, np.roll(q, 1))]

    def test_every_rank_the_searches_use(self, rng):
        # one element (D,), a batch (D, k) and a pending x candidate grid
        # (D, p, k), on a ring with every kind of factor; the element with
        # every digit m - 1 leads each operand
        ring = parse_ring_descriptor("Z4xM2(Z3)xZ2[x]/(x^3)")
        naive = NaiveRing(ring)
        p = np.concatenate([[ring.size - 1], rng.integers(0, ring.size, 5)])
        k = np.concatenate([[ring.size - 1], rng.integers(0, ring.size, 7)])
        x, y = ring.digits(p), ring.digits(k)
        operands = [(x[:, 0], y[:, 0], p[0], k[0]), (x, y[:, :6], p, k[:6]),
                    (x[:, :, None], y[:, None], p[:, None], k)]
        for a, b, i, j in operands:
            i, j = np.broadcast_arrays(i, j)
            for batched, reference in ((ring.add, naive.add), (ring.sub, naive.sub), (ring.mul, naive.mul)):
                out = batched(a, b)
                assert out.shape == a.shape[:1] + i.shape
                assert [ring.element(int(h)) for h in ring.indices(out).ravel()] == [
                    reference(ring.element(int(u)), ring.element(int(v)))
                    for u, v in zip(i.ravel(), j.ravel())]

    @pytest.mark.parametrize("text,dtype", [("M2(Z9)", np.uint8), ("M2(Z12)", np.uint8), ("M2(Z13)", np.uint16)])
    def test_matrix_dtype_holds_a_product_entry_of_n_terms(self, text, dtype):
        # an entry of a 2x2 product sums two terms of at most (m - 1)^2
        assert parse_ring_descriptor(text).digits([0]).dtype == dtype

    def test_naive_reference_reads_factors_by_shape(self):
        # a factor whose digits do not fill its shape, as those of an upper
        # triangular T_2(Z_2) would not (3 digits, shape (2, 2)), is refused
        # rather than multiplied as a 2 x 2 matrix; so is a shape of rank 3
        for shape, digits in (((2, 2), 3), ((2, 2, 2), 8)):
            factor = types.SimpleNamespace(m=2, shape=shape, digits=digits, n=2, d=2)
            with pytest.raises(NotImplementedError, match="no naive arithmetic"):
                NaiveRing(types.SimpleNamespace(factors=(factor,))).one

    def test_index_round_trip(self):
        ring = parse_ring_descriptor("Z3xM2(Z2)xZ2[x]/(x^2)")
        for i in range(ring.size):
            assert ring.index(ring.element(i)) == i
        for bad in [(0, (0, 0, 0, 0), (0,)), (0, (0, 0, 0), (0, 0)), (3, (0, 0, 0, 0), (0, 0)),
                    (0, [0, 0, 0, 0], (0, 0)), ((0,), (0, 0, 0, 0), (0, 0)), (0, (0, 0, 0, 0), (0, 0), 0)]:
            assert ring.index(bad) is None


def _run_terms(factor):
    """The (x digit, y digit) pairs each output digit sums under the factor's
    run table, failing at a run that adds to an unwritten digit or writes one
    a second time."""
    out = [None] * factor.digits
    for i, j, k, n, add in factor.runs:
        for t in range(k, k + n):
            assert (out[t] is not None) == add, f"run {(i, j, k, n, add)} at output digit {t}"
            out[t] = (out[t] if add else []) + [(i, j + t - k)]
    return out


def _product_terms(factor):
    """The pairs each output digit sums by the definition of the product."""
    if not factor.shape:
        return [[(0, 0)]]
    if len(factor.shape) == 1:  # truncated convolution
        return [[(i, k - i) for i in range(k + 1)] for k in range(factor.d)]
    n = factor.n
    return [[(r * n + l, l * n + c) for l in range(n)] for r in range(n) for c in range(n)]


class TestRunTables:
    """Each factor's product is its table of runs.  Every output digit is
    written once before any run adds to it, and sums the terms of the
    product's definition; the widest sums shape[0] terms, or one for Z_m, the
    bound the ring's dtype is sized by."""

    @pytest.mark.parametrize("factor", [ZmFactor(17), MatFactor(1, 16), MatFactor(2, 12), MatFactor(3, 3),
                                        MatFactor(4, 2), TruncFactor(16, 1), TruncFactor(12, 2),
                                        TruncFactor(9, 3), TruncFactor(5, 4), TruncFactor(3, 5)],
                             ids=lambda f: f.describe())
    def test_each_digit_written_once_then_summed(self, factor):
        terms = _run_terms(factor)
        assert [sorted(t) for t in terms] == _product_terms(factor)
        widest = max(map(len, terms))
        assert widest == (factor.shape or (1,))[0]
        dtype = RingDescriptor((factor,)).digits([0]).dtype
        assert widest * (factor.m - 1) ** 2 <= np.iinfo(dtype).max


class TestSingleRunTables:
    """M1(Z_m) and Z_m[x]/(x^1) multiply by one run; they must decide every
    table property as Z_m does, with the same evidence, and replay."""

    @pytest.mark.parametrize("m", [2, 4, 6, 9, 12])
    @pytest.mark.parametrize("name", list(classifier.PROPERTIES))
    def test_same_verdict_as_zm(self, m, name):
        def evidence(report):
            key = lambda x: report.ring.index(x) if type(x) is tuple else x
            return (report.holds, None if report.witness_element is None else key(report.witness_element),
                    tuple(map(key, report.witness_parts or ())),
                    None if report.counterexample is None else key(report.counterexample))

        reports = [decide(name, parse_ring_descriptor(text)) for text in (f"Z{m}", f"M1(Z{m})", f"Z{m}[x]/(x^1)")]
        assert all(report.replay() for report in reports)
        assert evidence(reports[1]) == evidence(reports[2]) == evidence(reports[0])


class TestTwoNilClean:
    def test_z3xz3_and_weakly(self):
        ring = parse_ring_descriptor("Z3xZ3")
        two = decide("two-nil-clean", ring)
        weak = decide("weakly-nil-clean", ring)
        assert two.holds and two.replay()
        assert not weak.holds
        assert weak.counterexample is not None
        assert weak.replay()

    def test_z5_counterexample(self):
        report = decide("two-nil-clean", zm(5))
        assert not report.holds
        assert report.counterexample == (3,)
        assert report.replay()

    def test_m2z3_holds(self):
        assert decide("two-nil-clean", parse_ring_descriptor("M2(Z3)")).holds

    def test_witness_scan_meets_no_candidate_past_its_batch(self):
        # Z2^14 has BATCH idempotents and 1 is the last, so the witness
        # (0, 1, 0) of one is candidate BATCH - 1; the scan starts small
        ring = parse_ring_descriptor("x".join(["Z2"] * 14))
        scan, met = classifier._Scan(ring), []
        nilpotent = scan.nilpotent
        scan.nilpotent = lambda w: met.append(w[0].size) or nilpotent(w)
        parts = next(classifier._passing_splits(scan, classifier.PROPERTIES["two-nil-clean"],
                                                ring.index(ring.one)))
        assert parts == (ring.element(0), ring.one, ring.element(0))
        assert met[0] == 64 and sum(met) == classifier.BATCH == len(scan.idem[0])

    def test_matches_smoothness_for_zm(self):
        for m in range(2, 73):
            assert decide("two-nil-clean", zm(m)).holds == (set(zm_ring(m).primes) <= {2, 3})

    def test_witness_replays(self):
        for text in ("Z12", "Z3xZ3", "M2(Z2)", "Z2[x]/(x^2)"):
            report = decide("two-nil-clean", parse_ring_descriptor(text))
            assert report.holds and report.replay()


class TestStrongly:
    def test_commutative_ring_is_strong(self):
        assert decide("strongly-two-nil-clean", zm(12)).holds

    def test_matrix_rings_fail(self):
        for text in ("M2(Z2)", "M2(Z3)"):
            report = decide("strongly-two-nil-clean", parse_ring_descriptor(text))
            assert not report.holds
            assert report.replay()

    def test_z3(self):
        assert decide("strongly-two-nil-clean", zm(3)).holds

    @staticmethod
    def grid(text):
        """The scan of a ring, the test of every (element, commuting pair)
        candidate, and its parts (e, f, w)."""
        prop, scan = classifier.PROPERTIES["strongly-two-nil-clean"], classifier._Scan(parse_ring_descriptor(text))
        q, k = np.arange(scan.ring.size), np.arange(prop.count(scan))
        parts = prop.splits(scan, scan.ring.digits(q)[:, :, None], k)
        return scan, lambda: prop.meets(scan, q, k), parts

    @pytest.mark.parametrize("text", ["M2(Z2)", "Z2xM2(Z2)", "Z2[x]/(x^2)xZ3"])
    def test_meets_the_eager_conjunction(self, text):
        scan, meets, (e, f, w) = self.grid(text)
        mul = scan.ring.mul
        eager = scan.nilpotent(w) & (mul(e, w) == mul(w, e)).all(axis=0) & (mul(f, w) == mul(w, f)).all(axis=0)
        assert eager.any() and not eager.all()
        np.testing.assert_array_equal(meets(), eager)

    @pytest.mark.parametrize("text", ["M2(Z2)", "Z2xM2(Z2)", "Z2[x]/(x^2)xZ3"])
    def test_commutation_sees_only_nilpotent_remainders(self, text, monkeypatch):
        scan, meets, (_, _, w) = self.grid(text)
        scan.commuting  # built before counting: it commutes pairs of idempotents
        columns, commutes = [], classifier._commutes
        monkeypatch.setattr(classifier, "_commutes", lambda ring, x, y: columns.append(
            np.broadcast(x, y).size // len(x)) or commutes(ring, x, y))
        meets()
        nilpotent = int(scan.nilpotent(w).sum())
        assert 0 < nilpotent < w[0].size and sum(columns) == 2 * nilpotent


# The matrix rings M_n(Z_m) of the theory table, as (n, m)
THEORY_RINGS = [(2, m) for m in range(2, 10)] + [(3, 2), (3, 3)]


def theory_verdicts(n, m):
    """What theory says of M_n(Z_m), n >= 2: two-nil-clean exactly when m
    is 2-3-smooth; M_n(Z_2) nil-clean, hence weakly nil-clean; over a
    reduced ring (m in 2, 3, 6) never strongly two-nil-clean, since that
    would make it tripotent while it has nonzero nilpotents."""
    verdicts = {"two-nil-clean": set(zm_ring(m).primes) <= {2, 3}}
    if m == 2:
        verdicts["nil-clean"] = verdicts["weakly-nil-clean"] = True
    if m in (2, 3, 6):
        verdicts["strongly-two-nil-clean"] = False
    return verdicts


class TestTheoryTable:
    """The oracle's verdicts on small matrix rings against theory, each
    report replayed (under 1 s for the ten rings)."""

    @pytest.mark.parametrize("n,m", THEORY_RINGS, ids=[f"M{n}(Z{m})" for n, m in THEORY_RINGS])
    def test_verdicts(self, n, m):
        ring = RingDescriptor((MatFactor(n, m),))
        for name, holds in theory_verdicts(n, m).items():
            report = decide(name, ring)
            assert report.holds == holds and report.replay(), name


class TestWorkBudget:
    """The strongly properties estimate their candidates from the sizes of
    the ring and of its idempotents, and refuse an estimate over the budget
    before they build anything: Z6 has 6 elements and 4 idempotents."""

    @pytest.mark.parametrize("name,estimate", [("strongly-two-nil-clean", 16), ("strongly-sit", 24)])
    def test_estimate_against_the_budget(self, monkeypatch, name, estimate):
        monkeypatch.setattr(classifier, "WORK_BUDGET", estimate)
        report = decide(name, zm(6))
        assert report.holds and report.replay()
        monkeypatch.setattr(classifier, "WORK_BUDGET", estimate - 1)
        with pytest.raises(ResourceCapError, match=f"about {estimate} candidates"):
            decide(name, zm(6))
        assert not report.replay()

    def test_other_properties_unbounded_by_it(self, monkeypatch):
        monkeypatch.setattr(classifier, "WORK_BUDGET", 0)
        assert decide("two-nil-clean", zm(6)).holds and decide("tripotent", zm(6)).holds

    def test_commuting_pairs_not_built_over_the_budget(self, monkeypatch):
        ring = parse_ring_descriptor("x".join(["Z2"] * 14))
        monkeypatch.setattr(classifier._Scan, "commuting", property(lambda scan: pytest.fail("built")))
        with pytest.raises(ResourceCapError):
            decide("strongly-two-nil-clean", ring)


class TestIdentityPredicates:
    def test_tripotent(self):
        assert decide("tripotent", zm(6)).holds
        bad = decide("tripotent", zm(4))
        assert not bad.holds and bad.counterexample == (2,) and bad.replay()

    def test_tripotent_zm_only_2_3_6(self):
        found = [m for m in range(2, 201) if decide("tripotent", zm(m)).holds]
        assert found == [2, 3, 6]

    def test_two_boolean(self):
        assert decide("two-boolean", zm(4)).holds
        assert not decide("two-boolean", zm(5)).holds

    def test_generalized_3_like(self):
        assert decide("generalized-3-like", zm(2)).holds
        assert decide("generalized-3-like", parse_ring_descriptor("Z2xZ2")).holds
        report = decide("generalized-3-like", zm(5))
        assert not report.holds and report.counterexample is not None

    def test_generalized_against_naive_powers(self):
        def naive_holds(descriptor, n):
            ring = NaiveRing(descriptor)

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
                assert decide(f"generalized-{n}-like", ring).holds == naive_holds(ring, n)

    def test_generalized_huge_n(self):
        # square-and-multiply: n = 10^12 costs about 40 squarings per power
        start = time.perf_counter()
        assert decide(f"generalized-{10**12}-like", zm(2)).holds
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text", ["Z2", "Z4", "Z6", "Z8", "Z9", "Z12", "Z2xZ3", "Z2xZ4", "Z2xZ5",
                                      "Z2xZ8", "Z2[x]/(x^2)", "M2(Z2)"])
    def test_generalized_reduced_n(self, text):
        """For every n up to 2|R| + 2, and past lcm(1..s) for s the largest
        factor's size and for s = |R| (the reductions of n earlier rules
        made), the verdict and counterexample are those of x^n powered
        naively by squares."""
        ring = parse_ring_descriptor(text)
        naive = NaiveRing(ring)
        elements = list(naive.elements())

        def power(x, k):  # by squares from the lowest bit of k, unreduced
            out, square = None, x
            while k:
                if k & 1:
                    out = square if out is None else naive.mul(out, square)
                k >>= 1
                square = naive.mul(square, square) if k else square
            return out

        def first_failure(n):
            pw = {x: power(x, n) for x in elements}
            for a, b in itertools.product(elements, repeat=2):
                ab = naive.mul(a, b)
                if naive.sub(naive.sub(pw[ab], naive.mul(a, pw[b])), naive.sub(naive.mul(pw[a], b), ab)) \
                        != naive.zero:
                    return a, b
            return None

        ns = {*range(2, 2 * ring.size + 3), 10**30 + 7}
        for s in (max(f.m**f.digits for f in ring.factors), ring.size):
            lcm = math.lcm(*range(1, s + 1))
            ns |= {lcm + s - 1, lcm + s, lcm + s + 1, 3 * lcm + s + 5}
        for n in sorted(ns):
            report = decide(f"generalized-{n}-like", ring)
            assert report.counterexample == first_failure(n), n
            assert report.holds == (report.counterexample is None)

    @pytest.mark.parametrize("text,period", [("Z997", 996), ("M2(Z2)", 6), ("Z10xZ10xZ10", 4), ("Z9", 6),
                                             ("Z2[x]/(x^3)", 4), ("Z2xZ3", 2), ("Z8", 2)])
    def test_ring_period(self, text, period):
        """RingDescriptor.period is the lcm of each element's cycle length from
        x^|R| on, counted here one element at a time."""
        ring = parse_ring_descriptor(text)
        naive = NaiveRing(ring)
        lengths = []
        for x in naive.elements() if ring.size <= 100 else ():
            start = functools.reduce(lambda y, _: naive.mul(y, x), range(ring.size - 1), x)
            power, length = naive.mul(start, x), 1
            while power != start:
                power, length = naive.mul(power, x), length + 1
            lengths.append(length)
        assert ring.period == period
        assert not lengths or math.lcm(*lengths) == period

    def test_generalized_digits_of_n_cost_no_time(self):
        start = time.perf_counter()
        report = decide(f"generalized-{'7' * 4000}-like", parse_ring_descriptor("x".join(["Z2"] * 6)))
        assert time.perf_counter() - start < 0.5
        assert report.holds

    def test_generalized_requires_n_at_least_2(self):
        with pytest.raises(InputError):
            decide("generalized-1-like", zm(2))

    def test_strongly_sit(self):
        assert decide("strongly-sit", zm(12)).holds
        assert decide("strongly-sit", zm(6)).holds
        report = decide("strongly-sit", zm(5))
        assert not report.holds and report.replay()


class TestReplay:
    """replay() re-derives each verdict from the property's table entry."""

    def test_generalized_counterexample_is_rechecked(self):
        assert not PropertyReport("generalized-3-like", zm(2), False, counterexample=((0,), (0,))).replay()
        report = decide("generalized-3-like", zm(5))
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
        report = decide("two-nil-clean", ring)
        e, f, w = report.witness_parts
        assert report.replay()
        report.witness_parts = (e, f, NaiveRing(ring).add(w, (6,)))  # no longer sums to one
        assert not report.replay()
        report.witness_parts = ((2,), (11,), (0,))  # sums to one, but 2 is not idempotent
        assert not report.replay()

    def test_counterexample_must_have_no_passing_split(self):
        assert not PropertyReport("two-nil-clean", zm(5), False, counterexample=(2,)).replay()
        assert PropertyReport("two-nil-clean", zm(5), False, counterexample=(3,)).replay()
        assert not PropertyReport("tripotent", zm(4), False, counterexample=(3,)).replay()

    @pytest.mark.parametrize("evidence", [(), (4, 99), (9,), (-1,), ("a",), (True,), (3.0,), [3], 3, None,
                                          (10**30,)],
                             ids=repr)
    def test_forged_counterexample_replays_false(self, evidence):
        assert not PropertyReport("two-nil-clean", zm(5), False, counterexample=evidence).replay()
        assert not PropertyReport("tripotent", zm(4), False, counterexample=evidence).replay()

    @pytest.mark.parametrize("evidence", [((0,),), ((0,), (0,), (0,)), ((0,), (2,)), ((0,), 0), [(0,), (2,)],
                                          ((0,), (-3,))], ids=repr)
    def test_forged_pair_counterexample_replays_false(self, evidence):
        assert decide("generalized-3-like", zm(5)).replay()
        assert not PropertyReport("generalized-3-like", zm(5), False, counterexample=evidence).replay()

    def test_forged_witness_replays_false(self):
        ring = parse_ring_descriptor("M2(Z2)")
        report = decide("weakly-nil-clean", ring)
        assert report.replay()
        e, w, sign = report.witness_parts
        for element, parts in [(((1, 0, 0, 1),), (e, w, 2)), (((1, 0, 0, 1),), (e, w, True)),
                               (((1, 0, 0, 1),), (e, w)), (((1, 0, 0, 1),), (e, w, sign, sign)),
                               (((1, 0, 0, 1),), (e, ((0, 0, 0, 2),), sign)), (((1, 0, 0, 1),), (e, 0, sign)),
                               (((1, 0, 0, 1),), [e, w, sign]), (((1, 0, 0, 1),), None), (((1, 0, 0, 1),), 5),
                               ((1, 0, 0, 1), (e, w, sign)), (((1, 0, 0, 3),), (e, w, sign)),
                               (None, (e, w, sign))]:
            assert not PropertyReport("weakly-nil-clean", ring, True, element, parts).replay()

    def test_strongly_witness_needs_commuting_idempotents(self):
        # e f = f and f e = e, so the idempotents e, f do not commute, though
        # w = 0 commutes with both and a = e + f + w
        e, f = ((1, 0, 0, 0),), ((1, 1, 0, 0),)
        ring = parse_ring_descriptor("M2(Z2)")
        assert not PropertyReport("strongly-two-nil-clean", ring, True, ((0, 1, 0, 0),),
                                  (e, f, ((0, 0, 0, 0),))).replay()
        assert PropertyReport("two-nil-clean", ring, True, ((0, 1, 0, 0),), (e, f, ((0, 0, 0, 0),))).replay()

    def test_report_over_the_cap_replays_false(self):
        ring = parse_ring_descriptor("M200(Z2)")
        assert not PropertyReport("tripotent", ring, False, counterexample=((0,) * 40000,)).replay()
        assert not PropertyReport("generalized-2-like", zm(2001), False, counterexample=((0,), (0,))).replay()


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
        assert decide("two-nil-clean", ring).holds
        mat_ring = zm_ring(m)
        for entries in itertools.product(range(m), repeat=4):
            mat = RingMatrix(mat_ring, np.array(entries, dtype=np.int64).reshape(1, 2, 2))
            assert decompose(mat).verified

    def test_non_smooth_rings_fail_both_ways(self):
        from nilclean.decompose import decompose
        from nilclean.errors import UnsupportedRingError
        from nilclean.matrix import RingMatrix, zm_ring

        for m in (5, 7, 10):
            report = decide("two-nil-clean", zm(m))
            assert not report.holds
            with pytest.raises(UnsupportedRingError):
                decompose(RingMatrix.identity(1, zm_ring(m)))

    def test_element_decompositions_agree_with_oracle(self):
        from nilclean.decompose import decompose
        from nilclean.matrix import RingMatrix, zm_ring

        for m in smooth_moduli(36):
            ring = zm(m)
            report = decide("two-nil-clean", ring)
            assert report.holds
            idem = set(elements_at(ring, enumerate_idempotents(ring)))
            nil = set(elements_at(ring, enumerate_nilpotents(ring)))
            for a in range(m):
                cert = decompose(RingMatrix.from_rows([[a]], zm_ring(m)))
                e, f, w = (x.to_rows()[0][0] for x in (cert.e, cert.f, cert.w))
                assert (e + f + w) % m == a
                assert (e,) in idem and (f,) in idem and (w,) in nil


class TestDeterminism:
    def test_witnesses_stable(self):
        ring = parse_ring_descriptor("Z3xZ3")
        r1, r2 = decide("two-nil-clean", ring), decide("two-nil-clean", ring)
        assert r1.witness_element == r2.witness_element
        assert r1.witness_parts == r2.witness_parts
        w1, w2 = decide("weakly-nil-clean", ring), decide("weakly-nil-clean", ring)
        assert w1.counterexample == w2.counterexample

    def test_iteration_order_is_mixed_radix(self):
        ring = parse_ring_descriptor("Z2xZ3")
        assert elements_at(ring, range(ring.size)) == list(NaiveRing(ring).elements()) == [
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


def _refuse(*args):
    raise AssertionError("the sumset took the route it was kept off")


# (route, PAIRS_PER_ELEMENT, the step function the route must not call)
SUMSET_ROUTES = [("default", None, None), ("pairs", 10**12, "_convolve"), ("convolution", 0, "_sums")]


class TestSumsetEquivalence:
    """The sumset mask, on its own route and forced onto each of its two
    routes, returns the full-sumset algorithm's reports."""

    @pytest.mark.parametrize("name,naive", [
        ("two-nil-clean", naive_two_nil_clean),
        ("nil-clean", naive_nil_clean),
        ("weakly-nil-clean", naive_weakly_nil_clean),
    ], ids=["two-nil-clean", "nil-clean", "weakly-nil-clean"])
    def test_reports_identical(self, monkeypatch, name, naive):
        verdicts = set()
        for text in EQUIVALENCE_RINGS:
            ring = parse_ring_descriptor(text)
            want = naive(ring)
            for route, ratio, unused in SUMSET_ROUTES:
                with monkeypatch.context() as patch:
                    if ratio is not None:
                        patch.setattr(classifier, "PAIRS_PER_ELEMENT", ratio)
                        patch.setattr(classifier, unused, _refuse)
                    report = decide(name, ring)
                got = (report.holds, report.witness_element, report.witness_parts,
                       report.counterexample)
                assert got == want, (text, route)
                assert report.replay(), (text, route)
            verdicts.add(report.holds)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("text", ["M2(Z4)", "M2(Z5)", "M3(Z2)"])
    def test_two_nil_clean_mask_against_min_index(self, text):
        # the mask is True exactly at the elements with some split (e, f, w)
        ring = parse_ring_descriptor(text)
        scan = classifier._Scan(ring)
        mask = classifier._sumset(ring, classifier.PROPERTIES["two-nil-clean"].addends(scan))
        assert mask.shape == (ring.size,)
        for i in range(ring.size):
            index = min_nilpotent_index_over_decompositions(ring, ring.element(i))
            assert mask[i] == (index is not None), (text, ring.element(i))
        assert mask.all() == (text != "M2(Z5)")


PINNED_SMALL_RINGS = [text for text in EQUIVALENCE_RINGS if parse_ring_descriptor(text).size <= 100]

# SHA-256 over each ring's (property, ring, holds, witness_element,
# witness_parts, counterexample), recorded from the predicates written out
# one by one, before the property table replaced them
PINNED_REPORTS = [
    ("two-nil-clean", EQUIVALENCE_RINGS,
     "ee31d64a35012bdcb849c6ce25a4ecb1ff5a6b68450586458bcef9c94a898fe5"),
    ("nil-clean", EQUIVALENCE_RINGS,
     "adc4c826439323a2814c07a7739ba98bcbbf6ff5904b1e7e99cb99748f157371"),
    ("weakly-nil-clean", EQUIVALENCE_RINGS,
     "3be6ae2b5c6124717dc03a3ca05b497bbddd68b3dcf00b9b9942873f03ef5705"),
    ("strongly-two-nil-clean", EQUIVALENCE_RINGS,
     "aec693d01dc03b0147b6d86a7a2e9a35869f548dbae8836107c8d465b51f60e0"),
    ("strongly-sit", EQUIVALENCE_RINGS,
     "76a4fdb0943cd82a10773e6d3bc8f019cd822d25615a18a8b7b6087b3c1fda8b"),
    ("tripotent", EQUIVALENCE_RINGS,
     "1f2a75e93b70363b21619e49f7e8be3accc4caee26e565664825fe851f3dd886"),
    ("two-boolean", EQUIVALENCE_RINGS,
     "7b385e9de7331a6d3c131c549ecf081a86646bee5ed2ba087becb288026b2bf9"),
    ("generalized-2-like", PINNED_SMALL_RINGS,
     "e2ba46a41b0f094555bde4572beda5972f5af247ee7e7c6b878551be465ee71c"),
    ("generalized-3-like", PINNED_SMALL_RINGS,
     "34f0099278b4e62b509fb1f84195c8438fc76c9efa765660b8c91bbd358b4e95"),
]


class TestPinnedReports:
    """Every report is bit-for-bit the one the separate predicates gave."""

    @pytest.mark.parametrize("name,rings,digest", PINNED_REPORTS,
                             ids=[row[0] for row in PINNED_REPORTS])
    def test_digest(self, name, rings, digest):
        h = hashlib.sha256()
        for text in rings:
            report = decide(name, parse_ring_descriptor(text))
            assert report.property == name
            h.update(json.dumps([name, text, report.holds, report.witness_element,
                                 report.witness_parts, report.counterexample]).encode())
        assert h.hexdigest() == digest


# Survey-sized rings over the 3,000 elements of the rows above, recorded the
# same way from the per-element tuple arithmetic before index batches
# replaced it
PINNED_SURVEY_REPORTS = [
    ("two-nil-clean", ("M2(Z8)", "M2(Z9)", "M3(Z3)"),
     "0dd16226f32c4a41be2e9c82acec08f0dad64f023c0ecf045697f170ba9350d7"),
    ("strongly-two-nil-clean", ("M2(Z6)",),
     "164465b5eaa1a4169f0c4d81bc0e3727a4615bf039aadf2a9999f196772717f7"),
    ("generalized-3-like", ("Z3xZ3xZ3xZ3xZ3xZ3",),
     "37b679a1fd1c8a135a55128a746cc52b4bd05cf43f92618d138badae9c6ea006"),
]

# SHA-256 over (k, element, index) for every element of Z2xZ4x...xZ2^k
PINNED_MIN_INDEX = "aa417f91c716ab407f7792d19d902cf425c8eef19110ab113ff16b32c82d7534"


class TestPinnedSurveyReports:
    """The survey-sized reports, and the minimal nilpotency indices that
    demo-obstruction prints, are bit-for-bit those of the tuple arithmetic."""

    @pytest.mark.parametrize("name,rings,digest", PINNED_SURVEY_REPORTS,
                             ids=[row[0] for row in PINNED_SURVEY_REPORTS])
    def test_digest(self, name, rings, digest):
        h = hashlib.sha256()
        for text in rings:
            report = decide(name, parse_ring_descriptor(text))
            h.update(json.dumps([name, text, report.holds, report.witness_element,
                                 report.witness_parts, report.counterexample]).encode())
        assert h.hexdigest() == digest

    def test_min_index_on_every_chain_element(self):
        h = hashlib.sha256()
        for k in range(1, 5):
            ring = chain_ring(k)
            for a in NaiveRing(ring).elements():
                h.update(json.dumps([k, a, min_nilpotent_index_over_decompositions(ring, a)]).encode())
        assert h.hexdigest() == PINNED_MIN_INDEX


# The matrix rings of the oracle survey, with the properties it asks of each
SURVEY_MATRIX_RINGS = [
    ("M3(Z2)", ("nil-clean", "weakly-nil-clean", "two-nil-clean")),
    ("M2(Z5)", ("two-nil-clean",)),
    ("M2(Z6)", ("two-nil-clean", "strongly-two-nil-clean")),
    ("M2(Z8)", ("two-nil-clean",)),
    ("M2(Z9)", ("two-nil-clean",)),
]


class TestMemoryBound:
    """The batches keep the survey's matrix rings within 2 MB of traced
    allocations, whatever the number of candidate rows."""

    @pytest.mark.parametrize("text,names", SURVEY_MATRIX_RINGS, ids=[row[0] for row in SURVEY_MATRIX_RINGS])
    def test_peak_within_two_megabytes(self, text, names):
        ring = parse_ring_descriptor(text)
        for name in names:
            tracemalloc.start()
            try:
                decide(name, ring)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 1024 * 1024, (name, peak)
