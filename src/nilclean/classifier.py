"""Brute-force oracle for ring properties of small finite rings.

Everything here decides properties by exhaustive enumeration over explicit
element tuples, with its own tiny arithmetic, independent of the constructive
decomposition modules: agreement between the two paths is evidence, not
circularity.  Rings are finite products of Z_m, M_n(Z_m) and Z_m[x]/(x^d)
factors; elements are tuples with one component value per factor (residue,
flat row-major matrix tuple, coefficient tuple).  Iteration order is
mixed-radix with the last factor fastest, so witnesses are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import InputError, ResourceCapError
from .residue import factorize

UNIVERSAL_SCAN_CAP = 10**6


# ---------------------------------------------------------------------------
# Ring factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZmFactor:
    """The ring Z_m; component values are canonical residues."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise InputError("Z_m factor needs m >= 2")

    digits = 1  # an element is one base-m digit

    def elements(self) -> Iterator[int]:
        return iter(range(self.m))

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return -a % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.m

    def nilpotency_bound(self) -> int:
        return factorize(self.m).max_exponent

    def describe(self) -> str:
        return f"Z{self.m}"


class _TupleFactor:
    """Elements, addition and zero of a factor whose values are tuples of
    ``digits`` residues mod m."""

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.m), repeat=self.digits)

    def add(self, a, b):
        m = self.m
        return tuple((x + y) % m for x, y in zip(a, b))

    def neg(self, a):
        m = self.m
        return tuple(-x % m for x in a)

    @property
    def zero(self):
        return (0,) * self.digits


@dataclass(frozen=True)
class MatFactor(_TupleFactor):
    """The ring M_n(Z_m); component values are flat row-major tuples."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 2:
            raise InputError("M_n(Z_m) factor needs n >= 1, m >= 2")

    @property
    def digits(self) -> int:
        return self.n * self.n

    def mul(self, a, b):
        n, m = self.n, self.m
        out = []
        for i in range(n):
            row = a[i * n : (i + 1) * n]
            for j in range(n):
                out.append(sum(row[k] * b[k * n + j] for k in range(n)) % m)
        return tuple(out)

    @property
    def one(self):
        n = self.n
        return tuple(1 % self.m if i == j else 0 for i in range(n) for j in range(n))

    def nilpotency_bound(self) -> int:
        return self.n * factorize(self.m).max_exponent

    def describe(self) -> str:
        return f"M{self.n}(Z{self.m})"


@dataclass(frozen=True)
class TruncFactor(_TupleFactor):
    """The ring Z_m[x]/(x^d); component values are coefficient tuples."""

    m: int
    d: int

    def __post_init__(self):
        if self.m < 2 or self.d < 1:
            raise InputError("Z_m[x]/(x^d) factor needs m >= 2, d >= 1")

    @property
    def digits(self) -> int:
        return self.d

    def mul(self, a, b):
        m, d = self.m, self.d
        out = [0] * d
        for i, x in enumerate(a):
            if x:
                for j in range(d - i):
                    out[i + j] = (out[i + j] + x * b[j]) % m
        return tuple(out)

    @property
    def one(self):
        return (1 % self.m,) + (0,) * (self.d - 1)

    def nilpotency_bound(self) -> int:
        return factorize(self.m).max_exponent + self.d - 1

    def describe(self) -> str:
        return f"Z{self.m}[x]/(x^{self.d})"


Factor = ZmFactor | MatFactor | TruncFactor


@dataclass(frozen=True)
class RingDescriptor:
    """A finite product of supported factors."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise InputError("ring descriptor needs at least one factor")

    @property
    def size(self) -> int:
        return math.prod(f.m**f.digits for f in self.factors)

    def elements(self) -> Iterator[tuple]:
        return itertools.product(*[f.elements() for f in self.factors])

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def sub(self, a, b):
        return tuple(f.add(x, f.neg(y)) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    @property
    def zero(self):
        return tuple(f.zero for f in self.factors)

    @property
    def one(self):
        return tuple(f.one for f in self.factors)

    def commutes(self, a, b) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    def nilpotency_bound(self) -> int:
        return max(f.nilpotency_bound() for f in self.factors)

    def describe(self) -> str:
        return "x".join(f.describe() for f in self.factors)


_FACTOR_PATTERNS = (
    (re.compile(r"M(\d+)\(Z(\d+)\)"), lambda g: MatFactor(int(g[0]), int(g[1]))),
    (re.compile(r"Z(\d+)\[x\]/\(x\^(\d+)\)"), lambda g: TruncFactor(int(g[0]), int(g[1]))),
    (re.compile(r"Z(\d+)"), lambda g: ZmFactor(int(g[0]))),
)


def parse_ring_descriptor(text: str) -> RingDescriptor:
    """Parse descriptors like "Z6", "Z3xZ3", "M2(Z2)", "Z2[x]/(x^3)xZ4"."""
    s = text.replace(" ", "")
    factors: list[Factor] = []
    pos = 0
    while pos < len(s):
        if factors:
            if s[pos] in "x*":
                pos += 1
            else:
                raise InputError(f"expected factor separator at {pos} in {text!r}")
        for pat, build in _FACTOR_PATTERNS:
            mobj = pat.match(s, pos)
            if mobj:
                try:
                    factors.append(build(mobj.groups()))
                except ValueError:  # int() refuses digit runs over 4,300 digits
                    raise InputError(f"number too long in ring descriptor at position {pos}") from None
                pos = mobj.end()
                break
        else:
            raise InputError(f"cannot parse ring descriptor {text!r} at position {pos}")
    return RingDescriptor(tuple(factors))


# ---------------------------------------------------------------------------
# Reports and enumerations
# ---------------------------------------------------------------------------

@dataclass
class PropertyReport:
    """Outcome of one exhaustive property check, with replayable evidence."""

    property: str
    ring: RingDescriptor
    holds: bool
    witness_element: Optional[tuple] = None
    witness_parts: Optional[tuple] = None
    counterexample: Optional[tuple] = None

    def replay(self) -> bool:
        """Re-derive the verdict from the stored evidence and the property's
        table entry: a counterexample must have no passing candidate split,
        and the witness parts must be a passing candidate split of the
        witness element.  A positive report of an identity (tripotent,
        two-boolean, generalized-<n>-like) carries no evidence and replays
        True; a report of an unknown property, or any other report without
        its evidence, replays False."""
        try:
            prop = lookup(self.property)
        except InputError:
            return False
        scan = _Scan(self.ring)
        if not self.holds:
            return self.counterexample is not None and not prop.holds_at(scan, self.counterexample)
        if prop.splits is None:
            return True
        return self.witness_element is not None and any(
            split == self.witness_parts and prop.test(scan, split)
            for split in prop.candidates(scan, self.witness_element)
        )


def _check_cap(ring: RingDescriptor, pairwise: bool = False) -> None:
    """Refuse a search over more than UNIVERSAL_SCAN_CAP candidates, the
    elements or, for a pairwise identity, the pairs of elements, without
    building the ring's size: M200(Z2) has 2^40000 elements, and
    Z7[x]/(x^100000000) more."""
    what = "pairs of elements" if pairwise else "elements"
    count = 1
    for factor in ring.factors:
        for _ in range(factor.digits):
            count *= factor.m**2 if pairwise else factor.m
            if count > UNIVERSAL_SCAN_CAP:
                raise ResourceCapError(
                    f"ring {ring.describe()} has more {what} than the cap {UNIVERSAL_SCAN_CAP}"
                )


def _nilpotency_exponents(ring: RingDescriptor):
    """The map a -> minimal k with a^k = 0 (by direct powering) or None, with
    the ring's zero and nilpotency bound computed once, not per element."""
    zero, bound, mul = ring.zero, ring.nilpotency_bound(), ring.mul

    def exponent(a) -> Optional[int]:
        if a == zero:
            return 1
        power = a
        for k in range(2, bound + 1):
            power = mul(power, a)
            if power == zero:
                return k
        return None

    return exponent


def enumerate_idempotents(ring: RingDescriptor) -> list[tuple]:
    """All e with e*e = e, in iteration order."""
    _check_cap(ring)
    return [a for a in ring.elements() if ring.mul(a, a) == a]


def enumerate_nilpotents(ring: RingDescriptor) -> list[tuple[tuple, int]]:
    """All nilpotent elements with their minimal exponents, in iteration order."""
    _check_cap(ring)
    exponent = _nilpotency_exponents(ring)
    return [(a, k) for a in ring.elements() if (k := exponent(a)) is not None]


class _Scan:
    """The enumerations of one ring that the property tests read, each made
    on first use and at most once."""

    def __init__(self, ring: RingDescriptor):
        self.ring = ring
        self._powers: dict = {}

    @functools.cached_property
    def idem(self) -> list:
        return enumerate_idempotents(self.ring)

    @functools.cached_property
    def nil(self) -> list:
        return [a for a, _ in enumerate_nilpotents(self.ring)]

    @functools.cached_property
    def nil_set(self) -> set:
        return set(self.nil)

    @functools.cached_property
    def trip_set(self) -> set:
        ring = self.ring
        return {t for t in ring.elements() if ring.mul(ring.mul(t, t), t) == t}

    def power(self, x, k: int):
        """x^k by square-and-multiply (O(log k) products, so huge k stay
        cheap), remembered per (x, k)."""
        if (x, k) not in self._powers:
            ring, base, out, e = self.ring, x, self.ring.one, k
            while e:
                if e & 1:
                    out = ring.mul(out, base)
                base = ring.mul(base, base)
                e >>= 1
            self._powers[x, k] = out
        return self._powers[x, k]


# ---------------------------------------------------------------------------
# The property table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Property:
    """A ring property that holds at an element when one of the element's
    candidate splits passes the test.  ``splits`` gives them in witness order;
    None makes an identity, whose one candidate is the element itself and
    whose positive reports carry no witness.  ``addends`` gives two lists
    whose sums are the elements that hold, for the early-exit search."""

    name: str
    splits: Optional[Callable]  # (scan, a) -> candidate splits of a
    test: Callable  # (scan, split) -> bool
    addends: Optional[Callable] = None  # scan -> (xs, ys)
    pairwise: bool = False

    def candidates(self, scan: _Scan, a) -> Iterable:
        return (a,) if self.splits is None else self.splits(scan, a)

    def holds_at(self, scan: _Scan, a) -> bool:
        return any(map(self.test, itertools.repeat(scan), self.candidates(scan, a)))


def _first_unreached(ring: RingDescriptor, xs: list, ys: list):
    """First element of the ring, in iteration order, that is not x + y with
    x in xs and y in ys, or None.  Walks the shorter list and looks a - x up
    in a set of the longer one, so each element stops at its first split."""
    if len(xs) > len(ys):
        xs, ys = ys, xs
    negated = [ring.neg(x) for x in xs]
    targets = set(ys)
    for a in ring.elements():
        if not any(ring.add(a, nx) in targets for nx in negated):
            return a
    return None


def _idempotent_pairs(scan: _Scan, a) -> Iterator[tuple]:
    """(e, f, a - e - f) over pairs of idempotents."""
    ring, idem = scan.ring, scan.idem
    return ((e, f, ring.sub(a, ring.add(e, f))) for e in idem for f in idem)


def _idempotent_splits(scan: _Scan, a) -> Iterator[tuple]:
    """(e, a - e) over the idempotents."""
    ring = scan.ring
    return ((e, ring.sub(a, e)) for e in scan.idem)


def _signed_splits(scan: _Scan, a) -> Iterator[tuple]:
    """(e, w, sign) with a = w + sign*e, sign +1 before -1 for each e.  For
    the witness of one this picks the split whose w comes first among the
    nilpotents: 1 - e is idempotent, so the +1 split passes only for e = 1,
    where w = 0 is the first nilpotent."""
    ring = scan.ring
    return ((e, w, sign) for e in scan.idem
            for w, sign in ((ring.sub(a, e), 1), (ring.add(a, e), -1)))


def _sums(scan: _Scan) -> list:
    """The distinct e + f over pairs of idempotents, in first-reached order."""
    ring, idem = scan.ring, scan.idem
    return list(dict.fromkeys(ring.add(e, f) for e in idem for f in idem))


def _pairwise_commuting(ring: RingDescriptor, parts: tuple) -> bool:
    return all(ring.commutes(x, y) for x, y in itertools.combinations(parts, 2))


_TABLE = (
    # every element a sum of two idempotents and a nilpotent
    Property("two-nil-clean", _idempotent_pairs, lambda s, p: p[2] in s.nil_set,
             addends=lambda s: (_sums(s), s.nil)),
    # every element an idempotent plus a nilpotent
    Property("nil-clean", _idempotent_splits, lambda s, p: p[1] in s.nil_set,
             addends=lambda s: (s.idem, s.nil)),
    # every element w + e or w - e with w nilpotent, e idempotent
    Property("weakly-nil-clean", _signed_splits, lambda s, p: p[1] in s.nil_set,
             addends=lambda s: (s.idem + [s.ring.neg(e) for e in s.idem], s.nil)),
    # two idempotents plus a nilpotent, all three commuting pairwise
    Property("strongly-two-nil-clean", _idempotent_pairs,
             lambda s, p: p[2] in s.nil_set and _pairwise_commuting(s.ring, p)),
    # an idempotent plus a commuting tripotent element
    Property("strongly-sit", _idempotent_splits,
             lambda s, p: p[1] in s.trip_set and s.ring.commutes(*p)),
    # a^3 = a
    Property("tripotent", None, lambda s, a: s.ring.mul(s.ring.mul(a, a), a) == a),
    # a^2 idempotent
    Property("two-boolean", None, lambda s, a: s.ring.mul(sq := s.ring.mul(a, a), sq) == sq),
)
PROPERTIES = {prop.name: prop for prop in _TABLE}

_GENERALIZED = re.compile(r"generalized-(\d+)-like")


def _generalized(n: int) -> Property:
    """(ab)^n - a b^n - a^n b + ab = 0 for all a, b."""
    if n < 2:
        raise InputError("generalized-n-like needs n >= 2")

    def test(scan: _Scan, pair) -> bool:
        ring, (a, b) = scan.ring, pair
        ab = ring.mul(a, b)
        return ring.sub(
            ring.sub(scan.power(ab, n), ring.mul(a, scan.power(b, n))),
            ring.sub(ring.mul(scan.power(a, n), b), ab),
        ) == ring.zero

    return Property(f"generalized-{n}-like", None, test, pairwise=True)


def lookup(name: str) -> Property:
    """The table entry of a property name: one of PROPERTIES, or
    generalized-<n>-like for an integer n >= 2."""
    if name in PROPERTIES:
        return PROPERTIES[name]
    mobj = _GENERALIZED.fullmatch(name)
    if mobj is None:
        raise InputError(f"unknown property {name!r}")
    try:
        n = int(mobj.group(1))
    except ValueError:  # int() refuses digit runs over 4,300 digits
        raise InputError(f"integer with {len(mobj.group(1))} digits is too long") from None
    return _generalized(n)


def decide(name: str, ring: RingDescriptor) -> PropertyReport:
    """Decide a property by exhaustion.  The first element (or pair) in
    iteration order with no passing split is the counterexample; otherwise
    the witness is the first passing split of one."""
    prop = lookup(name)
    _check_cap(ring, prop.pairwise)
    scan = _Scan(ring)
    if prop.addends is not None:
        missing = _first_unreached(ring, *prop.addends(scan))
    else:
        domain = itertools.product(ring.elements(), repeat=2) if prop.pairwise else ring.elements()
        missing = next((a for a in domain if not prop.holds_at(scan, a)), None)
    if missing is not None:
        return PropertyReport(prop.name, ring, False, counterexample=missing)
    if prop.splits is None:
        return PropertyReport(prop.name, ring, True)
    one = ring.one
    witness = next(split for split in prop.splits(scan, one) if prop.test(scan, split))
    return PropertyReport(prop.name, ring, True, one, witness)


is_two_nil_clean = functools.partial(decide, "two-nil-clean")
is_nil_clean = functools.partial(decide, "nil-clean")
is_weakly_nil_clean = functools.partial(decide, "weakly-nil-clean")
is_strongly_two_nil_clean = functools.partial(decide, "strongly-two-nil-clean")
is_strongly_sit = functools.partial(decide, "strongly-sit")
is_tripotent = functools.partial(decide, "tripotent")
is_two_boolean = functools.partial(decide, "two-boolean")


def is_generalized_n_like(ring: RingDescriptor, n: int) -> PropertyReport:
    return decide(f"generalized-{n}-like", ring)


def min_nilpotent_index_over_decompositions(ring: RingDescriptor, a) -> Optional[int]:
    """Minimum nilpotency exponent of w over the two-nil-clean candidate
    splits (e, f, w) of a; None if a has no decomposition at all."""
    _check_cap(ring)
    exponent = _nilpotency_exponents(ring)
    return min((k for *_, w in _idempotent_pairs(_Scan(ring), a) if (k := exponent(w)) is not None),
               default=None)
