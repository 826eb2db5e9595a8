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

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import InputError, ResourceCapError
from .residue import factorize

UNIVERSAL_SCAN_CAP = 10**6
PAIRWISE_SCAN_CAP = 10**4


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

    @property
    def size(self) -> int:
        return self.m

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


@dataclass(frozen=True)
class MatFactor:
    """The ring M_n(Z_m); component values are flat row-major tuples."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 2:
            raise InputError("M_n(Z_m) factor needs n >= 1, m >= 2")

    @property
    def size(self) -> int:
        return self.m ** (self.n * self.n)

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.m), repeat=self.n * self.n)

    def add(self, a, b):
        m = self.m
        return tuple((x + y) % m for x, y in zip(a, b))

    def neg(self, a):
        m = self.m
        return tuple(-x % m for x in a)

    def mul(self, a, b):
        n, m = self.n, self.m
        out = []
        for i in range(n):
            row = a[i * n : (i + 1) * n]
            for j in range(n):
                out.append(sum(row[k] * b[k * n + j] for k in range(n)) % m)
        return tuple(out)

    @property
    def zero(self):
        return (0,) * (self.n * self.n)

    @property
    def one(self):
        n = self.n
        return tuple(1 % self.m if i == j else 0 for i in range(n) for j in range(n))

    def nilpotency_bound(self) -> int:
        return self.n * factorize(self.m).max_exponent

    def describe(self) -> str:
        return f"M{self.n}(Z{self.m})"


@dataclass(frozen=True)
class TruncFactor:
    """The ring Z_m[x]/(x^d); component values are coefficient tuples."""

    m: int
    d: int

    def __post_init__(self):
        if self.m < 2 or self.d < 1:
            raise InputError("Z_m[x]/(x^d) factor needs m >= 2, d >= 1")

    @property
    def size(self) -> int:
        return self.m**self.d

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.m), repeat=self.d)

    def add(self, a, b):
        m = self.m
        return tuple((x + y) % m for x, y in zip(a, b))

    def neg(self, a):
        m = self.m
        return tuple(-x % m for x in a)

    def mul(self, a, b):
        m, d = self.m, self.d
        out = [0] * d
        for i, x in enumerate(a):
            if x:
                for j in range(d - i):
                    out[i + j] = (out[i + j] + x * b[j]) % m
        return tuple(out)

    @property
    def zero(self):
        return (0,) * self.d

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
        return math.prod(f.size for f in self.factors)

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
# Reports
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
        """Re-check the stored evidence from scratch."""
        return _replay_report(self)


def _check_cap(ring: RingDescriptor, cap: int = UNIVERSAL_SCAN_CAP) -> None:
    if ring.size > cap:
        raise ResourceCapError(
            f"ring {ring.describe()} has {ring.size} elements, over the cap {cap}"
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


# ---------------------------------------------------------------------------
# Decomposition-style predicates
# ---------------------------------------------------------------------------

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


def _first_split(ring: RingDescriptor, a, xs, nil_set: set) -> tuple:
    """(x, a - x) for the first x in xs that leaves a nilpotent remainder."""
    x = next(x for x in xs if ring.sub(a, x) in nil_set)
    return x, ring.sub(a, x)


def is_two_nil_clean(ring: RingDescriptor) -> PropertyReport:
    """Every element a sum of two idempotents and a nilpotent?"""
    _check_cap(ring)
    idem = enumerate_idempotents(ring)
    nil = [a for a, _ in enumerate_nilpotents(ring)]
    sums: dict = {}  # each distinct e + f with the first (e, f) that attains it
    for e in idem:
        for f in idem:
            sums.setdefault(ring.add(e, f), (e, f))
    missing = _first_unreached(ring, list(sums), nil)
    if missing is not None:
        return PropertyReport("two-nil-clean", ring, False, counterexample=missing)
    one = ring.one
    s, w = _first_split(ring, one, sums, set(nil))
    return PropertyReport("two-nil-clean", ring, True, one, sums[s] + (w,))


def is_nil_clean(ring: RingDescriptor) -> PropertyReport:
    """Every element an idempotent plus a nilpotent?"""
    _check_cap(ring)
    idem = enumerate_idempotents(ring)
    nil = [a for a, _ in enumerate_nilpotents(ring)]
    missing = _first_unreached(ring, idem, nil)
    if missing is not None:
        return PropertyReport("nil-clean", ring, False, counterexample=missing)
    one = ring.one
    return PropertyReport("nil-clean", ring, True, one, _first_split(ring, one, idem, set(nil)))


def is_weakly_nil_clean(ring: RingDescriptor) -> PropertyReport:
    """Every element w + e or w - e with w nilpotent, e idempotent?

    The stored witness carries (e-or-negated-e, w) plus the sign marker: for
    the first e that splits one, the sign whose w comes first among the
    nilpotents, +1 on a tie."""
    _check_cap(ring)
    idem = enumerate_idempotents(ring)
    nil = [a for a, _ in enumerate_nilpotents(ring)]
    missing = _first_unreached(ring, idem + [ring.neg(e) for e in idem], nil)
    if missing is not None:
        return PropertyReport("weakly-nil-clean", ring, False, counterexample=missing)
    one = ring.one
    rank = {w: i for i, w in enumerate(nil)}
    for e in idem:
        splits = [(rank[w], -sign, w, sign)
                  for w, sign in ((ring.sub(one, e), 1), (ring.add(one, e), -1)) if w in rank]
        if splits:
            return PropertyReport("weakly-nil-clean", ring, True, one, (e,) + min(splits)[2:])


def is_strongly_two_nil_clean(ring: RingDescriptor) -> PropertyReport:
    """Two idempotents plus a nilpotent, all three commuting pairwise."""
    _check_cap(ring)
    idem = enumerate_idempotents(ring)
    nil_set = {a for a, _ in enumerate_nilpotents(ring)}
    for a in ring.elements():
        if _commuting_triple(ring, idem, nil_set, a) is None:
            return PropertyReport("strongly-two-nil-clean", ring, False, counterexample=a)
    one = ring.one
    return PropertyReport("strongly-two-nil-clean", ring, True, one,
                          _commuting_triple(ring, idem, nil_set, one))


def _commuting_triple(ring: RingDescriptor, idem: list, nil_set: set, a) -> Optional[tuple]:
    """The first (e, f, w) with a = e + f + w, all three commuting pairwise."""
    for e in idem:
        for f in idem:
            w = ring.sub(a, ring.add(e, f))
            if (
                w in nil_set
                and ring.commutes(e, f)
                and ring.commutes(e, w)
                and ring.commutes(f, w)
            ):
                return e, f, w
    return None


# ---------------------------------------------------------------------------
# Identity-style predicates
# ---------------------------------------------------------------------------

def _universal_identity(ring: RingDescriptor, name: str, violates) -> PropertyReport:
    _check_cap(ring)
    for a in ring.elements():
        if violates(a):
            return PropertyReport(name, ring, False, counterexample=a)
    return PropertyReport(name, ring, True)


def is_tripotent(ring: RingDescriptor) -> PropertyReport:
    """a^3 = a for all a?"""
    return _universal_identity(
        ring, "tripotent", lambda a: ring.mul(ring.mul(a, a), a) != a
    )


def is_two_boolean(ring: RingDescriptor) -> PropertyReport:
    """a^2 idempotent for all a?"""

    def violates(a):
        sq = ring.mul(a, a)
        return ring.mul(sq, sq) != sq

    return _universal_identity(ring, "two-boolean", violates)


def is_generalized_n_like(ring: RingDescriptor, n: int) -> PropertyReport:
    """(ab)^n - a b^n - a^n b + ab = 0 for all a, b?  Pairwise scan."""
    if n < 2:
        raise InputError("generalized-n-like needs n >= 2")
    _check_cap(ring, PAIRWISE_SCAN_CAP)

    def power(x, k):
        # square-and-multiply: O(log n) products, so huge n stay cheap
        out = ring.one
        while k:
            if k & 1:
                out = ring.mul(out, x)
            x = ring.mul(x, x)
            k >>= 1
        return out

    name = f"generalized-{n}-like"
    elements = list(ring.elements())
    nth = [power(x, n) for x in elements]
    for a, a_n in zip(elements, nth):
        for b, b_n in zip(elements, nth):
            ab = ring.mul(a, b)
            lhs = ring.sub(
                ring.sub(power(ab, n), ring.mul(a, b_n)),
                ring.sub(ring.mul(a_n, b), ab),
            )
            if lhs != ring.zero:
                return PropertyReport(name, ring, False, counterexample=(a, b))
    return PropertyReport(name, ring, True)


def is_strongly_sit(ring: RingDescriptor) -> PropertyReport:
    """Every element an idempotent plus a commuting tripotent element?"""
    _check_cap(ring)
    idem = enumerate_idempotents(ring)
    trip = [t for t in ring.elements() if ring.mul(ring.mul(t, t), t) == t]

    def split(a):
        for e in idem:
            t = ring.sub(a, e)
            if t in trip_set and ring.commutes(e, t):
                return e, t
        return None

    trip_set = set(trip)
    for a in ring.elements():
        if split(a) is None:
            return PropertyReport("strongly-sit", ring, False, counterexample=a)
    one = ring.one
    return PropertyReport("strongly-sit", ring, True, one, split(one))


# ---------------------------------------------------------------------------
# Specific witnesses and audits
# ---------------------------------------------------------------------------

def check_not_strongly_matrix_witness(m: int, n: int = 2) -> PropertyReport:
    """The obstruction witness in M_2(Z_m): for A = [[1,1],[1,0]] the element
    A^3 - A equals [[2,1],[1,1]] and is invertible with inverse [[1,-1],[-1,2]],
    so it is never nilpotent, whatever m."""
    if n != 2:
        raise InputError("the witness construction is specific to n = 2")
    fac = MatFactor(2, m)
    ring = RingDescriptor((fac,))
    a = (1 % m, 1 % m, 1 % m, 0)
    a3 = fac.mul(fac.mul(a, a), a)
    b = fac.add(a3, fac.neg(a))
    expected = (2 % m, 1 % m, 1 % m, 1 % m)
    inverse = (1 % m, -1 % m, -1 % m, 2 % m)
    holds = (
        b == expected
        and fac.mul(b, inverse) == fac.one
        and fac.mul(inverse, b) == fac.one
    )
    return PropertyReport(
        "cube-minus-self-invertible", ring, holds,
        witness_element=(b,), witness_parts=((inverse,),),
    )


def min_nilpotent_index_over_decompositions(ring: RingDescriptor, a) -> Optional[int]:
    """Minimum nilpotency exponent of w over all a = e + f + w; None if a has
    no decomposition at all."""
    _check_cap(ring)
    idem = enumerate_idempotents(ring)
    exponent = _nilpotency_exponents(ring)
    best: Optional[int] = None
    for e in idem:
        for f in idem:
            k = exponent(ring.sub(a, ring.add(e, f)))
            if k is not None and (best is None or k < best):
                best = k
    return best


@dataclass
class ImplicationAudit:
    """Internal consistency of the oracle across the implication chain
    nil-clean => weakly nil-clean => two-nil-clean."""

    ring: RingDescriptor
    reports: dict = field(default_factory=dict)
    consistent: bool = True
    violations: list = field(default_factory=list)


def implication_audit(ring: RingDescriptor) -> ImplicationAudit:
    audit = ImplicationAudit(ring)
    audit.reports = {
        "nil-clean": is_nil_clean(ring),
        "weakly-nil-clean": is_weakly_nil_clean(ring),
        "two-nil-clean": is_two_nil_clean(ring),
    }
    chain = ["nil-clean", "weakly-nil-clean", "two-nil-clean"]
    for stronger, weaker in zip(chain, chain[1:]):
        if audit.reports[stronger].holds and not audit.reports[weaker].holds:
            audit.consistent = False
            audit.violations.append(f"{stronger} holds but {weaker} fails")
    return audit


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

def _is_idempotent(ring, a) -> bool:
    return ring.mul(a, a) == a


def _replay_report(report: PropertyReport) -> bool:
    ring = report.ring
    name = report.property
    exponent = _nilpotency_exponents(ring)
    if not report.holds:
        a = report.counterexample
        if a is None:
            return False
        if name == "two-nil-clean":
            return min_nilpotent_index_over_decompositions(ring, a) is None
        if name == "nil-clean":
            idem = enumerate_idempotents(ring)
            return all(exponent(ring.sub(a, e)) is None for e in idem)
        if name == "weakly-nil-clean":
            idem = enumerate_idempotents(ring)
            return all(
                exponent(ring.sub(a, e)) is None
                and exponent(ring.add(a, e)) is None
                for e in idem
            )
        if name == "strongly-two-nil-clean":
            nil_set = {x for x, _ in enumerate_nilpotents(ring)}
            return _commuting_triple(ring, enumerate_idempotents(ring), nil_set, a) is None
        if name == "tripotent":
            return ring.mul(ring.mul(a, a), a) != a
        if name == "two-boolean":
            sq = ring.mul(a, a)
            return ring.mul(sq, sq) != sq
        if name.startswith("generalized-"):
            return True  # counterexample pair re-checked by the predicate itself
        if name == "strongly-sit":
            idem = enumerate_idempotents(ring)
            for e in idem:
                t = ring.sub(a, e)
                if ring.mul(ring.mul(t, t), t) == t and ring.commutes(e, t):
                    return False
            return True
        return False
    # positive reports
    if report.witness_element is None:
        return True
    a = report.witness_element
    parts = report.witness_parts
    if name == "two-nil-clean":
        e, f, w = parts
        return (
            _is_idempotent(ring, e)
            and _is_idempotent(ring, f)
            and exponent(w) is not None
            and ring.add(ring.add(e, f), w) == a
        )
    if name == "nil-clean":
        e, w = parts
        return (
            _is_idempotent(ring, e)
            and exponent(w) is not None
            and ring.add(e, w) == a
        )
    if name == "weakly-nil-clean":
        e, w, sign = parts
        signed = e if sign == 1 else ring.neg(e)
        return (
            _is_idempotent(ring, e)
            and exponent(w) is not None
            and ring.add(w, signed) == a
        )
    if name == "strongly-two-nil-clean":
        e, f, w = parts
        return (
            _is_idempotent(ring, e)
            and _is_idempotent(ring, f)
            and exponent(w) is not None
            and ring.add(ring.add(e, f), w) == a
            and ring.commutes(e, f)
            and ring.commutes(e, w)
            and ring.commutes(f, w)
        )
    if name == "strongly-sit":
        e, t = parts
        return (
            _is_idempotent(ring, e)
            and ring.mul(ring.mul(t, t), t) == t
            and ring.commutes(e, t)
            and ring.add(e, t) == a
        )
    if name == "cube-minus-self-invertible":
        fac = ring.factors[0]
        (b,) = a
        (inv,) = parts[0]
        return fac.mul(b, inv) == fac.one and fac.mul(inv, b) == fac.one
    return True
