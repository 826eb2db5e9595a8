"""Brute-force oracle for ring properties of small finite rings.

Everything here decides properties by exhaustive enumeration, with its own
tiny arithmetic, independent of the constructive decomposition modules:
agreement between the two paths is evidence, not circularity.  Rings are
finite products of Z_m, M_n(Z_m) and Z_m[x]/(x^d) factors, each a value
shape and a table of runs for its product (Factor).  An element is its index
in mixed-radix order over the factors' digits, last digit fastest, so
witnesses are deterministic; reports decode it to a tuple with one value (a
residue or a flat tuple) per factor.  The arithmetic works on numpy batches
stored digit-major, shape (D, ...) for D digits per element, so each numpy
loop runs over a whole batch rather than over one element's few digits;
every search meets its candidates about BATCH rows at a time, stopping at the
first batch that settles it.  The sum properties (two-nil-clean, nil-clean,
weakly-nil-clean) search nothing: they build one bool per element, the sumset
of their addend sets, by a pair loop on small sumsets and by a convolution
over the digits' group Z_m1 x ... x Z_mD on large ones.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import InputError, InternalCheckError, ResourceCapError
from .residue import factorize

UNIVERSAL_SCAN_CAP = 10**6
WORK_BUDGET = 2**24  # candidates a search may meet, estimated before it builds them
BATCH = 2**14  # candidate rows per batch
PAIRS_PER_ELEMENT = 8  # a sumset step meets pairs up to this many times |R|, then convolves


# ---------------------------------------------------------------------------
# Ring factors
# ---------------------------------------------------------------------------

class Factor:
    """A factor ring over Z_m.  A value is shape[0] * ... digits mod m: a
    residue for shape (), coefficients for (d,), a flat row-major matrix for
    (n, n).  The product is a table of runs (i, j, k, n, add): each writes
    x[i] times y[j:j+n] into out[k:k+n], or adds it there when add is set.
    Each output digit is written before any run adds to it and sums at most
    shape[0] terms, or one for a residue."""

    def __post_init__(self):
        if self.m < 2 or self.shape and min(self.shape) < 1:
            raise InputError("a ring factor needs m >= 2, n >= 1 and d >= 1")
        object.__setattr__(self, "digits", math.prod(self.shape))  # read on every index and cap check

    def mul(self, x, y, out):
        """Write into out the unreduced products of digit-major batches."""
        for i, j, k, n, add in self.runs:
            dst = out[k:k + n]
            if add:
                dst += x[i] * y[j:j + n]
            else:
                np.multiply(x[i], y[j:j + n], out=dst)


@dataclass(frozen=True)
class ZmFactor(Factor):
    """The ring Z_m; a value is a canonical residue."""

    m: int

    shape = ()
    runs = ((0, 0, 0, 1, False),)

    @property
    def one(self):
        return 1 % self.m

    def nilpotency_bound(self) -> int:
        return max(e for _, e in factorize(self.m))

    def describe(self) -> str:
        return f"Z{self.m}"


@dataclass(frozen=True)
class MatFactor(Factor):
    """The ring M_n(Z_m); a value is a flat row-major tuple."""

    n: int
    m: int

    shape = property(lambda self: (self.n, self.n))

    @functools.cached_property
    def runs(self) -> tuple:  # row i of x y sums x[i, l] times row l of y over l
        n = self.n
        return tuple((i + l, l * n, i, n, l > 0) for i in range(0, n * n, n) for l in range(n))

    @property
    def one(self):
        n = self.n
        return tuple(1 % self.m if i == j else 0 for i in range(n) for j in range(n))

    def nilpotency_bound(self) -> int:
        return self.n * max(e for _, e in factorize(self.m))

    def describe(self) -> str:
        return f"M{self.n}(Z{self.m})"


@dataclass(frozen=True)
class TruncFactor(Factor):
    """The ring Z_m[x]/(x^d); a value is a coefficient tuple."""

    m: int
    d: int

    shape = property(lambda self: (self.d,))

    @functools.cached_property
    def runs(self) -> tuple:  # coefficient i of x times the first d - i of y, into the last d - i
        return tuple((i, 0, i, self.d - i, i > 0) for i in range(self.d))

    @property
    def one(self):
        return (1 % self.m,) + (0,) * (self.d - 1)

    def nilpotency_bound(self) -> int:
        return max(e for _, e in factorize(self.m)) + self.d - 1

    def describe(self) -> str:
        return f"Z{self.m}[x]/(x^{self.d})"


@dataclass(frozen=True)
class RingDescriptor:
    """A finite product of supported factors, with arithmetic on digit-major
    arrays of reduced digits, shape (D,), (D, k) or (D, p, k) under numpy
    broadcasting: sums and differences digitwise mod m, products per factor
    (each factor's table of runs)."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise InputError("ring descriptor needs at least one factor")

    @functools.cached_property
    def size(self) -> int:
        return math.prod(f.m**f.digits for f in self.factors)

    @functools.cached_property
    def period(self) -> int:
        """The least p >= 1 with x^(size + p) = x^size for every element x, so
        that x^n = x^(size + (n - size) mod p) for n >= size.  Two of x, ...,
        x^(size + 1) are equal, so the powers of x cycle from x^size on; p is
        the lcm of the cycles' lengths, each found by multiplying x^size by x
        until it comes back, in at most size batched products."""
        x = self.digits(np.arange(self.size))
        start = power = _power(self, x, self.size)
        step, length = 0, np.zeros(self.size, np.int64)
        while not length.all():
            power, step = self.mul(power, x), step + 1
            length[(length == 0) & (power == start).all(axis=0)] = step
        return math.lcm(*length.tolist())

    @functools.cached_property
    def _layout(self):
        """Each digit's modulus, shaped to broadcast over digit arrays of rank
        1, 2 and 3, in the narrowest unsigned dtype holding every unreduced
        product and every sum of two digits; the moduli as ints; and the rows
        of each factor with its product, adjacent residues in one np.multiply."""
        _check_cap(self)
        dtype = np.min_scalar_type(max(max((f.shape or (1,))[0] * (f.m - 1) ** 2, 2 * f.m)
                                       for f in self.factors))
        moduli = [f.m for f in self.factors for _ in range(f.digits)]
        radix, blocks, start = np.array(moduli, dtype), [], 0
        for f in self.factors:
            rows, mul = slice(start, start + f.digits), f.mul if f.shape else np.multiply
            if mul is np.multiply and blocks and blocks[-1][1] is np.multiply:
                rows = slice(blocks.pop()[0].start, rows.stop)
            blocks.append((rows, mul))
            start = rows.stop
        return tuple(radix.reshape((-1,) + (1,) * r) for r in range(3)), moduli, blocks

    def digits(self, indices) -> np.ndarray:
        radix, moduli, _ = self._layout
        q = np.asarray(indices, np.int64)
        out = np.empty((len(moduli),) + q.shape, radix[0].dtype)
        for j in range(len(moduli) - 1, 0, -1):
            q, out[j] = np.divmod(q, moduli[j])
        out[0] = q
        return out

    def indices(self, digits) -> np.ndarray:
        out = np.array(digits[0], np.int64)
        for j, m in enumerate(self._layout[1][1:], 1):
            out *= m
            np.add(out, digits[j], out=out, casting="unsafe")  # uint64 digits are below 2^63
        return out

    # Digits are unsigned and reduced.  Of s = x + y and s - m (of d = x - y and
    # d + m) one lies in [0, m) and the other is at least m or has wrapped past
    # every digit, so the minimum of the two is the sum (the difference) mod m.

    def add(self, x, y):
        out = np.add(x, y)
        return np.minimum(out, out - self._layout[0][out.ndim - 1], out=out)

    def sub(self, x, y):
        out = np.subtract(x, y)
        return np.minimum(out, out + self._layout[0][out.ndim - 1], out=out)

    def mul(self, x, y):
        radix, _, blocks = self._layout
        out = np.empty(np.broadcast(x, y).shape, radix[0].dtype)
        for rows, mul in blocks:
            mul(x[rows], y[rows], out[rows])
        out %= radix[out.ndim - 1]
        return out

    def element(self, index: int) -> tuple:
        """The element tuple at an index."""
        digits, out = self.digits(index).tolist(), []
        for f in self.factors:
            part, digits = digits[:f.digits], digits[f.digits:]
            out.append(tuple(part) if f.shape else part[0])
        return tuple(out)

    def index(self, element) -> Optional[int]:
        """The index of a canonical element tuple (Python ints in range, a
        flat tuple for each matrix or polynomial factor), else None."""
        flat = [d for part in element for d in (part if type(part) is tuple else (part,))] \
            if type(element) is tuple else []
        radix = self._layout[1]
        if len(flat) != len(radix) or any(type(d) is not int or not 0 <= d < m for d, m in zip(flat, radix)):
            return None
        index = int(self.indices(np.array(flat)))
        return index if self.element(index) == element else None

    @property
    def one(self) -> tuple:
        return tuple(f.one for f in self.factors)

    def nilpotency_bound(self) -> int:
        return max(f.nilpotency_bound() for f in self.factors)

    def describe(self) -> str:
        return "x".join(f.describe() for f in self.factors)


_FACTOR_PATTERNS = (
    (re.compile(r"M([0-9]+)\(Z([0-9]+)\)"), lambda g: MatFactor(int(g[0]), int(g[1]))),
    (re.compile(r"Z([0-9]+)\[x\]/\(x\^([0-9]+)\)"), lambda g: TruncFactor(int(g[0]), int(g[1]))),
    (re.compile(r"Z([0-9]+)"), lambda g: ZmFactor(int(g[0]))),
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
        witness element.  A positive report of an identity carries no
        evidence and replays True; any other report replays False unless its
        property is known, its search within the size cap and the work
        budget, and its evidence made of canonical elements."""
        ring, scan = self.ring, _Scan(self.ring)
        try:
            prop = lookup(self.property)
            _check_cap(ring, prop.pairwise)
            prop.check_work(scan)
        except (InputError, ResourceCapError):
            return False
        if not self.holds:  # an element, or a pair (a, b) of elements at index a|R| + b
            parts = self.counterexample if prop.pairwise else (self.counterexample,)
            q = [ring.index(x) for x in parts] if type(parts) is tuple else []
            return len(q) == 1 + prop.pairwise and None not in q and _walk(
                [np.array([functools.reduce(lambda i, j: i * ring.size + j, q)])],
                prop.count(scan), functools.partial(prop.meets, scan)) is not None
        if prop.splits is None:
            return True
        a, given = ring.index(self.witness_element), self.witness_parts
        return a is not None and type(given) is tuple and all(
            type(x) is int if type(x) is not tuple else ring.index(x) is not None for x in given
        ) and given in _passing_splits(scan, prop, a)


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


def _blocks(count: int, first: int = BATCH) -> Iterator[np.ndarray]:
    """range(count) in consecutive arrays ending at first, 2*first, 4*first, ...
    up to BATCH, then at each multiple of BATCH, which ``first`` divides."""
    start, stop = 0, first
    while start < count:
        yield np.arange(start, min(count, stop))
        start, stop = stop, stop + min(BATCH, stop)


def _exponents(ring: RingDescriptor, x) -> np.ndarray:
    """For each element of the digit array x, the minimal k with x^k = 0: one
    more than its nonzero powers up to the nilpotency bound; 0 if all are nonzero."""
    nonzero, power, bound = np.zeros(x.shape[1:], np.int64), x, ring.nilpotency_bound()
    for k in range(bound):
        nonzero += power.any(axis=0)
        power = ring.mul(power, x) if k + 1 < bound else power
    return np.where(nonzero < bound, nonzero + 1, 0)


def _select(ring: RingDescriptor, holds: Callable) -> np.ndarray:
    """The indices, in iteration order, of the elements whose digits x have holds(x)."""
    _check_cap(ring)
    return np.concatenate([q[holds(ring.digits(q))] for q in _blocks(ring.size)])


def enumerate_idempotents(ring: RingDescriptor) -> np.ndarray:
    """The indices of all e with e*e = e, in iteration order."""
    return _select(ring, lambda x: (ring.mul(x, x) == x).all(axis=0))


def _power(ring: RingDescriptor, x, k: int):
    """x^k for k >= 1, over the bits of k from the highest: a square for
    each bit after it, then a product by x for each set one."""
    out = x
    for bit in bin(k)[3:]:
        out = ring.mul(out, out)
        if bit == "1":
            out = ring.mul(out, x)
    return out


def enumerate_nilpotents(ring: RingDescriptor) -> np.ndarray:
    """The indices of all nilpotent elements, in iteration order: the x with
    x^(2^j) = 0 for the first 2^j at or over the nilpotency bound."""
    j = (ring.nilpotency_bound() - 1).bit_length()
    return _select(ring, lambda x: ~_power(ring, x, 1 << j).any(axis=0))


def _tripotent(ring: RingDescriptor, t) -> np.ndarray:
    return (_power(ring, t, 3) == t).all(axis=0)


def _commutes(ring: RingDescriptor, x, y) -> np.ndarray:
    return (ring.mul(x, y) == ring.mul(y, x)).all(axis=0)


@dataclass
class _Scan:
    """The enumerations of one ring that the property tests read, each made
    on first use and at most once."""

    ring: RingDescriptor

    @functools.cached_property
    def idem(self) -> np.ndarray:
        return self.ring.digits(enumerate_idempotents(self.ring))

    @functools.cached_property
    def nil(self) -> np.ndarray:
        return self.ring.digits(enumerate_nilpotents(self.ring))

    @functools.cached_property
    def commuting(self) -> np.ndarray:
        """The numbers i|I| + j of the pairs of idempotents I[i], I[j] that commute."""
        e, n = self.idem, self.idem.shape[1]
        return np.concatenate([k[_commutes(self.ring, e[:, k // n], e[:, k % n])] for k in _blocks(n * n)])

    @functools.cached_property
    def nilpotent(self) -> Callable:
        """Which of the elements with digits x are nilpotent, by lookup in a mask."""
        mask = _mask(self.ring, self.nil)
        return lambda x: mask[self.ring.indices(x)]


# ---------------------------------------------------------------------------
# The property table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Property:
    """A ring property that holds at an element when one of the element's
    candidate splits passes the test.  ``splits(scan, a, k)`` gives splits
    number k (in witness order, ``count`` in all) of elements with digits a
    of shape (D, p, 1), as digit arrays broadcasting to (D, p, len(k)) and an
    int array for a sign.  None makes an identity: its one candidate is the
    element (or pair) itself, and positive reports carry no witness."""

    name: str
    splits: Optional[Callable]  # (scan, a, k) -> parts
    test: Callable  # (scan, parts) -> bool array
    count: Callable = lambda scan: 1
    addends: Optional[Callable] = None  # scan -> digit arrays: the elements that hold are their sums
    pairwise: bool = False
    work: Callable = lambda scan: 0  # an estimate of the candidates, from sizes known before the search

    def check_work(self, scan: _Scan) -> None:
        """Refuse a search whose estimated candidates are over WORK_BUDGET
        before it builds them: the size cap alone lets Z2^14 (16,384
        elements) pair its 16,384 idempotents 268 million ways."""
        work = self.work(scan)
        if work > WORK_BUDGET:
            raise ResourceCapError(f"{self.name} on {scan.ring.describe()} would meet about "
                                   f"{work:,} candidates, over the work budget {WORK_BUDGET:,}")

    def meets(self, scan: _Scan, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Whether candidate k passes at domain index q, shape (len(q), len(k))."""
        ring = scan.ring
        if self.splits is not None:
            return self.test(scan, self.splits(scan, ring.digits(q)[:, :, None], k))
        domain = np.divmod(q, ring.size) if self.pairwise else (q,)
        return self.test(scan, tuple(ring.digits(x)[:, :, None] for x in domain))


def _walk(chunks: Iterable[np.ndarray], count: int, meets: Callable) -> Optional[int]:
    """The first index, over chunks in iteration order, that meets none of
    the ``count`` candidates, or None.  Pending indices meet the candidates
    about BATCH rows at a time and leave at the first they meet."""
    for pending in chunks:
        start = 0
        while pending.size and start < count:
            k = np.arange(start, min(count, start + max(1, BATCH // pending.size)))
            pending, start = pending[~meets(pending, k).any(axis=1)], int(k[-1]) + 1
        if pending.size:
            return int(pending[0])
    return None


def _mask(ring: RingDescriptor, x: np.ndarray) -> np.ndarray:
    """One bool per element index: whether the element is among the digit array x."""
    out = np.zeros(ring.size, bool)
    out[ring.indices(x)] = True
    return out


def _sums(ring: RingDescriptor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The mask of the x + y over the digit arrays x and y, pair by pair."""
    reached, n = np.zeros(ring.size, bool), y.shape[1]
    for k in _blocks(x.shape[1] * n):
        reached[ring.indices(ring.add(x[:, k // n], y[:, k % n]))] = True
    return reached


def _convolve(ring: RingDescriptor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The mask of the x + y, from the support of the convolution of the masks
    of x and y over the digits' group Z_m1 x ... x Z_mD: digits are in index
    order, so a mask reshaped to the moduli is a function on that group.

    The exact count at an index is how many pairs sum to it, an integer at
    most |R|, so a count is read as positive when it rounds to 1 or more.
    For masks with |x| and |y| ones the transform's error in any count is at
    most about 12 log2(|R|) eps (|x| |y|)^(1/2), with eps = 2^-53 (Percival,
    Math. Comp. 72, 2003, for a radix-2 transform): under 3e-8 for every
    ring under UNIVERSAL_SCAN_CAP.  numpy's mixed-radix transform is outside
    that proof, so each count is checked to lie within 1/4 of an integer."""
    moduli = ring._layout[1]
    axes = tuple(range(len(moduli)))
    spectrum = np.fft.rfftn(_mask(ring, x).reshape(moduli), axes=axes) \
        * np.fft.rfftn(_mask(ring, y).reshape(moduli), axes=axes)
    counts = np.fft.irfftn(spectrum, s=moduli, axes=axes).ravel()
    error = np.abs(counts - np.rint(counts)).max()
    if not error < 0.25:
        raise InternalCheckError(f"sumset convolution counts lie within 1/4 of an integer "
                                 f"(one is off by {error:.3g}) on {ring.describe()}")
    return counts > 0.5


def _sumset(ring: RingDescriptor, addends: tuple) -> np.ndarray:
    """One bool per element index: whether the element is a sum of one
    element of each digit array of addends.  The arrays are added smallest
    first; each step meets the pairs of the sums so far and the next array
    while they are at most PAIRS_PER_ELEMENT times |R|, and convolves
    otherwise."""
    x, *rest = sorted(addends, key=lambda a: a.shape[1])
    for i, y in enumerate(rest):
        if i:
            x = ring.digits(np.flatnonzero(reached))
        step = _sums if x.shape[1] * y.shape[1] <= PAIRS_PER_ELEMENT * ring.size else _convolve
        reached = step(ring, x, y)
    return reached


def _idempotent_pairs(scan: _Scan, a, k) -> tuple:
    """(e, f, a - e - f) for split k = i|I| + j, e = I[i] and f = I[j]."""
    n = scan.idem.shape[1]
    e, f = scan.idem[:, None, k // n], scan.idem[:, None, k % n]
    return e, f, scan.ring.sub(a, scan.ring.add(e, f))


def _idempotent_splits(scan: _Scan, a, k) -> tuple:
    """(e, a - e) for split k, e = I[k]."""
    e = scan.idem[:, None, k]
    return e, scan.ring.sub(a, e)


def _commuting_nilpotent(scan: _Scan, parts) -> np.ndarray:
    """Whether w is nilpotent and commutes with e and f, for parts (e, f, w):
    the products run only on the candidates whose w is nilpotent."""
    e, f, w = np.broadcast_arrays(*parts)
    out = scan.nilpotent(w)
    e, f, w = e[:, out], f[:, out], w[:, out]
    out[out] = _commutes(scan.ring, e, w) & _commutes(scan.ring, f, w)
    return out


def _signed_splits(scan: _Scan, a, k) -> tuple:
    """(e, w, sign) with a = w + sign*e, e = I[k // 2], sign +1 before -1.
    For the witness of one this picks the split whose w comes first among the
    nilpotents: 1 - e is idempotent, so the +1 split passes only for e = 1,
    where w = 0 is the first nilpotent."""
    e, sign = scan.idem[:, None, k // 2], 1 - 2 * (k % 2)
    return e, scan.ring.sub(a, np.where(sign > 0, e, scan.ring.sub(0, e))), sign


_TABLE = (
    # every element a sum of two idempotents and a nilpotent: I + I + N
    Property("two-nil-clean", _idempotent_pairs, lambda s, p: s.nilpotent(p[2]),
             lambda s: s.idem.shape[1] ** 2, addends=lambda s: (s.idem, s.idem, s.nil)),
    # every element an idempotent plus a nilpotent
    Property("nil-clean", _idempotent_splits, lambda s, p: s.nilpotent(p[1]), lambda s: s.idem.shape[1],
             addends=lambda s: (s.idem, s.nil)),
    # every element w + e or w - e with w nilpotent, e idempotent
    Property("weakly-nil-clean", _signed_splits, lambda s, p: s.nilpotent(p[1]),
             lambda s: 2 * s.idem.shape[1],
             addends=lambda s: (np.concatenate([s.idem, s.ring.sub(0, s.idem)], axis=1), s.nil)),
    # two idempotents plus a nilpotent, all three commuting pairwise: the
    # splits of commuting e, f whose w commutes with both, found among all |I|^2 pairs
    Property("strongly-two-nil-clean", lambda s, a, k: _idempotent_pairs(s, a, s.commuting[k]),
             _commuting_nilpotent, lambda s: len(s.commuting), work=lambda s: s.idem.shape[1] ** 2),
    # an idempotent plus a commuting tripotent element: up to |R||I| splits
    Property("strongly-sit", _idempotent_splits,
             lambda s, p: _tripotent(s.ring, p[1]) & _commutes(s.ring, *p), lambda s: s.idem.shape[1],
             work=lambda s: s.ring.size * s.idem.shape[1]),
    # a^3 = a
    Property("tripotent", None, lambda s, p: _tripotent(s.ring, p[0])),
    # a^2 idempotent
    Property("two-boolean", None,
             lambda s, p: (s.ring.mul(sq := s.ring.mul(p[0], p[0]), sq) == sq).all(axis=0)),
)
PROPERTIES = {prop.name: prop for prop in _TABLE}

_GENERALIZED = re.compile(r"generalized-([0-9]+)-like")


def _generalized(n: int) -> Property:
    """(ab)^n - a b^n - a^n b + ab = 0 for all a, b."""
    if n < 2:
        raise InputError("generalized-n-like needs n >= 2")

    def test(scan: _Scan, pair) -> np.ndarray:
        ring, (a, b) = scan.ring, pair
        k = n if n <= ring.size else ring.size + (n - ring.size) % ring.period  # x^k = x^n
        ab = ring.mul(a, b)
        return ~ring.sub(ring.sub(_power(ring, ab, k), ring.mul(a, _power(ring, b, k))),
                         ring.sub(ring.mul(_power(ring, a, k), b), ab)).any(axis=0)

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


def _passing_splits(scan: _Scan, prop: Property, a: int) -> Iterator[tuple]:
    """The passing candidate splits of the element at index a, in witness
    order, as a report holds them: element tuples, and an int for a sign."""
    ring, digits = scan.ring, scan.ring.digits([a])[:, :, None]
    for k in _blocks(prop.count(scan), 64):
        parts = prop.splits(scan, digits, k)
        for h in np.flatnonzero(prop.test(scan, parts)):
            yield tuple(ring.element(int(ring.indices(p[:, 0, h]))) if p.ndim > 1 else int(p[h])
                        for p in parts)


def decide(name: str, ring: RingDescriptor) -> PropertyReport:
    """Decide a property by exhaustion.  The first element (or pair) in
    iteration order with no passing split is the counterexample; otherwise
    the witness is the first passing split of one."""
    prop = lookup(name)
    _check_cap(ring, prop.pairwise)
    scan = _Scan(ring)
    prop.check_work(scan)
    if prop.addends is not None:  # the lowest element outside the sumset
        reached = _sumset(ring, prop.addends(scan))
        missing = None if reached.all() else int(reached.argmin())
    else:
        missing = _walk(_blocks(ring.size**2 if prop.pairwise else ring.size, 64), prop.count(scan),
                        functools.partial(prop.meets, scan))
    if missing is not None:
        counterexample = tuple(map(ring.element, divmod(missing, ring.size))) if prop.pairwise \
            else ring.element(missing)
        return PropertyReport(prop.name, ring, False, counterexample=counterexample)
    if prop.splits is None:
        return PropertyReport(prop.name, ring, True)
    return PropertyReport(prop.name, ring, True, ring.one,
                          next(_passing_splits(scan, prop, ring.index(ring.one))))


def min_nilpotent_index_over_decompositions(ring: RingDescriptor, a) -> Optional[int]:
    """Minimum nilpotency exponent of w over the two-nil-clean candidate
    splits (e, f, w) of the element a; None if a has no decomposition at all.
    The scan stops at the first block that reaches 1, the least index."""
    _check_cap(ring)
    index = ring.index(a)
    if index is None:
        raise InputError(f"{a!r} is not an element of {ring.describe()}")
    scan, a = _Scan(ring), ring.digits([index])[:, :, None]
    least = None
    for j in _blocks(scan.idem.shape[1] ** 2):
        k = _exponents(ring, _idempotent_pairs(scan, a, j)[2])
        if k.any():
            low = int(k[k > 0].min())
            least = low if least is None else min(least, low)
            if least == 1:
                break
    return least
