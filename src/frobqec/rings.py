"""Finite commutative rings carrying an exact additive character.

A ring lives in lookup data over the carrier ``range(size)``.  Every
family's index is mixed radix, digit 0 fastest, with digits that add
without carry, so (R, +) is the direct sum of the cyclic groups Z_r over
the ``radices`` r.  Addition is one gather from a small sumset vector:
x + y = sums[place[x] + place[y]], where ``place`` spreads digit i over
2 r_i - 1 slots, so two digits add with no carry into the next, and
``sums`` reduces each slot mod r_i (at most 3^12 entries, for
chain(2, 12)).  Multiplication is a dense ``size x size`` index table,
and the additive character is a vector of exact rationals (turns).
Tables are stored in ``TABLE_DTYPE``, the smallest unsigned type that
holds every index (uint16, 32 MB for the multiplication table at the
4096 bound).  numpy converts such index arrays to intp on every fancy
index, on a slow path when there are two of them, and when there is
one it is about 2.5 times slower than casting the index to intp a block
at a time first.  So hot gathers indexed by table values go through
``lookup`` (one flat intp index) when 2-D, and through ``take`` of a
block cast to intp when 1-D.
The constructors verify the ring axioms and the generating property of
the character at build time, so downstream code never re-proves them.
The sumset vector is checked against its digit definition entry by
entry, which proves every law of addition; the multiplication table is
checked in one walk over pairs of mirror tiles, which range-checks both
tiles and compares them.  Above 256 elements no build or check holds an
|R|^2 temporary beside the multiplication table.

Three families are provided: integers mod m, chain rings Z_m[u]/(u^e)
with the top-coefficient character, and binary products.  Every family
keeps a small ``family`` descriptor that doubles as its JSON document.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError

MAX_RING_SIZE = 4096
TABLE_DTYPE = np.min_scalar_type(MAX_RING_SIZE - 1)

# Pairwise laws are always checked over all |R|^2 combinations, and the
# laws of addition follow from the sumset check.  Up to this size the
# multiplicative triple laws (associativity, distributivity) are proven
# for all triples by Light's test on additive generators, at |S| |R|^2
# cost; above it, where that cost outgrows the rest of a build, seeded
# random triples are checked instead.
EXHAUSTIVE_TRIPLE_LIMIT = 256
_TRIPLE_SAMPLES = 1000
_TRIPLE_SEED = 20260822
# Table builds that go by rows take blocks of at most this many entries,
# so no build needs an |R|^2 temporary.
_CHECK_BLOCK = 1 << 16
# The checks walk each table in square tiles of this side, paired with
# their mirror tiles, so no check reads a whole table in transposed order.
_TILE = 128


@dataclass(frozen=True)
class Turn:
    """A rational number modulo 1, standing for the phase exp(2 pi i t).

    Instances normalise themselves into [0, 1) with a reduced fraction,
    so equality and hashing are structural.
    """

    numerator: int = 0
    denominator: int = 1

    def __post_init__(self) -> None:
        den = abs(self.denominator)
        # A zero denominator raises ZeroDivisionError here, which parse reports.
        num = (self.numerator if self.denominator > 0 else -self.numerator) % den
        g = math.gcd(num, den)
        object.__setattr__(self, "numerator", num // g)
        object.__setattr__(self, "denominator", den // g)

    @classmethod
    def parse(cls, text: str) -> Turn:
        """Parse the serialised form ``"num/den"`` (a bare integer is
        accepted and means a whole number of turns)."""
        if not isinstance(text, str):
            raise InvalidInputError(f"turn must be a string, got {text!r}")
        num, slash, den = text.partition("/")
        try:
            if slash:
                return cls(int(num), int(den))
            return cls(int(num), 1)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad turn literal {text!r}") from exc

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    def __add__(self, other: Turn) -> Turn:
        return Turn(self.numerator * other.denominator + other.numerator * self.denominator,
                    self.denominator * other.denominator)

    def __sub__(self, other: Turn) -> Turn:
        return Turn(self.numerator * other.denominator - other.numerator * self.denominator,
                    self.denominator * other.denominator)

    def __neg__(self) -> Turn:
        return Turn(-self.numerator, self.denominator)

    def __mul__(self, count: int) -> Turn:
        return Turn(self.numerator * count, self.denominator)

    __rmul__ = __mul__

    def root(self, count: int) -> Turn:
        """The count-th root t/count of the representative t in [0, 1);
        any other choice differs by a multiple of 1/count."""
        if count < 1:
            raise InvalidInputError("root count must be positive")
        return Turn(self.numerator, self.denominator * count)

    def as_complex(self) -> complex:
        return cmath.exp(2j * math.pi * self.numerator / self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


TURN_ZERO = Turn(0, 1)


@dataclass(frozen=True, eq=False)
class RingSpec:
    """A finite commutative ring with a generating additive character.

    ``radices`` are the digit radices r_i of the carrier's index, digit 0
    fastest; W_i = r_0 ... r_(i-1) (``weights``) is the element with
    digit i one and the others zero.  ``place`` is the intp vector
    place[x] = sum d_i(x) (2 r_0 - 1) ... (2 r_(i-1) - 1), and ``sums``
    the ``TABLE_DTYPE`` vector over the prod (2 r_i - 1) positions with
    sums[p] = sum (p_i mod r_i) W_i, p_i the digits of p in the radices
    2 r_i - 1: then x + y = sums[place[x] + place[y]] (``add_many``).
    ``mul_table`` is a dense, read-only ``TABLE_DTYPE`` (uint16) index
    table over the carrier ``range(size)``; a gather that indexes with
    its values pays numpy's conversion of the index array to intp
    (``lookup`` keeps that cheap for a 2-D gather).  ``neg_table`` and
    ``eps_num`` are int64 vectors.  ``eps_num[x] / eps_den`` is the turn
    of the character at x; all entries share one denominator so the
    additivity and generating checks vectorise.  Instances are
    immutable; equality is identity (compare tables directly when
    structural equality is meant).
    """

    size: int
    radices: tuple[int, ...]
    place: np.ndarray
    sums: np.ndarray
    mul_table: np.ndarray
    neg_table: np.ndarray
    zero: int
    one: int
    eps_num: np.ndarray
    eps_den: int
    family: dict

    def add(self, x: int, y: int) -> int:
        return self.sums.item(self.place.item(x) + self.place.item(y))

    def add_many(self, x, y) -> np.ndarray:
        """x + y for broadcasting index arrays, as ``TABLE_DTYPE`` indices."""
        return self.sums.take(self.place.take(x) + self.place.take(y))

    def weights(self) -> np.ndarray:
        return np.cumprod((1,) + self.radices[:-1])

    def mul(self, x: int, y: int) -> int:
        return self.mul_table.item(x, y)

    def epsilon(self, x: int) -> Turn:
        return Turn(self.eps_num.item(x), self.eps_den)

    def elements(self) -> range:
        return range(self.size)

    def element_to_doc(self, x: int):
        return element_to_doc(self.family, x)

    def element_from_doc(self, doc) -> int:
        return element_from_doc(self.family, doc)

    def element_str(self, x: int) -> str:
        return repr(self.element_to_doc(x))


def ring_pairing(ring: RingSpec, x: int, y: int) -> Turn:
    """The symmetric pairing (x, y) -> character(x * y)."""
    return ring.epsilon(ring.mul(x, y))


def verify_generating_character(ring: RingSpec, probes=None) -> bool:
    """True iff x -> character(x * .) is injective on the carrier.

    This is the Frobenius condition: it makes the additive group of the
    ring self-dual through the multiplication pairing.

    The rows character(x * .) are told apart column by column: the
    elements are split into classes by their values on the columns
    y seen so far, one column at a time, and the answer is True as soon
    as every class holds one element.  Rows that differ on some columns
    differ as rows, so True is exact, and False comes only after every
    column: the test assumes no ring law.  The columns of ``probes``
    (default: the additive generators S = {W_i} of ``RingSpec.weights``)
    go first.  Every y is a sum of elements of S, so in a distributive
    ring with an additive character, character(x * .) is fixed by its
    values on S, and a generating character separates the rows within
    |S| columns.
    """
    eps = ring.eps_num % ring.eps_den
    if probes is None:
        probes = ring.weights()
    # An element's class code is the first position of its key among the
    # sorted keys, so codes stay below |R| and keys below |R| eps_den.
    codes = np.zeros(ring.size, dtype=np.intp)
    for y in itertools.chain(probes, range(ring.size)):
        keys = codes * ring.eps_den + eps[ring.mul_table[:, y]]
        ordered = np.sort(keys)
        if (ordered[1:] != ordered[:-1]).all():
            return True
        codes = ordered.searchsorted(keys)
    return False


# ---------------------------------------------------------------------------
# constructors

def make_zm(m: int) -> RingSpec:
    """Integers mod m with character x -> turn x/m."""
    _check_modulus(m)
    idx = np.arange(m, dtype=np.int64)
    place, sums = _sumset((m,))
    spec = RingSpec(
        size=m,
        radices=(m,),
        place=place,
        sums=sums,
        mul_table=_residue_table(m),
        neg_table=(-idx) % m,
        zero=0,
        one=1,
        eps_num=idx.copy(),
        eps_den=m,
        family={"family": "zm", "m": m},
    )
    _validate_ring(spec)
    return spec


def make_chain_ring(m: int, e: int) -> RingSpec:
    """Z_m[u]/(u^e) with the top-coefficient character.

    An element sum(a_i u^i) is encoded as the index sum(a_i m^i); its
    character turn is a_{e-1}/m.  The generating property of that choice
    is not assumed: it is verified exhaustively and construction fails
    if it does not hold.
    """
    _check_modulus(m)
    if not isinstance(e, int) or e < 1:
        raise InvalidInputError(f"chain length must be a positive integer, got {e!r}")
    # m >= 2, so a long chain is refused before m**e is formed.
    if e >= MAX_RING_SIZE.bit_length() or m**e > MAX_RING_SIZE:
        raise ResourceLimitError(f"chain ring size {m}^{e} exceeds {MAX_RING_SIZE}")
    size = m**e
    coeffs = digits(np.arange(size), m, e)
    # The coefficients are the index digits, which add without carry.
    place, sums = _sumset((m,) * e)

    # With y = y0 + m*y' as indices, x*y = y0*x + u*(x*y'), and u* shifts
    # the digits up, dropping the top one: z -> z*m mod |R|.  Columns
    # below m are digit-wise multiples; columns [m*lo, m*hi) then come in
    # one sumset gather per digit, out of the columns [lo, hi), up to
    # column low = m^h, h = ceil(e/2).
    low, high = m ** ((e + 1) // 2), m ** (e // 2)
    mul = np.empty((size, size), dtype=TABLE_DTYPE)
    mul[:, :m] = indices_of(coeffs[:, None, :] * np.arange(m)[:, None] % m, m)
    shifted = place.take(np.arange(size) * m % size)  # place[u z]
    lo = 1
    while lo * m < low:
        hi = lo * m
        cols = sums.take(place.take(mul[:, None, :m])
                         + shifted.take(mul[:, lo:hi, None].astype(np.intp)))
        mul[:, hi : hi * m] = cols.reshape(size, -1)
        lo = hi

    # The rest by a half-digit split y = y_lo + m^h y_hi, y_lo < m^h and
    # y_hi < high = m^(e-h): x*y = x*y_lo + u^h (x*y_hi), and u^h* shifts
    # the digits up by h, clearing the low h.  So with P = x*y_lo and
    # Q = x*y_hi from the first m^h columns, and no carry between digits,
    #   x*y = (P mod m^h) + m^h ((P div m^h) + (Q mod m^(e-h))),
    # read from the m^(e-h) square of sums of the low elements, which
    # stays in cache; the rows go in blocks, so the intp index stays small.
    low_place = place[:high]
    corner = (sums.take(low_place[:, None] + low_place) * low).ravel()
    rows = max(1, _CHECK_BLOCK // size)
    for start in range(0, size, rows):
        p = mul[start : start + rows, :low].copy()
        at = (p // low * high).astype(np.intp)[:, None, :] + p[:, :high, None] % high
        np.add(corner[at], p[:, None, :] % low,
               out=mul[start : start + rows].reshape(len(p), high, low))

    neg = indices_of((-coeffs) % m, m)
    spec = RingSpec(
        size=size,
        radices=(m,) * e,
        place=place,
        sums=sums,
        mul_table=mul,
        neg_table=neg,
        zero=0,
        one=1,
        eps_num=coeffs[:, e - 1].copy(),
        eps_den=m,
        family={"family": "chain", "m": m, "e": e},
    )
    _validate_ring(spec)
    return spec


def make_product(r1: RingSpec, r2: RingSpec) -> RingSpec:
    """Componentwise product ring; the character is the sum of the
    component characters (turns add).  The index (a, b) -> a |R_2| + b
    puts R_2's digits below R_1's."""
    size = r1.size * r2.size
    if size > MAX_RING_SIZE:
        raise ResourceLimitError(f"product ring size {size} exceeds {MAX_RING_SIZE}")
    s2 = r2.size
    idx = np.arange(size, dtype=np.int64)
    ia, ib = idx // s2, idx % s2

    # mul[(a, b), (c, d)] = t1[a, c] s2 + t2[b, d], on the axes [a, b, c, d].
    mul = np.empty((size, size), dtype=TABLE_DTYPE)
    view = mul.reshape(r1.size, s2, r1.size, s2)
    np.multiply(r1.mul_table[:, None, :, None], s2, out=view)
    view += r2.mul_table[None, :, None, :]

    den = math.lcm(r1.eps_den, r2.eps_den)
    eps = (
        r1.eps_num[ia] * (den // r1.eps_den) + r2.eps_num[ib] * (den // r2.eps_den)
    ) % den
    radices = r2.radices + r1.radices
    place, sums = _sumset(radices)
    spec = RingSpec(
        size=size,
        radices=radices,
        place=place,
        sums=sums,
        mul_table=mul,
        neg_table=r1.neg_table[ia] * s2 + r2.neg_table[ib],
        zero=r1.zero * s2 + r2.zero,
        one=r1.one * s2 + r2.one,
        eps_num=eps,
        eps_den=den,
        family={"family": "product", "factors": [r1.family, r2.family]},
    )
    _validate_ring(spec)
    return spec


def _sumset(radices: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The ``place`` and ``sums`` vectors of the carrier with these digit
    radices (as ``RingSpec`` defines them), built one digit at a time, the
    new digit the slowest."""
    place = np.zeros(1, dtype=np.intp)
    sums = np.zeros(1, dtype=TABLE_DTYPE)
    weight, slots = 1, 1
    for r in radices:
        place = (np.arange(r, dtype=np.intp)[:, None] * slots + place).ravel()
        sums = ((np.arange(2 * r - 1) % r * weight).astype(TABLE_DTYPE)[:, None] + sums).ravel()
        weight, slots = weight * r, slots * (2 * r - 1)
    return place, sums


def _residue_table(m: int) -> np.ndarray:
    """x y mod m on range(m), written into the table a block of rows at a
    time.  The first block is reduced from uint32 (4095^2 < 2^32) by
    x - (x // m) m, since numpy divides by a scalar several times faster
    than it takes ``%``.  Each later block is the one before it plus a
    row offset: (x + r) y = xy + ry, for r rows.  Both terms are below m,
    so the sum is written in the table's own dtype and takes one
    conditional subtract of m: s - m wraps above s unless s >= m."""
    idx = np.arange(m, dtype=np.uint32)
    table = np.empty((m, m), dtype=TABLE_DTYPE)
    rows = max(1, _CHECK_BLOCK // m)
    first = np.multiply.outer(idx[:rows], idx)
    table[:rows] = first - first // m * m
    step = (idx * rows % m).astype(TABLE_DTYPE)
    for start in range(rows, m, rows):
        block = table[start : start + rows]
        np.add(table[start - rows : start - rows + len(block)], step, out=block)
        np.minimum(block, block - m, out=block)
    return table


def _check_modulus(m: int) -> None:
    if not isinstance(m, int) or m < 2:
        raise InvalidInputError(f"modulus must be an integer >= 2, got {m!r}")
    if m > MAX_RING_SIZE:
        raise ResourceLimitError(f"modulus {m} exceeds {MAX_RING_SIZE}")


def _validate_ring(spec: RingSpec) -> None:
    """Exhaustive construction-time verification.  Failures raise
    ConsistencyError: they mean the builder is wrong, not the caller.
    The first law that fails, in the order of the checks below, is the
    one reported.

    Addition is read from its data.  Once the radices multiply to |R|
    and ``place`` and ``sums`` equal their digit definitions entry by
    entry, x + y adds the digits of x and y each mod its radix: (R, +)
    is the direct sum of the Z_(r_i), so addition is commutative and
    associative with inverses, for every pair and every triple.  Zero
    and the negation table are then checked in one pass each, and the
    character is additive iff it is the sum of d_i(x) eps(W_i) with
    r_i eps(W_i) = 0: a homomorphism of a direct sum of cyclic groups is
    fixed by its values on the generators W_i, whose orders are the r_i.

    The multiplication table is read in one walk over its tile pairs
    (i <= j): the upper tile is compared with a contiguous copy of its
    mirror, and both are range-checked before anything is gathered
    through them.

    Up to ``EXHAUSTIVE_TRIPLE_LIMIT`` elements the multiplicative triple
    laws are proven on the additive generators S = {W_i} (Light's test;
    Clifford and Preston, The Algebraic Theory of Semigroups I, AMS
    1961).  Addition being associative, the z with x(y+z) = xy+xz for
    all x, y are closed under +, and given that, so are the z with
    (xy)z = x(yz).  So a law that holds for z in S holds for every
    triple.
    """
    n = spec.size
    idx = np.arange(n)
    m_, neg = spec.mul_table, spec.neg_table
    if math.prod(spec.radices) != n:
        raise ConsistencyError("radices do not multiply to the ring size")
    place, sums = _sumset(spec.radices)
    # An unsigned table holds no negative entry; the walk checks the top.
    # Nothing is gathered through a table before its shape and range hold.
    if (m_.shape != (n, n) or m_.dtype != TABLE_DTYPE
            or spec.place.shape != place.shape or spec.place.dtype != np.intp
            or spec.sums.shape != sums.shape or spec.sums.dtype != TABLE_DTYPE
            or neg.shape != (n,) or spec.eps_num.shape != (n,)
            or neg.min() < 0 or neg.max() >= n):
        raise ConsistencyError("table shape or range is off")
    if not np.array_equal(spec.place, place):
        raise ConsistencyError("place vector is wrong")
    if not np.array_equal(spec.sums, sums):
        raise ConsistencyError("sumset vector is wrong")
    mul_symmetric = _walk_tiles(m_)
    if not np.array_equal(spec.add_many(spec.zero, idx), idx):
        raise ConsistencyError("zero is not an additive identity")
    if not np.array_equal(spec.add_many(idx, neg), np.full(n, spec.zero)):
        raise ConsistencyError("negation table is wrong")
    if not mul_symmetric:
        raise ConsistencyError("multiplication is not commutative")
    if not np.array_equal(m_[spec.one], idx):
        raise ConsistencyError("one is not a multiplicative identity")
    eps = spec.eps_num % spec.eps_den
    if not np.array_equal(eps, spec.eps_num):
        raise ConsistencyError("character numerators are not reduced mod the denominator")
    gens = spec.weights()
    radices = np.array(spec.radices)
    on_gens = eps[gens]
    if ((radices * on_gens) % spec.eps_den).any() or not np.array_equal(
            idx[:, None] // gens % radices @ on_gens % spec.eps_den, eps):
        raise ConsistencyError("character is not additive")
    if not verify_generating_character(spec, gens):
        raise ConsistencyError("character is not generating")

    if n <= EXHAUSTIVE_TRIPLE_LIMIT:
        # Axes [x, y, s]; each law is checked over all of S before the next.
        a_s, m_s = spec.add_many(idx[:, None], gens), m_[:, gens]
        if not np.array_equal(m_s[m_], m_[:, m_s]):
            raise ConsistencyError("multiplication is not associative")
        if not np.array_equal(m_[:, a_s], spec.add_many(m_[:, :, None], m_s[:, None, :])):
            raise ConsistencyError("multiplication does not distribute")
    else:
        x, y, z = _sampled_triples(n)
        if not np.array_equal(m_[m_[x, y], z], m_[x, m_[y, z]]):
            raise ConsistencyError("multiplication is not associative")
        if not np.array_equal(m_[x, spec.add_many(y, z)], spec.add_many(m_[x, y], m_[x, z])):
            raise ConsistencyError("multiplication does not distribute")

    for table in (spec.place, spec.sums, spec.mul_table, spec.neg_table, spec.eps_num):
        table.setflags(write=False)


def _walk_tiles(table: np.ndarray) -> bool:
    """Whether the table is symmetric, from one walk over its tile pairs
    (i <= j) as ``_validate_ring`` describes; once it is not, only the
    range is checked.  An entry out of range raises at once."""
    n = len(table)
    symmetric = True
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper = table[i : i + _TILE, j : j + _TILE]
            mirror = table[j : j + _TILE, i : i + _TILE].T.copy()
            same = symmetric and np.array_equal(upper, mirror)
            if upper.max() >= n or (not same and mirror.max() >= n):
                raise ConsistencyError("table shape or range is off")
            symmetric = same
    return symmetric


def _sampled_triples(n: int) -> np.ndarray:
    """The seeded triples (x, y, z), as rows x, y and z, on which the
    triple laws of a ring of n elements are checked past
    ``EXHAUSTIVE_TRIPLE_LIMIT``: stdlib random bytes read as uint32
    words, each reduced mod n."""
    words = random.Random(_TRIPLE_SEED).randbytes(12 * _TRIPLE_SAMPLES)
    return (np.frombuffer(words, "<u4") % n).astype(np.intp).reshape(3, _TRIPLE_SAMPLES)


# ---------------------------------------------------------------------------
# index spans and ideals

def digits(indices, base: int, width: int) -> np.ndarray:
    """Coordinate rows of mixed-radix indices, digit 0 fastest."""
    powers = base ** np.arange(width, dtype=np.int64)
    return (np.asarray(indices, dtype=np.int64).reshape(-1, 1) // powers) % base


def indices_of(rows, base: int) -> np.ndarray:
    """Inverse of ``digits``: the index of each coordinate row."""
    rows = np.asarray(rows, dtype=np.int64)
    return rows @ base ** np.arange(rows.shape[-1], dtype=np.int64)


def lookup(table: np.ndarray, x, y) -> np.ndarray:
    """``table[x, y]`` for broadcasting index arrays, gathered through one
    flat intp index: numpy takes a slow path on a 2-D gather whose index
    arrays are not intp, such as the values of another table."""
    return table.ravel()[np.add(np.multiply(x, len(table), dtype=np.intp), y)]


def index_span(ring: RingSpec, width: int, items, start=None) -> tuple[np.ndarray, list[int]]:
    """Subgroup of (R^width, +) generated by the subgroup ``start`` and
    ``items`` (sorted indices as in ``digits``), and the positions of the
    items that grew it.  An item y outside the group M so far adds the
    disjoint cosets M + j*y, 0 < j < d for the least d with d*y in M.
    The multiples come in one array step: the digits of j*y are those of
    y times j, each mod its radix, and L*y = 0 for L the lcm of the
    radices, so d <= L."""
    base = ring.size
    powers = base ** np.arange(width, dtype=np.int64)
    group = np.array([ring.zero * int(powers.sum())]) if start is None else start
    coords = digits(group, base, width)
    items = np.asarray(items, dtype=np.int64).reshape(-1)
    pending = np.flatnonzero(~_contains(group, items))
    grew: list[int] = []
    weights, radices = ring.weights(), np.array(ring.radices)
    steps = np.arange(1, math.lcm(*ring.radices) + 1)[:, None, None]
    while pending.size:
        grew.append(int(pending[0]))
        y = digits(items[pending[0]], base, width).reshape(width, 1)
        multiples = steps * (y // weights % radices) % radices @ weights
        d = 1 + int(_contains(group, multiples @ powers).argmax())
        cosets = ring.add_many(coords, multiples[: d - 1, None, :])
        coords = np.concatenate([coords, cosets.reshape(-1, width)])
        group = np.sort(coords @ powers)
        pending = pending[~_contains(group, items[pending])]
    return group, grew


def _contains(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    return group.take(group.searchsorted(values), mode="clip") == values


class Ideal:
    """An ideal of ``ring``, held as ``indices``, the sorted read-only
    int64 array of its distinct elements; ``elements`` is a tuple view
    for reports.  ``spanning`` holds the elements that grow the additive
    span as ``index_span`` walks ``indices``, at most log2 |I| of them:
    they generate (I, +) and, I being closed under scalars, I over R.
    Every ideal routine reads them.  Building an ideal checks that it is
    one (``_check_ideal``)."""

    def __init__(self, ring: RingSpec, indices):
        self.ring = ring
        self.indices = np.unique(np.asarray(indices, dtype=np.int64))
        self.indices.setflags(write=False)
        self.spanning = _check_ideal(ring, self.indices)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self.indices.tolist())

    def __contains__(self, x: int) -> bool:
        return bool(_contains(self.indices, np.array([x]))[0])

    def __len__(self) -> int:
        return int(self.indices.size)


def ideal_span(ring: RingSpec, generators) -> Ideal:
    """Smallest ideal containing the generators: the additive span of
    all ring multiples of them."""
    elems, _ = index_span(ring, 1, ring.mul_table[:, list(generators)].T)
    return Ideal(ring, elems)


def nilradical(ring: RingSpec) -> Ideal:
    """The ideal of nilpotent elements."""
    return Ideal(ring, np.flatnonzero(_nilpotent(ring, np.arange(ring.size))))


def _nilpotent(ring: RingSpec, elems: np.ndarray) -> np.ndarray:
    """Which of the elements are nilpotent: x is iff x^(2^t) = 0 once 2^t
    reaches the ring size, so a few rounds of table squaring settle all
    of them at once."""
    p = elems
    for _ in range(max(1, (ring.size - 1).bit_length())):
        p = lookup(ring.mul_table, p, p)
    return p == ring.zero


def _require_nil(ideal: Ideal) -> None:
    bad = ideal.indices[~_nilpotent(ideal.ring, ideal.indices)]
    if bad.size:
        name = ideal.ring.element_str(int(bad[0]))
        raise InvalidInputError(f"ideal element {name} is not nilpotent")


def nilpotency_index(ideal: Ideal) -> int:
    """Least h >= 1 with ideal^h = {0}.  Input must be nil.

    Products are biadditive, so the products of a set generating
    (I^h, +) with ``spanning`` generate (I^(h+1), +); the ones that grow
    that span generate it in turn, and none do once it is {0}."""
    _require_nil(ideal)
    ring, spanning = ideal.ring, ideal.spanning
    gens = spanning
    h = 1
    while gens.size:
        products = ring.mul_table[np.ix_(gens, spanning)].ravel()
        gens = products[index_span(ring, 1, products)[1]]
        h += 1
        if h > ring.size + 1:
            raise ConsistencyError("nilpotency index failed to terminate")
    return h


def _check_ideal(ring: RingSpec, elems: np.ndarray) -> np.ndarray:
    """The read-only ``spanning`` set of the sorted distinct ``elems``,
    once they are shown to form an ideal: they equal the additive span
    of that set, and hold r g for every r and each g in it.  Then they
    hold every r (c_1 g_1 + ... + c_t g_t) = c_1 r g_1 + ... + c_t r g_t."""
    if not (elems == ring.zero).any():
        raise ConsistencyError("ideal is missing zero")
    group, grew = index_span(ring, 1, elems)
    if not np.array_equal(group, elems):
        raise ConsistencyError("ideal is not additively closed")
    spanning = elems[grew]
    if not _contains(elems, ring.mul_table[:, spanning].ravel()).all():
        raise ConsistencyError("ideal is not closed under ring multiples")
    spanning.setflags(write=False)
    return spanning


# ---------------------------------------------------------------------------
# element documents

def family_size(family: dict) -> int:
    kind = family.get("family")
    if kind == "zm":
        return family["m"]
    if kind == "chain":
        return family["m"] ** family["e"]
    if kind == "product":
        left, right = family["factors"]
        return family_size(left) * family_size(right)
    raise InvalidInputError(f"unknown ring family {kind!r}")


def element_to_doc(family: dict, x: int):
    kind = family["family"]
    if kind == "zm":
        return int(x)
    if kind == "chain":
        m, e = family["m"], family["e"]
        return [int(x) // m**i % m for i in range(e)]
    if kind == "product":
        left, right = family["factors"]
        s2 = family_size(right)
        return [element_to_doc(left, x // s2), element_to_doc(right, x % s2)]
    raise InvalidInputError(f"unknown ring family {kind!r}")


def element_from_doc(family: dict, doc) -> int:
    kind = family["family"]
    if kind == "zm":
        if not isinstance(doc, int) or isinstance(doc, bool):
            raise InvalidInputError(f"expected an integer element, got {doc!r}")
        return doc % family["m"]
    if kind == "chain":
        m, e = family["m"], family["e"]
        if not isinstance(doc, list) or len(doc) != e:
            raise InvalidInputError(f"expected {e} coefficients, got {doc!r}")
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in doc):
            raise InvalidInputError(f"coefficients must be integers, got {doc!r}")
        return sum(c % m * m**i for i, c in enumerate(doc))
    if kind == "product":
        left, right = family["factors"]
        if not isinstance(doc, list) or len(doc) != 2:
            raise InvalidInputError(f"expected a two component element, got {doc!r}")
        return element_from_doc(left, doc[0]) * family_size(right) + element_from_doc(
            right, doc[1]
        )
    raise InvalidInputError(f"unknown ring family {kind!r}")
