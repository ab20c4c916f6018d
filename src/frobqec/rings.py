"""Finite commutative rings carrying an exact additive character.

A ring lives entirely in lookup tables: the carrier is ``range(size)``,
addition and multiplication are dense ``size x size`` index tables, and
the additive character is a vector of exact rationals (turns).  The
tables are stored in ``TABLE_DTYPE``, the smallest unsigned type that
holds every index (uint16, 32 MB per table at the 4096 bound).  numpy
converts such index arrays to intp on every fancy index, on a slow path
when there are two of them, so hot gathers indexed by table values go
through ``lookup`` (one flat intp index).
The constructors verify the ring axioms and the generating property of
the character at build time, so downstream code never re-proves them.

Three families are provided: integers mod m, chain rings Z_m[u]/(u^e)
with the top-coefficient character, and binary products.  Every family
keeps a small ``family`` descriptor that doubles as its JSON document.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError

MAX_RING_SIZE = 4096
TABLE_DTYPE = np.min_scalar_type(MAX_RING_SIZE - 1)

# Pairwise laws are always checked over all |R|^2 combinations.  Up to
# this size the triple laws (associativity, distributivity) are proven
# for all triples by Light's test on additive generators, at |S| |R|^2
# cost; above it, where that cost outgrows the rest of a build, seeded
# random triples are checked instead.
EXHAUSTIVE_TRIPLE_LIMIT = 256
_TRIPLE_SAMPLES = 1000
_TRIPLE_SEED = 20260822
# The chain-ring product fill and the character's additivity check run
# on blocks of at most this many table entries, and the commutativity
# checks on square tiles of this many, so no build or check needs an
# |R|^2 intp temporary or reads a whole table in transposed order.
_CHECK_BLOCK = 1 << 16


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
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

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


def turn_sort_key(t: Turn) -> Fraction:
    return t.fraction


@dataclass(frozen=True, eq=False)
class RingSpec:
    """A finite commutative ring with a generating additive character.

    ``add_table``/``mul_table`` are dense, read-only ``TABLE_DTYPE``
    (uint16) index tables over the carrier ``range(size)``; a gather
    that indexes with their values pays numpy's conversion of the index
    array to intp (``lookup`` keeps that cheap for a 2-D gather).
    ``neg_table`` and ``eps_num`` are int64 vectors.
    ``eps_num[x] / eps_den`` is the turn of the character at x; all
    entries share one denominator so the additivity and generating
    checks vectorise.  Instances are immutable; equality is identity
    (compare tables directly when structural equality is meant).
    """

    size: int
    add_table: np.ndarray
    mul_table: np.ndarray
    neg_table: np.ndarray
    zero: int
    one: int
    eps_num: np.ndarray
    eps_den: int
    family: dict

    def add(self, x: int, y: int) -> int:
        return self.add_table.item(x, y)

    def sub(self, x: int, y: int) -> int:
        return self.add_table.item(x, self.neg_table.item(y))

    def neg(self, x: int) -> int:
        return self.neg_table.item(x)

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


def verify_generating_character(ring: RingSpec) -> bool:
    """True iff x -> character(x * .) is injective on the carrier.

    This is the Frobenius condition: it makes the additive group of the
    ring self-dual through the multiplication pairing.
    """
    eps = ring.eps_num % ring.eps_den
    rows = eps.astype(np.min_scalar_type(ring.eps_den - 1))[ring.mul_table]
    return len({row.tobytes() for row in rows}) == ring.size


# ---------------------------------------------------------------------------
# constructors

def make_zm(m: int) -> RingSpec:
    """Integers mod m with character x -> turn x/m."""
    _check_modulus(m)
    idx = np.arange(m, dtype=np.int64)
    spec = RingSpec(
        size=m,
        add_table=_residue_table(np.add, m),
        mul_table=_residue_table(np.multiply, m),
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

    # Digits add without carry: the table of the low i+1 digits is digit
    # i's table, weighted m^i, plus the table of the low i digits.
    digit_add = _residue_table(np.add, m)
    add = digit_add
    for i in range(1, e):
        add = digit_add[:, None, :, None] * m**i + add[None, :, None, :]
        add = add.reshape(m ** (i + 1), -1)

    # With y = y0 + m*y' as indices, x*y = y0*x + u*(x*y'), and u* shifts
    # the digits up, dropping the top one: z -> z*m mod |R|.  Columns
    # below m are digit-wise multiples; columns [m*lo, m*hi) then come in
    # one gather from ``add`` per digit, out of the columns [lo, hi), up
    # to column low = m^h, h = ceil(e/2).
    low, high = m ** ((e + 1) // 2), m ** (e // 2)
    mul = np.empty((size, size), dtype=TABLE_DTYPE)
    mul[:, :m] = indices_of(coeffs[:, None, :] * np.arange(m)[:, None] % m, m)
    shift = (np.arange(size) * m % size).astype(TABLE_DTYPE)
    lo = 1
    while lo * m < low:
        hi = lo * m
        cols = lookup(add, mul[:, None, :m], shift[mul[:, lo:hi, None]])
        mul[:, hi : hi * m] = cols.reshape(size, -1)
        lo = hi

    # The rest by a half-digit split y = y_lo + m^h y_hi, y_lo < m^h and
    # y_hi < high = m^(e-h): x*y = x*y_lo + u^h (x*y_hi), and u^h* shifts
    # the digits up by h, clearing the low h.  So with P = x*y_lo and
    # Q = x*y_hi from the first m^h columns, and no carry between digits,
    #   x*y = (P mod m^h) + m^h add[P div m^h, Q mod m^(e-h)],
    # read from the m^(e-h) corner of ``add``, which stays in cache; the
    # rows go in blocks, so the intp index stays small.
    corner = (add[:high, :high] * low).ravel()
    rows = max(1, _CHECK_BLOCK // size)
    for start in range(0, size, rows):
        p = mul[start : start + rows, :low].copy()
        at = (p // low * high).astype(np.intp)[:, None, :] + p[:, :high, None] % high
        np.add(corner[at], p[:, None, :] % low,
               out=mul[start : start + rows].reshape(len(p), high, low))

    neg = indices_of((-coeffs) % m, m)
    spec = RingSpec(
        size=size,
        add_table=add,
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
    component characters (turns add)."""
    size = r1.size * r2.size
    if size > MAX_RING_SIZE:
        raise ResourceLimitError(f"product ring size {size} exceeds {MAX_RING_SIZE}")
    s2 = r2.size
    idx = np.arange(size, dtype=np.int64)
    ia, ib = idx // s2, idx % s2

    def combine(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        return t1[ia[:, None], ia[None, :]] * s2 + t2[ib[:, None], ib[None, :]]

    den = math.lcm(r1.eps_den, r2.eps_den)
    eps = (
        r1.eps_num[ia] * (den // r1.eps_den) + r2.eps_num[ib] * (den // r2.eps_den)
    ) % den
    spec = RingSpec(
        size=size,
        add_table=combine(r1.add_table, r2.add_table),
        mul_table=combine(r1.mul_table, r2.mul_table),
        neg_table=r1.neg_table[ia] * s2 + r2.neg_table[ib],
        zero=r1.zero * s2 + r2.zero,
        one=r1.one * s2 + r2.one,
        eps_num=eps,
        eps_den=den,
        family={"family": "product", "factors": [r1.family, r2.family]},
    )
    _validate_ring(spec)
    return spec


def _residue_table(op, m: int) -> np.ndarray:
    """(x op y) mod m on range(m), built in uint32 (4095^2 < 2^32) and
    reduced in place before the cast to the table type."""
    idx = np.arange(m, dtype=np.uint32)
    table = op.outer(idx, idx)
    table %= m
    return table.astype(TABLE_DTYPE)


def _check_modulus(m: int) -> None:
    if not isinstance(m, int) or m < 2:
        raise InvalidInputError(f"modulus must be an integer >= 2, got {m!r}")
    if m > MAX_RING_SIZE:
        raise ResourceLimitError(f"modulus {m} exceeds {MAX_RING_SIZE}")


def _validate_ring(spec: RingSpec) -> None:
    """Exhaustive construction-time verification.  Failures raise
    ConsistencyError: they mean the builder is wrong, not the caller.

    Up to ``EXHAUSTIVE_TRIPLE_LIMIT`` elements the triple laws are proven
    on additive generators (Light's test; Clifford and Preston, The
    Algebraic Theory of Semigroups I, AMS 1961).  The z with (x+y)+z =
    x+(y+z) for all x, y hold zero and are closed under +; given that,
    so are the z with x(y+z) = xy+xz, and given both, the z with (xy)z =
    x(yz).  So a law that holds for z in a set S generating (R, +) holds
    for every triple.
    """
    n = spec.size
    idx = np.arange(n)
    a, m_ = spec.add_table, spec.mul_table
    for table in (a, m_):
        if table.shape != (n, n) or table.min() < 0 or table.max() >= n:
            raise ConsistencyError("table shape or range is off")
    if not _is_symmetric(a):
        raise ConsistencyError("addition is not commutative")
    if not np.array_equal(a[spec.zero], idx):
        raise ConsistencyError("zero is not an additive identity")
    if not np.array_equal(a[idx, spec.neg_table], np.full(n, spec.zero)):
        raise ConsistencyError("negation table is wrong")
    if not _is_symmetric(m_):
        raise ConsistencyError("multiplication is not commutative")
    if not np.array_equal(m_[spec.one], idx):
        raise ConsistencyError("one is not a multiplicative identity")
    eps = spec.eps_num % spec.eps_den
    if not np.array_equal(eps, spec.eps_num):
        raise ConsistencyError("character numerators are not reduced mod the denominator")
    # eps(x+y) - eps(x) - eps(y) is in (-2 den, den): 0 mod den iff 0 or -den.
    narrow = eps.astype(np.min_scalar_type(-2 * spec.eps_den))
    rows = max(1, _CHECK_BLOCK // n)
    for start in range(0, n, rows):
        block = narrow[a[start : start + rows]] - narrow[start : start + rows, None] - narrow
        if ((block != 0) & (block != -spec.eps_den)).any():
            raise ConsistencyError("character is not additive")
    if not verify_generating_character(spec):
        raise ConsistencyError("character is not generating")

    if n <= EXHAUSTIVE_TRIPLE_LIMIT:
        # Axes [x, y, s]; each law is checked over all of S before the next.
        gens = _additive_generators(spec)
        a_s, m_s = a[:, gens], m_[:, gens]
        if not np.array_equal(a_s[a], a[:, a_s]):
            raise ConsistencyError("addition is not associative")
        if not np.array_equal(m_s[m_], m_[:, m_s]):
            raise ConsistencyError("multiplication is not associative")
        if not np.array_equal(m_[:, a_s], lookup(a, m_[:, :, None], m_s[:, None, :])):
            raise ConsistencyError("multiplication does not distribute")
    else:
        rng = np.random.default_rng(_TRIPLE_SEED)
        x, y, z = rng.integers(0, n, size=(3, _TRIPLE_SAMPLES))
        if not np.array_equal(a[a[x, y], z], a[x, a[y, z]]):
            raise ConsistencyError("addition is not associative")
        if not np.array_equal(m_[m_[x, y], z], m_[x, m_[y, z]]):
            raise ConsistencyError("multiplication is not associative")
        if not np.array_equal(m_[x, a[y, z]], a[m_[x, y], m_[x, z]]):
            raise ConsistencyError("multiplication does not distribute")

    for table in (spec.add_table, spec.mul_table, spec.neg_table, spec.eps_num):
        table.setflags(write=False)


def _is_symmetric(table: np.ndarray) -> bool:
    """``table == table.T``, tile by tile against the mirror tile: a
    tile's transposed read stays in cache where a whole table's does not."""
    side = math.isqrt(_CHECK_BLOCK)
    starts = range(0, len(table), side)
    return all(
        np.array_equal(table[i : i + side, j : j + side], table[j : j + side, i : i + side].T)
        for i in starts for j in starts if j >= i
    )


def _additive_generators(spec: RingSpec) -> list[int]:
    """A set S that generates (R, +), read from the add table alone.

    The least element not yet reached joins S, and the reached set grows
    from zero by x -> x + s for every s in S.  Reached elements are
    left-nested sums ((0 + s1) + s2) + ..., so the closure does not rely
    on associativity; it does rely on 0 + s = s, checked before the
    call.  |S| is 1 for Z_m and e for chain(m, e).
    """
    reached = {spec.zero}
    gens: list[int] = []
    columns: list[list[int]] = []  # columns[i][x] = x + gens[i]
    while len(reached) < spec.size:
        gens.append(next(x for x in range(spec.size) if x not in reached))
        columns.append(spec.add_table[:, gens[-1]].tolist())
        stack = list(reached)
        while stack:
            x = stack.pop()
            for column in columns:
                if column[x] not in reached:
                    reached.add(column[x])
                    stack.append(column[x])
    return gens


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
    disjoint cosets M + j*y, 0 < j < d for the least d with d*y in M."""
    base = ring.size
    powers = base ** np.arange(width, dtype=np.int64)
    group = np.array([ring.zero * int(powers.sum())]) if start is None else start
    coords = digits(group, base, width)
    items = np.asarray(items, dtype=np.int64).reshape(-1)
    pending = np.flatnonzero(~_contains(group, items))
    grew: list[int] = []
    while pending.size:
        grew.append(int(pending[0]))
        multiples = [digits(items[pending[0]], base, width)[0]]
        while multiples[-1] @ powers not in group:
            multiples.append(ring.add_table[multiples[-1], multiples[0]])
        cosets = ring.add_table[coords, np.array(multiples[:-1])[:, None, :]]
        coords = np.concatenate([coords, cosets.reshape(-1, width)])
        group = np.sort(coords @ powers)
        pending = pending[~_contains(group, items[pending])]
    return group, grew


def _contains(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    return group.take(group.searchsorted(values), mode="clip") == values


@dataclass(frozen=True, eq=False)
class Ideal:
    """An ideal given by its full, sorted element list."""

    ring: RingSpec
    elements: tuple[int, ...]

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)


def ideal_span(ring: RingSpec, generators) -> Ideal:
    """Smallest ideal containing the generators: the additive span of
    all ring multiples of them."""
    elems, _ = index_span(ring, 1, ring.mul_table[:, list(generators)].T)
    ideal = Ideal(ring, tuple(elems.tolist()))
    _check_ideal(ideal)
    return ideal


def nilradical(ring: RingSpec) -> Ideal:
    """The ideal of nilpotent elements."""
    ideal = Ideal(ring, tuple(np.flatnonzero(_nilpotent(ring, np.arange(ring.size))).tolist()))
    _check_ideal(ideal)
    return ideal


def _nilpotent(ring: RingSpec, elems: np.ndarray) -> np.ndarray:
    """Which of the elements are nilpotent: x is iff x^(2^t) = 0 once 2^t
    reaches the ring size, so a few rounds of table squaring settle all
    of them at once."""
    p = elems
    for _ in range(max(1, (ring.size - 1).bit_length())):
        p = ring.mul_table[p, p]
    return p == ring.zero


def _require_nil(ideal: Ideal) -> None:
    elems = np.asarray(ideal.elements, dtype=np.int64)
    bad = elems[~_nilpotent(ideal.ring, elems)]
    if bad.size:
        name = ideal.ring.element_str(int(bad[0]))
        raise InvalidInputError(f"ideal element {name} is not nilpotent")


def nilpotency_index(ideal: Ideal) -> int:
    """Least h >= 1 with ideal^h = {0}.  Input must be nil."""
    _require_nil(ideal)
    ring = ideal.ring
    elems = np.asarray(ideal.elements, dtype=np.int64)
    power = np.union1d(elems, [ring.zero])
    h = 1
    while power.size > 1:
        power, _ = index_span(ring, 1, ring.mul_table[np.ix_(power, elems)])
        h += 1
        if h > ring.size + 1:
            raise ConsistencyError("nilpotency index failed to terminate")
    return h


def _check_ideal(ideal: Ideal) -> None:
    ring = ideal.ring
    elems = np.asarray(ideal.elements, dtype=np.int64)
    inside = np.zeros(ring.size, dtype=bool)
    inside[elems] = True
    if not inside[ring.zero]:
        raise ConsistencyError("ideal is missing zero")
    if not inside[ring.add_table[np.ix_(elems, elems)]].all():
        raise ConsistencyError("ideal is not additively closed")
    if not inside[ring.mul_table[:, elems]].all():
        raise ConsistencyError("ideal is not closed under ring multiples")


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
