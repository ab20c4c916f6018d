"""Finite commutative rings carrying an exact additive character.

A ring lives in index tables over the carrier ``range(size)``, all of it
derived from three things: the digit ``radices``, the k x k
``structure`` constants and the character.  Every family's index is
mixed radix, digit 0 fastest, with digits that add without carry, so
(R, +) is the direct sum of the cyclic groups Z_r over the radices r,
generated by the digit weights W_i.  Addition is one gather from a small
sumset vector: x + y = sums[place[x] + place[y]], where ``place``
spreads digit i over 2 r_i - 1 slots, so two digits add with no carry
into the next, and ``sums`` reduces each slot mod r_i (at most 3^12
entries, for chain(2, 12)).  Multiplication is biadditive, so it is
fixed by the structure constants S[i][j] = W_i W_j (k <= 12).  Each
index y splits into a low part lo(y) and a high part hi(y) that add
without carry, and x y = x lo(y) + x hi(y) reads two half tables of
about sqrt(|R|) columns each (``RingSpec.mul_many``): 4 MiB of intp at
the 4096 bound.  The additive character is a vector of exact rationals
(turns).

The constructors verify the ring axioms and the generating property of
the character at build time, so downstream code never re-proves them.
The sumset vector, the split and the half tables are checked against
their definitions entry by entry, and the laws of the product on the
structure constants alone; biadditivity then carries every law to every
pair and every triple, at every size.  No build or check holds an |R|^2
temporary.

Three families are provided: integers mod m, chain rings Z_m[u]/(u^e)
with the top-coefficient character, and binary products.  Each supplies
only its radices, structure constants, one and character.  Every family
keeps a small ``family`` descriptor that doubles as its JSON document,
and one layout of its element documents (``_element_layout``), which
every reader and writer of them walks.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError

MAX_RING_SIZE = 4096
TABLE_DTYPE = np.min_scalar_type(MAX_RING_SIZE - 1)


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
    digit i one and the others zero.  ``structure`` is the k x k intp
    matrix of the products S[i][j] = W_i W_j, as element indices.
    ``place`` is the intp vector place[x] = sum d_i(x) (2 r_0 - 1) ...
    (2 r_(i-1) - 1), and ``sums`` the ``TABLE_DTYPE`` vector over the
    prod (2 r_i - 1) positions with sums[p] = sum (p_i mod r_i) W_i, p_i
    the digits of p in the radices 2 r_i - 1: then x + y =
    sums[place[x] + place[y]] (``add_many``).

    The split of ``_split`` cuts the digits at digit t, and digit t at
    c: y = lo + h with lo the digits below t and d_t mod c, h the
    multiple c (d_t div c) of W_t and the digits above t, which add
    without carry.  ``lo_of[y]`` is lo as an index below n_lo, and
    ``hi_of[y]`` numbers h below n_hi.  The intp half tables hold the
    places of products: ``mul_lo[x, a]`` = place[x a] for a < n_lo, and
    ``mul_hi[x, b]`` = place[x h_b] for the b-th high part h_b, so x y =
    sums[mul_lo[x, lo_of[y]] + mul_hi[x, hi_of[y]]] (``mul_many``).
    ``neg_table`` and ``eps_num`` are int64 vectors.
    ``eps_num[x] / eps_den`` is the turn of the character at x; all
    entries share one denominator so the additivity and generating
    checks vectorise.  Instances are immutable; equality is identity
    (compare tables directly when structural equality is meant).
    """

    size: int
    radices: tuple[int, ...]
    structure: np.ndarray
    place: np.ndarray
    sums: np.ndarray
    lo_of: np.ndarray
    hi_of: np.ndarray
    mul_lo: np.ndarray
    mul_hi: np.ndarray
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
        return self.sums.item(self.mul_lo.item(x, self.lo_of.item(y))
                              + self.mul_hi.item(x, self.hi_of.item(y)))

    def mul_many(self, x, y) -> np.ndarray:
        """x y for broadcasting index arrays, as ``TABLE_DTYPE`` indices,
        from 1-D gathers only: the places of x lo(y) and x hi(y) read from
        the flat half tables, added through the sumset."""
        x = np.asarray(x, dtype=np.intp)
        places = self.mul_lo.take(x * self.mul_lo.shape[1] + self.lo_of.take(y))
        places += self.mul_hi.take(x * self.mul_hi.shape[1] + self.hi_of.take(y))
        return self.sums.take(places)

    def epsilon(self, x: int) -> Turn:
        return Turn(self.eps_num.item(x), self.eps_den)

    def elements(self) -> range:
        return range(self.size)

    @functools.cached_property
    def element_layout(self) -> tuple[object, tuple[tuple[int, int], ...]]:
        """The shape of the family's element documents (``_element_layout``)
        and the weight W_i and radix r_i of each field's digit, in field
        order: every element document is read and written through it."""
        shape, order = _element_layout(self.family)
        return shape, tuple((math.prod(self.radices[:i]), self.radices[i]) for i in order)

    def element_to_doc(self, x: int):
        """The layout with each field holding its digit of x."""
        shape, fields = self.element_layout
        return _fill(shape, int(x), iter(fields))

    def element_from_doc(self, doc) -> int:
        """The element whose digits the fields hold, each mod its radix."""
        shape, fields = self.element_layout
        return _read(shape, doc, iter(fields))

    def element_str(self, x: int) -> str:
        return repr(self.element_to_doc(x))


def ring_pairing(ring: RingSpec, x: int, y: int) -> Turn:
    """The symmetric pairing (x, y) -> character(x * y)."""
    return ring.epsilon(ring.mul(x, y))


def verify_generating_character(ring: RingSpec) -> bool:
    """True iff x -> character(x * .) is injective on the carrier.

    This is the Frobenius condition: it makes the additive group of the
    ring self-dual through the multiplication pairing.

    The rows character(x * .) are told apart column by column: the
    elements are split into classes by their values on the columns
    y seen so far, one column at a time, and the answer is True as soon
    as every class holds one element.  Rows that differ on some columns
    differ as rows, so True is exact, and False comes only after every
    column: the test assumes no ring law.  The columns of the additive
    generators S = {W_i} of ``RingSpec.weights`` go first.  Every y is a
    sum of elements of S, so in a distributive ring with an additive
    character, character(x * .) is fixed by its values on S, and a
    generating character separates the rows within |S| columns.
    """
    eps = ring.eps_num % ring.eps_den
    # An element's class code is the first position of its key among the
    # sorted keys, so codes stay below |R| and keys below |R| eps_den.
    idx = np.arange(ring.size)
    codes = np.zeros(ring.size, dtype=np.intp)
    columns = ring.mul_many(idx[:, None], ring.weights()).T
    for column in itertools.chain(columns, (ring.mul_many(idx, y) for y in range(ring.size))):
        keys = codes * ring.eps_den + eps[column]
        ordered = np.sort(keys)
        if (ordered[1:] != ordered[:-1]).all():
            return True
        codes = ordered.searchsorted(keys)
    return False


# ---------------------------------------------------------------------------
# constructors

def make_zm(m: int) -> RingSpec:
    """Integers mod m with character x -> turn x/m: W_0 = 1, S = [[1]]."""
    _check_modulus(m)
    return _ring((m,), [[1]], 1, np.arange(m, dtype=np.int64), m, {"family": "zm", "m": m})


def make_chain_ring(m: int, e: int) -> RingSpec:
    """Z_m[u]/(u^e) with the top-coefficient character.

    An element sum(a_i u^i) is encoded as the index sum(a_i m^i), so
    W_i = u^i and W_i W_j = W_(i+j), or 0 once i + j >= e; its character
    turn is a_{e-1}/m.  The generating property of that choice is not
    assumed: it is verified exhaustively and construction fails if it
    does not hold.
    """
    _check_modulus(m)
    if not isinstance(e, int) or e < 1:
        raise InvalidInputError(f"chain length must be a positive integer, got {e!r}")
    # m >= 2, so a long chain is refused before m**e is formed.
    if e >= MAX_RING_SIZE.bit_length() or m**e > MAX_RING_SIZE:
        raise ResourceLimitError(f"chain ring size {m}^{e} exceeds {MAX_RING_SIZE}")
    degree = np.add.outer(np.arange(e), np.arange(e))
    structure = np.where(degree < e, m ** np.minimum(degree, e - 1), 0)
    eps = np.arange(m**e, dtype=np.int64) // m ** (e - 1)
    return _ring((m,) * e, structure, 1, eps, m, {"family": "chain", "m": m, "e": e})


def make_product(r1: RingSpec, r2: RingSpec) -> RingSpec:
    """Componentwise product ring; the character is the sum of the
    component characters (turns add).  The index (a, b) -> a |R_2| + b
    puts R_2's digits below R_1's, so the structure constants are R_2's
    and R_1's scaled by |R_2|, block-diagonal: the cross products vanish."""
    size = r1.size * r2.size
    if size > MAX_RING_SIZE:
        raise ResourceLimitError(f"product ring size {size} exceeds {MAX_RING_SIZE}")
    s2, k2 = r2.size, len(r2.radices)
    ia, ib = np.divmod(np.arange(size, dtype=np.int64), s2)
    structure = np.zeros((k2 + len(r1.radices),) * 2, dtype=np.intp)
    structure[:k2, :k2] = r2.structure
    structure[k2:, k2:] = r1.structure * s2
    den = math.lcm(r1.eps_den, r2.eps_den)
    eps = (
        r1.eps_num[ia] * (den // r1.eps_den) + r2.eps_num[ib] * (den // r2.eps_den)
    ) % den
    return _ring(r2.radices + r1.radices, structure, r1.one * s2 + r2.one, eps, den,
                 {"family": "product", "factors": [r1.family, r2.family]})


def _ring(radices, structure, one: int, eps_num, eps_den: int, family: dict) -> RingSpec:
    """The validated ring of these radices, structure constants, one and
    character, with every other table derived from them."""
    structure = np.array(structure, dtype=np.intp)
    derived = _derive(radices, structure)
    spec = RingSpec(size=math.prod(radices), radices=radices, structure=structure,
                    **{name: derived[name] for name in _DERIVED}, zero=0, one=one,
                    eps_num=eps_num, eps_den=eps_den, family=family)
    _validate_ring(spec, derived)
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


# The ``RingSpec`` tables derived from the radices and the structure constants.
_DERIVED = ("place", "sums", "lo_of", "hi_of", "mul_lo", "mul_hi", "neg_table")


def _derive(radices: tuple[int, ...], structure: np.ndarray) -> dict:
    """The ``_DERIVED`` tables by field name, and G as ``by_gens``."""
    place, sums = _sumset(radices)
    idx = np.arange(math.prod(radices))
    weights = np.cumprod((1,) + radices[:-1])
    by_gens = _by_generators(place, sums, radices, structure)
    return dict(place=place, sums=sums, by_gens=by_gens,
                neg_table=-(idx[:, None] // weights) % np.array(radices) @ weights,
                **_halves(place, sums, radices, by_gens))


def _by_generators(place, sums, radices, structure) -> np.ndarray:
    """place[x W_i] for every x and i, with x W_i the sum of the d_j(x)
    S[j][i] over the digits j of x."""
    return _span_places(place, sums, [(place.take(row), r, 1)
                                      for row, r in zip(structure, radices)]).T


@functools.lru_cache(maxsize=256)
def _split(radices: tuple[int, ...]) -> tuple[int, int]:
    """The digit t and the cut c < r_t + 1 of ``RingSpec``'s split, which
    minimise n_lo + n_hi = W_t c + ceil(r_t / c) |R| / W_(t+1); the first
    such pair, t then c ascending."""
    size, weights = math.prod(radices), np.cumprod((1,) + radices[:-1]).tolist()
    return min((w * c + -(-r // c) * (size // (w * r)), t, c)
               for t, (w, r) in enumerate(zip(weights, radices)) for c in range(1, r + 1))[1:]


def _halves(place, sums, radices, by_gens: np.ndarray) -> dict:
    """``lo_of``, ``hi_of``, ``mul_lo`` and ``mul_hi``, with the products
    x a and x h_b summed from the multiples of the x W_i (``by_gens``,
    as places)."""
    t, c = _split(radices)
    weight, r = math.prod(radices[:t]), radices[t]
    high = -(-r // c)
    idx = np.arange(len(by_gens))
    digit = idx // weight % r
    cols = by_gens.T
    lo = [(cols[i], radices[i], 1) for i in range(t)] + [(cols[t], c, 1)]
    hi = [(cols[t], high, c)] + [(cols[i], radices[i], 1) for i in range(t + 1, len(radices))]
    return dict(lo_of=idx % weight + weight * (digit % c),
                hi_of=digit // c + high * (idx // (weight * r)),
                mul_lo=_span_places(place, sums, lo), mul_hi=_span_places(place, sums, hi))


# Rows per block of a ``_span_places`` step.
_ROWS = 512


def _span_places(place, sums, steps) -> np.ndarray:
    """Row by row, the places of the sums j_0 c_0 g_0 + j_1 c_1 g_1 + ...
    over 0 <= j_s < n_s, j_0 fastest, for the steps (g_s, n_s, c_s): g_s
    holds the place of one generator of each row.  A step grows the
    table by doubling: its blocks for j below h and h c_s g_s, added
    through the sumset, give those below 2h, so a step takes about
    log2(n_s) array steps, never one per multiple.  Each step runs
    ``_ROWS`` rows at a time, so its temporaries stay a block's size."""
    table = np.zeros((len(steps[0][0]), 1), dtype=np.intp)
    for first, count, stride in steps:
        if count == 1:
            continue
        row_steps, cols = _times(place, sums, first, stride)[:, None], table.shape[1]
        grown = np.empty((len(table), count * cols), dtype=np.intp)
        grown[:, :cols] = table
        for top in range(0, len(table), _ROWS):
            block, step = grown[top : top + _ROWS], row_steps[top : top + _ROWS]
            h = 1
            while h < count:
                width = min(h, count - h) * cols
                block[:, h * cols : h * cols + width] = place.take(
                    sums.take(block[:, :width] + step))
                h *= 2
                if h < count:
                    step = place.take(sums.take(step + step))
        table = grown
    return table


def _times(place, sums, first: np.ndarray, count: int) -> np.ndarray:
    """The places of count g for the places g in ``first``, by doubling
    and adding along the bits of count."""
    total, step = None, first
    while count:
        if count & 1:
            total = step if total is None else place.take(sums.take(total + step))
        count >>= 1
        if count:
            step = place.take(sums.take(step + step))
    return total


def _same(stored: np.ndarray, table: np.ndarray) -> bool:
    return stored is table or np.array_equal(stored, table)


def _check_modulus(m: int) -> None:
    if not isinstance(m, int) or m < 2:
        raise InvalidInputError(f"modulus must be an integer >= 2, got {m!r}")
    if m > MAX_RING_SIZE:
        raise ResourceLimitError(f"modulus {m} exceeds {MAX_RING_SIZE}")


def _validate_ring(spec: RingSpec, derived: dict | None = None) -> None:
    """Exhaustive construction-time verification.  Failures raise
    ConsistencyError: they mean the builder is wrong, not the caller.
    The first law that fails, in the order of the checks below, is the
    one reported.  Nothing is gathered through a table before its shape
    and range hold.

    Addition is read from its data.  Once the radices multiply to |R|
    and ``place`` and ``sums`` equal their digit definitions entry by
    entry, x + y adds the digits of x and y each mod its radix: (R, +)
    is the direct sum of the Z_(r_i), so addition is commutative and
    associative with inverses, for every pair and every triple.  Zero is
    then the index with no digit, and the negation table must negate each
    digit.

    Multiplication is read from the structure constants S[j][i] = W_j W_i.
    G[x, i] = x W_i is their digit-linear extension, sum d_j(x) S[j][i],
    and x y = sum d_i(y) G[x, i].  G is additive in x iff r_j S[j][i] = 0
    for all i and j (a homomorphism of a direct sum of cyclic groups is
    fixed by its values on the generators, whose orders are the r_j).
    Given that and S = S^T, r_i G[x, i] = sum d_j(x) r_i S[i][j] = 0, so
    the product is additive in y as well: biadditive, so it distributes,
    and it is commutative.  Then (xy)z - x(yz) and 1 y - y are additive in
    each argument, so they vanish everywhere iff they vanish on the W_i:
    k checks of one W_i = W_i and k^3 of (W_a W_b) W_c = (W_b W_c) W_a.
    The split and the half tables must then equal their definitions from
    S entry by entry, so ``mul_many`` reads exactly that product.  A
    builder hands in what it derived with ``_derive`` as ``derived``, so
    nothing is derived twice; without it, the tables are derived here, and
    tables set any other way are compared with them.

    The character is additive iff it is the sum of d_i(x) eps(W_i) with
    r_i eps(W_i) = 0, by the same argument, and it is generating iff
    ``verify_generating_character`` tells its rows apart.
    """
    n, k = spec.size, len(spec.radices)
    s, neg = spec.structure, spec.neg_table
    if math.prod(spec.radices) != n:
        raise ConsistencyError("radices do not multiply to the ring size")
    place, sums = _sumset(spec.radices) if derived is None else (derived["place"], derived["sums"])
    if (spec.place.shape != place.shape or spec.place.dtype != np.intp
            or spec.sums.shape != sums.shape or spec.sums.dtype != TABLE_DTYPE
            or neg.shape != (n,) or spec.eps_num.shape != (n,)
            or neg.min() < 0 or neg.max() >= n
            or s.shape != (k, k) or s.dtype != np.intp or s.min() < 0 or s.max() >= n
            or not 0 <= spec.zero < n or not 0 <= spec.one < n):
        raise ConsistencyError("table shape or range is off")
    if not _same(spec.place, place):
        raise ConsistencyError("place vector is wrong")
    if not _same(spec.sums, sums):
        raise ConsistencyError("sumset vector is wrong")
    # With addition digit by digit, zero is the index with no digit, and
    # -x the index of the negated digits of x.
    if spec.zero != 0:
        raise ConsistencyError("zero is not an additive identity")
    if derived is None:
        derived = _derive(spec.radices, s)
    if not _same(neg, derived["neg_table"]):
        raise ConsistencyError("negation table is wrong")

    radices, gens = np.array(spec.radices), spec.weights()
    if (radices[:, None, None] * (s[:, :, None] // gens % radices) % radices).any():
        raise ConsistencyError("multiplication does not distribute")
    if not np.array_equal(s, s.T):
        raise ConsistencyError("multiplication is not commutative")
    by_gens = derived["by_gens"]
    if not (by_gens[spec.one] == place[gens]).all():
        raise ConsistencyError("one is not a multiplicative identity")
    if not (by_gens[s[:, :, None], np.arange(k)] == by_gens[s, np.arange(k)[:, None, None]]).all():
        raise ConsistencyError("multiplication is not associative")
    for name in ("lo_of", "hi_of", "mul_lo", "mul_hi"):
        stored = getattr(spec, name)
        if stored.dtype != np.intp or not _same(stored, derived[name]):
            raise ConsistencyError("half product table is wrong")

    eps = spec.eps_num % spec.eps_den
    if not (eps == spec.eps_num).all():
        raise ConsistencyError("character numerators are not reduced mod the denominator")
    on_gens = eps[gens]
    if ((radices * on_gens) % spec.eps_den).any() or not np.array_equal(
            np.arange(n)[:, None] // gens % radices @ on_gens % spec.eps_den, eps):
        raise ConsistencyError("character is not additive")
    if not verify_generating_character(spec):
        raise ConsistencyError("character is not generating")

    for name in ("structure", "eps_num", *_DERIVED):
        getattr(spec, name).setflags(write=False)


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


def index_span(ring: RingSpec, width: int, items, bound=None):
    """Subgroup of (R^width, +) generated by ``items`` (sorted indices as
    in ``digits``), grown in item order: an item y outside the group M so
    far adds the disjoint cosets M + j*y, 0 < j < d for the least d with
    d*y in M.  The multiples come in one array step: the digits of j*y
    are those of y times j, each mod its radix, and L*y = 0 for L the lcm
    of the radices, so d <= L.  Returns the sorted group; the positions
    of the items that grew it; each item's d (1 if it lies in M) and the
    index of its d*y; the group in construction order, where the i-th
    grower's coset j is the block j*|M_i| + M_i; and the position of the
    item whose cosets would pass ``bound``, where the walk stops, with
    the items before it (None if it does not stop)."""
    base = ring.size
    powers = base ** np.arange(width, dtype=np.int64)
    group, coords = np.zeros(1, dtype=np.int64), np.zeros((1, width), dtype=np.int64)
    items = np.asarray(items, dtype=np.int64).reshape(-1)
    pending = np.flatnonzero(items)
    grew, index, reach = [], np.ones_like(items), items.copy()
    weights, radices = ring.weights(), np.array(ring.radices)
    places = powers[:, None] * weights
    steps = np.arange(1, math.lcm(*ring.radices) + 1)[:, None, None]
    built = group
    while pending.size:
        # The ring digits of each coordinate of the next item.
        multiples = steps * (items[pending[0]] // places % radices) % radices @ weights
        keys = multiples @ powers
        d = 1 + int(_contains(group, keys).argmax())
        q = int(pending[0])
        if bound is not None and group.size * d > bound:
            return group, grew, index[:q], reach[:q], built, q
        grew.append(q)
        index[q], reach[q] = d, keys[d - 1]
        cosets = ring.add_many(coords, multiples[: d - 1, None, :])
        coords = np.concatenate([coords, cosets.reshape(-1, width)])
        built = coords @ powers
        group = np.sort(built)
        pending = pending[~_contains(group, items[pending])]
    return group, grew, index, reach, built, None


def _contains(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    return group.take(group.searchsorted(values), mode="clip") == values


class Ideal:
    """An ideal of ``ring``, held as ``indices``, the sorted read-only
    int64 array of its distinct elements; ``elements`` is a tuple view
    for reports.  ``spanning`` holds the growers of an ``index_span``
    walk over a set generating (I, +), at most log2 |I| of them: they
    generate (I, +) and, I being closed under scalars, I over R.  Every
    ideal routine reads them.  Building an ideal checks that it is one
    (``_check_ideal``), walking ``indices`` itself; ``ideal_span`` walks
    the W_i g of its generators and hands in the growers, and then only
    closure under scalars is left to check."""

    def __init__(self, ring: RingSpec, indices, spanning=None):
        self.ring = ring
        self.indices = np.unique(np.asarray(indices, dtype=np.int64))
        self.indices.setflags(write=False)
        self.spanning = _check_ideal(ring, self.indices, spanning)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self.indices.tolist())

    def __contains__(self, x: int) -> bool:
        return bool(_contains(self.indices, np.array([x]))[0])

    def __len__(self) -> int:
        return int(self.indices.size)


def ideal_span(ring: RingSpec, generators) -> Ideal:
    """Smallest ideal containing the generators: the additive span of
    all ring multiples of them.  r g = d_0(r) W_0 g + d_1(r) W_1 g + ...,
    so one walk over the W_i g, sorted and distinct, spans the ideal, and
    its growers are ``spanning``."""
    gens = np.asarray(generators, dtype=np.intp)
    items = np.unique(ring.mul_many(ring.weights()[:, None], gens)).astype(np.int64)
    group, grew = index_span(ring, 1, items)[:2]
    return Ideal(ring, group, items[grew])


def nilradical(ring: RingSpec) -> Ideal:
    """The ideal of nilpotent elements."""
    return Ideal(ring, np.flatnonzero(_nilpotent(ring, np.arange(ring.size))))


def _nilpotent(ring: RingSpec, elems: np.ndarray) -> np.ndarray:
    """Which of the elements are nilpotent: x is iff x^(2^t) = 0 once 2^t
    reaches the ring size, so a few rounds of table squaring settle all
    of them at once."""
    p = elems
    for _ in range(max(1, (ring.size - 1).bit_length())):
        p = ring.mul_many(p, p)
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
        products = ring.mul_many(gens[:, None], spanning).ravel()
        gens = products[index_span(ring, 1, products)[1]]
        h += 1
        if h > ring.size + 1:
            raise ConsistencyError("nilpotency index failed to terminate")
    return h


def _check_ideal(ring: RingSpec, elems: np.ndarray, spanning=None) -> np.ndarray:
    """The read-only ``spanning`` set of the sorted distinct ``elems``,
    once they are shown to form an ideal: they equal the additive span
    of that set (the growers of a walk over ``elems``, unless a walk
    over other generators of (I, +) hands it in), and hold W_i g for
    each W_i and each g in it, so every r g = d_0(r) W_0 g + d_1(r) W_1
    g + ... and every r (c_1 g_1 + ... + c_t g_t) = c_1 r g_1 + ... +
    c_t r g_t."""
    if not (elems == ring.zero).any():
        raise ConsistencyError("ideal is missing zero")
    if spanning is None:
        group, grew = index_span(ring, 1, elems)[:2]
        if not np.array_equal(group, elems):
            raise ConsistencyError("ideal is not additively closed")
        spanning = elems[grew]
    if not _contains(elems, ring.mul_many(ring.weights()[:, None], spanning).ravel()).all():
        raise ConsistencyError("ideal is not closed under ring multiples")
    spanning.setflags(write=False)
    return spanning


# ---------------------------------------------------------------------------
# element documents

def _element_layout(family: dict) -> tuple[object, list[int]]:
    """The one description of a family's element documents: their shape,
    with a ``"{}"`` format field for each integer, and the digit that each
    field holds, depth first.  A zm element is its one digit, a chain
    element its coefficients, digits 0 to e-1; a product puts the left
    factor's document, on the high digits, before the right's.  A new
    family needs one case here, beside its constructor."""
    kind = family["family"]
    if kind == "zm":
        return "{}", [0]
    if kind == "chain":
        return ["{}"] * family["e"], list(range(family["e"]))
    if kind == "product":
        (left, high), (right, low) = (_element_layout(f) for f in family["factors"])
        return [left, right], [d + len(low) for d in high] + low
    raise InvalidInputError(f"unknown ring family {kind!r}")


def _fill(shape, x: int, fields):
    """The document of x of this shape, its fields read from ``fields``."""
    if isinstance(shape, str):
        weight, radix = next(fields)
        return x // weight % radix
    return [_fill(item, x, fields) for item in shape]


def _read(shape, doc, fields) -> int:
    """The element of ``doc``, a document of this shape, read as ``_fill``
    writes it.  Anything but an int at a field or a list of the shape's
    length at a list is refused, quoting the part that does not fit."""
    if isinstance(shape, str):
        if isinstance(doc, int) and not isinstance(doc, bool):
            weight, radix = next(fields)
            return doc % radix * weight
    elif isinstance(doc, list) and len(doc) == len(shape):
        return sum(_read(item, part, fields) for item, part in zip(shape, doc))
    expected = "an integer" if isinstance(shape, str) else f"a list of {len(shape)} entries"
    raise InvalidInputError(f"expected {expected} in an element document, got {doc!r}")


def element_rows(ring: RingSpec, elems) -> tuple[object, np.ndarray]:
    """The documents of ``elems`` in one array step: the shape of
    ``RingSpec.element_layout`` and one row of its fields per element,
    read from one digits array.  Filling the shape with a row gives
    ``element_to_doc`` of that element."""
    shape, fields = ring.element_layout
    weights, radices = np.array(fields, dtype=np.int64).T
    return shape, np.asarray(elems, dtype=np.int64).reshape(-1, 1) // weights % radices
