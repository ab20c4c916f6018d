"""Symbolic shift and phase operators and their finite groups.

An element (t, a, b) stands for the unitary exp(2 pi i t) T_a M_b on
functions over the carrier: T_a translates by a, M_b multiplies by the
pairing character of b.  Reordering two such operators only ever costs
a phase, so the whole calculus closes over exact turns:

    (t, a, b) * (t', a', b') = (t + t' + <b, a'>, a + a', b + b')

where <b, a'> is the phase pairing turn.  Commutators land in the
scalars; their value is the alternating bicharacter ``omega`` of the
label pairs, which is what stabiliser analysis runs on.

``weyl_mul``, ``weyl_inv``, ``commutator`` and ``omega`` stay scalar,
as the reference for the array paths.  A group is held as arrays: its
sorted label indices in the doubled space, one turn numerator per label
over one group denominator D, and the order |Z| of its scalar subgroup.
Closure and phase fixing share one label walk that grows those arrays
coset by coset; its Schreier scalars generate Z, so |G| = |L| * |Z| is
known, and the bound checked, before any larger table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spaces
from .errors import ConsistencyError, InvalidInputError, ResourceLimitError
from .rings import TURN_ZERO, Turn, digits, index_span, indices_of
from .spaces import (
    BLOCK,
    PhaseSpace,
    Submodule,
    Vector,
    _check_vector,
    _first_turn,
    _form,
    _trivial,
    carrier_pairings,
    phase_pairing,
)

DEFAULT_GROUP_BOUND = 4096

LabelPair = tuple[Vector, Vector]


@dataclass(frozen=True)
class WeylElement:
    """An exact scalar times a shift by ``shift`` and a phase by ``phase``."""

    turn: Turn
    shift: Vector
    phase: Vector

    @property
    def label(self) -> LabelPair:
        return (self.shift, self.phase)


def weyl_element(space: PhaseSpace, turn: Turn, shift: Vector, phase: Vector) -> WeylElement:
    _check_vector(space, tuple(shift))
    _check_vector(space, tuple(phase))
    return WeylElement(turn, tuple(shift), tuple(phase))


def weyl_mul(space: PhaseSpace, e1: WeylElement, e2: WeylElement) -> WeylElement:
    # Moving M_b of e1 past T_a' of e2 costs the pairing phase <b, a'>.
    cross = phase_pairing(space, e1.phase, e2.shift)
    return WeylElement(
        e1.turn + e2.turn + cross,
        space.add_vec(e1.shift, e2.shift),
        space.add_vec(e1.phase, e2.phase),
    )


def weyl_inv(space: PhaseSpace, e: WeylElement) -> WeylElement:
    back = phase_pairing(space, e.phase, e.shift)
    return WeylElement(
        -e.turn + back,
        space.neg_vec(e.shift),
        space.neg_vec(e.phase),
    )


def omega(space: PhaseSpace, p: LabelPair, q: LabelPair) -> Turn:
    """The commutation bicharacter on label pairs.

    omega((a, b), (a', b')) is the turn of character(form(b, a') -
    form(b', a)); it is biadditive, alternating, and exactly the scalar
    produced by commuting the corresponding operators.
    """
    a, b = p
    a2, b2 = q
    return phase_pairing(space, b, a2) - phase_pairing(space, b2, a)


def commutator(space: PhaseSpace, e1: WeylElement, e2: WeylElement) -> Turn:
    """Group commutator e1 e2 e1^-1 e2^-1, a scalar.  Turns and labels of
    the factors cancel, and reordering e1 e2 into e2 e1 costs <b, a'> -
    <b', a>, so the scalar is omega of the two labels."""
    return omega(space, e1.label, e2.label)


class StabiliserGroup:
    """A finite group of Weyl elements, held as arrays.

    ``labels`` is the sorted, read-only int64 array of its distinct labels
    (a, b) as indices in the doubled space (the ``rings.index_span``
    encoding).  ``turns[i]`` is the numerator, over the group denominator
    D = ``denominator``, of one element with label ``labels[i]``; the
    others with that label differ from it by the scalars j /
    ``scalar_order``.  ``elements`` is a view in (shift, phase, turn)
    order; ``generators`` are kept as given.

    ``spanning`` holds the positions, in ``generators`` (in ``elements``
    when there are none), of the generators whose label lies outside the
    additive span of the earlier labels: ``index_span``'s ``grew`` on the
    generator labels, which are also the generators that grow the label
    walk's table.  There are at most log2 |L| of them, and they generate
    the label set, so by biadditivity every pairing question on the group
    is a question about them.  The closure and the phase fix pass the
    walk's positions and its ``pairing`` table; any other constructor
    leaves both to be derived once, when first read.
    """

    def __init__(self, space: PhaseSpace, generators, labels, turns=(), denominator: int = 1,
                 scalar_order: int = 1, spanning=None, pairing=None):
        self.space, self.generators = space, tuple(generators)
        self.denominator, self.scalar_order = denominator, scalar_order
        keep = np.argsort(labels)
        self.labels = np.asarray(labels, dtype=np.int64)[keep]
        self.turns = np.asarray(turns, dtype=np.int64)[keep] % denominator
        self.labels.setflags(write=False)
        self.turns.setflags(write=False)
        # Known values take the place of the cached properties below.
        if spanning is not None:
            self.spanning = tuple(spanning)
        if pairing is not None:
            self.pairing = pairing

    @cached_property
    def elements(self) -> tuple[WeylElement, ...]:
        space, z, r = self.space, self.scalar_order, self.space.rank
        rows = digits(self.labels, space.ring.size, 2 * r)
        order = np.lexsort(rows.T[::-1])
        den = math.lcm(self.denominator, z)
        nums = np.sort((self.turns[order, None] * (den // self.denominator)
                        + np.arange(z) * (den // z)) % den)
        return tuple(WeylElement(Turn(n, den), tuple(row[:r]), tuple(row[r:]))
                     for row, ns in zip(rows[order].tolist(), nums.tolist()) for n in ns)

    @cached_property
    def spanning(self) -> tuple[int, ...]:
        ring, rows = self.space.ring, _label_rows(self.space, self._generating)
        return tuple(index_span(ring, rows.shape[1], indices_of(rows, ring.size))[1])

    @cached_property
    def pairing(self) -> np.ndarray:
        """``pairing[i, j]`` = <b_i, a_j> as a numerator over eps_den, for
        the spanning generators (a_i, b_i) in order."""
        gens = self._generating
        return _pair_table(self.space, _label_rows(self.space, [gens[i] for i in self.spanning]))

    @cached_property
    def _offending(self) -> tuple[WeylElement, WeylElement, Turn] | None:
        """The first pair i < j of spanning generators, in row-major
        order, whose omega, ``pairing[i, j] - pairing[j, i]``, is not
        zero, with that omega; None if there is none."""
        eps = self.space.ring.eps_den
        omegas = np.triu((self.pairing - self.pairing.T) % eps)
        hits = np.argwhere(omegas)
        if not hits.size:
            return None
        i, j = hits[0].tolist()
        gens = self._generating
        return gens[self.spanning[i]], gens[self.spanning[j]], Turn(int(omegas[i, j]), eps)

    @property
    def _generating(self):
        return self.generators or self.elements

    @cached_property
    def scalar_turns(self) -> tuple[Turn, ...]:
        return tuple(Turn(j, self.scalar_order) for j in range(self.scalar_order))

    @property
    def scalar_free(self) -> bool:
        return self.scalar_order == 1

    def __len__(self) -> int:
        return self.labels.size * self.scalar_order

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"<stabiliser group of order {len(self)}>"


# A table entry sums three numerators below D, and D divides eps_den * |G|
# (o * t is in (1 / eps_den)Z for an element of order o and turn t).
_MAX_DENOMINATOR = 1 << 60


def _mul_many(space: PhaseSpace, den: int, x, y):
    """``weyl_mul`` on broadcasting arrays of elements, each a pair of
    turn numerators over den and joined label rows."""
    ring, r = space.ring, space.rank
    cross = ring.eps_num[_form(space, x[1][..., r:], y[1][..., :r])] * (den // ring.eps_den)
    return (x[0] + y[0] + cross) % den, ring.add_many(x[1], y[1])


def _label_rows(space: PhaseSpace, elements) -> np.ndarray:
    """Joined label rows (a, b) of Weyl elements."""
    rows = np.array([join_label(e.label) for e in elements], dtype=np.intp)
    return rows.reshape(-1, 2 * space.rank)


def _pair_table(space: PhaseSpace, rows: np.ndarray) -> np.ndarray:
    """``out[i, j]`` = <b_i, a_j> for label rows (a_i, b_i), as numerators
    over eps_den, in one ``_form`` call.  omega of rows i and j is
    ``out[i, j] - out[j, i]``."""
    ring, r = space.ring, space.rank
    return ring.eps_num[_form(space, rows[:, None, r:], rows[None, :, :r])] % ring.eps_den


def _label_walk(space: PhaseSpace, generators, bound: int, *, retune: bool):
    """Grow a table of one representative element per label, one
    generator at a time.

    A generator g with label c first lands in the table at its least
    multiple d*c and adds the cosets L + j*c (j < d) as rep(l) * g^j, in
    one batched product.  By Schreier's lemma its scalar g^d * rep(d*c)^-1
    and its omega with the other table-growing generators generate the
    scalar group Z, cyclic of order the lcm of their denominators.
    ``retune`` first moves each turn t to (d*t - scalar).root(d), which
    zeroes that scalar: D is multiplied by d and the numerator reduced
    mod D, then divided.

    The walk reads two kinds of pairing, each from one ``_form`` call:
    <b, a> of each generator, for the powers of g, and omega between
    growing generators, from ``pairing``, the ``_pair_table`` of the
    growing generators.  That table is built once the walk knows which
    generators grow it, so the partial |L| * |Z| checked against the
    bound, in Python integers, before each larger table is built leaves
    the omegas out, and the full |L| * |Z| is checked at the end: no
    table ever holds more than the bound.

    Returns the sorted labels, their turn numerators over D, D, the
    generators that grew the table, their positions among the
    generators, their pairing table, and |Z|.
    """
    ring, r = space.ring, space.rank
    m, eps = ring.size, ring.eps_den
    gen_rows = _label_rows(space, generators)
    own = ring.eps_num[_form(space, gen_rows[:, r:], gen_rows[:, :r])] % eps
    coords = np.full((1, 2 * r), ring.zero, dtype=np.intp)
    labels, turns, den, order = indices_of(coords, m), np.zeros(1, dtype=np.int64), eps, 1
    grown, spanning = [], []
    weights, radices = ring.weights(), np.array(ring.radices)
    steps = np.arange(math.lcm(*ring.radices) + 1)[:, None, None]
    for i, (g, c) in enumerate(zip(generators, gen_rows)):
        # j*c for j = 0..L, with L*c = 0, from c's digits in one array step
        # (as ``index_span`` reads them); d*c is the first in the table.
        mults = steps * (c[:, None] // weights % radices) % radices @ weights
        keys = indices_of(mults[1:], m)
        places = labels.searchsorted(keys)
        d = 1 + int((labels.take(places, mode="clip") == keys).argmax())
        target, mults = int(turns[places[d - 1]]), mults[:d]
        # g^j has turn j*t + pairs[j] / eps_den, where pairs[j] sums <i*b, a>
        # over i < j: <b, a> * j(j-1)/2, as the character is additive.
        pairs = [int(own[i]) * (j * (j - 1) // 2) % eps for j in range(d + 1)]
        if retune:
            grid, num, dens = den * d, (target - pairs[d] * (den // eps)) % den, []
            g = WeylElement(Turn(num, grid), g.shift, g.phase)
        else:
            grid = math.lcm(den, g.turn.denominator)
            num = g.turn.numerator * (grid // g.turn.denominator)
            dens = [Turn(d * num + pairs[d] * (grid // eps) - target * (grid // den), grid)
                    .denominator]
        order = math.lcm(order, *dens)
        if labels.size * d * order > bound:
            raise ResourceLimitError(f"group closure exceeded the bound of {bound} elements")
        if d > 1:
            if grid > _MAX_DENOMINATOR:
                raise ResourceLimitError("group turns need a denominator past 2^60")
            powers = [(j * num + pairs[j] * (grid // eps)) % grid for j in range(d)]
            reps = (turns[:, None] * (grid // den), coords[:, None])
            turns, coords = _mul_many(space, grid, reps, (np.array(powers), mults))
            coords = coords.reshape(-1, 2 * r).astype(np.intp)
            labels = indices_of(coords, m)
            keep = np.argsort(labels)
            labels, turns, coords, den = labels[keep], turns.reshape(-1)[keep], coords[keep], grid
            grown.append(g)
            spanning.append(i)
    pairing = _pair_table(space, gen_rows[spanning])
    order = math.lcm(order, *(eps // np.gcd(pairing - pairing.T, eps)).ravel().tolist())
    if labels.size * order > bound:
        raise ResourceLimitError(f"group closure exceeded the bound of {bound} elements")
    return labels, turns, den, grown, spanning, pairing, order


def group_closure(space: PhaseSpace, generators,
                  bound: int = DEFAULT_GROUP_BOUND) -> StabiliserGroup:
    """Multiplicative closure of the generators: every label's
    representative times every scalar of Z.

    Every element has finite order (labels are torsion and turns are
    rational), so closing under products alone already yields a group
    containing the identity and all inverses.
    """
    gens = [g for g in generators]
    for g in gens:
        if len(g.shift) != space.rank or len(g.phase) != space.rank:
            raise InvalidInputError("generator labels do not match the space rank")
    labels, turns, den, _, spanning, pairing, order = _label_walk(space, gens, bound,
                                                                  retune=False)
    return StabiliserGroup(space, gens, labels, turns, den, order, spanning, pairing)


def is_abelian_mod_scalars(s: StabiliserGroup) -> bool:
    """True iff omega vanishes on the generator labels; biadditivity
    extends that to every pair of elements."""
    return s._offending is None


def offending_pair(s: StabiliserGroup) -> tuple[WeylElement, WeylElement, Turn] | None:
    """First generator pair with a non-trivial commutation scalar.  Only
    the spanning generators are compared: by biadditivity and
    antisymmetry, no first non-zero pair holds a generator whose label
    lies in the span of earlier labels."""
    return s._offending


# ---------------------------------------------------------------------------
# label correspondence

def join_label(p: LabelPair) -> Vector:
    return tuple(p[0]) + tuple(p[1])


def split_label(space: PhaseSpace, v: Vector) -> LabelPair:
    return (v[: space.rank], v[space.rank :])


def label_module_of(s: StabiliserGroup) -> Submodule:
    """Labels of the group with turns stripped.

    A closed group's label set is closed under addition but, over a
    non-cyclic ring, not necessarily under scalars, so the result is an
    additive module.
    """
    gen_labels = [join_label(g.label) for g in s.generators]
    return Submodule(s.space, gen_labels, s.labels, doubled=True, r_closed=False)


def is_isotropic(space: PhaseSpace, l: Submodule) -> bool:
    """Whether omega vanishes identically on the module.

    omega((a, b), (a', b')) is the turn of form(b, a') - form(b', a), a
    difference of two forms, so it is biadditive, and on a scalar-closed
    module it vanishes iff that ring value does (``spaces._trivial``):
    one ``_form`` call over the pairs of ``l.spanning`` settles it, as in
    ``analysis.submodule_census``.
    """
    if not l.doubled:
        raise InvalidInputError("isotropy applies to label modules in the doubled space")
    ring, rows, r = space.ring, l.spanning, space.rank
    values = _form(space, rows[:, None, r:], rows[None, :, :r])
    return bool(_trivial(space, ring.add_many(values, ring.neg_table[values.T]),
                         l.r_closed).all())


def stabiliser_of_labels(space: PhaseSpace, l: Submodule,
                         bound: int = DEFAULT_GROUP_BOUND) -> StabiliserGroup:
    """Lift every module element with turn zero and close.

    The closure's label set is exactly the module again, which is what
    makes the correspondence with label modules round-trip.
    """
    if not l.doubled:
        raise InvalidInputError("label lifts take a module in the doubled space")
    if not is_isotropic(space, l):
        raise InvalidInputError("label module is not isotropic")
    lifts = [WeylElement(TURN_ZERO, *split_label(space, v)) for v in l.elements]
    return group_closure(space, lifts, bound=bound)


def phase_fix(s: StabiliserGroup) -> StabiliserGroup:
    """Retune the generators of an abelian-mod-scalars group so the
    closure is scalar-free, preserving the label set.

    This is the label walk of the closure with every generator's turn
    solved so that its Schreier scalar vanishes: with omega trivial on
    the labels, no scalar is left to generate.  Only the spanning
    generators are walked; the others' labels are already covered, so
    they are dropped.  Adjusting each generator against
    only its own order can strand scalars in cross relations; solving
    against the table built so far cannot.
    """
    space = s.space
    if s.scalar_free:
        return s
    if not is_abelian_mod_scalars(s):
        raise InvalidInputError("phase fixing needs an abelian-mod-scalars group")

    gens = s._generating
    kept = [gens[i] for i in s.spanning]
    labels, turns, den, new_gens, spanning, pairing, order = _label_walk(space, kept, len(s),
                                                                         retune=True)
    if order != 1:
        raise ConsistencyError("phase fixing left an irreducible scalar")
    if not np.array_equal(labels, s.labels):
        raise ConsistencyError("phase fixing changed the label set")
    return StabiliserGroup(space, new_gens, labels, turns, den, 1, spanning, pairing)


def code_dimension(space: PhaseSpace, s: StabiliserGroup) -> int:
    """Dimension of the joint fixed space: |H| / |S| for a scalar-free
    group, zero as soon as a non-trivial scalar is inside."""
    if not s.scalar_free:
        return 0
    quotient, remainder = divmod(space.size, len(s))
    if remainder:
        raise ConsistencyError(
            f"group order {len(s)} does not divide the carrier size {space.size}"
        )
    return quotient


def noncommutativity_witness(space: PhaseSpace) -> LabelPair | None:
    """First (a, b) in enumeration order whose shift and phase refuse to
    commute, i.e. with a non-trivial pairing turn.  The a come
    max(1, BLOCK // |H|) at a time as the probes of a ``carrier_pairings``
    sweep over b.  The form is symmetric, so the sweep's values transposed
    are the <a, b>; they form one block (several a) or blocks along b (one
    a), so the first hit found is the first in row-major order."""
    m, rank, size = space.ring.size, space.rank, space.size
    chunk = max(1, spaces.BLOCK // size)
    for first in range(0, size, chunk):
        rows = digits(np.arange(first, min(first + chunk, size)), m, rank)
        for start, _, values in carrier_pairings(space, rows):
            hit = _first_turn(space.ring, values.T)
            if hit is not None:
                j, i = hit
                return tuple(rows[j].tolist()), tuple(digits(start + i, m, rank)[0].tolist())
    return None


def reconstruct_pairing(space: PhaseSpace) -> dict[tuple[Vector, Vector], Turn]:
    """Recover the phase pairing from the group product alone.

    Every pure shift T_a is multiplied with every pure phase M_b in both
    orders, a block of shifts at a time: M_b T_a = pairing(b, a) T_a M_b,
    so the pairing is the difference of the two turns.  The table is
    keyed (b, a).
    """
    if space.size * space.size > (1 << 20):
        raise ResourceLimitError("pairing reconstruction table would be too large")
    den, zero = space.ring.eps_den, np.full_like(space.coords, space.ring.zero)
    phase = (0, np.concatenate([zero, space.coords], axis=1))
    vectors = list(map(tuple, space.coords.tolist()))
    turn_of = [Turn(j, den) for j in range(den)]
    table: dict[tuple[Vector, Vector], Turn] = {}
    chunk = max(1, BLOCK // space.size)
    for start in range(0, space.size, chunk):
        shift = (0, np.concatenate([space.coords, zero], axis=1)[start : start + chunk, None])
        (forward, left), (backward, right) = (_mul_many(space, den, shift, phase),
                                              _mul_many(space, den, phase, shift))
        if not np.array_equal(left, right):
            raise ConsistencyError("commutator left the scalar subgroup")
        for a, row in zip(vectors[start:], ((backward - forward) % den).tolist()):
            table.update(((b, a), turn_of[j]) for b, j in zip(vectors, row))
    return table
