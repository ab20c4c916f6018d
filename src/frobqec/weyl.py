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
The labels grow once, coset by coset, in ``rings.index_span``; the turn
of a coset representative is a quadratic form in its digits, and one
turn walk, shared by closure and phase fixing, reads it.  Its Schreier
scalars generate Z, so |G| = |L| * |Z| is known, and the bound checked,
before the turn table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError
from .rings import TURN_ZERO, Turn, digits, index_span, indices_of
from .spaces import (
    BLOCK,
    PhaseSpace,
    Submodule,
    Vector,
    _check_vector,
    _form,
    carrier_pairings,
    pairing_turn_numerators,
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

    ``cosets`` is the label walk over the generator labels (over
    ``elements`` when there are none), and ``spanning`` its ``grew``: the
    positions of the generators whose label lies outside the additive
    span of the earlier labels.  There are at most log2 |L| of them, and
    they generate the label set, so by biadditivity every pairing
    question on the group is a question about them.  The closure passes
    its cosets and its ``pairing`` table, the phase fix the table; any
    other constructor leaves them to be derived once, when first read.
    """

    def __init__(self, space: PhaseSpace, generators, labels, turns=(), denominator: int = 1,
                 scalar_order: int = 1, cosets=None, pairing=None):
        self.space, self.generators = space, tuple(generators)
        self.denominator, self.scalar_order = denominator, scalar_order
        keep = np.argsort(labels)
        self.labels = np.asarray(labels, dtype=np.int64)[keep]
        self.turns = np.asarray(turns, dtype=np.int64)[keep] % denominator
        self.labels.setflags(write=False)
        self.turns.setflags(write=False)
        # Known values take the place of the cached properties below.
        if cosets is not None:
            self.cosets = cosets
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
    def cosets(self) -> _Cosets:
        return _cosets(self.space, _label_rows(self.space, self._generating))

    @property
    def spanning(self) -> list[int]:
        return self.cosets.grew

    @cached_property
    def pairing(self) -> np.ndarray:
        """``pairing[i, j]`` = <b_i, a_j> as a numerator over eps_den, for
        the spanning generators (a_i, b_i) in order."""
        gens, r = self._generating, self.space.rank
        rows = _label_rows(self.space, [gens[i] for i in self.spanning])
        return pairing_turn_numerators(self.space, rows[:, r:], rows[:, :r])

    @cached_property
    def _offending(self) -> tuple[WeylElement, WeylElement, Turn] | None:
        """The first pair i < j of spanning generators, in row-major
        order, whose omega, ``pairing[i, j] - pairing[j, i]``, is not
        zero, with that omega; None if there is none."""
        eps = self.space.ring.eps_den
        # omega is alternating, so its first non-zero entry in row-major
        # order lies above the diagonal.
        omegas = (self.pairing - self.pairing.T) % eps
        hits = np.flatnonzero(omegas)
        if not hits.size:
            return None
        i, j = divmod(int(hits[0]), len(omegas))
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


class _Cosets(NamedTuple):
    """``rings.index_span`` over generator labels c: the sorted span, the
    growers, and for each generator walked the least d with d*c in the
    span of the earlier labels (1 if c is in it) and the digits of d*c.
    The label with digits (j_1 .. j_k) is the sum of the j_i c_i over the
    growers; ``digits[i]`` holds j_i of each label."""

    labels: np.ndarray
    grew: list[int]
    index: list[int]
    reach: list[list[int]]
    digits: np.ndarray
    stop: int | None


def _cosets(space: PhaseSpace, rows: np.ndarray, bound: int | None = None) -> _Cosets:
    labels, grew, index, reach, built, stop = index_span(
        space.ring, rows.shape[1], indices_of(rows, space.ring.size), bound)
    # Construction position p has the mixed-radix digits j_i over the d_i.
    radix = index[grew][:, None]
    place, strides = np.argsort(built), np.cumprod(radix)[:, None] // radix
    digits_of = lambda positions: positions // strides % radix
    return _Cosets(labels, grew, index.tolist(),
                   digits_of(place[labels.searchsorted(reach)]).T.tolist(), digits_of(place), stop)


def _label_walk(space: PhaseSpace, steps, cosets: _Cosets, pairing: np.ndarray, bound: int,
                *, retune: bool):
    """The turns of the labels of ``cosets``, one element per label, for
    the steps (generator g, d, digits of d*c) in order.  A grower (d > 1)
    adds the cosets L + j*c (j < d) as rep(l) * g^j.  A product costs
    only the phase <b, a'>, so the turn of g_1^j_1 ... g_k^j_k is the sum
    of the j_i t_i and of the quadratic form Q(j): <b_i, a_i> j_i(j_i -
    1)/2 plus j_i j_i' <b_i, a_i'> for i < i', read from ``pairing``.  By
    Schreier's lemma each generator's scalar g^d * rep(d*c)^-1 and the
    omegas of the growers generate Z, cyclic of order the lcm of their
    denominators.  ``retune`` first moves each grower's turn t to (d*t -
    scalar).root(d), which zeroes that scalar: D is multiplied by d.

    |L| * |Z| is checked against the bound at each step, in Python
    integers, and with the omegas at the end; only then is the turn table
    built, one gather of the growers' power tables j*t_i + <b_i, a_i>
    j(j - 1)/2 (Python integers, as j*t_i can pass 2^63) plus Q's cross
    terms.  Returns the turns over D in label order, D, the generators
    that grew the labels, and |Z|.
    """
    eps = space.ring.eps_den
    table = pairing.tolist()
    den, order, size, grown, growers = eps, 1, 1, [], []
    for g, d, js in steps:
        # The turn of rep(d*c) over den; often d*c = 0.
        target = 0
        if any(js):
            quad = sum(j * sum(i * row[b] for i, row in zip(js[:b], table))
                       + table[b][b] * (j * (j - 1) // 2) for b, j in enumerate(js))
            target = (sum(j * num * (den // grid) for j, (_, num, grid) in zip(js, growers))
                      + quad * (den // eps)) % den
        # g^d has turn d*t + <b, a> d(d-1)/2.
        half = table[len(grown)][len(grown)] * (d * (d - 1) // 2) % eps if d > 1 else 0
        if retune:
            grid, num, dens = den * d, (target - half * (den // eps)) % den, []
            g = WeylElement(Turn(num, grid), g.shift, g.phase)
        else:
            grid = math.lcm(den, g.turn.denominator)
            num = g.turn.numerator * (grid // g.turn.denominator)
            dens = [Turn(d * num + half * (grid // eps) - target * (grid // den), grid)
                    .denominator]
        order = math.lcm(order, *dens)
        if size * d * order > bound:
            raise ResourceLimitError(f"group closure exceeded the bound of {bound} elements")
        if d > 1:
            if grid > _MAX_DENOMINATOR:
                raise ResourceLimitError("group turns need a denominator past 2^60")
            growers.append((d, num, grid))
            size, den = size * d, grid
            grown.append(g)
    order = math.lcm(order, *(eps // np.gcd(pairing - pairing.T, eps)).ravel().tolist())
    if cosets.stop is not None or size * order > bound:
        raise ResourceLimitError(f"group closure exceeded the bound of {bound} elements")
    starts, powers = [], []
    for i, (d, num, grid) in enumerate(growers):
        own, num = table[i][i], num * (den // grid)
        starts.append(len(powers))
        powers += [(j * num + own * (j * (j - 1) // 2) % eps * (den // eps)) % den
                   for j in range(d)]
    js, k = cosets.digits, np.arange(len(growers))
    turns = (js * (np.where(k[:, None] < k, pairing, 0).T @ js)).sum(axis=0) % eps * (den // eps)
    terms = np.array(powers, dtype=np.int64).take(js + np.array(starts, dtype=np.int64)[:, None])
    # Eight numerators below D <= 2^60 sum below 2^63.
    for top in range(0, len(terms), 7):
        turns = (turns + terms[top : top + 7].sum(axis=0)) % den
    return turns, den, grown, order


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
    rows, r = _label_rows(space, gens), space.rank
    cosets = _cosets(space, rows, bound)
    pairing = pairing_turn_numerators(space, rows[cosets.grew, r:], rows[cosets.grew, :r])
    turns, den, _, order = _label_walk(space, zip(gens, cosets.index, cosets.reach), cosets,
                                       pairing, bound, retune=False)
    return StabiliserGroup(space, gens, cosets.labels, turns, den, order, cosets, pairing)


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
    difference of two forms, so it is biadditive and vanishes on the
    module iff it does on the pairs of ``l.spanning``.  On a
    scalar-closed module the form values there must equal their
    transpose, since eps(r x) = 0 for every scalar r only if x = 0 (the
    character is generating); on an additive one only their turn
    numerators must, as in ``analysis.submodule_census``.
    """
    if not l.doubled:
        raise InvalidInputError("isotropy applies to label modules in the doubled space")
    rows, r = l.spanning, space.rank
    values = _form(space, rows[:, None, r:], rows[None, :, :r])
    if not l.r_closed:
        values = space.ring.eps_num[values]
    return bool((values == values.T).all())


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

    This is the turn walk of the closure with every generator's turn
    solved so that its Schreier scalar vanishes: with omega trivial on
    the labels, no scalar is left to generate.  It reads the group's
    cosets and pairing table, so no label is walked again.  Only the
    spanning generators are retuned; the others' labels are already
    covered, so they are dropped.  Adjusting each generator against only
    its own order can strand scalars in cross relations; solving against
    the turns of the cosets built so far cannot.
    """
    space = s.space
    if s.scalar_free:
        return s
    if not is_abelian_mod_scalars(s):
        raise InvalidInputError("phase fixing needs an abelian-mod-scalars group")

    gens, cosets = s._generating, s.cosets
    steps = [(gens[q], cosets.index[q], cosets.reach[q]) for q in cosets.grew]
    turns, den, new_gens, order = _label_walk(space, steps, cosets, s.pairing, len(s),
                                              retune=True)
    if order != 1:
        raise ConsistencyError("phase fixing left an irreducible scalar")
    if not np.array_equal(cosets.labels, s.labels):
        raise ConsistencyError("phase fixing changed the label set")
    return StabiliserGroup(space, new_gens, s.labels, turns, den, 1, pairing=s.pairing)


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


def noncommutativity_witness(space: PhaseSpace) -> LabelPair:
    """First (a, b) in enumeration order whose shift and phase refuse to
    commute, i.e. with a non-trivial pairing turn.  a = 0 pairs trivially
    with every b, and a = index 1 is W_0 e_0 != 0: the form is perfect, so
    form(a, w) != 0 for some w, and the character is generating, so some
    b = r w pairs non-trivially with a.  So b is the first hit of one
    ``carrier_pairings`` sweep against that a; the form is symmetric, so
    the sweep's form(b, a) are the <a, b>."""
    m, rank = space.ring.size, space.rank
    a = digits(1, m, rank)
    for start, _, values in carrier_pairings(space, a):
        hits = np.flatnonzero(space.ring.eps_num[values[:, 0]])
        if hits.size:
            return tuple(a[0].tolist()), tuple(digits(start + hits[0], m, rank)[0].tolist())
    raise ConsistencyError("no phase pairs non-trivially with a non-zero shift")


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
