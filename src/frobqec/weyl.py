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

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError
from .rings import TURN_ZERO, Turn, digits, index_span, indices_of, lookup
from .spaces import (
    BLOCK,
    PhaseSpace,
    Submodule,
    Vector,
    _check_vector,
    _first_nontrivial,
    _form,
    form_eval,
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


def identity_element(space: PhaseSpace) -> WeylElement:
    z = space.zero_vector()
    return WeylElement(TURN_ZERO, z, z)


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
    """

    def __init__(self, space: PhaseSpace, generators, labels, turns=(), denominator: int = 1,
                 scalar_order: int = 1):
        self.space, self.generators = space, tuple(generators)
        self.denominator, self.scalar_order = denominator, scalar_order
        keep = np.argsort(labels)
        self.labels = np.asarray(labels, dtype=np.int64)[keep]
        self.turns = np.asarray(turns, dtype=np.int64)[keep] % denominator
        self.labels.setflags(write=False)
        self.turns.setflags(write=False)

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


def _find(labels: np.ndarray, label) -> int:
    """Position of the label in the sorted array, or -1."""
    at = int(labels.searchsorted(label))
    return at if at < labels.size and labels[at] == label else -1


def _mul_many(space: PhaseSpace, den: int, x, y):
    """``weyl_mul`` on broadcasting arrays of elements, each a pair of
    turn numerators over den and joined label rows."""
    ring, r = space.ring, space.rank
    cross = ring.eps_num[_form(space, x[1][..., r:], y[1][..., :r])] * (den // ring.eps_den)
    return (x[0] + y[0] + cross) % den, lookup(ring.add_table, x[1], y[1])


def _label_walk(space: PhaseSpace, generators, bound: int, *, retune: bool):
    """Grow a table of one representative element per label, one
    generator at a time.

    A generator g with label c first lands in the table at its least
    multiple d*c and adds the cosets L + j*c (j < d) as rep(l) * g^j, in
    one batched product.  By Schreier's lemma its scalar g^d * rep(d*c)^-1
    and its omega with the earlier table-growing generators generate the
    scalar group Z, cyclic of order the lcm of their denominators.  The
    partial |L| * |Z| only grows; it is checked against the bound, in
    Python integers, before each larger table is built.  ``retune`` first
    moves each turn t to (d*t - scalar).root(d), which zeroes that scalar:
    D is multiplied by d and the numerator reduced mod D, then divided.

    Returns the sorted labels, their turn numerators over D, D, the
    generators that grew the table, and |Z|.
    """
    ring, r = space.ring, space.rank
    m, eps = ring.size, ring.eps_den
    gen_rows = np.array([join_label(g.label) for g in generators],
                        dtype=np.intp).reshape(-1, 2 * r)
    coords = np.full((1, 2 * r), ring.zero, dtype=np.intp)
    labels, turns, den, order = indices_of(coords, m), np.zeros(1, dtype=np.int64), eps, 1
    grown, grown_rows = [], []
    for g, c in zip(generators, gen_rows):
        multiple, mults = c, [coords[0]]
        while (at := _find(labels, int(indices_of(multiple, m)))) < 0:
            mults.append(multiple)
            multiple = lookup(ring.add_table, multiple, c)
        d, target, mults = len(mults), int(turns[at]), np.array(mults, dtype=np.intp)
        # g^j has turn j*t + pairs[j] / eps_den: pairs[j] sums <i*b, a> over i < j.
        pairs = [0, 0]
        if d > 1:
            pairs += np.cumsum(ring.eps_num[_form(space, mults[1:, r:], c[None, :r])]).tolist()
        if retune:
            grid, num, dens = den * d, (target - pairs[d] * (den // eps)) % den, []
            g = WeylElement(Turn(num, grid), g.shift, g.phase)
        else:
            grid = math.lcm(den, g.turn.denominator)
            num = g.turn.numerator * (grid // g.turn.denominator)
            dens = [Turn(d * num + pairs[d] * (grid // eps) - target * (grid // den), grid)
                    .denominator]
        if d > 1 and grown:
            # omega(g, h) is the turn of g*h less that of h*g.
            h = (0, np.array(grown_rows))
            omegas = _mul_many(space, eps, (0, c), h)[0] - _mul_many(space, eps, h, (0, c))[0]
            dens += (eps // np.gcd(omegas, eps)).tolist()
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
            grown_rows.append(c)
    return labels, turns, den, grown, order


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
    labels, turns, den, _, order = _label_walk(space, gens, bound, retune=False)
    return StabiliserGroup(space, gens, labels, turns, den, order)


def is_abelian_mod_scalars(s: StabiliserGroup) -> bool:
    """True iff omega vanishes on the generator labels; biadditivity
    extends that to every pair of elements."""
    return offending_pair(s) is None


def offending_pair(s: StabiliserGroup) -> tuple[WeylElement, WeylElement, Turn] | None:
    """First generator pair with a non-trivial commutation scalar.  A
    generator whose label lies in the span of earlier labels is skipped:
    by biadditivity and antisymmetry, no first non-zero pair holds it."""
    gens = s.generators if s.generators else s.elements
    labels = indices_of([join_label(g.label) for g in gens], s.space.ring.size)
    _, grew = index_span(s.space.ring, 2 * s.space.rank, labels)
    kept = [gens[i] for i in grew]
    for i, g in enumerate(kept):
        for h in kept[i + 1 :]:
            value = omega(s.space, g.label, h.label)
            if not value.is_zero:
                return (g, h, value)
    return None


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

    Scalar-closed modules reduce to generator pairs of the underlying
    ring-valued alternating form (scalars sweep through the character);
    additive-only modules reduce to generator pairs of omega itself.
    Both forms are alternating, so a generator paired with itself is skipped.
    """
    if not l.doubled:
        raise InvalidInputError("isotropy applies to label modules in the doubled space")
    pairs = [split_label(space, tuple(g)) for g in (l.generators or l.elements)]
    for i, (a, b) in enumerate(pairs):
        for a2, b2 in pairs[i + 1 :]:
            if l.r_closed:
                trivial = form_eval(space, b, a2) == form_eval(space, b2, a)
            else:
                trivial = omega(space, (a, b), (a2, b2)).is_zero
            if not trivial:
                return False
    return True


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
    the labels, no scalar is left to generate.  Generators whose labels
    are already covered are dropped.  Adjusting each generator against
    only its own order can strand scalars in cross relations; solving
    against the table built so far cannot.
    """
    space = s.space
    if s.scalar_free:
        return s
    if not is_abelian_mod_scalars(s):
        raise InvalidInputError("phase fixing needs an abelian-mod-scalars group")

    labels, turns, den, new_gens, order = _label_walk(space, s.generators, len(s), retune=True)
    if order != 1:
        raise ConsistencyError("phase fixing left an irreducible scalar")
    if not np.array_equal(labels, s.labels):
        raise ConsistencyError("phase fixing changed the label set")
    return StabiliserGroup(space, new_gens, labels, turns, den)


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
    commute, i.e. with a non-trivial pairing turn; the form is symmetric,
    so <b, a> = <a, b> and one block scan over the carrier finds it."""
    hit = _first_nontrivial(space, space.coords, space.coords)
    return None if hit is None else hit[:2]


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
