"""Symbolic shift and phase operators and their finite groups.

An element (t, a, b) stands for the unitary exp(2 pi i t) T_a M_b on
functions over the carrier: T_a translates by a, M_b multiplies by the
pairing character of b.  Reordering two such operators only ever costs
a phase, so the whole calculus closes over exact turns:

    (t, a, b) * (t', a', b') = (t + t' + <b, a'>, a + a', b + b')

where <b, a'> is the phase pairing turn.  Commutators land in the
scalars; their value is the alternating bicharacter ``omega`` of the
label pairs, which is what stabiliser analysis runs on.

Group closure and phase fixing share one label walk: a table of one
representative element per label, whose Schreier scalars generate the
scalar subgroup Z.  So |G| = |L| * |Z| is known, and the group bound
checked, before any table is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError
from .rings import TURN_ZERO, Turn, index_span, indices_of, turn_sort_key
from .spaces import (
    PhaseSpace,
    Submodule,
    Vector,
    _check_vector,
    _first_nontrivial,
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
    """Group commutator e1 e2 e1^-1 e2^-1; always a scalar."""
    prod = weyl_mul(space, weyl_mul(space, e1, e2),
                    weyl_mul(space, weyl_inv(space, e1), weyl_inv(space, e2)))
    zero = space.zero_vector()
    if prod.shift != zero or prod.phase != zero:
        raise ConsistencyError("commutator left the scalar subgroup")
    return prod.turn


def _element_key(e: WeylElement):
    return (e.shift, e.phase, turn_sort_key(e.turn))


class StabiliserGroup:
    """A finite, multiplicatively closed set of Weyl elements."""

    def __init__(self, space: PhaseSpace, generators, elements):
        self.space = space
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements, key=_element_key))
        self._element_set = frozenset(self.elements)

    @cached_property
    def scalar_turns(self) -> tuple[Turn, ...]:
        zero = self.space.zero_vector()
        turns = {e.turn for e in self.elements if e.shift == zero and e.phase == zero}
        return tuple(sorted(turns, key=turn_sort_key))

    @property
    def scalar_free(self) -> bool:
        return self.scalar_turns == (TURN_ZERO,)

    def __contains__(self, e: WeylElement) -> bool:
        return e in self._element_set

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"<stabiliser group of order {len(self)}>"


def _powers(space: PhaseSpace, g: WeylElement, count: int) -> list[WeylElement]:
    """g^0, g^1, ..., g^count."""
    out = [identity_element(space)]
    for _ in range(count):
        out.append(weyl_mul(space, out[-1], g))
    return out


def _label_walk(space: PhaseSpace, generators, bound: int, *, retune: bool):
    """Grow a table of one representative element per label, one
    generator at a time.

    A generator g with label c first lands in the table at its least
    multiple d*c and adds the cosets L + j*c (j < d) as rep(l) * g^j.
    By Schreier's lemma its scalar g^d * rep(d*c)^-1 and its omega with
    the earlier table-growing generators generate the scalar group Z,
    cyclic of order the lcm of their denominators.  The partial
    |L| * |Z| only grows; it is checked against the bound before each
    larger table is built.  ``retune`` first moves each turn t to
    (d*t - scalar).root(d), which zeroes that generator's scalar.
    Returns the table, the generators that grew it, and |Z|.
    """
    ident = identity_element(space)
    table: dict[Vector, WeylElement] = {join_label(ident.label): ident}
    grown: list[WeylElement] = []
    order = 1
    for g in generators:
        c = join_label(g.label)
        d, multiple = 1, c
        while multiple not in table:
            multiple = space.add_vec(multiple, c)
            d += 1
        target = table[multiple].turn
        powers = _powers(space, g, d)
        if retune:
            g = WeylElement((d * g.turn - powers[d].turn + target).root(d), g.shift, g.phase)
            powers = _powers(space, g, d)
        scalars = [powers[d].turn - target]
        if d > 1:
            scalars += [omega(space, g.label, h.label) for h in grown]
        order = math.lcm(order, *(t.denominator for t in scalars))
        if len(table) * d * order > bound:
            raise ResourceLimitError(f"group closure exceeded the bound of {bound} elements")
        if d > 1:
            products = (weyl_mul(space, e, p) for e in table.values() for p in powers[:d])
            table = {join_label(x.label): x for x in products}
            grown.append(g)
    return table, grown, order


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
    table, _, order = _label_walk(space, gens, bound, retune=False)
    elems = [
        WeylElement(rep.turn + Turn(j, order), rep.shift, rep.phase)
        for rep in table.values()
        for j in range(order)
    ]
    return StabiliserGroup(space, gens, elems)


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
    labels = indices_of([join_label(e.label) for e in s.elements], s.space.ring.size)
    gen_labels = [join_label(g.label) for g in s.generators]
    return Submodule(s.space, gen_labels, labels, doubled=True, r_closed=False)


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

    table, new_gens, order = _label_walk(space, s.generators, len(s), retune=True)
    fixed = StabiliserGroup(space, new_gens, table.values())
    if order != 1:
        raise ConsistencyError("phase fixing left an irreducible scalar")
    if {join_label(e.label) for e in fixed.elements} != {
        join_label(e.label) for e in s.elements
    }:
        raise ConsistencyError("phase fixing changed the label set")
    return fixed


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
    """Recover the phase pairing from group commutators alone.

    For each pair, commute a pure shift against a pure phase with the
    group operations only, then invert the relation
    T_a M_b = pairing(b, a)^-1 M_b T_a.  The table is keyed (b, a).
    """
    if space.size * space.size > (1 << 20):
        raise ResourceLimitError("pairing reconstruction table would be too large")
    zero = space.zero_vector()
    table: dict[tuple[Vector, Vector], Turn] = {}
    for a in space.vectors():
        shift = WeylElement(TURN_ZERO, a, zero)
        for b in space.vectors():
            phase = WeylElement(TURN_ZERO, zero, b)
            table[(b, a)] = -commutator(space, shift, phase)
    return table
