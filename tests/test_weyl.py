"""The symbolic operator calculus and the label correspondence.

The load-bearing subtleties: closures are finite but can pick up
scalars the generators never mention, label sets are only additively
closed, and the phase fix has to clear scalars that appear in cross
relations rather than in any single generator's own order.
"""

import random
import tracemalloc

import pytest

import frobqec.weyl
from frobqec import (
    ConsistencyError,
    InvalidInputError,
    ResourceLimitError,
    StabiliserGroup,
    Turn,
    additive_module,
    code_dimension,
    commutator,
    enumerate_submodules,
    group_closure,
    identity_element,
    is_abelian_mod_scalars,
    is_isotropic,
    join_label,
    label_module_of,
    make_space,
    noncommutativity_witness,
    offending_pair,
    omega,
    phase_fix,
    phase_pairing,
    reconstruct_pairing,
    split_label,
    stabiliser_of_labels,
    submodule_span,
    weyl_element,
    weyl_inv,
    weyl_mul,
)
from frobqec.rings import TURN_ZERO

from conftest import std_space

U = 2
T0 = Turn()


def _w(space, turn, a, b):
    return weyl_element(space, turn, a, b)


def test_product_rule_z4(z4_line):
    p = weyl_mul(z4_line, _w(z4_line, T0, (1,), (1,)), _w(z4_line, T0, (1,), (0,)))
    assert (p.turn, p.shift, p.phase) == (Turn(1, 4), (2,), (1,))


def test_inverse_z4(z4_line):
    e = _w(z4_line, T0, (1,), (1,))
    inv = weyl_inv(z4_line, e)
    assert (inv.turn, inv.shift, inv.phase) == (Turn(1, 4), (3,), (3,))
    assert weyl_mul(z4_line, e, inv) == identity_element(z4_line)
    assert weyl_mul(z4_line, inv, e) == identity_element(z4_line)


def test_every_element_cancels_its_inverse(z4_line):
    ident = identity_element(z4_line)
    for t in (T0, Turn(1, 4)):
        for a in z4_line.vectors():
            for b in z4_line.vectors():
                e = _w(z4_line, t, a, b)
                assert weyl_mul(z4_line, e, weyl_inv(z4_line, e)) == ident


def test_product_is_associative(f2u_line):
    elems = [
        _w(f2u_line, t, a, b)
        for t in (T0, Turn(1, 2))
        for a in f2u_line.vectors()
        for b in f2u_line.vectors()
    ]
    sample = elems[::5]
    for x in sample:
        for y in sample[::3]:
            for z in sample[::4]:
                left = weyl_mul(f2u_line, weyl_mul(f2u_line, x, y), z)
                right = weyl_mul(f2u_line, x, weyl_mul(f2u_line, y, z))
                assert left == right


def test_mixed_generator_squares_to_minus_one(f2u_plane):
    e = _w(f2u_plane, T0, (1, 0), (U, 0))
    square = weyl_mul(f2u_plane, e, e)
    assert square.turn == Turn(1, 2)
    assert square.shift == f2u_plane.zero_vector()


def test_omega_frozen_value(z4_line):
    assert omega(z4_line, ((1,), (0,)), ((0,), (1,))) == Turn(3, 4)
    assert omega(z4_line, ((0,), (1,)), ((1,), (0,))) == Turn(1, 4)


def test_omega_is_alternating_and_antisymmetric(z4_line):
    labels = [(a, b) for a in z4_line.vectors() for b in z4_line.vectors()]
    for p in labels:
        assert omega(z4_line, p, p).is_zero
        for q in labels[::3]:
            assert omega(z4_line, p, q) == -omega(z4_line, q, p)


def test_omega_is_biadditive(z2_line):
    labels = [(a, b) for a in z2_line.vectors() for b in z2_line.vectors()]
    add = z2_line.add_vec
    for p in labels:
        for q in labels:
            for r in labels:
                joined = (add(q[0], r[0]), add(q[1], r[1]))
                assert omega(z2_line, p, joined) == omega(z2_line, p, q) + omega(
                    z2_line, p, r
                )


def test_commutator_equals_omega_exhaustively(z4_line):
    for a in z4_line.vectors():
        for b in z4_line.vectors():
            e1 = _w(z4_line, T0, a, b)
            for a2 in z4_line.vectors():
                for b2 in z4_line.vectors():
                    e2 = _w(z4_line, Turn(1, 4), a2, b2)
                    assert commutator(z4_line, e1, e2) == _commutator_by_products(
                        z4_line, e1, e2
                    )


def _commutator_by_products(space, e1, e2):
    """Reference: e1 e2 e1^-1 e2^-1 as three products and two inverses."""
    prod = weyl_mul(space, weyl_mul(space, e1, e2),
                    weyl_mul(space, weyl_inv(space, e1), weyl_inv(space, e2)))
    assert prod.label == (space.zero_vector(), space.zero_vector())
    return prod.turn


def _random_element(space, rng):
    shift, phase = (tuple(rng.randrange(space.ring.size) for _ in range(space.rank))
                    for _ in range(2))
    return _w(space, Turn(rng.randrange(12), 12), shift, phase)


@pytest.mark.parametrize("name,kind", [("z4", "hyperbolic"), ("f2u", "pair"),
                                       ("f2u", "hyperbolic"), ("z6", "pair"), ("z6", "hyperbolic")])
def test_commutator_matches_the_product_reference(name, kind, z4, f2u, z6):
    """Seeded pairs on the spaces the exhaustive Z_4-line test leaves out."""
    ring = {"z4": z4, "f2u": f2u, "z6": z6}[name]
    rng = random.Random(f"commutator-{name}-{kind}")
    space = (std_space(ring, 1, 2) if kind == "pair"
             else make_space(ring, 2, 1, ((ring.zero, ring.one), (ring.one, ring.zero))))
    for _ in range(150):
        e1, e2 = (_random_element(space, rng) for _ in range(2))
        assert commutator(space, e1, e2) == _commutator_by_products(space, e1, e2)


def test_weyl_element_validates_labels(z4_line):
    with pytest.raises(InvalidInputError):
        weyl_element(z4_line, T0, (1, 0), (0,))
    with pytest.raises(InvalidInputError):
        weyl_element(z4_line, T0, (4,), (0,))


# ---------------------------------------------------------------------------
# closures

def test_single_shift_closure(z4_line):
    s = group_closure(z4_line, [_w(z4_line, T0, (2,), (0,))])
    assert len(s) == 2
    assert s.scalar_free
    assert code_dimension(z4_line, s) == 2


def test_shift_phase_closure_collects_all_quarter_scalars(z4_line):
    s = group_closure(
        z4_line,
        [_w(z4_line, T0, (1,), (0,)), _w(z4_line, T0, (0,), (1,))],
    )
    assert len(s) == 64
    assert set(s.scalar_turns) == {T0, Turn(1, 4), Turn(1, 2), Turn(3, 4)}
    assert not s.scalar_free
    assert code_dimension(z4_line, s) == 0


def test_closure_respects_bound(z4_line):
    with pytest.raises(ResourceLimitError):
        group_closure(
            z4_line,
            [_w(z4_line, T0, (1,), (0,)), _w(z4_line, T0, (0,), (1,))],
            bound=8,
        )


def test_mixed_chain_closure(f2u_plane):
    g1 = _w(f2u_plane, T0, (1, 0), (U, 0))
    g2 = _w(f2u_plane, T0, (0, 1), (0, U))
    s = group_closure(f2u_plane, [g1, g2])
    assert len(s) == 8
    assert set(s.scalar_turns) == {T0, Turn(1, 2)}
    assert is_abelian_mod_scalars(s)
    assert offending_pair(s) is None


def test_offending_pair_reports_omega(z4_line):
    s = group_closure(
        z4_line,
        [_w(z4_line, T0, (1,), (0,)), _w(z4_line, T0, (0,), (1,))],
    )
    assert not is_abelian_mod_scalars(s)
    g, h, value = offending_pair(s)
    assert value == Turn(3, 4)
    assert (g.label, h.label) == (((1,), (0,)), ((0,), (1,)))


def _first_offending_by_brute_force(space, gens):
    """Reference: every generator pair in row-major order."""
    for i, g in enumerate(gens):
        for h in gens[i:]:
            value = omega(space, g.label, h.label)
            if not value.is_zero:
                return (g, h, value)
    return None


@pytest.mark.parametrize(
    "ring_name, k, n",
    [("z2", 1, 2), ("z4", 1, 1), ("z4", 1, 2), ("f2u", 1, 1), ("f2u", 2, 1), ("z6", 1, 1)],
)
def test_offending_pair_matches_all_pairs(request, ring_name, k, n):
    space = std_space(request.getfixturevalue(ring_name), k, n)
    rng = random.Random(20260822)
    turns = [T0, Turn(1, 2), Turn(1, 4)]
    outcomes = set()
    for _ in range(80):
        gens = []
        for _ in range(rng.randrange(1, 7)):
            if gens and rng.random() < 0.4:
                # A label inside the span of the earlier ones.
                g = weyl_mul(space, rng.choice(gens), rng.choice(gens))
            else:
                vec = lambda: tuple(rng.randrange(space.ring.size) for _ in range(space.rank))
                g = _w(space, rng.choice(turns), vec(), vec())
            gens.append(g)
        found = offending_pair(StabiliserGroup(space, gens, []))
        assert found == _first_offending_by_brute_force(space, gens)
        outcomes.add(found is None)
    assert outcomes == {True, False}


def test_phase_fix_compares_only_span_growing_generators(z4, monkeypatch):
    # Lifting all 64 labels of R*(e_i, e_i) makes 64 generators; comparing
    # every pair of them would take 2080 omega calls.
    space = std_space(z4, 1, 3)
    diagonal = [tuple(int(i == j) for j in range(3)) * 2 for i in range(3)]
    module = submodule_span(space, diagonal, doubled=True)
    assert len(module) == 64
    calls = []
    real = frobqec.weyl.omega
    monkeypatch.setattr(frobqec.weyl, "omega", lambda *a: calls.append(a) or real(*a))
    s = stabiliser_of_labels(space, module)
    assert not s.scalar_free
    fixed = phase_fix(s)
    assert fixed.scalar_free
    assert label_module_of(fixed) == module
    assert len(calls) < 64


def _brute_closure(space, gens, cap):
    """Reference closure by breadth-first right multiplication with the
    generators; None as soon as it holds more than ``cap`` elements.

    Every element of a finite group is a positive word in its
    generators, so this reaches the whole group without the label walk.
    """
    seen = {identity_element(space)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = weyl_mul(space, x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        if len(seen) > cap:
            return None
        frontier = fresh
    return seen


def _labels(group):
    return {join_label(e.label) for e in group.elements}


@pytest.mark.parametrize(
    "ring_name, k, n", [("z2", 1, 2), ("z4", 1, 1), ("f2u", 1, 1), ("z6", 1, 1)]
)
def test_walk_matches_brute_force_closure(request, ring_name, k, n):
    space = std_space(request.getfixturevalue(ring_name), k, n)
    rng = random.Random(f"{ring_name}-{k}-{n}")
    turns = (T0, Turn(1, 3), Turn(1, 8))
    cap = 64
    seen = {"refused": 0, "fixed": 0, "non_abelian": 0}
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 3)):
            a = tuple(rng.randrange(space.ring.size) for _ in range(space.rank))
            b = tuple(rng.randrange(space.ring.size) for _ in range(space.rank))
            if rng.random() < 0.5:
                b = space.zero_vector()
            gens.append(_w(space, rng.choice(turns), a, b))
        reference = _brute_closure(space, gens, cap)
        if reference is None:
            with pytest.raises(ResourceLimitError):
                group_closure(space, gens, bound=cap)
            seen["refused"] += 1
            continue
        s = group_closure(space, gens, bound=cap)
        assert set(s.elements) == reference
        assert s.generators == tuple(gens)
        if s.scalar_free:
            assert phase_fix(s) is s
        elif not is_abelian_mod_scalars(s):
            with pytest.raises(InvalidInputError):
                phase_fix(s)
            seen["non_abelian"] += 1
        else:
            fixed = phase_fix(s)
            assert fixed.scalar_free
            assert _labels(fixed) == _labels(s)
            assert set(fixed.elements) == _brute_closure(space, fixed.generators, cap)
            seen["fixed"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "ring_name, n, turns, diagonal",
    [
        ("z4", 2, ((1, 8), (1, 3)), False),
        ("z4", 2, ((3, 8), (0, 1)), True),
        ("z2", 3, ((1, 4), (1, 8), (3, 8)), False),
        ("z6", 2, ((1, 5), (1, 7)), True),
    ],
)
def test_phase_fix_retunes_every_growing_generator(request, ring_name, n, turns, diagonal):
    # Commuting labels (e_i, 0) or (e_i, e_i), turns off the ring's grid:
    # each generator grows the label table by the order |R| of its label,
    # so each is retuned and multiplies the group denominator by |R|.
    space = std_space(request.getfixturevalue(ring_name), 1, n)
    ring = space.ring
    zero = space.zero_vector()
    units = [tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)]
    gens = [_w(space, Turn(*t), e, e if diagonal else zero) for t, e in zip(turns, units)]
    s = group_closure(space, gens)
    assert not s.scalar_free
    fixed = phase_fix(s)
    assert fixed.denominator == ring.eps_den * ring.size**n
    assert len(fixed.generators) == n
    assert fixed.scalar_free and _labels(fixed) == _labels(s)
    assert set(fixed.elements) == _brute_closure(space, fixed.generators, len(fixed))


def test_closure_refuses_the_bound_before_building(z2):
    # The full Weyl group of Z_2 on 12 sites has 2^25 elements; the walk
    # must see that from the label table long before it is built.  A
    # table at the bound, 4096 labels of 24 coordinates, is under 1 MiB;
    # one built past it would be tens of MiB.
    space = std_space(z2, 1, 12)
    zero = space.zero_vector()
    units = [tuple(int(i == j) for j in range(space.rank)) for i in range(space.rank)]
    gens = [_w(space, T0, e, zero) for e in units] + [_w(space, T0, zero, e) for e in units]
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            group_closure(space, gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"refusing the closure peaked at {peak} bytes"


def test_closure_refuses_a_denominator_past_the_turn_grid(z2_line):
    # A bound far past any real table lets a turn of 1/10^20 through the
    # order check; its denominator would wrap int64 numerators.
    g = _w(z2_line, Turn(1, 10**20), (1,), (0,))
    with pytest.raises(ResourceLimitError):
        group_closure(z2_line, [g], bound=10**30)


# ---------------------------------------------------------------------------
# label correspondence

def test_label_module_is_additive_only(f2u_plane):
    g1 = _w(f2u_plane, T0, (1, 0), (U, 0))
    g2 = _w(f2u_plane, T0, (0, 1), (0, U))
    s = group_closure(f2u_plane, [g1, g2])
    labels = label_module_of(s)
    assert len(labels) == 4
    assert labels.doubled and not labels.r_closed
    # u times a label of the group is not itself a label.
    scaled = f2u_plane.scalar_vec(U, join_label(g1.label))
    assert scaled not in labels


def test_join_split_round_trip(f2u_plane):
    pair = ((1, 0), (U, 1))
    assert split_label(f2u_plane, join_label(pair)) == pair


def test_additive_isotropy_does_not_extend_to_scalar_span(f2u_line):
    # The labels of a commuting pure shift and pure phase: additively
    # isotropic, but the scalar span pulls in (0, u) against (1, 0) and
    # the pairing sees it.  This is why label modules stay additive.
    gens = [(1, 0), (0, 1)]
    add_mod = additive_module(f2u_line, gens, doubled=True)
    assert is_isotropic(f2u_line, add_mod)
    span = submodule_span(f2u_line, gens, doubled=True)
    assert not is_isotropic(f2u_line, span)


def test_isotropy_r_closed_branch(z4_line):
    assert is_isotropic(z4_line, submodule_span(z4_line, [(1, 1)], doubled=True))
    assert is_isotropic(z4_line, submodule_span(z4_line, [(2, 2)], doubled=True))
    assert not is_isotropic(
        z4_line, submodule_span(z4_line, [(1, 0), (0, 1)], doubled=True)
    )


def test_isotropy_rejects_plain_modules(z4_line):
    with pytest.raises(InvalidInputError):
        is_isotropic(z4_line, submodule_span(z4_line, [(2,)]))


def test_label_round_trip_over_all_isotropic_modules(z4_line, f2u_line):
    for space in (z4_line, f2u_line):
        for module in enumerate_submodules(space, doubled=True):
            if not is_isotropic(space, module):
                continue
            s = stabiliser_of_labels(space, module)
            assert label_module_of(s) == module


def test_stabiliser_of_labels_rejects_non_isotropic(z4_line):
    bad = submodule_span(z4_line, [(1, 0), (0, 1)], doubled=True)
    with pytest.raises(InvalidInputError):
        stabiliser_of_labels(z4_line, bad)


# ---------------------------------------------------------------------------
# phase fixing

def test_phase_fix_clears_cross_relation_scalars(z4_line):
    # Lifting every element of R * (1, 1) with turn zero strands a -1 in
    # products of distinct generators; no per-generator scalar tweak can
    # see it, the incremental rebuild does.
    module = submodule_span(z4_line, [(1, 1)], doubled=True)
    s = stabiliser_of_labels(z4_line, module)
    assert not s.scalar_free
    fixed = phase_fix(s)
    assert fixed.scalar_free
    assert label_module_of(fixed) == module
    assert code_dimension(z4_line, fixed) == 1


def test_phase_fix_mixed_chain_group(f2u_plane):
    g1 = _w(f2u_plane, T0, (1, 0), (U, 0))
    g2 = _w(f2u_plane, T0, (0, 1), (0, U))
    s = group_closure(f2u_plane, [g1, g2])
    fixed = phase_fix(s)
    assert fixed.scalar_free
    assert len(fixed) == 4
    assert code_dimension(f2u_plane, fixed) == 4
    assert label_module_of(fixed) == label_module_of(s)


def test_phase_fix_returns_scalar_free_groups_untouched(z4_line):
    s = group_closure(z4_line, [_w(z4_line, T0, (2,), (0,))])
    assert phase_fix(s) is s


def test_phase_fix_rejects_non_abelian(z4_line):
    s = group_closure(
        z4_line,
        [_w(z4_line, T0, (1,), (0,)), _w(z4_line, T0, (0,), (1,))],
    )
    with pytest.raises(InvalidInputError):
        phase_fix(s)


def test_phase_fix_every_isotropic_module(z4_line, f2u_line):
    # The lift-all construction is the worst case: every cyclic relation
    # between lifted elements has to be solved.
    for space in (z4_line, f2u_line):
        for module in enumerate_submodules(space, doubled=True):
            if not is_isotropic(space, module):
                continue
            fixed = phase_fix(stabiliser_of_labels(space, module))
            assert fixed.scalar_free
            assert label_module_of(fixed) == module
            assert code_dimension(space, fixed) * len(module) == space.size


def test_code_dimension_divisibility_guard(z4_line):
    bad = group_closure(z4_line, [_w(z4_line, T0, (2,), (0,))])
    # Three labels with scalar-free turns: an order that cannot divide 4.
    forged = type(bad)(z4_line, bad.generators, [0, 1, 2], [0, 0, 0], 4)
    assert forged.scalar_free and len(forged) == 3
    with pytest.raises(ConsistencyError):
        code_dimension(z4_line, forged)


# ---------------------------------------------------------------------------
# reconstruction

def test_noncommutativity_witness(z4_line, z2_line):
    assert noncommutativity_witness(z4_line) == ((1,), (1,))
    assert noncommutativity_witness(z2_line) == ((1,), (1,))


def test_reconstruct_pairing_matches_direct_values(z4_line, f2u_line, z6, f2u):
    # The batched products run on the same form kernel as the reference
    # numerators of the acceptance criteria, so check them against the
    # scalar pairing, on a non-identity form as well.
    spaces = (z4_line, f2u_line, std_space(z6, 1, 2), make_space(f2u, 2, 1, ((U, 1), (1, 0))))
    for space in spaces:
        table = reconstruct_pairing(space)
        assert len(table) == space.size**2
        for (b, a), turn in table.items():
            assert turn == phase_pairing(space, b, a)


def test_reconstructed_half_turn_count(f2u_line):
    # Oracle: count pairs with character(b * a) = -1 straight from the
    # ring tables; 6 of the 16 products land on u or u + 1... times u.
    ring = f2u_line.ring
    direct = sum(
        1
        for a in ring.elements()
        for b in ring.elements()
        if ring.epsilon(ring.mul(b, a)) == Turn(1, 2)
    )
    table = reconstruct_pairing(f2u_line)
    assert sum(1 for t in table.values() if t == Turn(1, 2)) == direct
    assert direct == 6
