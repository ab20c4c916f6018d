import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobqec import (
    InvalidInputError,
    ResourceLimitError,
    Turn,
    additive_module,
    ideal_span,
    make_chain_ring,
    make_product,
    make_zm,
    nilpotency_index,
    nilradical,
    ring_pairing,
    submodule_span,
    verify_generating_character,
)
from frobqec.rings import digits, element_from_doc, element_to_doc, index_span, indices_of

from conftest import std_space

U = 2  # index of u in the chain(2, 2) carrier: coefficients (0, 1)


def test_z4_character_walks_quarter_turns(z4):
    assert [z4.epsilon(x) for x in z4.elements()] == [
        Turn(0, 1),
        Turn(1, 4),
        Turn(1, 2),
        Turn(3, 4),
    ]


def test_z4_arithmetic_spot_checks(z4):
    assert z4.add(3, 3) == 2
    assert z4.mul(3, 3) == 1
    assert z4.neg(1) == 3
    assert z4.sub(1, 3) == 2


def test_chain22_character_reads_top_coefficient(f2u):
    # carrier order: 0, 1, u, 1+u
    assert [f2u.epsilon(x) for x in f2u.elements()] == [
        Turn(0, 1),
        Turn(0, 1),
        Turn(1, 2),
        Turn(1, 2),
    ]


def test_chain22_nilpotent_unit_arithmetic(f2u):
    one_plus_u = f2u.add(f2u.one, U)
    assert f2u.mul(U, U) == f2u.zero
    assert f2u.mul(one_plus_u, one_plus_u) == f2u.one
    assert f2u.neg(U) == U


def test_chain_of_length_one_is_zm():
    a = make_chain_ring(5, 1)
    b = make_zm(5)
    assert np.array_equal(a.add_table, b.add_table)
    assert np.array_equal(a.mul_table, b.mul_table)
    assert np.array_equal(a.eps_num, b.eps_num) and a.eps_den == b.eps_den


def test_chain23_top_coefficient_character():
    ring = make_chain_ring(2, 3)
    u2 = ring.element_from_doc([0, 0, 1])
    assert ring.epsilon(u2) == Turn(1, 2)
    assert ring.epsilon(ring.one) == Turn(0, 1)
    assert verify_generating_character(ring)


def test_product_character_adds_componentwise(z6):
    z2, z3 = make_zm(2), make_zm(3)
    for a in z2.elements():
        for b in z3.elements():
            x = z6.element_from_doc([a, b])
            want = z2.epsilon(a).fraction + z3.epsilon(b).fraction
            assert z6.epsilon(x).fraction == want % 1


def test_product_is_crt_isomorphic_to_z6(z6):
    # Independent oracle: the CRT bijection x -> (x mod 2, x mod 3) must
    # transport the Z6 tables onto the product tables exactly.
    plain = make_zm(6)
    to_pair = {x: z6.element_from_doc([x % 2, x % 3]) for x in range(6)}
    for x in range(6):
        for y in range(6):
            assert to_pair[plain.add(x, y)] == z6.add(to_pair[x], to_pair[y])
            assert to_pair[plain.mul(x, y)] == z6.mul(to_pair[x], to_pair[y])
    assert to_pair[plain.one] == z6.one
    assert verify_generating_character(z6)


def test_sampled_triple_validation_path():
    # Past 256 elements the associativity sweep samples; the build must
    # still succeed and produce a generating character.
    ring = make_zm(1024)
    assert ring.size == 1024
    assert verify_generating_character(ring)


def test_halved_character_is_not_generating(z4):
    # epsilon'(x) = x/2 collapses 0 with 2, so pairing rows repeat.
    eps = np.array([0, 2, 0, 2])
    tampered = dataclasses.replace(z4, eps_num=eps)
    assert not verify_generating_character(tampered)


def test_ring_pairing_is_symmetric_and_separating(z4, f2u):
    for ring in (z4, f2u):
        rows = {}
        for x in ring.elements():
            row = tuple(ring_pairing(ring, x, y) for y in ring.elements())
            assert all(
                ring_pairing(ring, y, x) == row[y] for y in ring.elements()
            )
            rows[x] = row
        assert len(set(rows.values())) == ring.size


@pytest.mark.parametrize("bad", [1, 0, -3, "4", 2.0, None])
def test_make_zm_rejects_bad_modulus(bad):
    with pytest.raises(InvalidInputError):
        make_zm(bad)


def test_size_bounds():
    with pytest.raises(ResourceLimitError):
        make_zm(4097)
    with pytest.raises(ResourceLimitError):
        make_chain_ring(2, 13)
    with pytest.raises(ResourceLimitError):
        make_product(make_zm(128), make_zm(64))


def test_make_chain_rejects_bad_length():
    with pytest.raises(InvalidInputError):
        make_chain_ring(2, 0)


def test_element_docs_round_trip(z4, f2u, z6):
    for ring in (z4, f2u, z6):
        for x in ring.elements():
            assert ring.element_from_doc(ring.element_to_doc(x)) == x


def test_element_doc_shapes():
    fam_chain = {"family": "chain", "m": 2, "e": 2}
    assert element_to_doc(fam_chain, 2) == [0, 1]
    assert element_from_doc(fam_chain, [1, 1]) == 3
    fam_prod = {"family": "product", "factors": [{"family": "zm", "m": 2}, {"family": "zm", "m": 3}]}
    assert element_to_doc(fam_prod, 5) == [1, 2]


def test_element_from_doc_rejects_junk(z4, f2u, z6):
    with pytest.raises(InvalidInputError):
        z4.element_from_doc("1")
    with pytest.raises(InvalidInputError):
        z4.element_from_doc(True)
    with pytest.raises(InvalidInputError):
        f2u.element_from_doc([1])
    with pytest.raises(InvalidInputError):
        f2u.element_from_doc([1, "0"])
    with pytest.raises(InvalidInputError):
        z6.element_from_doc([1, 2, 3])
    with pytest.raises(InvalidInputError):
        element_from_doc({"family": "weird"}, 0)


# ---------------------------------------------------------------------------
# additive spans

def _close_under_addition(add, zero, items):
    """Reference: subgroup generated by ``items``, one generator at a
    time, as the union of the cosets S + j*g of the subgroup S so far."""
    closed = {zero}
    for g in items:
        if g in closed:
            continue
        multiples = []
        c = g
        while c not in closed:
            multiples.append(c)
            c = add(c, g)
        closed.update(add(s, m) for s in list(closed) for m in multiples)
    return closed


def test_close_under_addition_grows_cosets():
    z12 = make_zm(12)
    assert index_span(z12, 1, [4])[0].tolist() == [0, 4, 8]
    assert index_span(z12, 1, [4, 6])[0].tolist() == [0, 2, 4, 6, 8, 10]
    assert index_span(z12, 1, [])[0].tolist() == [0]
    # Only items outside the span so far grow it.
    assert index_span(z12, 1, [0, 4, 8, 6, 2])[1] == [1, 3]


def test_digits_round_trip():
    rows = digits(np.arange(36), 6, 2)
    assert rows[:3].tolist() == [[0, 0], [1, 0], [2, 0]]
    assert rows[7].tolist() == [1, 1]
    assert indices_of(rows, 6).tolist() == list(range(36))


def _tuple_add(ring):
    return lambda v, w: tuple(ring.add(a, b) for a, b in zip(v, w))


@pytest.mark.parametrize("ring_name", ["z4", "f2u", "z6", "z2z2"])
def test_spans_match_the_tuple_reference(request, ring_name):
    ring = make_product(make_zm(2), make_zm(2)) if ring_name == "z2z2" else (
        request.getfixturevalue(ring_name)
    )
    space = std_space(ring, 1, 2)
    rng = random.Random(20260822)
    for doubled, width in ((False, 2), (True, 4)):
        zero = (ring.zero,) * width
        for _ in range(25):
            gens = [tuple(rng.randrange(ring.size) for _ in range(width))
                    for _ in range(rng.randrange(4))]
            multiples = sorted({tuple(ring.mul(r, c) for c in g)
                                for g in gens for r in ring.elements()})
            span = submodule_span(space, gens, doubled=doubled)
            expected = _close_under_addition(_tuple_add(ring), zero, multiples)
            assert span.elements == tuple(sorted(expected))
            module = additive_module(space, gens, doubled=doubled)
            expected = _close_under_addition(_tuple_add(ring), zero, sorted(set(gens)))
            assert module.elements == tuple(sorted(expected))
    for _ in range(25):
        gens = [rng.randrange(ring.size) for _ in range(rng.randrange(3))]
        multiples = sorted({ring.mul(r, g) for g in gens for r in ring.elements()})
        expected = _close_under_addition(ring.add, ring.zero, multiples)
        assert ideal_span(ring, gens).elements == tuple(sorted(expected))


_PROPERTY_RINGS = [make_zm(4), make_zm(6), make_chain_ring(2, 2), make_chain_ring(3, 2)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_index_span_properties(data):
    ring = data.draw(st.sampled_from(_PROPERTY_RINGS))
    width = data.draw(st.integers(1, 3))
    items = data.draw(st.lists(st.integers(0, ring.size**width - 1), max_size=4))
    r_closed = data.draw(st.booleans())
    rows = digits(items, ring.size, width)
    if r_closed:
        rows = ring.mul_table[:, rows].reshape(-1, width)
    feed = indices_of(rows, ring.size).tolist()
    group, grew = index_span(ring, width, feed)
    assert (ring.size**width) % group.size == 0
    assert np.array_equal(group, np.unique(group))
    assert grew == sorted(set(grew))
    for i in grew:
        assert feed[i] not in index_span(ring, width, feed[:i])[0]
    assert np.array_equal(index_span(ring, width, [feed[i] for i in grew])[0], group)
    coords = digits(group, ring.size, width)
    sums = ring.add_table[coords[:, None, :], coords[None, :, :]].reshape(-1, width)
    assert np.isin(indices_of(sums, ring.size), group).all()
    if r_closed:
        scaled = ring.mul_table[:, coords].reshape(-1, width)
        assert np.isin(indices_of(scaled, ring.size), group).all()
    shuffled = data.draw(st.permutations(feed))
    assert np.array_equal(index_span(ring, width, shuffled)[0], group)


# ---------------------------------------------------------------------------
# ideals

def _index_by_hand(ring, elements):
    """Oracle: raise the ideal to successive powers by brute products."""
    power = set(elements) | {ring.zero}
    h = 1
    while power != {ring.zero}:
        raw = {ring.mul(p, x) for p in power for x in elements}
        power = _close_under_addition(ring.add, ring.zero, sorted(raw))
        h += 1
    return h


def test_ideal_span_and_membership(z4):
    two = ideal_span(z4, [2])
    assert two.elements == (0, 2)
    assert 2 in two and 1 not in two
    assert len(ideal_span(z4, [])) == 1
    assert len(ideal_span(z4, [3])) == 4


def test_nilradical_values(z4, f2u, z6):
    assert nilradical(z4).elements == (0, 2)
    assert nilradical(f2u).elements == (0, U)
    assert nilradical(z6).elements == (z6.zero,)
    assert nilradical(make_zm(12)).elements == (0, 6)
    assert nilradical(make_zm(5)).elements == (0,)


def test_nilpotency_index_matches_brute_force(z4, f2u):
    cases = [
        (z4, [2]),
        (f2u, [U]),
        (make_zm(8), [2]),
        (make_zm(27), [3]),
        (make_chain_ring(2, 3), [2]),
    ]
    for ring, gens in cases:
        ideal = ideal_span(ring, gens)
        assert nilpotency_index(ideal) == _index_by_hand(ring, ideal.elements)
    assert nilpotency_index(ideal_span(z4, [2])) == 2
    assert nilpotency_index(ideal_span(z4, [])) == 1


def test_nilpotency_index_rejects_non_nil(z4):
    with pytest.raises(InvalidInputError):
        nilpotency_index(ideal_span(z4, [1]))


def test_chain_ring_with_odd_modulus():
    ring = make_chain_ring(3, 2)
    assert ring.size == 9
    u = ring.element_from_doc([0, 1])
    assert ring.mul(u, u) == ring.zero
    assert nilradical(ring).elements == tuple(
        sorted(ring.element_from_doc([0, c]) for c in range(3))
    )


def test_tables_are_write_protected(z4):
    with pytest.raises(ValueError):
        z4.add_table[0, 0] = 1
