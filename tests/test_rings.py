import dataclasses
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobqec import (
    ConsistencyError,
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
from frobqec import rings
from frobqec.rings import (
    digits,
    element_from_doc,
    element_rows,
    element_to_doc,
    index_span,
    indices_of,
)

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


def test_chain_of_length_one_is_zm():
    a = make_chain_ring(5, 1)
    b = make_zm(5)
    assert a.radices == b.radices == (5,)
    for name in ("structure", "place", "sums", "lo_of", "hi_of", "mul_lo", "mul_hi"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.eps_num, b.eps_num) and a.eps_den == b.eps_den


def test_chain23_top_coefficient_character():
    ring = make_chain_ring(2, 3)
    u2 = ring.element_from_doc([0, 0, 1])
    assert ring.epsilon(u2) == Turn(1, 2)
    assert ring.epsilon(ring.one) == Turn(0, 1)
    assert verify_generating_character(ring)


def test_product_character_adds_componentwise(z6):
    z2, z3 = make_zm(2), make_zm(3)
    fraction = lambda t: Fraction(t.numerator, t.denominator)
    for a in z2.elements():
        for b in z3.elements():
            x = z6.element_from_doc([a, b])
            want = fraction(z2.epsilon(a)) + fraction(z3.epsilon(b))
            assert fraction(z6.epsilon(x)) == want % 1


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


def _fill(layout, fields):
    """The layout with its "{}" leaves taken from the fields iterator."""
    if layout == "{}":
        return next(fields)
    return [_fill(item, fields) for item in layout]


@pytest.mark.parametrize("build", [
    lambda: make_zm(12),
    lambda: make_chain_ring(3, 3),
    lambda: make_product(make_chain_ring(2, 2), make_zm(3)),
    lambda: make_product(make_zm(5), make_product(make_zm(2), make_chain_ring(3, 2))),
    lambda: make_product(make_product(make_chain_ring(2, 3), make_zm(3)), make_chain_ring(2, 2)),
])
def test_element_rows_fill_the_element_documents(build):
    ring = build()
    layout, fields = element_rows(ring, ring.elements())
    assert fields.shape[0] == ring.size
    for x, row in enumerate(fields.tolist()):
        it = iter(row)
        assert _fill(layout, it) == ring.element_to_doc(x)
        assert next(it, None) is None
    picked = [ring.size - 1, 0, 3]
    assert np.array_equal(element_rows(ring, picked)[1], fields[picked])


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
    # Each grower's d and d*y, the construction order (the coset j*6 + M
    # of M = {0, 4, 8} after M), and the stop before a table past bound.
    _, grew, index, reach, built, stop = index_span(z12, 1, [4, 6])
    assert ((grew, index.tolist(), reach.tolist(), built.tolist(), stop)
            == ([0, 1], [3, 2], [0, 0], [0, 4, 8, 6, 10, 2], None))
    _, grew, index, reach, built, stop = index_span(z12, 1, [4, 8, 6], bound=5)
    assert ((grew, index.tolist(), reach.tolist(), built.tolist(), stop)
            == ([0], [3, 1], [0, 8], [0, 4, 8], 2))


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
        rows = ring.mul_many(np.arange(ring.size)[:, None, None], rows).reshape(-1, width)
    feed = indices_of(rows, ring.size).tolist()
    group, grew = index_span(ring, width, feed)[:2]
    assert (ring.size**width) % group.size == 0
    assert np.array_equal(group, np.unique(group))
    assert grew == sorted(set(grew))
    for i in grew:
        assert feed[i] not in index_span(ring, width, feed[:i])[0]
    assert np.array_equal(index_span(ring, width, [feed[i] for i in grew])[0], group)
    coords = digits(group, ring.size, width)
    sums = ring.add_many(coords[:, None, :], coords[None, :, :]).reshape(-1, width)
    assert np.isin(indices_of(sums, ring.size), group).all()
    if r_closed:
        scaled = ring.mul_many(np.arange(ring.size)[:, None, None], coords).reshape(-1, width)
        assert np.isin(indices_of(scaled, ring.size), group).all()
    shuffled = data.draw(st.permutations(feed))
    assert np.array_equal(index_span(ring, width, shuffled)[0], group)


def _index_span_by_hand(ring, width, items):
    """Reference for ``index_span``: each growing item's multiples one
    addition at a time, until one lies in the group so far."""
    add = lambda v, w: tuple(ring.add(a, b) for a, b in zip(v, w))
    index = lambda v: int(indices_of([v], ring.size)[0])
    group, grew = {(ring.zero,) * width}, []
    for i, item in enumerate(items):
        y = tuple(digits(item, ring.size, width)[0].tolist())
        if y in group:
            continue
        grew.append(i)
        multiples = [y]
        while add(multiples[-1], y) not in group:
            multiples.append(add(multiples[-1], y))
        group |= {add(v, j) for v in group for j in multiples}
    return sorted(map(index, group)), grew


@pytest.mark.parametrize("ring, width", [(r, w) for r in _PROPERTY_RINGS for w in (1, 2, 3)]
                         + [(make_zm(4096), 1), (make_product(make_zm(8), make_zm(9)), 2)],
                         ids=lambda v: str(v) if isinstance(v, int) else repr(v.family))
def test_index_span_matches_the_walk_by_hand(ring, width):
    # The multiples come from digit arithmetic in one array step; the
    # group and the growing items must be those of the walk by hand.
    rng = random.Random(f"{ring.family} {width}")
    size = ring.size**width
    # In Z_4096, 6 grows {0, 1024, 2048, 3072} by 511 cosets, not 2047.
    for trial in range(6):
        items = ([size // 4, 6 % size, 3 % size] if trial == 0
                 else [rng.randrange(size) for _ in range(rng.randrange(1, 5))])
        if rng.random() < 0.5:  # multiples of the first item, and zero
            items += [int(indices_of(ring.mul_many(rng.randrange(ring.size),
                                                   digits(items[0], ring.size, width)),
                                     ring.size)[0]), 0]
        group, grew = index_span(ring, width, items)[:2]
        assert (group.tolist(), grew) == _index_span_by_hand(ring, width, items)


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


def test_ideal_is_held_as_a_checked_index_array(z4, f2u):
    for ring, elems, reason in ((z4, [0, 1], "additively closed"), (z4, [1, 3], "missing zero"),
                                (f2u, [0, 1], "ring multiples")):
        with pytest.raises(ConsistencyError, match=reason):
            rings.Ideal(ring, np.array(elems))
    given = np.array([2, 0, 2])
    ideal = rings.Ideal(z4, given)
    assert given.flags.writeable
    assert not ideal.indices.flags.writeable and not ideal.spanning.flags.writeable
    assert ideal.indices.dtype == np.int64 and ideal.elements == (0, 2)


@pytest.mark.parametrize("ring", _PROPERTY_RINGS + [
    make_chain_ring(4, 2), make_product(make_zm(4), make_chain_ring(2, 2))
], ids=["Z_4", "Z_6", "chain(2,2)", "chain(3,2)", "chain(4,2)", "Z_4 x chain(2,2)"])
def test_spanning_generates_the_ideal(ring):
    # At most log2 |I| elements, and their additive span is all of I.
    for ideal in [nilradical(ring)] + [ideal_span(ring, [x]) for x in ring.elements()]:
        assert len(ideal.spanning) <= len(ideal).bit_length() - 1
        assert np.array_equal(index_span(ring, 1, ideal.spanning)[0], ideal.indices)


def test_nilpotency_index_matches_brute_force(z4, f2u):
    chain42 = make_chain_ring(4, 2)
    cases = [ideal_span(ring, gens) for ring, gens in [
        (z4, [2]),
        (f2u, [U]),
        (make_zm(8), [2]),
        (make_zm(27), [3]),
        (make_chain_ring(2, 3), [2]),
    ]]
    # Ideals with two or more greedy additive generators.
    wide = [nilradical(ring) for ring in (chain42, make_chain_ring(4, 3),
                                          make_product(z4, f2u),
                                          make_product(make_zm(8), make_zm(9)),
                                          make_product(make_zm(16), make_zm(8)))]
    wide.append(ideal_span(chain42, [2, chain42.element_from_doc([0, 1])]))
    assert all(len(ideal.spanning) >= 2 for ideal in wide)
    for ideal in cases + wide:
        assert nilpotency_index(ideal) == _index_by_hand(ideal.ring, ideal.elements)
    assert nilpotency_index(ideal_span(z4, [2])) == 2
    assert nilpotency_index(ideal_span(z4, [])) == 1


@pytest.mark.parametrize("build, index", [
    (lambda: make_chain_ring(2, 12), 12), (lambda: make_chain_ring(4, 6), 7),
    (lambda: make_zm(4096), 12),
], ids=["chain(2,12)", "chain(4,6)", "Z_4096"])
def test_nilpotency_index_of_the_largest_nilradicals(build, index):
    # Closed forms: u^e = 0 in a chain ring, and 2^12 = 0 in Z_4096.
    assert nilpotency_index(nilradical(build())) == index


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
    for vector in (z4.place, z4.sums):
        with pytest.raises(ValueError):
            vector[0] = 1


# ---------------------------------------------------------------------------
# table builds and validation
#
# The reference builders use the plain int64 formulas: (i op j) % m for
# Z_m, digit-wise sums and the coefficient convolution for chain rings,
# and componentwise tables for products.  Each returns (size, rows, neg,
# eps_num, eps_den), where rows(start, stop) gives the addition and
# multiplication rows of the elements start..stop-1, so no reference
# table of a 4096-element ring is ever held whole.

_REFERENCE_ROWS = 128


def _reference_zm(m):
    idx = np.arange(m, dtype=np.int64)

    def rows(start, stop):
        block = idx[start:stop, None]
        return (block + idx) % m, (block * idx) % m

    return m, rows, (-idx) % m, idx, m


def _reference_chain(m, e):
    size = m**e
    coeffs = digits(np.arange(size), m, e)
    column = np.ascontiguousarray(coeffs.T)  # column[i]: coefficient i of every element

    def rows(start, stop):
        block = column[:, start:stop, None]
        add = np.zeros((block.shape[1], size), dtype=np.int64)
        for i in range(e):
            add += ((block[i] + column[i]) % m) * m**i
        # Polynomial product truncated at u^e, one degree at a time.
        mul = np.zeros_like(add)
        for deg in range(e):
            conv = np.zeros_like(add)
            for i in range(deg + 1):
                conv += block[i] * column[deg - i]
            mul += (conv % m) * m**deg
        return add, mul

    return size, rows, indices_of((-coeffs) % m, m), coeffs[:, e - 1], m


def _reference_product(left, right):
    (s1, rows1, neg1, eps1, den1), (s2, rows2, neg2, eps2, den2) = left, right
    tables1, tables2 = rows1(0, s1), rows2(0, s2)
    ia, ib = np.arange(s1 * s2) // s2, np.arange(s1 * s2) % s2

    def rows(start, stop):
        a, b = ia[start:stop, None], ib[start:stop, None]
        return tuple(t1[a, ia] * s2 + t2[b, ib] for t1, t2 in zip(tables1, tables2))

    den = int(np.lcm(den1, den2))
    eps = (eps1[ia] * (den // den1) + eps2[ib] * (den // den2)) % den
    return s1 * s2, rows, neg1[ia] * s2 + neg2[ib], eps, den


def _reference_ring(case):
    kind, *args = case
    if kind == "product":
        return _reference_product(*map(_reference_ring, args))
    return {"zm": _reference_zm, "chain": _reference_chain}[kind](*args)


def _build_ring(case):
    kind, *args = case
    if kind == "product":
        return make_product(*map(_build_ring, args))
    return {"zm": make_zm, "chain": make_chain_ring}[kind](*args)


_TABLE_CASES = (
    [("chain", m, e) for m in (2, 3, 4, 5, 8, 16, 64) for e in range(1, 13) if m**e <= 4096]
    + [("zm", m) for m in (2, 6, 255, 1020, 1155, 4096)]
    + [("product", ("zm", 2), ("zm", 3)), ("product", ("zm", 64), ("chain", 4, 3))]
)


@pytest.mark.parametrize("case", _TABLE_CASES, ids=lambda c: repr(c).replace(" ", ""))
def test_tables_match_the_int64_reference(case):
    ring = _build_ring(case)
    size, rows, neg, eps_num, eps_den = _reference_ring(case)
    assert ring.size == size
    assert ring.sums.dtype == ring.mul_many(0, 0).dtype == np.uint16
    for start in range(0, size, _REFERENCE_ROWS):
        stop = min(start + _REFERENCE_ROWS, size)
        add, mul = rows(start, stop)
        assert np.array_equal(ring.add_many(np.arange(start, stop)[:, None], np.arange(size)), add)
        assert np.array_equal(ring.mul_many(np.arange(start, stop)[:, None], np.arange(size)), mul)
    assert np.array_equal(ring.neg_table, neg)
    assert np.array_equal(ring.eps_num, eps_num) and ring.eps_den == eps_den
    for name in _TABLES:
        assert not getattr(ring, name).flags.writeable


_TABLES = ("structure", "place", "sums", "lo_of", "hi_of", "mul_lo", "mul_hi", "neg_table",
           "eps_num")


@pytest.mark.parametrize("case, halves", [
    (("chain", 4, 6), (64, 64)), (("chain", 2, 12), (64, 64)), (("zm", 4096), (64, 64)),
    (("product", ("zm", 64), ("chain", 4, 3)), (64, 64)), (("zm", 1031), (28, 37)),
    (("chain", 3, 7), (27, 81)), (("product", ("zm", 2), ("zm", 2039)), (60, 68)),
], ids=lambda c: repr(c).replace(" ", ""))
def test_split_halves_are_near_the_square_root(case, halves):
    # y = lo + h with no digit wrapping, lo = lo_of[y] below n_lo and h
    # numbered hi_of[y] below n_hi, with n_lo + n_hi as small as a cut at
    # one digit, or inside it, allows.
    ring = _build_ring(case)
    assert (ring.mul_lo.shape[1], ring.mul_hi.shape[1]) == halves
    y = np.arange(ring.size)
    high = y - ring.lo_of
    assert ring.lo_of.max() < halves[0] and ring.hi_of.max() < halves[1]
    assert np.array_equal(ring.add_many(ring.lo_of, high), y)
    numbered = np.zeros(halves[1], dtype=np.int64)
    numbered[ring.hi_of] = high
    assert np.array_equal(numbered[ring.hi_of], high)
    assert len(set(zip(ring.lo_of.tolist(), ring.hi_of.tolist()))) == ring.size


def _tampered(ring, name, entries):
    """A copy of the ring with one table changed at each {at: value}: the
    structure constants S[i][j] = W_i W_j, set symmetrically, an entry of
    a half table, or the sum for ``sums``, set at the position
    place[x] + place[y], which y + x and every other pair of that position
    share."""
    table = getattr(ring, name).copy()
    for (x, y), value in entries.items():
        if name == "sums":
            table[ring.place[x] + ring.place[y]] = value
        elif name == "structure":
            table[x, y] = table[y, x] = value
        else:
            table[x, y] = value
    return dataclasses.replace(ring, **{name: table})


def _rebuilt(ring, structure):
    """A copy of the ring whose tables are derived from these structure
    constants, so that only the laws of the product can fail."""
    structure = np.array(structure, dtype=np.intp)
    derived = rings._derive(ring.radices, structure)
    return dataclasses.replace(ring, structure=structure,
                               **{name: derived[name] for name in rings._DERIVED})


@pytest.mark.parametrize(
    "name, pair, message",
    [("sums", (1, 2), "sumset vector is wrong"),
     ("structure", (1, 2), "multiplication is not associative")],
)
def test_exhaustive_sweep_catches_one_broken_entry(name, pair, message):
    # chain(2, 12) has 4096 elements, the largest size: every law is
    # proven there as at every size.  1 + u becomes 0, or u u^2 = u^3
    # becomes 0: the wrong sum is caught by the sumset check, the wrong
    # structure constant keeps S symmetric, 2 S = 0 and the identity, but
    # (u u) u^2 = u^4 while u (u u^2) = 0.
    ring = make_chain_ring(2, 12)
    with pytest.raises(ConsistencyError, match=message):
        rings._validate_ring(_tampered(ring, name, {pair: 0}))


def _product_table(ring):
    idx = np.arange(ring.size)
    return ring.mul_many(idx[:, None], idx).tolist()


def _broken_laws(ring, zs=None):
    """Reference: the messages of the laws of ``_validate_ring``, in its
    order, that fail by brute force over all pairs and all triples
    (x, y, z), z in ``zs`` (default: every element), for the product that
    ``mul_many`` reads.  The sumset check proves the laws of addition, so
    none of them is here."""
    elems = range(ring.size)
    pairs = list(itertools.product(elems, repeat=2))
    triples = list(itertools.product(elems, elems, elems if zs is None else zs))
    a = ring.add_many(np.arange(ring.size)[:, None], np.arange(ring.size)).tolist()
    m, neg = _product_table(ring), ring.neg_table.tolist()
    eps, den = ring.eps_num.tolist(), ring.eps_den
    laws = [
        ("zero is not an additive identity", lambda: all(a[ring.zero][x] == x for x in elems)),
        ("negation table is wrong", lambda: all(a[x][neg[x]] == ring.zero for x in elems)),
        ("multiplication does not distribute",
         lambda: all(m[x][a[y][z]] == a[m[x][y]][m[x][z]]
                     and m[a[x][y]][z] == a[m[x][z]][m[y][z]] for x, y, z in triples)),
        ("multiplication is not commutative", lambda: all(m[x][y] == m[y][x] for x, y in pairs)),
        ("one is not a multiplicative identity", lambda: all(m[ring.one][x] == x for x in elems)),
        ("multiplication is not associative",
         lambda: all(m[m[x][y]][z] == m[x][m[y][z]] for x, y, z in triples)),
        ("character numerators are not reduced mod the denominator",
         lambda: all(0 <= e < den for e in eps)),
        ("character is not additive",
         lambda: all((eps[a[x][y]] - eps[x] - eps[y]) % den == 0 for x, y in pairs)),
        ("character is not generating", lambda: _rows_differ(ring)),
    ]
    return [message for message, holds in laws if not holds()]


def _first_broken_law(ring, zs=None):
    return next(iter(_broken_laws(ring, zs)), None)


def _addition_is_a_group(ring):
    """Reference: zero, the negation table and associativity of the sums
    the ring reads, by brute force over every triple."""
    elems, neg = range(ring.size), ring.neg_table
    a = ring.add_many(np.arange(ring.size)[:, None], np.arange(ring.size)).tolist()
    triples = itertools.product(elems, repeat=3)
    return (all(a[ring.zero][x] == x and a[x][neg[x]] == ring.zero for x in elems)
            and all(a[a[x][y]][z] == a[x][a[y][z]] for x, y, z in triples))


def _rows_differ(ring, columns=None):
    """Reference: whether the rows character(x * y), y in ``columns``
    (default: every element), are distinct, as a set of row tuples."""
    m, eps, den = _product_table(ring), ring.eps_num.tolist(), ring.eps_den
    columns = range(ring.size) if columns is None else columns
    return len({tuple(eps[m[x][y]] % den for y in columns) for x in range(ring.size)}) == ring.size


def _left_nested_sums(ring, gens):
    """Reference: every ((0 + s) + t) + ... with s, t, ... in ``gens``."""
    reached, frontier = {ring.zero}, {ring.zero}
    while frontier:
        frontier = {ring.add(x, s) for x in frontier for s in gens} - reached
        reached |= frontier
    return reached


def _greedy_generators(ring):
    """Reference: add the least element not yet a left-nested sum (zero
    must be an additive identity, or this need not end)."""
    gens = []
    while len(reached := _left_nested_sums(ring, gens)) < ring.size:
        gens.append(min(set(ring.elements()) - reached))
    return gens


# Structure constants of 1, 2 and 3 generators, with radices equal and
# mixed (Z_4 x Z_3 has radices 3 and 4).
_LAW_CASES = [("zm", 8), ("zm", 12), ("chain", 2, 3), ("chain", 3, 2),
              ("product", ("zm", 4), ("zm", 3))]
_TAMPERS = 40


@pytest.mark.parametrize("name", ["sums", "structure"])
@pytest.mark.parametrize("case", _LAW_CASES, ids=lambda c: repr(c).replace(" ", ""))
def test_validator_raises_exactly_when_a_law_breaks(case, name):
    # A wrong structure constant, set on one side or both, with every
    # other table derived from it: the validator raises iff some law of
    # the product breaks over all pairs and triples, and names one that
    # does.
    ring = _build_ring(case)
    assert not _broken_laws(ring) and _addition_is_a_group(ring)
    rings._validate_ring(ring)
    rng = random.Random(f"{case}{name}")
    k, outcomes = len(ring.radices), set()
    for _ in range(_TAMPERS):
        if name == "sums":
            x, y = rng.randrange(ring.size), rng.randrange(ring.size)
            value = rng.choice([v for v in range(ring.size) if v != ring.add(x, y)])
            broken = _tampered(ring, name, {(x, y): value})
            # Every wrong sum breaks a law of addition, and the sumset
            # check refuses it before any law is read.
            assert not _addition_is_a_group(broken)
            with pytest.raises(ConsistencyError, match="^sumset vector is wrong$"):
                rings._validate_ring(broken)
            continue
        i, j = rng.randrange(k), rng.randrange(k)
        structure = ring.structure.copy()
        structure[i, j] = rng.choice([v for v in range(ring.size) if v != structure[i, j]])
        if rng.random() < 0.5:
            structure[j, i] = structure[i, j]
        broken = _rebuilt(ring, structure)
        laws = _broken_laws(broken)
        outcomes.add(bool(laws))
        if not laws:
            rings._validate_ring(broken)
        else:
            with pytest.raises(ConsistencyError) as info:
                rings._validate_ring(broken)
            assert str(info.value) in laws
    assert name == "sums" or True in outcomes


# Generator counts |S| from 1 to 9, rings from 12 to 512 elements.
_GENERATING_CASES = [
    (("zm", 12), 30), (("chain", 2, 3), 30), (("product", ("zm", 4), ("zm", 3)), 30),
    (("zm", 260), 6), (("chain", 2, 9), 4), (("product", ("chain", 2, 2), ("zm", 65)), 4),
]


@pytest.mark.parametrize("case, tampers", _GENERATING_CASES,
                         ids=lambda c: repr(c).replace(" ", ""))
def test_generating_refinement_matches_the_row_reference(case, tampers):
    ring = _build_ring(case)
    assert verify_generating_character(ring) and _rows_differ(ring)
    rng = np.random.default_rng(list(repr(case).encode()))
    seen = set()
    for trial in range(tampers):
        eps = ring.eps_num.copy()
        if trial % 3 == 0:  # a multiple of the character, additive but maybe not generating
            eps = eps * int(rng.integers(ring.eps_den)) % ring.eps_den
        elif trial % 3 == 1:  # a few values moved
            at = rng.integers(ring.size, size=int(rng.integers(1, 4)))
            eps[at] = rng.integers(ring.eps_den, size=at.size)
        else:  # values merged into classes of d
            eps = eps // int(rng.integers(1, 4))
        tampered = dataclasses.replace(ring, eps_num=eps)
        verdict = verify_generating_character(tampered)
        assert verdict == _rows_differ(tampered)
        seen.add(verdict)
    assert seen == {True, False}


@pytest.mark.parametrize("case", [("zm", 12), ("chain", 2, 3), ("product", ("zm", 4), ("zm", 3)),
                                  ("zm", 260), ("chain", 2, 9)],
                         ids=lambda c: repr(c).replace(" ", ""))
def test_generating_refinement_walks_past_the_generators(case):
    # Rows x and x' made to agree on every generator s, by writing the
    # half-table entries that x * s reads with those of x' * s; they may
    # still differ on other columns, and then the walk has to go past S to
    # tell them apart.  No law is assumed along the way.
    ring = _build_ring(case)
    gens = ring.weights().tolist()
    rng = random.Random(repr(case))
    verdicts = set()
    for _ in range(6):
        x, other = rng.sample([v for v in ring.elements() if v not in gens], 2)
        broken = ring
        for name, part in (("mul_lo", ring.lo_of), ("mul_hi", ring.hi_of)):
            table = getattr(ring, name)
            broken = _tampered(broken, name, {(x, part[s]): table[other, part[s]] for s in gens})
        assert not _rows_differ(broken, gens)
        verdict = verify_generating_character(broken)
        assert verdict == _rows_differ(broken)
        verdicts.add(verdict)
    assert True in verdicts


def test_doubled_character_is_additive_but_not_generating():
    # x -> 2x/1020 is a character of Z_1020, but x and x + 510 pair alike.
    ring = make_zm(1020)
    doubled = dataclasses.replace(ring, eps_num=ring.eps_num * 2 % ring.eps_den)
    assert not verify_generating_character(doubled)
    with pytest.raises(ConsistencyError, match="^character is not generating$"):
        rings._validate_ring(doubled)


@pytest.mark.parametrize(
    "case, count",
    [(("zm", m), 1) for m in (2, 12, 256)]
    + [(("chain", m, e), e) for m, e in ((2, 3), (3, 2), (2, 8), (4, 4))]
    + [(("product", ("zm", 4), ("zm", 3)), 2), (("product", ("chain", 2, 2), ("zm", 6)), 3)],
    ids=lambda c: repr(c).replace(" ", ""),
)
def test_additive_generators_reach_every_element(case, count):
    # The digit weights W_i are the greedy generators of (R, +).
    ring = _build_ring(case)
    gens = ring.weights().tolist()
    assert gens == _greedy_generators(ring) and len(gens) == count
    assert _left_nested_sums(ring, gens) == set(ring.elements())


BAD_VECTORS = [
    pytest.param("neg_table", [0, 3, 2, 9], id="negation-out-of-range"),
    pytest.param("neg_table", [0, 3, 2], id="short-negation"),
    pytest.param("eps_num", [0, 1, 2], id="short-character"),
    pytest.param("place", [0, 1, 2], id="short-place"),
    pytest.param("place", [0.0, 1.0, 2.0, 3.0], id="float-place"),
    pytest.param("sums", [0, 1, 2, 3, 0, 1], id="short-sumset"),
    pytest.param("sums", [0, 1, 2, 3, 0, 1, 2, 3], id="long-sumset"),
    pytest.param("structure", [[4]], id="structure-out-of-range"),
    pytest.param("structure", [[1, 0]], id="short-structure"),
    pytest.param("structure", [[1.0]], id="float-structure"),
]


@pytest.mark.parametrize("name, values", BAD_VECTORS)
def test_vectors_are_checked_before_any_gather(z4, name, values):
    # Each of these once escaped as an IndexError from a gather.
    broken = dataclasses.replace(z4, **{name: np.array(values)})
    with pytest.raises(ConsistencyError, match="^table shape or range is off$"):
        rings._validate_ring(broken)


def _changed(vector, at, value):
    vector = vector.copy()
    vector[at] = value
    return vector


_ADDITIVE_TAMPERS = {
    "wrong-sum": lambda r: {"sums": _changed(r.sums, 10, r.sums[10] + 1)},
    "wrong-place": lambda r: {"place": _changed(r.place, 5, r.place[6])},
    "radices": lambda r: {"radices": (2, 2, 4)},
    "character": lambda r: {"eps_num": _changed(r.eps_num, 5, (r.eps_num[5] + 1) % r.eps_den)},
}


def test_each_additive_tamper_has_its_own_error():
    # chain(2, 3): radices (2, 2, 2), a sumset of 27 positions.  One
    # wrong entry of the sumset or of the places, radices that multiply
    # to 16, and a character moved at one element: four messages.
    ring = make_chain_ring(2, 3)
    messages = set()
    for tamper in _ADDITIVE_TAMPERS.values():
        with pytest.raises(ConsistencyError) as info:
            rings._validate_ring(dataclasses.replace(ring, **tamper(ring)))
        messages.add(str(info.value))
    assert messages == {"sumset vector is wrong", "place vector is wrong",
                        "radices do not multiply to the ring size", "character is not additive"}


_PRODUCT_TAMPERS = [
    # Z_2 x Z_3 has radices (3, 2): W_0 W_1 := W_0 has order 3, not 2.
    (("product", ("zm", 2), ("zm", 3)), "structure", (0, 1), 1,
     "multiplication does not distribute"),
    (("chain", 2, 3), "structure", (0, 0), 0, "one is not a multiplicative identity"),
    (("chain", 2, 12), "structure", (1, 2), 0, "multiplication is not associative"),
    (("chain", 4, 6), "mul_lo", (4095, 63), 0, "half product table is wrong"),
    (("chain", 4, 6), "mul_hi", (17, 1), 0, "half product table is wrong"),
    (("zm", 1031), "lo_of", 1030, 0, "half product table is wrong"),
    (("zm", 1031), "hi_of", 1030, 0, "half product table is wrong"),
    (("chain", 2, 3), "neg_table", 1, 0, "negation table is wrong"),
    (("zm", 4096), "eps_num", 4095, 0, "character is not additive"),
]


@pytest.mark.parametrize("case, name, at, value, message", _PRODUCT_TAMPERS,
                         ids=lambda v: repr(v).replace(" ", "") if isinstance(v, tuple) else None)
def test_each_product_tamper_has_its_own_error(case, name, at, value, message):
    # One entry of the structure constants, set asymmetrically when the
    # message is about symmetry and on both sides otherwise, or of a half
    # table, a split vector, the negation or the character.
    ring = _build_ring(case)
    broken = (_tampered(ring, name, {at: value}) if name == "structure"
              else dataclasses.replace(ring, **{name: _changed(getattr(ring, name), at, value)}))
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        rings._validate_ring(broken)


def test_asymmetric_structure_is_not_commutative():
    ring = make_chain_ring(2, 3)
    structure = _changed(ring.structure, (0, 1), 0)
    with pytest.raises(ConsistencyError, match="^multiplication is not commutative$"):
        rings._validate_ring(_rebuilt(ring, structure))
    with pytest.raises(ConsistencyError, match="^multiplication is not commutative$"):
        rings._validate_ring(dataclasses.replace(ring, structure=structure))


@pytest.mark.parametrize("build, at", [
    (lambda: make_zm(1020), 300), (lambda: make_zm(1020), 1019),
    (lambda: make_chain_ring(2, 8), 8), (lambda: make_chain_ring(4, 4), 255),
    (lambda: make_product(make_chain_ring(2, 2), make_zm(65)), 77),
], ids=["Z1020-inside", "Z1020-last", "chain(2,8)-generator", "chain(4,4)-last",
        "chain(2,2)xZ65"])
def test_character_broken_at_one_element_is_not_additive(build, at):
    # One value moved, at an element inside, at the last element, or at
    # a generator W_i, where every element with digit i reads it.
    ring = build()
    broken = dataclasses.replace(ring, eps_num=_changed(ring.eps_num, at,
                                                        (ring.eps_num[at] + 1) % ring.eps_den))
    with pytest.raises(ConsistencyError, match="^character is not additive$"):
        rings._validate_ring(broken)


def test_character_must_vanish_on_the_radix_multiples(z4):
    # x -> x/8 on Z_4 is linear in the digit, but 4 * (1/8) is not a whole
    # turn, so 3 + 1 = 0 reads 4/8: the order condition r eps(W) = 0 is
    # what the digit-linear test needs beside linearity.
    broken = dataclasses.replace(z4, eps_den=8)
    assert _first_broken_law(broken) == "character is not additive"
    with pytest.raises(ConsistencyError, match="^character is not additive$"):
        rings._validate_ring(broken)


@pytest.mark.parametrize("name", ["eps_num"])
def test_tile_walk_reports_the_first_broken_pairwise_law(name):
    # A character value of Z_300 is moved, or left unreduced, at one
    # element, rows 0 and 1 often; the validator names the first pairwise
    # law that fails by brute force.
    ring = make_zm(300)
    rng = random.Random(f"tile walk {name}")
    table = getattr(ring, name)
    bound = ring.eps_den
    seen = set()
    for _ in range(16):
        x = rng.choice([0, 1, rng.randrange(ring.size)])
        value = rng.choice([bound, (int(table[x]) + rng.randrange(1, bound)) % bound])
        broken = dataclasses.replace(ring, **{name: _changed(table, x, value)})
        message = _first_broken_law(broken, zs=())
        seen.add(message)
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            rings._validate_ring(broken)
    assert len(seen) >= 2


def test_builds_leave_numpy_random_unloaded():
    # No build reads random numbers: numpy.random would add about 14 ms
    # and 6 MB to a fresh process that builds one large ring.
    code = ("import sys; from frobqec import make_chain_ring, make_zm; "
            "make_zm(1031); make_chain_ring(4, 6); print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(rings.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("build", [
    lambda: make_chain_ring(4, 6), lambda: make_zm(4096), lambda: make_chain_ring(2, 12),
    lambda: make_product(make_zm(2), make_zm(2039)),
], ids=["chain(4,6)", "Z_4096", "chain(2,12)", "Z_2xZ_2039"])
def test_largest_builds_stay_compact(build):
    # numpy reports its buffers to tracemalloc.  The half tables take
    # 4 MiB at 4096 elements and addition reads a sumset vector of at most
    # 3^12 entries, so a build that holds one |R|^2 uint16 table fails.
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
