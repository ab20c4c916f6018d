import dataclasses
import itertools
import random
import re
import tracemalloc

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
    assert ring.add_table.dtype == ring.mul_table.dtype == np.uint16
    for start in range(0, size, _REFERENCE_ROWS):
        stop = start + _REFERENCE_ROWS
        add, mul = rows(start, stop)
        assert np.array_equal(ring.add_table[start:stop], add)
        assert np.array_equal(ring.mul_table[start:stop], mul)
    assert np.array_equal(ring.neg_table, neg)
    assert np.array_equal(ring.eps_num, eps_num) and ring.eps_den == eps_den
    for table in (ring.add_table, ring.mul_table, ring.neg_table, ring.eps_num):
        assert not table.flags.writeable


def _tampered(ring, name, entries):
    """A copy of the ring whose table ``name`` holds the given symmetric
    entries {(x, y): value}."""
    table = getattr(ring, name).copy()
    for (x, y), value in entries.items():
        table[x, y] = table[y, x] = value
    return dataclasses.replace(ring, **{name: table})


@pytest.mark.parametrize(
    "name, pair, message",
    [("add_table", (1, 2), "addition is not associative"),
     ("mul_table", (2, 3), "multiplication is not associative")],
)
def test_exhaustive_sweep_catches_one_broken_entry(name, pair, message):
    # chain(2, 8) has 256 elements, the largest size the sweep covers.
    # 1 + u, or u(1 + u), becomes 0: the character reads only the top
    # coefficient, which neither changes, so every pairwise check passes.
    ring = make_chain_ring(2, 8)
    with pytest.raises(ConsistencyError, match=message):
        rings._validate_ring(_tampered(ring, name, {pair: 0}))


def _first_broken_law(ring, zs=None):
    """Reference: the message of the first law of ``_validate_ring``, in
    its order, that fails by brute force over all pairs and all triples
    (x, y, z), z in ``zs`` (default: every element), or None."""
    elems = range(ring.size)
    pairs = list(itertools.product(elems, repeat=2))
    triples = list(itertools.product(elems, elems, elems if zs is None else zs))
    a, m, neg = ring.add_table.tolist(), ring.mul_table.tolist(), ring.neg_table.tolist()
    eps, den = ring.eps_num.tolist(), ring.eps_den
    laws = [
        ("addition is not commutative", lambda: all(a[x][y] == a[y][x] for x, y in pairs)),
        ("zero is not an additive identity", lambda: all(a[ring.zero][x] == x for x in elems)),
        ("negation table is wrong", lambda: all(a[x][neg[x]] == ring.zero for x in elems)),
        ("multiplication is not commutative", lambda: all(m[x][y] == m[y][x] for x, y in pairs)),
        ("one is not a multiplicative identity", lambda: all(m[ring.one][x] == x for x in elems)),
        ("character is not additive",
         lambda: all((eps[a[x][y]] - eps[x] - eps[y]) % den == 0 for x, y in pairs)),
        ("character is not generating",
         lambda: len({tuple(eps[m[x][y]] % den for y in elems) for x in elems}) == ring.size),
        ("addition is not associative",
         lambda: all(a[a[x][y]][z] == a[x][a[y][z]] for x, y, z in triples)),
        ("multiplication is not associative",
         lambda: all(m[m[x][y]][z] == m[x][m[y][z]] for x, y, z in triples)),
        ("multiplication does not distribute",
         lambda: all(m[x][a[y][z]] == a[m[x][y]][m[x][z]] for x, y, z in triples)),
    ]
    return next((message for message, holds in laws if not holds()), None)


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


# Generator sets of 1, 2 and 3 elements.  1 is S[0] of every chain and
# Z_m, and (xy)1 = x(y1) holds in any table with 1 as identity, so only
# the other generators can report a broken multiplicative associativity.
_LIGHT_CASES = [("zm", 8), ("zm", 12), ("chain", 2, 3), ("chain", 3, 2),
                ("product", ("zm", 4), ("zm", 3))]
_TAMPERS = 40
_TRIPLE_LAWS = ("addition is not associative", "multiplication is not associative",
                "multiplication does not distribute")


@pytest.mark.parametrize("name", ["add_table", "mul_table"])
@pytest.mark.parametrize("case", _LIGHT_CASES, ids=lambda c: repr(c).replace(" ", ""))
def test_light_test_raises_exactly_when_a_law_breaks(case, name):
    ring = _build_ring(case)
    assert _first_broken_law(ring) is None
    rings._validate_ring(ring)
    rng = random.Random(f"{case}{name}")
    table = getattr(ring, name)
    for _ in range(_TAMPERS):
        x, y = rng.randrange(ring.size), rng.randrange(ring.size)
        value = rng.choice([v for v in range(ring.size) if v != table[x, y]])
        broken = _tampered(ring, name, {(x, y): value})
        message = _first_broken_law(broken)
        if message in _TRIPLE_LAWS:
            # Light's test: a triple law that fails somewhere fails with z
            # a generator.  The message names the first that fails there,
            # which need not be the first that fails somewhere.
            message = _first_broken_law(broken, _greedy_generators(broken))
            assert message in _TRIPLE_LAWS
        if message is None:
            rings._validate_ring(broken)
        else:
            with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
                rings._validate_ring(broken)


@pytest.mark.parametrize(
    "case, count",
    [(("zm", m), 1) for m in (2, 12, 256)]
    + [(("chain", m, e), e) for m, e in ((2, 3), (3, 2), (2, 8), (4, 4))]
    + [(("product", ("zm", 4), ("zm", 3)), 2), (("product", ("chain", 2, 2), ("zm", 6)), 3)],
    ids=lambda c: repr(c).replace(" ", ""),
)
def test_additive_generators_reach_every_element(case, count):
    ring = _build_ring(case)
    gens = rings._additive_generators(ring)
    assert gens == _greedy_generators(ring) and len(gens) == count
    assert _left_nested_sums(ring, gens) == set(ring.elements())


@pytest.mark.parametrize("name, message", [("add_table", "addition is not commutative"),
                                           ("mul_table", "multiplication is not commutative")])
@pytest.mark.parametrize("entry", [(1019, 769), (300, 10)], ids=["short-tile", "off-diagonal"])
def test_commutativity_tiles_reach_every_entry(name, message, entry):
    # Z_1020 has tiles of 256 rows, the last of 252: (1019, 769) lies in
    # the short corner tile, (300, 10) below the diagonal tiles.
    ring = make_zm(1020)
    table = getattr(ring, name).copy()
    table[entry] = (table[entry] + 1) % ring.size
    with pytest.raises(ConsistencyError, match=message):
        rings._validate_ring(dataclasses.replace(ring, **{name: table}))


def test_sampled_triples_catch_one_broken_entry():
    # Past 256 elements only seeded triples are checked: break the
    # product of the first sampled pair that avoids 0 and 1.
    ring = make_zm(1020)
    xs, ys, zs = np.random.default_rng(rings._TRIPLE_SEED).integers(
        0, ring.size, size=(3, rings._TRIPLE_SAMPLES)
    )
    x, y = next((x, y) for x, y, z in zip(xs, ys, zs) if min(x, y, z) > 1 and x != y)
    broken = _tampered(ring, "mul_table", {(x, y): ring.add(ring.mul(x, y), 1)})
    with pytest.raises(ConsistencyError, match="associative|distribute"):
        rings._validate_ring(broken)


def test_additivity_blocks_reach_the_last_row():
    # 1020 rows come in blocks of 64, the last one short; the diagonal
    # entry of the last row is read by the last block alone.
    ring = make_zm(1020)
    assert ring.size % max(1, rings._CHECK_BLOCK // ring.size)
    last = ring.size - 1
    broken = _tampered(ring, "add_table", {(last, last): ring.add(last, last) - 1})
    with pytest.raises(ConsistencyError, match="character is not additive"):
        rings._validate_ring(broken)


@pytest.mark.parametrize("build", [lambda: make_chain_ring(4, 6), lambda: make_zm(4096)],
                         ids=["chain(4,6)", "Z_4096"])
def test_largest_builds_stay_compact(build):
    # numpy reports its buffers to tracemalloc; int64 tables and their
    # temporaries peaked at 512-641 MiB here.
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * 2**20
