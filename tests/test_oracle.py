"""Numeric confirmation of the symbolic calculus.

These tests treat the matrix realisation as an independent witness: the
abstract product law, commutation scalars, and dimension formula all
have to survive contact with explicit complex matrices.
"""

import tracemalloc

import numpy as np
import pytest

import frobqec.analysis
import frobqec.oracle as oracle
import frobqec.spaces
import frobqec.weyl
from frobqec import (
    ConsistencyError,
    DiagnosticError,
    InvalidInputError,
    ResourceLimitError,
    StabiliserGroup,
    Turn,
    apply_weyl,
    code_dimension,
    commutator,
    enumerate_submodules,
    group_closure,
    is_isotropic,
    make_product,
    make_space,
    make_zm,
    numeric_commutation_check,
    phase_fix,
    phase_pairing,
    projector_rank,
    stabiliser_of_labels,
    submodule_span,
    weyl_element,
    weyl_matrix,
    weyl_mul,
)
from frobqec.oracle import matrix_rank_with_dead_band

from conftest import std_space, vectors

U = 2
T0 = Turn()


def _identity(space):
    z = space.zero_vector()
    return weyl_element(space, T0, z, z)


def test_identity_acts_trivially(z4_line):
    state = np.arange(4, dtype=complex) + 1
    out = apply_weyl(z4_line, _identity(z4_line), state)
    assert np.allclose(out, state, atol=1e-12)


def test_pure_phase_on_indicator(z4_line):
    # The phase operator multiplies the x = 1 indicator by character(1).
    e = weyl_element(z4_line, T0, (0,), (1,))
    state = np.zeros(4, dtype=complex)
    state[1] = 1
    out = apply_weyl(z4_line, e, state)
    want = np.zeros(4, dtype=complex)
    want[1] = 1j
    assert np.allclose(out, want, atol=1e-12)


def test_pure_shift_on_indicator(z4_line):
    e = weyl_element(z4_line, T0, (1,), (0,))
    state = np.zeros(4, dtype=complex)
    state[0] = 1
    out = apply_weyl(z4_line, e, state)
    want = np.zeros(4, dtype=complex)
    want[1] = 1
    assert np.allclose(out, want, atol=1e-12)


def test_apply_weyl_matches_matrix_columns(f2u_line):
    e = weyl_element(f2u_line, Turn(1, 2), (1,), (U,))
    basis = np.eye(4, dtype=complex)
    stacked = apply_weyl(f2u_line, e, basis)
    assert np.allclose(stacked, weyl_matrix(f2u_line, e), atol=1e-12)
    column = apply_weyl(f2u_line, e, basis[:, 2].copy())
    assert np.allclose(column, stacked[:, 2], atol=1e-12)


def test_weyl_matrices_are_unitary(z4_line, f2u_line):
    for space in (z4_line, f2u_line):
        for a in vectors(space):
            for b in vectors(space):
                m = weyl_matrix(space, weyl_element(space, Turn(1, 4), a, b))
                assert np.allclose(m @ m.conj().T, np.eye(space.size), atol=1e-12)


def test_matrix_realisation_respects_the_product_law(z4_line, f2u_line):
    # The heart of the oracle: symbolic products and matrix products
    # must realise the same operator, cross scalar included.
    for space in (z4_line, f2u_line):
        labels = [(a, b) for a in vectors(space) for b in vectors(space)]
        for a1, b1 in labels[::3]:
            e1 = weyl_element(space, Turn(1, 4), a1, b1)
            for a2, b2 in labels[::5]:
                e2 = weyl_element(space, T0, a2, b2)
                left = weyl_matrix(space, weyl_mul(space, e1, e2))
                right = weyl_matrix(space, e1) @ weyl_matrix(space, e2)
                assert np.max(np.abs(left - right)) < 1e-9


def test_commutation_check_all_pairs(z4_line):
    for a1 in vectors(z4_line):
        for b1 in vectors(z4_line):
            e1 = weyl_element(z4_line, T0, a1, b1)
            for a2 in vectors(z4_line):
                for b2 in vectors(z4_line):
                    e2 = weyl_element(z4_line, T0, a2, b2)
                    assert numeric_commutation_check(z4_line, e1, e2)


def test_measured_chain_scalar_is_minus_one(f2u_line):
    # Reorder a shift by 1 against a phase by u and read the scalar off
    # the matrices directly.
    shift = weyl_matrix(f2u_line, weyl_element(f2u_line, T0, (1,), (0,)))
    phase = weyl_matrix(f2u_line, weyl_element(f2u_line, T0, (0,), (U,)))
    forward = shift @ phase
    backward = phase @ shift
    mask = np.abs(forward) > 0.5
    ratios = forward[mask] / backward[mask]
    assert np.allclose(ratios, -1, atol=1e-9)


def _dense_commutation_check(space, e1, e2, tol=oracle.COMMUTATION_TOL):
    """Reference: both operator orders applied to the full standard
    basis, compared entrywise against the exact commutator scalar."""
    basis = np.eye(space.size, dtype=complex)
    forward = apply_weyl(space, e1, apply_weyl(space, e2, basis))
    backward = apply_weyl(space, e2, apply_weyl(space, e1, basis))
    scalar = oracle.commutator(space, e1, e2).as_complex()
    return bool(np.max(np.abs(forward - scalar * backward)) < tol)


SMALL_SPACES = [("z2", 1, 3), ("z4", 1, 2), ("f2u", 2, 1), ("z6", 1, 2)]


def _seeded_elements(space, rng, count):
    vec = lambda: tuple(int(x) for x in rng.integers(0, space.ring.size, space.rank))
    return [weyl_element(space, Turn(int(rng.integers(8)), 8), vec(), vec()) for _ in range(count)]


@pytest.mark.parametrize("ring_name, k, n", SMALL_SPACES)
def test_monomial_check_matches_the_dense_reference(request, ring_name, k, n):
    space = std_space(request.getfixturevalue(ring_name), k, n)
    elements = _seeded_elements(space, np.random.default_rng(20261019), 8)
    scalars = set()
    for e1 in elements:
        for e2 in elements:
            assert numeric_commutation_check(space, e1, e2)
            assert _dense_commutation_check(space, e1, e2)
            scalars.add(oracle.commutator(space, e1, e2))
    assert len(scalars) > 1  # non-commuting pairs are among them


@pytest.mark.parametrize("ring_name, k, n", SMALL_SPACES)
def test_one_check_over_a_set_is_every_pairwise_check(request, monkeypatch, ring_name, k, n):
    space = std_space(request.getfixturevalue(ring_name), k, n)
    rng = np.random.default_rng(20261020)
    zero = space.zero_vector()
    sets = []
    for count in (3, 4, 5, 6) * 3:
        elements = _seeded_elements(space, rng, count)
        if len(sets) % 2:
            # Pure shifts commute with each other.
            elements = [weyl_element(space, e.turn, e.shift, zero) for e in elements]
        sets.append(elements)

    def pairwise(elements):
        return all(numeric_commutation_check(space, elements[i], elements[j])
                   for i in range(len(elements)) for j in range(i, len(elements)))

    verdicts = []
    for exact in (oracle.commutator, lambda *args: T0):
        # Against a zero scalar the check asks for literal commutation, so
        # a set with a pair of non-trivial omega fails.
        monkeypatch.setattr(oracle, "commutator", exact)
        for elements in sets:
            verdicts.append(pairwise(elements))
            assert numeric_commutation_check(space, *elements) == verdicts[-1]
    assert set(verdicts) == {True, False}


def _swap_two_entries(perms, cols, row):
    perms[row, [0, 1]] = perms[row, [1, 0]]


def _perturb_one_entry(perms, cols, row):
    cols[row, 0] += 1e-6


@pytest.mark.parametrize("tamper", [
    pytest.param(_swap_two_entries, id="swap-two-permutation-entries"),
    pytest.param(_perturb_one_entry, id="perturb-one-column-entry"),
    pytest.param(None, id="wrong-exact-turn"),
])
@pytest.mark.parametrize("ring_name, k, n", SMALL_SPACES)
def test_tampered_operands_fail_both_checks(request, monkeypatch, ring_name, k, n, tamper):
    space = std_space(request.getfixturevalue(ring_name), k, n)
    rng = np.random.default_rng(20261019)
    # e2 shifts by the last unit vector, which moves rows 0 and 1 of e1
    # to rows other than 0 and 1, so a tampered entry there shows in one
    # product order only.
    unit = (0,) * (space.rank - 1) + (space.ring.one,)
    for e1, other in zip(_seeded_elements(space, rng, 4), _seeded_elements(space, rng, 4)):
        e2 = weyl_element(space, other.turn, unit, other.phase)
        assert numeric_commutation_check(space, e1, e2)
        with monkeypatch.context() as patch:
            if tamper is None:
                exact = oracle.commutator
                patch.setattr(oracle, "commutator", lambda *args: exact(*args) + Turn(1, 2))
            else:
                build = oracle._monomials

                def tampered(space, elements):
                    perms, cols = build(space, elements)
                    for row, e in enumerate(elements):
                        if e is e1:
                            tamper(perms, cols, row)
                    return perms, cols

                patch.setattr(oracle, "_monomials", tampered)
            assert not numeric_commutation_check(space, e1, e2)
            assert not _dense_commutation_check(space, e1, e2)


def test_commutation_check_is_guarded_and_stays_small(z2):
    space = std_space(z2, 1, 12)
    shift = weyl_element(space, T0, (1,) * 12, space.zero_vector())
    phase = weyl_element(space, T0, space.zero_vector(), (1,) + (0,) * 11)
    assert space.coords.shape == (4096, 12)  # cached on the space before tracing
    tracemalloc.start()
    try:
        assert numeric_commutation_check(space, shift, phase)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    big = std_space(z2, 1, 13)
    with pytest.raises(ResourceLimitError):
        numeric_commutation_check(big, _identity(big), _identity(big))


def test_commuting_pair_agrees_to_machine_precision(z4_line):
    e1 = weyl_element(z4_line, T0, (2,), (0,))
    e2 = weyl_element(z4_line, T0, (0,), (2,))
    m1, m2 = weyl_matrix(z4_line, e1), weyl_matrix(z4_line, e2)
    assert np.max(np.abs(m1 @ m2 - m2 @ m1)) < 1e-12


# ---------------------------------------------------------------------------
# projectors

def test_projector_rank_single_shift(z4_line):
    s = group_closure(z4_line, [weyl_element(z4_line, T0, (2,), (0,))])
    assert projector_rank(z4_line, s) == 2


def test_projector_rank_zero_with_scalar_inside(z4_line):
    s = group_closure(z4_line, [weyl_element(z4_line, Turn(1, 2), (0,), (0,))])
    assert not s.scalar_free
    assert projector_rank(z4_line, s) == 0


def test_projector_rank_fixed_mixed_group(f2u_plane):
    g1 = weyl_element(f2u_plane, T0, (1, 0), (U, 0))
    g2 = weyl_element(f2u_plane, T0, (0, 1), (0, U))
    fixed = phase_fix(group_closure(f2u_plane, [g1, g2]))
    assert projector_rank(f2u_plane, fixed) == 4


def _dense_sum(space, s):
    """Reference: the elements' full matrices, added in group order."""
    basis = np.eye(space.size, dtype=complex)
    total = np.zeros((space.size, space.size), dtype=complex)
    for e in s.elements:
        total += apply_weyl(space, e, basis)
    return total


def _projector(space, s):
    return _dense_sum(space, s) / len(s)


@pytest.mark.parametrize("ring_name, k, n", SMALL_SPACES)
def test_block_sums_are_bit_identical_to_dense(request, ring_name, k, n):
    ring = request.getfixturevalue(ring_name)
    space = std_space(ring, k, n)
    rng = np.random.default_rng(20261018)
    vec = lambda: tuple(int(x) for x in rng.integers(0, ring.size, space.rank))
    widths = set()
    for _ in range(6):
        gens = [weyl_element(space, Turn(int(rng.integers(4)), 4), vec(), vec())
                for _ in range(int(rng.integers(1, 3)))]
        s = group_closure(space, gens)
        index, blocks = oracle._block_sums(space, s)
        dense = _dense_sum(space, s)
        # A bin still adds its entries in element order.
        assert blocks.tobytes() == np.stack([dense[np.ix_(i, i)] for i in index]).tobytes()
        outside = np.ones(dense.shape, dtype=bool)
        for i in index:
            outside[np.ix_(i, i)] = False
        assert not dense[outside].any()
        assert sorted(index.ravel()) == list(range(space.size))
        assert index.shape[1] == len({e.shift for e in s.elements})
        widths.add(index.shape[1])
    assert len(widths) > 1


def test_block_sums_refuse_shifts_that_are_no_group(z4_line):
    # One element shifting by 1 without its multiples: label 0 maps to 3,
    # outside the block {0} of its least image.
    e = weyl_element(z4_line, T0, (1,), (0,))
    loose = StabiliserGroup(z4_line, [e], [1], [0])
    with pytest.raises(ConsistencyError, match="do not form a group"):
        projector_rank(z4_line, loose)


def _seeded_abelian_group(space, rng, count):
    """Phase-fixed closure of ``count`` seeded generators with random
    turns whose labels commute pairwise (rejection sampling); half the
    generators are pure phases, so the number of shifts varies."""
    vec = lambda: tuple(int(x) for x in rng.integers(0, space.ring.size, space.rank))
    gens = []
    while len(gens) < count:
        shift = vec() if rng.integers(2) else space.zero_vector()
        e = weyl_element(space, Turn(int(rng.integers(4)), 4), shift, vec())
        if all(commutator(space, e, g) == T0 for g in gens):
            gens.append(e)
    return phase_fix(group_closure(space, gens))


@pytest.mark.parametrize("ring_name, n, count", [("z4", 5, 3), ("z2", 12, 5), ("f2u", 6, 3)])
def test_projector_rank_reaches_4096_labels(request, ring_name, n, count):
    space = std_space(request.getfixturevalue(ring_name), 1, n)
    assert 256 < space.size <= oracle.APPLY_BOUND
    rng = np.random.default_rng(20261021)
    widths = set()
    for _ in range(3):
        s = _seeded_abelian_group(space, rng, count)
        assert projector_rank(space, s) == code_dimension(space, s)
        widths.add(len({e.shift for e in s.elements}))
    assert len(widths) > 1 and max(widths) > 1


def _unit(space, i):
    return tuple(space.ring.one if j == i else space.ring.zero for j in range(space.rank))


def test_projector_bounds_refuse_before_the_monomials(z2):
    # 2^8 shifts and two commuting phases: 1024 elements on 4096 labels,
    # past the |S| * |H| bound, which is checked before any allocation.
    space = std_space(z2, 1, 12)
    zero = space.zero_vector()
    gens = [weyl_element(space, T0, _unit(space, i), zero) for i in range(8)]
    gens += [weyl_element(space, T0, zero, _unit(space, i)) for i in (10, 11)]
    s = group_closure(space, gens)
    assert len(s) * space.size > oracle.MONOMIAL_BOUND
    s.elements  # cached on the group before tracing
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            projector_rank(space, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 2^9 distinct shifts make blocks of 512 labels, past MATRIX_BOUND.
    small = std_space(z2, 1, 9)
    zero = small.zero_vector()
    s = group_closure(small, [weyl_element(small, T0, _unit(small, i), zero) for i in range(9)])
    with pytest.raises(ResourceLimitError, match="block size 512"):
        projector_rank(small, s)
    big = std_space(z2, 1, 13)
    with pytest.raises(ResourceLimitError):
        projector_rank(big, group_closure(big, [_identity(big)]))


def test_projector_is_idempotent_and_fixed(z4_line, f2u_line):
    for space in (z4_line, f2u_line):
        for module in enumerate_submodules(space, doubled=True):
            if not is_isotropic(space, module):
                continue
            fixed = phase_fix(stabiliser_of_labels(space, module))
            p = _projector(space, fixed)
            assert np.max(np.abs(p @ p - p)) < 1e-9
            for e in fixed.elements:
                moved = apply_weyl(space, e, p)
                assert np.max(np.abs(moved - p)) < 1e-9
            assert projector_rank(space, fixed) == code_dimension(space, fixed)


@pytest.mark.parametrize(
    "ring_name, k, n, form",
    [
        ("z4", 1, 2, None),
        ("f2u", 2, 1, ((0, 1), (1, 0))),
        ("z6", 1, 2, None),
        ("z2xz2", 2, 1, ((1, 3), (3, 0))),
        ("z2", 1, 9, None),
    ],
)
def test_oracle_runs_without_the_exact_form_kernel(request, monkeypatch, ring_name, k, n, form):
    if ring_name == "z2xz2":
        ring = make_product(make_zm(2), make_zm(2))
    else:
        ring = request.getfixturevalue(ring_name)
    space = std_space(ring, k, n) if form is None else make_space(ring, k, n, form)
    rng = np.random.default_rng(20261018)
    vec = lambda: tuple(int(x) for x in rng.integers(0, ring.size, space.rank))
    elements = [weyl_element(space, Turn(int(rng.integers(8)), 8), vec(), vec()) for _ in range(6)]
    # Reference matrices from the scalar pairing: column y goes to row
    # x = y + shift with the turn times character(form(phase, y)).
    references = []
    for e in elements:
        ref = np.zeros((space.size, space.size), dtype=complex)
        for x, v in enumerate(vectors(space)):
            y = space.add_vec(v, space.neg_vec(e.shift))
            turn = e.turn + phase_pairing(space, e.phase, y)
            ref[x, space.vector_index(y)] = turn.as_complex()
        references.append(ref)
    # Labels (x, x) of a symmetric form commute, and so do pure shifts.
    zero = space.zero_vector()
    groups = []
    for pair in ([vec(), vec()], [vec()], [zero]):
        for labels in ([x + x for x in pair], [x + zero for x in pair]):
            module = submodule_span(space, labels, doubled=True)
            groups.append(phase_fix(stabiliser_of_labels(space, module)))
    groups.append(group_closure(space, [weyl_element(space, Turn(1, 2), zero, zero)]))
    dimensions = [code_dimension(space, s) for s in groups]
    assert any(dimensions) and len(set(dimensions)) > 1

    pairs = [(gens[i], gens[j]) for gens in [elements] + [s.generators for s in groups]
             for i in range(len(gens)) for j in range(i, len(gens))]
    exact = {(id(e1), id(e2)): commutator(space, e1, e2) for e1, e2 in pairs}

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran the exact side's fast path")

    for module in (frobqec.spaces, frobqec.weyl, frobqec.analysis):
        monkeypatch.setattr(module, "_form", refuse)
    monkeypatch.setattr(frobqec.weyl, "_cosets", refuse)
    monkeypatch.setattr(frobqec.weyl, "_label_walk", refuse)
    monkeypatch.setattr(frobqec.weyl, "_mul_many", refuse)
    monkeypatch.setattr(oracle, "commutator", lambda space, e1, e2: exact[id(e1), id(e2)])
    basis = np.eye(space.size, dtype=complex)
    for e, ref in zip(elements, references):
        assert np.max(np.abs(apply_weyl(space, e, basis) - ref)) < 1e-9
    assert [projector_rank(space, s) for s in groups] == dimensions
    assert all(numeric_commutation_check(space, e1, e2) for e1, e2 in pairs)
    assert len(elements) >= 3 and numeric_commutation_check(space, *elements)
    assert all(numeric_commutation_check(space, *s.generators) for s in groups)


def test_apply_weyl_guards(z2, z4, z4_line):
    big = std_space(z2, 1, 13)
    with pytest.raises(ResourceLimitError):
        apply_weyl(big, _identity(big), np.zeros(big.size, dtype=complex))
    wide = std_space(z4, 1, 5)
    with pytest.raises(ResourceLimitError):
        weyl_matrix(wide, _identity(wide))
    with pytest.raises(InvalidInputError):
        apply_weyl(z4_line, _identity(z4_line), np.zeros(3, dtype=complex))


# ---------------------------------------------------------------------------
# rank with a dead band

def test_rank_counts_clean_pivots():
    assert matrix_rank_with_dead_band(np.eye(3)) == 3
    assert matrix_rank_with_dead_band(np.zeros((3, 3))) == 0
    assert matrix_rank_with_dead_band(np.array([[0.0, 1.0], [1.0, 0.0]])) == 2
    assert matrix_rank_with_dead_band(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])) == 1


def test_rank_treats_tiny_pivots_as_zero():
    m = np.diag([1.0, 1e-12])
    assert matrix_rank_with_dead_band(m) == 1


def test_rank_raises_inside_dead_band():
    m = np.diag([1.0, 5e-9])
    with pytest.raises(DiagnosticError):
        matrix_rank_with_dead_band(m)


def test_rank_accepts_rectangular_input():
    m = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    assert matrix_rank_with_dead_band(m) == 2
    assert matrix_rank_with_dead_band(m.T) == 2
