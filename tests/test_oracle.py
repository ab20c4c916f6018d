"""Dense numeric confirmation of the symbolic calculus.

These tests treat the matrix realisation as an independent witness: the
abstract product law, commutation scalars, and dimension formula all
have to survive contact with explicit complex matrices.
"""

import numpy as np
import pytest

import frobqec.analysis
import frobqec.oracle as oracle
import frobqec.spaces
import frobqec.weyl
from frobqec import (
    DiagnosticError,
    InvalidInputError,
    ResourceLimitError,
    Turn,
    apply_weyl,
    code_dimension,
    enumerate_submodules,
    group_closure,
    identity_element,
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

from conftest import std_space

U = 2
T0 = Turn()


def test_identity_acts_trivially(z4_line):
    state = np.arange(4, dtype=complex) + 1
    out = apply_weyl(z4_line, identity_element(z4_line), state)
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
        for a in space.vectors():
            for b in space.vectors():
                m = weyl_matrix(space, weyl_element(space, Turn(1, 4), a, b))
                assert np.allclose(m @ m.conj().T, np.eye(space.size), atol=1e-12)


def test_matrix_realisation_respects_the_product_law(z4_line, f2u_line):
    # The heart of the oracle: symbolic products and matrix products
    # must realise the same operator, cross scalar included.
    for space in (z4_line, f2u_line):
        labels = [(a, b) for a in space.vectors() for b in space.vectors()]
        for a1, b1 in labels[::3]:
            e1 = weyl_element(space, Turn(1, 4), a1, b1)
            for a2, b2 in labels[::5]:
                e2 = weyl_element(space, T0, a2, b2)
                left = weyl_matrix(space, weyl_mul(space, e1, e2))
                right = weyl_matrix(space, e1) @ weyl_matrix(space, e2)
                assert np.max(np.abs(left - right)) < 1e-9


def test_commutation_check_all_pairs(z4_line):
    for a1 in z4_line.vectors():
        for b1 in z4_line.vectors():
            e1 = weyl_element(z4_line, T0, a1, b1)
            for a2 in z4_line.vectors():
                for b2 in z4_line.vectors():
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


@pytest.mark.parametrize("ring_name, k, n", [("z2", 1, 3), ("z4", 1, 2), ("f2u", 2, 1), ("z6", 1, 2)])
def test_scattered_group_sum_is_bit_identical_to_dense(request, ring_name, k, n):
    ring = request.getfixturevalue(ring_name)
    space = std_space(ring, k, n)
    rng = np.random.default_rng(20261018)
    vec = lambda: tuple(int(x) for x in rng.integers(0, ring.size, space.rank))
    for _ in range(6):
        gens = [weyl_element(space, Turn(int(rng.integers(4)), 4), vec(), vec())
                for _ in range(int(rng.integers(1, 3)))]
        s = group_closure(space, gens)
        total = oracle._group_sum(space, s)
        assert total.tobytes() == _dense_sum(space, s).tobytes()


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
        for x, v in enumerate(space.vectors()):
            y = space.sub_vec(v, e.shift)
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

    def refuse(*args):
        raise AssertionError("the oracle ran the exact side's form kernel")

    for module in (frobqec.spaces, frobqec.weyl, frobqec.analysis):
        monkeypatch.setattr(module, "_form", refuse)
    basis = np.eye(space.size, dtype=complex)
    for e, ref in zip(elements, references):
        assert np.max(np.abs(apply_weyl(space, e, basis) - ref)) < 1e-9
    assert [projector_rank(space, s) for s in groups] == dimensions


def test_apply_weyl_guards(z2, z4, z4_line):
    big = std_space(z2, 1, 13)
    with pytest.raises(ResourceLimitError):
        apply_weyl(big, identity_element(big), np.zeros(big.size, dtype=complex))
    wide = std_space(z4, 1, 5)
    with pytest.raises(ResourceLimitError):
        weyl_matrix(wide, identity_element(wide))
    with pytest.raises(InvalidInputError):
        apply_weyl(z4_line, identity_element(z4_line), np.zeros(3, dtype=complex))


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
