"""Numeric cross-checks for the symbolic operator calculus.

Everything upstream is exact; this module deliberately is not.  A Weyl
operator on functions over the carrier (amplitudes indexed by vector
enumeration order) is monomial: row i holds one entry, scalar *
character(form(phase, y)) in the column of y = vector i - shift.  The
oracle holds operators as such (perm, column) pairs, from its own table
gathers and character sums; only ``weyl_matrix`` and the projector are
dense.  Floating point stays confined here.
"""

from __future__ import annotations

import numpy as np

from .errors import DiagnosticError, InvalidInputError, ResourceLimitError
from .rings import lookup
from .spaces import PhaseSpace
from .weyl import StabiliserGroup, WeylElement, commutator

APPLY_BOUND = 4096
MATRIX_BOUND = 256
GROUP_BOUND = 4096

RANK_THRESHOLD = 1e-8
DEAD_BAND_FLOOR = 1e-10
COMMUTATION_TOL = 1e-9


def _monomials(space: PhaseSpace, elements) -> tuple[np.ndarray, np.ndarray]:
    """Row e of both arrays is element e: its matrix row i holds cols[e, i]
    in column perms[e, i], the index of y = vector i - shift, and
    cols[e, i] = scalar * character(form(phase, y)), summed term by term
    over the form's entries (the character is additive)."""
    ring, m, k = space.ring, space.ring.size, space.k
    shifts = np.array([e.shift for e in elements], dtype=np.int64).reshape(-1, space.rank)
    phases = np.array([e.phase for e in elements], dtype=np.int64).reshape(shifts.shape)
    shifts = ring.neg_table[shifts]
    perms = np.zeros((len(elements), space.size), dtype=np.int64)
    nums = np.zeros_like(perms)
    for j in reversed(range(space.rank)):
        moved = lookup(ring.add_table, space.coords[:, j], shifts[:, j, None])
        perms *= m
        perms += moved
        base, q = j - j % k, j % k
        for p, row in enumerate(space.form):
            if row[q] != ring.zero:
                coeff = ring.mul_table[phases[:, base + p], row[q]]
                nums += ring.eps_num[lookup(ring.mul_table, coeff[:, None], moved)]
    den = ring.eps_den
    nums %= den
    cols = np.exp(2j * np.pi * np.arange(den) / den)[nums]
    # In place but scalar first, as in scalar * column: numpy's complex
    # product can round differently with its operands swapped.
    scalars = np.array([e.turn.as_complex() for e in elements])
    return perms, np.multiply(scalars[:, None], cols, out=cols)


def apply_weyl(space: PhaseSpace, e: WeylElement, state: np.ndarray) -> np.ndarray:
    """Apply the operator to a state vector (or column-stacked states).

    (result)(x) = scalar * character(form(phase, x - shift)) * state(x - shift).
    """
    if space.size > APPLY_BOUND:
        raise ResourceLimitError(f"carrier size {space.size} exceeds {APPLY_BOUND}")
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != space.size:
        raise InvalidInputError(
            f"state has {state.shape[0]} amplitudes, expected {space.size}"
        )
    (perm,), (col,) = _monomials(space, (e,))
    if state.ndim == 1:
        return col * state[perm]
    return col[:, None] * state[perm, :]


def weyl_matrix(space: PhaseSpace, e: WeylElement) -> np.ndarray:
    """The full matrix of the operator in the standard basis."""
    if space.size > MATRIX_BOUND:
        raise ResourceLimitError(f"carrier size {space.size} exceeds {MATRIX_BOUND}")
    return apply_weyl(space, e, np.eye(space.size, dtype=complex))


def numeric_commutation_check(space: PhaseSpace, *elements: WeylElement,
                              tol: float = COMMUTATION_TOL) -> bool:
    """Whether every pair e_i, e_j (i <= j) of the operators commutes as
    the exact calculus says.  The monomials are built once; each pair is
    multiplied in both orders, (p1, c1)(p2, c2) = (p2[p1], c1 * c2[p1]),
    and compared against the exact commutator scalar: the permutations
    must be equal (else a row holds two unit entries in different
    columns) and the columns agree up to the scalar.  This is the
    entrywise test of the dense products, in O(|H|) time a pair and
    O(n |H|) memory for n operators."""
    if space.size > APPLY_BOUND:
        raise ResourceLimitError(f"carrier size {space.size} exceeds {APPLY_BOUND}")
    perms, cols = _monomials(space, elements)
    for i, (p1, c1) in enumerate(zip(perms, cols)):
        p2, c2 = perms[i:], cols[i:]
        if not np.array_equal(p2[:, p1], p1[p2]):
            return False
        scalars = np.array([commutator(space, elements[i], e2).as_complex()
                            for e2 in elements[i:]])
        if not np.max(np.abs(c1 * c2[:, p1] - scalars[:, None] * (c2 * c1[p2]))) < tol:
            return False
    return True


def projector_rank(space: PhaseSpace, s: StabiliserGroup) -> int:
    """Rank of the group-averaged operator (1/|S|) sum of the elements.

    For a closed group this average is a projector onto the joint fixed
    space, so its rank is the code dimension.
    """
    if space.size > MATRIX_BOUND:
        raise ResourceLimitError(f"carrier size {space.size} exceeds {MATRIX_BOUND}")
    if len(s) > GROUP_BOUND:
        raise ResourceLimitError(f"group order {len(s)} exceeds {GROUP_BOUND}")
    return matrix_rank_with_dead_band(_group_sum(space, s) / len(s))


def _group_sum(space: PhaseSpace, s: StabiliserGroup) -> np.ndarray:
    """The sum of the elements' matrices.  Every element's entries are
    scattered in one ``bincount`` over row * |H| + column, once for the
    real and once for the imaginary parts; a bin adds its entries in
    element order, as the dense sum does."""
    size = space.size
    bins, cols = _monomials(space, s.elements)
    bins += np.arange(size) * size
    total = np.empty((size, size), dtype=complex)
    total.real.flat = np.bincount(bins.ravel(), cols.real.ravel(), size * size)
    total.imag.flat = np.bincount(bins.ravel(), cols.imag.ravel(), size * size)
    return total


def matrix_rank_with_dead_band(matrix: np.ndarray,
                               threshold: float = RANK_THRESHOLD,
                               floor: float = DEAD_BAND_FLOOR) -> int:
    """Pivoted elimination rank count with an explicit dead band.

    A pivot at or above the threshold counts; strictly below the floor
    it is treated as zero; anything in between means the matrix does not
    separate cleanly and no answer is trustworthy.
    """
    work = np.array(matrix, dtype=complex)
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        magnitudes = np.abs(work[rank:, col])
        pick = int(np.argmax(magnitudes))
        pivot = magnitudes[pick]
        if pivot < floor:
            continue
        if pivot < threshold:
            raise DiagnosticError(
                f"pivot {pivot:.3e} falls in the dead band [{floor:.0e}, {threshold:.0e})"
            )
        pick += rank
        if pick != rank:
            work[[rank, pick]] = work[[pick, rank]]
        work[rank + 1 :, col:] -= (
            work[rank + 1 :, col : col + 1] / work[rank, col]
        ) * work[rank : rank + 1, col:]
        rank += 1
    return rank
