"""Dense numeric cross-checks for the symbolic operator calculus.

Everything upstream is exact; this module deliberately is not.  It
realises Weyl elements as complex matrices on functions over the
carrier (amplitudes indexed by vector enumeration order) and confirms
the symbolic answers: commutation scalars entrywise, and code
dimensions as ranks of averaged projectors.  Floating point stays
confined here.
"""

from __future__ import annotations

import numpy as np

from .errors import DiagnosticError, InvalidInputError, ResourceLimitError
from .spaces import PhaseSpace
from .weyl import StabiliserGroup, WeylElement, commutator

APPLY_BOUND = 4096
MATRIX_BOUND = 256
GROUP_BOUND = 4096

RANK_THRESHOLD = 1e-8
DEAD_BAND_FLOOR = 1e-10
COMMUTATION_TOL = 1e-9


def _shift_permutation(space: PhaseSpace, shift) -> np.ndarray:
    """perm[i] = index of (vector i) - shift, so out[i] = f[perm[i]]."""
    ring = space.ring
    shifted = ring.add_table[
        space.coords, ring.neg_table[np.asarray(shift, dtype=np.int64)][None, :]
    ]
    powers = ring.size ** np.arange(space.rank, dtype=np.int64)
    return shifted @ powers


def _phase_column(space: PhaseSpace, phase) -> np.ndarray:
    """Entry i holds the unit complex character(form(phase, vector i)),
    summed term by term: the character is additive, so no add table and
    no form kernel of the exact side is needed."""
    ring = space.ring
    nums = np.zeros(space.size, dtype=np.int64)
    for base in range(0, space.rank, space.k):
        for p, row in enumerate(space.form):
            for q, entry in enumerate(row):
                coeff = ring.mul_table.item(phase[base + p], entry)
                if coeff != ring.zero:
                    nums += ring.eps_num[ring.mul_table[coeff]][space.coords[:, base + q]]
    return np.exp(2j * np.pi * (nums % ring.eps_den) / ring.eps_den)


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
    perm = _shift_permutation(space, e.shift)
    moved = state[perm] if state.ndim == 1 else state[perm, :]
    phases = _phase_column(space, e.phase)[perm]
    scalar = e.turn.as_complex()
    if state.ndim == 1:
        return scalar * phases * moved
    return scalar * phases[:, None] * moved


def weyl_matrix(space: PhaseSpace, e: WeylElement) -> np.ndarray:
    """The full matrix of the operator in the standard basis."""
    if space.size > MATRIX_BOUND:
        raise ResourceLimitError(f"carrier size {space.size} exceeds {MATRIX_BOUND}")
    return apply_weyl(space, e, np.eye(space.size, dtype=complex))


def numeric_commutation_check(space: PhaseSpace, e1: WeylElement, e2: WeylElement,
                              tol: float = COMMUTATION_TOL) -> bool:
    """Apply both operator orders to the full standard basis and compare
    entrywise against the exact commutator scalar."""
    basis = np.eye(space.size, dtype=complex)
    forward = apply_weyl(space, e1, apply_weyl(space, e2, basis))
    backward = apply_weyl(space, e2, apply_weyl(space, e1, basis))
    scalar = commutator(space, e1, e2).as_complex()
    return bool(np.max(np.abs(forward - scalar * backward)) < tol)


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
    """The sum of the elements' matrices.  Row i of an element's matrix
    holds one entry, at column perm[i], so each element's entries are
    added in place rather than multiplied out of a dense identity."""
    rows = np.arange(space.size)
    total = np.zeros((space.size, space.size), dtype=complex)
    for e in s.elements:
        perm = _shift_permutation(space, e.shift)
        total[rows, perm] += e.turn.as_complex() * _phase_column(space, e.phase)[perm]
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
