"""Numeric cross-checks for the symbolic operator calculus.

Everything upstream is exact; this module deliberately is not.  A Weyl
operator on functions over the carrier (amplitudes indexed by vector
enumeration order) is monomial: row i holds one entry, scalar *
character(form(phase, y)) in the column of y = vector i - shift.  The
oracle holds operators as such (perm, column) pairs, from its own table
gathers and character sums; only ``weyl_matrix`` is dense, and the
projector is summed one coset block at a time.  Floating point stays
confined here.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConsistencyError, DiagnosticError, InvalidInputError, ResourceLimitError
from .spaces import PhaseSpace
from .weyl import StabiliserGroup, WeylElement, commutator

APPLY_BOUND = 4096
MATRIX_BOUND = 256
MONOMIAL_BOUND = 1 << 21

RANK_THRESHOLD = 1e-8
DEAD_BAND_FLOOR = 1e-10
COMMUTATION_TOL = 1e-9


def _monomials(space: PhaseSpace, elements) -> tuple[np.ndarray, np.ndarray]:
    """Row e of both arrays is element e: its matrix row i holds cols[e, i]
    in column perms[e, i], the index of y = vector i - shift, and
    cols[e, i] = scalar * character(form(phase, y)), summed term by term
    over the form's ``form_terms`` (the character is additive).  Each term
    reads the character rows character(c * .) of its coefficients
    c = phase_p b, built once for the distinct coefficients of all terms."""
    ring, m, r = space.ring, space.ring.size, space.rank
    labels = np.array([(*e.shift, *e.phase) for e in elements], dtype=np.int64).reshape(-1, 2 * r)
    shifts, phases = ring.neg_table[labels[:, :r]], labels[:, r:]
    p, q, b, scaled, _ = space.form_terms
    coeffs = ring.mul_many(phases[:, p], b) if scaled else phases[:, p]
    present = np.zeros(m, dtype=bool)
    present[coeffs] = True
    chars = ring.eps_num[ring.mul_many(np.flatnonzero(present)[:, None], np.arange(m))].ravel()
    rows = (np.cumsum(present) - 1)[coeffs] * m
    perms = np.zeros((len(elements), space.size), dtype=np.int64)
    nums = np.zeros_like(perms)
    for j in reversed(range(r)):
        moved = ring.add_many(space.coords[:, j], shifts[:, j, None])
        perms *= m
        perms += moved
        for t in np.flatnonzero(q == j):
            nums += chars[rows[:, t, None] + moved]
    nums %= ring.eps_den
    cols = _roots(ring.eps_den)[nums]
    # In place but scalar first, as in scalar * column: numpy's complex
    # product can round differently with its operands swapped.
    scalars = np.array([e.turn.as_complex() for e in elements])
    return perms, np.multiply(scalars[:, None], cols, out=cols)


@functools.lru_cache(maxsize=None)
def _roots(den: int) -> np.ndarray:
    """The den-th roots of unity, exp(2 pi i j / den) for j < den."""
    roots = np.exp(2j * np.pi * np.arange(den) / den)
    roots.setflags(write=False)
    return roots


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
    space, so its rank is the code dimension.  Each element moves label
    x to x - shift only, so the sum is block-diagonal over the cosets of
    the shift subgroup and its rank is the sum of the block ranks: one
    b x b block per coset, |H| * b entries in all for b distinct shifts.
    """
    if space.size > APPLY_BOUND:
        raise ResourceLimitError(f"carrier size {space.size} exceeds {APPLY_BOUND}")
    if len(s) * space.size > MONOMIAL_BOUND:
        raise ResourceLimitError(
            f"group order {len(s)} times carrier size {space.size} exceeds {MONOMIAL_BOUND}"
        )
    _, blocks = _block_sums(space, s)
    blocks /= len(s)
    return sum(map(matrix_rank_with_dead_band, blocks))


def _block_sums(space: PhaseSpace, s: StabiliserGroup) -> tuple[np.ndarray, np.ndarray]:
    """The sum of the elements' matrices, as (index, blocks).

    Labels are sorted stably by their least image under the elements: in
    a group, the least label of their coset of the b shifts, so each
    coset is a run of b labels, listed ascending in row k of ``index``.
    ``blocks[k]`` is the sum on the rows and columns of run k; an entry
    outside its row's run means the shifts form no group and raises.
    Every element's entries are scattered in one ``bincount`` over the
    real and imaginary parts side by side, as numpy stores them; a bin
    adds its entries in element order, as the dense sum does.
    """
    size, b = space.size, len({e.shift for e in s.elements})
    if b > MATRIX_BOUND:
        raise ResourceLimitError(f"block size {b} (distinct shifts) exceeds {MATRIX_BOUND}")
    perms, cols = _monomials(space, s.elements)
    order = perms.min(axis=0).argsort(kind="stable")
    rank = order.argsort()
    # Row i's entry in column j lands in column rank[j] - start[i] of the
    # block of row i, whose run starts at start[i]; its real part goes to
    # bin 2 * flat index, its imaginary part to the next one.
    bins = rank[perms]
    del perms
    bins -= rank - rank % b
    # Read unsigned, an offset below 0 is past b too.
    if size % b or bins.view(np.uint64).max() >= b:
        raise ConsistencyError("the element shifts do not form a group")
    bins += rank * b
    parts = np.empty(bins.shape + (2,), dtype=np.int64)
    np.multiply(bins, 2, out=parts[..., 0])
    np.add(parts[..., 0], 1, out=parts[..., 1])
    del bins
    sums = np.bincount(parts.ravel(), cols.view(float).ravel(), 2 * size * b)
    return order.reshape(-1, b), sums.view(complex).reshape(-1, b, b)


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
