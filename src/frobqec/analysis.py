"""Structural analysis of codes: CSS splitting, nilpotent protection,
ring invariants, form isometries, and the submodule census."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError
from .rings import (Ideal, Turn, _require_nil, digits, indices_of, lookup,
                    nilpotency_index, nilradical)
from .spaces import (
    BLOCK,
    PhaseSpace,
    Submodule,
    Vector,
    _check_vector,
    _first_nontrivial,
    _form,
    form_many,
    identity_form,
    is_self_orthogonal,
    orthogonal,
    submodule_levels,
    submodule_span,
)
from .weyl import (
    LabelPair,
    StabiliserGroup,
    WeylElement,
    is_isotropic,
    noncommutativity_witness,
    split_label,
)

ISOMETRY_SCAN_BOUND = 1 << 20


@dataclass(frozen=True)
class CssVerdict:
    """Outcome of the label-module splitting test.

    ``split`` holds the shift-only and phase-only parts when the module
    is a direct sum of them.  A non-CSS verdict carries a witness label
    whose own shift and phase anticommute when one exists; splitting can
    also fail without such a witness, in which case it stays None.
    """

    status: str
    split: tuple[Submodule, Submodule] | None
    witness: LabelPair | None


def css_verdict(space: PhaseSpace, l: Submodule) -> CssVerdict:
    if not l.doubled:
        raise InvalidInputError("the CSS test takes a label module in the doubled space")
    if not is_isotropic(space, l):
        raise InvalidInputError("the CSS test takes an isotropic label module")
    # A label's index is shift + |H| * phase, so the pure parts are masks.
    zero = space.vector_index(space.zero_vector())
    phase, shift = np.divmod(l.indices, space.size)
    shift_part, phase_part = shift[phase == zero], phase[shift == zero]
    # (a, b) -> a and b are separately injective on A + B, so the sum
    # has |A| * |B| elements; matching |L| makes the pure parts generate.
    if shift_part.size * phase_part.size == len(l):
        split = tuple(Submodule(space, (), part, doubled=False, r_closed=l.r_closed)
                      for part in (shift_part, phase_part))
        return CssVerdict("css", split, None)
    # The witness is the first label, in ``elements`` order, whose phase
    # pairs non-trivially with its own shift.
    rows = l.rows
    own = _form(space, rows[:, space.rank :], rows[:, : space.rank])
    hits = np.flatnonzero(space.ring.eps_num[own] % space.ring.eps_den)
    witness = split_label(space, tuple(rows[hits[0]].tolist())) if hits.size else None
    return CssVerdict("non_css", None, witness)


# ---------------------------------------------------------------------------
# nilpotent protection

@dataclass(frozen=True)
class ProtectionReport:
    """Result of the error-protection sweep for a nil ideal.

    ``counterexample`` is the first (error phase, code vector) pair with
    a non-trivial commutation turn, so ``passed`` means none exists.
    ``demo`` exhibits a non-admissible error that does disturb the code,
    showing the admissibility restriction is doing real work.
    """

    passed: bool
    code_size: int
    square_zero: bool
    self_orthogonal: bool | None
    counterexample: tuple[Vector, Vector, Turn] | None
    demo: tuple[Vector, Vector, Turn] | None


def nilpotent_code(space: PhaseSpace, ideal: Ideal) -> Submodule:
    """The submodule swept out by the ideal: all ideal multiples of the
    carrier, spanned by ideal multiples of the basis vectors."""
    if ideal.ring is not space.ring:
        raise InvalidInputError("ideal belongs to a different ring")
    _require_nil(ideal)
    zero, rank = space.ring.zero, space.rank
    gens = [tuple(x if i == j else zero for i in range(rank))
            for x in ideal.elements if x != zero for j in range(rank)]
    return submodule_span(space, gens)


def check_nilpotent_protection(space: PhaseSpace, ideal: Ideal) -> ProtectionReport:
    """Verify that admissible errors cannot disturb the ideal's code.

    An error label (a, b) is admissible when its phase half b pairs
    trivially with the code; the swept commutation scalar
    omega((u, 0), (a, b)) depends only on b and u, so the scan runs over
    the orthogonal complement against the code.
    """
    code = nilpotent_code(space, ideal)
    index = nilpotency_index(ideal)
    square_zero = index <= 2
    self_orth = is_self_orthogonal(space, code) if square_zero else None
    perp = orthogonal(space, code)

    if len(code) * len(perp) > (1 << 22):
        raise ResourceLimitError("protection scan is out of bounds")

    counterexample, demo = _protection_scans(space, code, perp)

    passed = counterexample is None and (self_orth is not False)
    return ProtectionReport(
        passed=passed,
        code_size=len(code),
        square_zero=square_zero,
        self_orthogonal=self_orth,
        counterexample=counterexample,
        demo=demo,
    )


def _protection_scans(space: PhaseSpace, code: Submodule, perp: Submodule):
    """The first (error phase b, code vector u, turn -<b, u>) with a
    non-trivial turn, u in ``elements`` order: b over ``perp`` in its
    ``elements`` order (the counterexample) and, for a non-trivial code, b
    outside ``perp`` in carrier order, masked block by block (the demo)."""
    code_rows = code.rows

    def first(phases: np.ndarray, keep=None):
        hit = _first_nontrivial(space, phases, code_rows, keep)
        return None if hit is None else (hit[0], hit[1], -space.ring.epsilon(hit[2]))

    outside = np.ones(space.size, dtype=bool)
    outside[perp.indices] = False
    return first(perp.rows), first(space.coords, outside) if len(code) > 1 else None


# ---------------------------------------------------------------------------
# invariants

@dataclass(frozen=True)
class InvariantReport:
    """Three structure constants recoverable from the operator algebra:
    the free rank per site, the nilpotency index of the ring's
    nilradical, and whether any shift/phase pair fails to commute."""

    frobenius_rank: int
    nilpotent_height: int
    commutator_depth: int


def invariants(space: PhaseSpace) -> InvariantReport:
    height = nilpotency_index(nilradical(space.ring))
    depth = 2 if noncommutativity_witness(space) is not None else 1
    return InvariantReport(
        frobenius_rank=space.k,
        nilpotent_height=height,
        commutator_depth=depth,
    )


# ---------------------------------------------------------------------------
# isometries

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class IsometryGroup:
    """The k x k matrices G with G^T B G = B for the site form B, in scan
    order (ascending in sum g[i][j] |R|^(i k + j)), as read-only site
    permutations: row g sends the index of v in R^k to that of G v."""

    space: PhaseSpace
    permutations: np.ndarray

    @property
    def matrices(self) -> tuple[Matrix, ...]:
        columns = self.space.coords[self.permutations[:, _unit_indices(self.space)]]
        return tuple(tuple(zip(*g)) for g in columns.tolist())

    def __len__(self) -> int:
        return len(self.permutations)

    def __iter__(self):
        return iter(self.matrices)

    def orbit(self, target):
        """The images of a submodule or stabiliser group under each
        isometry, in scan order, lazily, one gather through the stored
        permutation each."""
        return (_transport(self.space, image, target) for image in self.permutations)


def isometry_group(space: PhaseSpace) -> IsometryGroup:
    """Every isometry of the site form, column by column (Plesken and
    Souvignier, J. Symbolic Comput. 24, 1997): (G^T B G)_ij = B(G e_i,
    G e_j), so column j ranges over the v with B(v, v) = B_jj and
    B(G e_i, v) = B_ij for i < j."""
    if space.n != 1:
        raise InvalidInputError("isometries are computed on a single-site space")
    total = space.ring.size ** (space.k * space.k)
    if total > ISOMETRY_SCAN_BOUND:
        raise ResourceLimitError(f"isometry scan over {total} matrices is out of bounds")
    return IsometryGroup(space, _check_isometry_group(space, _column_search(space)))


def _column_search(space: PhaseSpace) -> np.ndarray:
    """Site indices of the columns of every isometry, a row per matrix,
    in scan order; each partial matrix is filtered by one form call."""
    form, site = np.array(space.form), space.coords
    norms = _form(space, site, site)
    found = np.zeros((1, 0), dtype=np.intp)
    for j in range(space.k):
        cand = np.flatnonzero(norms == form[j, j])
        gram = _form(space, site[found][:, None, :, :], site[cand][None, :, None, :])
        rows, picks = np.nonzero((gram == form[:j, j]).all(axis=2))
        found = np.column_stack([found[rows], cand[picks]])
    # Scan order: the row-major entries as digits, (0, 0) fastest.
    return found[np.lexsort(site[found].transpose(0, 2, 1).reshape(len(found), -1).T)]


def _check_isometry_group(space: PhaseSpace, columns: np.ndarray) -> np.ndarray:
    """The read-only site permutations of these column indices, once
    identity, injectivity (a kernel would contradict a perfect form) and
    closure hold; column j of G H is G at column j of H.

    The least isometry not yet reached joins a set S, and the reached
    set grows from the identity by right products with S, each of which
    must be an isometry.  A finite set of permutations that holds the
    identity and is closed under products with S is the group S
    generates, so once all are reached they form a group, inverses
    included.  Each member of S at least doubles the group reached, so
    |S| <= log2 |G| and the products number at most 2 |S| |G|.  Only the
    members of S get a site map and an injectivity check; each other
    permutation composes the factors of its first product.
    """
    size = space.size
    row_of = np.full(size**space.k, -1)
    row_of[indices_of(columns, size)] = np.arange(len(columns))
    ident = row_of[indices_of(_unit_indices(space), size)]
    if ident < 0:
        raise ConsistencyError("isometry scan lost the identity")
    permutations = np.empty((len(columns), size), np.min_scalar_type(size - 1))
    permutations[ident] = np.arange(size)
    reached = np.zeros(len(columns), dtype=bool)
    reached[ident] = True
    gens = np.zeros(0, dtype=np.intp)
    while not reached.all():
        gens = np.append(gens, np.argmin(reached))
        permutations[gens[-1]] = _site_map(space, space.coords[columns[gens[-1]]])
        if (np.sort(permutations[gens[-1]]) != np.arange(size)).any():
            raise ConsistencyError("an isometry preserves the form but is singular")
        frontier = np.flatnonzero(reached)
        while frontier.size:
            products = row_of[indices_of(permutations[frontier[:, None, None], columns[gens]],
                                         size)]
            if (products < 0).any():
                raise ConsistencyError("isometries failed to close under products")
            new, first = np.unique(products, return_index=True)
            new, first = new[~reached[new]], first[~reached[new]]
            left, right = frontier[first // gens.size], gens[first % gens.size]
            for rows in np.array_split(np.arange(new.size), max(1, new.size * size // BLOCK)):
                permutations[new[rows]] = np.take_along_axis(
                    permutations[left[rows]], permutations[right[rows]], axis=1)
            reached[new] = True
            frontier = new
    permutations.setflags(write=False)
    return permutations


def _unit_indices(space: PhaseSpace) -> np.ndarray:
    return indices_of(identity_form(space.ring, space.k), space.ring.size)


def _columns_of(space: PhaseSpace, g) -> np.ndarray:
    """The columns of a k x k matrix over the ring, one per row."""
    if len(g) != space.k:
        raise InvalidInputError(f"matrix must have {space.k} rows")
    for row in g:
        _check_vector(space, tuple(row), space.k)
    return np.array(g, dtype=np.int64).T


def _site_map(space: PhaseSpace, columns: np.ndarray) -> np.ndarray:
    """Site index of G v = sum_j v_j G e_j for each v in R^k; columns[..., j, :] is G e_j."""
    ring, k = space.ring, space.k
    site = digits(np.arange(ring.size**k), ring.size, k)
    image = None
    for j in range(k):
        term = lookup(ring.mul_table, columns[..., None, j, :], site[:, j, None])
        image = term if image is None else lookup(ring.add_table, image, term)
    return indices_of(image, ring.size)


def apply_matrix_blockwise(space: PhaseSpace, g: Matrix, v: Vector) -> Vector:
    """Apply a k x k matrix, isometry or not, to each k-block of an
    ambient vector (or to each block of both halves of a doubled vector)."""
    if len(v) % space.k:
        raise InvalidInputError("vector length is not a multiple of the site rank")
    _check_vector(space, tuple(v), len(v))
    return _blockwise(space, _site_map(space, _columns_of(space, g)), v)


def _blockwise(space: PhaseSpace, image: np.ndarray, v: Vector) -> Vector:
    m, k = space.ring.size, space.k
    return tuple(digits(image[indices_of(np.reshape(v, (-1, k)), m)], m, k).ravel().tolist())


def isometry_action(space: PhaseSpace, g: Matrix, target):
    """Transport a submodule or a stabiliser group along an isometry.

    Labels map blockwise through the matrix and turns stay put; the
    pairing is preserved, so images of closed sets are closed and all
    the derived verdicts transport unchanged.  An index array moves with
    one gather: each k-block of coordinates is one digit in base |R|^k,
    sent through the matrix's site permutation.
    """
    columns = _columns_of(space, g)
    if not np.array_equal(_form(replace(space, n=1), columns[:, None], columns), space.form):
        raise InvalidInputError("matrix does not preserve the form")
    return _transport(space, _site_map(space, columns), target)


def _transport(space: PhaseSpace, image: np.ndarray, target):
    """``target`` moved along the isometry whose site permutation is
    ``image`` (a row of ``IsometryGroup.permutations``)."""
    def move(indices, sites: int) -> np.ndarray:
        return indices_of(image[digits(indices, image.size, sites)], image.size)

    if isinstance(target, Submodule):
        gens = [_blockwise(space, image, v) for v in target.generators]
        sites = 2 * space.n if target.doubled else space.n
        return Submodule(space, gens, move(target.indices, sites),
                         doubled=target.doubled, r_closed=target.r_closed)
    if isinstance(target, StabiliserGroup):
        gens = [
            WeylElement(e.turn, _blockwise(space, image, e.shift),
                        _blockwise(space, image, e.phase))
            for e in target.generators
        ]
        return StabiliserGroup(space, gens, move(target.labels, 2 * space.n), target.turns,
                               target.denominator, target.scalar_order)
    raise InvalidInputError(f"cannot transport {type(target).__name__} along an isometry")


# ---------------------------------------------------------------------------
# census

@dataclass(frozen=True)
class CensusReport:
    """Counts over every submodule of the doubled space up to the size
    cap.  The witness count tracks non-CSS verdicts that also exhibit an
    anticommuting label; splitting can fail without one."""

    submodules: int
    isotropic: int
    css: int
    non_css_with_witness: int
    max_elems: int


def submodule_census(space: PhaseSpace, max_elems: int) -> CensusReport:
    """Count the submodules of the doubled space up to ``max_elems``
    elements a level at a time, as ``spaces.submodule_levels`` walks them,
    holding no more than two levels.

    Isotropy is the test of ``weyl.is_isotropic`` on each batch at once:
    form(b_g, a_h) = form(b_h, a_g) for every pair of greedy generators
    g, h.  The CSS and witness tests of ``css_verdict`` run as masks over
    the index rows of the isotropic modules: a label's index is shift +
    |H| * phase, so a module splits iff |phase = 0| |shift = 0| = |L|, and
    a non-CSS one has a witness iff some label's own phase and shift pair
    non-trivially, read from one table over the doubled space."""
    if max_elems < 1:
        raise InvalidInputError("max_elems must be positive")
    levels = submodule_levels(space, doubled=True, max_elems=max_elems)
    r = space.rank
    # Row b, column a: the pairing of phase b with shift a, at label index a + |H| * b.
    own = space.ring.eps_num[form_many(space, space.coords, space.coords)] % space.ring.eps_den
    anticommuting = own.ravel() > 0
    zero = space.vector_index(space.zero_vector())
    submodules = isotropic = css = with_witness = 0
    for level in levels:
        for batch in level:
            submodules += len(batch.indices)
            gens = digits(batch.generators, space.ring.size, 2 * r).reshape(
                *batch.generators.shape, 2 * r)
            pairs = _form(space, gens[:, :, None, r:], gens[:, None, :, :r])
            rows = batch.indices[(pairs == pairs.transpose(0, 2, 1)).all(axis=(1, 2))]
            phase, shift = np.divmod(rows, space.size)
            split = (phase == zero).sum(axis=1) * (shift == zero).sum(axis=1) == rows.shape[1]
            isotropic += len(rows)
            css += int(split.sum())
            with_witness += int(anticommuting[rows[~split]].any(axis=1).sum())
    return CensusReport(
        submodules=submodules,
        isotropic=isotropic,
        css=css,
        non_css_with_witness=with_witness,
        max_elems=max_elems,
    )
