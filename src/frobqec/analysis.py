"""Structural analysis of codes: CSS splitting, nilpotent protection,
ring invariants, form isometries, and the submodule census."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError
from .rings import (Ideal, RingSpec, Turn, _require_nil, digits, indices_of, lookup,
                    nilpotency_index, nilradical)
from .spaces import (
    PhaseSpace,
    Submodule,
    Vector,
    _first_nontrivial,
    _form,
    enumerate_submodules,
    identity_form,
    is_self_orthogonal,
    orthogonal,
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


@dataclass(frozen=True)
class IsometryGroup:
    """All invertible k x k matrices preserving the single-site form."""

    space: PhaseSpace
    matrices: tuple[Matrix, ...]

    def __len__(self) -> int:
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)


def isometry_group(space: PhaseSpace) -> IsometryGroup:
    """Brute-force scan of all matrices over the ring.

    Form preservation (G^T B G = B) over a perfect form already forces
    injectivity, hence invertibility on a finite module; both are still
    verified for the survivors, as is closure under products.
    """
    if space.n != 1:
        raise InvalidInputError("isometries are computed on a single-site space")
    ring = space.ring
    k = space.k
    total = ring.size ** (k * k)
    if total > ISOMETRY_SCAN_BOUND:
        raise ResourceLimitError(f"isometry scan over {total} matrices is out of bounds")

    kept: list[Matrix] = []
    for code in range(total):
        g = _matrix_from_index(ring, k, code)
        if _preserves_form(ring, space.form, g):
            kept.append(g)

    _check_isometry_group(space, kept)
    return IsometryGroup(space, tuple(kept))


def _matrix_from_index(ring: RingSpec, k: int, code: int) -> Matrix:
    entries = []
    for _ in range(k * k):
        entries.append(code % ring.size)
        code //= ring.size
    return tuple(tuple(entries[i * k : (i + 1) * k]) for i in range(k))


def _mat_mul(ring: RingSpec, x: Matrix, y: Matrix) -> Matrix:
    k = len(x)
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = ring.zero
            for t in range(k):
                acc = ring.add(acc, ring.mul(x[i][t], y[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _preserves_form(ring: RingSpec, form, g: Matrix) -> bool:
    return _mat_mul(ring, _mat_mul(ring, tuple(zip(*g)), form), g) == tuple(
        tuple(row) for row in form
    )


def _check_isometry_group(space: PhaseSpace, matrices: list[Matrix]) -> None:
    ring = space.ring
    k = space.k
    members = set(matrices)
    ident = identity_form(ring, k)
    if ident not in members:
        raise ConsistencyError("isometry scan lost the identity")
    site = [tuple(v) for v in digits(range(ring.size**k), ring.size, k).tolist()]
    for g in matrices:
        # Injectivity scan: a form-preserving map with a kernel vector
        # would contradict perfectness, so any hit is a real failure.
        images = {apply_matrix(ring, g, v) for v in site}
        if len(images) != ring.size**k:
            raise ConsistencyError(f"matrix {g} preserves the form but is singular")
        if not any(_mat_mul(ring, g, h) == ident for h in matrices):
            raise ConsistencyError(f"matrix {g} has no inverse among the isometries")
        for h in matrices:
            if _mat_mul(ring, g, h) not in members:
                raise ConsistencyError("isometries failed to close under products")


def apply_matrix(ring: RingSpec, g: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    k = len(g)
    out = []
    for i in range(k):
        acc = ring.zero
        for j in range(k):
            acc = ring.add(acc, ring.mul(g[i][j], v[j]))
        out.append(acc)
    return tuple(out)


def apply_matrix_blockwise(space: PhaseSpace, g: Matrix, v: Vector) -> Vector:
    """Apply the single-site matrix to each k-block of an ambient vector
    (or to each block of both halves of a doubled vector)."""
    ring = space.ring
    k = space.k
    if len(v) % k:
        raise InvalidInputError("vector length is not a multiple of the site rank")
    out: list[int] = []
    for base in range(0, len(v), k):
        out.extend(apply_matrix(ring, g, v[base : base + k]))
    return tuple(out)


def isometry_action(space: PhaseSpace, g: Matrix, target):
    """Transport a submodule or a stabiliser group along an isometry.

    Labels map blockwise through the matrix and turns stay put; the
    pairing is preserved, so images of closed sets are closed and all
    the derived verdicts transport unchanged.  An index array moves with
    one gather: each k-block of coordinates is one digit in base |R|^k,
    sent to the index of its image.
    """
    if not _preserves_form(space.ring, space.form, g):
        raise InvalidInputError("matrix does not preserve the form")
    ring = space.ring
    block = ring.size**space.k
    site = digits(np.arange(block), ring.size, space.k)
    image = np.full(site.shape, ring.zero, dtype=np.intp)
    for i, j in np.ndindex(space.k, space.k):
        image[:, i] = lookup(ring.add_table, image[:, i], ring.mul_table[g[i][j], site[:, j]])
    image = indices_of(image, ring.size)

    def move(indices, sites: int) -> np.ndarray:
        return indices_of(image[digits(indices, block, sites)], block)

    if isinstance(target, Submodule):
        gens = [apply_matrix_blockwise(space, g, v) for v in target.generators]
        sites = 2 * space.n if target.doubled else space.n
        return Submodule(space, gens, move(target.indices, sites),
                         doubled=target.doubled, r_closed=target.r_closed)
    if isinstance(target, StabiliserGroup):
        gens = [
            WeylElement(e.turn, apply_matrix_blockwise(space, g, e.shift),
                        apply_matrix_blockwise(space, g, e.phase))
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
    if max_elems < 1:
        raise InvalidInputError("max_elems must be positive")
    modules = enumerate_submodules(space, doubled=True, max_elems=max_elems)
    isotropic = css = with_witness = 0
    for module in modules:
        if not is_isotropic(space, module):
            continue
        isotropic += 1
        verdict = css_verdict(space, module)
        if verdict.status == "css":
            css += 1
        elif verdict.witness is not None:
            with_witness += 1
    return CensusReport(
        submodules=len(modules),
        isotropic=isotropic,
        css=css,
        non_css_with_witness=with_witness,
        max_elems=max_elems,
    )
