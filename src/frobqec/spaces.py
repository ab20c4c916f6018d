"""Free modules over a table ring, with a perfect symmetric form.

The carrier space is R^(k*n): n sites, each a copy of the rank-k module
V = R^k.  A symmetric k x k matrix over R gives the per-site bilinear
form; it extends to the whole space as a sum over sites.  Composing the
form with the ring character yields the phase pairing, an exact turn.

A single vector is a tuple of ring element indices.  A submodule holds
its elements once, as the sorted array of their mixed-radix indices
(coordinate 0 fastest, the order of ``PhaseSpace.coords``): one engine,
``rings.index_span``, grows that array by whole cosets, and every sweep
over a module gathers through the ring tables with numpy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError
from .rings import RingSpec, Turn, _contains, digits, index_span, indices_of, lookup

AMBIENT_BOUND = 1 << 20
# The submodule walk is refused once it has built more modules than
# this.  ``enumerate_submodules`` keeps them all, so the bound caps its
# memory; the census holds two levels, so for it the bound caps the run
# time and the size of a level.  The censuses of the tests and the
# benchmark walk at most about 3000.
MAX_SUBMODULES = 1 << 17
# Entries per pairing block in the sweeps over modules.
BLOCK = 1 << 16
ENV_AMBIENT_BOUND = "FROBQEC_MAX_CARRIER"

Vector = tuple[int, ...]


def ambient_bound() -> int:
    """The hard cap on carrier size, lowered (never raised) by the
    FROBQEC_MAX_CARRIER environment variable."""
    raw = os.environ.get(ENV_AMBIENT_BOUND)
    if raw is None:
        return AMBIENT_BOUND
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"{ENV_AMBIENT_BOUND} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidInputError(f"{ENV_AMBIENT_BOUND} must be positive, got {value}")
    return min(value, AMBIENT_BOUND)


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """n sites of the rank-k free module with a perfect symmetric form."""

    ring: RingSpec
    k: int
    n: int
    form: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.k * self.n

    @cached_property
    def size(self) -> int:
        return self.ring.size ** self.rank

    @cached_property
    def coords(self) -> np.ndarray:
        """(size, rank) matrix of every vector, row i = vector_from_index(i)."""
        mat = digits(np.arange(self.size), self.ring.size, self.rank)
        mat.setflags(write=False)
        return mat

    def zero_vector(self) -> Vector:
        return (self.ring.zero,) * self.rank

    def vector_index(self, v: Vector) -> int:
        m = self.ring.size
        return sum(c * m**i for i, c in enumerate(v))

    def vector_from_index(self, i: int) -> Vector:
        m = self.ring.size
        out = []
        for _ in range(self.rank):
            out.append(i % m)
            i //= m
        return tuple(out)

    def vectors(self):
        for i in range(self.size):
            yield self.vector_from_index(i)

    def add_vec(self, v: Vector, w: Vector) -> Vector:
        add = self.ring.add_table
        return tuple(int(add[a, b]) for a, b in zip(v, w))

    def neg_vec(self, v: Vector) -> Vector:
        neg = self.ring.neg_table
        return tuple(int(neg[a]) for a in v)

    def sub_vec(self, v: Vector, w: Vector) -> Vector:
        return self.add_vec(v, self.neg_vec(w))

    def scalar_vec(self, r: int, v: Vector) -> Vector:
        mul = self.ring.mul_table
        return tuple(int(mul[r, a]) for a in v)


def identity_form(ring: RingSpec, k: int) -> tuple[tuple[int, ...], ...]:
    """The diagonal form with ones: the standard dot product."""
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(k)) for i in range(k)
    )


def make_space(ring: RingSpec, k: int, n: int, form) -> PhaseSpace:
    """Build a space after checking symmetry and perfectness of the form.

    Perfect means v -> form(v, .) is injective on one site R^k; over a
    finite carrier that already makes it an isomorphism onto the dual.
    Injectivity reduces to a trivial left kernel of the form matrix,
    which is scanned exhaustively over R^k.
    """
    _check_carrier(ring, k, n)
    form_t = tuple(tuple(int(x) for x in row) for row in form)
    if len(form_t) != k or any(len(row) != k for row in form_t):
        raise InvalidInputError(f"form must be a {k} x {k} matrix")
    for row in form_t:
        for x in row:
            if not 0 <= x < ring.size:
                raise InvalidInputError(f"form entry {x} outside the carrier")
    for i in range(k):
        for j in range(k):
            if form_t[i][j] != form_t[j][i]:
                raise InvalidInputError("form must be symmetric")

    space = PhaseSpace(ring=ring, k=k, n=n, form=form_t)
    _check_perfect(ring, k, form_t)
    return space


def _check_carrier(ring: RingSpec, k: int, n: int) -> None:
    """Refuse k and n unless they are positive integers with |R|^(k*n)
    inside the ambient bound.

    Once k*n reaches the bound's bit length even |R| = 2 overflows it, so
    a huge k*n is refused without forming the power or printing k*n.
    """
    if not isinstance(k, int) or not isinstance(n, int) or k < 1 or n < 1:
        raise InvalidInputError(f"k and n must be positive integers, got {k!r}, {n!r}")
    bound = ambient_bound()
    rank = k * n
    if rank >= bound.bit_length() or ring.size**rank > bound:
        raise ResourceLimitError(f"carrier size {ring.size}^({k}*{n}) exceeds the bound {bound}")


def _check_perfect(ring: RingSpec, k: int, form: tuple[tuple[int, ...], ...]) -> None:
    m = ring.size
    site = digits(np.arange(m**k), m, k)
    add, mul = ring.add_table, ring.mul_table
    nonzero_row = np.zeros(m**k, dtype=bool)
    for q in range(k):
        acc = np.full(m**k, ring.zero, dtype=np.int64)
        for p in range(k):
            acc = add[acc, mul[site[:, p], form[p][q]]]
        nonzero_row |= acc != ring.zero
    kernel = np.flatnonzero(~nonzero_row)
    if kernel.size != 1:
        witness = int(kernel[1] if kernel[0] == 0 else kernel[0])
        raise InvalidInputError(
            f"form is not perfect: site vector {tuple(site[witness].tolist())} "
            "pairs trivially with everything"
        )


def form_eval(space: PhaseSpace, v: Vector, w: Vector) -> int:
    """form(v, w) as a ring element, summed over sites."""
    ring = space.ring
    k = space.k
    total = ring.zero
    for site in range(space.n):
        base = site * k
        for p in range(k):
            vp = v[base + p]
            if vp == ring.zero:
                continue
            row = space.form[p]
            for q in range(k):
                total = ring.add(total, ring.mul(ring.mul(vp, row[q]), w[base + q]))
    return total


def phase_pairing(space: PhaseSpace, v: Vector, w: Vector) -> Turn:
    """The exact phase pairing: character(form(v, w))."""
    return space.ring.epsilon(form_eval(space, v, w))


def form_many(space: PhaseSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise form values: out[i, j] = form(rows[i], cols[j])."""
    return _form(space, rows[:, None, :], cols[None, :, :])


def _form(space: PhaseSpace, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """form(left, right) over the last axis, broadcasting the others, in
    n*k^2 table gathers; the result holds ring element indices.  A perfect
    form has a non-zero entry, so the first term starts the sum."""
    ring = space.ring
    add, mul = ring.add_table, ring.mul_table
    k = space.k
    out = None
    for site in range(space.n):
        base = site * k
        for p in range(k):
            for q in range(k):
                b = space.form[p][q]
                if b == ring.zero:
                    continue
                x = left[..., base + p] if b == ring.one else mul[left[..., base + p], b]
                term = mul[x, right[..., base + q]]
                out = term if out is None else lookup(add, out, term)
    return out


def _first_nontrivial(space: PhaseSpace, rows: np.ndarray, cols: np.ndarray, keep=None):
    """The first (rows[i], cols[j]) in row-major order, rows with ``keep``
    set if a mask is given, whose pairing turn is non-trivial, as tuples,
    with their form value, or None; ``form_many`` runs on blocks of at most
    BLOCK entries."""
    chunk = max(1, BLOCK // max(1, len(cols)))
    for start in range(0, len(rows), chunk):
        block = rows[start : start + chunk]
        if keep is not None:
            block = block[keep[start : start + chunk]]
        for col in range(0, len(cols), BLOCK):
            values = form_many(space, block, cols[col : col + BLOCK])
            hits = np.argwhere(space.ring.eps_num[values] % space.ring.eps_den)
            if hits.size:
                i, j = hits[0]
                return tuple(block[i].tolist()), tuple(cols[col + j].tolist()), int(values[i, j])
    return None


def pairing_turn_numerators(space: PhaseSpace, rows, cols) -> np.ndarray:
    """Pairwise pairing turns as numerators over the ring's shared
    denominator; zero means a trivial pairing."""
    ra, ca = (np.asarray(list(v), dtype=np.int64).reshape(-1, space.rank) for v in (rows, cols))
    return space.ring.eps_num[form_many(space, ra, ca)] % space.ring.eps_den


# ---------------------------------------------------------------------------
# submodules

class Submodule:
    """A finite set of vectors closed under addition, and under ring
    scalars when ``r_closed`` is set.

    The elements are held once, as ``indices``, the sorted read-only
    array of their distinct indices (as in ``rings.digits``); ``rows`` and
    ``elements`` are derived views in tuple order.  ``generators`` are
    kept as given; none means the elements generate.

    Label sets stripped from operator groups are only additively closed
    over non-cyclic rings, so the scalar-closure flag is tracked rather
    than assumed.  ``doubled`` marks subsets of the doubled space H + H
    (vectors of length 2 * rank, shift half then phase half).
    """

    def __init__(self, space: PhaseSpace, generators, indices, *, doubled: bool,
                 r_closed: bool):
        self.space = space
        self.doubled = doubled
        self.r_closed = r_closed
        self.generators = tuple(generators)
        self.indices = _index_array(indices, space.ring.size ** _width(space, doubled))
        self.indices.setflags(write=False)

    @property
    def rows(self) -> np.ndarray:
        """Coordinate matrix of the elements, in the order of ``elements``."""
        rows = digits(self.indices, self.space.ring.size, _width(self.space, self.doubled))
        return rows[np.lexsort(rows.T[::-1])]

    @property
    def elements(self) -> tuple[Vector, ...]:
        """The elements as sorted coordinate tuples, for reports and tests."""
        return tuple(map(tuple, self.rows.tolist()))

    def __contains__(self, v) -> bool:
        m = self.space.ring.size
        return (len(v) == _width(self.space, self.doubled) and all(0 <= c < m for c in v)
                and bool(_contains(self.indices, indices_of(v, m).reshape(1))[0]))

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        # Set equality of the closures, within one ambient space.
        return (
            isinstance(other, Submodule)
            and self.space is other.space
            and self.doubled == other.doubled
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((id(self.space), self.doubled, self.indices.tobytes()))

    def __repr__(self) -> str:
        kind = "doubled submodule" if self.doubled else "submodule"
        return f"<{kind} of {len(self)} vectors>"


def _width(space: PhaseSpace, doubled: bool) -> int:
    return 2 * space.rank if doubled else space.rank


def _index_array(indices, bound: int) -> np.ndarray:
    """Sorted distinct int64 copy of a flat list of integers in range(bound)."""
    arr = np.asarray(indices)
    if arr.ndim != 1 or arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0
                                      or arr.max() >= bound):
        raise InvalidInputError(f"submodule elements must be flat indices in range({bound})")
    arr = arr.astype(np.int64)
    return arr if (arr[1:] > arr[:-1]).all() else np.unique(arr)


def _span(space: PhaseSpace, generators, doubled: bool, r_closed: bool) -> Submodule:
    gens = [tuple(g) for g in generators]
    width = _width(space, doubled)
    for g in gens:
        _check_vector(space, g, width)
    ring = space.ring
    rows = np.asarray(gens, dtype=np.int64).reshape(-1, width)
    if r_closed:
        rows = ring.mul_table[:, rows].reshape(-1, width)
    group, _ = index_span(ring, width, indices_of(rows, ring.size))
    return Submodule(space, gens, group, doubled=doubled, r_closed=r_closed)


def submodule_span(space: PhaseSpace, generators, *, doubled: bool = False) -> Submodule:
    """Smallest scalar-closed submodule containing the generators."""
    return _span(space, generators, doubled, r_closed=True)


def additive_module(space: PhaseSpace, generators, *, doubled: bool = False) -> Submodule:
    """Additive closure only; used for label sets of operator groups."""
    return _span(space, generators, doubled, r_closed=False)


def _check_vector(space: PhaseSpace, v: Vector, width: int | None = None) -> None:
    width = space.rank if width is None else width
    if len(v) != width:
        raise InvalidInputError(f"vector {v!r} should have {width} coordinates")
    for c in v:
        if not isinstance(c, int) or not 0 <= c < space.ring.size:
            raise InvalidInputError(f"coordinate {c!r} outside the ring carrier")


def orthogonal(space: PhaseSpace, code: Submodule) -> Submodule:
    """All of H pairing trivially with the code.

    For a scalar-closed code C = sum R g over its generators g, v is in
    the complement iff form(v, g) = 0 for every generator.  The form is
    bilinear over a commutative ring, so eps(form(v, r g)) = eps(r
    form(v, g)), and that vanishes for every r iff form(v, g) = 0,
    because the character is generating.  Turns alone would not do: a
    vector can pair trivially with g yet not with r g.  An additive-only
    code has no scalars to sweep, so v is tested by its turns, and its
    complement is itself only additively closed.  The turn of form(v, .)
    is additive, so trivial turns on a set generating (C, +) are trivial
    on all of C: v is tested against the greedy generating set that
    ``index_span`` picks from the elements, at most log2 |C| of them.
    """
    if code.doubled:
        raise InvalidInputError("orthogonal complements live in the plain space")
    if code.r_closed:
        probes = _generator_rows(code)
    else:
        _, grew = index_span(space.ring, space.rank, code.indices)
        probes = digits(code.indices[grew], space.ring.size, space.rank)
    ring = space.ring
    kept = []
    chunk = max(1, BLOCK // max(1, len(probes)))
    coords = space.coords
    for start in range(0, space.size, chunk):
        values = form_many(space, coords[start : start + chunk], probes)
        if code.r_closed:
            trivial = values == ring.zero
        else:
            trivial = ring.eps_num[values] % ring.eps_den == 0
        kept.append(start + np.flatnonzero(trivial.all(axis=1)))
    return Submodule(space, (), np.concatenate(kept), doubled=False, r_closed=code.r_closed)


def _generator_rows(code: Submodule) -> np.ndarray:
    """Coordinate rows of the generators, or of the elements if none."""
    gens = np.asarray(code.generators, dtype=np.int64)
    return gens.reshape(len(gens), -1) if code.generators else code.rows


def is_self_orthogonal(space: PhaseSpace, code: Submodule) -> bool:
    """Whether every pair of code vectors pairs trivially.

    For a scalar-closed code this forces the form itself to vanish on
    generator pairs (sweeping scalars through the character leaves no
    slack); for an additive-only set the turns just have to vanish.
    """
    if code.doubled:
        raise InvalidInputError("self-orthogonality applies to codes in the plain space")
    arr = _generator_rows(code)
    values = form_many(space, arr, arr)
    if code.r_closed:
        return bool((values == space.ring.zero).all())
    nums = space.ring.eps_num[values] % space.ring.eps_den
    return bool((nums == 0).all())


class ModuleBatch(NamedTuple):
    """Submodules of one size, a row each: ``indices`` holds the sorted
    indices of the elements, ``generators`` the indices of the greedy
    generators."""

    indices: np.ndarray
    generators: np.ndarray


def submodule_levels(space: PhaseSpace, *, doubled: bool = False,
                     max_elems: int | None = None):
    """Every scalar-closed submodule with at most ``max_elems`` vectors,
    each built once by canonical augmentation (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998), yielded one level
    at a time: level t lists the modules with t generators as one
    ``ModuleBatch`` per module size.  The ambient must stay at desk
    scale.  Only the level being grown and its children are held.

    The canonical generators of a module N are its greedy sequence
    g_1 < ... < g_t, where g_i is the least index of N outside
    span(g_1 .. g_(i-1)).  That least element is the least of its
    unit orbit, since the orbit of a vector outside a submodule stays
    outside.  So N comes once from its canonical parent
    M = span(g_1 .. g_(t-1)): M, with last generator g, accepts M + Rx
    only when x is an orbit representative past g outside M and the
    least element of M + Rx outside M.  The rule asks nothing of the
    ring, so Z_m, chain rings, Z_4[u]/(u^2) and products need no
    per-family canonical form.  The children of a level all have one
    generator more, so the level is walked as a whole (orderly
    generation, Read, "Every one a winner", Ann. Discrete Math. 2, 1978):
    the parents of one size, a chunk at a time, against all their
    candidates at once.

    One gather reads which multiples r*x of each candidate lie in its
    parent M.  That column is the ideal I_x = {r : r*x in M}, so
    |M + Rx| = |M| |R| / |I_x| refuses a candidate over the cap before it
    is built, and M + Rx is the disjoint union of the M + r*x over the
    least elements r of the cosets of I_x.  (Parent, candidate) pairs
    that share an ideal are built together, in (parent, candidate) order
    and blocks of about BLOCK entries.  After each block, a later
    candidate y of M inside a built M + Rx of size |M + Ry| is dropped:
    then M + Ry = M + Rx, whose least new element is at most x < y, so y
    is not canonical.

    The ambient bound is checked at the call, before the first level.
    ``MAX_SUBMODULES`` bounds the modules walked: the running count is
    checked after every block, before a level is put together.
    """
    ring = space.ring
    m = ring.size
    width = _width(space, doubled)
    ambient_size = m**width
    if ambient_size > (1 << 16):
        raise ResourceLimitError(
            f"submodule enumeration over {ambient_size} ambient vectors is out of bounds"
        )
    if max_elems is None:
        max_elems = ambient_size

    # Rx = Ry iff y = u*x for a unit u (units of R / ann(x) lift to a
    # finite ring), so the least index of each unit orbit names Rx once.
    coords = digits(np.arange(ambient_size), m, width)
    least = np.arange(ambient_size)
    for u in np.flatnonzero((ring.mul_table == ring.one).any(axis=1)):
        np.minimum(least, indices_of(ring.mul_table[u][coords], m), out=least)
    reps = np.flatnonzero(least == np.arange(ambient_size))
    multiples = indices_of(ring.mul_table[:, coords[reps]], m)

    # Vectors add by index through the add table of R^d, d coordinates at
    # a time, for the largest d dividing the width with |R|^d <= 256.
    d = max(c for c in range(1, width + 1) if width % c == 0 and (c == 1 or m**c <= 256))
    piece = m**d
    site = digits(np.arange(piece), m, d)
    add = ring.add_table if d == 1 else sum(
        ring.add_table[np.ix_(site[:, i], site[:, i])] * m**i for i in range(d))
    scales = piece ** np.arange(width // d)

    def added(group: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Row i holds group[i, j] + steps[i, k] over every j and k, as indices."""
        group, steps = group[:, :, None], steps[:, None, :]
        sums = lookup(add, group % piece, steps % piece)
        for scale in scales[1:]:
            sums = sums + scale * lookup(add, group // scale % piece, steps // scale % piece)
        return sums.reshape(len(group), -1)

    transversals: dict[bytes, np.ndarray] = {}

    def transversal(members: np.ndarray) -> np.ndarray:
        """The least element of each coset r + I, the coset I first."""
        key = np.packbits(members).tobytes()
        if key not in transversals:
            firsts = np.flatnonzero(ring.add_table[:, members].min(axis=1) == np.arange(m))
            transversals[key] = firsts[np.argsort(~members[firsts], kind="stable")]
        return transversals[key]

    def pairs_of(group: np.ndarray, firsts: np.ndarray):
        """Every (parent, candidate) pair of a chunk of parents, candidates
        past the parent's last generator, in (parent, candidate) order, with
        the child's size and the parent's ideal column; pairs with the
        candidate inside the parent or the child over the cap are dropped."""
        low = firsts.min()
        inside = np.zeros((len(group), ambient_size), dtype=bool)
        inside[np.arange(len(group))[:, None], group] = True
        hit = inside[:, multiples[:, low:]]
        hits = hit.sum(axis=1)
        sizes = group.shape[1] * m // hits
        parent, col = np.nonzero((hits < m) & (sizes <= max_elems)
                                 & (np.arange(low, reps.size) >= firsts[:, None]))
        return parent, low + col, sizes[parent, col], hit[parent, :, col].T

    # |M + Rx| / |M| = |R| / |I_x| divides |R| and exceeds 1.
    least_step = min(p for p in range(2, m + 1) if m % p == 0)

    def children_of(batch: ModuleBatch):
        """The canonical children of a batch of parents, a chunk of parents
        at a time and a block of pairs of one ideal at a time."""
        size = batch.indices.shape[1]
        if size * least_step > max_elems:
            return
        firsts = (reps.searchsorted(batch.generators[:, -1]) + 1 if batch.generators.size
                  else np.zeros(len(batch.indices), dtype=np.int64))
        chunk = max(1, BLOCK // max(ambient_size, reps.size * m))
        for start in range(0, len(batch.indices), chunk):
            group = batch.indices[start : start + chunk]
            parent, cand, sizes, hit = pairs_of(group, firsts[start : start + chunk])
            if not cand.size:
                continue
            keys = np.packbits(hit.T, axis=1)
            _, example, ideal_of = np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
                                             return_index=True, return_inverse=True)
            rest = np.arange(cand.size)
            while rest.size:
                take = max(1, int(np.cumsum(sizes[rest]).searchsorted(BLOCK, side="right")))
                block, rest = rest[:take], rest[take:]
                # Only the last parent of a block can have candidates left;
                # for it, the least size of a built child holding each vector.
                spill = parent[block[-1]]
                least_built = (np.full(ambient_size, ambient_size + 1)
                               if rest.size and parent[rest[0]] == spill else None)
                for ideal in range(example.size):
                    pairs = block[ideal_of[block] == ideal]
                    if not pairs.size:
                        continue
                    cosets = transversal(hit[:, example[ideal]])[1:]
                    # (M + Rx) minus M: the cosets M + r*x past I_x itself.
                    new = added(group[parent[pairs]], multiples[cosets][:, cand[pairs]].T)
                    if least_built is not None:
                        at = new[parent[pairs] == spill]
                        least_built[at] = np.minimum(least_built[at], size * (cosets.size + 1))
                    canonical = new.min(axis=1) == reps[cand[pairs]]
                    if canonical.any():
                        pairs, new = pairs[canonical], new[canonical]
                        owner, x = start + parent[pairs], reps[cand[pairs]]
                        rows = np.concatenate([group[parent[pairs]], new], axis=1)
                        yield ModuleBatch(np.sort(rows, axis=1),
                                          np.column_stack([batch.generators[owner], x]))
                if least_built is not None:
                    rest = rest[(parent[rest] != spill)
                                | (least_built[reps[cand[rest]]] > sizes[rest])]

    def walk():
        zero = indices_of([ring.zero] * width, m).reshape(1, 1)
        level = [ModuleBatch(zero, np.zeros((1, 0), dtype=np.int64))]
        walked = 1
        while level:
            yield level
            children: dict[int, list[ModuleBatch]] = {}
            for batch in level:
                for found in children_of(batch):
                    walked += len(found.indices)
                    if walked > MAX_SUBMODULES:
                        raise ResourceLimitError(
                            f"submodule enumeration walked more than {MAX_SUBMODULES} modules")
                    children.setdefault(found.indices.shape[1], []).append(found)
            level = [ModuleBatch(*map(np.concatenate, zip(*batches)))
                     for _, batches in sorted(children.items())]

    return walk()


def enumerate_submodules(space: PhaseSpace, *, doubled: bool = False,
                         max_elems: int | None = None) -> list[Submodule]:
    """Every scalar-closed submodule with at most ``max_elems`` vectors,
    the levels of ``submodule_levels`` put together.  Modules come out
    by size, then by their ``elements`` tuples, with their greedy
    generators as ``generators``."""
    m = space.ring.size
    width = _width(space, doubled)
    modules = [
        Submodule(space, map(tuple, digits(gens, m, width).tolist()), indices,
                  doubled=doubled, r_closed=True)
        for level in submodule_levels(space, doubled=doubled, max_elems=max_elems)
        for batch in level
        for indices, gens in zip(batch.indices, batch.generators)
    ]
    # Indices with coordinate 0 as the slowest digit sort like the tuples.
    index = np.arange(m**width)
    tuple_rank = sum(index // m**i % m * m ** (width - 1 - i) for i in range(width))
    return sorted(modules, key=lambda s: (len(s), np.sort(tuple_rank[s.indices]).tolist()))
