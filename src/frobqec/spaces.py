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

A sweep of all of H against a few probes w extends the linear maps
v -> form(v, w) digit by digit (``carrier_pairings``), with no
coordinate matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError
from .rings import RingSpec, Turn, _contains, _sumset, digits, index_span, indices_of

AMBIENT_BOUND = 1 << 20
# The submodule walk is refused once it has built more modules than
# this.  ``enumerate_submodules`` keeps them all, so the bound caps its
# memory; the census holds two levels, so for it the bound caps the run
# time and the size of a level.  The tests walk at most 32657 (the
# golden census of chain42_ideal.json, cap 16), the benchmark 606.
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
        """(size, rank) matrix of every vector: row i holds the digits of i
        in base |R|, coordinate 0 fastest (``vector_index`` inverts it)."""
        mat = digits(np.arange(self.size), self.ring.size, self.rank)
        mat.setflags(write=False)
        return mat

    @cached_property
    def form_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool, bool]:
        """The terms v_p b w_q of the form summed over all sites, one for
        each non-zero entry b of the site form: the coordinates p and q,
        the entries b, whether any b is other than one, and whether p and
        q both run over every coordinate in order (a diagonal form)."""
        ring, k = self.ring, self.k
        terms = [(site * k + p, site * k + q, b) for site in range(self.n)
                 for p, row in enumerate(self.form) for q, b in enumerate(row) if b != ring.zero]
        p, q, b = map(np.array, zip(*terms))
        every = np.arange(self.rank)
        return (p, q, b, bool((b != ring.one).any()),
                np.array_equal(p, every) and np.array_equal(q, every))

    def zero_vector(self) -> Vector:
        return (self.ring.zero,) * self.rank

    def vector_index(self, v: Vector) -> int:
        m = self.ring.size
        return sum(c * m**i for i, c in enumerate(v))

    def add_vec(self, v: Vector, w: Vector) -> Vector:
        return tuple(map(self.ring.add, v, w))

    def neg_vec(self, v: Vector) -> Vector:
        neg = self.ring.neg_table
        return tuple(int(neg[a]) for a in v)

    def scalar_vec(self, r: int, v: Vector) -> Vector:
        return tuple(self.ring.mul(r, a) for a in v)


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
    """Refuse the form unless no site vector v but 0 has form(v, e_q) = 0
    for every unit vector e_q; row v of the form's ``_linear_rows`` holds
    those values."""
    kernel = np.flatnonzero(np.concatenate([(values == ring.zero).all(axis=1)
                                            for values in _linear_rows(ring, np.array(form))]))
    if kernel.size != 1:
        witness = int(kernel[1] if kernel[0] == 0 else kernel[0])
        raise InvalidInputError(
            f"form is not perfect: site vector {tuple(digits(witness, ring.size, k)[0].tolist())} "
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
            for q, coeff in enumerate(space.form[p]):
                if coeff != ring.zero:
                    x = vp if coeff == ring.one else ring.mul(vp, coeff)
                    total = ring.add(total, ring.mul(x, w[base + q]))
    return total


def phase_pairing(space: PhaseSpace, v: Vector, w: Vector) -> Turn:
    """The exact phase pairing: character(form(v, w))."""
    return space.ring.epsilon(form_eval(space, v, w))


def form_many(space: PhaseSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise form values: out[i, j] = form(rows[i], cols[j])."""
    return _form(space, rows[:, None, :], cols[None, :, :])


def _form(space: PhaseSpace, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """form(left, right) over the last axis, broadcasting the others, as
    ring element indices.  The ``form_terms`` go on a new last axis, a
    batch of about BLOCK entries at a time: one ``mul_many`` for the
    coefficients other than one, one for the products, and the batch is
    summed by halves in about log2 of its length ``add_many`` calls.  A
    perfect form has a non-zero entry, so there is a first term."""
    ring = space.ring
    p, q, b, scaled, diagonal = space.form_terms
    batch = max(1, BLOCK // max(1, np.broadcast(left[..., 0], right[..., 0]).size))
    out = None
    for start in range(0, len(b), batch):
        at = slice(start, start + batch)
        x, y = (left[..., at], right[..., at]) if diagonal else (left[..., p[at]], right[..., q[at]])
        if scaled:
            x = ring.mul_many(x, b[at])
        values = ring.mul_many(x, y)
        count = values.shape[-1]
        while count > 1:
            half = (count + 1) // 2
            values[..., : count - half] = ring.add_many(values[..., : count - half],
                                                        values[..., half:count])
            count = half
        out = values[..., 0] if out is None else ring.add_many(out, values[..., 0])
    return out


def carrier_pairings(space: PhaseSpace, probes):
    """form(v, w) for every v of H in index order against one or more
    probes w, as row-major (start, col, values) blocks of at most BLOCK
    entries, values[i, j] = form(v_(start + i), probes[col + j]).  The
    form is linear in v, form(v, w) = sum_t v_t form(e_t, w), so
    ``_linear_rows`` sweeps H without its coordinates.  No probes, no
    blocks."""
    probes = np.asarray(probes, dtype=np.intp).reshape(-1, space.rank)
    if not len(probes):
        return
    units = np.where(np.eye(space.rank, dtype=bool), space.ring.one, space.ring.zero)
    start = 0
    for rows in _linear_rows(space.ring, _form(space, units[:, None], probes[None])):
        for col in range(0, len(probes), BLOCK):
            yield start, col, rows[:, col : col + BLOCK]
        start += len(rows)


def _linear_rows(ring: RingSpec, coeffs: np.ndarray):
    """The rows sum_t d_t(h) coeffs[t] over the indices h below
    |R|^len(coeffs) in order, digit 0 fastest, in blocks of whole rows of
    at most BLOCK entries (one row if a row is longer).  The low digits
    form one table while it fits, T_(t+1)[a |R|^t + i] = a coeffs[t] +
    T_t[i]; the rows over the other digits, swept alike, offset copies of
    it.  If no digit fits, coeffs[0]'s multiples come a block at a time."""
    elems, width = np.arange(ring.size), coeffs.shape[1]
    step = max(1, BLOCK // width)
    table, t = np.full((1, width), ring.zero, dtype=np.intp), 0
    while t < len(coeffs) and len(table) * ring.size <= step:
        products = ring.mul_many(elems[:, None, None], coeffs[t])
        table = (ring.add_many(products, table) if t else products).reshape(-1, width)
        t += 1
    if t == len(coeffs):
        yield table
    elif t:
        per = step // len(table)
        for offsets in _linear_rows(ring, coeffs[t:]):
            for i in range(0, len(offsets), per):
                yield ring.add_many(offsets[i : i + per, None], table).reshape(-1, width)
    else:
        for offsets in _linear_rows(ring, coeffs[1:]):
            for offset in offsets:
                for a in range(0, ring.size, step):
                    yield ring.add_many(offset, ring.mul_many(elems[a : a + step, None], coeffs[0]))


def pairing_turn_numerators(space: PhaseSpace, rows, cols) -> np.ndarray:
    """Pairwise pairing turns as numerators over the ring's shared
    denominator; zero means a trivial pairing."""
    ra, ca = (np.asarray(v, dtype=np.int64).reshape(-1, space.rank) for v in (rows, cols))
    return space.ring.eps_num[form_many(space, ra, ca)]


# ---------------------------------------------------------------------------
# submodules

class Submodule:
    """A finite set of vectors closed under addition, and under ring
    scalars when ``r_closed`` is set.

    The elements are held once, as ``indices``, the sorted read-only
    array of their distinct indices (as in ``rings.digits``); ``rows`` and
    ``elements`` are derived views in tuple order.  ``generators`` are
    kept as given, and may be empty; ``spanning`` is the set that every
    pairing test reads.

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

    @cached_property
    def spanning(self) -> np.ndarray:
        """Read-only coordinate rows of a set generating the module, over
        R when ``r_closed`` and over Z otherwise: the generators, or the
        elements if there are none, and past log2 |M| + 1 of them only
        those outside the additive span of the rows before them, as
        ``index_span`` grows it, at most log2 |M|.  Those keep the
        additive span, and so the R-span, of all of them."""
        m, width = self.space.ring.size, _width(self.space, self.doubled)
        items = (indices_of(np.reshape(self.generators, (-1, width)), m) if self.generators
                 else self.indices)
        if items.size > len(self).bit_length():
            items = items[index_span(self.space.ring, width, items)[1]]
        rows = digits(items, m, width)
        rows.setflags(write=False)
        return rows

    def __contains__(self, v) -> bool:
        m = self.space.ring.size
        return (len(v) == _width(self.space, self.doubled)
                and all(isinstance(c, (int, np.integer)) and 0 <= c < m for c in v)
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
        # r g is the sum of the d_i(r) W_i g: the W_i g span the R-span.
        rows = ring.mul_many(ring.weights()[:, None, None], rows).reshape(-1, width)
    group = index_span(ring, width, indices_of(rows, ring.size))[0]
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


def _trivial(space: PhaseSpace, values: np.ndarray, r_closed: bool) -> np.ndarray:
    """Where form values on a set generating a module stay trivial on the
    whole module: where they are zero if it is scalar-closed, where their
    turn is zero if not.

    The form is bilinear over a commutative ring, so eps(form(v, r g)) =
    eps(r form(v, g)), and over every scalar r that vanishes iff form(v, g)
    = 0, because the character is generating; so on a scalar-closed module
    the values themselves must vanish, and a zero turn alone would not do.
    An additive module has no scalars to sweep, and the turn is additive,
    so a zero turn on a set generating (M, +) is zero on all of M.
    """
    ring = space.ring
    return values == ring.zero if r_closed else ring.eps_num[values] == 0


def orthogonal(space: PhaseSpace, code: Submodule) -> Submodule:
    """All of H pairing trivially with the code: the v whose form values
    on ``code.spanning`` are ``_trivial``, read block by block from one
    ``carrier_pairings`` sweep of H against those rows.  The complement
    is scalar-closed iff the code is."""
    if code.doubled:
        raise InvalidInputError("orthogonal complements live in the plain space")
    keep = np.ones(space.size, dtype=bool)
    for start, _, values in carrier_pairings(space, code.spanning):
        keep[start : start + len(values)] &= _trivial(space, values, code.r_closed).all(axis=1)
    return Submodule(space, (), np.flatnonzero(keep), doubled=False, r_closed=code.r_closed)


def is_self_orthogonal(space: PhaseSpace, code: Submodule) -> bool:
    """Whether every pair of code vectors pairs trivially: the form
    values on pairs of ``code.spanning`` are ``_trivial``."""
    if code.doubled:
        raise InvalidInputError("self-orthogonality applies to codes in the plain space")
    rows = code.spanning
    return bool(_trivial(space, form_many(space, rows, rows), code.r_closed).all())


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
    # The units are the rows holding one, read a block of rows at a time.
    coords = digits(np.arange(ambient_size), m, width)
    least = np.arange(ambient_size)
    elems, rows = np.arange(m), max(1, BLOCK // m)
    units = np.concatenate([(ring.mul_many(elems[i : i + rows, None], elems) == ring.one).any(axis=1)
                            for i in range(0, m, rows)])
    for u in np.flatnonzero(units):
        np.minimum(least, indices_of(ring.mul_many(u, coords), m), out=least)
    reps = np.flatnonzero(least == np.arange(ambient_size))
    multiples = indices_of(ring.mul_many(elems[:, None, None], coords[reps]), m)

    # Vectors add by index d coordinates at a time, for the largest d
    # dividing the width with |R|^d <= 256, through the sumset vectors of
    # R^d: its digits are the ring's, repeated d times.
    d = max(c for c in range(1, width + 1) if width % c == 0 and (c == 1 or m**c <= 256))
    piece = m**d
    place, sums = _sumset(ring.radices * d)
    scales = piece ** np.arange(width // d)

    def added(group: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Row i holds group[i, j] + steps[i, k] over every j and k, as indices."""
        group, steps = group[:, :, None], steps[:, None, :]
        total = sums.take(place.take(group % piece) + place.take(steps % piece))
        for scale in scales[1:]:
            total = total + scale * sums.take(place.take(group // scale % piece)
                                              + place.take(steps // scale % piece))
        return total.reshape(len(group), -1)

    transversals: dict[bytes, np.ndarray] = {}

    def transversal(members: np.ndarray) -> np.ndarray:
        """The least element of each coset r + I, the coset I first."""
        key = np.packbits(members).tobytes()
        if key not in transversals:
            cosets = ring.add_many(np.arange(m)[:, None], np.flatnonzero(members))
            firsts = np.flatnonzero(cosets.min(axis=1) == np.arange(m))
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
    by_size: dict[int, list[ModuleBatch]] = {}
    for level in submodule_levels(space, doubled=doubled, max_elems=max_elems):
        for batch in level:
            by_size.setdefault(batch.indices.shape[1], []).append(batch)
    modules = []
    for _, batches in sorted(by_size.items()):
        rows = np.concatenate([batch.indices for batch in batches])
        gens = [g for batch in batches
                for g in digits(batch.generators, m, width)
                .reshape(*batch.generators.shape, width).tolist()]
        # Indices with coordinate 0 as the slowest digit sort like the
        # tuples; rows of sorted ranks then sort like the element tuples.
        rank = np.sort(sum(rows // m**i % m * m ** (width - 1 - i) for i in range(width)), axis=1)
        modules += [Submodule(space, map(tuple, gens[i]), rows[i], doubled=doubled, r_closed=True)
                    for i in np.lexsort(rank.T[::-1])]
    return modules
