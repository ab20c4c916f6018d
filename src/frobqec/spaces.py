"""Free modules over a table ring, with a perfect symmetric form.

The carrier space is R^(k*n): n sites, each a copy of the rank-k module
V = R^k.  A symmetric k x k matrix over R gives the per-site bilinear
form; it extends to the whole space as a sum over sites.  Composing the
form with the ring character yields the phase pairing, an exact turn.

Vectors are plain tuples of carrier indices, coordinate 0 fastest.  Spans
and the submodule census run on their mixed-radix indices: one engine,
``rings.index_span``, grows a sorted index array by whole cosets.  The
heavy sweeps gather through the ring tables with numpy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, InvalidInputError, ResourceLimitError
from .rings import RingSpec, Turn, digits, index_span, indices_of

AMBIENT_BOUND = 1 << 20
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
    def _powers(self) -> tuple[int, ...]:
        return tuple(self.ring.size**i for i in range(self.rank))

    @cached_property
    def coords(self) -> np.ndarray:
        """(size, rank) matrix of every vector, row i = vector_from_index(i)."""
        mat = digits(np.arange(self.size), self.ring.size, self.rank)
        mat.setflags(write=False)
        return mat

    def zero_vector(self) -> Vector:
        return (self.ring.zero,) * self.rank

    def vector_index(self, v: Vector) -> int:
        return sum(c * p for c, p in zip(v, self._powers))

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


def _vector_array(space: PhaseSpace, vectors) -> np.ndarray:
    return np.asarray(list(vectors), dtype=np.int64).reshape(-1, space.rank)


def form_many(space: PhaseSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise form values: out[i, j] = form(rows[i], cols[j]).

    Both inputs are (count, rank) coordinate matrices; the result holds
    ring element indices.  Runs in n*k^2 table gathers.
    """
    ring = space.ring
    add, mul = ring.add_table, ring.mul_table
    k = space.k
    out = np.full((rows.shape[0], cols.shape[0]), ring.zero, dtype=np.int64)
    for site in range(space.n):
        base = site * k
        for p in range(k):
            for q in range(k):
                b = space.form[p][q]
                if b == ring.zero:
                    continue
                left = mul[rows[:, base + p], b]
                out = add[out, mul[left[:, None], cols[None, :, base + q]]]
    return out


def pairing_turn_numerators(space: PhaseSpace, rows, cols) -> np.ndarray:
    """Pairwise pairing turns as numerators over the ring's shared
    denominator; zero means a trivial pairing."""
    ra = _vector_array(space, rows)
    ca = _vector_array(space, cols)
    return space.ring.eps_num[form_many(space, ra, ca)] % space.ring.eps_den


# ---------------------------------------------------------------------------
# submodules

class Submodule:
    """A finite set of vectors closed under addition, and under ring
    scalars when ``r_closed`` is set.

    Label sets stripped from operator groups are only additively closed
    over non-cyclic rings, so the scalar-closure flag is tracked rather
    than assumed.  ``doubled`` marks subsets of the doubled space H + H
    (vectors of length 2 * rank, shift half then phase half).
    """

    def __init__(self, space: PhaseSpace, generators, elements, *, doubled: bool,
                 r_closed: bool):
        self.space = space
        self.doubled = doubled
        self.r_closed = r_closed
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self._element_set = frozenset(self.elements)

    def __contains__(self, v: Vector) -> bool:
        return v in self._element_set

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        # Set equality of the closures, within one ambient space.
        return (
            isinstance(other, Submodule)
            and self.space is other.space
            and self.doubled == other.doubled
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((id(self.space), self.doubled, self.elements))

    def __repr__(self) -> str:
        kind = "doubled submodule" if self.doubled else "submodule"
        return f"<{kind} of {len(self)} vectors>"


def _width(space: PhaseSpace, doubled: bool) -> int:
    return 2 * space.rank if doubled else space.rank


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
    elems = map(tuple, digits(group, ring.size, width).tolist())
    return Submodule(space, gens, elems, doubled=doubled, r_closed=r_closed)


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

    The probe set must span the code over the ring, not just additively:
    a vector can pair trivially with g yet not with r*g, so scalar
    multiples of the generators are probed explicitly.  The complement
    of an additive-only code is itself only additively closed.
    """
    if code.doubled:
        raise InvalidInputError("orthogonal complements live in the plain space")
    m = space.ring.size
    if code.r_closed:
        multiples = space.ring.mul_table[:, _vector_array(space, code.generators)]
        probes = digits(np.unique(indices_of(multiples, m)), m, space.rank)
    else:
        probes = _vector_array(space, code.elements)

    den = space.ring.eps_den
    eps = space.ring.eps_num
    kept: list[Vector] = []
    chunk = max(1, (1 << 16) // max(1, len(probes)))
    coords = space.coords
    for start in range(0, space.size, chunk):
        block = coords[start : start + chunk]
        nums = eps[form_many(space, block, probes)] % den
        good = np.flatnonzero((nums == 0).all(axis=1))
        kept.extend(tuple(int(c) for c in block[i]) for i in good)
    return Submodule(space, kept, kept, doubled=False, r_closed=code.r_closed)


def is_self_orthogonal(space: PhaseSpace, code: Submodule) -> bool:
    """Whether every pair of code vectors pairs trivially.

    For a scalar-closed code this forces the form itself to vanish on
    generator pairs (sweeping scalars through the character leaves no
    slack); for an additive-only set the turns just have to vanish.
    """
    if code.doubled:
        raise InvalidInputError("self-orthogonality applies to codes in the plain space")
    gens = code.generators if code.generators else code.elements
    arr = _vector_array(space, gens)
    if arr.shape[0] == 0:
        return True
    values = form_many(space, arr, arr)
    if code.r_closed:
        return bool((values == space.ring.zero).all())
    nums = space.ring.eps_num[values] % space.ring.eps_den
    return bool((nums == 0).all())


def enumerate_submodules(space: PhaseSpace, *, doubled: bool = False,
                         max_elems: int | None = None) -> list[Submodule]:
    """Every scalar-closed submodule with at most ``max_elems`` vectors,
    breadth-first from M to M + Rx over the distinct cyclic submodules;
    |M + Rx| = |M| |R| / #{r : r*x in M} refuses a candidate over the
    cap before it is built.  The ambient must stay at desk scale.
    """
    ring = space.ring
    width = _width(space, doubled)
    ambient_size = ring.size**width
    if ambient_size > (1 << 16):
        raise ResourceLimitError(
            f"submodule enumeration over {ambient_size} ambient vectors is out of bounds"
        )
    if max_elems is None:
        max_elems = ambient_size

    # Rx = Ry iff y = u*x for a unit u (units of R / ann(x) lift to a
    # finite ring), so the least index of each unit orbit names Rx once.
    coords = digits(np.arange(ambient_size), ring.size, width)
    least = np.arange(ambient_size)
    for u in np.flatnonzero((ring.mul_table == ring.one).any(axis=1)):
        np.minimum(least, indices_of(ring.mul_table[u][coords], ring.size), out=least)
    reps = np.flatnonzero(least == np.arange(ambient_size))
    multiples = indices_of(ring.mul_table[:, coords[reps]], ring.size)

    trivial, _ = index_span(ring, width, [])
    found = {trivial.tobytes()}
    queue = [(trivial, ())]
    for group, gens in queue:
        inside = np.zeros(ambient_size, dtype=bool)
        inside[group] = True
        hits = inside[multiples].sum(axis=0)
        sizes = group.size * ring.size // hits
        todo = np.flatnonzero((hits < ring.size) & (sizes <= max_elems))
        while todo.size:
            bigger, _ = index_span(ring, width, multiples[:, todo[0]], start=group)
            if bigger.tobytes() not in found:
                found.add(bigger.tobytes())
                queue.append((bigger, gens + (int(reps[todo[0]]),)))
            # M + Ry lies in M + Rx when y does, and equals it at equal size.
            todo = todo[~(np.isin(reps[todo], bigger) & (sizes[todo] == bigger.size))]
    modules = [
        Submodule(space, map(tuple, coords[list(gens)].tolist()),
                  map(tuple, coords[group].tolist()), doubled=doubled, r_closed=True)
        for group, gens in queue
    ]
    return sorted(modules, key=lambda s: (len(s), s.elements))
