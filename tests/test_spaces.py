"""The module layer: exact vectors, perfect forms, orthogonality.

Orthogonal complements are where the non-cyclic subtlety lives: the
kernel of the character is not an ideal, so a vector can pair trivially
with a generator while a scalar multiple of that generator still sees
it.  Several tests pin that behaviour against brute-force sweeps.
"""

import tracemalloc
from itertools import product as iproduct

import numpy as np
import pytest

from frobqec import (
    InvalidInputError,
    ResourceLimitError,
    Submodule,
    Turn,
    additive_module,
    ambient_bound,
    css_verdict,
    enumerate_submodules,
    form_eval,
    identity_form,
    is_isotropic,
    is_self_orthogonal,
    make_chain_ring,
    make_product,
    make_space,
    make_zm,
    orthogonal,
    pairing_turn_numerators,
    phase_pairing,
    submodule_census,
    submodule_span,
)
from frobqec import spaces
from frobqec.spaces import AMBIENT_BOUND, ENV_AMBIENT_BOUND, form_many

from conftest import std_space, vectors
from test_acceptance import _isotropic_label_modules

U = 2


def test_vector_index_round_trip(z4_pair):
    for i, v in enumerate(vectors(z4_pair)):
        assert z4_pair.vector_index(v) == i
    assert z4_pair.vector_index((1, 0)) == 1
    assert z4_pair.vector_index((0, 1)) == 4


def test_vector_arithmetic(z4_pair):
    assert z4_pair.add_vec((1, 3), (3, 2)) == (0, 1)
    assert z4_pair.neg_vec((1, 0)) == (3, 0)
    assert z4_pair.scalar_vec(2, (1, 3)) == (2, 2)


def test_identity_form_shape(z4):
    assert identity_form(z4, 2) == ((1, 0), (0, 1))


def test_form_eval_against_direct_sum(f2u_plane):
    # Oracle: the textbook double loop over sites and coordinates.
    ring = f2u_plane.ring
    form = f2u_plane.form
    k = f2u_plane.k
    for v in list(vectors(f2u_plane))[:40]:
        for w in list(vectors(f2u_plane))[:40:3]:
            total = ring.zero
            for site in range(f2u_plane.n):
                for p in range(k):
                    for q in range(k):
                        term = ring.mul(ring.mul(v[site * k + p], form[p][q]), w[site * k + q])
                        total = ring.add(total, term)
            assert form_eval(f2u_plane, v, w) == total


def test_form_is_symmetric(z4_pair):
    for v in vectors(z4_pair):
        for w in vectors(z4_pair):
            assert form_eval(z4_pair, v, w) == form_eval(z4_pair, w, v)


def test_phase_pairing_values(z4_line, f2u_line):
    assert phase_pairing(z4_line, (1,), (1,)) == Turn(1, 4)
    assert phase_pairing(z4_line, (2,), (2,)) == Turn(0, 1)
    assert phase_pairing(f2u_line, (1,), (U,)) == Turn(1, 2)
    assert phase_pairing(f2u_line, (1,), (1,)) == Turn(0, 1)


def test_form_many_matches_form_eval(f2u_line, z4_pair):
    for space in (f2u_line, z4_pair):
        rows = np.asarray(list(vectors(space)), dtype=np.int64)
        table = form_many(space, rows, rows)
        for i, v in enumerate(vectors(space)):
            for j, w in enumerate(vectors(space)):
                assert int(table[i, j]) == form_eval(space, v, w)


def test_pairing_turn_numerators_zero_pattern(z4_line):
    nums = pairing_turn_numerators(
        z4_line, list(vectors(z4_line)), list(vectors(z4_line))
    )
    for i in range(4):
        for j in range(4):
            assert (nums[i, j] == 0) == phase_pairing(z4_line, (i,), (j,)).is_zero


def test_make_space_input_validation(z4):
    with pytest.raises(InvalidInputError):
        make_space(z4, 0, 1, ())
    with pytest.raises(InvalidInputError):
        make_space(z4, 1, 1, ((1, 0),))
    with pytest.raises(InvalidInputError):
        make_space(z4, 2, 1, ((1, 0), (1, 1)))
    with pytest.raises(InvalidInputError):
        make_space(z4, 1, 1, ((7,),))


def test_imperfect_forms_are_rejected(z4, z2, f2u):
    # 2 annihilates half of Z4, so [[2]] has a kernel; same for [[u]].
    with pytest.raises(InvalidInputError):
        make_space(z4, 1, 1, ((2,),))
    with pytest.raises(InvalidInputError):
        make_space(z2, 1, 1, ((0,),))
    with pytest.raises(InvalidInputError):
        make_space(f2u, 1, 1, ((U,),))


def test_unit_form_is_perfect(z4, f2u):
    assert make_space(z4, 1, 1, ((3,),)).size == 4
    one_plus_u = f2u.add(f2u.one, U)
    assert make_space(f2u, 1, 1, ((one_plus_u,),)).size == 4


def test_offdiagonal_perfect_form(z4):
    # The hyperbolic plane: singular diagonal blocks, perfect as a whole.
    space = make_space(z4, 2, 1, ((0, 1), (1, 0)))
    assert phase_pairing(space, (1, 0), (0, 1)) == Turn(1, 4)
    assert phase_pairing(space, (1, 0), (1, 0)) == Turn(0, 1)


def test_ambient_bound_env_override(monkeypatch, z4):
    monkeypatch.setenv(ENV_AMBIENT_BOUND, "16")
    assert ambient_bound() == 16
    with pytest.raises(ResourceLimitError):
        make_space(z4, 1, 3, identity_form(z4, 1))
    monkeypatch.setenv(ENV_AMBIENT_BOUND, str(AMBIENT_BOUND * 4))
    assert ambient_bound() == AMBIENT_BOUND
    monkeypatch.setenv(ENV_AMBIENT_BOUND, "junk")
    with pytest.raises(InvalidInputError):
        ambient_bound()
    monkeypatch.setenv(ENV_AMBIENT_BOUND, "0")
    with pytest.raises(InvalidInputError):
        ambient_bound()


# ---------------------------------------------------------------------------
# submodules

def test_submodule_span_closes_under_scalars(z4_line, f2u_line):
    doubles = submodule_span(z4_line, [(2,)])
    assert doubles.elements == ((0,), (2,))
    assert doubles.r_closed
    whole = submodule_span(f2u_line, [(1,)])
    assert len(whole) == 4


def test_additive_module_keeps_only_sums(f2u_line):
    # Additive closure of {1} over the chain ring misses u * 1.
    part = additive_module(f2u_line, [(1,)])
    assert part.elements == ((0,), (1,))
    assert not part.r_closed
    assert (U,) not in part


def test_submodule_equality_and_containment(z4_line):
    a = submodule_span(z4_line, [(2,)])
    b = submodule_span(z4_line, [(2,), (0,)])
    assert a == b and hash(a) == hash(b)
    assert (2,) in a and (1,) not in a
    assert len(a) == 2


def test_submodule_sorts_and_dedupes_indices(z4_pair):
    # Index = c0 + 4 * c1 on Z_4 x Z_4.
    given = Submodule(z4_pair, (), [10, 0, 8, 2, 0], doubled=False, r_closed=True)
    spanned = submodule_span(z4_pair, [(2, 0), (0, 2)])
    assert given.indices.tolist() == [0, 2, 8, 10]
    assert given == spanned and hash(given) == hash(spanned)
    assert len(given) == 4
    assert (0, 2) in given and (1, 0) not in given
    assert given.elements == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_submodule_contains_only_integral_coordinates(z4_pair):
    module = submodule_span(z4_pair, [(2, 0)])
    assert (2, 0) in module and (np.int64(2), np.uint8(0)) in module
    # 2.5 would truncate to 2; a float is refused, as Submodule's indices are.
    for v in [(2.5, 0), (2.0, 0), (6, 0), (-2, 0), (2, 4)]:
        assert v not in module


def test_submodule_refuses_anything_but_indices(z4_pair):
    for bad in ([(0, 0), (2, 0)], [0.0, 2.0], [0, 16], [-1, 0]):
        with pytest.raises(InvalidInputError):
            Submodule(z4_pair, (), bad, doubled=False, r_closed=True)
    assert len(Submodule(z4_pair, (), [0, 255], doubled=True, r_closed=False)) == 2


def test_vector_validation(z4_line):
    with pytest.raises(InvalidInputError):
        submodule_span(z4_line, [(1, 0)])
    with pytest.raises(InvalidInputError):
        submodule_span(z4_line, [(4,)])


def _orthogonal_by_hand(space, code):
    out = []
    for v in vectors(space):
        if all(phase_pairing(space, v, w).is_zero for w in code.elements):
            out.append(v)
    return out


def test_orthogonal_against_brute_force(z4, f2u, z6, z4_pair, f2u_line, f2u_plane):
    hyperbolic = make_space(z4, 2, 1, ((0, 1), (1, 0)))
    skew = make_space(f2u, 2, 1, ((U, 1), (1, 0)))
    chain42 = std_space(make_chain_ring(4, 2), 1, 1)  # index a + 4b is a + b u
    cases = [
        (z4_pair, [(2, 0), (0, 2)]),
        (z4_pair, [(1, 0)]),
        (f2u_line, [(U,)]),
        (f2u_plane, [(U, 0), (0, U)]),
        (f2u_plane, [(1, U)]),
        (hyperbolic, [(2, 1)]),
        (hyperbolic, [(1, 0), (0, 2)]),
        (skew, [(1, 0)]),
        (skew, [(U, 1)]),
        (std_space(z6, 1, 1), [(3,)]),
        (std_space(z6, 1, 2), [(3, 2)]),
        (chain42, [(2,)]),
        (chain42, [(4,)]),
        (chain42, [(6,)]),
    ]
    for space, gens in cases:
        code = submodule_span(space, gens)
        perp = orthogonal(space, code)
        assert list(perp.elements) == sorted(_orthogonal_by_hand(space, code))


def test_orthogonal_needs_scalar_probes(f2u_line):
    # v = 1 pairs trivially with the generator 1 but not with u * 1, so
    # the complement of the full line is just zero.  A scan of the
    # generator's turns alone would wrongly keep v; the form value
    # form(1, 1) = 1 is not zero, so the test on generators drops it.
    line = submodule_span(f2u_line, [(1,)])
    perp = orthogonal(f2u_line, line)
    assert perp.elements == ((0,),)
    assert phase_pairing(f2u_line, (1,), (1,)).is_zero
    assert not phase_pairing(f2u_line, (1,), (U,)).is_zero


def test_orthogonal_of_additive_code_stays_additive(f2u_line):
    # C = {0, 1} is only additively closed, and so is C_perp = {0, 1}:
    # u * 1 pairs non-trivially with 1.  Every turn inside C_perp
    # vanishes, so it is self-orthogonal.
    code = additive_module(f2u_line, [(1,)])
    perp = orthogonal(f2u_line, code)
    assert perp.elements == ((0,), (1,))
    assert not perp.r_closed
    assert f2u_line.scalar_vec(U, (1,)) not in perp
    assert is_self_orthogonal(f2u_line, perp)


def test_orthogonal_of_trivial_code_is_everything(z4_line, z4_pair):
    trivial = submodule_span(z4_line, [])
    assert len(orthogonal(z4_line, trivial)) == z4_line.size
    # Two zero generators leave no spanning rows: the carrier sweep gets
    # no probes and keeps all of H.
    zero = submodule_span(z4_pair, [(0, 0), (0, 0)])
    assert len(zero) == 1 and not len(zero.spanning)
    assert len(orthogonal(z4_pair, zero)) == z4_pair.size


def test_duality_product_over_all_small_submodules(z4_line, f2u_line):
    # |C| * |C_perp| = |H| is the perfectness of the induced pairing.
    for space in (z4_line, f2u_line):
        for code in enumerate_submodules(space):
            perp = orthogonal(space, code)
            assert len(code) * len(perp) == space.size


def test_self_orthogonality_scalar_closure_distinction(f2u_line):
    # On generators alone the turn criterion would pass the full line:
    # <1, 1> is trivial.  The scalar-closed test must consult the form.
    line = submodule_span(f2u_line, [(1,)])
    assert not is_self_orthogonal(f2u_line, line)
    additive = additive_module(f2u_line, [(1,)])
    assert is_self_orthogonal(f2u_line, additive)
    u_line = submodule_span(f2u_line, [(U,)])
    assert is_self_orthogonal(f2u_line, u_line)


def test_self_orthogonal_matches_containment(z4_pair):
    for code in enumerate_submodules(z4_pair):
        perp_set = set(orthogonal(z4_pair, code).elements)
        assert is_self_orthogonal(z4_pair, code) == set(code.elements).issubset(perp_set)


def _submodules_by_hand(space, doubled=False):
    """Oracle: spans of all generator pairs; two generators suffice for
    every submodule at these sizes."""
    seen = set()
    width = 2 * space.rank if doubled else space.rank
    vectors = list(iproduct(range(space.ring.size), repeat=width))
    for v, w in iproduct(vectors, vectors):
        seen.add(submodule_span(space, [v, w], doubled=doubled).elements)
    return seen


def _by_size(element_lists):
    """Element tuples in the enumeration's order: by size, then by value."""
    return sorted(element_lists, key=lambda elements: (len(elements), elements))


def test_enumerate_submodules_matches_pair_spans(z2_line, z4_line, f2u_line):
    for space in (z2_line, z4_line, f2u_line):
        found = [m.elements for m in enumerate_submodules(space)]
        assert found == _by_size(_submodules_by_hand(space))


def test_enumerate_submodule_counts(z2_line, z4_line, f2u_line):
    # Frozen counts, confirmed by the pair-span oracle above.
    assert len(enumerate_submodules(z2_line, doubled=True)) == 5
    assert len(enumerate_submodules(z4_line, doubled=True)) == 15
    assert len(enumerate_submodules(f2u_line, doubled=True)) == 15


def test_enumerate_respects_max_elems(z4_line):
    small = enumerate_submodules(z4_line, doubled=True, max_elems=2)
    assert all(len(m) <= 2 for m in small)
    assert len(small) == 4


def test_isotropic_submodules_match_the_acceptance_engine(z2, z4, f2u):
    for space in (std_space(z2, 2, 1), std_space(z4, 1, 1), std_space(f2u, 1, 1)):
        modules = enumerate_submodules(space, doubled=True)
        for module in modules:
            assert submodule_span(space, module.generators, doubled=True) == module
        ours = [l.elements for l in modules if is_isotropic(space, l)]
        theirs = {l.elements for l in _isotropic_label_modules(space)}
        assert len(ours) == len(theirs)
        assert set(ours) == theirs


def test_enumerate_bound(z4):
    space = std_space(z4, 1, 5)
    with pytest.raises(ResourceLimitError):
        enumerate_submodules(space, doubled=True)


def test_enumeration_refuses_more_modules_than_the_bound(z4, monkeypatch):
    space = std_space(z4, 1, 2)
    monkeypatch.setattr(spaces, "MAX_SUBMODULES", 606)
    assert len(enumerate_submodules(space, doubled=True, max_elems=8)) == 606
    monkeypatch.setattr(spaces, "MAX_SUBMODULES", 605)
    with pytest.raises(ResourceLimitError, match="more than 605 modules"):
        enumerate_submodules(space, doubled=True, max_elems=8)


def test_census_refuses_more_modules_than_the_bound(z4, monkeypatch):
    # The census keeps two levels, not every module, but walks as many.
    space = std_space(z4, 1, 2)
    monkeypatch.setattr(spaces, "MAX_SUBMODULES", 606)
    report = submodule_census(space, 8)
    assert (report.submodules, report.isotropic, report.css) == (606, 366, 54)
    monkeypatch.setattr(spaces, "MAX_SUBMODULES", 605)
    with pytest.raises(ResourceLimitError, match="more than 605 modules"):
        submodule_census(space, 8)


# ---------------------------------------------------------------------------
# canonical augmentation

SEED = 20261018


def _seeded_plane(ring, rng):
    """A perfect symmetric 2 x 2 form, drawn with the seed, that is not
    the identity."""
    while True:
        a, b, c = (int(x) for x in rng.integers(0, ring.size, 3))
        form = ((a, b), (b, c))
        if form == identity_form(ring, 2):
            continue
        try:
            return make_space(ring, 2, 1, form)
        except InvalidInputError:
            continue


def _canonical_spaces():
    """A local ring that is not a chain ring (Z_4[u]/(u^2)), a product
    ring, and a seeded non-identity form with k = 2."""
    rng = np.random.default_rng(SEED)
    local = make_chain_ring(4, 2)
    product = make_product(make_zm(2), make_zm(3))
    return [("chain42", std_space(local, 1, 1)), ("z2xz3", std_space(product, 1, 1)),
            ("z4-plane", _seeded_plane(make_zm(4), rng))]


CANONICAL_CASES = [
    pytest.param(space, doubled, id=f"{name}-{'doubled' if doubled else 'plain'}")
    for name, space in _canonical_spaces()
    for doubled in (False, True)
]


@pytest.mark.parametrize("space, doubled", CANONICAL_CASES)
def test_generators_are_the_greedy_sequence(space, doubled):
    modules = enumerate_submodules(space, doubled=doubled)
    listed = {module.indices.tobytes() for module in modules}
    assert len(listed) == len(modules)
    for module in modules:
        gens = module.generators
        indices = [space.vector_index(g) for g in gens]
        assert all(a < b for a, b in zip(indices, indices[1:]))
        prefixes = [submodule_span(space, gens[:i], doubled=doubled)
                    for i in range(len(gens) + 1)]
        assert prefixes[-1] == module
        for g, before, after in zip(indices, prefixes, prefixes[1:]):
            assert g == np.setdiff1d(after.indices, before.indices).min()
        if gens:
            assert prefixes[-2].indices.tobytes() in listed


@pytest.mark.parametrize("space, doubled", CANONICAL_CASES)
def test_enumeration_matches_the_oracles(space, doubled):
    modules = enumerate_submodules(space, doubled=doubled)
    if space.size ** (2 if doubled else 1) <= 36:
        assert [module.elements for module in modules] == _by_size(
            _submodules_by_hand(space, doubled))
    else:
        isotropic = [module.elements for module in modules if is_isotropic(space, module)]
        assert isotropic == _by_size(l.elements for l in _isotropic_label_modules(space))


@pytest.mark.parametrize("space, doubled", CANONICAL_CASES)
def test_pruning_after_every_candidate_changes_nothing(space, doubled, monkeypatch):
    # BLOCK = 1 builds one candidate per block and prunes after each.
    whole = enumerate_submodules(space, doubled=doubled)
    monkeypatch.setattr(spaces, "BLOCK", 1)
    single = enumerate_submodules(space, doubled=doubled)
    assert [m.indices.tolist() for m in single] == [m.indices.tolist() for m in whole]
    assert [m.generators for m in single] == [m.generators for m in whole]


def test_census_anchor_builds_at_most_two_spans_per_module(z4, monkeypatch):
    calls = []
    original = spaces.index_span

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spaces, "index_span", counting)
    modules = enumerate_submodules(std_space(z4, 1, 2), doubled=True, max_elems=8)
    assert len(modules) == 606
    assert len(calls) <= 2 * len(modules)


def test_enumeration_memory_stays_small():
    space = std_space(make_zm(16), 1, 1)
    tracemalloc.start()
    try:
        modules = enumerate_submodules(space, doubled=True, max_elems=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(modules) == 83
    assert peak < 16 << 20


# ---------------------------------------------------------------------------
# orthogonal complements on every submodule

def _orthogonal_spaces():
    """Seeded non-identity k = 2 forms over Z_4, chain(2,2) and Z_2 x Z_3,
    and the standard form over Z_6 (one and two sites) and chain(4,2)."""
    rng = np.random.default_rng(SEED)
    z6 = make_product(make_zm(2), make_zm(3))
    return [("z4-plane", _seeded_plane(make_zm(4), rng)),
            ("f2u-plane", _seeded_plane(make_chain_ring(2, 2), rng)),
            ("z6-plane", _seeded_plane(z6, rng)),
            ("z6-line", std_space(z6, 1, 1)), ("z6-pair", std_space(z6, 1, 2)),
            ("chain42", std_space(make_chain_ring(4, 2), 1, 1))]


@pytest.mark.parametrize("space", [pytest.param(space, id=name)
                                   for name, space in _orthogonal_spaces()])
def test_orthogonal_matches_the_turn_test_on_every_submodule(space):
    # The library tests form values on generators; the reference tests
    # turns against every element of the code.
    for code in enumerate_submodules(space):
        hand = sorted(space.vector_index(v) for v in _orthogonal_by_hand(space, code))
        bare = Submodule(space, (), code.indices, doubled=False, r_closed=True)
        for probe in (code, bare):
            perp = orthogonal(space, probe)
            assert perp.indices.tolist() == hand
            assert perp.r_closed


# ---------------------------------------------------------------------------
# orthogonal complements of additive-only codes

def _orthogonal_by_element_turns(space, code):
    """Reference: the turn of every carrier vector against every element
    of the code, as ``orthogonal`` once tested additive-only codes."""
    values = form_many(space, space.coords, code.rows)
    return np.flatnonzero((space.ring.eps_num[values] % space.ring.eps_den == 0).all(axis=1))


def _additive_spaces():
    rng = np.random.default_rng(SEED)
    z6 = make_product(make_zm(2), make_zm(3))
    return [std_space(make_zm(4), 1, 2), _seeded_plane(make_zm(4), rng),
            std_space(make_chain_ring(2, 2), 1, 2), _seeded_plane(make_chain_ring(2, 2), rng),
            std_space(z6, 1, 2), std_space(make_chain_ring(4, 2), 1, 1), std_space(make_zm(8), 1, 2)]


def test_additive_orthogonal_matches_the_element_turn_test():
    rng = np.random.default_rng(SEED)
    for space in _additive_spaces():
        for count in (0, 1, 1, 2, 2, 3):
            gens = [tuple(int(c) for c in rng.integers(0, space.ring.size, space.rank))
                    for _ in range(count)]
            code = additive_module(space, gens)
            bare = Submodule(space, (), code.indices, doubled=False, r_closed=False)
            for probe in (code, bare):
                perp = orthogonal(space, probe)
                assert perp.indices.tolist() == _orthogonal_by_element_turns(space, code).tolist()
                assert not perp.r_closed


def test_additive_orthogonal_probes_a_generating_set(monkeypatch):
    # An additive code, a complement and a CSS split part: the last two
    # are scalar-closed modules held with no generators.  Each is probed
    # through at most log2 |M| rows, not |M|, and its verdicts match those
    # of the same module built from its generators.
    ring = make_zm(256)
    space = std_space(ring, 1, 2)
    code = additive_module(space, [(1, 2), (0, 16)])
    line = submodule_span(space, [(16, 0)])
    labels = submodule_span(space, [(1, 0, 0, 0), (0, 16, 0, 0)], doubled=True)
    cases = [(code, None), (orthogonal(space, line), [(16, 0), (0, 1)]),
             (css_verdict(space, labels).split[0], [(1, 0), (0, 16)])]
    probes, swept = [], []
    original, original_sweep = spaces.form_many, spaces.carrier_pairings

    def recording(space, rows, cols):
        probes.append(len(cols))
        return original(space, rows, cols)

    def sweeping(space, cols):
        swept.append(len(cols))
        return original_sweep(space, cols)

    for module, gens in cases:
        assert len(module) == 4096
        monkeypatch.setattr(spaces, "form_many", recording)
        monkeypatch.setattr(spaces, "carrier_pairings", sweeping)
        perp, self_orth = orthogonal(space, module), is_self_orthogonal(space, module)
        monkeypatch.setattr(spaces, "form_many", original)
        monkeypatch.setattr(spaces, "carrier_pairings", original_sweep)
        # orthogonal sweeps the carrier against the spanning rows, and
        # is_self_orthogonal pairs them with each other.
        assert swept and max(swept) <= 12 and probes and max(probes) <= 12
        probes.clear()
        swept.clear()
        if gens is None:
            assert len(perp) == 16 and not perp.r_closed
            continue
        given = submodule_span(space, gens)
        assert not module.generators and np.array_equal(module.indices, given.indices)
        assert np.array_equal(perp.indices, orthogonal(space, given).indices) and perp.r_closed
        assert self_orth == is_self_orthogonal(space, given)
    # The complement of the complement is the line again.
    assert orthogonal(space, cases[1][0]) == line


# ---------------------------------------------------------------------------
# the carrier sweep

def _pairing_spaces():
    """Z_4, chain(4,2) and Z_2 x Z_3 pairs, the f2u line and plane, and
    a non-identity form with an entry other than one over two sites."""
    f2u, z4 = make_chain_ring(2, 2), make_zm(4)
    return [("z4-pair", std_space(z4, 1, 2)), ("chain42-pair", std_space(make_chain_ring(4, 2), 1, 2)),
            ("z6-pair", std_space(make_product(make_zm(2), make_zm(3)), 1, 2)),
            ("f2u-line", std_space(f2u, 1, 1)), ("f2u-plane", std_space(f2u, 2, 1)),
            ("z4-scaled", make_space(z4, 2, 2, ((1, 1), (1, 2))))]


@pytest.mark.parametrize("block", [1, 3, 7, 1 << 16])
@pytest.mark.parametrize("space", [pytest.param(space, id=name) for name, space in _pairing_spaces()])
def test_carrier_pairings_blocks_match_form_many(space, block, monkeypatch):
    # One probe, several, and more than fit a block next to one digit's
    # multiples; the blocks tile the table in row-major order.
    monkeypatch.setattr(spaces, "BLOCK", block)
    rng = np.random.default_rng(SEED)
    m = space.ring.size
    for count in (1, 3, block // m + 1):
        probes = rng.integers(0, m, (count, space.rank))
        at = (0, 0)
        for start, col, values in spaces.carrier_pairings(space, probes):
            assert (start, col) == at and 0 < values.size <= block
            rows = space.coords[start : start + len(values)]
            assert np.array_equal(values, form_many(space, rows, probes[col : col + values.shape[1]]))
            col += values.shape[1]
            at = (start, col) if col < count else (start + len(values), 0)
        assert at == (space.size, 0)
