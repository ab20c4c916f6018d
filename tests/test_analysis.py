"""CSS splitting, nilpotent protection, invariants, isometries, census.

The census and isometry tests carry their own brute-force oracles:
counts are recomputed from first principles (pair spans, direct omega
sweeps, pairing-preservation scans) before the frozen numbers are
asserted.
"""

import random
import tracemalloc
from itertools import product as iproduct

import numpy as np
import pytest

from frobqec import (
    ConsistencyError,
    InvalidInputError,
    ResourceLimitError,
    Turn,
    additive_module,
    check_nilpotent_protection,
    code_dimension,
    css_verdict,
    form_eval,
    group_closure,
    ideal_span,
    identity_form,
    invariants,
    is_isotropic,
    is_self_orthogonal,
    isometry_action,
    isometry_group,
    enumerate_submodules,
    join_label,
    label_module_of,
    make_chain_ring,
    make_product,
    make_space,
    make_zm,
    nilpotent_code,
    nilradical,
    noncommutativity_witness,
    omega,
    orthogonal,
    phase_fix,
    phase_pairing,
    split_label,
    stabiliser_of_labels,
    submodule_census,
    submodule_span,
    weyl_element,
)
from frobqec import analysis, cli, spaces, weyl
from frobqec.analysis import _protection_demo

from conftest import apply_by_hand, std_space, vectors

U = 2
T0 = Turn()


# ---------------------------------------------------------------------------
# css

def test_shift_phase_module_is_css(z4_line):
    module = additive_module(z4_line, [(2, 0), (0, 2)], doubled=True)
    verdict = css_verdict(z4_line, module)
    assert verdict.status == "css"
    a_mod, b_mod = verdict.split
    assert len(a_mod) == 2 and len(b_mod) == 2
    assert verdict.witness is None


def test_diagonal_chain_module_is_not_css(f2u_line):
    span = submodule_span(f2u_line, [(1, U)], doubled=True)
    verdict = css_verdict(f2u_line, span)
    assert verdict.status == "non_css"
    assert verdict.split is None
    a, b = verdict.witness
    assert phase_pairing(f2u_line, b, a) == Turn(1, 2)


def test_css_requires_doubled_isotropic_input(z4_line):
    with pytest.raises(InvalidInputError):
        css_verdict(z4_line, submodule_span(z4_line, [(2,)]))
    bad = submodule_span(z4_line, [(1, 0), (0, 1)], doubled=True)
    with pytest.raises(InvalidInputError):
        css_verdict(z4_line, bad)


def test_trivial_module_is_css(z4_line):
    verdict = css_verdict(z4_line, submodule_span(z4_line, [], doubled=True))
    assert verdict.status == "css"


def _census_by_hand(space):
    """Oracle: pair spans enumerate the submodules, direct sweeps do the
    classification."""
    seen = {}
    labels = [v + w for v in vectors(space) for w in vectors(space)]
    for v, w in iproduct(labels, labels):
        module = submodule_span(space, [v, w], doubled=True)
        seen[module.elements] = module
    counts = {"submodules": len(seen), "isotropic": 0, "css": 0, "witness": 0}
    for module in seen.values():
        pairs = [(e[: space.rank], e[space.rank :]) for e in module.elements]
        if any(
            not omega(space, p, q).is_zero for p in pairs for q in pairs
        ):
            continue
        counts["isotropic"] += 1
        shift = {a for a, b in pairs if all(c == space.ring.zero for c in b)}
        phase = {b for a, b in pairs if all(c == space.ring.zero for c in a)}
        if len(shift) * len(phase) == len(module):
            counts["css"] += 1
        elif any(not phase_pairing(space, b, a).is_zero for a, b in pairs):
            counts["witness"] += 1
    return counts


@pytest.mark.parametrize(
    "fixture, frozen",
    [
        ("z2_line", (5, 4, 3, 1)),
        ("z4_line", (15, 11, 6, 4)),
        ("f2u_line", (15, 11, 6, 3)),
    ],
)
def test_census_counts(request, fixture, frozen):
    space = request.getfixturevalue(fixture)
    report = submodule_census(space, space.size**2)
    hand = _census_by_hand(space)
    assert (
        report.submodules,
        report.isotropic,
        report.css,
        report.non_css_with_witness,
    ) == (hand["submodules"], hand["isotropic"], hand["css"], hand["witness"])
    assert (
        report.submodules,
        report.isotropic,
        report.css,
        report.non_css_with_witness,
    ) == frozen


def _census_by_modules(space, max_elems):
    """Reference: the census as a loop over the enumerated modules, with
    ``is_isotropic`` and ``css_verdict`` on each."""
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
    return len(modules), isotropic, css, with_witness


def _seeded_form_space(ring, rng):
    """A k = 2 space with a seeded perfect form that is not the identity."""
    while True:
        a, b, c = (rng.randrange(ring.size) for _ in range(3))
        if ((a, b), (b, c)) == identity_form(ring, 2):
            continue
        try:
            return make_space(ring, 2, 1, ((a, b), (b, c)))
        except InvalidInputError:
            continue


def _census_cases():
    rng = random.Random(20261019)
    z2, z3, z4, f2u = make_zm(2), make_zm(3), make_zm(4), make_chain_ring(2, 2)
    spaces_ = [
        ("z2-n1", std_space(z2, 1, 1)), ("z2-n2", std_space(z2, 1, 2)),
        ("z2-n3", std_space(z2, 1, 3)), ("z3-n1", std_space(z3, 1, 1)),
        ("z3-n2", std_space(z3, 1, 2)), ("z4-n1", std_space(z4, 1, 1)),
        ("z4-n2", std_space(z4, 1, 2)), ("z6", std_space(make_zm(6), 1, 1)),
        ("z8", std_space(make_zm(8), 1, 1)), ("z16", std_space(make_zm(16), 1, 1)),
        ("z2xz3", std_space(make_product(z2, z3), 1, 1)),
        ("f2u-n1", std_space(f2u, 1, 1)), ("f2u-k2", std_space(f2u, 2, 1)),
        ("z2-form", _seeded_form_space(z2, rng)), ("z3-form", _seeded_form_space(z3, rng)),
        ("z4-form", _seeded_form_space(z4, rng)), ("f2u-form", _seeded_form_space(f2u, rng)),
    ]
    # Caps stop at 64, where the reference loop meets a few thousand modules.
    return [pytest.param(space, cap, id=f"{name}-cap{cap}")
            for name, space in spaces_
            for cap in sorted({min(c, space.size**2, 64) for c in (
                1, 4, space.size**2, rng.choice([2, 3, 8]), rng.choice([16, 32]))})]


@pytest.mark.parametrize("space, cap", _census_cases())
def test_census_matches_the_module_loop(space, cap):
    report = submodule_census(space, cap)
    assert (report.submodules, report.isotropic, report.css,
            report.non_css_with_witness) == _census_by_modules(space, cap)


def test_census_respects_max_elems(z4_line):
    report = submodule_census(z4_line, 1)
    assert (report.submodules, report.isotropic, report.css) == (1, 1, 1)
    assert report.max_elems == 1
    with pytest.raises(InvalidInputError):
        submodule_census(z4_line, 0)


# ---------------------------------------------------------------------------
# protection

def test_nilpotent_code_sweeps_the_ideal(f2u_plane):
    code = nilpotent_code(f2u_plane, ideal_span(f2u_plane.ring, [U]))
    assert len(code) == 4
    assert all(all(c in (0, U) for c in v) for v in code.elements)


@pytest.mark.parametrize("ring, rank", [
    (make_chain_ring(2, 2), 2), (make_chain_ring(2, 4), 2), (make_chain_ring(4, 2), 2),
    (make_zm(16), 3), (make_product(make_chain_ring(2, 3), make_zm(3)), 1)],
    ids=["f2u", "chain24", "chain42", "z16", "chain23xz3"])
def test_nilpotent_code_spans_additive_generators_of_the_ideal(ring, rank):
    # The code equals the span of every ideal element times every basis
    # vector, from at most log2 |I| generators per basis vector.
    space = std_space(ring, 1, rank)
    for x in nilradical(ring).elements:
        ideal = ideal_span(ring, [x])
        code = nilpotent_code(space, ideal)
        every = submodule_span(space, [tuple(y if i == j else ring.zero for i in range(rank))
                                       for y in ideal.elements for j in range(rank)])
        assert code == every and code.r_closed
        assert len(code.generators) <= np.log2(len(ideal)) * rank


def test_protection_chain22(f2u_plane):
    report = check_nilpotent_protection(f2u_plane, ideal_span(f2u_plane.ring, [U]))
    assert report.passed
    assert report.code_size == 4
    assert report.square_zero
    assert report.self_orthogonal is True
    assert report.counterexample is None
    b, u, value = report.demo
    assert (b, u, value) == ((1, 0), (U, 0), Turn(1, 2))


def test_protection_z4_documented_demo(z4_pair):
    report = check_nilpotent_protection(z4_pair, ideal_span(z4_pair.ring, [2]))
    assert report.passed
    assert report.demo == ((1, 0), (2, 0), Turn(1, 2))


def test_protection_scan_is_exhaustive(f2u_plane):
    # Re-run the admissibility sweep by hand: a pure shift supported on
    # the u-layer must commute with every error whose phase half lies in
    # the layer's orthogonal complement, whatever the shift half does.
    ideal = ideal_span(f2u_plane.ring, [U])
    code = nilpotent_code(f2u_plane, ideal)
    perp = orthogonal(f2u_plane, code)
    zero = f2u_plane.zero_vector()
    probes = [zero, (1, 0), (U, 1)]
    for b in perp.elements:
        for u in code.elements:
            for a in probes:
                assert omega(f2u_plane, (u, zero), (a, b)).is_zero


def test_protection_trivial_ideal(z4_line):
    report = check_nilpotent_protection(z4_line, ideal_span(z4_line.ring, []))
    assert report.passed
    assert report.code_size == 1
    assert report.demo is None and report.counterexample is None


def test_protection_higher_nilpotency():
    ring = make_chain_ring(2, 3)
    space = std_space(ring, 1, 1)
    u = ring.element_from_doc([0, 1, 0])
    report = check_nilpotent_protection(space, ideal_span(ring, [u]))
    assert not report.square_zero
    assert report.self_orthogonal is None
    assert report.passed


def test_protection_rejects_non_nil_ideal(z4_line):
    with pytest.raises(InvalidInputError):
        check_nilpotent_protection(z4_line, ideal_span(z4_line.ring, [1]))


def test_protection_rejects_foreign_ideal(z4_line, f2u):
    with pytest.raises(InvalidInputError):
        check_nilpotent_protection(z4_line, ideal_span(f2u, [U]))


# ---------------------------------------------------------------------------
# invariants

def test_invariant_triples(z4_line, f2u_plane, z2):
    z4_triple = invariants(z4_line)
    assert (
        z4_triple.frobenius_rank,
        z4_triple.nilpotent_height,
        z4_triple.commutator_depth,
    ) == (1, 2, 2)
    chain_triple = invariants(f2u_plane)
    assert (
        chain_triple.frobenius_rank,
        chain_triple.nilpotent_height,
        chain_triple.commutator_depth,
    ) == (2, 2, 2)
    for k in (1, 2, 3):
        field_triple = invariants(std_space(z2, k, 1))
        assert (
            field_triple.frobenius_rank,
            field_triple.nilpotent_height,
            field_triple.commutator_depth,
        ) == (k, 1, 2)
    z5_triple = invariants(std_space(make_zm(5), 2, 1))
    assert (
        z5_triple.frobenius_rank,
        z5_triple.nilpotent_height,
        z5_triple.commutator_depth,
    ) == (2, 1, 2)


# ---------------------------------------------------------------------------
# isometries

def _isometries_by_hand(space):
    """Oracle: keep matrices that preserve every pairwise form value."""
    ring = space.ring
    k = space.k
    site = list(iproduct(range(ring.size), repeat=k))
    kept = []
    for entries in iproduct(range(ring.size), repeat=k * k):
        g = tuple(tuple(entries[i * k : (i + 1) * k]) for i in range(k))
        images = {v: apply_by_hand(space, g, v) for v in site}
        if len(set(images.values())) != len(site):
            continue
        if all(
            form_eval(space, images[v], images[w]) == form_eval(space, v, w)
            for v in site
            for w in site
        ):
            kept.append(g)
    return kept


def test_isometry_groups_small(z4_line, z2_line, f2u_line):
    assert isometry_group(z4_line).matrices == (((1,),), ((3,),))
    assert isometry_group(z2_line).matrices == (((1,),),)
    assert isometry_group(f2u_line).matrices == (((1,),), ((3,),))


def test_isometry_group_matches_preservation_oracle(z4_line, f2u_line, f2u_plane):
    for space in (z4_line, f2u_line, f2u_plane):
        assert sorted(isometry_group(space).matrices) == sorted(
            _isometries_by_hand(space)
        )


def test_chain_plane_isometry_count(f2u_plane):
    assert len(isometry_group(f2u_plane)) == 16


def test_isometry_scan_guards(z4, z4_pair):
    with pytest.raises(InvalidInputError):
        isometry_group(z4_pair)
    wide = std_space(z4, 5, 1)
    with pytest.raises(ResourceLimitError):
        isometry_group(wide)


def test_isometry_action_preserves_structure(f2u_plane):
    g1 = weyl_element(f2u_plane, T0, (1, 0), (U, 0))
    g2 = weyl_element(f2u_plane, T0, (0, 1), (0, U))
    s = group_closure(f2u_plane, [g1, g2])
    fixed = phase_fix(s)
    labels = label_module_of(s)
    code = submodule_span(f2u_plane, [(U, 0), (0, U)])
    for g in isometry_group(f2u_plane):
        moved_code = isometry_action(f2u_plane, g, code)
        assert len(moved_code) == len(code)
        assert is_self_orthogonal(f2u_plane, moved_code) == is_self_orthogonal(
            f2u_plane, code
        )
        moved_labels = isometry_action(f2u_plane, g, labels)
        assert is_isotropic(f2u_plane, moved_labels) == is_isotropic(
            f2u_plane, labels
        )
        moved_group = isometry_action(f2u_plane, g, fixed)
        assert moved_group.scalar_turns == fixed.scalar_turns
        assert code_dimension(f2u_plane, moved_group) == code_dimension(
            f2u_plane, fixed
        )


def test_isometry_action_preserves_omega(z4_line):
    labels = [(a, b) for a in vectors(z4_line) for b in vectors(z4_line)]
    for g in isometry_group(z4_line):
        for p in labels:
            for q in labels:
                moved_p = (apply_by_hand(z4_line, g, p[0]), apply_by_hand(z4_line, g, p[1]))
                moved_q = (apply_by_hand(z4_line, g, q[0]), apply_by_hand(z4_line, g, q[1]))
                assert omega(z4_line, moved_p, moved_q) == omega(z4_line, p, q)


def test_isometry_action_rejects_non_isometry(z4_line):
    code = submodule_span(z4_line, [(2,)])
    with pytest.raises(InvalidInputError):
        isometry_action(z4_line, ((2,),), code)
    with pytest.raises(InvalidInputError):
        isometry_action(z4_line, ((1,),), "not a module")


def test_malformed_matrices_and_vectors_are_refused(z4_line):
    code = submodule_span(z4_line, [(2,)])
    for g in (((5,),), ((-1,),), ((4,),), ((1, 0), (0, 1)), ((1,), (0,)), ((),), ((1.0,),),
              (("1",),)):
        with pytest.raises(InvalidInputError):
            isometry_action(z4_line, g, code)


SEED = 20261018


def _seeded_form_space(name):
    """Spaces whose perfect form is not the identity: the hyperbolic
    plane over Z_4, [[u, 1], [1, 0]] over chain(2, 2), and seeded
    random forms over Z_6 and Z_2 x Z_3."""
    if name == "z4-hyperbolic":
        return make_space(make_zm(4), 2, 1, [[0, 1], [1, 0]])
    if name == "f2u-u1":
        return make_space(make_chain_ring(2, 2), 2, 1, [[U, 1], [1, 0]])
    ring = make_zm(6) if name == "z6-random" else make_product(make_zm(2), make_zm(3))
    rng = random.Random(SEED)
    while True:
        a, b, c = (rng.randrange(ring.size) for _ in range(3))
        try:
            space = make_space(ring, 2, 1, [[a, b], [b, c]])
        except InvalidInputError:
            continue
        if space.form != identity_form(ring, 2):
            return space


def _scan_key(space, g):
    m, k = space.ring.size, space.k
    return sum(g[i][j] * m ** (i * k + j) for i in range(k) for j in range(k))


@pytest.mark.parametrize("name", ["z4-hyperbolic", "f2u-u1", "z6-random", "z2xz3-random"])
def test_column_search_matches_brute_force_in_scan_order(name):
    space = _seeded_form_space(name)
    oracle = sorted(_isometries_by_hand(space), key=lambda g: _scan_key(space, g))
    group = isometry_group(space)
    assert group.matrices == tuple(oracle)
    assert not group.permutations.flags.writeable
    site = list(vectors(space))
    for g, perm in zip(oracle, group.permutations.tolist()):
        assert perm == [space.vector_index(apply_by_hand(space, g, v)) for v in site]


def test_isometry_check_catches_a_tampered_search(f2u_plane, monkeypatch):
    columns = analysis._column_search(f2u_plane)
    assert len(columns) == 16
    identity = columns.tolist().index(analysis._unit_indices(f2u_plane).tolist())
    singular = np.vstack([[[1, 1]], columns])  # both columns e_0, in the first block
    tampered = [np.delete(columns, i, axis=0) for i in range(len(columns))] + [singular]
    for i, rows in enumerate(tampered):
        monkeypatch.setattr(analysis, "_column_search", lambda space, rows=rows: rows)
        match = {identity: "lost the identity", len(columns): "singular"}.get(i)
        with pytest.raises(ConsistencyError, match=match):
            isometry_group(f2u_plane)


def test_isometry_check_multiplies_new_members_by_every_generator(f2u, monkeypatch):
    # Over chain(2,2) with the form [[u, 1], [1, 0]] (|G| = 16), the
    # words c g2^j, c a power of the first generator g1, are 4 isometries
    # that do not form a group.  A check that multiplied new members by
    # the newest generator alone would accept them as the whole group.
    space = make_space(f2u, 2, 1, ((U, 1), (1, 0)))
    columns = analysis._column_search(space)
    perms = isometry_group(space).permutations
    row = {p.tobytes(): i for i, p in enumerate(perms)}
    words = {row[np.arange(space.size, dtype=perms.dtype).tobytes()]}
    for _ in range(2):
        g = min(set(range(len(perms))) - words)  # the least not reached joins S
        frontier = words
        while frontier:
            frontier = {row[perms[w][perms[g]].tobytes()] for w in frontier} - words
            words |= frontier
    assert len(words) == 4
    monkeypatch.setattr(analysis, "_column_search", lambda space: columns[sorted(words)])
    with pytest.raises(ConsistencyError, match="failed to close"):
        isometry_group(space)


def test_isometry_group_builds_few_site_maps(monkeypatch):
    # chain(2,5), k = 2, hyperbolic form: |G| = 24 576, where a check of
    # all |G|^2 products took 12-20 s on a 2-vCPU VM.  A site map is built
    # only for each generator, and each of them at least doubles the
    # group reached.
    space = make_space(make_chain_ring(2, 5), 2, 1, ((0, 1), (1, 0)))
    columns = analysis._column_search(space)
    site_map, calls = analysis._site_map, []
    monkeypatch.setattr(analysis, "_site_map",
                        lambda space, cols: calls.append(cols) or site_map(space, cols))
    group = isometry_group(space)
    assert len(group) == len(columns) == 24_576
    assert 2 ** len(calls) <= len(group)
    assert np.array_equal(group.permutations[:, analysis._unit_indices(space)], columns)
    for rows in np.array_split(np.arange(len(columns)), 64):
        assert np.array_equal(group.permutations[rows],
                              site_map(space, space.coords[columns[rows]]))


@pytest.mark.parametrize("block", [1, 100])
def test_isometry_blocks_leave_the_group_unchanged(f2u_plane, monkeypatch, block):
    # BLOCK = 1 asks for more parts than rows, so some parts are empty.
    whole = isometry_group(f2u_plane).permutations
    monkeypatch.setattr(analysis, "BLOCK", block)
    assert np.array_equal(isometry_group(f2u_plane).permutations, whole)


def test_isometry_scan_at_the_bound_stays_small():
    space = std_space(make_zm(32), 2, 1)  # 32^4 = 2^20 matrices, the scan bound
    tracemalloc.start()
    try:
        group = isometry_group(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(group) == 256
    assert peak < 64 << 20


# ---------------------------------------------------------------------------
# reference loops: the element-by-element scans the library replaced with
# block sweeps over index arrays, kept here as the oracle for first-pair
# selection

def _css_by_loop(space, l):
    zero = space.zero_vector()
    pairs = [split_label(space, v) for v in l.elements]
    shift_part = sorted({a for a, b in pairs if b == zero})
    phase_part = sorted({b for a, b in pairs if a == zero})
    if len(shift_part) * len(phase_part) == len(l):
        return "css", (tuple(shift_part), tuple(phase_part)), None
    witness = None
    for a, b in pairs:
        if not phase_pairing(space, b, a).is_zero:
            witness = (a, b)
            break
    return "non_css", None, witness


def _scans_by_loop(space, code, perp):
    counterexample = None
    for b in perp.elements:
        for u in code.elements:
            value = -phase_pairing(space, b, u)
            if not value.is_zero:
                counterexample = (b, u, value)
                break
        if counterexample:
            break
    demo = None
    if len(code) > 1:
        for b in vectors(space):
            if b in perp:
                continue
            for u in code.elements:
                value = -phase_pairing(space, b, u)
                if not value.is_zero:
                    demo = (b, u, value)
                    break
            if demo:
                break
    return counterexample, demo


def _noncommutativity_by_loop(space):
    for a in vectors(space):
        for b in vectors(space):
            if not phase_pairing(space, b, a).is_zero:
                return (a, b)
    return None


def _css_matches_loop(space, l):
    verdict = css_verdict(space, l)
    status, split, witness = _css_by_loop(space, l)
    assert verdict.status == status
    assert verdict.witness == witness
    if split is None:
        assert verdict.split is None
    else:
        assert tuple(part.elements for part in verdict.split) == split
        assert all(part.r_closed == l.r_closed for part in verdict.split)


REFERENCE_SPACES = [
    ("z2", 2, 1), ("z4", 1, 2), ("f2u", 1, 1), ("f2u", 2, 1), ("z6", 1, 1), ("z2xz2", 1, 1),
]


@pytest.mark.parametrize("ring_name, k, n", REFERENCE_SPACES,
                         ids=[f"{r}-k{k}-n{n}" for r, k, n in REFERENCE_SPACES])
def test_module_sweeps_match_reference_loops(request, ring_name, k, n):
    if ring_name == "z2xz2":
        ring = make_product(make_zm(2), make_zm(2))
    else:
        ring = request.getfixturevalue(ring_name)
    space = std_space(ring, k, n)
    assert noncommutativity_witness(space) == _noncommutativity_by_loop(space)

    # ``_protection_demo`` is only ever given a code and its complement.
    plain = enumerate_submodules(space)
    for code in plain:
        perp = orthogonal(space, code)
        assert (None, _protection_demo(space, code)) == _scans_by_loop(space, code, perp)
    for x in nilradical(ring).elements:
        ideal = ideal_span(ring, [x])
        report = check_nilpotent_protection(space, ideal)
        code = nilpotent_code(space, ideal)
        assert (report.counterexample, report.demo) == _scans_by_loop(
            space, code, orthogonal(space, code)
        )

    isometries = isometry_group(space).matrices if n == 1 else ()
    for g in isometries:
        for module in plain:
            moved = {apply_by_hand(space, g, v) for v in module.elements}
            assert isometry_action(space, g, module).elements == tuple(sorted(moved))

    for l in enumerate_submodules(space, doubled=True):
        if isometries:
            moved = {apply_by_hand(space, isometries[-1], v) for v in l.elements}
            assert isometry_action(space, isometries[-1], l).elements == tuple(sorted(moved))
        if not is_isotropic(space, l):
            continue
        _css_matches_loop(space, l)
        group = stabiliser_of_labels(space, l)
        labels = label_module_of(group)
        assert labels.elements == tuple(sorted({join_label(e.label) for e in group.elements}))
        assert labels.elements == l.elements
        _css_matches_loop(space, labels)
        fixed = phase_fix(group)
        assert fixed.scalar_free
        assert [join_label(e.label) for e in fixed.elements] == list(l.elements)


def _block_spaces():
    """The Z_4 pair, the f2u plane, the two-site Z_4 form ((1, 1), (1, 2))
    with an entry other than one (``z4-scaled`` in test_spaces.py), and a
    Z_2 x chain(2,2) pair."""
    z4, f2u = make_zm(4), make_chain_ring(2, 2)
    return [std_space(z4, 1, 2), std_space(f2u, 2, 1), make_space(z4, 2, 2, ((1, 1), (1, 2))),
            std_space(make_product(make_zm(2), f2u), 1, 2)]


@pytest.mark.parametrize("block", [1, 3, 7, spaces.BLOCK])
def test_first_pair_survives_small_blocks(monkeypatch, block):
    # Blocks smaller than one row also split the columns.
    monkeypatch.setattr(spaces, "BLOCK", block)
    for space in _block_spaces():
        assert noncommutativity_witness(space) == _noncommutativity_by_loop(space)
        plain = enumerate_submodules(space)
        for code in plain[:: max(1, len(plain) // 6)]:
            perp = orthogonal(space, code)
            assert (None, _protection_demo(space, code)) == _scans_by_loop(space, code, perp)
        for x in nilradical(space.ring).elements:
            ideal = ideal_span(space.ring, [x])
            code = nilpotent_code(space, ideal)
            report = check_nilpotent_protection(space, ideal)
            assert (report.counterexample, report.demo) == _scans_by_loop(
                space, code, orthogonal(space, code))


def test_protection_refuses_a_wrong_complement(z4_pair, monkeypatch):
    # All of H as the complement of the non-trivial code of (2) leaves no
    # error outside it to disturb the code, so ``orthogonal`` is at fault.
    everything = orthogonal(z4_pair, submodule_span(z4_pair, []))
    monkeypatch.setattr(analysis, "orthogonal", lambda space, code: everything)
    with pytest.raises(ConsistencyError, match="no code vector is disturbed"):
        check_nilpotent_protection(z4_pair, ideal_span(z4_pair.ring, [2]))
    # A complement too small: (1, 0), its least index outside, pairs
    # trivially with the code of (0, 2), so no demo is found.
    zero = submodule_span(z4_pair, [])
    monkeypatch.setattr(analysis, "orthogonal", lambda space, code: zero)
    with pytest.raises(ConsistencyError, match="no code vector is disturbed"):
        _protection_demo(z4_pair, submodule_span(z4_pair, [(0, 2)]))


def test_module_sweeps_make_no_pairing_calls(f2u_line, f2u_plane, z4_pair, monkeypatch):
    calls = []
    original = spaces.phase_pairing

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (spaces, weyl, analysis, cli):
        monkeypatch.setattr(module, "phase_pairing", counting, raising=False)
    verdict = css_verdict(f2u_line, submodule_span(f2u_line, [(1, U)], doubled=True))
    assert verdict.witness is not None
    report = check_nilpotent_protection(z4_pair, ideal_span(z4_pair.ring, [2]))
    assert report.demo is not None
    assert noncommutativity_witness(f2u_plane) is not None
    assert calls == []


def test_carrier_sweeps_leave_the_coordinate_matrix_unbuilt():
    # 2^16 vectors: the complement, the protection demo and the
    # witness all sweep the carrier without ``space.coords``.
    ring = make_zm(16)
    space = std_space(ring, 1, 4)
    code = submodule_span(space, [(2, 4, 6, 1)])
    assert len(code) * len(orthogonal(space, code)) == space.size
    report = check_nilpotent_protection(space, ideal_span(ring, [4]))
    assert report.passed and report.demo is not None
    assert noncommutativity_witness(space) == ((1, 0, 0, 0), (1, 0, 0, 0))
    assert invariants(space).commutator_depth == 2
    assert "coords" not in vars(space)
