import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frobqec
import frobqec.analysis
import frobqec.cli
import frobqec.oracle
import frobqec.rings
import frobqec.spaces
import frobqec.weyl
from frobqec import ConsistencyError, DiagnosticError, InvalidInputError
from frobqec.cli import main, ring_from_doc, scenario_from_doc

CHAIN_SCENARIO = {
    "ring": {"family": "chain", "m": 2, "e": 2},
    "space": {"k": 2, "n": 1},
    "code": {"generators": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]},
    "stabiliser": {
        "generators": [
            {"a": [[1, 0], [0, 0]], "b": [[0, 1], [0, 0]]},
            {"a": [[0, 0], [1, 0]], "b": [[0, 0], [0, 1]]},
        ]
    },
    "ideal": {"generators": [[0, 1]]},
}

Z4_SCENARIO = {
    "ring": {"family": "zm", "m": 4},
    "space": {"k": 1, "n": 2},
    "code": {"generators": [[2, 0], [0, 2]]},
    "stabiliser": {"generators": [{"a": [2, 0], "b": [0, 0]}, {"a": [0, 2], "b": [0, 0]}]},
    "ideal": {"generators": [2]},
}


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# document parsing

def test_ring_from_doc_families(z6):
    assert ring_from_doc({"family": "zm", "m": 4}).size == 4
    assert ring_from_doc({"family": "chain", "m": 2, "e": 2}).size == 4
    doc = {
        "family": "product",
        "factors": [{"family": "zm", "m": 2}, {"family": "zm", "m": 3}],
    }
    assert ring_from_doc(doc).size == z6.size


@pytest.mark.parametrize(
    "doc",
    [
        {"family": "weird"},
        {"family": "zm"},
        {"family": "zm", "m": 4, "extra": 1},
        {"family": "zm", "m": "4"},
        {"family": "product", "factors": [{"family": "zm", "m": 2}]},
        "zm4",
    ],
)
def test_ring_from_doc_rejects_junk(doc):
    with pytest.raises(InvalidInputError):
        ring_from_doc(doc)


def test_scenario_requires_known_keys():
    with pytest.raises(InvalidInputError):
        scenario_from_doc({"ring": {"family": "zm", "m": 4}, "banana": 1})
    with pytest.raises(InvalidInputError):
        scenario_from_doc({"space": {"k": 1, "n": 1}})
    with pytest.raises(InvalidInputError):
        scenario_from_doc(
            {"ring": {"family": "zm", "m": 4}, "stabiliser": {"generators": [{"a": [0]}]}}
        )


def test_scenario_space_is_lazy():
    # A carrier far past the ambient bound must not block ring queries.
    sc = scenario_from_doc(
        {"ring": {"family": "zm", "m": 64}, "space": {"k": 2, "n": 2}}
    )
    assert sc.ring.size == 64
    from frobqec import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        sc.space


def test_scenario_vector_width_checked(tmp_path):
    sc = scenario_from_doc(
        {
            "ring": {"family": "zm", "m": 4},
            "space": {"k": 1, "n": 2},
            "code": {"generators": [[2]]},
        }
    )
    with pytest.raises(InvalidInputError):
        sc.require_code()


# ---------------------------------------------------------------------------
# commands

def test_ring_command(tmp_path, capsys):
    code, out, _ = _run(capsys, "ring", "--scenario", _write(tmp_path, CHAIN_SCENARIO))
    assert code == 0
    assert "ring size: 4" in out
    assert "generating character: yes" in out
    assert "nilradical size: 2" in out


def test_ring_command_json(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "ring", "--json", "--scenario", _write(tmp_path, CHAIN_SCENARIO)
    )
    assert code == 0
    report = json.loads(out)
    assert report["generating"] is True
    assert report["nilradical"] == [[0, 0], [0, 1]]
    assert report["character"][2] == [[0, 1], "1/2"]


def _reference_ring_report(ring):
    """The ring report one element document and one Turn at a time."""
    nil = frobqec.rings.nilradical(ring)
    return {
        "size": ring.size,
        "family": ring.family,
        "generating": True,
        "nilradical": [ring.element_to_doc(x) for x in nil.elements],
        "nilpotency_index": frobqec.rings.nilpotency_index(nil),
        "character": [[ring.element_to_doc(x), str(ring.epsilon(x))] for x in ring.elements()],
    }


_CHAIN = {"family": "chain", "m": 2, "e": 2}


@pytest.mark.parametrize("family", [
    {"family": "product", "factors": [{"family": "zm", "m": 5}, _CHAIN]},
    {"family": "product", "factors": [
        {"family": "product", "factors": [{"family": "chain", "m": 3, "e": 2}, {"family": "zm", "m": 2}]},
        {"family": "product", "factors": [_CHAIN, {"family": "zm", "m": 5}]}]},
    {"family": "chain", "m": 2, "e": 12},
])
def test_ring_reports_match_the_per_element_reference(tmp_path, capsys, family):
    # The rendered rows must be what json.dumps gives for the documents
    # built one element at a time, and text mode shows the first 16.
    ring = ring_from_doc(family)
    reference = _reference_ring_report(ring)
    path = _write(tmp_path, {"ring": family})
    code, out, _ = _run(capsys, "ring", "--json", "--scenario", path)
    assert code == 0
    assert out == json.dumps(reference, sort_keys=True, indent=2) + "\n"
    code, out, _ = _run(capsys, "ring", "--scenario", path)
    shown = [f"  character({doc!r}) = {turn}" for doc, turn in reference["character"][:16]]
    assert out.splitlines() == [
        f"ring size: {ring.size}",
        "generating character: yes",
        f"nilradical size: {len(reference['nilradical'])}",
        f"nilpotency index: {reference['nilpotency_index']}",
        *shown,
        f"  ... {ring.size - 16} more entries",
    ]


_KEYS = st.text() | st.sampled_from(["", "a\"b", "back\\slash", "\x00\x1f\x7f", "\u00e9\u2603",
                                     "\U0001f600", "tab\tnew\nline"])
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70) | _KEYS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_REPORT_VALUES)
@example({"b": [1, (), {}], "a": {"\"q\"": None, "\u00e9": [True, False, -1]}})
@example([[], {}, "", 2**64, -(2**64) - 1])
def test_json_writer_matches_json_dumps(value):
    assert frobqec.cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, {"a": [0, {2}]}, (object(),), {"x": 1.5}, {1: 2}])
def test_json_writer_refuses_what_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        frobqec.cli._json_text(value)


def test_code_command_self_orthogonal(tmp_path, capsys):
    code, out, _ = _run(capsys, "code", "--scenario", _write(tmp_path, Z4_SCENARIO))
    assert code == 0
    assert "self-orthogonal: yes" in out
    assert "|C| * |C_perp| = |H|: yes" in out


def test_code_command_at_the_carrier_bound(tmp_path, capsys):
    # Z_2 with n = 20 is the largest carrier, 2^20 vectors; the sweep of
    # the complement builds no coordinate matrix.
    doc = {"ring": {"family": "zm", "m": 2}, "space": {"k": 1, "n": 20},
           "code": {"generators": [[1] * 20]}}
    code, out, _ = _run(capsys, "code", "--json", "--scenario", _write(tmp_path, doc))
    assert code == 0
    report = json.loads(out)
    assert report["orthogonal_size"] == 524288 and report["code_size"] == 2


def test_code_command_negative_verdict(tmp_path, capsys):
    doc = {
        "ring": {"family": "zm", "m": 4},
        "space": {"k": 1, "n": 2},
        "code": {"generators": [[1, 0]]},
    }
    code, out, _ = _run(capsys, "code", "--scenario", _write(tmp_path, doc))
    assert code == 1
    assert "self-orthogonal: no" in out


def test_stabiliser_command_mixed_chain(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "stabiliser", "--scenario", _write(tmp_path, CHAIN_SCENARIO)
    )
    assert code == 0
    assert "group order: 8" in out
    assert "code dimension: 4" in out
    assert "css: non_css" in out


def test_stabiliser_command_tests_isotropy_once(tmp_path, capsys, monkeypatch):
    # The Z_4 group is abelian, so its label module is isotropic, and
    # the precondition of css_verdict is the one test of it.
    calls = []
    real = frobqec.weyl.is_isotropic

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (frobqec.weyl, frobqec.analysis, frobqec.cli):
        if hasattr(module, "is_isotropic"):
            monkeypatch.setattr(module, "is_isotropic", counted)
    code, out, _ = _run(capsys, "stabiliser", "--scenario", _write(tmp_path, Z4_SCENARIO))
    assert code == 0
    assert "isotropic: yes" in out and "css: css" in out
    assert len(calls) == 1


def test_stabiliser_command_anticommuting(tmp_path, capsys):
    doc = {
        "ring": {"family": "zm", "m": 4},
        "space": {"k": 1, "n": 1},
        "stabiliser": {"generators": [{"a": [1], "b": [0]}, {"a": [0], "b": [1]}]},
    }
    code, out, _ = _run(capsys, "stabiliser", "--scenario", _write(tmp_path, doc))
    assert code == 1
    assert "abelian mod scalars: no" in out
    assert "omega 3/4" in out


@pytest.mark.parametrize("command", ["stabiliser", "oracle"])
def test_turn_past_int64_is_refused_by_the_group_bound(tmp_path, capsys, command):
    # A turn of 1/10^30 gives the scalar subgroup an order far past the
    # bound; it must be refused as such, never wrap in a fixed-width grid.
    doc = {
        "ring": {"family": "zm", "m": 4},
        "space": {"k": 1, "n": 1},
        "stabiliser": {"generators": [{"turn": "1/" + "1" + "0" * 30, "a": [1], "b": [0]}]},
    }
    code, out, err = _run(capsys, command, "--scenario", _write(tmp_path, doc))
    assert code == 3
    assert "group closure exceeded the bound of 4096 elements" in err


def test_protect_command(tmp_path, capsys):
    code, out, _ = _run(capsys, "protect", "--scenario", _write(tmp_path, Z4_SCENARIO))
    assert code == 0
    assert "protection: pass" in out
    assert "non-admissible disturbance" in out


def test_census_command_frozen_counts(tmp_path, capsys):
    doc = {"ring": {"family": "zm", "m": 2}, "space": {"k": 1, "n": 1}}
    code, out, _ = _run(
        capsys, "census", "--scenario", _write(tmp_path, doc), "--max-elems", "4"
    )
    assert code == 0
    assert "submodules up to 4 elements: 5" in out
    assert "isotropic: 4" in out
    assert "css: 3" in out
    assert "non-css with witness: 1" in out


def test_census_output_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, Z4_SCENARIO)
    args = ("census", "--scenario", path, "--json", "--max-elems", "8")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_oracle_command(tmp_path, capsys):
    code, out, _ = _run(capsys, "oracle", "--scenario", _write(tmp_path, CHAIN_SCENARIO))
    assert code == 0
    assert "exact code dimension: 4" in out
    assert "numeric projector rank: 4" in out
    assert "agreement: yes" in out


def test_invariants_command(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "invariants", "--scenario", _write(tmp_path, CHAIN_SCENARIO)
    )
    assert code == 0
    assert "frobenius rank: 2" in out
    assert "nilpotent height: 2" in out
    assert "commutator depth: 2" in out


def test_isometries_command(tmp_path, capsys):
    doc = {"ring": {"family": "zm", "m": 4}, "space": {"k": 1, "n": 1}}
    code, out, _ = _run(capsys, "isometries", "--scenario", _write(tmp_path, doc))
    assert code == 0
    assert "isometries of the site form: 2" in out


def test_isometries_refuse_a_tampered_code_image(tmp_path, capsys, monkeypatch):
    doc = {"ring": {"family": "zm", "m": 4}, "space": {"k": 1, "n": 1},
           "code": {"generators": [[2]]}}
    path = _write(tmp_path, doc)
    code, out, _ = _run(capsys, "isometries", "--scenario", path, "--json")
    assert (code, json.loads(out)["code_orbit_preserved"]) == (0, True)

    # Every image is now the whole line, twice the code's size; the scan
    # stops at the first of the two isometries.
    calls = []

    def tampered(space, image, target):
        calls.append(image)
        return frobqec.submodule_span(space, [(1,)])

    monkeypatch.setattr(frobqec.analysis, "_transport", tampered)
    code, out, _ = _run(capsys, "isometries", "--scenario", path, "--json")
    report = json.loads(out)
    assert (code, report["count"], report["code_orbit_preserved"]) == (1, 2, False)
    assert len(calls) == 1


def test_examples_command(capsys):
    code, out, _ = _run(capsys, "examples")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_examples_command_json(capsys):
    code, out, _ = _run(capsys, "examples", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["checks"]) == 12
    assert all(entry["passed"] for entry in report["checks"])


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["code"],
    ["examples", "--scenario", "x"],
    ["code", "--scenario", "SCENARIO", "--max-elems", "4"],
    ["census", "--scenario", "SCENARIO", "--max-elems", "four"],
], ids=["no-command", "unknown-command", "no-scenario", "examples-scenario",
        "cap-off-census", "cap-not-an-int"])
def test_argv_errors_exit_2_with_a_usage_line(tmp_path, capsys, argv):
    path = _write(tmp_path, Z4_SCENARIO)
    with pytest.raises(SystemExit) as exc:
        main([path if arg == "SCENARIO" else arg for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == ""
    assert lines[0].startswith("usage: frobqec")
    assert lines[-1].startswith("frobqec: error: ")
    assert sum("error:" in line for line in lines) == 1
    assert "Traceback" not in err


def test_each_main_call_builds_exactly_one_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = _write(tmp_path, Z4_SCENARIO)
    assert main(["ring", "--scenario", path]) == 0
    assert main(["census", "--scenario", path, "--json"]) == 0
    assert len(built) == 2


def test_top_level_help_names_every_command_and_option(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{ring,code,stabiliser,protect,census,oracle,invariants,isometries,examples}" in out
    for option, applies in [("--scenario", "every command but examples"),
                            ("--json", "every command"), ("--max-elems", "census only")]:
        assert any(option in line and applies in line for line in out.splitlines()), option


def test_missing_scenario_file_is_invalid_input(capsys):
    code, _, err = _run(capsys, "ring", "--scenario", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_unparsable_scenario_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "ring", "--scenario", str(path))
    assert code == 2


def test_missing_section_is_invalid_input(tmp_path, capsys):
    doc = {"ring": {"family": "zm", "m": 4}, "space": {"k": 1, "n": 1}}
    code, _, err = _run(capsys, "code", "--scenario", _write(tmp_path, doc))
    assert code == 2
    assert "no code document" in err


def test_resource_bound_exit_code(tmp_path, capsys):
    doc = {"ring": {"family": "zm", "m": 64}, "space": {"k": 2, "n": 2}}
    path = _write(tmp_path, doc)
    code, _, _ = _run(capsys, "ring", "--scenario", path)
    assert code == 0
    code, _, err = _run(capsys, "code", "--scenario", path)
    assert code == 3
    assert "resource bound" in err


def _refuse_with(error):
    def refuse(*args, **kwargs):
        raise error
    return refuse


@pytest.mark.parametrize(
    "module, name, error, command, exit_code, prefix",
    [
        pytest.param(frobqec.oracle, "matrix_rank_with_dead_band",
                     DiagnosticError("pivot 5.000e-09 falls in the dead band"),
                     "oracle", 4, "diagnostic: ", id="dead-band-is-undecided"),
        pytest.param(frobqec.cli, "make_chain_ring",
                     ConsistencyError("character is not generating"),
                     "ring", 5, "internal error: ", id="builder-fault-is-internal"),
    ],
)
def test_undecided_and_internal_errors_have_their_own_exits(
        tmp_path, capsys, monkeypatch, module, name, error, command, exit_code, prefix):
    monkeypatch.setattr(module, name, _refuse_with(error))
    code, out, err = _run(capsys, command, "--scenario", _write(tmp_path, CHAIN_SCENARIO))
    assert code == exit_code
    assert out == ""
    assert err == f"{prefix}{error}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("name, values", [
    ("neg_table", [0, 3, 2, 9]), ("neg_table", [0, 3, 2]), ("eps_num", [0, 1, 2]),
], ids=["negation-out-of-range", "short-negation", "short-character"])
def test_bad_builder_vector_is_internal(tmp_path, capsys, monkeypatch, name, values):
    build = frobqec.cli.make_zm

    def tampered(m):
        ring = build(m)
        frobqec.rings._validate_ring(dataclasses.replace(ring, **{name: np.array(values)}))
        return ring

    monkeypatch.setattr(frobqec.cli, "make_zm", tampered)
    doc = {"ring": {"family": "zm", "m": 4}}
    code, out, err = _run(capsys, "ring", "--scenario", _write(tmp_path, doc))
    assert code == 5
    assert out == ""
    assert err == "internal error: table shape or range is off\n"


def _unit_generators(n, shifts, phases):
    """Pure shifts along the first coordinates, pure phases along the
    last: disjoint supports, so the group is abelian with no scalars."""
    unit = lambda i: [1 if j == i else 0 for j in range(n)]
    zero = [0] * n
    return ([{"a": unit(i), "b": zero} for i in range(shifts)]
            + [{"a": zero, "b": unit(n - 1 - i)} for i in range(phases)])


@st.composite
def _bounded_groups(draw):
    m, exponents = draw(st.sampled_from([(2, (9, 13)), (4, (5, 6))]))
    n = draw(st.integers(*exponents))
    shifts = draw(st.integers(0, n))
    return m, n, shifts, draw(st.integers(0, n - shifts))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(_bounded_groups())
@example((2, 12, 8, 1))  # |S| * |H| at its bound
@example((2, 12, 8, 2))  # one doubling past it
@example((2, 9, 9, 0))  # 512 distinct shifts
@example((2, 13, 1, 1))  # 8192 labels
def test_oracle_fuzz_near_its_bounds(case):
    # Carriers of 2^9 to 2^13 labels, groups of m^(shifts + phases)
    # elements with m^shifts distinct shifts: the verdict is 0 inside
    # every bound and 3 past any one, always with at most one stderr line.
    m, n, shifts, phases = case
    doc = {"ring": {"family": "zm", "m": m}, "space": {"k": 1, "n": n},
           "stabiliser": {"generators": _unit_generators(n, shifts, phases)}}
    size, order = m**n, m ** (shifts + phases)
    inside = (order <= frobqec.weyl.DEFAULT_GROUP_BOUND and size <= frobqec.oracle.APPLY_BOUND
              and order * size <= frobqec.oracle.MONOMIAL_BOUND
              and m**shifts <= frobqec.oracle.MATRIX_BOUND)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "scenario.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["oracle", "--scenario", path, "--json"])
    if inside:
        assert code == 0 and err.getvalue() == ""
        report = json.loads(out.getvalue())
        assert report["projector_rank"] == report["code_dimension"] == size // order
    else:
        assert code == 3 and out.getvalue() == ""
        assert err.getvalue().startswith("resource bound: ")
        assert err.getvalue().count("\n") == 1


def test_walk_refusals_keep_their_order(tmp_path, capsys, monkeypatch):
    # Z_2 on 7 sites: the unit shifts and phases grow 2^14 labels, and the
    # 13th generator's cosets would pass the bound of 4096.  A turn of
    # 1/10^20 on the 14th is never read: the label bound stops the walk.
    n, zero, huge = 7, [0] * 7, "1/100000000000000000000"
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    gens = [{"a": e, "b": zero} for e in units] + [{"a": zero, "b": e} for e in units]
    doc = {"ring": {"family": "zm", "m": 2}, "space": {"k": 1, "n": n},
           "stabiliser": {"generators": gens}}
    bound_line = "resource bound: group closure exceeded the bound of 4096 elements\n"
    denominator_line = "resource bound: group turns need a denominator past 2^60\n"
    gens[-1]["turn"] = huge
    assert _run(capsys, "stabiliser", "--scenario", _write(tmp_path, doc)) == (3, "", bound_line)
    # On the first generator the same turn is refused at once: its
    # Schreier scalar alone passes the bound, which is checked before the
    # denominator.
    gens[-1].pop("turn")
    gens[0]["turn"] = huge
    assert _run(capsys, "stabiliser", "--scenario", _write(tmp_path, doc)) == (3, "", bound_line)
    # Past a bound that lets it through, the denominator refusal comes
    # first, before any turn table is built.
    monkeypatch.setattr(frobqec.cli, "group_closure",
                        functools.partial(frobqec.weyl.group_closure, bound=1 << 70))
    assert (_run(capsys, "stabiliser", "--scenario", _write(tmp_path, doc))
            == (3, "", denominator_line))


_IDEAL_FAMILIES = [
    {"family": "zm", "m": 4}, {"family": "zm", "m": 12}, {"family": "zm", "m": 4096},
    {"family": "chain", "m": 4, "e": 2}, {"family": "chain", "m": 3, "e": 3},
    {"family": "chain", "m": 2, "e": 12},
    {"family": "product", "factors": [{"family": "zm", "m": 4},
                                      {"family": "chain", "m": 2, "e": 2}]},
]
_BAD_ELEMENTS = ["x", 2.5, True, None, {"a": 1}, [[0]], [0] * 13]


def _element_docs(family, unit):
    """Element documents of units (leading coefficient coprime to m) or
    of nilpotents (leading coefficient a multiple of every prime of m)."""
    if family["family"] == "product":
        return st.tuples(*(_element_docs(f, unit) for f in family["factors"])).map(list)
    m, coeff = family["m"], st.integers(-10**6, 10**6)
    radical = math.prod(p for p in range(2, m + 1)
                        if m % p == 0 and all(p % q for q in range(2, p)))
    lead = st.sampled_from([1, m - 1, m + 1]) if unit else coeff.map(lambda c: c * radical)
    if family["family"] == "zm":
        return lead
    tail = st.lists(coeff, min_size=family["e"] - 1, max_size=family["e"] - 1)
    return st.tuples(lead, tail).map(lambda t: [t[0], *t[1]])


_BAD_IDEALS = [5, [], {}, {"generators": 5}, {"generators": [], "x": 1}]


@st.composite
def _ideal_scenarios(draw):
    family = draw(st.sampled_from(_IDEAL_FAMILIES))
    size = frobqec.rings.family_size(family)
    nil = _element_docs(family, unit=False)
    kind = draw(st.sampled_from(["nilpotent", "long", "unit", "malformed", "empty", "document"]))
    extra = {"unit": _element_docs(family, unit=True).map(lambda x: [x]),
             "malformed": st.sampled_from(_BAD_ELEMENTS).map(lambda x: [x]),
             "long": st.lists(nil, min_size=200, max_size=400)}.get(kind, st.just([]))
    gens = draw(st.lists(nil, max_size=0 if kind == "empty" else 3))
    gens = draw(st.permutations(gens + draw(extra)))
    ideal = draw(st.sampled_from(_BAD_IDEALS)) if kind == "document" else {"generators": gens}
    doc = {"ring": family, "space": {"k": 1, "n": draw(st.integers(1, 2 if size <= 64 else 1))},
           "ideal": ideal}
    return draw(st.sampled_from(["protect", "invariants", "ring"])), kind, doc


def _large(family, gens):
    return {"ring": family, "space": {"k": 1, "n": 1}, "ideal": {"generators": gens}}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_ideal_scenarios())
@example(("protect", "long",
          _large(_IDEAL_FAMILIES[5], [[2 * i, i] + [0] * 10 for i in range(300)])))
@example(("protect", "nilpotent", _large(_IDEAL_FAMILIES[2], [1024, 6, -2])))
@example(("ring", "empty", _large(_IDEAL_FAMILIES[5], [])))
@example(("invariants", "document", {**_large(_IDEAL_FAMILIES[6], []), "ideal": _BAD_IDEALS[3]}))
@example(("protect", "malformed", _large(_IDEAL_FAMILIES[6], [[2, [0, 1]], "x"])))
def test_ideal_commands_fuzz(case):
    # Rings up to 4096 elements, carriers inside every bound: ``ring`` and
    # ``invariants`` read only the ideal document's shape, and ``protect``
    # refuses units and malformed elements with one line and decides the rest.
    command, kind, doc = case
    text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "scenario.json")
        with open(path, "w") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--scenario", path, "--json"])
    if kind == "document" or command == "protect" and kind in ("unit", "malformed"):
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert len(err.getvalue()) < len(text) + 200
    else:
        assert code in ((0, 1) if command == "protect" else (0,))
        assert err.getvalue() == ""
        json.loads(out.getvalue())


_CODE_FAMILIES = [
    {"family": "zm", "m": 4}, {"family": "zm", "m": 12}, {"family": "zm", "m": 4096},
    {"family": "chain", "m": 4, "e": 2}, {"family": "chain", "m": 2, "e": 12},
    {"family": "product", "factors": [{"family": "zm", "m": 4},
                                      {"family": "chain", "m": 2, "e": 2}]},
    {"family": "product", "factors": [{"family": "zm", "m": 64},
                                      {"family": "chain", "m": 4, "e": 3}]},
]
_BAD_VECTORS = ["x", 5, None, {"a": 1}, [], [[0]], ["x"], [2.5], [True]]


def _any_element(family):
    """Element documents with coefficients far outside the ring's range."""
    if family["family"] == "product":
        return st.tuples(*map(_any_element, family["factors"])).map(list)
    coeff = st.integers(-10**6, 10**6)
    return coeff if family["family"] == "zm" else st.lists(coeff, min_size=family["e"],
                                                            max_size=family["e"])


@st.composite
def _code_scenarios(draw):
    family = draw(st.sampled_from(_CODE_FAMILIES))
    size = frobqec.rings.family_size(family)
    command = draw(st.sampled_from(["code", "isometries"]))
    kind = draw(st.sampled_from(["valid", "long", "malformed", "document", "oversized"]))
    k = draw(st.integers(1, 3 if size <= 12 else 1))
    n = 1 if command == "isometries" else draw(st.integers(1, 2 if size <= 64 else 1))
    if kind == "oversized":  # rank 21: past the carrier bound for every ring
        n = 21
    vector = st.lists(_any_element(family), min_size=k * n, max_size=k * n)
    gens = draw(st.lists(vector, min_size=200 if kind == "long" else 0,
                         max_size=400 if kind == "long" else 3))
    if kind == "malformed":
        gens = draw(st.permutations(gens + [draw(st.sampled_from(_BAD_VECTORS))]))
    code = draw(st.sampled_from(_BAD_IDEALS)) if kind == "document" else {"generators": gens}
    return command, kind, {"ring": family, "space": {"k": k, "n": n}, "code": code}


def _code_case(command, kind, family, k, n, gens):
    return command, kind, {"ring": family, "space": {"k": k, "n": n}, "code": {"generators": gens}}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_code_scenarios())
@example(_code_case("code", "long", _CODE_FAMILIES[2], 1, 1, [[6 * i + 1024] for i in range(300)]))
@example(_code_case("isometries", "valid", _CODE_FAMILIES[4], 1, 1, [[[0] * 11 + [1]]]))
@example(_code_case("isometries", "valid", _CODE_FAMILIES[6], 1, 1, [[[2, [0, 1, 0]]]]))
@example(_code_case("code", "malformed", _CODE_FAMILIES[5], 1, 2, [[[2, [0, 1]], 0], "x"]))
@example(_code_case("isometries", "malformed", _CODE_FAMILIES[0], 3, 1, [[1, 2, 3], [1]]))
@example(_code_case("code", "oversized", _CODE_FAMILIES[2], 1, 6, []))
def test_code_commands_fuzz(case):
    # Rings up to 4096 elements and products among them.  A malformed
    # code document or vector is refused with one line, a carrier or an
    # isometry scan past its bound ends in a resource bound, and every
    # other code gets a verdict: isometries preserve self-orthogonality.
    command, kind, doc = case
    ring, space = doc["ring"], doc["space"]
    size = frobqec.rings.family_size(ring) ** (space["k"] * space["n"])
    scan = frobqec.rings.family_size(ring) ** (space["k"] ** 2)
    text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "scenario.json")
        with open(path, "w") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--scenario", path, "--json"])
    if kind == "document" or kind == "malformed" and not (
            command == "isometries" and scan > frobqec.analysis.ISOMETRY_SCAN_BOUND):
        assert code == 2 and err.getvalue().startswith("error: ")
    elif size > frobqec.spaces.AMBIENT_BOUND or (
            command == "isometries" and scan > frobqec.analysis.ISOMETRY_SCAN_BOUND):
        assert code == 3 and err.getvalue().startswith("resource bound: ")
    else:
        assert code in ((0, 1) if command == "code" else (0,))
        assert err.getvalue() == ""
        json.loads(out.getvalue())
        return
    assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    assert len(err.getvalue()) < len(text) + 200


_STABILISER_FAMILIES = [
    {"family": "zm", "m": 2}, {"family": "zm", "m": 3}, {"family": "zm", "m": 4},
    {"family": "chain", "m": 2, "e": 2},
    {"family": "product", "factors": [{"family": "zm", "m": 2}, {"family": "zm", "m": 3}]},
]
_TURNS = st.one_of(st.builds("{}/{}".format, st.integers(-50, 50), st.integers(1, 12)),
                   st.integers(-3, 3).map(str))
_BAD_TURNS = ["x", "1/0", "1/2/3", "", 5, None]
_BAD_STABILISERS = [5, [], {}, {"generators": 5}, {"generators": [5]},
                    {"generators": [{"a": [0]}]}, {"generators": [], "x": 1}]
# Z_2 with n = 9: the unit generators span 2^18 labels, past the group
# bound, and the doubled space has 2^18 vectors, past the census bound.
_PAST_BOUND = 9


def _unit_stabiliser(n):
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    zero = [0] * n
    return [{"a": u, "b": zero} for u in units] + [{"a": zero, "b": u} for u in units]


@st.composite
def _stabiliser_scenarios(draw):
    kind = draw(st.sampled_from(["valid", "long", "malformed", "document", "bound"]))
    family = draw(st.sampled_from(_STABILISER_FAMILIES[:1] if kind == "bound"
                                  else _STABILISER_FAMILIES))
    size = frobqec.rings.family_size(family)
    n = _PAST_BOUND if kind == "bound" else draw(st.integers(1, 3 if size == 2 else 1))
    vector = st.lists(_any_element(family), min_size=n, max_size=n)
    generator = st.fixed_dictionaries({"a": vector, "b": vector}, optional={"turn": _TURNS})
    gens = draw(st.lists(generator, min_size=200 if kind == "long" else 0,
                         max_size=400 if kind == "long" else 3))
    if kind == "malformed":
        bad = st.one_of(
            st.fixed_dictionaries({"a": st.sampled_from(_BAD_VECTORS), "b": vector}),
            st.fixed_dictionaries({"a": vector, "b": vector, "turn": st.sampled_from(_BAD_TURNS)}))
        gens = draw(st.permutations(gens + [draw(bad)]))
    elif kind == "bound":
        gens = _unit_stabiliser(n)
    stabiliser = (draw(st.sampled_from(_BAD_STABILISERS)) if kind == "document"
                  else {"generators": gens})
    cap = draw(st.integers(-2, 2 * size ** (2 * n)))
    command = draw(st.sampled_from(["stabiliser", "census"]))
    return command, kind, cap, {"ring": family, "space": {"k": 1, "n": n},
                                "stabiliser": stabiliser}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_stabiliser_scenarios())
@example(("stabiliser", "long", 64, {"ring": _STABILISER_FAMILIES[2], "space": {"k": 1, "n": 1},
                                     "stabiliser": {"generators": [{"a": [i], "b": [3 * i]}
                                                                   for i in range(300)]}}))
@example(("stabiliser", "malformed", 64, {"ring": _STABILISER_FAMILIES[4],
                                          "space": {"k": 1, "n": 1},
                                          "stabiliser": {"generators": [{"a": [[1, 2]], "b": [3]}]}}))
@example(("stabiliser", "bound", 64, {"ring": _STABILISER_FAMILIES[0],
                                      "space": {"k": 1, "n": _PAST_BOUND},
                                      "stabiliser": {"generators": _unit_stabiliser(_PAST_BOUND)}}))
@example(("census", "bound", 8, {"ring": _STABILISER_FAMILIES[0],
                                 "space": {"k": 1, "n": _PAST_BOUND}}))
@example(("census", "valid", 0, {"ring": _STABILISER_FAMILIES[1], "space": {"k": 1, "n": 1}}))
@example(("census", "valid", 64, {"ring": _STABILISER_FAMILIES[0], "space": {"k": 1, "n": 3}}))
@example(("stabiliser", "document", 64, {"ring": _STABILISER_FAMILIES[3],
                                         "space": {"k": 1, "n": 1},
                                         "stabiliser": _BAD_STABILISERS[5]}))
def test_stabiliser_and_census_fuzz(case):
    # Small rings and products.  A malformed stabiliser document, vector
    # or turn, or a census cap below one, is refused with one line; a
    # census past the enumeration bound ends in a resource bound, and so
    # does a group past the group bound, which many turns of small
    # denominators can also reach; everything else gets a verdict.  The
    # census reads the stabiliser document's shape only.
    command, kind, cap, doc = case
    text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "scenario.json")
        with open(path, "w") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            extra = ["--max-elems", str(cap)] if command == "census" else []
            code = main([command, "--scenario", path, "--json", *extra])
    if kind == "document" or (kind == "malformed" if command == "stabiliser" else cap < 1):
        assert code == 2 and err.getvalue().startswith("error: ")
    elif kind == "bound" or code == 3 and command == "stabiliser":
        assert code == 3 and err.getvalue().startswith("resource bound: ")
    else:
        assert code in ((0, 1) if command == "stabiliser" else (0,))
        assert err.getvalue() == ""
        json.loads(out.getvalue())
        return
    assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    assert len(err.getvalue()) < len(text) + 200


def test_oversized_ring_is_a_resource_bound(tmp_path, capsys):
    doc = {"ring": {"family": "zm", "m": 4097}}
    code, _, err = _run(capsys, "ring", "--scenario", _write(tmp_path, doc))
    assert code == 3


def _nested_products(depth):
    # Built as text: the JSON encoder would hit the same recursion limit.
    leaf = '{"family": "zm", "m": 2}'
    ring = leaf
    for _ in range(depth):
        ring = f'{{"family": "product", "factors": [{ring}, {leaf}]}}'
    return f'{{"ring": {ring}}}'


@pytest.mark.parametrize(
    "command, text, expected",
    [
        pytest.param(
            "code",
            json.dumps({"ring": {"family": "zm", "m": 2},
                        "space": {"k": 1, "n": 30_000_000},
                        "code": {"generators": []}}),
            3,
            id="carrier-too-long-to-print",
        ),
        pytest.param(
            "code",
            json.dumps({"ring": {"family": "zm", "m": 2},
                        "space": {"k": 3000, "n": 1},
                        "code": {"generators": []}}),
            3,
            id="site-rank-too-large-for-a-form",
        ),
        pytest.param(
            "ring", json.dumps({"ring": {"family": "chain", "m": 2, "e": 10**6}}), 3,
            id="chain-too-long-to-print",
        ),
        pytest.param("ring", _nested_products(1500), 2, id="nested-too-deeply"),
        pytest.param(
            "code",
            json.dumps({"ring": {"family": "zm", "m": 4},
                        "space": {"k": 2, "n": 1, "form": [[1, 0], 5]},
                        "code": {"generators": []}}),
            2,
            id="form-row-not-a-list",
        ),
        pytest.param(
            "ring", '{"ring": {"family": "zm", "m": ' + "7" * 5000 + "}}", 2,
            id="integer-too-long-to-parse",
        ),
        # Every subspace of F_2^16 of dimension at most 4, about 9.2e14
        # modules: the walk is refused before its queue exhausts memory.
        pytest.param(
            "census --max-elems 16",
            json.dumps({"ring": {"family": "zm", "m": 2}, "space": {"k": 1, "n": 8}}), 3,
            id="census-past-the-module-bound",
        ),
    ],
)
def test_oversized_documents_end_in_a_documented_exit(tmp_path, command, text, expected):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(frobqec.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "frobqec.cli", *command.split(), "--scenario", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    # No message outgrows the document: sizes are echoed, never expanded.
    assert len(proc.stderr) < len(text) + 200


@pytest.mark.parametrize("command", ["ring", "invariants", "protect"])
def test_nil_commands_build_the_nilradical_at_most_once(tmp_path, capsys, monkeypatch, command):
    counts = {"nilradical": 0, "_check_ideal": 0}
    for name in counts:
        original = getattr(frobqec.rings, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in (frobqec.rings, frobqec.analysis, frobqec.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    code, _, err = _run(capsys, command, "--scenario", _write(tmp_path, CHAIN_SCENARIO))
    assert (code, err) == (0, "")
    assert counts["nilradical"] <= 1
    assert counts["_check_ideal"] <= 1


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_a_reader_that_stops_early_gets_no_traceback(tmp_path, flags):
    # The read end closes before the first write, as when ``| head`` has
    # what it wants; Z_1039's report is some 40 kB of JSON.
    path = _write(tmp_path, {"ring": {"family": "zm", "m": 1039}, "space": {"k": 1, "n": 1}})
    env = dict(os.environ, PYTHONPATH=str(Path(frobqec.__file__).resolve().parent.parent))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "frobqec.cli", "ring", "--scenario", path, *flags],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == 0
