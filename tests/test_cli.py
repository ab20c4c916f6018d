import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frobqec
from frobqec import InvalidInputError
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


def test_code_command_self_orthogonal(tmp_path, capsys):
    code, out, _ = _run(capsys, "code", "--scenario", _write(tmp_path, Z4_SCENARIO))
    assert code == 0
    assert "self-orthogonal: yes" in out
    assert "|C| * |C_perp| = |H|: yes" in out


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
