"""Golden CLI outputs: every command on every sample scenario, byte for byte.

Eight scenario commands run on each of the six documents in
``demos/scenarios``, in text and ``--json`` (census at ``--max-elems
16``), plus ``examples`` in both formats.  Each case compares the exit
code, stdout and stderr with ``tests/data/cli_golden.json``.

Re-record the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from frobqec import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
SCENARIOS = sorted(p.name for p in (ROOT / "demos" / "scenarios").glob("*.json"))
COMMANDS = ("ring", "code", "stabiliser", "protect", "census", "oracle", "invariants",
            "isometries")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in SCENARIOS:
        for command in COMMANDS:
            argv = [command, "--scenario", f"demos/scenarios/{name}"]
            if command == "census":
                argv += ["--max-elems", "16"]
            cases[f"{command}-{name}"] = argv
            cases[f"{command}-{name}-json"] = argv + ["--json"]
    cases["examples"] = ["examples"]
    cases["examples-json"] = ["examples", "--json"]
    return cases


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert len(SCENARIOS) == 6
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(golden, case):
    assert _run(CASES[case]) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    recorded = {case: _run(argv) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {GOLDEN.relative_to(ROOT)}")
