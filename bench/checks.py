"""Output checks behind failed_frac.

A task passes when the CLI returned a documented exit code without an
escaping exception, printed one JSON object, and the report satisfies
the identities below.  Tasks whose key is in ``expected.json`` must also
reproduce the recorded summary of their report.

Identities that hold for any seed:
- stabiliser: the group order equals the generator's own count, the
  commutation verdict matches how the generators were drawn, and
  code_dimension * label_module_size = |H|;
- oracle: dimensions_agree and generator_commutation_verified, and
  projector_rank equals the stabiliser task's code_dimension on the
  same scenario;
- code: duality_product_matches, and the exit code follows
  self_orthogonal;
- census: css <= isotropic <= submodules, plus the anchor counts;
- ring, invariants: sizes and nilpotency indices from closed forms.
"""

from __future__ import annotations

import hashlib
import json
import os

DOCUMENTED_EXITS = (0, 1, 2, 3)
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# Report keys that carry each command's verdict; the recorded summary
# covers these and the exit code, so report keys added later do not
# count as a changed answer.
SUMMARY_KEYS = {
    "ring": ("size", "generating", "nilradical", "nilpotency_index", "character"),
    "code": ("carrier_size", "code_size", "orthogonal_size", "self_orthogonal",
             "duality_product_matches"),
    "stabiliser": ("order", "scalar_turns", "abelian_mod_scalars", "label_module_size",
                   "isotropic", "fixed_scalar_turns", "code_dimension", "css"),
    "oracle": ("abelian_mod_scalars", "code_dimension", "projector_rank",
               "dimensions_agree", "generator_commutation_verified"),
    "census": ("submodules", "isotropic", "css", "non_css_with_witness", "max_elems"),
    "protect": ("passed", "code_size", "square_zero", "self_orthogonal", "counterexample"),
    "invariants": ("frobenius_rank", "nilpotent_height", "commutator_depth"),
    "isometries": ("count", "matrices", "code_orbit_preserved"),
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def task_key(task: dict) -> str:
    """Content key of a task: its command line and scenario document."""
    return _digest([task["command"], task["args"], task["doc"]])


def summary_digest(command: str, code: int, report: dict) -> str:
    return _digest([code, {k: report.get(k) for k in SUMMARY_KEYS[command]}])


def load_expected(path: str = EXPECTED_PATH) -> dict[str, str]:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["tasks"]


class Checker:
    """Checks one pass of a task list; stabiliser reports are kept per
    scenario so the matching oracle task can be compared with them."""

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.stabiliser_reports: dict[str, dict] = {}

    def check(self, task: dict, code, stdout: str, error: str | None) -> str | None:
        """None when the task passed, else a one-line reason."""
        if error is not None:
            return f"escaping exception: {error}"
        if code not in DOCUMENTED_EXITS:
            return f"undocumented exit code {code!r}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not valid JSON"
        if not isinstance(report, dict):
            return "output is not a JSON object"
        problem = getattr(self, f"_check_{task['command']}")(task, code, report)
        if problem is None:
            recorded = self.expected.get(task_key(task))
            if recorded is not None and recorded != summary_digest(task["command"], code, report):
                problem = "report differs from the recorded expected result"
        return problem

    # -- per command --------------------------------------------------------

    def _check_stabiliser(self, task, code, report):
        expect = task["expect"]
        self.stabiliser_reports[task["name"]] = report
        if report.get("order") != expect["order"]:
            return f"group order {report.get('order')} != {expect['order']}"
        if report.get("abelian_mod_scalars") is not expect["abelian"]:
            return "commutation verdict disagrees with the generators"
        if code != (0 if expect["abelian"] else 1):
            return f"exit code {code} for abelian={expect['abelian']}"
        if expect["abelian"]:
            if report.get("isotropic") is not True:
                return "abelian group with a non-isotropic label module"
            if report["code_dimension"] * report["label_module_size"] != expect["carrier"]:
                return "code_dimension * |labels| != |H|"
        return None

    def _check_oracle(self, task, code, report):
        expect = task["expect"]
        if not expect["abelian"]:
            if code != 1 or report.get("abelian_mod_scalars") is not False:
                return "oracle accepted a non-commuting group"
            return None
        if code != 0:
            return f"oracle exit code {code}"
        if report.get("dimensions_agree") is not True:
            return "oracle dimensions disagree"
        if report.get("generator_commutation_verified") is not True:
            return "oracle commutation not verified"
        exact = self.stabiliser_reports.get(task["name"], {}).get("code_dimension")
        if report.get("projector_rank") != exact:
            return f"projector_rank {report.get('projector_rank')} != code_dimension {exact}"
        return None

    def _check_census(self, task, code, report):
        if code != 0:
            return f"census exit code {code}"
        counts = [report.get(k) for k in ("submodules", "isotropic", "css",
                                           "non_css_with_witness")]
        if not all(isinstance(c, int) and c >= 0 for c in counts):
            return "census counts missing"
        total, isotropic, css, witness = counts
        if not (css <= isotropic <= total and witness <= isotropic - css):
            return "census counts are not nested"
        if str(report.get("max_elems")) != task["args"][-1]:
            return "census cap not echoed"
        for key, value in task["expect"].items():
            if report.get(key) != value:
                return f"census {key} {report.get(key)} != {value}"
        return None

    def _check_ring(self, task, code, report):
        expect = task["expect"]
        if code != 0 or report.get("generating") is not True:
            return "ring character not generating"
        if report.get("size") != expect["size"] or len(report.get("character", ())) != expect["size"]:
            return "ring size is off"
        if report.get("nilpotency_index") != expect["nil_height"]:
            return f"nilpotency index {report.get('nilpotency_index')} != {expect['nil_height']}"
        return None

    def _check_code(self, task, code, report):
        if report.get("duality_product_matches") is not True:
            return "|C| * |C_perp| != |H|"
        if report.get("carrier_size") != task["expect"]["carrier"]:
            return "carrier size is off"
        if code != (0 if report.get("self_orthogonal") else 1):
            return "exit code does not follow self_orthogonal"
        return None

    def _check_protect(self, task, code, report):
        if code != 0 or report.get("passed") is not True:
            return "nil ideal code failed protection"
        if report.get("counterexample") is not None:
            return "protection counterexample reported"
        return None

    def _check_invariants(self, task, code, report):
        expect = task["expect"]
        got = (report.get("frobenius_rank"), report.get("nilpotent_height"),
               report.get("commutator_depth"))
        if code != 0 or got != (expect["k"], expect["nil_height"], 2):
            return f"invariants {got} != {(expect['k'], expect['nil_height'], 2)}"
        return None

    def _check_isometries(self, task, code, report):
        count = report.get("count")
        if code != 0 or not isinstance(count, int) or count < 1:
            return "no isometries found"
        if len(report.get("matrices", ())) != count:
            return "isometry count does not match the matrices"
        return None
